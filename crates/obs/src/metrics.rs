//! The process-wide metrics registry: counters, gauges, histograms.
//!
//! Handles are cheap clones of shared atomics, fetched once at
//! construction time by the layer that records into them.  There is one
//! registration path ([`Registry::counter_with`] and its siblings all
//! end in it) and it never fails and never panics: past [`MAX_SERIES`]
//! series, or under a name already taken by another metric type, the
//! caller gets a working but *detached* handle, counted in
//! [`Registry::dropped_series`] and left out of the exports.

use qbism_check::sync::lock_or_recover;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotone event counter.
///
/// Handles are cheap clones of one shared atomic; adds are relaxed and
/// **wrap** on `u64` overflow (Prometheus counter-reset semantics).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (wrapping).  No-op while recording is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (e.g. live long fields, allocated pages).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.  No-op while recording is disabled.
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.0.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in seconds: 1 µs doubling up to
/// ~67 s (28 finite buckets) — wide enough for both native microsecond
/// queries and simulated 1994 tens-of-seconds answers.
fn default_seconds_buckets() -> Vec<f64> {
    (0..28).map(|i| 1e-6 * f64::from(1u32 << i)).collect()
}

#[derive(Debug)]
struct HistogramInner {
    /// Finite bucket upper bounds, ascending.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; one extra slot for +Inf.
    counts: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observed values, in nanounits, wrapping.
    sum_nanos: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations (typically seconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(default_seconds_buckets())
    }
}

impl Histogram {
    /// `bounds`: finite bucket upper bounds, strictly ascending.
    fn new(bounds: Vec<f64>) -> Histogram {
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }))
    }

    /// Records one observation.  No-op while recording is disabled.
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| v > b);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_nanos.fetch_add((v.max(0.0) * 1e9) as u64, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (seconds if seconds were observed).
    pub fn sum(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Estimated quantile `q` in `[0, 1]`, linearly interpolated within
    /// the owning bucket (the Prometheus `histogram_quantile` estimate).
    /// Returns `None` with no observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let inner = &self.0;
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * total as f64;
        let mut cumulative = 0u64;
        for (i, c) in inner.counts.iter().enumerate() {
            let here = c.load(Ordering::Relaxed);
            let next = cumulative + here;
            if (next as f64) >= rank && here > 0 {
                let lower = if i == 0 { 0.0 } else { inner.bounds[i - 1] };
                let upper = if i < inner.bounds.len() {
                    inner.bounds[i]
                } else {
                    // +Inf bucket: report its lower bound (best estimate).
                    return Some(lower);
                };
                let into = (rank - cumulative as f64) / here as f64;
                return Some(lower + into.clamp(0.0, 1.0) * (upper - lower));
            }
            cumulative = next;
        }
        inner.bounds.last().copied()
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Cumulative `(upper_bound, count)` pairs, ending with `(+Inf, total)`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let inner = &self.0;
        let mut out = Vec::with_capacity(inner.counts.len());
        let mut acc = 0u64;
        for (i, c) in inner.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            let bound = if i < inner.bounds.len() { inner.bounds[i] } else { f64::INFINITY };
            out.push((bound, acc));
        }
        out
    }
}

/// Instance key: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Cap on distinct series per registry — the cardinality guard that
/// keeps a label explosion (e.g. a study id used as a label) from
/// growing the registry without bound.
pub const MAX_SERIES: usize = 4096;

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<Key, Metric>,
    help: BTreeMap<String, String>,
    /// Registrations handed a detached handle instead of a series.
    dropped_series: u64,
}

/// A metrics registry.  [`global()`] returns the process-wide instance
/// every QBISM layer records into; separate instances serve tests.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    labels.sort();
    Key { name: name.to_string(), labels }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The one registration path: the series `name{labels}` if it is
    /// registered as a `T` (`pick` tells), a fresh one if the name is
    /// free and the registry below [`MAX_SERIES`].  Otherwise — the cap
    /// is reached, or the series exists as another metric type — the
    /// caller gets a *detached* handle: it works, but is not registered
    /// or exported, and the drop is counted in
    /// [`Registry::dropped_series`].
    fn register<T: Clone + Default>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wrap: fn(T) -> Metric,
        pick: fn(&Metric) -> Option<&T>,
    ) -> T {
        let key = make_key(name, labels);
        let mut inner = lock_or_recover(&self.inner);
        match inner.metrics.get(&key).map(pick) {
            Some(Some(series)) => return series.clone(),
            None if inner.metrics.len() < MAX_SERIES => {
                let series = T::default();
                inner.metrics.insert(key, wrap(series.clone()));
                return series;
            }
            // Another type holds the name, or the registry is full.
            Some(None) | None => {}
        }
        inner.dropped_series += 1;
        T::default()
    }

    /// The unlabeled counter `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter `name` with the given label pairs.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(name, labels, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(name, &[], Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The histogram `name` with labels (default latency buckets).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.register(name, labels, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// Registrations that got a detached handle: over the cap, or under
    /// a name already registered as another metric type.
    pub fn dropped_series(&self) -> u64 {
        lock_or_recover(&self.inner).dropped_series
    }

    /// Attaches help text to a metric name (rendered as `# HELP`).
    pub fn describe(&self, name: &str, help: &str) {
        let mut inner = lock_or_recover(&self.inner);
        inner.help.insert(name.to_string(), help.to_string());
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Histograms additionally export `{name}_quantiles` gauge series
    /// with p50/p95/p99 estimates (grouped after the main families so
    /// each family's samples stay contiguous).
    pub fn render_prometheus(&self) -> String {
        type QuantileSeries = (String, Vec<(String, String)>, Histogram);
        let inner = lock_or_recover(&self.inner);
        let mut out = String::new();
        let mut last_name = "";
        let mut quantile_series: Vec<QuantileSeries> = Vec::new();
        for (key, metric) in &inner.metrics {
            if key.name != last_name {
                if let Some(help) = inner.help.get(&key.name) {
                    let _ = writeln!(out, "# HELP {} {}", key.name, help);
                }
                let ty = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {}", key.name, ty);
                last_name = &key.name;
            }
            match metric {
                Metric::Counter(c) => {
                    let _ =
                        writeln!(out, "{} {}", render_series(&key.name, &key.labels, &[]), c.get());
                }
                Metric::Gauge(g) => {
                    let _ =
                        writeln!(out, "{} {}", render_series(&key.name, &key.labels, &[]), g.get());
                }
                Metric::Histogram(h) => {
                    for (bound, cum) in h.cumulative_buckets() {
                        let le = if bound.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            format_f64(bound)
                        };
                        let _ = writeln!(
                            out,
                            "{} {}",
                            render_series(
                                &format!("{}_bucket", key.name),
                                &key.labels,
                                &[("le", &le)]
                            ),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&format!("{}_sum", key.name), &key.labels, &[]),
                        format_f64(h.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&format!("{}_count", key.name), &key.labels, &[]),
                        h.count()
                    );
                    if h.count() > 0 {
                        quantile_series.push((key.name.clone(), key.labels.clone(), h.clone()));
                    }
                }
            }
        }
        let mut last_quantile_name = String::new();
        for (name, labels, h) in quantile_series {
            let qname = format!("{name}_quantiles");
            if qname != last_quantile_name {
                let _ = writeln!(out, "# TYPE {qname} gauge");
                last_quantile_name = qname.clone();
            }
            for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                if let Some(v) = v {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&qname, &labels, &[("quantile", q)]),
                        format_f64(v)
                    );
                }
            }
        }
        out
    }

    /// One JSON object holding every metric (counters and gauges as
    /// numbers; histograms as `{count, sum, p50, p95, p99}`).
    pub fn snapshot_json(&self) -> String {
        let inner = lock_or_recover(&self.inner);
        let mut out = String::from("{");
        let mut first = true;
        for (key, metric) in &inner.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            let series = render_series(&key.name, &key.labels, &[]);
            let _ = write!(out, "{}:", json_string(&series));
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        h.count(),
                        format_f64(h.sum()),
                        format_f64(h.p50().unwrap_or(0.0)),
                        format_f64(h.p95().unwrap_or(0.0)),
                        format_f64(h.p99().unwrap_or(0.0)),
                    );
                }
            }
        }
        out.push('}');
        out
    }
}

/// `name{label="v",...}` with optional extra labels appended.
fn render_series(name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))));
    format!("{name}{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest float rendering that survives a round-trip parse.
pub(crate) fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep a decimal point so the type is evident
    } else {
        format!("{v}")
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all QBISM instrumentation records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_wrap() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let c = r.counter("events_total");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Overflow wraps (Prometheus counter-reset semantics).
        c.add(u64::MAX - 41);
        assert_eq!(c.get(), 0);
        c.add(7);
        assert_eq!(c.get(), 7);
        // Same name returns the same underlying counter.
        assert_eq!(r.counter("events_total").get(), 7);
    }

    #[test]
    fn labeled_instances_are_distinct() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter_with("q_total", &[("class", "a")]).add(3);
        r.counter_with("q_total", &[("class", "b")]).add(5);
        assert_eq!(r.counter_with("q_total", &[("class", "a")]).get(), 3);
        assert_eq!(r.counter_with("q_total", &[("class", "b")]).get(), 5);
        // Label order is canonicalized.
        r.counter_with("two", &[("x", "1"), ("y", "2")]).add(1);
        assert_eq!(r.counter_with("two", &[("y", "2"), ("x", "1")]).get(), 1);
    }

    #[test]
    fn gauge_set_and_add() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let g = r.gauge("pages");
        g.set(100);
        g.add(-30);
        assert_eq!(g.get(), 70);
    }

    #[test]
    fn a_name_registered_under_two_types_gets_a_detached_handle() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter("m").add(3);
        let detached = r.gauge("m");
        detached.set(-9);
        assert_eq!(detached.get(), -9, "the detached handle works");
        assert_eq!(r.dropped_series(), 1);
        assert_eq!(r.counter("m").get(), 3, "the first registration keeps the name");
        let _ = r.histogram_with("m", &[]);
        assert_eq!(r.dropped_series(), 2);
        let text = r.render_prometheus();
        assert_eq!(text, "# TYPE m counter\nm 3\n", "only the first series is exported");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let _g = crate::test_lock();
        let h = Histogram::new(vec![0.001, 0.01, 0.1]);
        // On-boundary observations belong to the bucket they bound
        // (le = upper bound is inclusive, like Prometheus).
        h.observe(0.001);
        h.observe(0.0005);
        h.observe(0.05);
        h.observe(99.0); // +Inf bucket
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (0.001, 2));
        assert_eq!(buckets[1], (0.01, 2));
        assert_eq!(buckets[2], (0.1, 3));
        assert!(buckets[3].0.is_infinite());
        assert_eq!(buckets[3].1, 4);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 99.0515).abs() < 1e-6);
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let _g = crate::test_lock();
        let h = Histogram::new(vec![1.0, 2.0, 4.0, 8.0]);
        for _ in 0..100 {
            h.observe(1.5); // all in (1, 2]
        }
        let p50 = h.p50().unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50 {p50}");
        let p99 = h.p99().unwrap();
        assert!((1.0..=2.0).contains(&p99), "p99 {p99}");
        // A bimodal distribution: half fast, half slow.
        let h2 = Histogram::new(vec![1.0, 2.0, 4.0, 8.0]);
        for _ in 0..50 {
            h2.observe(0.5);
        }
        for _ in 0..50 {
            h2.observe(7.0);
        }
        assert!(h2.p50().unwrap() <= 1.0);
        assert!(h2.p95().unwrap() > 4.0);
        // Empty histogram has no quantiles.
        let h3 = Histogram::new(vec![1.0]);
        assert!(h3.p50().is_none());
    }

    #[test]
    fn quantile_of_overflow_bucket_reports_last_bound() {
        let _g = crate::test_lock();
        let h = Histogram::new(vec![1.0, 2.0]);
        h.observe(100.0);
        assert_eq!(h.p99().unwrap(), 2.0);
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram_with("h", &[]);
        crate::set_enabled(false);
        c.add(10);
        h.observe(1.0);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.add(2);
        assert_eq!(c.get(), 2);
    }

    /// Golden-ish test: the Prometheus dump parses line by line.
    #[test]
    fn prometheus_output_parses_line_by_line() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.describe("qbism_lfm_pages_read_total", "Distinct 4 KiB pages read.");
        r.counter("qbism_lfm_pages_read_total").add(29);
        r.gauge("qbism_lfm_allocated_pages").set(512);
        let h = r.histogram_with("qbism_query_seconds", &[("class", "structure")]);
        h.observe(0.45);
        h.observe(0.012);
        let text = r.render_prometheus();
        let mut samples = 0;
        let mut saw_help = false;
        let mut saw_type = false;
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                assert!(rest.contains(' '), "HELP has name and text: {line}");
                saw_help = true;
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let _name = it.next().expect("type line has a name");
                let ty = it.next().expect("type line has a type");
                assert!(matches!(ty, "counter" | "gauge" | "histogram"), "unknown type {ty}");
                saw_type = true;
                continue;
            }
            // Sample line: `name{labels} value` or `name value`.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparsable value {value} in {line}"
            );
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {name}"
            );
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "bad labels {rest}");
                    for pair in rest[1..rest.len() - 1].split(',') {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        assert!(!k.is_empty());
                        assert!(v.starts_with('"') && v.ends_with('"'), "unquoted label {v}");
                    }
                }
            }
            samples += 1;
        }
        assert!(saw_help && saw_type);
        // counter + gauge + (buckets + sum + count) for the histogram,
        // plus the p50/p95/p99 quantile summary gauges.
        let expected_hist_lines = default_seconds_buckets().len() + 1 + 2;
        assert_eq!(samples, 2 + expected_hist_lines + 3);
        // The advertised acceptance series are present.
        assert!(text.contains("qbism_lfm_pages_read_total 29"));
        assert!(text.contains("qbism_query_seconds_bucket{class=\"structure\",le=\"+Inf\"} 2"));
        assert!(text.contains("qbism_query_seconds_count{class=\"structure\"} 2"));
        assert!(text.contains("# TYPE qbism_query_seconds_quantiles gauge"));
        assert!(
            text.contains("qbism_query_seconds_quantiles{class=\"structure\",quantile=\"0.95\"}")
        );
    }

    #[test]
    fn empty_histograms_export_no_quantiles() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let _ = r.histogram_with("idle_seconds", &[]);
        let text = r.render_prometheus();
        assert!(!text.contains("idle_seconds_quantiles"), "no quantiles without observations");
    }

    #[test]
    fn callers_get_detached_handles_at_the_cap() {
        let _g = crate::test_lock();
        let r = Registry::new();
        for i in 0..MAX_SERIES {
            let _ = r.counter_with("kept_total", &[("id", &i.to_string())]);
        }
        assert_eq!(r.dropped_series(), 0);
        let detached = r.counter_with("dropped_total", &[("id", "9999")]);
        detached.add(7);
        assert_eq!(detached.get(), 7, "detached handle still works");
        // Gauges and histograms hit the same guard.
        let _ = r.gauge("g");
        let _ = r.histogram_with("h", &[]);
        assert_eq!(r.dropped_series(), 3);
        // Existing series are still reachable at the cap.
        r.counter_with("kept_total", &[("id", "0")]).inc();
        assert_eq!(r.dropped_series(), 3);
        let text = r.render_prometheus();
        assert!(text.contains("kept_total{id=\"0\"} 1"));
        assert!(!text.contains("dropped_total"), "detached series not exported");
        assert_eq!(text.lines().count(), 1 + MAX_SERIES, "one TYPE line, one sample per series");
    }

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter("a_total").add(5);
        r.histogram_with("h_seconds", &[]).observe(0.25);
        let json = r.snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":5"));
        assert!(json.contains("\"count\":1"));
        // Balanced braces and quotes.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn global_registry_is_shared() {
        let _g = crate::test_lock();
        global().counter("qbism_obs_selftest_total").add(1);
        assert!(global().counter("qbism_obs_selftest_total").get() >= 1);
    }
}
