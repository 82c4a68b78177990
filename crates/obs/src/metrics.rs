//! The process-wide metrics registry: counters and gauges.
//!
//! Handles are cheap clones of shared atomics, fetched once at
//! construction time by the layer that records into them.  There is one
//! registration path and it never fails and never panics: under a name
//! already registered as the other metric type, the caller gets a
//! working but *detached* handle, left out of the exports.

use crate::LockOrRecover;
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

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (e.g. allocated pages).
///
/// A gauge publishes state rather than counting events, so it stores
/// whether or not recording is enabled: a reader never sees the value
/// an earlier writer left behind.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

impl Metric {
    /// The Prometheus type name and the current value.
    fn sample(&self) -> (&'static str, i128) {
        match self {
            Metric::Counter(c) => ("counter", c.get().into()),
            Metric::Gauge(g) => ("gauge", g.get().into()),
        }
    }
}

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<String, Metric>,
}

/// A metrics registry.  [`global()`] returns the process-wide instance
/// the LFM records into; separate instances serve tests.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The one registration path: the series `name` if it is registered
    /// as a `T` (`pick` tells), a fresh one if the name is free, and a
    /// *detached* handle — working, but not registered or exported — if
    /// the name is registered as the other metric type.
    fn register<T: Clone + Default>(
        &self,
        name: &str,
        wrap: fn(T) -> Metric,
        pick: fn(&Metric) -> Option<&T>,
    ) -> T {
        let mut inner = self.inner.lock_or_recover();
        let metric = inner.metrics.entry(name.to_string()).or_insert_with(|| wrap(T::default()));
        pick(metric).cloned().unwrap_or_default()
    }

    /// The counter `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.register(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            Metric::Gauge(_) => None,
        })
    }

    /// The gauge `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            Metric::Counter(_) => None,
        })
    }

    /// Renders every metric in the Prometheus text exposition format:
    /// per series a `# TYPE` line and one unlabelled sample.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock_or_recover();
        let mut out = String::new();
        for (name, metric) in &inner.metrics {
            let (ty, value) = metric.sample();
            let _ = writeln!(out, "# TYPE {name} {ty}\n{name} {value}");
        }
        out
    }

    /// One JSON object mapping every series name to its value.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.lock_or_recover();
        let pairs: Vec<String> = inner
            .metrics
            .iter()
            .map(|(name, metric)| format!("{}:{}", json_string(name), metric.sample().1))
            .collect();
        format!("{{{}}}", pairs.join(","))
    }
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

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry the LFM records into.
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
        c.add(1);
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
    fn a_name_registered_under_two_types_gets_a_detached_handle() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter("m").add(3);
        let detached = r.gauge("m");
        detached.set(-9);
        assert_eq!(detached.get(), -9, "the detached handle works");
        assert_eq!(r.counter("m").get(), 3, "the first registration keeps the name");
        let text = r.render_prometheus();
        assert_eq!(text, "# TYPE m counter\nm 3\n", "only the first series is exported");
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let c = r.counter("c");
        crate::set_enabled(false);
        c.add(10);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(c.get(), 2);
    }

    /// A gauge publishes state: a value set while recording is off is
    /// the value a reader sees once it is back on.
    #[test]
    fn gauges_store_while_recording_is_off() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let g = r.gauge("pages");
        g.set(100);
        crate::set_enabled(false);
        g.set(70);
        crate::set_enabled(true);
        assert_eq!(g.get(), 70);
        assert_eq!(r.gauge("pages").get(), 70);
    }

    /// The Prometheus dump parses line by line: a `# TYPE` line and one
    /// unlabelled sample per series.
    #[test]
    fn prometheus_output_parses_line_by_line() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter("qbism_lfm_pages_written_total").add(29);
        r.gauge("qbism_lfm_allocated_pages").set(-512);
        let text = r.render_prometheus();
        let (mut samples, mut types) = (0, 0);
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (_name, ty) = rest.split_once(' ').expect("type line has a name and a type");
                assert!(matches!(ty, "counter" | "gauge"), "unknown type {ty}");
                types += 1;
                continue;
            }
            let (name, value) = line.split_once(' ').expect("sample has a value");
            assert!(value.parse::<i64>().is_ok(), "unparsable value {value} in {line}");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {name}"
            );
            samples += 1;
        }
        assert_eq!((types, samples), (2, 2));
        assert!(text.contains("qbism_lfm_pages_written_total 29\n"));
        assert!(text
            .contains("# TYPE qbism_lfm_allocated_pages gauge\nqbism_lfm_allocated_pages -512\n"));
    }

    #[test]
    fn json_snapshot_maps_every_series_to_its_value() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter("a_total").add(5);
        r.gauge("b").set(-3);
        assert_eq!(r.snapshot_json(), "{\"a_total\":5,\"b\":-3}");
        assert_eq!(Registry::new().snapshot_json(), "{}");
    }

    #[test]
    fn global_registry_is_shared() {
        let _g = crate::test_lock();
        global().counter("qbism_obs_selftest_total").add(1);
        assert!(global().counter("qbism_obs_selftest_total").get() >= 1);
    }
}
