//! Deterministic, seeded fault injection for the QBISM simulated substrates.
//!
//! The paper's evaluation hardware — a raw disk partition under the Long
//! Field Manager and a 1994 Token-Ring/Ethernet testbed — failed in the
//! ways real hardware fails: I/O errors, partial writes, lost messages,
//! latency spikes, and outright crashes.  The reproduction models both
//! substrates in software, which means failures can be *injected* rather
//! than waited for, and injected **deterministically**: the same seed
//! and the same workload produce the same faults at the same operations,
//! every run.
//!
//! # Model
//!
//! Instrumented code calls [`inject`] at each *fault site* — a named
//! point where the simulated hardware touches the world, e.g.
//! `"lfm.write"` or `"net.send"`.  With no plane armed this is one
//! thread-local check and returns `None`.  When a [`FaultPlane`] is
//! armed (via [`FaultPlane::arm`], a scoped RAII guard), every call is
//! counted and matched against the plane's rules; the first rule that
//! fires yields a [`FaultOutcome`] which the call site is responsible
//! for honouring (return an error, tear the write, mark the device
//! crashed, add simulated latency, drop the message).
//!
//! # Composable schedules
//!
//! A plane is a list of rules, each `site-pattern × trigger × outcome`:
//!
//! ```
//! use qbism_fault::{FaultPlane, FaultOutcome};
//!
//! let plane = FaultPlane::new(0xC0FFEE)
//!     .fail_nth("lfm.write", 3)              // 3rd data write errors
//!     .with_probability("net.send", 0.05, FaultOutcome::Drop)
//!     .crash_at_op(41);                      // 41st injectable op anywhere
//! let scope = plane.arm();
//! assert!(qbism_fault::active());
//! drop(scope);
//! assert!(!qbism_fault::active());
//! ```
//!
//! Site patterns are exact names, a `prefix.*` glob, or `*` for
//! everything.  Probabilistic rules draw from a SplitMix64 stream keyed
//! on `(seed, rule, op index)`, so decisions depend only on the seed and
//! the operation sequence — never on wall clock, thread timing or map
//! iteration order.
//!
//! # Observer mode
//!
//! [`FaultPlane::observer`] arms a plane with no rules: nothing fails,
//! but every injectable operation is counted ([`FaultPlane::ops_seen`],
//! [`FaultPlane::site_ops`]).  The crash-point sweep uses this to learn
//! how many I/Os a workload performs, then re-runs it once per index
//! with `crash_at_op(k)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qbism_obs::LockOrRecover;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the instrumented call site should do to the current operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOutcome {
    /// The operation fails with a device/wire error.
    Error,
    /// A write persists only a prefix: `fraction` (clamped to `[0, 1]`)
    /// of the payload reaches the medium, then the operation errors.
    /// Non-write sites treat this as [`FaultOutcome::Error`].
    Torn {
        /// Fraction of the payload that survives, in `[0, 1]`.
        fraction: f64,
    },
    /// The simulated machine dies at this operation: the call site must
    /// stop serving until an explicit recovery step.
    Crash,
    /// The operation succeeds but takes `seconds` of extra simulated
    /// time (accounted separately from the disk/network cost models).
    Latency {
        /// Extra simulated seconds added to the operation.
        seconds: f64,
    },
    /// A network message vanishes in flight (the sender times out).
    /// Non-network sites treat this as [`FaultOutcome::Error`].
    Drop,
}

impl FaultOutcome {
    fn name(&self) -> &'static str {
        match self {
            FaultOutcome::Error => "error",
            FaultOutcome::Torn { .. } => "torn",
            FaultOutcome::Crash => "crash",
            FaultOutcome::Latency { .. } => "latency",
            FaultOutcome::Drop => "drop",
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fires on the `n`-th (1-based) operation matching the rule's site
    /// pattern, once.
    Nth(u64),
    /// Fires on the `n`-th (1-based) injectable operation seen by the
    /// plane *anywhere*, once.  The backbone of crash-point sweeps.
    OpIndex(u64),
    /// Fires independently per matching operation with probability `p`,
    /// drawn deterministically from the plane's seed.
    Probability(f64),
    /// Fires on every matching operation.
    Always,
}

#[derive(Debug)]
struct Rule {
    pattern: String,
    trigger: Trigger,
    outcome: FaultOutcome,
    /// Matching ops seen so far (drives `Nth`).
    matched: u64,
    /// One-shot triggers flip this after firing.
    spent: bool,
}

fn pattern_matches(pattern: &str, site: &str) -> bool {
    if pattern == "*" {
        return true;
    }
    if let Some(prefix) = pattern.strip_suffix(".*") {
        return site.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('.'));
    }
    pattern == site
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Byte-wise FNV-1a.  It keys the fault draws, so it decides which op
/// faults: it stays byte-wise whatever [`checksum`] does.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Unit-interval draw keyed on `(seed, rule index, op index, site)`.
fn unit_draw(seed: u64, rule_idx: usize, op: u64, site: &str) -> f64 {
    let key = splitmix64(
        seed ^ splitmix64(op) ^ (rule_idx as u64).wrapping_mul(0x9E37) ^ fnv1a64(site.as_bytes()),
    );
    // 53 mantissa bits → uniform in [0, 1).
    (key >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded, composable schedule of faults.  Build with the combinator
/// methods, then [`arm`](FaultPlane::arm) it for a scope.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    rules: Mutex<Vec<Rule>>,
    ops: AtomicU64,
    injected: AtomicU64,
    site_ops: Mutex<BTreeMap<String, u64>>,
    log: Mutex<Vec<InjectedFault>>,
}

/// One fault that actually fired, for post-mortem assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Global op index (1-based) at which the fault fired.
    pub op: u64,
    /// The fault site name.
    pub site: String,
    /// The outcome that was delivered.
    pub outcome: FaultOutcome,
}

impl FaultPlane {
    /// A plane with the given seed and no rules yet.
    pub fn new(seed: u64) -> Self {
        FaultPlane {
            seed,
            rules: Mutex::new(Vec::new()),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            site_ops: Mutex::new(BTreeMap::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// A rule-free plane: counts injectable operations without ever
    /// failing one.  Used to size crash-point sweeps.
    pub fn observer() -> Self {
        FaultPlane::new(0)
    }

    /// Adds a raw `pattern × trigger × outcome` rule.
    pub fn rule(self, pattern: &str, trigger: Trigger, outcome: FaultOutcome) -> Self {
        self.rules.lock_or_recover().push(Rule {
            pattern: pattern.to_string(),
            trigger,
            outcome,
            matched: 0,
            spent: false,
        });
        self
    }

    /// The `n`-th (1-based) op at `pattern` fails with an error.
    pub fn fail_nth(self, pattern: &str, n: u64) -> Self {
        self.rule(pattern, Trigger::Nth(n), FaultOutcome::Error)
    }

    /// The `n`-th (1-based) op at `pattern` is a torn write: only
    /// `fraction` of the payload persists.
    pub fn torn_nth(self, pattern: &str, n: u64, fraction: f64) -> Self {
        self.rule(pattern, Trigger::Nth(n), FaultOutcome::Torn { fraction })
    }

    /// The simulated machine crashes at the `n`-th (1-based) op at
    /// `pattern`.
    pub fn crash_nth(self, pattern: &str, n: u64) -> Self {
        self.rule(pattern, Trigger::Nth(n), FaultOutcome::Crash)
    }

    /// The simulated machine crashes at the `n`-th (1-based) injectable
    /// operation overall, whatever its site.
    pub fn crash_at_op(self, n: u64) -> Self {
        self.rule("*", Trigger::OpIndex(n), FaultOutcome::Crash)
    }

    /// Each op matching `pattern` suffers `outcome` independently with
    /// probability `p` (deterministic in the seed).
    pub fn with_probability(self, pattern: &str, p: f64, outcome: FaultOutcome) -> Self {
        self.rule(pattern, Trigger::Probability(p), outcome)
    }

    /// Arms the plane on this thread until the returned guard drops.
    /// Scopes nest; the innermost armed plane decides.
    pub fn arm(self) -> FaultScope {
        Arc::new(self).arm_shared()
    }

    /// Arms an already-shared plane (lets the caller keep a handle for
    /// inspecting counters while the scope is active).
    pub fn arm_shared(self: Arc<Self>) -> FaultScope {
        STACK.with(|s| s.borrow_mut().push(Arc::clone(&self)));
        FaultScope { plane: self }
    }

    /// Total injectable operations seen while armed.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Total faults delivered.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Operations seen per site, sorted by site name.
    pub fn site_ops(&self) -> Vec<(String, u64)> {
        self.site_ops.lock_or_recover().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Every fault that fired, in firing order.
    pub fn injected_log(&self) -> Vec<InjectedFault> {
        self.log.lock_or_recover().clone()
    }

    /// Counts the op, evaluates rules in order, returns the first
    /// outcome that fires.
    fn decide(&self, site: &str) -> Option<FaultOutcome> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1; // 1-based
        {
            let mut sites = self.site_ops.lock_or_recover();
            *sites.entry(site.to_string()).or_insert(0) += 1;
        }
        let mut rules = self.rules.lock_or_recover();
        // Every matching rule counts the op (so `Nth` means "the n-th
        // op at this site", independent of other rules firing first);
        // only the first rule that fires delivers its outcome.
        let mut delivered: Option<FaultOutcome> = None;
        for (idx, rule) in rules.iter_mut().enumerate() {
            if rule.spent || !pattern_matches(&rule.pattern, site) {
                continue;
            }
            rule.matched += 1;
            if delivered.is_some() {
                continue;
            }
            let fires = match rule.trigger {
                Trigger::Nth(n) => rule.matched == n,
                Trigger::OpIndex(n) => op == n,
                Trigger::Probability(p) => unit_draw(self.seed, idx, op, site) < p,
                Trigger::Always => true,
            };
            if fires {
                if matches!(rule.trigger, Trigger::Nth(_) | Trigger::OpIndex(_)) {
                    rule.spent = true;
                }
                delivered = Some(rule.outcome);
            }
        }
        drop(rules);
        if let Some(outcome) = delivered {
            self.injected.fetch_add(1, Ordering::Relaxed);
            self.log.lock_or_recover().push(InjectedFault { op, site: site.to_string(), outcome });
            record_injection(site, &outcome);
        }
        delivered
    }
}

/// RAII guard keeping a [`FaultPlane`] armed on the current thread.
#[derive(Debug)]
pub struct FaultScope {
    plane: Arc<FaultPlane>,
}

impl FaultScope {
    /// Handle to the armed plane (for counters and the injected log).
    pub fn plane(&self) -> Arc<FaultPlane> {
        Arc::clone(&self.plane)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|p| Arc::ptr_eq(p, &self.plane)) {
                stack.remove(pos);
            }
        });
    }
}

thread_local! {
    static STACK: RefCell<Vec<Arc<FaultPlane>>> = const { RefCell::new(Vec::new()) };
    /// Non-zero while recovery/rollback code runs: injection is
    /// suppressed so repairing the damage cannot itself be damaged.
    static SUPPRESS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Whether any fault plane is armed on this thread.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// The instrumentation point: call at each simulated-hardware operation.
/// Returns the outcome to honour, or `None` (the overwhelmingly common
/// case) when the op proceeds normally.
pub fn inject(site: &str) -> Option<FaultOutcome> {
    if SUPPRESS.with(std::cell::Cell::get) > 0 {
        return None;
    }
    let plane = STACK.with(|s| s.borrow().last().cloned())?;
    plane.decide(site)
}

/// Runs `f` with fault injection suppressed on this thread.  Recovery
/// paths use this: replaying a journal must not re-enter the schedule
/// that crashed the device.
pub fn suppressed<T>(f: impl FnOnce() -> T) -> T {
    SUPPRESS.with(|c| c.set(c.get() + 1));
    let out = f();
    SUPPRESS.with(|c| c.set(c.get().saturating_sub(1)));
    out
}

/// Stable 64-bit checksum, shared by the LFM's field, journal and
/// directory checksums and the crash sweep's byte-identity assertions.
///
/// FNV-1a's step taken a little-endian word at a time, with a fold:
/// per 8 bytes `h = (h ^ word) · P; h ^= h >> 32`, then each tail byte
/// the same step — about a fifth of the byte-wise loop's cost.  The
/// fold is what keeps every double-bit flip visible: without it a flip
/// of a word's top bit only flips the top bit of every later state, so
/// two such flips cancel (plain word FNV misses 87 of the 288,160
/// double flips the unit test makes).
pub fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, v: u64| {
        let h = (h ^ v).wrapping_mul(FNV_PRIME);
        h ^ (h >> 32)
    };
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(FNV_OFFSET, |h, &w| step(h, u64::from_le_bytes(w)));
    tail.iter().fold(h, |h, &b| step(h, u64::from(b)))
}

/// Every fault-site name an instrumented call site passes to
/// [`inject`], so a plane armed by name and the site it means cannot
/// drift apart.  Names are dotted lowercase; [`ALL`](sites::ALL) lists
/// them for the unit test that holds every name to that form.
///
/// The cluster router consults its three around every sub-query
/// dispatch, so a plane armed on the client thread can kill a shard,
/// degrade it, or drop its answer leg at a deterministic routing point.
pub mod sites {
    /// A Long Field Manager page read from the simulated device.
    pub const LFM_READ: &str = "lfm.read";
    /// A Long Field Manager data-page write.
    pub const LFM_WRITE: &str = "lfm.write";
    /// A write of the LFM's metadata: journal records and the snapshot.
    pub const LFM_META_WRITE: &str = "lfm.meta.write";
    /// One message sent over a simulated network channel (the default
    /// site of every channel until it is renamed).
    pub const NET_SEND: &str = "net.send";
    /// Routing a sub-query to a shard finds its service dead.  Any
    /// outcome delivered here downs the shard; the router fails over
    /// to the next replica.
    pub const CLUSTER_SHARD_KILL: &str = "cluster.shard.kill";
    /// The shard answers, but slowly.  Arm with
    /// [`FaultOutcome::Latency`](crate::FaultOutcome::Latency); the
    /// extra seconds flow into the sub-query's simulated database time.
    pub const CLUSTER_SHARD_SLOW: &str = "cluster.shard.slow";
    /// The shard→router answer leg loses a message.  The per-shard
    /// channel retries with bounded backoff; exhausting the budget
    /// surfaces as a timeout and the router fails over.
    pub const CLUSTER_ROUTE_DROP: &str = "cluster.route.drop";

    /// Every site above.
    pub const ALL: &[&str] = &[
        LFM_READ,
        LFM_WRITE,
        LFM_META_WRITE,
        NET_SEND,
        CLUSTER_SHARD_KILL,
        CLUSTER_SHARD_SLOW,
        CLUSTER_ROUTE_DROP,
    ];
}

fn record_injection(site: &str, outcome: &FaultOutcome) {
    if !qbism_obs::enabled() {
        return;
    }
    qbism_obs::event::fault_injected(site, outcome.name());
    if matches!(outcome, FaultOutcome::Crash) {
        // Snapshot the flight recorder *after* journaling the fault, so
        // the dump's event slice ends with the crash that caused it.
        qbism_obs::event::capture_crash_dump(site);
    }
    let span = qbism_obs::trace::span("fault.inject");
    span.record_str("site", site);
    span.record_str("outcome", outcome.name());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plane_is_silent() {
        assert!(!active());
        assert_eq!(inject("lfm.write"), None);
    }

    #[test]
    fn nth_rule_fires_once_at_exactly_n() {
        let scope = FaultPlane::new(1).fail_nth("lfm.write", 3).arm();
        assert_eq!(inject("lfm.write"), None);
        assert_eq!(inject("lfm.read"), None); // different site: not counted for the rule
        assert_eq!(inject("lfm.write"), None);
        assert_eq!(inject("lfm.write"), Some(FaultOutcome::Error));
        assert_eq!(inject("lfm.write"), None); // one-shot
        let plane = scope.plane();
        assert_eq!(plane.ops_seen(), 5);
        assert_eq!(plane.faults_injected(), 1);
        let log = plane.injected_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op, 4);
        assert_eq!(log[0].site, "lfm.write");
    }

    #[test]
    fn op_index_trigger_counts_all_sites() {
        let _scope = FaultPlane::new(1).crash_at_op(2).arm();
        assert_eq!(inject("a"), None);
        assert_eq!(inject("b"), Some(FaultOutcome::Crash));
        assert_eq!(inject("c"), None);
    }

    #[test]
    fn patterns_match_exact_glob_and_star() {
        assert!(pattern_matches("lfm.write", "lfm.write"));
        assert!(!pattern_matches("lfm.write", "lfm.writex"));
        assert!(pattern_matches("lfm.*", "lfm.write"));
        assert!(pattern_matches("lfm.*", "lfm.meta.write"));
        assert!(!pattern_matches("lfm.*", "lfmx.write"));
        assert!(!pattern_matches("lfm.*", "lfm"));
        assert!(pattern_matches("*", "anything"));
    }

    #[test]
    fn probability_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let scope =
                FaultPlane::new(seed).with_probability("net.send", 0.3, FaultOutcome::Drop).arm();
            let hits: Vec<bool> = (0..200).map(|_| inject("net.send").is_some()).collect();
            drop(scope);
            hits
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must reproduce the same fault sequence");
        assert_ne!(a, c, "different seeds should differ");
        let rate = a.iter().filter(|h| **h).count();
        assert!((30..=90).contains(&rate), "p=0.3 over 200 draws fired {rate} times");
    }

    #[test]
    fn scopes_nest_and_unwind() {
        let outer = FaultPlane::new(1).rule("x", Trigger::Always, FaultOutcome::Error).arm();
        assert_eq!(inject("x"), Some(FaultOutcome::Error));
        {
            let _inner = FaultPlane::observer().arm();
            assert_eq!(inject("x"), None, "innermost (rule-free) plane decides");
        }
        assert_eq!(inject("x"), Some(FaultOutcome::Error), "outer plane resumes");
        drop(outer);
        assert!(!active());
    }

    #[test]
    fn observer_counts_without_failing() {
        let scope = FaultPlane::observer().arm();
        for _ in 0..5 {
            assert_eq!(inject("lfm.read"), None);
        }
        assert_eq!(inject("lfm.write"), None);
        let plane = scope.plane();
        assert_eq!(plane.ops_seen(), 6);
        assert_eq!(plane.faults_injected(), 0);
        assert_eq!(
            plane.site_ops(),
            vec![("lfm.read".to_string(), 5), ("lfm.write".to_string(), 1)]
        );
    }

    #[test]
    fn suppression_hides_ops_from_the_plane() {
        let scope = FaultPlane::new(1).rule("*", Trigger::Always, FaultOutcome::Error).arm();
        assert_eq!(suppressed(|| inject("lfm.write")), None);
        assert_eq!(inject("lfm.write"), Some(FaultOutcome::Error));
        assert_eq!(scope.plane().ops_seen(), 1, "suppressed ops are not even counted");
    }

    #[test]
    fn latency_and_torn_carry_parameters() {
        let _scope = FaultPlane::new(1)
            .rule("slow", Trigger::Always, FaultOutcome::Latency { seconds: 0.25 })
            .torn_nth("lfm.write", 1, 0.5)
            .arm();
        assert_eq!(inject("slow"), Some(FaultOutcome::Latency { seconds: 0.25 }));
        assert_eq!(inject("lfm.write"), Some(FaultOutcome::Torn { fraction: 0.5 }));
    }

    #[test]
    fn every_site_is_dotted_lowercase_unique_and_glob_matchable() {
        let component = |p: &str| {
            p.starts_with(|c: char| c.is_ascii_lowercase())
                && p.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        for (i, &site) in sites::ALL.iter().enumerate() {
            assert!(
                site.contains('.') && site.split('.').all(component),
                "site {site:?} must be dotted lowercase"
            );
            assert!(!sites::ALL[i + 1..].contains(&site), "site {site:?} is listed twice");
            let (namespace, _) = site.split_once('.').unwrap();
            assert!(pattern_matches(&format!("{namespace}.*"), site));
            assert!(pattern_matches(site, site));
        }
        // A plane armed on the whole cluster namespace hits a kill consult.
        let _scope =
            FaultPlane::new(3).rule("cluster.*", Trigger::Always, FaultOutcome::Error).arm();
        assert_eq!(inject(sites::CLUSTER_SHARD_KILL), Some(FaultOutcome::Error));
        assert_eq!(inject("net.send"), None);
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(checksum(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(checksum(b"qbism"), checksum(b"qbism"));
        assert_ne!(checksum(b"qbism"), checksum(b"qbisn"));
        // Recorded values: one word, one word and a tail, a tail alone.
        assert_eq!(checksum(b"qbism-94"), 0xF260_016F_C680_00D3);
        assert_eq!(checksum(b"qbism-1994"), 0x6D93_037A_72A0_3510);
        assert_eq!(checksum(b"qbism"), 0xECCA_58B5_C40F_03E1);
        // The fault draws stay keyed on byte-wise FNV-1a.
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    /// Every single-bit and every double-bit flip of fields around the
    /// 8-byte word boundary changes the checksum: 0 misses of 288,160
    /// double flips.  Plain word FNV (no `>> 32` fold) misses the pairs
    /// that flip two words' top bits.
    #[test]
    fn checksum_sees_every_single_and_double_bit_flip() {
        let mut misses = Vec::new();
        for len in [1usize, 7, 8, 9, 15, 16, 17, 63, 64] {
            let field: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ 0x5A).collect();
            let clean = checksum(&field);
            let bits = len * 8;
            let flip = |buf: &mut [u8], bit: usize| buf[bit / 8] ^= 1 << (bit % 8);
            let mut buf = field.clone();
            for a in 0..bits {
                flip(&mut buf, a);
                if checksum(&buf) == clean {
                    misses.push((len, a, a));
                }
                for b in a + 1..bits {
                    flip(&mut buf, b);
                    if checksum(&buf) == clean {
                        misses.push((len, a, b));
                    }
                    flip(&mut buf, b);
                }
                flip(&mut buf, a);
            }
        }
        assert!(
            misses.is_empty(),
            "{} flips unseen, first (len, bit, bit): {:?}",
            misses.len(),
            misses.first()
        );
    }
}
