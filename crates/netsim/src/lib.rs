//! Network cost model for the QBISM testbed.
//!
//! The paper's two machines sit on a 16 Mb/s Token Ring and a 10 Mb/s
//! Ethernet joined by a router (4 ms ping).  Table 3's network column
//! reports, per query, the number of RPC messages between MedicalServer
//! and the DX executive and their total real-time cost, "including both
//! software time (e.g., RPC overhead) and 'wire' time".
//!
//! Both quantities are deterministic functions of the answer's wire size,
//! so we model rather than emulate them: an answer of `B` payload bytes
//! costs a fixed number of control messages plus `ceil(B / chunk)` data
//! messages, each charged a software overhead, plus `B / bandwidth` of
//! wire time.  The default constants are calibrated against Table 3
//! (e.g. Q2: 372 messages, 4.4 s).
//!
//! # Loss, timeouts and retry
//!
//! A 1994 building network lost messages; the model can too.  When a
//! [`qbism_fault`] plane is armed, every message consults the
//! `"net.send"` fault site.  A dropped or errored message costs its
//! software overhead, waits out an exponential backoff
//! (the default [`RetryPolicy`]), and is retransmitted; [`RetryPolicy::max_attempts`]
//! consecutive losses of the same message surface as
//! [`NetError::Timeout`].  Retransmissions and backoff are accounted in
//! [`NetStats`] (`retransmits`, `backoff_seconds`) **and** in the
//! shipped answer's message/seconds totals, so Table-3 cost columns
//! show exactly what the flaky wire cost.  With no fault plane armed
//! the arithmetic is byte-identical to the lossless model.
//!
//! # Example
//!
//! ```
//! use qbism_netsim::{NetworkModel, RpcChannel};
//!
//! let mut chan = RpcChannel::new(NetworkModel::TESTBED_1994);
//! chan.ship(400_000).unwrap(); // ship a 400 kB extraction answer
//! assert!(chan.stats().messages > 300);
//! assert!(chan.stats().seconds > 3.0);
//! assert_eq!(chan.stats().retransmits, 0); // lossless without a fault plane
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qbism_obs::LockOrRecover;
use std::sync::{Mutex, MutexGuard};

/// Deterministic RPC cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Software cost per message (RPC marshalling, protocol stack), seconds.
    pub per_message_seconds: f64,
    /// Effective wire bandwidth in bytes/second (the 10 Mb/s Ethernet leg
    /// is the bottleneck of the paper's route).
    pub bandwidth_bytes_per_sec: f64,
    /// Payload bytes per data message.
    pub chunk_bytes: u64,
    /// Fixed control messages per shipped answer (request + completion).
    pub control_messages: u64,
}

impl NetworkModel {
    /// Calibrated to the paper's testbed: ≈ 1 KiB RPC chunks, ≈ 11 ms of
    /// software time per message, 10 Mb/s wire.
    pub const TESTBED_1994: NetworkModel = NetworkModel {
        per_message_seconds: 0.011,
        bandwidth_bytes_per_sec: 1_250_000.0,
        chunk_bytes: 1024,
        control_messages: 2,
    };

    /// Messages needed to ship `payload_bytes` (control + data chunks).
    pub fn messages_for(&self, payload_bytes: u64) -> u64 {
        self.control_messages + payload_bytes.div_ceil(self.chunk_bytes)
    }

    /// Total network real time to ship `payload_bytes`, seconds.
    pub fn seconds_for(&self, payload_bytes: u64) -> f64 {
        self.messages_for(payload_bytes) as f64 * self.per_message_seconds
            + payload_bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::TESTBED_1994
    }
}

/// Bounded retransmission with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Send attempts per message before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retransmission, seconds.
    pub base_backoff_seconds: f64,
    /// Backoff growth factor per further retransmission.
    pub backoff_multiplier: f64,
}

impl RetryPolicy {
    /// Simulated seconds waited before retransmission number `retry`
    /// (1-based) of one message.
    pub fn backoff_seconds(&self, retry: u32) -> f64 {
        self.base_backoff_seconds * self.backoff_multiplier.powi(retry.saturating_sub(1) as i32)
    }
}

impl Default for RetryPolicy {
    /// 4 attempts, 50 ms initial backoff, doubling — a plausible 1994
    /// RPC stack.
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_seconds: 0.050, backoff_multiplier: 2.0 }
    }
}

/// A network-layer failure surfaced to the query path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetError {
    /// One message of an answer was lost on every attempt.
    Timeout {
        /// Index of the message within the answer (0-based).
        message: u64,
        /// Send attempts made, including the first.
        attempts: u32,
    },
    /// A ship was addressed to an endpoint the channel set does not
    /// have (see [`EndpointChannels`]).
    UnknownEndpoint {
        /// The endpoint index that was addressed.
        endpoint: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout { message, attempts } => {
                write!(f, "network timeout: message {message} lost after {attempts} attempts")
            }
            NetError::UnknownEndpoint { endpoint } => {
                write!(f, "no such network endpoint: {endpoint}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Accumulated traffic counters for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Messages sent, including retransmissions (the paper's "IPC
    /// Messages" column).
    pub messages: u64,
    /// Payload bytes shipped.
    pub bytes: u64,
    /// Simulated real time spent in networking, seconds (the paper's
    /// "Answer Time (real)" column) — includes retransmission overhead
    /// and backoff.
    pub seconds: f64,
    /// Number of `ship` calls that completed (logical answers).
    pub answers: u64,
    /// Messages retransmitted after an injected loss.
    pub retransmits: u64,
    /// Simulated seconds spent waiting in retry backoff.
    pub backoff_seconds: f64,
}

impl NetStats {
    /// Field-wise sum (aggregating per-endpoint counters).
    pub fn plus(&self, other: &NetStats) -> NetStats {
        NetStats {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            seconds: self.seconds + other.seconds,
            answers: self.answers + other.answers,
            retransmits: self.retransmits + other.retransmits,
            backoff_seconds: self.backoff_seconds + other.backoff_seconds,
        }
    }
}

/// Cost breakdown of one shipped answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShipReceipt {
    /// Messages sent for this answer, including retransmissions.
    pub messages: u64,
    /// Payload bytes shipped.
    pub payload_bytes: u64,
    /// Simulated seconds, including retransmission overhead, backoff
    /// and injected latency.
    pub seconds: f64,
    /// Retransmitted messages.
    pub retransmits: u64,
    /// Seconds of retry backoff included in `seconds`.
    pub backoff_seconds: f64,
}

/// A MedicalServer → DX channel that records what crosses it.
#[derive(Debug, Clone)]
pub struct RpcChannel {
    model: NetworkModel,
    stats: NetStats,
    /// Fault site each message consults while a plane is armed.
    fault_site: &'static str,
    /// Site name stamped on retry/timeout flight-recorder events.
    event_site: &'static str,
}

impl RpcChannel {
    /// A channel with the given cost model.  Lost messages follow the
    /// default [`RetryPolicy`].
    pub fn new(model: NetworkModel) -> Self {
        RpcChannel {
            model,
            stats: NetStats::default(),
            fault_site: qbism_fault::sites::NET_SEND,
            event_site: "net.ship",
        }
    }

    /// Names the fault site this channel's messages consult (default
    /// `"net.send"`).  Distinct logical links — e.g. the cluster
    /// router's shard answer legs at `"cluster.route.drop"` — use this
    /// so a plane can target one link without dropping traffic on the
    /// others.  Retry/timeout events are stamped with the same name.
    pub fn with_fault_site(mut self, site: &'static str) -> Self {
        self.fault_site = site;
        self.event_site = site;
        self
    }

    /// Ships one logical answer of `payload_bytes`, updating counters.
    ///
    /// Without an armed fault plane this is the exact lossless model.
    /// Under injected loss, each lost message costs its software
    /// overhead plus exponential backoff and is retransmitted;
    /// exhausting [`RetryPolicy::max_attempts`] on one message abandons
    /// the answer with [`NetError::Timeout`] (messages actually sent
    /// stay accounted, the answer does not).
    pub fn ship(&mut self, payload_bytes: u64) -> Result<ShipReceipt, NetError> {
        let base_msgs = self.model.messages_for(payload_bytes);
        let mut retransmits = 0u64;
        let mut backoff = 0.0f64;
        let mut injected_latency = 0.0f64;
        if qbism_fault::active() {
            let retry = RetryPolicy::default();
            for message in 0..base_msgs {
                let mut attempt = 1u32;
                loop {
                    match qbism_fault::inject(self.fault_site) {
                        None => break,
                        Some(qbism_fault::FaultOutcome::Latency { seconds }) => {
                            injected_latency += seconds.max(0.0);
                            break;
                        }
                        Some(_) => {
                            // Lost: the send still burned software time.
                            if attempt >= retry.max_attempts {
                                let sent = message + 1 + retransmits;
                                let secs = sent as f64 * self.model.per_message_seconds
                                    + backoff
                                    + injected_latency;
                                self.stats.messages += sent;
                                self.stats.seconds += secs;
                                self.stats.retransmits += retransmits;
                                self.stats.backoff_seconds += backoff;
                                qbism_obs::event::timeout(self.event_site, attempt as u64);
                                return Err(NetError::Timeout { message, attempts: attempt });
                            }
                            backoff += retry.backoff_seconds(attempt);
                            retransmits += 1;
                            qbism_obs::event::retry(self.event_site, attempt as u64);
                            attempt += 1;
                        }
                    }
                }
            }
        }
        let msgs = base_msgs + retransmits;
        let seconds = self.model.seconds_for(payload_bytes)
            + retransmits as f64 * self.model.per_message_seconds
            + backoff
            + injected_latency;
        self.stats.messages += msgs;
        self.stats.bytes += payload_bytes;
        self.stats.seconds += seconds;
        self.stats.answers += 1;
        self.stats.retransmits += retransmits;
        self.stats.backoff_seconds += backoff;
        if qbism_obs::enabled() {
            let span = qbism_obs::trace::span(self.event_site);
            span.record_u64("bytes", payload_bytes);
            span.record_u64("messages", msgs);
            span.record_f64("sim_net_s", seconds);
            if retransmits > 0 {
                span.record_u64("retransmits", retransmits);
                span.record_f64("backoff_s", backoff);
            }
        }
        Ok(ShipReceipt {
            messages: msgs,
            payload_bytes,
            seconds,
            retransmits,
            backoff_seconds: backoff,
        })
    }

    /// Counters since construction or the last reset.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

/// An [`RpcChannel`] shareable across query threads: the channel sits
/// behind a mutex so concurrent queries can each ship their answer
/// through `&self`, serializing only the (cheap, in-memory) cost
/// arithmetic — exactly how one server socket is shared in practice.
#[derive(Debug)]
pub struct SharedRpcChannel {
    inner: Mutex<RpcChannel>,
}

impl SharedRpcChannel {
    /// Wraps a channel for shared use.
    pub fn new(chan: RpcChannel) -> Self {
        SharedRpcChannel { inner: Mutex::new(chan) }
    }

    /// Ships one logical answer; see [`RpcChannel::ship`].
    pub fn ship(&self, payload_bytes: u64) -> Result<ShipReceipt, NetError> {
        self.lock().ship(payload_bytes)
    }

    /// Counters since construction or the last reset.
    pub fn stats(&self) -> NetStats {
        self.lock().stats()
    }

    fn lock(&self) -> MutexGuard<'_, RpcChannel> {
        // Poison-recovering: a panicking client thread must not wedge
        // every other session's network path.
        self.inner.lock_or_recover()
    }
}

/// One independent [`SharedRpcChannel`] per logical endpoint.
///
/// A router talking to N shards is N *separate* links, not one: wrapping
/// a single channel in a mutex would serialize concurrent shard legs
/// **and** co-mingle their retransmit/backoff accounting, so a flaky
/// link to shard 3 would pollute shard 5's `NetStats`.  Here each
/// endpoint owns its channel and counters; concurrent ships to distinct
/// endpoints proceed in parallel and account independently.
#[derive(Debug)]
pub struct EndpointChannels {
    endpoints: Vec<SharedRpcChannel>,
    model: NetworkModel,
    fault_site: &'static str,
}

impl EndpointChannels {
    /// `n` endpoints sharing one cost model, each with its own channel,
    /// retry state and counters.  Messages consult the default
    /// `"net.send"` fault site until [`with_fault_site`] renames it.
    ///
    /// [`with_fault_site`]: EndpointChannels::with_fault_site
    pub fn new(n: usize, model: NetworkModel) -> Self {
        let mut chans = EndpointChannels {
            endpoints: Vec::new(),
            model,
            fault_site: qbism_fault::sites::NET_SEND,
        };
        chans.endpoints = (0..n).map(|_| chans.make_endpoint()).collect();
        chans
    }

    /// Names the fault site every endpoint's messages consult; existing
    /// endpoint counters are rebuilt fresh.
    pub fn with_fault_site(mut self, site: &'static str) -> Self {
        self.fault_site = site;
        self.endpoints = (0..self.endpoints.len()).map(|_| self.make_endpoint()).collect();
        self
    }

    fn make_endpoint(&self) -> SharedRpcChannel {
        SharedRpcChannel::new(RpcChannel::new(self.model).with_fault_site(self.fault_site))
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when no endpoints exist.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Ships one logical answer over `endpoint`'s own channel; see
    /// [`RpcChannel::ship`].  Concurrent ships to *different* endpoints
    /// do not serialize against each other.
    pub fn ship(&self, endpoint: usize, payload_bytes: u64) -> Result<ShipReceipt, NetError> {
        self.endpoints
            .get(endpoint)
            .ok_or(NetError::UnknownEndpoint { endpoint })?
            .ship(payload_bytes)
    }

    /// Field-wise sum of every endpoint's counters.
    pub fn total_stats(&self) -> NetStats {
        self.endpoints.iter().fold(NetStats::default(), |acc, e| acc.plus(&e.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_fault::{FaultOutcome, FaultPlane, Trigger};

    #[test]
    fn message_count_includes_control_and_chunks() {
        let m = NetworkModel::TESTBED_1994;
        assert_eq!(m.messages_for(0), 2);
        assert_eq!(m.messages_for(1), 3);
        assert_eq!(m.messages_for(1024), 3);
        assert_eq!(m.messages_for(1025), 4);
    }

    #[test]
    fn channel_answers_after_lock_poison() {
        let chan = SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994));
        chan.ship(4096).unwrap();
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = chan.inner.lock();
            panic!("deliberate poison");
        }));
        assert!(poisoner.is_err());
        let receipt = chan.ship(4096).unwrap();
        assert!(receipt.messages >= 2, "channel recovered and shipped after poison");
        assert_eq!(chan.stats().answers, 2);
    }

    /// Threads in a [`race`]: twice the cores of a small CI runner, so
    /// some are preempted mid-ship as well as contending.
    const THREADS: usize = 4;
    /// Ships per thread in a [`race`].
    const SHIPS: u64 = 50_000;

    /// Runs `ship(t)` `SHIPS` times on each of `THREADS` real threads
    /// released together.
    fn race(ship: impl Fn(usize) + Sync) {
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (ship, start) = (&ship, &start);
                s.spawn(move || {
                    start.wait();
                    (0..SHIPS).for_each(|_| ship(t));
                });
            }
        });
    }

    /// Concurrent shippers through one shared channel on real threads:
    /// the counters account for every ship whatever the interleaving.
    #[test]
    fn concurrent_ships_account_exactly() {
        let chan = SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994));
        race(|_| {
            chan.ship(2048).unwrap();
        });
        let ships = THREADS as u64 * SHIPS;
        let stats = chan.stats();
        assert_eq!(stats.answers, ships);
        let per_ship = NetworkModel::TESTBED_1994.messages_for(2048);
        assert_eq!(stats.messages, ships * per_ship, "no ship lost or double-counted");
    }

    /// Each endpoint accounts independently: a flaky link to one shard
    /// must not pollute another shard's retransmit/backoff counters,
    /// and a custom fault site must not react to `net.send` rules.
    #[test]
    fn endpoint_channels_isolate_accounting_and_fault_sites() {
        let chans = EndpointChannels::new(3, NetworkModel::TESTBED_1994)
            .with_fault_site("cluster.route.drop");
        // Rules on net.send must not touch the renamed link.
        {
            let _scope =
                FaultPlane::new(5).rule("net.send", Trigger::Always, FaultOutcome::Drop).arm();
            chans.ship(0, 2048).unwrap();
            assert_eq!(chans.endpoints[0].stats().retransmits, 0);
        }
        // Drop every message on the shared site: only the shipped-to
        // endpoint times out; its siblings stay pristine.
        {
            let _scope = FaultPlane::new(5)
                .rule("cluster.route.drop", Trigger::Always, FaultOutcome::Drop)
                .arm();
            let err = chans.ship(1, 100).unwrap_err();
            assert_eq!(err, NetError::Timeout { message: 0, attempts: 4 });
        }
        let s0 = chans.endpoints[0].stats();
        let s1 = chans.endpoints[1].stats();
        let s2 = chans.endpoints[2].stats();
        assert_eq!(s0.answers, 1);
        assert_eq!(s0.retransmits, 0, "endpoint 0 never saw endpoint 1's losses");
        assert_eq!(s1.answers, 0);
        assert_eq!(s1.retransmits, 3);
        assert_eq!(s2, NetStats::default(), "untouched endpoint stays zero");
        let total = chans.total_stats();
        assert_eq!(total.messages, s0.messages + s1.messages);
        assert_eq!(total.retransmits, 3);
        assert_eq!(
            chans.ship(7, 10).unwrap_err(),
            NetError::UnknownEndpoint { endpoint: 7 },
            "out-of-range endpoint is a typed error"
        );
    }

    /// Concurrent ships to distinct endpoints on real threads each
    /// account exactly — nothing is lost to a shared lock, and
    /// per-endpoint counters never co-mingle.
    #[test]
    fn concurrent_endpoint_ships_stay_independent() {
        let chans = EndpointChannels::new(2, NetworkModel::TESTBED_1994);
        let bytes = |endpoint: usize| 1024 * (endpoint as u64 + 1);
        race(|t| {
            chans.ship(t % 2, bytes(t % 2)).unwrap();
        });
        // Half the threads ship to each endpoint.
        let ships = THREADS as u64 / 2 * SHIPS;
        let m = NetworkModel::TESTBED_1994;
        for endpoint in 0..2 {
            let s = chans.endpoints[endpoint].stats();
            let b = bytes(endpoint);
            assert_eq!(
                (s.answers, s.messages, s.bytes),
                (ships, ships * m.messages_for(b), ships * b)
            );
        }
    }

    #[test]
    fn q1_and_q2_scale_match_paper() {
        // Q1 ships a full 2 MiB study: the paper reports 2103 messages
        // and 24.8 s.  Our model should land within ~15 %.
        let m = NetworkModel::TESTBED_1994;
        let q1_bytes = 2_097_152u64 + 8;
        let msgs = m.messages_for(q1_bytes);
        assert!((1900..2300).contains(&msgs), "Q1 messages {msgs}");
        let secs = m.seconds_for(q1_bytes);
        assert!((20.0..28.0).contains(&secs), "Q1 seconds {secs}");
        // Q2: 357,911 voxels + 5,252 naive runs. Paper: 372 msgs, 4.4 s.
        let q2_bytes = 357_911u64 + 5252 * 8;
        let secs2 = m.seconds_for(q2_bytes);
        assert!((3.5..5.5).contains(&secs2), "Q2 seconds {secs2}");
    }

    #[test]
    fn channel_accumulates() {
        let mut chan = RpcChannel::new(NetworkModel::TESTBED_1994);
        let m1 = chan.ship(100).unwrap().messages;
        let m2 = chan.ship(5000).unwrap().messages;
        assert_eq!(chan.stats().messages, m1 + m2);
        assert_eq!(chan.stats().bytes, 5100);
        assert_eq!(chan.stats().answers, 2);
        assert!(chan.stats().seconds > 0.0);
    }

    /// The lossless default must reproduce the paper-calibrated Q2
    /// numbers bit-for-bit: no retry arithmetic may leak into the
    /// fault-free path.
    #[test]
    fn lossless_default_reproduces_q2_exactly() {
        let m = NetworkModel::TESTBED_1994;
        let q2_bytes = 357_911u64 + 5252 * 8;
        let mut chan = RpcChannel::new(m);
        let receipt = chan.ship(q2_bytes).unwrap();
        assert_eq!(receipt.messages, m.messages_for(q2_bytes));
        assert_eq!(receipt.messages, 393, "Q2 ships 393 modeled messages (paper: 372)");
        assert_eq!(receipt.seconds.to_bits(), m.seconds_for(q2_bytes).to_bits());
        assert!((receipt.seconds - 4.4).abs() < 0.5, "Q2 ≈ 4.4 s, got {}", receipt.seconds);
        assert_eq!(receipt.retransmits, 0);
        assert_eq!(receipt.backoff_seconds, 0.0);
        assert_eq!(chan.stats().retransmits, 0);
    }

    /// k injected losses add exactly k messages, k × per-message
    /// seconds, and the policy's modeled backoff to the receipt and to
    /// `NetStats`.
    #[test]
    fn retry_math_is_exact() {
        let m = NetworkModel::TESTBED_1994;
        let policy = RetryPolicy::default();
        let payload = 2048u64; // 2 control + 2 data = 4 messages
                               // Lose the 2nd send once and the 4th send twice (distinct
                               // messages: after the first loss the retransmission is send #3).
        let _scope = FaultPlane::new(9)
            .rule("net.send", Trigger::Nth(2), FaultOutcome::Drop)
            .rule("net.send", Trigger::Nth(4), FaultOutcome::Drop)
            .rule("net.send", Trigger::Nth(5), FaultOutcome::Drop)
            .arm();
        let mut chan = RpcChannel::new(m);
        let receipt = chan.ship(payload).unwrap();
        let k = 3u64;
        assert_eq!(receipt.retransmits, k);
        assert_eq!(receipt.messages, m.messages_for(payload) + k);
        // Message 2 backs off once (50 ms); message 3 backs off twice
        // (50 ms + 100 ms).
        let expect_backoff =
            policy.backoff_seconds(1) + policy.backoff_seconds(1) + policy.backoff_seconds(2);
        assert!((receipt.backoff_seconds - expect_backoff).abs() < 1e-12);
        let expect_secs =
            m.seconds_for(payload) + k as f64 * m.per_message_seconds + expect_backoff;
        assert!((receipt.seconds - expect_secs).abs() < 1e-12);
        let stats = chan.stats();
        assert_eq!(stats.messages, receipt.messages);
        assert_eq!(stats.retransmits, k);
        assert!((stats.backoff_seconds - expect_backoff).abs() < 1e-12);
        assert_eq!(stats.answers, 1);
    }

    #[test]
    fn persistent_loss_times_out_with_partial_accounting() {
        let m = NetworkModel::TESTBED_1994;
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 4);
        // Every send of every message is lost.
        let _scope = FaultPlane::new(9).rule("net.send", Trigger::Always, FaultOutcome::Drop).arm();
        let mut chan = RpcChannel::new(m);
        let err = chan.ship(100).unwrap_err();
        assert_eq!(err, NetError::Timeout { message: 0, attempts: 4 });
        let stats = chan.stats();
        assert_eq!(stats.messages, 4, "all four attempts hit the wire");
        assert_eq!(stats.retransmits, 3);
        assert_eq!(stats.answers, 0, "a timed-out answer is not an answer");
        assert_eq!(stats.bytes, 0);
        let expect_backoff =
            policy.backoff_seconds(1) + policy.backoff_seconds(2) + policy.backoff_seconds(3);
        assert!((stats.backoff_seconds - expect_backoff).abs() < 1e-12);
    }

    #[test]
    fn probabilistic_loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let _scope =
                FaultPlane::new(seed).with_probability("net.send", 0.2, FaultOutcome::Drop).arm();
            let mut chan = RpcChannel::new(NetworkModel::TESTBED_1994);
            let mut out = Vec::new();
            for _ in 0..20 {
                out.push(chan.ship(4096).map(|r| (r.messages, r.retransmits)));
            }
            (out, chan.stats())
        };
        let (a, sa) = run(1234);
        let (b, sb) = run(1234);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.retransmits > 0, "p=0.2 over ~120 sends should lose some");
    }

    proptest! {
        #[test]
        fn time_and_messages_are_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
            let m = NetworkModel::TESTBED_1994;
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(m.messages_for(lo) <= m.messages_for(hi));
            prop_assert!(m.seconds_for(lo) <= m.seconds_for(hi));
        }

        #[test]
        fn shipping_split_answers_costs_at_least_one_answer(
            total in 1u64..1_000_000, parts in 1u64..20,
        ) {
            // Splitting an answer into several ships can only add control
            // messages, never remove data chunks.
            let m = NetworkModel::TESTBED_1994;
            let mut split = RpcChannel::new(m);
            let each = total / parts;
            let mut shipped = 0;
            for _ in 0..parts {
                split.ship(each).unwrap();
                shipped += each;
            }
            split.ship(total - shipped).unwrap();
            let mut whole = RpcChannel::new(m);
            whole.ship(total).unwrap();
            prop_assert!(split.stats().messages >= whole.stats().messages);
            prop_assert_eq!(split.stats().bytes, whole.stats().bytes);
        }
    }
}
