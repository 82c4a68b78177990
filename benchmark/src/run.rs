//! Rounds, the closed-loop clients, and the end-to-end metrics.
//!
//! A run is: set-up (several times, the quietest reported), one untimed
//! warm-up round that also records every op's answer digest, then at
//! least [`MIN_ROUNDS`] timed rounds replaying the *same* op sequence.
//! Work per round is fixed, so a round means the same thing on every
//! commit; only the number of rounds follows `--seconds`.  Timings are
//! built from each op's quietest repetition ([`floors`]).

use crate::estimator::{cv, median, quantile, quiet_floor};
use crate::target::{Digest, Target};
use crate::trace::ClientTrace;
use crate::workload::{Class, Op, Spec};
use qbism_lfm::{DiskModel, IoStats};
use std::sync::Barrier;
use std::time::Instant;

/// Timed rounds a run never goes below, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 30;
/// Full set-ups a run never goes below; `setup_s` is the quietest.
pub const SET_UPS: usize = 3;
/// Short set-ups repeat until this many seconds are spent …
pub const SET_UP_BUDGET_S: f64 = 3.0;
/// … or this many are done.
pub const MAX_SET_UPS: usize = 8;
/// A run whose per-round ops/s varies more than this is flagged noisy.
pub const NOISY_CV: f64 = 0.08;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Deterministic per-query costs summed over a set of ops, straight
/// from each answer's `QueryCost` (so they are exact at any client
/// count: the server brackets I/O per thread).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Queries answered.
    pub queries: u64,
    /// Logical 4 KiB LFM pages read.
    pub pages: u64,
    /// Logical read extents (simulated seeks).
    pub extents: u64,
    /// Base-table tuples scanned.
    pub rows: u64,
    /// RPC messages for the answers.
    pub messages: u64,
    /// Answer payload bytes.
    pub wire_bytes: u64,
    /// Simulated 1994 network seconds.
    pub sim_net_s: f64,
}

impl Counts {
    /// Field-wise accumulation.
    pub fn add(&mut self, other: &Counts) {
        self.queries += other.queries;
        self.pages += other.pages;
        self.extents += other.extents;
        self.rows += other.rows;
        self.messages += other.messages;
        self.wire_bytes += other.wire_bytes;
        self.sim_net_s += other.sim_net_s;
    }

    /// Simulated 1994 disk seconds for the logical reads.
    pub fn sim_disk_s(&self) -> f64 {
        DiskModel::RS6000_1994.seconds(&IoStats {
            pages_read: self.pages,
            extents_read: self.extents,
            ..IoStats::default()
        })
    }
}

/// What one client measured in one round, per op in sequence order
/// (the quieter pass, where a round replays the sequence).
#[derive(Debug, Default, Clone)]
pub struct ClientTimes {
    /// Latency of each public call, milliseconds.
    pub lat_ms: Vec<f64>,
    /// The closed loop's whole iteration per op — the call plus the
    /// client's verification of the answer — milliseconds.
    pub slot_ms: Vec<f64>,
}

/// What one client did in one round.
#[derive(Debug, Default)]
struct ClientRound {
    times: ClientTimes,
    failed: u64,
    counts: Counts,
}

/// One finished round.
#[derive(Debug)]
pub struct Round {
    /// Wall seconds from the clients' common start to the last one's
    /// finish (including an install, where the workload has one).
    pub wall_s: f64,
    /// Ops completed (an install counts as one).
    pub ops: u64,
    /// Ops that errored or whose digest mismatched.
    pub failed: u64,
    /// Milliseconds the round's install took, where it has one.
    pub install_ms: Option<f64>,
    /// Each client's per-op times.
    pub clients: Vec<ClientTimes>,
    /// Deterministic costs of this round's queries.
    pub counts: Counts,
}

impl Round {
    /// Completed ops per second of this round's wall time — raw, with
    /// whatever the host did to it; only `harness.round_cv` uses it.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// An installed workload with its clients' op sequences and the answer
/// digests the warm-up round recorded.
pub struct Session {
    /// The workload.
    pub spec: Spec,
    /// The system under test.
    pub target: Target,
    client_ops: Vec<Vec<Op>>,
    expected: Vec<Vec<Digest>>,
}

impl Session {
    /// Generates the clients' op sequences for `seed` over `target`.
    pub fn new(spec: Spec, target: Target, seed: u64) -> Session {
        let structures = target.atlas().structures().len();
        let client_ops: Vec<Vec<Op>> =
            (0..spec.clients).map(|c| spec.ops(seed, c, structures)).collect();
        let expected = vec![Vec::new(); spec.clients];
        Session { spec, target, client_ops, expected }
    }

    /// Ops one round attempts.
    pub fn ops_per_round(&self) -> u64 {
        let queries: usize = self.client_ops.iter().map(Vec::len).sum();
        (queries * self.spec.passes) as u64 + u64::from(self.spec.install_each_round)
    }

    /// Runs one round.  The first round of a session records each op's
    /// digest; later rounds must reproduce it.  With `traces`, every
    /// public call is wrapped in a harness span and the program's span
    /// tree is read back after each op.
    pub fn round(&mut self, mut traces: Option<&mut [ClientTrace]>) -> Result<Round, String> {
        let start = Instant::now();
        let mut install_ms = None;
        let fresh = if self.spec.install_each_round {
            let span = traces.as_deref_mut().map(|t| t[0].open("harness.install"));
            let fresh = Target::install(&self.spec)?;
            if let (Some(t), Some(span)) = (traces.as_deref_mut(), span) {
                t[0].close(span);
            }
            install_ms = Some(start.elapsed().as_secs_f64() * 1e3);
            Some(fresh)
        } else {
            None
        };
        let target = fresh.as_ref().unwrap_or(&self.target);
        let passes = self.spec.passes;

        let mut done: Vec<ClientRound> = Vec::with_capacity(self.spec.clients);
        let mut wall_s = 0.0;
        if let [ops] = &self.client_ops[..] {
            let trace = traces.as_deref_mut().map(|t| &mut t[0]);
            done.push(client_round(target, ops, passes, &mut self.expected[0], trace));
            wall_s = start.elapsed().as_secs_f64();
        } else {
            // Clients start together behind a barrier; the round ends
            // when the slower one finishes.
            let barrier = Barrier::new(self.spec.clients + 1);
            let mut traces: Vec<Option<&mut ClientTrace>> = match traces {
                Some(t) => t.iter_mut().map(Some).collect(),
                None => self.client_ops.iter().map(|_| None).collect(),
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .client_ops
                    .iter()
                    .zip(self.expected.iter_mut())
                    .zip(traces.drain(..))
                    .map(|((ops, expected), trace)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            client_round(target, ops, passes, expected, trace)
                        })
                    })
                    .collect();
                barrier.wait();
                let start = Instant::now();
                for handle in handles {
                    done.push(handle.join().expect("a client thread panicked"));
                }
                wall_s = start.elapsed().as_secs_f64();
            });
        }

        let mut round = Round {
            wall_s,
            ops: u64::from(install_ms.is_some()),
            failed: 0,
            install_ms,
            clients: Vec::with_capacity(done.len()),
            counts: Counts::default(),
        };
        for client in done {
            round.failed += client.failed;
            round.counts.add(&client.counts);
            round.ops += (client.times.lat_ms.len() * passes) as u64;
            round.clients.push(client.times);
        }
        if let Some(fresh) = fresh {
            // The previous system is dropped here, after the clock stopped.
            self.target = fresh;
        }
        Ok(round)
    }
}

/// One client's closed loop over its op sequence: issue, wait for the
/// reply, verify, issue the next.
fn client_round(
    target: &Target,
    ops: &[Op],
    passes: usize,
    expected: &mut Vec<Digest>,
    mut trace: Option<&mut ClientTrace>,
) -> ClientRound {
    let mut out = ClientRound::default();
    for (i, op) in (0..passes).flat_map(|_| ops.iter().enumerate()) {
        let recording = expected.len() == i;
        let span = trace.as_deref_mut().map(|t| t.open_op(op.class().name(), i));
        let start = Instant::now();
        let reply = target.execute(op);
        let elapsed = start.elapsed();
        if let (Some(t), Some(span)) = (trace.as_deref_mut(), span) {
            t.close_op(span, elapsed.as_secs_f64());
        }
        keep_quieter(&mut out.times.lat_ms, i, elapsed.as_secs_f64() * 1e3);
        match reply {
            Ok(reply) => {
                let digest = reply.digest();
                if recording {
                    expected.push(digest);
                } else if expected[i] != digest {
                    out.failed += 1;
                }
                out.counts.add(&Counts {
                    queries: 1,
                    pages: reply.cost.lfm.pages_read,
                    extents: reply.cost.lfm.extents_read,
                    rows: reply.cost.rows_scanned,
                    messages: reply.cost.messages,
                    wire_bytes: reply.cost.wire_bytes,
                    sim_net_s: reply.cost.sim_net_seconds,
                });
            }
            Err(error) => {
                if out.failed == 0 {
                    eprintln!("op {i} {op:?} failed: {error}");
                }
                out.failed += 1;
                if recording {
                    // Keeps indices aligned; a failed op can never match.
                    expected.push(Digest::unmatchable());
                }
            }
        }
        keep_quieter(&mut out.times.slot_ms, i, start.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// Records op `i`'s time: pushed on the first pass, kept if quieter on
/// a later one.
fn keep_quieter(times: &mut Vec<f64>, i: usize, ms: f64) {
    match times.get_mut(i) {
        Some(slot) => *slot = slot.min(ms),
        None => times.push(ms),
    }
}

/// Sets the workload up at least [`SET_UPS`] times — and, where a
/// set-up is short (0.3-0.6 s at 64³), again until [`SET_UP_BUDGET_S`]
/// is spent or [`MAX_SET_UPS`] are done: an install is mostly fresh
/// pages being faulted in, the noisiest thing the harness times, and
/// three repetitions left `setup_s` 21 % apart between two sets of five
/// runs.  Keeps the last system; returns it with each set-up's seconds.
pub fn set_up(spec: &Spec) -> Result<(Target, Vec<f64>), String> {
    let started = Instant::now();
    let mut seconds = Vec::with_capacity(MAX_SET_UPS);
    let mut kept = None;
    while seconds.len() < SET_UPS
        || (seconds.len() < MAX_SET_UPS && started.elapsed().as_secs_f64() < SET_UP_BUDGET_S)
    {
        drop(kept.take());
        let start = Instant::now();
        let target = Target::set_up(spec)?;
        seconds.push(start.elapsed().as_secs_f64());
        kept = Some(target);
    }
    Ok((kept.expect("SET_UPS > 0"), seconds))
}

/// The result of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// No op failed and every answer matched its digest.
    pub correct: bool,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that errored or mismatched.
    pub failed: u64,
    /// The metrics of this mode (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
}

/// Refuses workloads this host cannot run as specified.
pub fn check_host(spec: &Spec) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    if cores < spec.clients {
        return Err(format!(
            "{} needs {} client threads but this host has {cores} core(s)",
            spec.name, spec.clients
        ));
    }
    Ok(())
}

/// The untraced run: end-to-end metrics only, harness tracing off, the
/// program's own observability at its shipped default.
pub fn run_untraced(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    check_host(&spec)?;
    let (target, set_ups) = set_up(&spec)?;
    let mut session = Session::new(spec, target, seed);
    let warm_up = session.round(None)?;
    let mut rounds: Vec<Round> = Vec::new();
    let measuring = Instant::now();
    while rounds.len() < MIN_ROUNDS || measuring.elapsed().as_secs_f64() < seconds {
        rounds.push(session.round(None)?);
    }
    let (metrics, round_cv) = end_to_end(&session, &set_ups, &rounds);
    let failed = warm_up.failed + rounds.iter().map(|r| r.failed).sum::<u64>();
    // Exact counts must repeat in every round; a drift is a failure of
    // the determinism contract, not noise.
    let drifted = rounds.iter().filter(|r| r.counts != rounds[0].counts).count() as u64;
    eprintln!(
        "{}: {} rounds x {} ops in {:.1} s, harness.round_cv {:.2} %{}",
        spec.name,
        rounds.len(),
        session.ops_per_round(),
        measuring.elapsed().as_secs_f64(),
        round_cv * 100.0,
        if round_cv > NOISY_CV { "  ** NOISY RUN (cv > 8 %) **" } else { "" },
    );
    if drifted > 0 {
        eprintln!("{}: deterministic counts differed in {drifted} round(s)", spec.name);
    }
    Ok(Outcome {
        correct: failed + drifted == 0,
        attempted: session.ops_per_round() * (rounds.len() as u64 + 1),
        failed: failed + drifted,
        metrics,
    })
}

/// Each op's quietest repetition across `rounds`: per client, per op
/// in sequence order, the minimum latency and the minimum slot time
/// (and the quietest install, where rounds have one).
///
/// Every round replays the same ops in the same order, so op `i` of
/// round 1 and op `i` of round 30 are the same query after the same
/// predecessor: its repetitions differ only by what the host did.
pub fn floors(rounds: &[Round]) -> (Vec<ClientTimes>, Option<f64>) {
    let mut floor = rounds[0].clients.clone();
    let fold = |floor: &mut [f64], sample: &[f64]| {
        for (f, &s) in floor.iter_mut().zip(sample) {
            *f = f.min(s);
        }
    };
    for round in &rounds[1..] {
        for (floor, sample) in floor.iter_mut().zip(&round.clients) {
            fold(&mut floor.lat_ms, &sample.lat_ms);
            fold(&mut floor.slot_ms, &sample.slot_ms);
        }
    }
    let install = rounds.iter().filter_map(|r| r.install_ms).reduce(f64::min);
    (floor, install)
}

/// Ops per second of a quiet round.  One client's round is the sum of
/// its ops' slots, so the quiet round is rebuilt op by op from the
/// floors (plus the quiet install).  With several clients the ops
/// overlap and contend — rebuilding from floors would pick each op's
/// least contended repetition and report a throughput no round ever
/// reached — so the quietest whole round is taken instead.
pub fn quiet_ops_per_s(rounds: &[Round]) -> f64 {
    let ops = rounds[0].ops as f64;
    if rounds[0].clients.len() > 1 {
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        return ops / quiet_floor(&walls);
    }
    let (floor, install) = floors(rounds);
    let pass: f64 = floor[0].slot_ms.iter().sum();
    let passes = (ops - f64::from(u8::from(install.is_some()))) / floor[0].slot_ms.len() as f64;
    ops / ((passes * pass + install.unwrap_or(0.0)) / 1e3)
}

/// Folds timed rounds into the end-to-end metrics (and the run's
/// `round_cv`).
pub fn end_to_end(session: &Session, set_ups: &[f64], rounds: &[Round]) -> (Vec<Metric>, f64) {
    let (floor, _) = floors(rounds);
    let mut metrics = vec![
        Metric::new("setup_s", quiet_floor(set_ups), "s"),
        Metric::new("ops_per_s", quiet_ops_per_s(rounds), "ops/s"),
    ];
    for class in Class::ALL {
        let of_class: Vec<f64> = session
            .client_ops
            .iter()
            .zip(&floor)
            .flat_map(|(ops, times)| ops.iter().zip(&times.lat_ms))
            .filter(|(op, _)| op.class() == class)
            .map(|(_, &ms)| ms)
            .collect();
        metrics.push(Metric::new(format!("lat_ms.{}", class.name()), median(&of_class), "ms"));
    }
    let counts = &rounds[0].counts;
    metrics.push(Metric::new(
        "pages_per_query",
        counts.pages as f64 / counts.queries as f64,
        "pages/op",
    ));
    metrics.push(Metric::new("space_amp", session.target.space_amp(), "ratio"));
    let rates: Vec<f64> = rounds.iter().map(Round::ops_per_s).collect();
    (metrics, cv(&rates))
}

/// Pooled p99 ÷ pooled p50 over every latency of the given rounds —
/// kept as a diagnostic only: pooled tails failed the repeatability
/// test (README.md) and gate nothing.
pub fn pooled_tail_ratio(rounds: &[Round]) -> f64 {
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.clients.iter().flat_map(|c| c.lat_ms.iter().copied()))
        .collect();
    quantile(&pooled, 0.99) / quantile(&pooled, 0.5)
}
