//! The exhaustive crash-point sweep: the tentpole guarantee of the
//! fault plane.
//!
//! A scripted LFM workload is first run under an observer plane to count
//! every simulated device operation it performs.  Then, for *every* op
//! index `k`, the workload reruns on a fresh store with a plane that
//! crashes the device exactly at op `k`.  After each crash the store
//! must `recover()` to precisely the committed state: the structural
//! invariants hold and every field a completed operation produced reads
//! back byte-identical — no lost commits, no resurrected deletes, no
//! half-applied writes.
//!
//! A second sweep does the same at the system level: crash the device at
//! every I/O of every `MedicalServer` query class — with naive and with
//! k³ REGIONs — and check that the
//! failure surfaces as a typed error, the store recovers, and the full
//! study is byte-identical afterwards.

#![allow(clippy::indexing_slicing, clippy::unwrap_used)]

use std::collections::HashMap;

use qbism::{MedicalServer, QbismConfig, QbismError, QbismSystem};
use qbism_fault::FaultPlane;
use qbism_lfm::{LfmError, LongFieldId, LongFieldManager};
use qbism_region::RegionCodec;

/// One step of the scripted workload.  `slot` indexes fields in creation
/// order, so the script is independent of the ids the store hands out.
enum Op {
    Create { len: usize },
    Write { slot: usize, offset: u64, len: usize },
    Delete { slot: usize },
    Read { slot: usize },
}

/// Deterministic per-op payload bytes: every run of the script writes
/// exactly the same data, so a crashed rerun stays comparable.
fn payload(op_index: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (op_index.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) % 251) as u8)
        .collect()
}

/// The script: creates, overwrites, deletes and reads with enough
/// interleaving to exercise allocation reuse, journal growth and
/// multi-page fields.  Write payloads stay below one journal chunk so
/// each `write_piece` is atomic under crash (the documented guarantee).
fn script() -> Vec<Op> {
    vec![
        Op::Create { len: 3000 },
        Op::Create { len: 5000 },
        Op::Write { slot: 0, offset: 100, len: 700 },
        Op::Create { len: 1200 },
        Op::Read { slot: 1 },
        Op::Delete { slot: 1 },
        Op::Write { slot: 2, offset: 0, len: 1200 },
        Op::Create { len: 8000 },
        Op::Write { slot: 0, offset: 2500, len: 500 },
        Op::Delete { slot: 0 },
        Op::Create { len: 4096 },
        Op::Write { slot: 3, offset: 4000, len: 4000 },
        Op::Read { slot: 3 },
        Op::Create { len: 100 },
        Op::Write { slot: 4, offset: 0, len: 4096 },
        Op::Delete { slot: 2 },
        Op::Create { len: 6000 },
        Op::Write { slot: 6, offset: 1000, len: 2048 },
        Op::Read { slot: 6 },
    ]
}

fn mk_store() -> LongFieldManager {
    LongFieldManager::new(1 << 20, 4096).unwrap()
}

/// Applies one op; on `Ok` mirrors the effect into the shadow model.
/// The shadow therefore always holds exactly the *committed* state.
fn apply(
    lfm: &mut LongFieldManager,
    op_index: usize,
    op: &Op,
    slots: &mut Vec<LongFieldId>,
    shadow: &mut HashMap<LongFieldId, Vec<u8>>,
) -> Result<(), LfmError> {
    match op {
        Op::Create { len } => {
            let data = payload(op_index, *len);
            let id = lfm.create(&data)?;
            slots.push(id);
            shadow.insert(id, data);
        }
        Op::Write { slot, offset, len } => {
            let id = slots[*slot];
            if !shadow.contains_key(&id) {
                return Ok(()); // slot already deleted by the script
            }
            let data = payload(op_index, *len);
            lfm.write_piece(id, *offset, &data)?;
            let field = shadow.get_mut(&id).unwrap();
            field[*offset as usize..*offset as usize + data.len()].copy_from_slice(&data);
        }
        Op::Delete { slot } => {
            let id = slots[*slot];
            if !shadow.contains_key(&id) {
                return Ok(());
            }
            lfm.delete(id)?;
            shadow.remove(&id);
        }
        Op::Read { slot } => {
            let id = slots[*slot];
            if !shadow.contains_key(&id) {
                return Ok(());
            }
            let got = lfm.read(id)?;
            assert_eq!(&got, shadow.get(&id).unwrap(), "read diverged at op {op_index}");
        }
    }
    Ok(())
}

#[test]
fn crash_at_every_device_io_recovers_committed_state() {
    // Pass 1: count the device ops of a clean run (formatting happens in
    // `new()`, outside the armed scope, so op indices start at the
    // workload's first I/O).
    let ops = script();
    let total_ops = {
        let mut lfm = mk_store();
        let scope = FaultPlane::observer().arm();
        let mut slots = Vec::new();
        let mut shadow = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut lfm, i, op, &mut slots, &mut shadow).unwrap();
        }
        let plane = scope.plane();
        drop(scope);
        lfm.check_invariants().unwrap();
        plane.ops_seen()
    };
    assert!(total_ops > 30, "workload is meant to exercise many device ops, saw {total_ops}");

    // Pass 2: crash at every single op.
    for k in 1..=total_ops {
        let mut lfm = mk_store();
        let mut slots = Vec::new();
        let mut shadow = HashMap::new();
        let mut crashed = false;
        let scope = FaultPlane::new(0xC0FFEE).crash_at_op(k).arm();
        for (i, op) in ops.iter().enumerate() {
            match apply(&mut lfm, i, op, &mut slots, &mut shadow) {
                Ok(()) => {}
                Err(LfmError::Crashed) => {
                    crashed = true;
                    break;
                }
                Err(other) => panic!("crash at op {k}: unexpected error at step {i}: {other}"),
            }
        }
        drop(scope);
        assert!(crashed, "op {k} of {total_ops} should have crashed the device");
        assert!(lfm.is_crashed());

        let report =
            lfm.recover().unwrap_or_else(|e| panic!("recovery after crash at op {k}: {e}"));
        assert_eq!(report.fields, shadow.len(), "surviving fields after crash at op {k}");
        lfm.check_invariants().unwrap_or_else(|e| panic!("invariants after crash at op {k}: {e}"));
        assert_eq!(lfm.field_count(), shadow.len());
        for (&id, expected) in &shadow {
            let got = lfm
                .read(id)
                .unwrap_or_else(|e| panic!("field {id:?} unreadable after crash at op {k}: {e}"));
            assert_eq!(got, *expected, "field {id:?} bytes after crash at op {k}");
        }
        assert!(lfm.meta_stats().recoveries == 1);
    }
}

/// One query class as the sweep drives it: `Ok(true)` for a whole
/// answer, `Ok(false)` for a population aggregate that degraded by
/// skipping studies, `Err` for a typed failure.
type QueryClass = (&'static str, fn(&MedicalServer) -> Result<bool, QbismError>);

/// All eight query classes over the `small_test` studies.
const QUERY_CLASSES: [QueryClass; 8] = [
    ("full_study", |s| s.full_study(1).map(|_| true)),
    ("box", |s| s.box_data(1, [2, 3, 4], [9, 10, 11]).map(|_| true)),
    ("structure", |s| s.structure_data(1, "ntal").map(|_| true)),
    ("band", |s| s.band_data(1, 32, 63).map(|_| true)),
    ("intensity_range", |s| s.intensity_range_data(1, 40, 80).map(|_| true)),
    ("band_in_structure", |s| s.band_in_structure(1, 32, 63, "ntal1").map(|_| true)),
    ("multi_study_band", |s| s.multi_study_band_region(&[1, 2], 32, 63).map(|_| true)),
    ("population_average", |s| s.population_average(&[1, 2], "ntal").map(|a| a.is_complete())),
];

#[test]
fn server_query_survives_a_crash_at_every_device_io() {
    let small = QbismConfig::small_test();
    let k3 = QbismConfig { region_codec: RegionCodec::K3Tree, ..small.clone() };
    for config in [small, k3] {
        let mut sys = QbismSystem::install(&config).unwrap();
        let baseline = sys.server.full_study(1).unwrap();
        for (class, query) in QUERY_CLASSES {
            let at = format!("{class} / {:?} REGIONs", config.region_codec);

            // Count the device ops of one fault-free run.
            let scope = FaultPlane::observer().arm();
            assert_eq!(query(&sys.server).ok(), Some(true), "{at}: fault-free run");
            let total_ops = scope.plane().ops_seen();
            drop(scope);
            assert!(total_ops >= 1, "{at}: the query must touch the simulated device");

            for k in 1..=total_ops {
                let scope = FaultPlane::new(0x5EED).crash_at_op(k).arm();
                let result = query(&sys.server);
                drop(scope);
                if !sys.server.database().lfm().is_crashed() {
                    // Op `k` landed on the network path; the RPC channel's
                    // bounded retry absorbs a single lost message.
                    assert_eq!(result.ok(), Some(true), "{at}: non-device fault at op {k}");
                    continue;
                }
                // A typed error (or typed per-study skips), not a
                // panic and not a whole answer.
                assert_ne!(result.ok(), Some(true), "{at}: crash at op {k} went unnoticed");
                let report = sys.server.database().lfm().recover().unwrap();
                assert!(report.fields > 0, "{at}: fields survive the crash at op {k}");
                // The store answers bit-identically again.
                let after = sys.server.full_study(1).unwrap();
                assert_eq!(after.data, baseline.data, "{at}: after the crash at op {k}");
                assert_eq!(query(&sys.server).ok(), Some(true), "{at}: rerun after op {k}");
            }
        }
    }
}
