//! Byte identity of the load path.
//!
//! `QbismSystem::install` is the paper's "database load time"
//! computation (rasterise, acquire, register, warp, band, mesh, encode,
//! write).  Load-side performance work must leave every stored byte
//! where it was, so this suite installs small systems across the
//! storage modes and digests everything that reached the device: each
//! row of the four long-field-bearing tables in catalog order (scalar
//! columns by their printed form, long fields by length and bytes), then
//! the device's field and page counts.
//!
//! The constants below were recorded at the commit *before* the load
//! path was first optimised (PR 21's parent).  A digest that moves means
//! a stored byte moved: fix the loader, do not re-record.

use qbism::{QbismConfig, QbismSystem};
use qbism_sfc::CurveKind;
use qbism_starburst::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// Tables whose rows carry long fields, in schema (= load) order.
const LONG_FIELD_TABLES: [&str; 4] =
    ["atlasstructure", "rawvolume", "warpedvolume", "intensityband"];

fn install_digest(config: &QbismConfig) -> u64 {
    let mut sys = QbismSystem::install(config).expect("install");
    let db = sys.server.database();
    let mut hash = FNV_OFFSET;
    for table in LONG_FIELD_TABLES {
        let rows = db.query(&format!("select * from {table}")).expect("scan");
        assert!(!rows.is_empty(), "{table} is empty");
        for value in rows.rows().iter().flatten() {
            match value {
                Value::Long(id) => {
                    let bytes = db.read_long_field(*id).expect("long field reads back");
                    fnv1a(&mut hash, &(bytes.len() as u64).to_le_bytes());
                    fnv1a(&mut hash, &bytes);
                }
                other => fnv1a(&mut hash, other.to_string().as_bytes()),
            }
        }
    }
    let lfm = db.lfm_ref();
    fnv1a(&mut hash, &(lfm.field_count() as u64).to_le_bytes());
    fnv1a(&mut hash, &lfm.allocated_pages().to_le_bytes());
    hash
}

fn config(bits: u32, curve: CurveKind, compressed: bool) -> QbismConfig {
    let base = QbismConfig { atlas_bits: bits, curve, ..QbismConfig::medium() };
    if compressed {
        base.with_compressed_tablespace()
    } else {
        base
    }
}

/// `(atlas_bits, curve, compressed tablespace, digest at PR 21's parent)`.
const RECORDED: [(u32, CurveKind, bool, u64); 8] = [
    (4, CurveKind::Hilbert, false, 0x0d54_160b_5e29_8c4c),
    (4, CurveKind::Hilbert, true, 0xcf09_fefd_e9b8_fd6a),
    (4, CurveKind::Morton, false, 0xd4bb_7814_40cb_356c),
    (4, CurveKind::Morton, true, 0xd83d_5dfd_db55_3015),
    (5, CurveKind::Hilbert, false, 0xac29_68f3_cc70_130b),
    (5, CurveKind::Hilbert, true, 0x05f2_2ad7_9de1_ada2),
    (5, CurveKind::Morton, false, 0x1a99_c03c_bb58_ccde),
    (5, CurveKind::Morton, true, 0x4c32_2287_2f20_fd6c),
];

#[test]
fn install_stores_the_recorded_bytes_in_every_mode() {
    let mut moved = Vec::new();
    for (bits, curve, compressed, want) in RECORDED {
        let got = install_digest(&config(bits, curve, compressed));
        if got != want {
            moved.push(format!("({bits}, CurveKind::{curve:?}, {compressed}, {got:#018x})"));
        }
    }
    assert!(moved.is_empty(), "stored bytes moved; digests now read:\n{}", moved.join(",\n"));
}

#[test]
fn digest_sees_a_single_changed_seed() {
    // The net is only as good as its sensitivity: one seed step must
    // move the digest (it changes blob placement, noise and landmarks).
    let base = config(4, CurveKind::Hilbert, false);
    let bumped = QbismConfig { seed: base.seed + 1, ..base.clone() };
    assert_ne!(install_digest(&base), install_digest(&bumped));
}
