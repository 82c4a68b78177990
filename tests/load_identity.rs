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
//! The four naive-codec constants below were recorded at the commit
//! *before* the load path was first optimised and have never moved.
//! The four k³ constants were recorded there too (as the "compressed
//! tablespace", which `region_codec: K3Tree` now is) and re-recorded
//! once, when the k³-tree payload was replaced (word-only octree →
//! directory over run-block leaves): a changed
//! *encoding* of unchanged REGIONs, which the suite proves by decoding
//! every k³ REGION long field to the `Region` the naive codec stores at
//! the same row.  They were re-recorded a second time when the k³
//! layout became the only queryable codec: the empty REGIONs that mode
//! had stored as 12-byte skip-block run lists (tag 4) are now 12-byte
//! k³ REGIONs (tag 5) — 7 fields a row at 16³, 2 at 32³, every other
//! byte unchanged — which the suite proves by opening every k³ REGION
//! field as k³.
//! Outside a format change that says so here, a digest that moves means
//! a stored byte moved: fix the loader, do not re-record.

#![allow(clippy::expect_used)]

use qbism::{QbismConfig, QbismSystem};
use qbism_region::{open_k3, RegionCodec};
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

/// The digest of what `config` installs, and every long field's bytes
/// in the order the digest took them.
fn install_digest(config: &QbismConfig) -> (u64, Vec<Vec<u8>>) {
    let mut sys = QbismSystem::install(config).expect("install");
    let db = sys.server.database();
    let mut hash = FNV_OFFSET;
    let mut fields = Vec::new();
    for table in LONG_FIELD_TABLES {
        let rows = db.query(&format!("select * from {table}")).expect("scan");
        assert!(!rows.is_empty(), "{table} is empty");
        for value in rows.rows().iter().flatten() {
            match value {
                Value::Long(id) => {
                    let bytes = db.read_long_field(*id).expect("long field reads back");
                    fnv1a(&mut hash, &(bytes.len() as u64).to_le_bytes());
                    fnv1a(&mut hash, &bytes);
                    fields.push(bytes);
                }
                other => fnv1a(&mut hash, other.to_string().as_bytes()),
            }
        }
    }
    let lfm = db.lfm_ref();
    fnv1a(&mut hash, &(lfm.field_count() as u64).to_le_bytes());
    fnv1a(&mut hash, &lfm.allocated_pages().to_le_bytes());
    (hash, fields)
}

fn config(bits: u32, curve: CurveKind, k3: bool) -> QbismConfig {
    let region_codec = if k3 { RegionCodec::K3Tree } else { RegionCodec::Naive };
    QbismConfig { atlas_bits: bits, curve, region_codec, ..QbismConfig::medium() }
}

/// `(atlas_bits, curve, k³ codec, digest)`: the naive rows as before the
/// load path was first optimised, the k³ rows as of the k³-only codec.
const RECORDED: [(u32, CurveKind, bool, u64); 8] = [
    (4, CurveKind::Hilbert, false, 0x0d54_160b_5e29_8c4c),
    (4, CurveKind::Hilbert, true, 0x44a9_58a8_3105_04a9),
    (4, CurveKind::Morton, false, 0xd4bb_7814_40cb_356c),
    (4, CurveKind::Morton, true, 0x03c6_3d4e_c128_c371),
    (5, CurveKind::Hilbert, false, 0xac29_68f3_cc70_130b),
    (5, CurveKind::Hilbert, true, 0x10b4_91fc_1e31_63d7),
    (5, CurveKind::Morton, false, 0x1a99_c03c_bb58_ccde),
    (5, CurveKind::Morton, true, 0x0b92_cfc8_9f21_f546),
];

#[test]
fn install_stores_the_recorded_bytes_in_every_mode() {
    let mut moved = Vec::new();
    for [default, k3] in RECORDED.as_chunks::<2>().0 {
        let mut fields = Vec::new();
        for &(bits, curve, k3, want) in [default, k3] {
            let (got, stored) = install_digest(&config(bits, curve, k3));
            if got != want {
                moved.push(format!("({bits}, CurveKind::{curve:?}, {k3}, {got:#018x})"));
            }
            fields.push(stored);
        }
        // The two codecs differ only in how REGION long fields are
        // encoded: every other field byte for byte, every REGION a k³
        // one that decodes to the same `Region`.
        let [plain, packed] = &fields[..] else { panic!("two codecs a grid") };
        assert_eq!(plain.len(), packed.len(), "{default:?}");
        let mut regions = 0;
        for (plain, packed) in plain.iter().zip(packed) {
            if let Ok(plain) = RegionCodec::decode(plain) {
                regions += 1;
                assert!(matches!(open_k3(packed), Ok(Some(_))), "a k³-mode REGION is not k³");
                assert_eq!(RegionCodec::decode(packed).expect("k³ REGION decodes"), plain);
            } else {
                assert!(plain == packed, "a field that is no REGION differs, {default:?}");
            }
        }
        assert!(regions > 0 && regions < plain.len(), "{regions} REGION fields, {default:?}");
    }
    assert!(moved.is_empty(), "stored bytes moved; digests now read:\n{}", moved.join(",\n"));
}

/// The hidden `compressed_tablespace` field, which `benchmark/` still
/// sets, resolves to `region_codec: K3Tree`: with the naive codec
/// configured it installs exactly the recorded k³ bytes.
#[test]
fn a_k3_region_codec_installs_what_the_compressed_tablespace_does() {
    for &(bits, curve, k3, want) in &RECORDED {
        if k3 {
            let flag = QbismConfig { compressed_tablespace: true, ..config(bits, curve, false) };
            assert_eq!(install_digest(&flag).0, want, "({bits}, CurveKind::{curve:?})");
        }
    }
}

#[test]
fn digest_sees_a_single_changed_seed() {
    // The net is only as good as its sensitivity: one seed step must
    // move the digest (it changes blob placement, noise and landmarks).
    let base = config(4, CurveKind::Hilbert, false);
    let bumped = QbismConfig { seed: base.seed + 1, ..base.clone() };
    assert_ne!(install_digest(&base).0, install_digest(&bumped).0);
}
