//! The Section 3.2 spatial operators as user-defined SQL functions.
//!
//! Registered functions (argument types in brackets; a `region` argument
//! is a REGION long field, an immediate byte string a client bound, or
//! the typed [`Region`] another operator computed and never encoded, so
//! operators nest: `extractVoxels(wv.data, intersection(ib.region,
//! ast.region))`):
//!
//! * `intersection(region, region) -> region` — spatial intersection;
//! * `runion(region, region) -> region` and
//!   `rdifference(region, region) -> region` — the "straightforward to
//!   implement" future-work operators;
//! * `contains(region, region) -> bool` — spatial superset test;
//! * `extractVoxels(volume long, region) -> object` — `EXTRACT_DATA`,
//!   returning a typed [`DataRegion`] as an opaque [`Value::Object`];
//! * `regionVoxels(region) -> int` — voxel count (handy in predicates).
//!
//! Every REGION operand is opened as a shared, decoded [`Region`]: a
//! REGION long field is read through the LFM, counting device I/O (that
//! is the point: Table 3/4's I/O column counts these reads), and decoded
//! at most once while its object stays cached; an immediate byte string
//! is decoded; a typed one is shared.  Each set operator is then one
//! merge over decoded runs, whatever codec its operands were stored in.
//! Every REGION operand must lie on the database's grid — the one its
//! VOLUMEs are laid out on — or the call is a typed [`DbError::Exec`].
//!
//! Every argument is taken by a slice pattern: the crate's indexing
//! exception does not reach this module.
#![warn(clippy::indexing_slicing)]

use crate::stored::StoredRegion;
use qbism_region::{GridGeometry, Region, RegionCodec, RegionEncodeError};
use qbism_starburst::{Database, DbError, UdfContext, Value};
use qbism_volume::DataRegion;
use std::sync::Arc;

fn malformed(e: RegionEncodeError) -> DbError {
    DbError::Exec(format!("malformed REGION operand: {e}"))
}

/// Fetches a region argument as a shared [`Region`] on the database's
/// grid: a long field (read through the LFM, counting I/O, and decoded
/// only while it is not cached), an immediate byte string (decoded), or
/// a typed [`Region`] (shared).
fn fetch_region(
    ctx: &mut UdfContext<'_>,
    name: &str,
    grid: GridGeometry,
    v: &Value,
) -> Result<Arc<Region>, DbError> {
    let region = match v {
        Value::Long(id) => {
            let decode = |bytes| StoredRegion::decode(bytes).map_err(malformed);
            let stored = ctx.lfm.read_object(*id, decode)?;
            Arc::clone(stored.region().map_err(malformed)?)
        }
        Value::Bytes(bytes) => Arc::new(RegionCodec::decode(bytes).map_err(malformed)?),
        other => other.as_shared::<Region>().ok_or_else(|| {
            DbError::Type(format!("expected a REGION (long field, bytes or region), got {other}"))
        })?,
    };
    on_grid(name, grid, region.geometry())?;
    Ok(region)
}

/// The grid check of every REGION operand, made once where it is
/// opened: an id on another curve or resolution names another voxel of
/// the database's VOLUMEs, and two operands on different grids have no
/// common id space to merge in.
fn on_grid(name: &str, grid: GridGeometry, geom: GridGeometry) -> Result<(), DbError> {
    if geom == grid {
        Ok(())
    } else {
        Err(DbError::Exec(format!(
            "{name}: mismatched grids: a REGION on {geom:?}, not the database's {grid:?}"
        )))
    }
}

/// A set operator over two decoded or shared operands.
type RegionOp = fn(&Region, &Region) -> Region;

/// A binary region operator `name(region, region) -> region`: `op`
/// merges the two operands' runs, and the answer is a typed [`Region`].
fn region_pair_op(
    ctx: &mut UdfContext<'_>,
    name: &str,
    args: &[Value],
    grid: GridGeometry,
    op: RegionOp,
) -> Result<Value, DbError> {
    let [a, b] = args else { return Err(arity(name, 2, args)) };
    let a = fetch_region(ctx, name, grid, a)?;
    let b = fetch_region(ctx, name, grid, b)?;
    Ok(Value::object(op(&a, &b)))
}

/// Registers all spatial operators on `db`; `grid` is the one grid
/// every REGION operand must lie on.
pub fn register_spatial_ops(db: &mut Database, grid: GridGeometry) {
    db.register_udf("intersection", move |ctx, args| {
        region_pair_op(ctx, "intersection", args, grid, Region::intersect)
    });
    db.register_udf("runion", move |ctx, args| {
        region_pair_op(ctx, "runion", args, grid, Region::union)
    });
    db.register_udf("rdifference", move |ctx, args| {
        region_pair_op(ctx, "rdifference", args, grid, Region::difference)
    });
    db.register_udf("contains", move |ctx, args| {
        let [a, b] = args else { return Err(arity("contains", 2, args)) };
        let a = fetch_region(ctx, "contains", grid, a)?;
        let b = fetch_region(ctx, "contains", grid, b)?;
        Ok(Value::Bool(a.contains_region(&b)))
    });
    db.register_udf("regionvoxels", move |ctx, args| {
        let [a] = args else { return Err(arity("regionVoxels", 1, args)) };
        let a = fetch_region(ctx, "regionVoxels", grid, a)?;
        Ok(Value::Int(a.voxel_count() as i64))
    });
    db.register_udf("extractvoxels", move |ctx, args| extract_voxels(ctx, grid, args));
}

/// `extractVoxels(volume, region)`: the REGION operand — stored, bound
/// or computed, in any codec — is opened as a shared [`Region`] (a
/// stored one decoded at most once while it stays cached, a computed
/// one never copied); its runs are the pieces the LFM gathers from the
/// VOLUME — one contiguous byte extent per run, because the volume
/// shares the region's curve order (the I/O path whose page counts
/// Table 3 reports) — and the region and its values are the answer, a
/// typed [`DataRegion`] that shares the operand's REGION.
fn extract_voxels(
    ctx: &mut UdfContext<'_>,
    grid: GridGeometry,
    args: &[Value],
) -> Result<Value, DbError> {
    let [volume, region] = args else { return Err(arity("extractVoxels", 2, args)) };
    let volume_id = volume
        .as_long()
        .ok_or_else(|| DbError::Type("extractVoxels expects a VOLUME long field first".into()))?;
    let region = fetch_region(ctx, "extractVoxels", grid, region)?;
    check_volume_len(ctx, volume_id, grid)?;
    let pieces = region.runs().iter().map(|r| (r.start, r.len()));
    let mut values = Vec::new();
    ctx.lfm.read_pieces_into(volume_id, pieces, &mut values)?;
    Ok(Value::object(DataRegion::shared(region, values)))
}

/// An extraction reads a VOLUME laid out on the database's grid, the
/// one its REGION lies on.
fn check_volume_len(
    ctx: &UdfContext<'_>,
    volume_id: qbism_lfm::LongFieldId,
    grid: GridGeometry,
) -> Result<(), DbError> {
    let vol_len = ctx.lfm.len(volume_id)?;
    if vol_len == grid.cell_count() {
        return Ok(());
    }
    Err(DbError::Exec(format!(
        "VOLUME long field holds {vol_len} bytes; the grid has {} cells",
        grid.cell_count()
    )))
}

/// The error of a call to `name` without its `want` arguments.
fn arity(name: &str, want: usize, args: &[Value]) -> DbError {
    DbError::Binding(format!("{name} takes {want} arguments, got {}", args.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::volume_to_long_field;
    use crate::wire::{data_region_wire_size, decode_data_region, encode_data_region};
    use proptest::prelude::*;
    use qbism_sfc::CurveKind;
    use qbism_starburst::{Prepared, ResultSet};
    use qbism_volume::Volume;

    fn geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 3)
    }

    /// A database with one table holding two REGION long fields and a
    /// VOLUME long field.
    fn setup() -> (Database, Region, Region, Volume) {
        let mut db = Database::new(1 << 22).unwrap();
        register_spatial_ops(&mut db, geom());
        db.execute("create table t (id int, r1 long, r2 long, vol long)").unwrap();
        let a = Region::from_box(geom(), [0, 0, 0], [3, 3, 3]).unwrap();
        let b = Region::from_box(geom(), [2, 2, 2], [5, 5, 5]).unwrap();
        let vol = Volume::from_fn3(geom(), |x, y, z| (x * 30 + y * 8 + z) as u8);
        let ra = db.create_long_field(&RegionCodec::Naive.encode(&a).unwrap()).unwrap();
        let rb = db.create_long_field(&RegionCodec::Naive.encode(&b).unwrap()).unwrap();
        let v = db.create_long_field(&volume_to_long_field(&vol)).unwrap();
        db.insert_row("t", vec![Value::Int(1), ra, rb, v]).unwrap();
        (db, a, b, vol)
    }

    /// The one row's one value of an extraction: the typed answer.
    fn answer(rs: Result<ResultSet, DbError>) -> Result<DataRegion<u8>, DbError> {
        let [row]: [Vec<Value>; 1] = rs?.into_rows().try_into().unwrap();
        Ok(row.into_iter().next().and_then(Value::into_object).expect("a typed DATA_REGION"))
    }

    #[test]
    fn intersection_through_sql() {
        let (db, a, b, _) = setup();
        let rs = db.query("select intersection(t.r1, t.r2) from t").unwrap();
        let got = rs.rows()[0][0].as_object::<Region>().unwrap();
        assert_eq!(got, &a.intersect(&b));
        assert_eq!(got.voxel_count(), 8); // 2x2x2 overlap corner
    }

    #[test]
    fn union_difference_contains_voxels() {
        let (db, a, b, _) = setup();
        let rs = db
            .query(
                "select regionVoxels(runion(t.r1, t.r2)),
                        regionVoxels(rdifference(t.r1, t.r2)),
                        contains(t.r1, t.r2),
                        contains(t.r1, intersection(t.r1, t.r2))
                 from t",
            )
            .unwrap();
        let row = &rs.rows()[0];
        assert_eq!(row[0], Value::Int(a.union(&b).voxel_count() as i64));
        assert_eq!(row[1], Value::Int(a.difference(&b).voxel_count() as i64));
        assert_eq!(row[2], Value::Bool(false));
        assert_eq!(row[3], Value::Bool(true));
    }

    #[test]
    fn extract_voxels_matches_direct_extraction() {
        let (db, a, _, vol) = setup();
        let dr = answer(db.query("select extractVoxels(t.vol, t.r1) from t")).unwrap();
        assert_eq!(dr, vol.extract(&a).unwrap());
    }

    /// The typed answer is the client's DATA_REGION: encoded at the wire
    /// boundary, it decodes to itself, in the number of bytes the
    /// network model charges — whatever codec the operand was stored in.
    #[test]
    fn the_typed_answer_round_trips_the_wire() {
        let (mut db, a, b, vol) = setup();
        let region = a.union(&Region::from_ids(geom(), vec![70, 300, 301, 511])).difference(&b);
        db.execute("create table s (r long)").unwrap();
        for codec in RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]) {
            let field = db.create_long_field(&codec.encode(&region).unwrap()).unwrap();
            db.execute("delete from s").unwrap();
            db.insert_row("s", vec![field]).unwrap();
            let dr = answer(db.query("select extractVoxels(t.vol, s.r) from t, s")).unwrap();
            assert_eq!(dr, vol.extract(&region).unwrap(), "{}", codec.name());
            let wire = encode_data_region(&dr).unwrap();
            assert_eq!(wire.len() as u64, data_region_wire_size(&dr));
            assert_eq!(decode_data_region(&wire).unwrap(), dr, "{}", codec.name());
        }
    }

    #[test]
    fn nested_operators_compose() {
        // The paper's mixed-query shape: extract inside an intersection.
        let (db, a, b, vol) = setup();
        let sql = "select extractVoxels(t.vol, intersection(t.r1, t.r2)) from t";
        assert_eq!(answer(db.query(sql)).unwrap(), vol.extract(&a.intersect(&b)).unwrap());
    }

    /// A computed REGION is shared, not copied: the answer of an
    /// extraction over a typed operand holds the operand's allocation.
    #[test]
    fn an_extraction_shares_a_typed_operand() {
        let (db, a, _, vol) = setup();
        let region = Arc::new(a);
        let stmt = db.prepare("select extractVoxels(t.vol, ?) from t").unwrap();
        let operand = Value::Object(Arc::clone(&region) as Arc<dyn std::any::Any + Send + Sync>);
        let got = answer(db.run(&stmt, &[operand])).unwrap();
        assert!(Arc::ptr_eq(got.shared_region(), &region));
        assert_eq!(got, vol.extract(&region).unwrap());
    }

    #[test]
    fn extraction_io_counts_pages_not_voxels() {
        let (mut db, _, _, _) = setup();
        db.lfm().reset_stats();
        let _ = db.query("select extractVoxels(t.vol, t.r1) from t").unwrap();
        let stats = db.lfm_stats();
        // 512-byte volume and a tiny region: everything fits in a couple
        // of 4 KiB pages, regardless of voxel count.
        assert!(stats.pages_read <= 3, "pages {}", stats.pages_read);
        assert!(stats.pages_read >= 1);
        assert_eq!(stats.pages_written, 0, "answers must not write to the device");
    }

    #[test]
    fn type_errors_are_reported() {
        let (db, _, _, _) = setup();
        assert!(matches!(
            db.query("select intersection(t.id, t.r1) from t"),
            Err(DbError::Type(_))
        ));
        assert!(matches!(db.query("select extractVoxels(t.r1) from t"), Err(DbError::Binding(_))));
        assert!(matches!(
            db.query("select extractVoxels(t.r1, t.r1) from t"),
            Err(DbError::Exec(_)) // r1 is a region, not a full volume
        ));
        // An object that is not a REGION, bound or computed.
        let stmt = db.prepare("select regionVoxels(?) from t").unwrap();
        assert!(matches!(db.run(&stmt, &[Value::object(7u8)]), Err(DbError::Type(_))));
        assert!(matches!(
            db.query("select regionVoxels(extractVoxels(t.vol, t.r1)) from t"),
            Err(DbError::Type(_))
        ));
    }

    #[test]
    fn corrupt_region_operand_is_an_exec_error() {
        let mut db = Database::new(1 << 20).unwrap();
        register_spatial_ops(&mut db, geom());
        db.execute("create table t (r long)").unwrap();
        let junk = db.create_long_field(&[1, 2, 3]).unwrap();
        db.insert_row("t", vec![junk]).unwrap();
        assert!(matches!(db.query("select regionVoxels(t.r) from t"), Err(DbError::Exec(_))));
    }

    /// A REGION on the database's resolution but another curve names
    /// other voxels of the same VOLUME: every operator refuses it as an
    /// operand — alone, paired with itself, or nested — in any codec,
    /// and bound as a typed `Region` too.
    #[test]
    fn a_region_on_another_curve_is_an_exec_error() {
        let (db, _, _, _) = setup();
        let morton = GridGeometry::new(CurveKind::Morton, 3, 3);
        let region = Region::from_box(morton, [1, 2, 3], [6, 7, 4]).unwrap();
        let encoded = [RegionCodec::Naive, RegionCodec::K3Tree]
            .map(|codec| (codec.name(), Value::Bytes(codec.encode(&region).unwrap())));
        for (form, bytes) in encoded.into_iter().chain([("typed", Value::object(region))]) {
            for sql in [
                "select extractVoxels(t.vol, ?) from t",
                "select regionVoxels(?) from t",
                "select contains(t.r1, ?) from t",
                "select extractVoxels(t.vol, intersection(?, ?)) from t",
                "select runion(?, ?) from t",
                "select rdifference(?, ?) from t",
            ] {
                let stmt = db.prepare(sql).unwrap();
                let params = vec![bytes.clone(); sql.matches('?').count()];
                match db.run(&stmt, &params) {
                    Err(DbError::Exec(msg)) => assert!(msg.contains("not the database's"), "{msg}"),
                    other => panic!("{sql} ({form}): {other:?}"),
                }
            }
        }
    }

    /// A REGION with codec tag 4 — the skip-block run list k³ storage
    /// once fell back to, `[(9, 9), (448, 511)]`
    /// on the 8³ grid.
    fn former_run_list() -> Vec<u8> {
        let mut bytes = vec![0x52, 0x51, 0x04, 0x00, 0x03, 0x03, 0x02, 0x00, 0x00, 0x00];
        bytes.extend_from_slice(&[2, 1, 9, 0, 0, 0, 255, 1, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0]);
        bytes.extend_from_slice(&[0, 181, 3, 63]);
        bytes
    }

    /// Stored or immediate, on either side of `intersection` or as the
    /// REGION of `extractVoxels`, a tag-4 operand is one typed `Exec`
    /// error — and the extraction's oracle gives the same.
    #[test]
    fn a_former_run_list_operand_is_one_exec_error() {
        let (mut db, _, _, _) = setup();
        let bytes = former_run_list();
        db.execute("create table old (r long)").unwrap();
        let field = db.create_long_field(&bytes).unwrap();
        db.insert_row("old", vec![field]).unwrap();
        let want = Some(DbError::Exec(format!(
            "malformed REGION operand: {}",
            RegionEncodeError::BadTag(4)
        )));
        for sql in [
            "select intersection(old.r, t.r1) from old, t",
            "select intersection(t.r1, old.r) from old, t",
            "select extractVoxels(t.vol, old.r) from old, t",
        ] {
            assert_eq!(db.query(sql).err(), want, "{sql}");
        }
        for sql in ["select intersection(?, t.r1) from t", "select extractVoxels(t.vol, ?) from t"]
        {
            let stmt = db.prepare(sql).unwrap();
            assert_eq!(db.run(&stmt, &[Value::Bytes(bytes.clone())]).err(), want, "{sql}");
        }
        let mut diff = Differential::new();
        assert!(!diff.check(&bytes));
        diff.check_stored(&bytes);
    }

    // ------------------------------------------------------------------
    // Differential extraction: extractVoxels against an oracle
    // ------------------------------------------------------------------

    /// The differential tests' grid: 16³, so a VOLUME is one page.
    fn grid16() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 4)
    }

    /// The extraction by definition: decode the operand, refuse another
    /// grid, and look each id up in the in-memory VOLUME.
    fn oracle(vol: &Volume, bytes: &[u8]) -> Result<DataRegion<u8>, DbError> {
        let region = RegionCodec::decode(bytes).map_err(malformed)?;
        on_grid("extractVoxels", vol.geometry(), region.geometry())?;
        Ok(lookup(vol, region))
    }

    /// Each id of `region` looked up in the in-memory VOLUME.
    fn lookup(vol: &Volume, region: Region) -> DataRegion<u8> {
        let values = region.iter_ids().map(|id| vol.at_id(id)).collect();
        DataRegion::new(region, values)
    }

    /// One 16³ VOLUME, in memory and stored, a table of stored REGIONs,
    /// and the extraction prepared over an immediate operand and over a
    /// stored one.
    struct Differential {
        db: Database,
        vol: Volume,
        immediate: Prepared,
        stored: Prepared,
        next_id: i64,
    }

    impl Differential {
        fn new() -> Self {
            let mut db = Database::new(1 << 22).unwrap();
            register_spatial_ops(&mut db, grid16());
            db.execute("create table v (vol long)").unwrap();
            db.execute("create table r (id int, region long)").unwrap();
            let vol = Volume::from_fn3(grid16(), |x, y, z| (x * 37 + y * 11 + z * 3) as u8);
            let v = db.create_long_field(&volume_to_long_field(&vol)).unwrap();
            db.insert_row("v", vec![v]).unwrap();
            let immediate = db.prepare("select extractVoxels(v.vol, ?) from v").unwrap();
            let stored = db
                .prepare("select extractVoxels(v.vol, r.region) from v, r where r.id = ?")
                .unwrap();
            Differential { db, vol, immediate, stored, next_id: 0 }
        }

        /// The extraction's answer against the oracle's for `bytes`: the
        /// same DATA_REGION, or the same error, which is an `Exec` one.
        /// True when the bytes were a REGION to extract.
        fn agree(&self, got: Result<DataRegion<u8>, DbError>, bytes: &[u8]) -> bool {
            if let Err(e) = &got {
                assert!(matches!(e, DbError::Exec(_)), "operand {bytes:?}: {e:?}");
            }
            assert_eq!(got, oracle(&self.vol, bytes), "operand {bytes:?}");
            got.is_ok()
        }

        /// `bytes` as an immediate operand.
        fn check(&self, bytes: &[u8]) -> bool {
            let got = answer(self.db.run(&self.immediate, &[Value::Bytes(bytes.to_vec())]));
            self.agree(got, bytes)
        }

        /// `bytes` stored as a REGION long field.
        fn check_stored(&mut self, bytes: &[u8]) {
            self.next_id += 1;
            let field = self.db.create_long_field(bytes).unwrap();
            self.db.insert_row("r", vec![Value::Int(self.next_id), field]).unwrap();
            let got = answer(self.db.run(&self.stored, &[Value::Int(self.next_id)]));
            self.agree(got, bytes);
        }

        /// Every cut and every single-bit flip of `bytes`.
        fn cut_and_flip(&self, bytes: &[u8]) {
            for cut in 0..bytes.len() {
                self.check(&bytes[..cut]);
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                self.check(&flipped);
            }
        }
    }

    /// Naive bytes of an arbitrary `(start, end)` list on the 16³ grid —
    /// lists no encoder writes included.
    fn naive_list(runs: &[(u64, u64)]) -> Vec<u8> {
        let mut bytes = RegionCodec::Naive.encode(&Region::empty(grid16())).unwrap();
        bytes.truncate(6);
        bytes.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for &(start, end) in runs {
            bytes.extend_from_slice(&(start as u32).to_le_bytes());
            bytes.extend_from_slice(&(end as u32).to_le_bytes());
        }
        bytes
    }

    /// A box and scattered cells on 16³: several runs and both k³ node
    /// kinds.
    fn differential_sample() -> Region {
        let solid = Region::from_box(grid16(), [2, 3, 4], [11, 9, 7]).unwrap();
        solid.union(&Region::from_ids(grid16(), (0..120).map(|i| i * 79 % 4_096).collect()))
    }

    #[test]
    fn extract_differential_every_cut_and_flip_of_every_codec() {
        let mut diff = Differential::new();
        let g = grid16();
        let sample = differential_sample();
        for region in [sample, Region::empty(g), Region::full(g), Region::from_ids(g, vec![4_095])]
        {
            for codec in RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]) {
                let bytes = codec.encode(&region).unwrap();
                assert!(diff.check(&bytes), "{} extracts", codec.name());
                diff.check_stored(&bytes);
                diff.cut_and_flip(&bytes);
            }
        }
    }

    #[test]
    fn extract_differential_refused_and_normalised_naive_lists() {
        let mut diff = Differential::new();
        let lists: [&[(u64, u64)]; 9] = [
            &[(10, 12), (3, 4)],
            &[(3, 4), (5, 9)],
            &[(3, 8), (5, 9)],
            &[(3, 8), (3, 8)],
            &[(9, 3)],
            &[(4_000, 4_096)],
            &[(9, 3), (4_000, 4_096)],
            &[(4_000, 4_096), (9, 3)],
            &[(0, 4_095), (7, 7)],
        ];
        for list in lists {
            let bytes = naive_list(list);
            diff.check(&bytes);
            diff.check_stored(&bytes);
        }
        // A grid of the wrong size, one too wide for naive words, and
        // the right size on another curve.
        let mut other = RegionCodec::Naive.encode(&Region::full(grid16())).unwrap();
        other[5] = 5;
        assert!(!diff.check(&other));
        other[5] = 11;
        assert!(!diff.check(&other));
        let morton = GridGeometry::new(CurveKind::Morton, 3, 4);
        for codec in [RegionCodec::Naive, RegionCodec::K3Tree] {
            assert!(!diff.check(&codec.encode(&Region::full(morton)).unwrap()));
        }
    }

    /// `extractVoxels(v.vol, op(?, ?))` for each set operator over the
    /// sample and a box, in the codec pairings k³ × k³, Naive × k³ and
    /// Elias × Octant, against `Region::op` over the decoded operands,
    /// then the extraction by definition; and every cut and flip of the
    /// sample in the k³ pair: the same DATA_REGION or the same `Exec`
    /// error.
    #[test]
    fn extract_differential_nested_operands() {
        let diff = Differential::new();
        let sample = differential_sample();
        let bx = Region::from_box(grid16(), [5, 0, 2], [13, 7, 15]).unwrap();
        let ops: [(&str, RegionOp); 3] = [
            ("intersection", Region::intersect),
            ("runion", Region::union),
            ("rdifference", Region::difference),
        ];
        let pairings = [
            (RegionCodec::K3Tree, RegionCodec::K3Tree),
            (RegionCodec::Naive, RegionCodec::K3Tree),
            (RegionCodec::Elias, RegionCodec::Octant(qbism_region::OctantKind::Oblong)),
        ];
        for (name, op) in ops {
            let sql = format!("select extractVoxels(v.vol, {name}(?, ?)) from v");
            let stmt = diff.db.prepare(&sql).unwrap();
            let check = |a: &[u8], b: &[u8]| {
                let params = [Value::Bytes(a.to_vec()), Value::Bytes(b.to_vec())];
                let got = answer(diff.db.run(&stmt, &params));
                let decode = |bytes| -> Result<Region, DbError> {
                    let region = RegionCodec::decode(bytes).map_err(malformed)?;
                    on_grid(name, grid16(), region.geometry())?;
                    Ok(region)
                };
                let want = decode(a).and_then(|ra| Ok(lookup(&diff.vol, op(&ra, &decode(b)?))));
                if let Err(e) = &got {
                    assert!(matches!(e, DbError::Exec(_)), "{name} {a:?}: {e:?}");
                }
                assert_eq!(got, want, "{name} {a:?} {b:?}");
                got.is_ok()
            };
            for (codec_a, codec_b) in pairings {
                for (x, y) in [(&sample, &bx), (&bx, &sample)] {
                    let (a, b) = (codec_a.encode(x).unwrap(), codec_b.encode(y).unwrap());
                    assert!(check(&a, &b), "{name} {} × {}", codec_a.name(), codec_b.name());
                }
            }
            let a = RegionCodec::K3Tree.encode(&sample).unwrap();
            let b = RegionCodec::K3Tree.encode(&bx).unwrap();
            for cut in 0..a.len() {
                check(&a[..cut], &b);
            }
            for bit in 0..a.len() * 8 {
                let mut flipped = a.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped, &b);
            }
        }
    }

    /// A stored k³ REGION whose header promises one run more than its
    /// payload holds: every operator that takes it, on either side of a
    /// pair with a sound stored k³ REGION, is the decode oracle's one
    /// `Exec` error.
    #[test]
    fn extract_differential_damaged_stored_k3() {
        let mut diff = Differential::new();
        let sample = differential_sample();
        let mut damaged = RegionCodec::K3Tree.encode(&sample).unwrap();
        let promised = (sample.run_count() as u32 + 1).to_le_bytes();
        damaged[6..10].copy_from_slice(&promised);
        let want = oracle(&diff.vol, &damaged).err();
        assert!(matches!(want, Some(DbError::Exec(_))), "{want:?}");
        let bx = Region::from_box(grid16(), [5, 0, 2], [13, 7, 15]).unwrap();
        let sound = RegionCodec::K3Tree.encode(&bx).unwrap();
        for (table, bytes) in [("d", damaged), ("k", sound)] {
            diff.db.execute(&format!("create table {table} (r long)")).unwrap();
            let field = diff.db.create_long_field(&bytes).unwrap();
            diff.db.insert_row(table, vec![field]).unwrap();
        }
        // The pairs first, while neither field has been decoded.
        for sql in [
            "select intersection(d.r, k.r) from d, k",
            "select intersection(k.r, d.r) from d, k",
            "select runion(d.r, k.r) from d, k",
            "select runion(k.r, d.r) from d, k",
            "select rdifference(d.r, k.r) from d, k",
            "select rdifference(k.r, d.r) from d, k",
            "select contains(d.r, k.r) from d, k",
            "select contains(k.r, d.r) from d, k",
            "select regionVoxels(d.r) from d",
            "select extractVoxels(v.vol, d.r) from v, d",
        ] {
            assert_eq!(diff.db.query(sql).err(), want, "{sql}");
        }
    }

    proptest! {
        /// Hand-written naive lists — unsorted, adjacent, overlapping,
        /// duplicated, inverted, past the grid — and their canonical
        /// forms in every codec.
        #[test]
        fn extract_differential_hand_written_lists(
            spans in proptest::collection::vec((0u64..4_200, 0u64..40), 0..40),
            sorted in any::<bool>(),
            dup in any::<bool>(),
            inverted in any::<bool>(),
        ) {
            let diff = Differential::new();
            let mut list: Vec<(u64, u64)> = spans.iter().map(|&(s, l)| (s, s + l)).collect();
            if sorted {
                list.sort_unstable();
            }
            if dup {
                list.extend_from_within(..list.len() / 2);
            }
            if let (true, Some(run)) = (inverted, list.first_mut()) {
                *run = (run.1 + 1, run.0);
            }
            diff.check(&naive_list(&list));
            let cells = grid16().cell_count();
            let ids = list.iter().flat_map(|&(s, e)| s..=e).filter(|&id| id < cells);
            let region = Region::from_ids(grid16(), ids.collect());
            for codec in RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]) {
                prop_assert!(diff.check(&codec.encode(&region).unwrap()));
            }
        }

        /// Arbitrary payloads behind every codec's header with an
        /// arbitrary run count, and arbitrary bytes alone.
        #[test]
        fn extract_differential_arbitrary_payloads(
            codec_pick in 0usize..5,
            count in 0u32..400,
            tail in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let diff = Differential::new();
            let codec =
                RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]).nth(codec_pick).unwrap();
            let mut bytes = codec.encode(&differential_sample()).unwrap();
            bytes.truncate(6);
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(&tail);
            diff.check(&bytes);
            diff.check(&tail);
        }
    }
}
