//! The Section 3.2 spatial operators as user-defined SQL functions.
//!
//! Registered functions (argument types in brackets; `region` arguments
//! accept either a REGION long field or an immediate byte string, so
//! operators nest: `extractVoxels(wv.data, intersection(ib.region,
//! ast.region))`):
//!
//! * `intersection(region, region) -> bytes` — spatial intersection;
//! * `runion(region, region) -> bytes` and
//!   `rdifference(region, region) -> bytes` — the "straightforward to
//!   implement" future-work operators;
//! * `contains(region, region) -> bool` — spatial superset test;
//! * `extractVoxels(volume long, region) -> bytes` — `EXTRACT_DATA`,
//!   returning a DATA_REGION wire value;
//! * `regionVoxels(region) -> int` — voxel count (handy in predicates).
//!
//! Reading a long-field argument costs device I/O through the LFM (that
//! is the point: Table 3/4's I/O column counts these reads); immediate
//! byte arguments cost none.

use crate::wire::begin_data_region;
use qbism_region::{kernel, open_compressed, CompressedCursor, CompressedWriter};
use qbism_region::{GridGeometry, Region, RegionCodec, RegionEncodeError};
use qbism_starburst::{Database, DbError, UdfContext, Value};
use std::borrow::Cow;

/// A fetched REGION operand: its raw encoded bytes, and whether they
/// were read from a long field (false for immediate byte strings,
/// which are borrowed from the argument).
type RegionArg<'a> = (Cow<'a, [u8]>, bool);

/// Fetches a region argument's raw bytes: a long field (read through
/// the LFM, counting I/O) or an immediate byte string.
fn fetch_region_arg<'a>(ctx: &mut UdfContext<'_>, v: &'a Value) -> Result<RegionArg<'a>, DbError> {
    match v {
        Value::Long(id) => Ok((Cow::Owned(ctx.lfm.read(*id)?), true)),
        Value::Bytes(b) => Ok((Cow::Borrowed(b), false)),
        other => {
            Err(DbError::Type(format!("expected a REGION (long field or bytes), got {other}")))
        }
    }
}

fn decode_arg(bytes: &[u8]) -> Result<Region, DbError> {
    RegionCodec::decode(bytes).map_err(|e| DbError::Exec(format!("malformed REGION operand: {e}")))
}

/// Decodes a region argument: a long field (read through the LFM,
/// counting I/O) or an immediate byte string.
fn fetch_region(ctx: &mut UdfContext<'_>, v: &Value) -> Result<Region, DbError> {
    let (bytes, _) = fetch_region_arg(ctx, v)?;
    decode_arg(&bytes)
}

/// The grid check shared by every binary region operator, made once
/// where the operands are opened (as cursors or decoded) — REGIONs on
/// different grids have no common id space to merge in.
fn same_grid(name: &str, a: GridGeometry, b: GridGeometry) -> Result<(), DbError> {
    if a == b {
        Ok(())
    } else {
        Err(DbError::Exec(format!("{name}: REGION operands on mismatched grids ({a:?} vs {b:?})")))
    }
}

/// A binary region operator `name(region, region) -> bytes`.  When both
/// operands are queryable compressed byte strings (each header parsed
/// once, as it opens), `stream` merges the payloads (no full
/// decompression) straight into the answer's encoder — compact, so
/// nested operators stay in the compressed domain — and the galloping
/// skips are credited to the LFM metrics.  Otherwise both operands
/// decode, `decoded` merges the run lists, and the answer is encoded
/// with `codec`.  Either way it is the same kernel over another cursor.
fn region_pair_op(
    ctx: &mut UdfContext<'_>,
    name: &str,
    args: &[Value],
    codec: RegionCodec,
    stream: StreamMerge,
    decoded: fn(&Region, &Region) -> Region,
) -> Result<Value, DbError> {
    expect_arity(name, args, 2)?;
    let a = fetch_region_arg(ctx, &args[0])?;
    let b = fetch_region_arg(ctx, &args[1])?;
    let malformed = |e| DbError::Exec(format!("malformed REGION operand: {e}"));
    let opened = match open_compressed(&a.0).map_err(malformed)? {
        Some(oa) => open_compressed(&b.0).map_err(malformed)?.map(|ob| (oa, ob)),
        None => None,
    };
    let Some(((geom, mut ca), (geom_b, mut cb))) = opened else {
        let (ra, rb) = (decode_arg(&a.0)?, decode_arg(&b.0)?);
        same_grid(name, ra.geometry(), rb.geometry())?;
        return region_result(&decoded(&ra, &rb), codec);
    };
    same_grid(name, geom, geom_b)?;
    let unencodable = |e| DbError::Exec(format!("cannot encode result REGION: {e}"));
    let mut answer = CompressedWriter::new(geom, 0).map_err(unencodable)?;
    stream(&mut ca, &mut cb, &mut answer)
        .map_err(|e| DbError::Exec(format!("compressed merge failed: {e}")))?;
    if a.1 {
        ctx.lfm.note_decode_skips(ca.skip_count());
    }
    if b.1 {
        ctx.lfm.note_decode_skips(cb.skip_count());
    }
    Ok(Value::Bytes(answer.finish().map_err(unencodable)?))
}

/// A kernel scan instantiated over two compressed operands, emitting
/// into the answer's encoder.
type StreamMerge = fn(
    &mut CompressedCursor<'_>,
    &mut CompressedCursor<'_>,
    &mut CompressedWriter,
) -> Result<(), RegionEncodeError>;

fn region_result(region: &Region, codec: RegionCodec) -> Result<Value, DbError> {
    let bytes = codec
        .encode(region)
        .map_err(|e| DbError::Exec(format!("cannot encode result REGION: {e}")))?;
    Ok(Value::Bytes(bytes))
}

/// Registers all spatial operators on `db`.
///
/// `codec` is the encoding used for intermediate REGION values (the
/// configured on-disk codec, so nested operators round-trip bit-exact).
pub fn register_spatial_ops(db: &mut Database, codec: RegionCodec) {
    db.register_udf("intersection", move |ctx, args| {
        let stream: StreamMerge =
            |a, b, out| kernel::intersect_into(a, b, |lo, hi| out.push(lo, hi));
        region_pair_op(ctx, "intersection", args, codec, stream, Region::intersect)
    });
    db.register_udf("runion", move |ctx, args| {
        let stream: StreamMerge = |a, b, out| kernel::union_into(a, b, |lo, hi| out.push(lo, hi));
        region_pair_op(ctx, "runion", args, codec, stream, Region::union)
    });
    db.register_udf("rdifference", move |ctx, args| {
        let stream: StreamMerge =
            |a, b, out| kernel::difference_into(a, b, |lo, hi| out.push(lo, hi));
        region_pair_op(ctx, "rdifference", args, codec, stream, Region::difference)
    });
    db.register_udf("contains", |ctx, args| {
        expect_arity("contains", args, 2)?;
        let a = fetch_region(ctx, &args[0])?;
        let b = fetch_region(ctx, &args[1])?;
        same_grid("contains", a.geometry(), b.geometry())?;
        Ok(Value::Bool(a.contains_region(&b)))
    });
    db.register_udf("regionvoxels", |ctx, args| {
        expect_arity("regionVoxels", args, 1)?;
        let a = fetch_region(ctx, &args[0])?;
        Ok(Value::Int(a.voxel_count() as i64))
    });
    db.register_udf("extractvoxels", |ctx, args| {
        expect_arity("extractVoxels", args, 2)?;
        let volume_id = args[0].as_long().ok_or_else(|| {
            DbError::Type("extractVoxels expects a VOLUME long field first".into())
        })?;
        let region = fetch_region(ctx, &args[1])?;
        let geom = region.geometry();
        let vol_len = ctx.lfm.len(volume_id)?;
        if vol_len != geom.cell_count() {
            return Err(DbError::Exec(format!(
                "VOLUME long field holds {vol_len} bytes; the REGION's grid has {} cells",
                geom.cell_count()
            )));
        }
        // The run-aligned piece read: one contiguous byte extent per run
        // because the volume shares the region's curve order.  This is
        // the I/O path whose page counts Table 3 reports.
        let pieces: Vec<(u64, u64)> = region.runs().iter().map(|r| (r.start, r.len())).collect();
        // One buffer, sized once: the DATA_REGION's region part is
        // written in place and the LFM appends the VOLUME pieces behind
        // it — the bytes move device → answer and nowhere between.
        let mut out = Vec::new();
        begin_data_region(&region, &mut out)
            .map_err(|e| DbError::Exec(format!("cannot encode DATA_REGION: {e}")))?;
        ctx.lfm.read_pieces_into(volume_id, &pieces, &mut out)?;
        Ok(Value::Bytes(out))
    });
}

fn expect_arity(name: &str, args: &[Value], want: usize) -> Result<(), DbError> {
    if args.len() == want {
        Ok(())
    } else {
        Err(DbError::Binding(format!("{name} takes {want} arguments, got {}", args.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_data_region, volume_to_long_field};
    use qbism_region::GridGeometry;
    use qbism_sfc::CurveKind;
    use qbism_volume::Volume;

    fn geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 3)
    }

    /// A database with one table holding two REGION long fields and a
    /// VOLUME long field.
    fn setup() -> (Database, Region, Region, Volume) {
        let mut db = Database::new(1 << 22).unwrap();
        register_spatial_ops(&mut db, RegionCodec::Naive);
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

    #[test]
    fn intersection_through_sql() {
        let (db, a, b, _) = setup();
        let rs = db.query("select intersection(t.r1, t.r2) from t").unwrap();
        let bytes = rs.rows()[0][0].as_bytes().unwrap();
        let got = RegionCodec::decode(bytes).unwrap();
        assert_eq!(got, a.intersect(&b));
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
        let rs = db.query("select extractVoxels(t.vol, t.r1) from t").unwrap();
        let bytes = rs.rows()[0][0].as_bytes().unwrap();
        let dr = decode_data_region(bytes).unwrap();
        let direct = vol.extract(&a).unwrap();
        assert_eq!(dr, direct);
    }

    #[test]
    fn nested_operators_compose() {
        // The paper's mixed-query shape: extract inside an intersection.
        let (db, a, b, vol) = setup();
        let rs = db.query("select extractVoxels(t.vol, intersection(t.r1, t.r2)) from t").unwrap();
        let dr = decode_data_region(rs.rows()[0][0].as_bytes().unwrap()).unwrap();
        assert_eq!(dr, vol.extract(&a.intersect(&b)).unwrap());
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
    }

    #[test]
    fn corrupt_region_operand_is_an_exec_error() {
        let mut db = Database::new(1 << 20).unwrap();
        register_spatial_ops(&mut db, RegionCodec::Naive);
        db.execute("create table t (r long)").unwrap();
        let junk = db.create_long_field(&[1, 2, 3]).unwrap();
        db.insert_row("t", vec![junk]).unwrap();
        assert!(matches!(db.query("select regionVoxels(t.r) from t"), Err(DbError::Exec(_))));
    }
}
