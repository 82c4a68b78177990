//! The Figure 1 medical schema as SQL DDL.
//!
//! Every entity of the E-R diagram becomes a table; the darker boxes
//! (Warped Volume, Atlas Structure, Intensity Band) carry the long-field
//! columns that the spatial operators work on.

use crate::Result;
use qbism_starburst::Database;

/// Creates the medical schema in `db`.
pub fn create_schema(db: &mut Database) -> Result<()> {
    // Atlas: the coordinate system it defines (origin, voxel size,
    // resolution n) plus reference-population metadata.
    db.execute(
        "create table atlas (
            atlasId int, atlasName string, n int,
            x0 float, y0 float, z0 float,
            dx float, dy float, dz float,
            population string
        )",
    )?;
    db.execute("create table neuralSystem (systemId int, systemName string)")?;
    db.execute("create table neuralStructure (structureId int, structureName string)")?;
    // m:n relationship "comprises" between systems and structures.
    db.execute("create table systemStructure (systemId int, structureId int)")?;
    db.execute("create table patient (patientId int, name string, age int, sex string)")?;
    // Raw Volume: the study in scanline order at native resolution.
    db.execute(
        "create table rawVolume (
            studyId int, patientId int, modality string, date string,
            nx int, ny int, nz int,
            sx float, sy float, sz float,
            data long
        )",
    )?;
    // Warped Volume: the study resampled to atlas space, plus the
    // warping matrix (12 affine coefficients) stored alongside.
    db.execute(
        "create table warpedVolume (
            studyId int, atlasId int, data long,
            m00 float, m01 float, m02 float,
            m10 float, m11 float, m12 float,
            m20 float, m21 float, m22 float,
            t0 float, t1 float, t2 float
        )",
    )?;
    // Atlas Structure: volumetric REGION plus the surface mesh.
    db.execute(
        "create table atlasStructure (
            structureId int, atlasId int, region long, surface long
        )",
    )?;
    // Intensity Band: the redundant index entity.
    db.execute(
        "create table intensityBand (
            studyId int, atlasId int, lo int, hi int, region long
        )",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All tables of the medical schema, in creation order.
    const TABLES: [&str; 9] = [
        "atlas",
        "neuralsystem",
        "neuralstructure",
        "systemstructure",
        "patient",
        "rawvolume",
        "warpedvolume",
        "atlasstructure",
        "intensityband",
    ];

    #[test]
    fn schema_creates_all_tables() {
        let mut db = Database::new(1 << 20).unwrap();
        create_schema(&mut db).unwrap();
        for t in TABLES {
            assert_eq!(db.table_len(t).unwrap(), 0, "table {t} missing or non-empty");
        }
    }

    #[test]
    fn schema_is_not_reentrant() {
        let mut db = Database::new(1 << 20).unwrap();
        create_schema(&mut db).unwrap();
        assert!(create_schema(&mut db).is_err(), "duplicate creation must fail");
    }

    #[test]
    fn paper_queries_parse_against_schema() {
        // The two Section 3.4 queries (aliases adjusted: `as` is reserved).
        let mut db = Database::new(1 << 20).unwrap();
        create_schema(&mut db).unwrap();
        let q1 = "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
                         a.atlasId, p.name, p.patientId, rv.date
                  from atlas a, rawVolume rv, warpedVolume wv, patient p
                  where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
                        rv.patientId = p.patientId and rv.studyId = 53 and
                        a.atlasName = 'Talairach'";
        let rs = db.query(q1).unwrap();
        assert_eq!(rs.columns().len(), 11);
        assert!(rs.is_empty(), "no data loaded yet");
    }
}
