//! Long-field layouts and wire formats.
//!
//! Three large-object layouts exist in the system:
//!
//! * **VOLUME long field** — exactly `cell_count` intensity bytes "in a
//!   linearized form in an implied order" (the configured curve).  No
//!   header: the atlas row carries the geometry, as in the paper.
//! * **REGION long field** — the self-describing [`RegionCodec`] bytes.
//! * **DATA_REGION wire value** — the bytes an extraction answer is on
//!   the wire to DX: a naive-coded REGION followed by one intensity byte
//!   per voxel.  Inside the server an answer never takes this form:
//!   `extractVoxels` returns a typed [`DataRegion`], and the network
//!   model charges [`data_region_wire_size`] for it.
//!
//! Every read of stored or shipped bytes here is a checked one: the
//! crate's indexing exception does not reach this module.
#![warn(clippy::indexing_slicing)]

use crate::{QbismError, Result};
use qbism_geometry::{TriMesh, Vec3};
use qbism_region::{GridGeometry, Region, RegionCodec};
use qbism_volume::{DataRegion, Volume};

/// Serializes a volume into its long-field layout (pure intensity bytes
/// in curve order).
pub fn volume_to_long_field(volume: &Volume) -> Vec<u8> {
    volume.values().to_vec()
}

/// Reconstructs a volume from its long-field bytes and the geometry the
/// atlas row implies.
pub fn volume_from_long_field(geom: GridGeometry, bytes: &[u8]) -> Result<Volume> {
    if bytes.len() as u64 != geom.cell_count() {
        return Err(QbismError::Wire(format!(
            "volume long field holds {} bytes, geometry needs {}",
            bytes.len(),
            geom.cell_count()
        )));
    }
    let mut v = Volume::filled(geom, 0);
    v.values_mut().copy_from_slice(bytes);
    Ok(v)
}

/// Magic prefix of a DATA_REGION wire value ("QD").
const DATA_REGION_MAGIC: [u8; 2] = *b"QD";
/// Bytes before the region part: the magic, then the region part's
/// length as a little-endian `u32`.
const DATA_REGION_PREFIX: usize = 6;

/// Serializes a DATA_REGION: magic, the region part's length, the
/// naive-coded region, then values.
///
/// The region part uses the naive codec regardless of the on-disk
/// configuration — this is the *wire* form whose size drives the
/// network column of Table 3 (runs at 8 bytes plus one byte per voxel).
pub fn encode_data_region(data: &DataRegion<u8>) -> Result<Vec<u8>> {
    let region = data.region();
    let region_len = RegionCodec::Naive.encoded_len(region)?;
    let mut out = Vec::with_capacity(DATA_REGION_PREFIX + region_len + data.voxel_count());
    out.extend_from_slice(&DATA_REGION_MAGIC);
    out.extend_from_slice(&(region_len as u32).to_le_bytes());
    RegionCodec::Naive.encode_into(region, &mut out)?;
    out.extend_from_slice(data.values());
    Ok(out)
}

/// The one validator of the layout: the decoded region part and the
/// values behind it, once the magic, both lengths and the value count
/// (one per voxel, to the end of `bytes`) have checked out.
fn split_data_region(bytes: &[u8]) -> Result<(Region, &[u8])> {
    let rlen = match (bytes.first_chunk(), le_u32(bytes, 2)) {
        (Some(&DATA_REGION_MAGIC), Some(rlen)) => rlen as usize,
        _ => return Err(QbismError::Wire("not a DATA_REGION payload".into())),
    };
    let Some((part, values)) =
        bytes.get(DATA_REGION_PREFIX..).and_then(|rest| rest.split_at_checked(rlen))
    else {
        return Err(QbismError::Wire("truncated DATA_REGION region part".into()));
    };
    let region = RegionCodec::decode(part)?;
    if values.len() as u64 != region.voxel_count() {
        return Err(QbismError::Wire(format!(
            "DATA_REGION carries {} values for {} voxels",
            values.len(),
            region.voxel_count()
        )));
    }
    Ok((region, values))
}

/// Parses a DATA_REGION wire value, copying its values out.
pub fn decode_data_region(bytes: &[u8]) -> Result<DataRegion<u8>> {
    let (region, values) = split_data_region(bytes)?;
    Ok(DataRegion::new(region, values.to_vec()))
}

/// The payload size DX receives for an answer — the quantity the network
/// model charges.
pub fn data_region_wire_size(data: &DataRegion<u8>) -> u64 {
    (2 + 4 + 10 + data.region().run_count() * 8 + data.voxel_count()) as u64
}

/// Serializes a triangle mesh into its long-field layout: vertex and
/// triangle counts, then positions, normals (f32 triples) and index
/// triples (u32) — the second long-field column of *Atlas Structure*.
pub fn mesh_to_long_field(mesh: &TriMesh) -> Vec<u8> {
    let mut out = Vec::with_capacity(mesh.encoded_len());
    out.extend_from_slice(&(mesh.vertex_count() as u32).to_le_bytes());
    out.extend_from_slice(&(mesh.triangle_count() as u32).to_le_bytes());
    for v in &mesh.vertices {
        for c in [v.x, v.y, v.z] {
            out.extend_from_slice(&(c as f32).to_le_bytes());
        }
    }
    for n in &mesh.normals {
        for c in [n.x, n.y, n.z] {
            out.extend_from_slice(&(c as f32).to_le_bytes());
        }
    }
    for t in &mesh.triangles {
        for &i in t {
            out.extend_from_slice(&i.to_le_bytes());
        }
    }
    out
}

/// Parses a mesh long field.  Nothing is allocated from the header's
/// counts until the three sections they imply fill `bytes` exactly.
pub fn mesh_from_long_field(bytes: &[u8]) -> Result<TriMesh> {
    let fail = |m: &str| QbismError::Wire(format!("mesh long field: {m}"));
    let (Some(nv), Some(nt)) = (le_u32(bytes, 0), le_u32(bytes, 4)) else {
        return Err(fail("missing header"));
    };
    let (nv, nt) = (nv as usize, nt as usize);
    // Every record, vertex, normal or triangle, is 12 bytes.
    let sections = bytes.get(8..).and_then(|body| {
        let (positions, rest) = body.split_at_checked(nv.checked_mul(12)?)?;
        let (normals, triangles) = rest.split_at_checked(nv.checked_mul(12)?)?;
        (triangles.len() == nt.checked_mul(12)?).then_some((positions, normals, triangles))
    });
    let Some((positions, normals, triangles)) = sections else {
        return Err(fail("length mismatch"));
    };
    let vec3 = |[x, y, z]: [u32; 3]| {
        let c = |w| f64::from(f32::from_bits(w));
        Vec3::new(c(x), c(y), c(z))
    };
    let mesh = TriMesh {
        vertices: records(positions).map(vec3).collect(),
        normals: records(normals).map(vec3).collect(),
        triangles: records(triangles).collect(),
    };
    if mesh.triangles.iter().flatten().any(|&t| t as usize >= nv) {
        return Err(fail("triangle index out of range"));
    }
    Ok(mesh)
}

/// The 12-byte records of a mesh section as three little-endian words
/// each; a partial record at the end is not one.
fn records(section: &[u8]) -> impl Iterator<Item = [u32; 3]> + '_ {
    section.as_chunks::<4>().0.as_chunks::<3>().0.iter().map(|r| r.map(u32::from_le_bytes))
}

/// The little-endian u32 at `offset`, if `bytes` holds all four bytes.
fn le_u32(bytes: &[u8], offset: usize) -> Option<u32> {
    bytes.get(offset..)?.first_chunk().map(|w| u32::from_le_bytes(*w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_sfc::CurveKind;

    fn geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 3)
    }

    #[test]
    fn volume_long_field_roundtrip() {
        let v = Volume::from_fn3(geom(), |x, y, z| (x * 9 + y * 3 + z) as u8);
        let bytes = volume_to_long_field(&v);
        assert_eq!(bytes.len(), 512);
        let back = volume_from_long_field(geom(), &bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn volume_wrong_length_rejected() {
        assert!(matches!(volume_from_long_field(geom(), &[0u8; 100]), Err(QbismError::Wire(_))));
    }

    #[test]
    fn data_region_roundtrip() {
        let region = Region::from_ids(geom(), vec![3, 4, 5, 100, 101, 300]);
        let values = vec![10u8, 20, 30, 40, 50, 60];
        let dr = DataRegion::new(region, values);
        let bytes = encode_data_region(&dr).unwrap();
        let back = decode_data_region(&bytes).unwrap();
        assert_eq!(back, dr);
    }

    #[test]
    fn empty_data_region_roundtrip() {
        let dr = DataRegion::new(Region::empty(geom()), Vec::new());
        let bytes = encode_data_region(&dr).unwrap();
        assert_eq!(decode_data_region(&bytes).unwrap(), dr);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(decode_data_region(&[]).is_err());
        assert!(decode_data_region(b"XX123456").is_err());
        let region = Region::from_ids(geom(), vec![1, 2]);
        let dr = DataRegion::new(region, vec![9, 9]);
        let mut bytes = encode_data_region(&dr).unwrap();
        bytes.pop(); // drop one value byte
        assert!(decode_data_region(&bytes).is_err());
        let mut cut = encode_data_region(&dr).unwrap();
        cut.truncate(8);
        assert!(decode_data_region(&cut).is_err());
    }

    #[test]
    fn mesh_long_field_roundtrip() {
        use qbism_geometry::{TriMesh, Vec3};
        let mut m = TriMesh::new();
        let a = m.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        let b = m.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c = m.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        m.push_triangle([a, b, c]);
        m.recompute_normals();
        let bytes = mesh_to_long_field(&m);
        let back = mesh_from_long_field(&bytes).unwrap();
        assert_eq!(back.vertex_count(), 3);
        assert_eq!(back.triangle_count(), 1);
        assert_eq!(back.triangles, m.triangles);
        assert!(back.normals[0].distance(m.normals[0]) < 1e-6);
        // corrupt inputs
        assert!(mesh_from_long_field(&bytes[..7]).is_err());
        assert!(mesh_from_long_field(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        let off = bad.len() - 12;
        bad[off..off + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(mesh_from_long_field(&bad).is_err(), "index out of range");
    }

    /// A mesh as the loader stores one: the surface of a small
    /// structure.
    fn stored_mesh() -> Vec<u8> {
        let region = Region::from_ids(geom(), vec![0, 1, 2, 3, 7, 64]);
        mesh_to_long_field(&qbism_render::extract_surface(&region))
    }

    /// The fuzz contract over a real mesh: every truncation is a typed
    /// error, and every single-bit flip decodes or is one; a flip that
    /// decodes is a mesh of the same counts.
    #[test]
    fn mesh_fuzz_contract() {
        let bytes = stored_mesh();
        let mesh = mesh_from_long_field(&bytes).unwrap();
        assert!(mesh.triangle_count() > 0);
        assert_eq!(mesh_to_long_field(&mesh), bytes);
        for cut in 0..bytes.len() {
            let decoded = mesh_from_long_field(&bytes[..cut]);
            assert!(matches!(decoded, Err(QbismError::Wire(_))), "prefix of {cut}: {decoded:?}");
        }
        let mut bad = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            match mesh_from_long_field(&bad) {
                Ok(decoded) => assert_eq!(decoded.encoded_len(), bytes.len(), "bit flip {bit}"),
                Err(QbismError::Wire(_)) => {}
                Err(other) => panic!("bit flip {bit}: {other:?}"),
            }
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Counts that claim more records than the field holds are refused
    /// before anything is sized from them.
    #[test]
    fn mesh_counts_are_checked_before_allocation() {
        for (nv, nt) in [(u32::MAX, u32::MAX), (u32::MAX, 0), (0, u32::MAX), (1 << 28, 1)] {
            let mut bytes = [nv.to_le_bytes(), nt.to_le_bytes()].concat();
            bytes.resize(64, 0);
            assert!(matches!(mesh_from_long_field(&bytes), Err(QbismError::Wire(_))));
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes, bare or behind a header whose counts fit
        /// them (so index checks run): a mesh or a typed error.
        #[test]
        fn mesh_arbitrary_bytes_decode_or_fail_typed(
            counts in (0u32..6, 0u32..6),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..260),
        ) {
            let (nv, nt) = counts;
            let mut framed = [nv.to_le_bytes(), nt.to_le_bytes()].concat();
            framed.extend(body.iter().cycle().take(nv as usize * 24 + nt as usize * 12));
            for bytes in [&body[..], &framed[..]] {
                match mesh_from_long_field(bytes) {
                    Ok(mesh) => {
                        assert_eq!(mesh.encoded_len(), bytes.len());
                        assert!(mesh.triangles.iter().flatten().all(|&t| t < nv));
                    }
                    Err(QbismError::Wire(_)) => {}
                    Err(other) => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn wire_size_matches_encoded_length() {
        let region = Region::from_ids(geom(), vec![3, 4, 5, 90, 91, 200, 201, 202]);
        let dr = DataRegion::new(region, vec![1u8; 8]);
        let bytes = encode_data_region(&dr).unwrap();
        assert_eq!(bytes.len() as u64, data_region_wire_size(&dr));
    }
}
