//! Surface extraction from volumetric REGIONs.
//!
//! The *Atlas Structure* entity stores "a triangular mesh representing
//! the surface of the structure to support faster rendering".  We
//! extract it with the cuberille method (boundary voxel faces, two
//! triangles each, shared vertices), which is faithful to early-90s
//! practice and needs no interpolation table.  Smooth appearance comes
//! from averaged vertex normals.

use qbism_geometry::{TriMesh, Vec3};
use qbism_region::Region;

/// The six faces of a unit voxel: the neighbour each one borders (as a
/// step along x, y, z) and its four corners, ordered so the two
/// triangles wind CCW seen from outside (normal = outward axis).
const FACES: [([isize; 3], [[u32; 3]; 4]); 6] = [
    ([1, 0, 0], [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]]),
    ([-1, 0, 0], [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]]),
    ([0, 1, 0], [[0, 1, 0], [0, 1, 1], [1, 1, 1], [1, 1, 0]]),
    ([0, -1, 0], [[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]]),
    ([0, 0, 1], [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]),
    ([0, 0, -1], [[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]]),
];

/// Extracts the boundary surface of `region` as a triangle mesh in grid
/// coordinates.
///
/// A quad is emitted for every voxel face whose neighbour is outside the
/// region (or outside the grid); quads are split into two CCW triangles
/// whose outward normal points away from the region.  Voxels are visited
/// in curve order and faces in [`FACES`] order, which fixes the vertex
/// numbering and therefore the stored mesh bytes.
///
/// # Panics
/// Panics if the region is not 3-D.
pub fn extract_surface(region: &Region) -> TriMesh {
    assert_eq!(region.geometry().dims(), 3, "surface extraction requires a 3-D region");
    let mut mesh = TriMesh::new();
    let Some(bounds) = region.bounding_box3() else { return mesh };
    // One lattice over the bounding box padded by a voxel each way
    // serves both lookups: occupancy by cell (the pad makes every
    // neighbour of a region voxel addressable, and empty) and vertex
    // numbers by corner (a voxel's far corners are its +1 neighbours').
    let origin = bounds.min;
    let extent = bounds.extent();
    let (step_y, step_x) = {
        let row = extent.z as usize + 2;
        (row, row * (extent.y as usize + 2))
    };
    let cells = step_x * (extent.x as usize + 2);
    let at = |x: u32, y: u32, z: u32| {
        (x - origin.x + 1) as usize * step_x
            + (y - origin.y + 1) as usize * step_y
            + (z - origin.z + 1) as usize
    };
    let mut occupied = vec![0u64; cells.div_ceil(64)];
    for (x, y, z) in region.iter_voxels3() {
        let cell = at(x, y, z);
        occupied[cell / 64] |= 1 << (cell % 64);
    }
    const UNNUMBERED: u32 = u32::MAX;
    let mut vertex_ids = vec![UNNUMBERED; cells];
    for (x, y, z) in region.iter_voxels3() {
        let cell = at(x, y, z);
        for ([dx, dy, dz], corners) in FACES {
            let neighbour =
                cell.wrapping_add_signed(dx * step_x as isize + dy * step_y as isize + dz);
            if occupied[neighbour / 64] >> (neighbour % 64) & 1 == 1 {
                continue;
            }
            let ids = corners.map(|[cx, cy, cz]| {
                let slot = &mut vertex_ids
                    [cell + cx as usize * step_x + cy as usize * step_y + cz as usize];
                if *slot == UNNUMBERED {
                    *slot = mesh.push_vertex(Vec3::new(
                        f64::from(x + cx),
                        f64::from(y + cy),
                        f64::from(z + cz),
                    ));
                }
                *slot
            });
            mesh.push_triangle([ids[0], ids[1], ids[2]]);
            mesh.push_triangle([ids[0], ids[2], ids[3]]);
        }
    }
    mesh.recompute_normals();
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_geometry::{Sphere, Vec3};
    use qbism_region::GridGeometry;
    use qbism_sfc::CurveKind;
    use std::collections::HashMap;

    fn geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 4)
    }

    /// The mesher as it stood before the occupancy bitmap and the dense
    /// vertex table: a curve conversion and a binary search per neighbour,
    /// a hash lookup per corner.  Kept as the byte-identity oracle.
    fn extract_surface_reference(region: &Region) -> TriMesh {
        let geom = region.geometry();
        assert_eq!(geom.dims(), 3, "surface extraction requires a 3-D region");
        let side = geom.side();
        let mut mesh = TriMesh::new();
        let mut vertex_ids: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut vertex = |mesh: &mut TriMesh, x: u32, y: u32, z: u32| -> u32 {
            *vertex_ids.entry((x, y, z)).or_insert_with(|| {
                mesh.push_vertex(Vec3::new(f64::from(x), f64::from(y), f64::from(z)))
            })
        };
        // Neighbour offsets per axis direction with that face's corner
        // layout.  Corners are ordered so triangles wind CCW seen from
        // outside (normal = outward axis direction).
        for (x, y, z) in region.iter_voxels3() {
            let inside = |dx: i64, dy: i64, dz: i64| -> bool {
                let (nx, ny, nz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                if nx < 0 || ny < 0 || nz < 0 {
                    return false;
                }
                let (nx, ny, nz) = (nx as u32, ny as u32, nz as u32);
                if nx >= side || ny >= side || nz >= side {
                    return false;
                }
                region.contains_voxel(&[nx, ny, nz])
            };
            // Each entry: (neighbour offset, 4 face corners CCW from outside).
            type Face = ((i64, i64, i64), [(u32, u32, u32); 4]);
            let faces: [Face; 6] = [
                // +x face
                (
                    (1, 0, 0),
                    [(x + 1, y, z), (x + 1, y + 1, z), (x + 1, y + 1, z + 1), (x + 1, y, z + 1)],
                ),
                // -x face
                ((-1, 0, 0), [(x, y, z), (x, y, z + 1), (x, y + 1, z + 1), (x, y + 1, z)]),
                // +y face
                (
                    (0, 1, 0),
                    [(x, y + 1, z), (x, y + 1, z + 1), (x + 1, y + 1, z + 1), (x + 1, y + 1, z)],
                ),
                // -y face
                ((0, -1, 0), [(x, y, z), (x + 1, y, z), (x + 1, y, z + 1), (x, y, z + 1)]),
                // +z face
                (
                    (0, 0, 1),
                    [(x, y, z + 1), (x + 1, y, z + 1), (x + 1, y + 1, z + 1), (x, y + 1, z + 1)],
                ),
                // -z face
                ((0, 0, -1), [(x, y, z), (x, y + 1, z), (x + 1, y + 1, z), (x + 1, y, z)]),
            ];
            for ((dx, dy, dz), corners) in faces {
                if inside(dx, dy, dz) {
                    continue;
                }
                let ids: Vec<u32> =
                    corners.iter().map(|&(cx, cy, cz)| vertex(&mut mesh, cx, cy, cz)).collect();
                mesh.push_triangle([ids[0], ids[1], ids[2]]);
                mesh.push_triangle([ids[0], ids[2], ids[3]]);
            }
        }
        mesh.recompute_normals();
        mesh
    }

    fn assert_same_mesh(region: &Region) {
        let (got, want) = (extract_surface(region), extract_surface_reference(region));
        assert_eq!(got.vertices, want.vertices);
        assert_eq!(got.triangles, want.triangles);
        assert_eq!(got.normals, want.normals);
    }

    #[test]
    fn mesh_arrays_equal_the_reference_on_solids_and_grid_edges() {
        for kind in CurveKind::ALL {
            let g = GridGeometry::new(kind, 3, 4);
            assert_same_mesh(&Region::full(g));
            assert_same_mesh(&Region::empty(g));
            assert_same_mesh(&Region::from_box(g, [0, 3, 15], [2, 3, 15]).unwrap());
            let ball = Region::rasterize_solid(g, &Sphere::new(Vec3::new(9.0, 2.0, 13.0), 5.5));
            assert_same_mesh(&ball);
            assert_same_mesh(&ball.complement());
        }
    }

    proptest! {
        #[test]
        fn mesh_arrays_equal_the_reference_on_scattered_voxels(
            kind in 0usize..3,
            ids in proptest::collection::vec(0u64..512, 0..160),
        ) {
            // Sparse random voxels touch at faces, edges and corners, so
            // shared-vertex numbering is exercised in every arrangement.
            let g = GridGeometry::new(CurveKind::ALL[kind], 3, 3);
            assert_same_mesh(&Region::from_ids(g, ids));
        }
    }

    #[test]
    fn single_voxel_is_a_cube() {
        let r = Region::from_box(geom(), [5, 5, 5], [5, 5, 5]).unwrap();
        let m = extract_surface(&r);
        assert_eq!(m.triangle_count(), 12, "6 faces x 2 triangles");
        assert_eq!(m.vertex_count(), 8, "shared cube corners");
        assert!((m.surface_area() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn solid_box_hides_interior_faces() {
        let r = Region::from_box(geom(), [2, 2, 2], [4, 5, 6]).unwrap();
        let m = extract_surface(&r);
        // surface area of a 3x4x5 box = 2(12+15+20) = 94
        assert!((m.surface_area() - 94.0).abs() < 1e-9);
        // interior vertices never appear
        let expected_vertices = (4 * 5 + 4 * 6 + 5 * 6) * 2; // faces; edges/corners shared
        assert!(m.vertex_count() <= expected_vertices + 8);
    }

    #[test]
    fn normals_point_outward() {
        let ball = Sphere::new(Vec3::splat(8.0), 5.0);
        let r = Region::rasterize_solid(geom(), &ball);
        let m = extract_surface(&r);
        assert!(m.triangle_count() > 100);
        // Vertex normals of a sphere-ish surface should roughly align
        // with the radial direction.
        let mut aligned = 0usize;
        for (v, n) in m.vertices.iter().zip(&m.normals) {
            let radial = (*v - Vec3::splat(8.0)).normalized();
            if n.dot(radial) > 0.0 {
                aligned += 1;
            }
        }
        assert!(
            aligned as f64 > m.vertex_count() as f64 * 0.95,
            "only {aligned}/{} normals outward",
            m.vertex_count()
        );
    }

    #[test]
    fn empty_region_empty_mesh() {
        let m = extract_surface(&Region::empty(geom()));
        assert_eq!(m.triangle_count(), 0);
        assert_eq!(m.vertex_count(), 0);
    }

    #[test]
    fn two_disjoint_voxels_make_two_cubes() {
        let r = Region::from_ids(
            geom(),
            vec![geom().index_of(&[1, 1, 1]), geom().index_of(&[10, 10, 10])],
        );
        let m = extract_surface(&r);
        assert_eq!(m.triangle_count(), 24);
        assert!((m.surface_area() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn grid_boundary_voxels_still_close_the_surface() {
        // A voxel in the grid corner: neighbours outside the grid count
        // as outside, so all 6 faces must be emitted.
        let r = Region::from_box(geom(), [0, 0, 0], [0, 0, 0]).unwrap();
        let m = extract_surface(&r);
        assert_eq!(m.triangle_count(), 12);
    }

    #[test]
    fn watertightness_every_edge_shared_twice() {
        // On a closed surface each undirected edge borders exactly two
        // triangles.
        let ball = Sphere::new(Vec3::splat(8.0), 4.0);
        let r = Region::rasterize_solid(geom(), &ball);
        let m = extract_surface(&r);
        let mut edge_counts: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for t in &m.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = (a.min(b), a.max(b));
                *edge_counts.entry(key).or_insert(0) += 1;
            }
        }
        // Diagonal edges of split quads are shared by exactly 2
        // triangles; cube-lattice edges may border 2 faces as well.
        // Every edge count must be even and at least 2.
        for (edge, count) in edge_counts {
            assert!(count >= 2 && count % 2 == 0, "edge {edge:?} has odd share count {count}");
        }
    }
}
