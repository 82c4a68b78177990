//! Triangle meshes.
//!
//! The *Atlas Structure* entity stores, next to the volumetric REGION of
//! each structure, "a triangular mesh representing the surface of the
//! structure to support faster rendering" (Section 3.3).  [`TriMesh`] is
//! that second long-field column; `qbism-render` extracts and rasterizes
//! these meshes.

use crate::Vec3;

/// An indexed triangle mesh with per-vertex normals.
#[derive(Debug, Clone, Default)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<Vec3>,
    /// Per-vertex unit normals (same length as `vertices`).
    pub normals: Vec<Vec3>,
    /// Triangles as counter-clockwise vertex index triples.
    pub triangles: Vec<[u32; 3]>,
}

impl TriMesh {
    /// Creates an empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Appends a vertex with a placeholder normal, returning its index.
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' invariant: >u32::MAX vertices are unrepresentable in the triangle index format"
    )]
    pub fn push_vertex(&mut self, v: Vec3) -> u32 {
        let idx = match u32::try_from(self.vertices.len()) {
            Ok(idx) => idx,
            Err(_) => panic!("more than u32::MAX vertices"),
        };
        self.vertices.push(v);
        self.normals.push(Vec3::ZERO);
        idx
    }

    /// Appends a triangle.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn push_triangle(&mut self, tri: [u32; 3]) {
        let n = self.vertices.len() as u32;
        assert!(
            tri.iter().all(|&i| i < n),
            "triangle {tri:?} references missing vertices (have {n})"
        );
        self.triangles.push(tri);
    }

    /// Total surface area.
    pub fn surface_area(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| {
                let [a, b, c] = self.corners(t);
                (b - a).cross(c - a).length() * 0.5
            })
            .sum()
    }

    /// The three corner positions of triangle `t`.
    pub fn corners(&self, t: &[u32; 3]) -> [Vec3; 3] {
        [self.vertices[t[0] as usize], self.vertices[t[1] as usize], self.vertices[t[2] as usize]]
    }

    /// Axis-aligned bounding box `(min, max)`, or `None` for an empty mesh.
    pub fn bounds(&self) -> Option<(Vec3, Vec3)> {
        let mut it = self.vertices.iter();
        let first = *it.next()?;
        let (mut lo, mut hi) = (first, first);
        for &v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Recomputes per-vertex normals as the area-weighted average of the
    /// incident triangle normals (standard smooth shading normals).
    pub fn recompute_normals(&mut self) {
        self.normals = vec![Vec3::ZERO; self.vertices.len()];
        for t in &self.triangles {
            let [a, b, c] = [
                self.vertices[t[0] as usize],
                self.vertices[t[1] as usize],
                self.vertices[t[2] as usize],
            ];
            // Cross product length is 2x area, so summing unnormalized
            // face normals area-weights automatically.
            let n = (b - a).cross(c - a);
            for &i in t {
                self.normals[i as usize] += n;
            }
        }
        for n in &mut self.normals {
            *n = n.normalized();
        }
    }

    /// Serialized byte size with 32-bit floats and indices — the footprint
    /// the mesh long-field column would occupy.
    pub fn encoded_len(&self) -> usize {
        // header (2 x u32 counts) + vertices (3 f32) + normals (3 f32) + tris (3 u32)
        8 + self.vertices.len() * 12 + self.normals.len() * 12 + self.triangles.len() * 12
    }

    /// Appends all of `other` into `self` (indices re-based).
    pub fn merge(&mut self, other: &TriMesh) {
        let base = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.normals.extend_from_slice(&other.normals);
        self.triangles
            .extend(other.triangles.iter().map(|t| [t[0] + base, t[1] + base, t[2] + base]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_right_triangle() -> TriMesh {
        let mut m = TriMesh::new();
        let a = m.push_vertex(Vec3::ZERO);
        let b = m.push_vertex(Vec3::new(1.0, 0.0, 0.0));
        let c = m.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        m.push_triangle([a, b, c]);
        m
    }

    #[test]
    fn area_of_unit_right_triangle() {
        let m = unit_right_triangle();
        assert!((m.surface_area() - 0.5).abs() < 1e-12);
        assert_eq!(m.vertex_count(), 3);
        assert_eq!(m.triangle_count(), 1);
    }

    #[test]
    fn normals_point_along_ccw_winding() {
        let mut m = unit_right_triangle();
        m.recompute_normals();
        for n in &m.normals {
            assert!(n.distance(Vec3::new(0.0, 0.0, 1.0)) < 1e-12);
        }
    }

    #[test]
    fn shared_vertex_normals_average() {
        // Two faces of a "tent" meeting at a ridge: ridge normals bisect.
        let mut m = TriMesh::new();
        let a = m.push_vertex(Vec3::new(0.0, 0.0, 0.0));
        let b = m.push_vertex(Vec3::new(1.0, 0.0, 1.0));
        let c = m.push_vertex(Vec3::new(0.0, 1.0, 0.0));
        let d = m.push_vertex(Vec3::new(1.0, 1.0, 1.0));
        let e = m.push_vertex(Vec3::new(2.0, 0.0, 0.0));
        let f = m.push_vertex(Vec3::new(2.0, 1.0, 0.0));
        m.push_triangle([a, b, c]);
        m.push_triangle([c, b, d]);
        m.push_triangle([b, e, d]);
        m.push_triangle([d, e, f]);
        m.recompute_normals();
        // Ridge vertices b and d get the average of the two slope normals,
        // which points straight up the bisector plane (y = 0 component).
        assert!(m.normals[b as usize].y.abs() < 1e-9);
        assert!(m.normals[b as usize].z > 0.5);
    }

    #[test]
    fn bounds_and_merge() {
        let mut m = unit_right_triangle();
        let mut other = TriMesh::new();
        let a = other.push_vertex(Vec3::new(5.0, 5.0, 5.0));
        let b = other.push_vertex(Vec3::new(6.0, 5.0, 5.0));
        let c = other.push_vertex(Vec3::new(5.0, 6.0, 5.0));
        other.push_triangle([a, b, c]);
        m.merge(&other);
        assert_eq!(m.triangle_count(), 2);
        assert_eq!(m.vertex_count(), 6);
        // Merged triangle indices must be rebased past the original 3.
        assert_eq!(m.triangles[1], [3, 4, 5]);
        let (lo, hi) = m.bounds().unwrap();
        assert_eq!(lo, Vec3::ZERO);
        assert_eq!(hi, Vec3::new(6.0, 6.0, 5.0));
        assert!(TriMesh::new().bounds().is_none());
    }

    #[test]
    fn encoded_len_counts_fields() {
        let m = unit_right_triangle();
        assert_eq!(m.encoded_len(), 8 + 3 * 12 + 3 * 12 + 12);
    }

    #[test]
    #[should_panic(expected = "references missing vertices")]
    fn triangle_with_bad_index_panics() {
        let mut m = TriMesh::new();
        m.push_vertex(Vec3::ZERO);
        m.push_triangle([0, 1, 2]);
    }
}
