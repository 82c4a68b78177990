//! The [`Region`] type and its set algebra.

use crate::encode::RegionEncodeError;
use crate::geometry::GridGeometry;
use crate::kernel::{self, RunsCursor};
use crate::run::{normalize, push_fused, runs_from_ids, Run};
use qbism_geometry::{IBox3, IVec3, Solid};
use qbism_sfc::SpaceFillingCurve;
use std::convert::Infallible;

/// An arbitrary set of grid voxels, stored as canonical runs of
/// consecutive curve ids.
///
/// This is the paper's REGION: "a list of runs in Hilbert order".  All
/// set operations are linear merge scans over the run lists — the
/// "spatial join" of Orenstein & Manola that the paper adapts from
/// octants to runs.
///
/// # Invariants
///
/// * runs are sorted by `start`;
/// * runs are pairwise disjoint and non-adjacent (each run is maximal);
/// * every id is below `geometry().cell_count()`.
///
/// Operations between regions require equal [`GridGeometry`]; mixing
/// curves or grid sizes is a programming error and panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    geom: GridGeometry,
    runs: Vec<Run>,
}

/// The one validating sweep over a run list: every run inside the grid
/// (or a typed error), and whether the list is canonical — each start at
/// least two past the previous end: sorted, disjoint, non-adjacent.
fn canonical_in_grid(geom: GridGeometry, runs: &[Run]) -> Result<bool, RegionEncodeError> {
    let cells = geom.cell_count();
    // Smallest start the next run may have in canonical order.
    let mut floor = 0u64;
    let (mut in_grid, mut canonical) = (true, true);
    for run in runs {
        in_grid &= run.end < cells;
        canonical &= run.start >= floor;
        floor = run.end.saturating_add(2);
    }
    if in_grid {
        Ok(canonical)
    } else {
        Err(RegionEncodeError::Corrupt("run exceeds grid"))
    }
}

impl Region {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// The empty region.
    pub fn empty(geom: GridGeometry) -> Self {
        Region { geom, runs: Vec::new() }
    }

    /// The region covering the whole grid (a single run).
    pub fn full(geom: GridGeometry) -> Self {
        Region { geom, runs: vec![Run::new(0, geom.cell_count() - 1)] }
    }

    /// Builds a region from arbitrary runs (normalized internally).
    ///
    /// # Panics
    /// Panics if any id is outside the grid.
    pub fn from_runs(geom: GridGeometry, runs: Vec<Run>) -> Self {
        let cells = geom.cell_count();
        for r in &runs {
            assert!(r.end < cells, "run {r:?} exceeds grid cell count {cells}");
        }
        Region { geom, runs: normalize(runs) }
    }

    /// Wraps a run list that is already canonical — sorted, disjoint,
    /// non-adjacent, inside the grid — as the run kernels emit theirs,
    /// after one sweep that checks it is: no sort, no second list.
    pub fn from_canonical_runs(
        geom: GridGeometry,
        runs: Vec<Run>,
    ) -> Result<Self, RegionEncodeError> {
        if canonical_in_grid(geom, &runs)? {
            Ok(Region { geom, runs })
        } else {
            Err(RegionEncodeError::Corrupt("run list not canonical"))
        }
    }

    /// The REGION a decoded run list denotes.  Every encoder writes
    /// canonical lists, so what comes back from the device normally is
    /// one and is wrapped as it stands; a list that is not is sorted and
    /// fused.
    pub(crate) fn from_stored_runs(
        geom: GridGeometry,
        runs: Vec<Run>,
    ) -> Result<Self, RegionEncodeError> {
        let runs = if canonical_in_grid(geom, &runs)? { runs } else { normalize(runs) };
        Ok(Region { geom, runs })
    }

    /// Builds a region from arbitrary (unsorted, possibly duplicate) ids.
    ///
    /// # Panics
    /// Panics if any id is outside the grid.
    pub fn from_ids(geom: GridGeometry, ids: Vec<u64>) -> Self {
        let cells = geom.cell_count();
        for &id in &ids {
            assert!(id < cells, "id {id} exceeds grid cell count {cells}");
        }
        Region { geom, runs: runs_from_ids(ids) }
    }

    /// Rasterizes a coordinate predicate over the whole grid.
    ///
    /// The predicate sees coordinates as a `dims`-length slice.  Use the
    /// 3-D helpers ([`Region::rasterize_solid`], [`Region::from_box`]) for
    /// the common case.
    pub fn rasterize<F: FnMut(&[u32]) -> bool>(geom: GridGeometry, mut pred: F) -> Self {
        let curve = geom.curve();
        let dims = geom.dims() as usize;
        let side = geom.side();
        let mut coords = vec![0u32; dims];
        let mut ids: Vec<u64> = Vec::new();
        loop {
            if pred(&coords) {
                ids.push(curve.index_of(&coords));
            }
            // Mixed-radix increment, last axis fastest.
            let mut axis = dims;
            loop {
                if axis == 0 {
                    return Region { geom, runs: runs_from_ids(ids) };
                }
                axis -= 1;
                coords[axis] += 1;
                if coords[axis] < side {
                    break;
                }
                coords[axis] = 0;
            }
        }
    }

    /// Rasterizes an analytic solid by voxel-centre membership (3-D only).
    ///
    /// This is how the synthetic atlas structures become volumetric
    /// REGIONs.  Only the part of the grid the solid's
    /// [`Solid::bounds`] can reach is tested, and it is walked in curve
    /// order, so the run list is emitted directly — no id vector, no
    /// sort, and a small structure costs its own volume, not the grid's.
    ///
    /// # Panics
    /// Panics if the geometry is not 3-dimensional.
    pub fn rasterize_solid<S: Solid>(geom: GridGeometry, solid: &S) -> Self {
        assert_eq!(geom.dims(), 3, "rasterize_solid requires a 3-D grid");
        let bounds = solid.bounds();
        // Voxel `i` has its centre at `i + 0.5`; pad a voxel each way.
        let span = |lo: f64, hi: f64| -> Option<(u32, u32)> {
            let first = (lo - 1.5).floor().max(0.0);
            let last = (hi + 0.5).ceil().min(f64::from(geom.side() - 1));
            (first <= last).then_some((first as u32, last as u32))
        };
        let (Some(x), Some(y), Some(z)) = (
            span(bounds.min.x, bounds.max.x),
            span(bounds.min.y, bounds.max.y),
            span(bounds.min.z, bounds.max.z),
        ) else {
            return Region::empty(geom);
        };
        let curve = geom.curve();
        let mut runs: Vec<Run> = Vec::new();
        for cover in kernel::box_runs3(&curve, [x.0, y.0, z.0], [x.1, y.1, z.1]) {
            for (id, x, y, z) in curve.walk3(cover.start..cover.end + 1) {
                if solid.contains(IVec3::new(x, y, z).center()) {
                    push_fused(&mut runs, Run::new(id, id));
                }
            }
        }
        Region { geom, runs }
    }

    /// The axis-aligned box region with inclusive corners (3-D only).
    ///
    /// Returns `None` if the box pokes outside the grid.
    pub fn from_box(geom: GridGeometry, min: [u32; 3], max: [u32; 3]) -> Option<Self> {
        if geom.dims() != 3 {
            return None;
        }
        let side = geom.side();
        if max.iter().any(|&c| c >= side) || min.iter().zip(&max).any(|(a, b)| a > b) {
            return None;
        }
        // Octant descent (or whole scanline rows) — the kernel emits the
        // canonical run list without visiting individual voxels.
        Some(Region { geom, runs: kernel::box_runs3(&geom.curve(), min, max) })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The grid geometry the ids are defined over.
    pub fn geometry(&self) -> GridGeometry {
        self.geom
    }

    /// The canonical run list.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of runs — the quantity Section 4.2 compares across curves.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of voxels in the region.
    pub fn voxel_count(&self) -> u64 {
        self.runs.iter().map(Run::len).sum()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Whether curve id `id` is in the region (binary search).
    pub fn contains_id(&self, id: u64) -> bool {
        self.runs
            .binary_search_by(|r| {
                if id < r.start {
                    std::cmp::Ordering::Greater
                } else if id > r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Whether the voxel at `coords` is in the region.
    pub fn contains_voxel(&self, coords: &[u32]) -> bool {
        self.contains_id(self.geom.curve().index_of(coords))
    }

    /// Iterates all curve ids in increasing order.
    pub fn iter_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.start..=r.end)
    }

    /// The `n`-th id in increasing order (`n` counts from 0), found
    /// from the run lengths alone; `None` when the region has `n` or
    /// fewer voxels.
    pub fn nth_id(&self, mut n: u64) -> Option<u64> {
        for r in &self.runs {
            if n < r.len() {
                return Some(r.start + n);
            }
            n -= r.len();
        }
        None
    }

    /// Iterates all voxels as `(x, y, z)` in curve order (3-D only),
    /// walking each run along the curve rather than decoding each id.
    ///
    /// # Panics
    /// Panics if the geometry is not 3-dimensional.
    pub fn iter_voxels3(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        assert_eq!(self.geom.dims(), 3, "iter_voxels3 requires a 3-D grid");
        let curve = self.geom.curve();
        self.runs
            .iter()
            .flat_map(move |r| curve.walk3(r.start..r.end + 1))
            .map(|(_, x, y, z)| (x, y, z))
    }

    /// Tight bounding box of the region (3-D only); `None` when empty.
    ///
    /// # Panics
    /// Panics if the geometry is not 3-dimensional.
    pub fn bounding_box3(&self) -> Option<IBox3> {
        assert_eq!(self.geom.dims(), 3, "bounding_box3 requires a 3-D grid");
        let mut lo = [u32::MAX; 3];
        let mut hi = [0u32; 3];
        if self.is_empty() {
            return None;
        }
        for (x, y, z) in self.iter_voxels3() {
            let c = [x, y, z];
            for a in 0..3 {
                lo[a] = lo[a].min(c[a]);
                hi[a] = hi[a].max(c[a]);
            }
        }
        Some(IBox3::new(IVec3::from(lo), IVec3::from(hi)))
    }

    /// Number of region voxels inside an inclusive box (3-D only).
    ///
    /// Counts overlap in place over the box's run decomposition — no
    /// intersected `Region` (nor any id vector) is ever allocated.
    pub fn voxel_count_in_box(&self, min: [u32; 3], max: [u32; 3]) -> u64 {
        let Some(mask) = Region::from_box(self.geom, min, max) else { return 0 };
        let mut count = 0u64;
        let Ok(()) = kernel::intersect_into::<Infallible>(
            &mut self.cursor(),
            &mut mask.cursor(),
            |lo, hi| {
                count += hi - lo + 1;
                Ok(())
            },
        );
        count
    }

    // ------------------------------------------------------------------
    // Set algebra (merge scans — the run-based "spatial join")
    // ------------------------------------------------------------------

    /// The run list as a kernel operand; a slice cursor cannot fail, so
    /// the operators below are infallible by type.
    fn cursor(&self) -> RunsCursor<'_> {
        RunsCursor::new(&self.runs)
    }

    fn assert_compatible(&self, other: &Region, op: &str) {
        assert_eq!(
            self.geom, other.geom,
            "{op} between incompatible grids: {:?} vs {:?}",
            self.geom, other.geom
        );
    }

    /// Spatial intersection — the paper's `INTERSECTION(r1, r2)` operator.
    pub fn intersect(&self, other: &Region) -> Region {
        self.assert_compatible(other, "intersection");
        // Merge-scan output of canonical inputs is already canonical.
        let Ok(runs) = kernel::intersect::<Infallible>(&mut self.cursor(), &mut other.cursor());
        Region { geom: self.geom, runs }
    }

    /// Spatial union — the paper's future-work `UNION(r1, r2)` operator.
    pub fn union(&self, other: &Region) -> Region {
        self.assert_compatible(other, "union");
        let Ok(runs) = kernel::union::<Infallible>(&mut self.cursor(), &mut other.cursor());
        Region { geom: self.geom, runs }
    }

    /// Spatial difference `self \ other` — the paper's future-work
    /// `DIFFERENCE(r1, r2)` operator.
    pub fn difference(&self, other: &Region) -> Region {
        self.assert_compatible(other, "difference");
        let Ok(runs) = kernel::difference::<Infallible>(&mut self.cursor(), &mut other.cursor());
        Region { geom: self.geom, runs }
    }

    /// Complement within the grid.
    pub fn complement(&self) -> Region {
        Region::full(self.geom).difference(self)
    }

    /// Spatial containment — the paper's `CONTAINS(r1, r2)` operator:
    /// whether `self` is a spatial superset of `other`.
    pub fn contains_region(&self, other: &Region) -> bool {
        self.assert_compatible(other, "containment");
        let mut i = 0usize;
        for &b in &other.runs {
            // Find the run of self that could cover b.start.
            while i < self.runs.len() && self.runs[i].end < b.start {
                i += 1;
            }
            match self.runs.get(i) {
                Some(a) if a.start <= b.start && b.end <= a.end => {}
                _ => return false,
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Re-linearization and deltas
    // ------------------------------------------------------------------

    /// Re-expresses the same voxel set on a different curve.
    ///
    /// This is how the Section 4.2 run-count comparison is produced: one
    /// voxel set, ids recomputed per curve.
    pub fn to_curve(&self, kind: qbism_sfc::CurveKind) -> Region {
        if kind == self.geom.kind() {
            return self.clone();
        }
        let src = self.geom.curve();
        let dst_geom = self.geom.with_kind(kind);
        let dst = dst_geom.curve();
        // Batched transcoding: whole octree-aligned blocks convert with a
        // single curve conversion each when both orders are hierarchical.
        Region { geom: dst_geom, runs: kernel::transcode_runs(&self.runs, &src, &dst) }
    }

    /// The delta sequence: lengths of alternating runs and interior gaps,
    /// in curve order, starting and ending with a run.  This is the
    /// sequence whose length distribution EQ 1 models and whose entropy
    /// EQ 2 bounds.
    pub fn delta_lengths(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.runs.len() * 2);
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(r.start - self.runs[i - 1].end - 1); // gap
            }
            out.push(r.len()); // run
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_geometry::{
        Affine3, Difference, Ellipsoid, HalfSpace, Sphere, Superquadric, Transformed, Vec3,
    };
    use qbism_sfc::CurveKind;

    fn geom_2d() -> GridGeometry {
        GridGeometry::new(CurveKind::Morton, 2, 2)
    }

    fn small3(kind: CurveKind) -> GridGeometry {
        GridGeometry::new(kind, 3, 3)
    }

    /// The paper's Figure 3 region as z-ids.
    fn paper_region() -> Region {
        Region::from_ids(geom_2d(), vec![1, 4, 5, 6, 7, 12, 13])
    }

    #[test]
    fn paper_region_runs_match_table1() {
        let r = paper_region();
        assert_eq!(r.runs(), &[Run::new(1, 1), Run::new(4, 7), Run::new(12, 13)]);
        assert_eq!(r.voxel_count(), 7);
        assert_eq!(r.run_count(), 3);
    }

    #[test]
    fn paper_region_on_hilbert_matches_table2() {
        let r = paper_region().to_curve(CurveKind::Hilbert);
        assert_eq!(r.runs(), &[Run::new(3, 9)], "Table 2: h-runs = <3,9>");
    }

    #[test]
    fn delta_lengths_of_paper_region() {
        // runs 1;4-7;12-13 -> run 1, gap 2, run 4, gap 4, run 2
        assert_eq!(paper_region().delta_lengths(), vec![1, 2, 4, 4, 2]);
        // On the Hilbert curve there is a single delta.
        assert_eq!(paper_region().to_curve(CurveKind::Hilbert).delta_lengths(), vec![7]);
    }

    #[test]
    fn empty_and_full() {
        let g = small3(CurveKind::Hilbert);
        let e = Region::empty(g);
        let f = Region::full(g);
        assert!(e.is_empty());
        assert_eq!(e.voxel_count(), 0);
        assert_eq!(f.voxel_count(), 512);
        assert_eq!(f.run_count(), 1);
        assert!(f.contains_region(&e));
        assert!(f.contains_region(&f));
        assert!(!e.contains_region(&f));
        assert_eq!(e.complement(), f);
        assert_eq!(f.complement(), e);
        assert!(e.delta_lengths().is_empty());
    }

    #[test]
    fn from_box_and_counts() {
        let g = small3(CurveKind::Hilbert);
        let b = Region::from_box(g, [1, 1, 1], [3, 4, 2]).unwrap();
        assert_eq!(b.voxel_count(), 3 * 4 * 2);
        assert!(b.contains_voxel(&[1, 1, 1]));
        assert!(b.contains_voxel(&[3, 4, 2]));
        assert!(!b.contains_voxel(&[0, 1, 1]));
        assert!(!b.contains_voxel(&[3, 5, 2]));
        assert_eq!(
            b.bounding_box3().unwrap(),
            IBox3::new(IVec3::new(1, 1, 1), IVec3::new(3, 4, 2))
        );
        // Out-of-grid box
        assert!(Region::from_box(g, [0, 0, 0], [8, 1, 1]).is_none());
        // Inverted box
        assert!(Region::from_box(g, [3, 0, 0], [1, 1, 1]).is_none());
    }

    #[test]
    fn rasterize_solid_sphere() {
        let g = small3(CurveKind::Hilbert);
        let ball = Sphere::new(Vec3::splat(4.0), 2.5);
        let r = Region::rasterize_solid(g, &ball);
        assert!(r.voxel_count() > 0);
        // centre voxel inside, corner voxel outside
        assert!(r.contains_voxel(&[4, 4, 4]));
        assert!(!r.contains_voxel(&[0, 0, 0]));
        // every voxel's centre is actually inside the ball
        for (x, y, z) in r.iter_voxels3() {
            assert!(ball.contains(IVec3::new(x, y, z).center()));
        }
    }

    #[test]
    fn intersection_merge_scan() {
        let g = geom_2d();
        let a = Region::from_ids(g, vec![1, 2, 3, 8, 9, 14]);
        let b = Region::from_ids(g, vec![2, 3, 4, 9, 15]);
        let i = a.intersect(&b);
        let expect = Region::from_ids(g, vec![2, 3, 9]);
        assert_eq!(i, expect);
        assert_eq!(a.intersect(&Region::empty(g)), Region::empty(g));
    }

    #[test]
    fn union_and_difference() {
        let g = geom_2d();
        let a = Region::from_ids(g, vec![1, 2, 3, 10]);
        let b = Region::from_ids(g, vec![3, 4, 11]);
        assert_eq!(a.union(&b), Region::from_ids(g, vec![1, 2, 3, 4, 10, 11]));
        assert_eq!(a.difference(&b), Region::from_ids(g, vec![1, 2, 10]));
        assert_eq!(b.difference(&a), Region::from_ids(g, vec![4, 11]));
    }

    #[test]
    fn difference_splits_runs() {
        let g = small3(CurveKind::Morton);
        let a = Region::from_runs(g, vec![Run::new(0, 99)]);
        let b = Region::from_ids(g, vec![10, 11, 50]);
        let d = a.difference(&b);
        assert_eq!(d.runs(), &[Run::new(0, 9), Run::new(12, 49), Run::new(51, 99)]);
    }

    #[test]
    fn containment_operator() {
        let g = geom_2d();
        let big = Region::from_ids(g, vec![0, 1, 2, 3, 8, 9, 10]);
        let small = Region::from_ids(g, vec![1, 2, 9]);
        assert!(big.contains_region(&small));
        assert!(!small.contains_region(&big));
        let not_inside = Region::from_ids(g, vec![1, 4]);
        assert!(!big.contains_region(&not_inside));
    }

    #[test]
    fn nth_id_indexes_the_id_sequence() {
        let r =
            Region::from_runs(geom_2d(), vec![Run::new(2, 4), Run::new(9, 9), Run::new(12, 13)]);
        let ids: Vec<u64> = r.iter_ids().collect();
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(r.nth_id(n as u64), Some(id));
        }
        assert_eq!(r.nth_id(ids.len() as u64), None);
        assert_eq!(Region::empty(geom_2d()).nth_id(0), None);
    }

    #[test]
    fn contains_id_binary_search() {
        let g = small3(CurveKind::Hilbert);
        let r = Region::from_runs(g, vec![Run::new(5, 10), Run::new(20, 30)]);
        for id in 5..=10 {
            assert!(r.contains_id(id));
        }
        assert!(!r.contains_id(4));
        assert!(!r.contains_id(11));
        assert!(!r.contains_id(19));
        assert!(r.contains_id(20) && r.contains_id(30));
        assert!(!r.contains_id(31));
    }

    #[test]
    #[should_panic(expected = "incompatible grids")]
    fn mixing_geometries_panics() {
        let a = Region::empty(small3(CurveKind::Hilbert));
        let b = Region::empty(small3(CurveKind::Morton));
        let _ = a.intersect(&b);
    }

    #[test]
    #[should_panic(expected = "exceeds grid cell count")]
    fn out_of_grid_id_panics() {
        let _ = Region::from_ids(geom_2d(), vec![16]);
    }

    #[test]
    fn to_curve_preserves_voxels() {
        let g = small3(CurveKind::Hilbert);
        let ball = Sphere::new(Vec3::splat(3.5), 2.0);
        let r = Region::rasterize_solid(g, &ball);
        let z = r.to_curve(CurveKind::Morton);
        assert_eq!(z.geometry().kind(), CurveKind::Morton);
        assert_eq!(z.voxel_count(), r.voxel_count());
        let mut a: Vec<(u32, u32, u32)> = r.iter_voxels3().collect();
        let mut b: Vec<(u32, u32, u32)> = z.iter_voxels3().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // converting back is the identity
        assert_eq!(z.to_curve(CurveKind::Hilbert), r);
    }

    /// Oracle-checked algebra: compare against a bitset model on an 8x8x8
    /// grid with arbitrary voxel sets.
    fn arb_region(g: GridGeometry) -> impl Strategy<Value = Region> {
        proptest::collection::vec(0u64..512, 0..200).prop_map(move |ids| Region::from_ids(g, ids))
    }

    fn to_bits(r: &Region) -> Vec<bool> {
        let mut bits = vec![false; 512];
        for id in r.iter_ids() {
            bits[id as usize] = true;
        }
        bits
    }

    proptest! {
        #[test]
        fn bounded_rasterization_equals_the_full_sweep(
            kind in 0usize..3,
            bits in 2u32..=4,
            center in proptest::array::uniform3(-0.3f64..1.3),
            radii in proptest::array::uniform3(0.02f64..0.7),
            exponent in 0.7f64..4.0,
            tilt in -3.0f64..3.0,
        ) {
            // Solids that sit inside, straddle and miss the grid: the
            // swept box may be clipped or empty, never short.
            let g = GridGeometry::new(CurveKind::ALL[kind], 3, bits);
            let side = f64::from(g.side());
            let (center, radii) = (Vec3::from(center) * side, Vec3::from(radii) * side);
            let place = Affine3::rotation_z(tilt).then(&Affine3::translation(center));
            let solids: [Box<dyn Solid>; 3] = [
                Box::new(Superquadric::new(center, radii, exponent)),
                Box::new(Transformed::new(Ellipsoid::new(Vec3::ZERO, radii), place)),
                Box::new(Difference(Sphere::new(center, radii.x), HalfSpace::new(radii, tilt))),
            ];
            for solid in &solids {
                let swept = Region::rasterize(g, |c| {
                    solid.contains(IVec3::new(c[0], c[1], c[2]).center())
                });
                prop_assert_eq!(Region::rasterize_solid(g, solid), swept);
            }
        }

        #[test]
        fn iter_voxels3_decodes_every_id(r in arb_region(small3(CurveKind::Morton))) {
            let curve = r.geometry().curve();
            let decoded: Vec<_> = r.iter_ids().map(|id| curve.coords_of3(id)).collect();
            prop_assert_eq!(r.iter_voxels3().collect::<Vec<_>>(), decoded);
        }

        #[test]
        fn algebra_matches_bitset_oracle(
            a in arb_region(small3(CurveKind::Hilbert)),
            b in arb_region(small3(CurveKind::Hilbert)),
        ) {
            let (ba, bb) = (to_bits(&a), to_bits(&b));
            let and: Vec<bool> = ba.iter().zip(&bb).map(|(x, y)| *x && *y).collect();
            let or: Vec<bool> = ba.iter().zip(&bb).map(|(x, y)| *x || *y).collect();
            let sub: Vec<bool> = ba.iter().zip(&bb).map(|(x, y)| *x && !*y).collect();
            prop_assert_eq!(to_bits(&a.intersect(&b)), and);
            prop_assert_eq!(to_bits(&a.union(&b)), or);
            prop_assert_eq!(to_bits(&a.difference(&b)), sub);
            let not_a: Vec<bool> = ba.iter().map(|x| !*x).collect();
            prop_assert_eq!(to_bits(&a.complement()), not_a);
            // containment oracle
            let a_contains_b = bb.iter().zip(&ba).all(|(y, x)| !*y || *x);
            prop_assert_eq!(a.contains_region(&b), a_contains_b);
        }

        #[test]
        fn algebra_laws(
            a in arb_region(small3(CurveKind::Hilbert)),
            b in arb_region(small3(CurveKind::Hilbert)),
            c in arb_region(small3(CurveKind::Hilbert)),
        ) {
            // commutativity
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
            prop_assert_eq!(a.union(&b), b.union(&a));
            // associativity
            prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            // De Morgan
            prop_assert_eq!(
                a.union(&b).complement(),
                a.complement().intersect(&b.complement())
            );
            // idempotence and absorption
            prop_assert_eq!(a.intersect(&a), a.clone());
            prop_assert_eq!(a.union(&a), a.clone());
            prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
            // difference via complement
            prop_assert_eq!(a.difference(&b), a.intersect(&b.complement()));
            // intersect result is contained in both
            let i = a.intersect(&b);
            prop_assert!(a.contains_region(&i) && b.contains_region(&i));
        }

        #[test]
        fn run_invariants_hold_after_ops(
            a in arb_region(small3(CurveKind::Hilbert)),
            b in arb_region(small3(CurveKind::Hilbert)),
        ) {
            for r in [a.intersect(&b), a.union(&b), a.difference(&b), a.complement()] {
                for w in r.runs().windows(2) {
                    prop_assert!(w[0].end + 1 < w[1].start, "runs not canonical: {:?}", r.runs());
                }
            }
        }
    }
}
