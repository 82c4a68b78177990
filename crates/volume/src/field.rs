//! Curve-ordered dense fields.

use crate::{DataRegion, VolumeError};
use qbism_region::{GridGeometry, Region, Run};
use qbism_sfc::{CurveKind, SpaceFillingCurve};

/// A dense field of samples over a grid, stored linearized in the grid's
/// curve order: `values[id]` is the sample of the cell with curve id `id`.
///
/// The element type is generic — the paper's "n-d m-vector field"
/// generalization — but the concrete [`Volume`] (8-bit scalars) is what
/// the medical application stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field<T> {
    geom: GridGeometry,
    values: Vec<T>,
}

/// The paper's VOLUME: an 8-bit-deep scalar field ("each warped VOLUME
/// consisted of 2 million, single-byte intensity values").
pub type Volume = Field<u8>;

impl<T: Copy + Default> Field<T> {
    /// A field with every sample equal to `fill`.
    pub fn filled(geom: GridGeometry, fill: T) -> Self {
        Field { geom, values: vec![fill; geom.cell_count() as usize] }
    }

    /// Builds a field by evaluating `f` at every 3-D voxel coordinate.
    ///
    /// `f` is evaluated **in curve order** — the order the samples are
    /// stored in, so the fill is one sequential write walked along the
    /// curve — and is therefore required to be a pure function of the
    /// coordinates (`Fn`, not `FnMut`).
    ///
    /// # Panics
    /// Panics if the geometry is not 3-dimensional.
    pub fn from_fn3<F: Fn(u32, u32, u32) -> T>(geom: GridGeometry, f: F) -> Self {
        assert_eq!(geom.dims(), 3, "from_fn3 requires a 3-D grid");
        let cells = geom.cell_count();
        let mut values = Vec::with_capacity(cells as usize);
        values.extend(geom.curve().walk3(0..cells).map(|(_, x, y, z)| f(x, y, z)));
        Field { geom, values }
    }

    /// Imports samples given in scanline order (axis 0 slowest) — the
    /// layout of the paper's *raw* studies — re-ordering them into the
    /// grid's curve order.
    fn gather_scanline(geom: GridGeometry, samples: &[T]) -> Self {
        let mut values = Vec::with_capacity(samples.len());
        for_each_scan_offset(geom, |_, scan| values.push(samples[scan]));
        Field { geom, values }
    }

    /// Exports samples to scanline order (axis 0 slowest).
    pub fn to_scanline(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.values.len()];
        for_each_scan_offset(self.geom, |id, scan| out[scan] = self.values[id]);
        out
    }

    /// Re-linearizes the same samples onto a different curve — the
    /// storage-layout ablation (Hilbert vs Z vs scanline page counts).
    pub fn relayout(&self, kind: CurveKind) -> Field<T> {
        if kind == self.geom.kind() {
            return self.clone();
        }
        // Through scanline order: each side is one walk along its own
        // curve, where a direct transcode would pay an `index_of` per cell.
        Field::gather_scanline(self.geom.with_kind(kind), &self.to_scanline())
    }

    /// The grid geometry (curve, dims, bits).
    pub fn geometry(&self) -> GridGeometry {
        self.geom
    }

    /// The linearized samples, indexed by curve id.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the linearized samples.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Sample at a curve id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn at_id(&self, id: u64) -> T {
        self.values[id as usize]
    }

    /// The paper's "efficient random access" requirement: the sample at a
    /// 3-D point, via one curve conversion and one array access.
    ///
    /// # Panics
    /// Panics if the geometry is not 3-D or the point is out of range.
    pub fn probe(&self, x: u32, y: u32, z: u32) -> T {
        self.values[self.geom.curve().index_of3(x, y, z) as usize]
    }

    /// `EXTRACT_DATA(v, r)` — "exactly those intensity values from v that
    /// are inside r" (Section 3.2), returned with their REGION as the
    /// footnote-6 `DATA_REGION`.
    ///
    /// Because volume and region share a curve order, each region run is
    /// one contiguous slice copy.
    pub fn extract(&self, region: &Region) -> Result<DataRegion<T>, VolumeError> {
        if region.geometry() != self.geom {
            return Err(VolumeError::GeometryMismatch);
        }
        let mut values = Vec::with_capacity(region.voxel_count() as usize);
        for run in region.runs() {
            values.extend_from_slice(&self.values[run.start as usize..=run.end as usize]);
        }
        Ok(DataRegion::new(region.clone(), values))
    }
}

/// Calls `visit(id, scan)` for every cell of `geom` in ascending curve-id
/// order, `scan` being the cell's offset in scanline order (axis 0
/// slowest).  3-D grids walk the curve; other dimensionalities decode
/// each id.
fn for_each_scan_offset(geom: GridGeometry, mut visit: impl FnMut(usize, usize)) {
    let cells = geom.cell_count();
    if geom.kind() == CurveKind::Scanline {
        (0..cells as usize).for_each(|id| visit(id, id));
        return;
    }
    let (curve, bits) = (geom.curve(), geom.bits());
    if geom.dims() == 3 {
        for (id, x, y, z) in curve.walk3(0..cells) {
            visit(id as usize, (((x as usize) << bits | y as usize) << bits) | z as usize);
        }
        return;
    }
    let mut buf = [0u32; qbism_sfc::MAX_INDEX_BITS as usize];
    let coords = &mut buf[..geom.dims() as usize];
    for id in 0..cells {
        curve.coords_of(id, coords);
        visit(id as usize, coords.iter().fold(0, |scan, &c| scan << bits | c as usize));
    }
}

impl Volume {
    /// The REGION of voxels whose intensity lies in `lo..=hi` — the
    /// paper's **intensity band** when the interval is one of the fixed
    /// uniform bands, and the general attribute-query predicate otherwise.
    pub fn intensity_region(&self, lo: u8, hi: u8) -> Region {
        // Values are stored in curve order, so one linear scan tracking
        // the open run emits the canonical run list directly — no
        // materialized id vector, no sort.
        let mut runs: Vec<Run> = Vec::new();
        let mut open: Option<u64> = None;
        for (id, &v) in self.values.iter().enumerate() {
            if (lo..=hi).contains(&v) {
                open.get_or_insert(id as u64);
            } else if let Some(start) = open.take() {
                runs.push(Run::new(start, id as u64 - 1));
            }
        }
        if let Some(start) = open {
            runs.push(Run::new(start, self.values.len() as u64 - 1));
        }
        Region::from_runs(self.geom, runs)
    }

    /// Partitions the 0-255 intensity range into uniform bands of `width`
    /// and returns `(lo, hi, band REGION)` per band — the *Intensity
    /// Band* entity rows computed at load time.  The paper uses
    /// `width = 32`, producing 8 bands.
    ///
    /// # Panics
    /// Panics unless `width` is in `1..=256` and divides 256.
    pub fn intensity_bands(&self, width: u16) -> Vec<(u8, u8, Region)> {
        assert!(
            (1..=256).contains(&width) && 256 % width == 0,
            "band width {width} must divide 256"
        );
        let count = (256 / width) as usize;
        // Bands partition the intensity range, so along the curve at most
        // one band has an open run at any id: a single pass closing the
        // open run whenever the band changes builds every band's
        // canonical run list simultaneously — no id vectors in between.
        let mut runs: Vec<Vec<Run>> = vec![Vec::new(); count];
        let mut open: Option<(usize, u64)> = None; // (band, run start)
        for (id, &v) in self.values.iter().enumerate() {
            let band = v as usize / width as usize;
            match open {
                Some((b, _)) if b == band => {}
                _ => {
                    if let Some((b, start)) = open {
                        runs[b].push(Run::new(start, id as u64 - 1));
                    }
                    open = Some((band, id as u64));
                }
            }
        }
        if let Some((b, start)) = open {
            runs[b].push(Run::new(start, self.values.len() as u64 - 1));
        }
        runs.into_iter()
            .enumerate()
            .map(|(i, band_runs)| {
                let lo = (i as u16 * width) as u8;
                let hi = (i as u16 * width + width - 1) as u8;
                (lo, hi, Region::from_runs(self.geom, band_runs))
            })
            .collect()
    }

    /// 256-bin intensity histogram (the paper's "histogram segmented"
    /// interaction).
    pub fn histogram(&self) -> [u64; 256] {
        let mut h = [0u64; 256];
        for &v in &self.values {
            h[v as usize] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn g(kind: CurveKind) -> GridGeometry {
        GridGeometry::new(kind, 3, 3)
    }

    fn ramp_volume(kind: CurveKind) -> Volume {
        // value = x * 32 + y * 4 + z/2: deterministic, spatially smooth.
        Volume::from_fn3(g(kind), |x, y, z| (x * 32 + y * 4 + z / 2) as u8)
    }

    #[test]
    fn probe_is_position_not_layout() {
        // The same field probed at the same point must agree regardless
        // of the storage curve.
        let h = ramp_volume(CurveKind::Hilbert);
        let z = ramp_volume(CurveKind::Morton);
        let s = ramp_volume(CurveKind::Scanline);
        for (x, y, zc) in [(0, 0, 0), (7, 7, 7), (3, 5, 1), (6, 0, 4)] {
            let expect = (x * 32 + y * 4 + zc / 2) as u8;
            assert_eq!(h.probe(x, y, zc), expect);
            assert_eq!(z.probe(x, y, zc), expect);
            assert_eq!(s.probe(x, y, zc), expect);
        }
    }

    #[test]
    fn scanline_roundtrip() {
        let v = ramp_volume(CurveKind::Hilbert);
        let scan = v.to_scanline();
        let back = Volume::gather_scanline(v.geometry(), &scan);
        assert_eq!(back, v);
        // Scanline export of a scanline volume is the identity.
        let s = ramp_volume(CurveKind::Scanline);
        assert_eq!(s.to_scanline(), s.values());
    }

    #[test]
    fn scanline_layouts_hold_in_every_dimensionality() {
        // 3-D walks the curve, other dims decode per id: both must place
        // sample `i` of the scanline at the curve id of scanline cell `i`.
        for (dims, bits) in [(1u32, 6u32), (2, 3), (3, 2), (4, 2)] {
            for kind in CurveKind::ALL {
                let geom = GridGeometry::new(kind, dims, bits);
                let samples: Vec<u32> = (0..geom.cell_count() as u32).collect();
                let field = Field::gather_scanline(geom, &samples);
                let scan = geom.with_kind(CurveKind::Scanline).curve();
                let mut coords = vec![0u32; dims as usize];
                for &i in &samples {
                    scan.coords_of(u64::from(i), &mut coords);
                    assert_eq!(field.at_id(geom.index_of(&coords)), i, "{kind} {dims}-D");
                }
                assert_eq!(field.to_scanline(), samples, "{kind} {dims}-D");
                for other in CurveKind::ALL {
                    assert_eq!(field.relayout(other).to_scanline(), samples);
                }
            }
        }
    }

    #[test]
    fn relayout_preserves_probes() {
        let h = ramp_volume(CurveKind::Hilbert);
        let z = h.relayout(CurveKind::Morton);
        assert_eq!(z.geometry().kind(), CurveKind::Morton);
        for (x, y, zc) in [(1, 2, 3), (7, 0, 7), (4, 4, 4)] {
            assert_eq!(h.probe(x, y, zc), z.probe(x, y, zc));
        }
        // relayout to the same kind is the identity
        assert_eq!(h.relayout(CurveKind::Hilbert), h);
    }

    #[test]
    fn extract_full_grid_returns_everything() {
        let v = ramp_volume(CurveKind::Hilbert);
        let full = Region::full(v.geometry());
        let dr = v.extract(&full).unwrap();
        assert_eq!(dr.values(), v.values());
        assert_eq!(dr.voxel_count(), 512);
    }

    #[test]
    fn extract_box_matches_probes() {
        let v = ramp_volume(CurveKind::Hilbert);
        let r = Region::from_box(v.geometry(), [1, 2, 3], [4, 5, 6]).unwrap();
        let dr = v.extract(&r).unwrap();
        assert_eq!(dr.voxel_count() as u64, r.voxel_count());
        for ((x, y, z), &val) in r.iter_voxels3().zip(dr.values()) {
            assert_eq!(val, v.probe(x, y, z), "at ({x},{y},{z})");
        }
    }

    #[test]
    fn extract_geometry_mismatch() {
        let v = ramp_volume(CurveKind::Hilbert);
        let r = Region::full(g(CurveKind::Morton));
        assert_eq!(v.extract(&r).unwrap_err(), VolumeError::GeometryMismatch);
    }

    #[test]
    fn intensity_region_matches_predicate() {
        let v = ramp_volume(CurveKind::Hilbert);
        let r = v.intensity_region(100, 150);
        for (x, y, z) in r.iter_voxels3() {
            let val = v.probe(x, y, z);
            assert!((100..=150).contains(&val));
        }
        let total_in_band = v.values().iter().filter(|&&v| (100..=150).contains(&v)).count();
        assert_eq!(r.voxel_count() as usize, total_in_band);
    }

    #[test]
    fn bands_partition_the_grid() {
        // The paper's banding: width 32 -> 8 REGIONs covering everything
        // exactly once.
        let v = ramp_volume(CurveKind::Hilbert);
        let bands = v.intensity_bands(32);
        assert_eq!(bands.len(), 8);
        assert_eq!(bands[0].0, 0);
        assert_eq!(bands[0].1, 31);
        assert_eq!(bands[7].0, 224);
        assert_eq!(bands[7].1, 255);
        let mut union = Region::empty(v.geometry());
        let mut total = 0u64;
        for (lo, hi, r) in &bands {
            assert_eq!(r, &v.intensity_region(*lo, *hi));
            total += r.voxel_count();
            union = union.union(r);
        }
        assert_eq!(total, 512);
        assert_eq!(union, Region::full(v.geometry()));
    }

    #[test]
    fn bands_width_must_divide_256() {
        let v = ramp_volume(CurveKind::Hilbert);
        assert_eq!(v.intensity_bands(256).len(), 1);
        assert_eq!(v.intensity_bands(1).len(), 256);
    }

    #[test]
    #[should_panic(expected = "must divide 256")]
    fn bad_band_width_panics() {
        let _ = ramp_volume(CurveKind::Hilbert).intensity_bands(33);
    }

    #[test]
    fn histogram_counts_every_voxel() {
        let v = ramp_volume(CurveKind::Hilbert);
        let h = v.histogram();
        assert_eq!(h.iter().sum::<u64>(), 512);
        let zeros = v.values().iter().filter(|&&x| x == 0).count() as u64;
        assert_eq!(h[0], zeros);
    }

    #[test]
    fn vector_field_extension() {
        // The paper's m-vector generalization: store [f32; 3] samples.
        let geom = g(CurveKind::Hilbert);
        let wind: Field<[f32; 3]> = Field::from_fn3(geom, |x, y, z| [x as f32, y as f32, z as f32]);
        assert_eq!(wind.probe(3, 1, 4), [3.0, 1.0, 4.0]);
        let r = Region::from_box(geom, [2, 2, 2], [3, 3, 3]).unwrap();
        let dr = wind.extract(&r).unwrap();
        assert_eq!(dr.voxel_count() as u64, r.voxel_count());
    }

    proptest! {
        #[test]
        fn extract_then_reassemble(ids in proptest::collection::vec(0u64..512, 1..200)) {
            let v = ramp_volume(CurveKind::Hilbert);
            let r = Region::from_ids(v.geometry(), ids);
            let dr = v.extract(&r).unwrap();
            // values align 1:1 with region ids in curve order
            for (id, &val) in r.iter_ids().zip(dr.values()) {
                prop_assert_eq!(val, v.at_id(id));
            }
        }

        #[test]
        fn band_regions_are_disjoint(width_exp in 0u32..6) {
            let width = 1u16 << (3 + width_exp); // 8..=256
            let v = ramp_volume(CurveKind::Hilbert);
            let bands = v.intensity_bands(width);
            for i in 0..bands.len() {
                for j in (i + 1)..bands.len() {
                    prop_assert!(bands[i].2.intersect(&bands[j].2).is_empty());
                }
            }
        }
    }
}
