//! `DATA_REGION`: the result of `EXTRACT_DATA`.
//!
//! "A recent version of the prototype includes the data type DATA_REGION
//! to represent the return value of EXTRACT_DATA(); it contains a REGION
//! and data values for each point in the REGION." (footnote 6)

use qbism_region::Region;

/// A REGION together with one sample per voxel, in curve order.
///
/// The samples may sit at an offset in a larger buffer — the one the
/// extraction filled, whose head holds the wire value's region part —
/// so an answer keeps that buffer instead of moving its values down.
/// Everything but [`DataRegion::from_buffer`] sees only the samples:
/// equality, cloning and every accessor ignore the head.
pub struct DataRegion<T> {
    region: Region,
    buf: Vec<T>,
    /// Where the samples start in `buf`; they run to its end.
    values_at: usize,
}

impl<T: Copy> DataRegion<T> {
    /// Pairs a region with its values.
    ///
    /// # Panics
    /// Panics if the value count does not match the region's voxel count.
    pub fn new(region: Region, values: Vec<T>) -> Self {
        Self::from_buffer(region, values, 0)
    }

    /// Pairs a region with the values that fill `buf` from `values_at`
    /// to its end, keeping `buf` as it is.
    ///
    /// # Panics
    /// Panics if `values_at` is past the end of `buf` or the value count
    /// does not match the region's voxel count.
    pub fn from_buffer(region: Region, buf: Vec<T>, values_at: usize) -> Self {
        assert!(values_at <= buf.len(), "DataRegion values start past the buffer's end");
        let values = buf.len() - values_at;
        assert_eq!(
            region.voxel_count(),
            values as u64,
            "DataRegion value count {values} does not match region voxel count {}",
            region.voxel_count()
        );
        DataRegion { region, buf, values_at }
    }

    /// The spatial extent.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The samples, aligned with `region().iter_ids()`.
    pub fn values(&self) -> &[T] {
        self.buf.get(self.values_at..).unwrap_or_default()
    }

    /// Number of voxels (== number of values).
    pub fn voxel_count(&self) -> usize {
        self.values().len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Iterates `(curve id, value)` pairs in curve order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.region.iter_ids().zip(self.values().iter().copied())
    }
}

/// A clone holds the samples alone, not the buffer's head.
impl<T: Copy> Clone for DataRegion<T> {
    fn clone(&self) -> Self {
        DataRegion { region: self.region.clone(), buf: self.values().to_vec(), values_at: 0 }
    }
}

impl<T: Copy + PartialEq> PartialEq for DataRegion<T> {
    fn eq(&self, other: &Self) -> bool {
        self.region == other.region && self.values() == other.values()
    }
}

impl<T: Copy + Eq> Eq for DataRegion<T> {}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for DataRegion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataRegion")
            .field("region", &self.region)
            .field("values", &self.values())
            .finish()
    }
}

impl DataRegion<u8> {
    /// Restricts to samples in `lo..=hi`, producing a smaller
    /// `DataRegion` (used for post-filtering approximate query answers).
    pub fn filter_intensity(&self, lo: u8, hi: u8) -> DataRegion<u8> {
        let mut ids = Vec::new();
        let mut values = Vec::new();
        for (id, v) in self.iter() {
            if (lo..=hi).contains(&v) {
                ids.push(id);
                values.push(v);
            }
        }
        DataRegion::new(Region::from_ids(self.region.geometry(), ids), values)
    }

    /// Mean intensity, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let values = self.values();
        if values.is_empty() {
            return None;
        }
        Some(values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_region::GridGeometry;
    use qbism_sfc::CurveKind;

    fn g() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 3)
    }

    fn sample() -> DataRegion<u8> {
        let region = Region::from_ids(g(), vec![10, 11, 12, 40, 41]);
        DataRegion::new(region, vec![5, 100, 200, 7, 250])
    }

    #[test]
    fn accessors() {
        let dr = sample();
        assert_eq!(dr.voxel_count(), 5);
        assert!(!dr.is_empty());
        let pairs: Vec<(u64, u8)> = dr.iter().collect();
        assert_eq!(pairs, vec![(10, 5), (11, 100), (12, 200), (40, 7), (41, 250)]);
    }

    #[test]
    fn statistics() {
        let dr = sample();
        assert_eq!(dr.mean(), Some((5.0 + 100.0 + 200.0 + 7.0 + 250.0) / 5.0));
        let empty = DataRegion::new(Region::empty(g()), Vec::<u8>::new());
        assert_eq!(empty.mean(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn filter_intensity_keeps_alignment() {
        let dr = sample();
        let high = dr.filter_intensity(100, 255);
        assert_eq!(high.voxel_count(), 3);
        let pairs: Vec<(u64, u8)> = high.iter().collect();
        assert_eq!(pairs, vec![(11, 100), (12, 200), (41, 250)]);
    }

    #[test]
    #[should_panic(expected = "does not match region voxel count")]
    fn mismatched_lengths_panic() {
        let region = Region::from_ids(g(), vec![1, 2, 3]);
        let _ = DataRegion::new(region, vec![1u8, 2]);
    }

    #[test]
    #[should_panic(expected = "past the buffer's end")]
    fn values_past_the_buffer_panic() {
        let _ = DataRegion::from_buffer(Region::empty(g()), vec![1u8, 2], 3);
    }

    /// Values held behind any head — none, the wire value's region part,
    /// junk — are the same answer: equality, clone, `values()` and every
    /// statistic see the samples alone.
    #[test]
    fn the_buffer_head_is_invisible() {
        let owned = sample();
        for head in [&[][..], &[0x51, 0x44, 9, 0, 0, 0][..], &[255; 40][..]] {
            let mut buf = head.to_vec();
            buf.extend_from_slice(owned.values());
            let held = DataRegion::from_buffer(owned.region().clone(), buf, head.len());
            assert_eq!(held, owned);
            assert_eq!(held.values(), owned.values());
            assert_eq!(held.voxel_count(), 5);
            assert_eq!(held.mean(), owned.mean());
            assert_eq!(held.iter().collect::<Vec<_>>(), owned.iter().collect::<Vec<_>>());
            let cloned = held.clone();
            assert_eq!(cloned, owned);
            assert_eq!(cloned.buf.len(), 5, "a clone keeps the samples, not the head");
            assert_eq!(format!("{held:?}"), format!("{owned:?}"));
        }
        let mut other = owned.values().to_vec();
        other[4] = 0;
        assert_ne!(DataRegion::from_buffer(owned.region().clone(), other, 0), owned);
    }
}
