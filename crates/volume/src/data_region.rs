//! `DATA_REGION`: the result of `EXTRACT_DATA`.
//!
//! "A recent version of the prototype includes the data type DATA_REGION
//! to represent the return value of EXTRACT_DATA(); it contains a REGION
//! and data values for each point in the REGION." (footnote 6)

use qbism_region::Region;
use std::sync::Arc;

/// A REGION together with one sample per voxel, in curve order.
///
/// The REGION is shared: an extraction's answer holds the very REGION
/// its operand was (a stored one as the long-field manager's object
/// cache keeps it, a computed one as the operator built it), never a
/// copy of its runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataRegion<T> {
    region: Arc<Region>,
    values: Vec<T>,
}

impl<T: Copy> DataRegion<T> {
    /// Pairs a region with its values.
    ///
    /// # Panics
    /// Panics if the value count does not match the region's voxel count.
    pub fn new(region: Region, values: Vec<T>) -> Self {
        DataRegion::shared(Arc::new(region), values)
    }

    /// Pairs a shared region with its values.
    ///
    /// # Panics
    /// Panics if the value count does not match the region's voxel count.
    pub fn shared(region: Arc<Region>, values: Vec<T>) -> Self {
        assert_eq!(
            region.voxel_count(),
            values.len() as u64,
            "DataRegion value count {} does not match region voxel count {}",
            values.len(),
            region.voxel_count()
        );
        DataRegion { region, values }
    }

    /// The spatial extent.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The spatial extent as shared: the same allocation as every other
    /// answer over it.
    pub fn shared_region(&self) -> &Arc<Region> {
        &self.region
    }

    /// The samples, aligned with `region().iter_ids()`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of voxels (== number of values).
    pub fn voxel_count(&self) -> usize {
        self.values.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(curve id, value)` pairs in curve order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.region.iter_ids().zip(self.values.iter().copied())
    }
}

impl DataRegion<u8> {
    /// Mean intensity, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let values = &self.values;
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
    #[should_panic(expected = "does not match region voxel count")]
    fn mismatched_lengths_panic() {
        let region = Region::from_ids(g(), vec![1, 2, 3]);
        let _ = DataRegion::new(region, vec![1u8, 2]);
    }
}
