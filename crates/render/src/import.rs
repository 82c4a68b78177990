//! ImportVolume: the module QBISM added to the DX executive.
//!
//! "We added a new module called *ImportVolume* to the DX executive; it
//! accepts the user's query and converts the spatially restricted data
//! from the database into a DX object."

use qbism_geometry::Vec3;
use qbism_volume::DataRegion;

/// The renderable object ImportVolume produces: explicit voxel positions
/// with normalized scalar values.
#[derive(Debug, Clone)]
pub struct DxField {
    /// Voxel centre positions in grid coordinates.
    pub positions: Vec<Vec3>,
    /// Intensities normalized to `[0, 1]`, aligned with `positions`.
    pub values: Vec<f32>,
    /// Grid side (for camera framing).
    pub grid_side: u32,
}

impl DxField {
    /// Number of imported voxels.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Converts a query answer (REGION + per-voxel intensities) into a
/// [`DxField`]: walk the REGION's runs along the curve to each voxel's
/// grid position and normalize the byte intensities.  Work is Θ(voxels),
/// the proportionality Table 3 measures in the ImportVolume column.
pub fn import_data_region(data: &DataRegion<u8>) -> DxField {
    let region = data.region();
    assert_eq!(region.geometry().dims(), 3, "DX renders 3-D fields");
    let mut positions = Vec::with_capacity(data.voxel_count());
    positions.extend(
        region
            .iter_voxels3()
            .map(|(x, y, z)| Vec3::new(f64::from(x) + 0.5, f64::from(y) + 0.5, f64::from(z) + 0.5)),
    );
    let values = data.values().iter().map(|&v| f32::from(v) / 255.0).collect();
    DxField { positions, values, grid_side: region.geometry().side() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_region::{GridGeometry, Region};
    use qbism_sfc::CurveKind;

    fn geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 3)
    }

    #[test]
    fn positions_match_region_voxels() {
        let region = Region::from_box(geom(), [1, 2, 3], [2, 3, 4]).unwrap();
        let values: Vec<u8> = (0..region.voxel_count()).map(|i| (i * 10) as u8).collect();
        let dr = DataRegion::new(region.clone(), values.clone());
        let field = import_data_region(&dr);
        assert_eq!(field.len(), 8);
        for ((x, y, z), pos) in region.iter_voxels3().zip(&field.positions) {
            assert_eq!(*pos, Vec3::new(f64::from(x) + 0.5, f64::from(y) + 0.5, f64::from(z) + 0.5));
        }
        assert_eq!(field.grid_side, 8);
    }

    #[test]
    fn values_normalized() {
        let region = Region::from_ids(geom(), vec![0, 1, 2]);
        let dr = DataRegion::new(region, vec![0, 128, 255]);
        let field = import_data_region(&dr);
        assert_eq!(field.values[0], 0.0);
        assert!((field.values[1] - 128.0 / 255.0).abs() < 1e-6);
        assert_eq!(field.values[2], 1.0);
    }

    #[test]
    fn empty_answer_imports_empty() {
        let dr = DataRegion::new(Region::empty(geom()), Vec::new());
        let field = import_data_region(&dr);
        assert!(field.is_empty());
    }
}
