//! System configuration.

use crate::QbismError;
use qbism_region::RegionCodec;
use qbism_sfc::CurveKind;

/// Configuration of one QBISM installation.
///
/// The defaults reproduce the paper's physical design choices: Hilbert
/// order for VOLUMEs and REGION ids, the "naive" 8-bytes-per-run REGION
/// encoding on disk (Section 6 measured with naive encoding), 32-wide
/// intensity bands, 5 PET + 3 MRI studies.
#[derive(Debug, Clone)]
pub struct QbismConfig {
    /// Atlas grid is `2^atlas_bits` per axis (paper: 7 → 128³).
    pub atlas_bits: u32,
    /// Linearization for VOLUMEs and REGIONs (paper: Hilbert; Table 4
    /// compares Morton).
    pub curve: CurveKind,
    /// The stored REGION layout (paper Section 6 default: naive runs;
    /// [`RegionCodec::K3Tree`] is the compact, queryable one), which the
    /// multi-study fold also ships its answer in; a REGION an operator
    /// computes is a typed value and is never encoded.
    pub region_codec: RegionCodec,
    /// Master seed for all synthetic data.
    pub seed: u64,
    /// Number of PET studies to load (paper: 5).
    pub pet_studies: usize,
    /// Number of MRI studies to load (paper: 3).
    pub mri_studies: usize,
    /// Intensity band width (paper: 32 → 8 bands over 0-255).
    pub band_width: u16,
    /// Number of patients in the demographic table.
    pub patients: usize,
    /// Activation blobs per PET study.
    pub pet_blobs: usize,
    /// Long-field device capacity in bytes.
    pub device_capacity: u64,
    /// A second name for `region_codec: K3Tree`, kept because
    /// `benchmark/src/target.rs` sets it in a struct literal; only
    /// [`QbismConfig::stored_codec`] reads it.
    #[doc(hidden)]
    pub compressed_tablespace: bool,
}

impl QbismConfig {
    /// The paper's full-scale installation: 128³ atlas, 5 PET + 3 MRI.
    /// This is release-build work (tens of seconds); tests use
    /// [`QbismConfig::small_test`].
    pub fn paper_scale() -> Self {
        QbismConfig {
            atlas_bits: 7,
            curve: CurveKind::Hilbert,
            region_codec: RegionCodec::Naive,
            seed: 0x51B1_5A17,
            pet_studies: 5,
            mri_studies: 3,
            band_width: 32,
            patients: 8,
            pet_blobs: 4,
            // volumes: (5+3) warped x 2 MiB + raws + regions; 1 GiB is roomy.
            device_capacity: 1 << 30,
            compressed_tablespace: false,
        }
    }

    /// A small deterministic installation for unit and integration tests
    /// (16³ atlas, 2 PET + 1 MRI).
    pub fn small_test() -> Self {
        QbismConfig {
            atlas_bits: 4,
            curve: CurveKind::Hilbert,
            region_codec: RegionCodec::Naive,
            seed: 7,
            pet_studies: 2,
            mri_studies: 1,
            band_width: 32,
            patients: 4,
            pet_blobs: 2,
            device_capacity: 1 << 24,
            compressed_tablespace: false,
        }
    }

    /// A mid-size installation (32³) — large enough for meaningful
    /// statistics, small enough for debug builds.
    pub fn medium() -> Self {
        QbismConfig {
            atlas_bits: 5,
            pet_studies: 3,
            mri_studies: 1,
            device_capacity: 1 << 26,
            ..QbismConfig::small_test()
        }
    }

    /// The layout REGION long fields are stored in: `region_codec`, or
    /// [`RegionCodec::K3Tree`] when the hidden `compressed_tablespace`
    /// field is set.
    pub fn stored_codec(&self) -> RegionCodec {
        if self.compressed_tablespace {
            RegionCodec::K3Tree
        } else {
            self.region_codec
        }
    }

    /// Checks the values the loader and the server compute with, once,
    /// where a configuration enters ([`crate::QbismSystem::install`],
    /// [`crate::MedicalServer::new`]): the intensity bands must tile
    /// 0–255 and the grid must hold the smallest atlas structure and
    /// index into a `u64`.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let width = self.band_width;
        if !(1..=256).contains(&width) || 256 % width != 0 {
            return Err(QbismError::Config(format!(
                "band_width {width} must be in 1..=256 and divide 256"
            )));
        }
        let max_bits = qbism_sfc::MAX_INDEX_BITS / 3;
        if !(4..=max_bits).contains(&self.atlas_bits) {
            return Err(QbismError::Config(format!(
                "atlas_bits {} must be in 4..={max_bits}",
                self.atlas_bits
            )));
        }
        Ok(())
    }

    /// Atlas grid side.
    pub fn side(&self) -> u32 {
        1 << self.atlas_bits
    }

    /// The grid geometry implied by this configuration.
    pub fn geometry(&self) -> qbism_region::GridGeometry {
        qbism_region::GridGeometry::new(self.curve, 3, self.atlas_bits)
    }
}

impl Default for QbismConfig {
    fn default() -> Self {
        QbismConfig::paper_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper() {
        let c = QbismConfig::paper_scale();
        assert_eq!(c.side(), 128);
        assert_eq!(c.pet_studies, 5);
        assert_eq!(c.mri_studies, 3);
        assert_eq!(c.band_width, 32);
        assert_eq!(c.curve, CurveKind::Hilbert);
        assert_eq!(c.geometry().cell_count(), 2_097_152);
    }

    #[test]
    fn small_test_is_small() {
        let c = QbismConfig::small_test();
        assert!(c.geometry().cell_count() <= 4096);
        assert_eq!(QbismConfig::default().side(), 128);
    }
}
