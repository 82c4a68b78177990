//! Ablation: approximate REGIONs (Section 4.2's "mingap" / GxGxG
//! minimum-octant proposal).
//!
//! The paper describes the trade: approximation "effectively increases
//! the volume of a REGION … while simultaneously reducing the number of
//! octants or runs required to represent it", and queries over
//! approximate REGIONs "require post-processing with exact REGIONs".
//! This module measures that trade end to end: region storage bytes,
//! extraction page I/O, voxels read vs. voxels kept after refinement.

use qbism_lfm::LongFieldManager;
use qbism_phantom::{build_atlas, PetField};
use qbism_region::RegionCodec;
use qbism_sfc::CurveKind;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct ApproxRow {
    /// `mingap` used (1 = exact).
    pub mingap: u64,
    /// Runs in the stored region.
    pub runs: usize,
    /// Stored region bytes (naive codec).
    pub region_bytes: usize,
    /// 4 KiB pages read to extract the region's voxels from the volume.
    pub extraction_pages: u64,
    /// Voxels read (approximation reads extra).
    pub voxels_read: u64,
    /// Voxels surviving refinement (the exact answer, constant).
    pub voxels_kept: u64,
}

/// Measures the exact region and a sweep of mingap approximations for
/// one structure at grid `2^bits`.
pub fn measure(bits: u32, structure: &str, mingaps: &[u64], seed: u64) -> Vec<ApproxRow> {
    let geom = qbism_region::GridGeometry::new(CurveKind::Hilbert, 3, bits);
    let atlas = build_atlas(geom);
    let field = PetField::new(&atlas, seed, 3);
    let volume = crate::population::sample_field(geom, &field);
    let exact = atlas.structure(structure).expect("known structure").region.clone();
    let mut lfm = LongFieldManager::new(1 << 28, 4096).expect("device");
    let volume_lf = lfm.create(volume.values()).expect("volume stored");
    let mut out = Vec::new();
    for &mingap in mingaps {
        let region = exact.approximate_mingap(mingap);
        let bytes = RegionCodec::Naive.encode(&region).expect("encodes");
        lfm.reset_stats();
        let pieces = region.runs().iter().map(|r| (r.start, r.len()));
        let mut values = Vec::new();
        lfm.read_pieces_into(volume_lf, pieces, &mut values).expect("extract");
        // Post-processing with the exact region.
        let kept = region.refine_with_exact(&exact);
        out.push(ApproxRow {
            mingap,
            runs: region.run_count(),
            region_bytes: bytes.len(),
            extraction_pages: lfm.stats().pages_read,
            voxels_read: region.voxel_count(),
            voxels_kept: kept.voxel_count(),
        });
    }
    out
}

/// Renders the ablation table.
pub fn report(bits: u32, structure: &str, seed: u64) -> String {
    let rows = measure(bits, structure, &[1, 2, 4, 8, 16, 32], seed);
    let mut out = format!(
        "Approximate REGIONs ablation: '{structure}' at {}³ (mingap sweep)\n\
         {:>8} {:>8} {:>12} {:>8} {:>12} {:>12} {:>9}\n",
        1u32 << bits,
        "mingap",
        "runs",
        "bytes",
        "pages",
        "voxels read",
        "voxels kept",
        "overread"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>8} {:>8} {:>12} {:>8} {:>12} {:>12} {:>8.2}x\n",
            r.mingap,
            r.runs,
            r.region_bytes,
            r.extraction_pages,
            r.voxels_read,
            r.voxels_kept,
            r.voxels_read as f64 / r.voxels_kept.max(1) as f64,
        ));
    }
    out.push_str(
        "paper: approximation shrinks the REGION representation at the cost of\n\
         reading outside voxels that exact post-processing then discards.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_the_papers_trade() {
        let rows = measure(5, "ntal", &[1, 4, 16], 7);
        assert_eq!(rows.len(), 3);
        let exact = &rows[0];
        assert_eq!(exact.mingap, 1);
        assert_eq!(exact.voxels_read, exact.voxels_kept, "exact region reads exactly the answer");
        for w in rows.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(b.runs <= a.runs, "coarser mingap cannot add runs");
            assert!(b.region_bytes <= a.region_bytes, "representation shrinks");
            assert!(b.voxels_read >= a.voxels_read, "overread grows");
            assert_eq!(b.voxels_kept, a.voxels_kept, "refined answer is invariant");
        }
        let coarsest = rows.last().expect("rows");
        assert!(coarsest.runs < exact.runs, "the sweep must actually coarsen");
    }

    #[test]
    fn report_renders_all_columns() {
        let text = report(5, "thalamus", 7);
        for needle in ["mingap", "runs", "bytes", "voxels kept", "overread"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
