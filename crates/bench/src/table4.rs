//! Table 4: multi-study n-way intersection under different REGION
//! encodings.
//!
//! "Compute the REGION in which all 5 PET studies consistently have
//! intensities in the range 128-159 … We used z- and h-runs with the
//! 'naive' scheme, as well as octants.  We found h-runs to be superior."

use crate::tablegen::Installs;
use qbism::QbismConfig;
use qbism_region::{OctantKind, RegionCodec};
use qbism_sfc::CurveKind;

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Encoding label.
    pub method: String,
    /// LFM 4 KiB page reads.
    pub lfm_ios: u64,
    /// Native database cpu seconds on this machine.
    pub native_seconds: f64,
    /// Simulated 1994 real seconds.
    pub sim_seconds: f64,
    /// Voxels in the intersection (identical across methods).
    pub voxels: u64,
}

/// The paper's published Table 4: (method, I/Os, cpu, real).
pub const PAPER_TABLE4: [(&str, u64, f64, f64); 3] = [
    ("h-runs, naive", 446, 1.02, 5.7),
    ("z-runs, naive", 593, 1.26, 7.3),
    ("octants (z order)", 664, 1.49, 8.1),
];

/// The three encoding configurations the paper compares.
pub fn methods() -> [(&'static str, CurveKind, RegionCodec); 3] {
    [
        ("h-runs, naive", CurveKind::Hilbert, RegionCodec::Naive),
        ("z-runs, naive", CurveKind::Morton, RegionCodec::Naive),
        ("octants (z order)", CurveKind::Morton, RegionCodec::Octant(OctantKind::Cubic)),
    ]
}

/// Runs the multi-study query once per encoding method.  Each method
/// gets its own installation (the encoding is a load-time physical
/// design choice), all stored from one prepared set so the *data* is
/// identical.
pub fn measure(installs: &Installs, base: &QbismConfig, lo: u8, hi: u8) -> Vec<Table4Row> {
    methods()
        .into_iter()
        .map(|(label, curve, codec)| {
            let config = QbismConfig { curve, region_codec: codec, ..base.clone() };
            let sys = installs.install(&config);
            let ids = sys.pet_study_ids.clone();
            let (region, cost) =
                sys.server.multi_study_band_region(&ids, lo, hi).expect("multi-study query");
            Table4Row {
                method: label.to_string(),
                lfm_ios: cost.lfm.pages_read,
                native_seconds: cost.native_db_seconds,
                sim_seconds: cost.sim_db_seconds,
                voxels: region.voxel_count(),
            }
        })
        .collect()
}

/// Renders the paper-vs-measured comparison.
pub fn report(installs: &Installs, base: &QbismConfig, lo: u8, hi: u8) -> String {
    let rows = measure(installs, base, lo, hi);
    let mut out = format!(
        "TABLE 4 multi-study ({} PET studies, band {lo}-{hi}, grid {}³)\n\
         {:<20} {:>8} {:>12} {:>10} {:>10}\n",
        base.pet_studies,
        base.side(),
        "method",
        "I/Os",
        "native(s)",
        "sim(s)",
        "voxels"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<20} {:>8} {:>12.4} {:>10.2} {:>10}\n",
            r.method, r.lfm_ios, r.native_seconds, r.sim_seconds, r.voxels
        ));
    }
    out.push_str("\npaper (128³, 5 PET studies, band 128-159):\n");
    for (m, io, cpu, real) in PAPER_TABLE4 {
        out.push_str(&format!("{m:<20} {io:>8} {cpu:>12.2} {real:>10.1}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_runs_win_as_in_the_paper() {
        let base = QbismConfig { pet_studies: 3, ..QbismConfig::medium() };
        let rows = measure(&Installs::default(), &base, 64, 95);
        assert_eq!(rows.len(), 3);
        let h = &rows[0];
        let z = &rows[1];
        let o = &rows[2];
        // All three compute the same voxel set.
        assert_eq!(h.voxels, z.voxels);
        assert_eq!(h.voxels, o.voxels);
        // Paper ordering: h-runs win.  (The z-vs-octant order needs the
        // octant:run ratio above 2 — 4-byte octants vs 8-byte runs —
        // which holds at 128³ [see EXPERIMENTS.md] but is noise-level at
        // this grid size, so only Hilbert's win is asserted here.)
        assert!(h.lfm_ios <= z.lfm_ios, "h {} vs z {}", h.lfm_ios, z.lfm_ios);
        // Compare the deterministic simulated-disk component only: when
        // the I/O counts tie at this grid size, total sim_seconds is
        // decided by native wall-clock jitter and would flake.
        let sim_disk = |r: &Table4Row| r.sim_seconds - r.native_seconds;
        assert!(sim_disk(h) <= sim_disk(z) + 1e-9);
        // h vs octant needs regions big enough that per-region page
        // rounding (every REGION read costs >= 1 page) stops dominating;
        // the 128³ run in EXPERIMENTS.md shows the full paper ordering.
        assert!(o.lfm_ios >= 3, "each band REGION costs at least one page");
    }

    #[test]
    fn report_contains_all_methods() {
        let base = QbismConfig { pet_studies: 2, ..QbismConfig::small_test() };
        let text = report(&Installs::default(), &base, 64, 95);
        for m in ["h-runs, naive", "z-runs, naive", "octants (z order)", "paper"] {
            assert!(text.contains(m), "missing {m}");
        }
    }
}
