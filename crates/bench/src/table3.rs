//! Table 3: full-system run-time measurements for single-study queries.

use crate::tablegen::Installs;
use qbism::{FullQueryReport, QbismConfig, QbismSystem, QuerySpec};

/// The paper's six queries, with grid-relative parameters so smaller
/// grids exercise the same shapes.
pub fn paper_queries(side: u32) -> Vec<(&'static str, QuerySpec)> {
    // Q2's box is corners (30,30,30)-(100,100,100) at side 128: scale
    // the fractions for other grids.
    let lo = (30 * side) / 128;
    let hi = (100 * side) / 128;
    vec![
        ("Q1", QuerySpec::FullStudy),
        ("Q2", QuerySpec::Box { min: [lo, lo, lo], max: [hi, hi, hi] }),
        ("Q3", QuerySpec::Structure("ntal".into())),
        ("Q4", QuerySpec::Structure("ntal1".into())),
        ("Q5", QuerySpec::Band { lo: 224, hi: 255 }),
        ("Q6", QuerySpec::BandInStructure { lo: 224, hi: 255, structure: "ntal1".into() }),
    ]
}

/// One published Table 3 row:
/// `(label, h_runs, voxels, ios, db_real, msgs, net_real, import_real,
/// render_real, other, total)`.
pub type PaperTable3Row = (&'static str, u64, u64, u64, f64, u64, f64, f64, f64, f64, f64);

/// The paper's published Table 3.
pub const PAPER_TABLE3: [PaperTable3Row; 6] = [
    ("Q1", 1, 2_097_152, 513, 3.4, 2103, 24.8, 10.7, 27.0, 3.1, 69.0),
    ("Q2", 5252, 357_911, 450, 3.5, 372, 4.4, 3.2, 13.0, 3.9, 28.0),
    ("Q3", 1088, 16_016, 29, 0.6, 22, 0.5, 0.2, 10.0, 3.7, 15.0),
    ("Q4", 14_364, 162_628, 265, 2.5, 195, 2.3, 1.5, 14.0, 3.7, 24.0),
    ("Q5", 508, 2_383, 32, 0.7, 7, 0.4, 0.1, 12.0, 3.8, 17.0),
    ("Q6", 150, 683, 72, 1.0, 4, 0.4, 0.1, 10.0, 4.5, 16.0),
];

/// Runs all six queries against a PET study.
///
/// Following the paper's protocol, each query runs `1 + repeats` times
/// and the *last* `repeats` runs are averaged (the LFM never buffers, so
/// variation is native-time jitter only; counts are identical across
/// runs).
pub fn measure(
    sys: &mut QbismSystem,
    study_id: i64,
    repeats: usize,
) -> Vec<(String, FullQueryReport)> {
    let side = sys.server.config().side();
    let mut out = Vec::new();
    for (label, spec) in paper_queries(side) {
        let mut reports = Vec::new();
        for _ in 0..=(repeats.max(1)) {
            reports.push(qbism::report::run_full_query(sys, study_id, &spec).expect("query runs"));
        }
        // Average native times over the warm runs; counts are identical.
        let warm = &reports[1..];
        let mut avg = warm[0].clone();
        let n = warm.len() as f64;
        avg.db_native_seconds = warm.iter().map(|r| r.db_native_seconds).sum::<f64>() / n;
        avg.import_native_seconds = warm.iter().map(|r| r.import_native_seconds).sum::<f64>() / n;
        avg.render_native_seconds = warm.iter().map(|r| r.render_native_seconds).sum::<f64>() / n;
        out.push((label.to_string(), avg));
    }
    out
}

/// Installs a system and renders the full paper-vs-measured table.
pub fn report(installs: &Installs, config: &QbismConfig, repeats: usize) -> String {
    let mut sys = installs.install(config);
    let study = sys.pet_study_ids[0];
    let rows = measure(&mut sys, study, repeats);
    let mut out = format!(
        "TABLE 3 single-study queries (grid {}³, simulated-1994 times)\n{}\n",
        config.side(),
        FullQueryReport::table3_header()
    );
    for (label, r) in &rows {
        out.push_str(&format!("{label}: {}\n", r.table3_row()));
    }
    out.push_str("\npaper (128³, RS/6000-530):\n");
    out.push_str(&format!(
        "{:<4} {:>8} {:>9} {:>6} {:>8} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7}\n",
        "",
        "h-runs",
        "voxels",
        "I/Os",
        "db(s)",
        "msgs",
        "net(s)",
        "imp(s)",
        "rend(s)",
        "oth(s)",
        "tot(s)"
    ));
    for (label, h, v, io, db, m, net, imp, rend, oth, tot) in PAPER_TABLE3 {
        out.push_str(&format!(
            "{label:<4} {h:>8} {v:>9} {io:>6} {db:>8.1} {m:>7} {net:>8.1} {imp:>8.1} {rend:>8.1} {oth:>7.1} {tot:>7.1}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_queries_cover_the_paper_classes() {
        let qs = paper_queries(128);
        assert_eq!(qs.len(), 6);
        assert_eq!(qs[1].1, QuerySpec::Box { min: [30, 30, 30], max: [100, 100, 100] });
    }

    #[test]
    fn table3_shape_holds_at_small_scale() {
        let mut sys = QbismSystem::install(&QbismConfig::small_test()).unwrap();
        let rows = measure(&mut sys, 1, 1);
        assert_eq!(rows.len(), 6);
        let by_label = |l: &str| rows.iter().find(|(x, _)| x == l).unwrap().1.clone();
        let q1 = by_label("Q1");
        let q3 = by_label("Q3");
        let q5 = by_label("Q5");
        let q6 = by_label("Q6");
        // The paper's headline: the full-study query dominates everything.
        for (label, r) in &rows[1..] {
            assert!(r.total_sim_seconds <= q1.total_sim_seconds, "{label} slower than Q1");
            assert!(r.voxels <= q1.voxels);
        }
        // Mixed query returns no more voxels than its band.
        assert!(q6.voxels <= q5.voxels);
        // Selective queries read no more pages than the full scan plus
        // the answer REGION's own descriptor page (which dominates only
        // at toy grid sizes; at 128³ Q1 reads ~512 pages).
        assert!(q3.lfm_ios <= q1.lfm_ios + 2, "q3 {} vs q1 {}", q3.lfm_ios, q1.lfm_ios);
    }

    #[test]
    fn paper_constants_are_transcribed() {
        assert_eq!(PAPER_TABLE3[0].2, 2_097_152);
        assert_eq!(PAPER_TABLE3[3].1, 14_364);
        assert_eq!(PAPER_TABLE3[5].10, 16.0);
    }
}
