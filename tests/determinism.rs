//! Determinism guarantees: the whole evaluation must regenerate
//! identically from the same seed (EXPERIMENTS.md's reproducibility
//! claim), and differently from a different seed.

use qbism_bench::{eq1, fig4, run_counts, tables12};

#[test]
fn measured_reports_are_bit_stable() {
    let bits = 5;
    let a = run_counts::measure(bits, 1, 1, 7).render();
    let b = run_counts::measure(bits, 1, 1, 7).render();
    assert_eq!(a, b, "run-count report must regenerate identically");
    let a = fig4::measure(bits, 1, 1, 7).render();
    let b = fig4::measure(bits, 1, 1, 7).render();
    assert_eq!(a, b, "fig4 report must regenerate identically");
    let a = eq1::measure(bits, 1, 0, 7).render();
    let b = eq1::measure(bits, 1, 0, 7).render();
    assert_eq!(a, b, "eq1 report must regenerate identically");
}

#[test]
fn different_seeds_give_different_data() {
    let a = fig4::measure(5, 1, 0, 7);
    let b = fig4::measure(5, 1, 0, 8);
    // The anatomy is seed-independent but the study bands are not.
    let a_sizes: Vec<usize> = a.samples.iter().map(|s| s.elias).collect();
    let b_sizes: Vec<usize> = b.samples.iter().map(|s| s.elias).collect();
    assert_ne!(a_sizes, b_sizes, "study-band sizes should vary with the seed");
}

#[test]
fn tables12_report_is_constant() {
    assert_eq!(tables12::report(), tables12::report());
    assert_eq!(tables12::compute(), tables12::paper_expected());
}

#[test]
fn table3_counts_are_identical_across_repeat_runs() {
    use qbism::{QbismConfig, QbismSystem, QuerySpec};
    let small = QbismConfig::small_test();
    let k3 = QbismConfig { region_codec: qbism_region::RegionCodec::K3Tree, ..small.clone() };
    for config in [small, k3] {
        let mut sys = QbismSystem::install(&config).expect("install");
        let spec = QuerySpec::Structure("ntal".into());
        let a = qbism::report::run_full_query(&mut sys, 1, &spec).expect("first run");
        let b = qbism::report::run_full_query(&mut sys, 1, &spec).expect("second run");
        // Counts never change across runs (no caching anywhere to warm).
        assert_eq!(a.h_runs, b.h_runs);
        assert_eq!(a.voxels, b.voxels);
        assert_eq!(a.lfm_ios, b.lfm_ios);
        assert_eq!(a.messages, b.messages);
        // Simulated times are deterministic functions of the counts.
        assert_eq!(a.net_sim_seconds, b.net_sim_seconds);
        assert_eq!(a.import_sim_seconds, b.import_sim_seconds);
        assert_eq!(a.render_sim_seconds, b.render_sim_seconds);
    }
}
