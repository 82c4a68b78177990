//! `QueryCost::rows_scanned` of every server query class at
//! `QbismConfig::small_test()`, pinned to literals.  The count is a
//! Table 3 column defined by the plan and the executor — every row of a
//! scanned or hash-joined table, |left| × |right| for a nested loop — so
//! a change to either that moves it fails here.

use qbism::{QbismConfig, QbismSystem};

#[test]
fn rows_scanned_is_pinned_per_server_class() {
    let sys = QbismSystem::install(&QbismConfig::small_test()).expect("install");
    let (server, studies) = (&sys.server, &sys.pet_study_ids);
    let study = studies[0];
    let stage = server.population_stage(study, "ntal").into_result().expect("population stage");
    let classes = [
        ("full", server.full_study(study).expect("full").cost),
        ("box", server.box_data(study, [2, 3, 4], [9, 10, 11]).expect("box").cost),
        ("structure", server.structure_data(study, "ntal").expect("structure").cost),
        ("band", server.band_data(study, 32, 63).expect("band").cost),
        ("band in structure", server.band_in_structure(study, 32, 63, "ntal1").expect("bis").cost),
        ("population stage", stage.1),
        ("population", server.population_average(studies, "ntal").expect("population").cost),
        ("multi-study fold", server.multi_study_band_region(studies, 32, 63).expect("fold").1),
    ];
    let scanned: Vec<(&str, u64)> =
        classes.iter().map(|(class, cost)| (*class, cost.rows_scanned)).collect();
    assert_eq!(
        scanned,
        [
            ("full", 3),
            ("box", 3),
            ("structure", 25),
            ("band", 27),
            ("band in structure", 49),
            ("population stage", 25),
            ("population", 50),
            ("multi-study fold", 48),
        ]
    );
}
