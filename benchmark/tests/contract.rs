//! Self-tests that need an installed system: exact counts repeat bit
//! for bit, and `BENCHMARK.json` lists exactly what the runner emits.
//!
//! Everything here runs on 16³ grids.  The traced runs read
//! process-wide registry counters, so the tests take turns.

use qbism_benchmark::report::END_TO_END;
use qbism_benchmark::run::{run_untraced, Metric, Outcome};
use qbism_benchmark::traced::run_traced;
use qbism_benchmark::workload::{Spec, WORKLOADS};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

static TURN: Mutex<()> = Mutex::new(());

fn small(spec: Spec) -> Spec {
    spec.scaled_down(4, 8)
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    let found = outcome.metrics.iter().find(|m| m.name == name);
    found.unwrap_or_else(|| panic!("metric {name} missing")).value
}

fn traced(spec: Spec, seed: u64) -> Outcome {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("traces");
    run_traced(small(spec), seed, &out).expect("traced run")
}

#[test]
fn exact_counts_are_bit_identical_across_runs() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    for spec in WORKLOADS.into_iter().filter(|w| w.clients == 1) {
        let runs = [(); 2].map(|()| run_untraced(small(spec), 1994, 0.0).expect("run"));
        for run in &runs {
            assert!(run.correct, "{}", spec.name);
            assert_eq!(run.failed, 0, "{}", spec.name);
        }
        for name in ["pages_per_query", "space_amp"] {
            let (a, b) = (value(&runs[0], name), value(&runs[1], name));
            assert_eq!(a.to_bits(), b.to_bits(), "{} {name}: {a} vs {b}", spec.name);
            assert!(a > 0.0, "{} {name} must never be 0", spec.name);
        }
        let runs = [(); 2].map(|()| traced(spec, 1994));
        for name in [
            "lfm.phys_pages_per_query",
            "netsim.messages_per_query",
            "lfm.sim_disk_s_per_query",
            "lfm.extents_per_query",
            "starburst.rows_scanned_per_query",
        ] {
            let (a, b) = (value(&runs[0], name), value(&runs[1], name));
            assert_eq!(a.to_bits(), b.to_bits(), "{} {name}: {a} vs {b}", spec.name);
        }
        assert!(runs[0].correct, "{}: traced run failed", spec.name);
    }
}

#[test]
fn another_seed_changes_the_ops_but_no_answer_is_wrong() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = Spec::by_name("clients-2-64").expect("workload");
    if std::thread::available_parallelism().map_or(1, usize::from) < spec.clients {
        assert!(run_untraced(small(spec), 7, 0.0).is_err(), "must refuse to start");
        return;
    }
    let run = run_untraced(small(spec), 7, 0.0).expect("run");
    assert!(run.correct && run.failed == 0);
    assert_eq!(run.attempted, 2 * 56 * 31, "2 clients x 56 ops x (warm-up + 30 rounds)");
}

/// The objects of one array of `BENCHMARK.json`, as raw text.
fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{').skip(1).map(|o| &o[..o.find('}').expect("object end")]).collect()
}

fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let at = object.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = object[at + key.len() + 3..].trim_start();
    match rest.strip_prefix('"') {
        Some(quoted) => &quoted[..quoted.find('"').expect("closing quote")],
        None => rest[..rest.find(',').unwrap_or(rest.len())].trim(),
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_runner_emits() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");

    let workloads = section(&json, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for w in &workloads {
        assert!(field(w, "why").len() <= 200, "why too long: {}", field(w, "name"));
    }

    let listed = section(&json, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (object, metric) in listed.iter().zip(END_TO_END) {
        assert_eq!(field(object, "name"), metric.name);
        assert_eq!(field(object, "unit"), metric.unit);
        assert_eq!(field(object, "better") == "higher", metric.higher_is_better, "{}", metric.name);
        assert_eq!(field(object, "bound").parse::<f64>().expect("bound"), metric.bound);
    }
    let spec = Spec::by_name("small-cached-128").expect("workload");
    let emitted = run_untraced(small(spec), 1, 0.0).expect("run").metrics;
    let pair = |m: &Metric| (m.name.clone(), m.unit.to_string());
    assert_eq!(
        emitted.iter().map(pair).collect::<Vec<_>>(),
        END_TO_END.map(|m| (m.name.to_string(), m.unit.to_string()))
    );

    let listed: Vec<(String, String)> = section(&json, "per_layer")
        .iter()
        .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
        .collect();
    let emitted: Vec<(String, String)> = traced(spec, 1).metrics.iter().map(pair).collect();
    assert_eq!(listed, emitted);
}
