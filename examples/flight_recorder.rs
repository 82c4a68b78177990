//! Flight-recorder tour: run a mixed workload with causal tracing on,
//! then export everything the recorder captured — a Chrome trace of the
//! whole session (`trace.json`, loadable in `about:tracing` or
//! Perfetto), the exclusive wall time of every span path folded out of
//! the same trees (`profile.folded`, flamegraph-ready), the slow-query
//! log, and a fault-induced crash dump.  The recorder is process-wide.
//!
//! ```sh
//! cargo run --release --example flight_recorder             # medium grid
//! cargo run --release --example flight_recorder -- --paper  # 128³, EQ1 scale
//! ```

#![allow(clippy::indexing_slicing)]

use std::time::Duration;

use qbism::{QbismConfig, QbismSystem};
use qbism_fault::FaultPlane;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = if std::env::args().any(|a| a == "--paper") {
        // The paper's own 128³ scale — EQ1-sized extractions, so the
        // trace shows real latencies.
        QbismConfig {
            atlas_bits: 7,
            pet_studies: 2,
            mri_studies: 0,
            device_capacity: 1u64 << 31,
            ..QbismConfig::paper_scale()
        }
    } else {
        QbismConfig::medium()
    };
    println!(
        "installing QBISM: {}³ atlas, {} PET + {} MRI studies …\n",
        config.side(),
        config.pet_studies,
        config.mri_studies
    );
    let sys = QbismSystem::install(&config)?;
    let studies: Vec<i64> = sys.pet_study_ids.clone();
    let study = studies[0];

    // Capture everything: a zero threshold puts every query in the
    // slow-query log.
    qbism_obs::trace::clear();
    qbism_obs::event::clear();
    qbism_obs::event::clear_slow_queries();
    qbism_obs::event::set_slow_query_threshold(Duration::ZERO);

    // A mixed workload: EQ1, spatial, attribute, mixed, and a
    // multi-study fold.
    sys.server.full_study(study)?;
    sys.server.structure_data(study, "putamen-l")?;
    sys.server.band_data(study, 224, 255)?;
    sys.server.band_in_structure(study, 96, 127, "putamen-l")?;
    sys.server.multi_study_band_region(&studies, 32, 63)?;

    // An 8-client storm: each client mints its own trace id, so the
    // Chrome export shows 8 stacked per-query timelines.
    {
        let server = &sys.server;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || server.band_data(study, 32, 63).map(|_| ()));
            }
        });
    }

    // A crash-outcome fault dumps the recorder's ring as it stood.
    {
        let scope = FaultPlane::new(7).crash_nth("lfm.read", 1).arm();
        let crashed = sys.server.full_study(study);
        drop(scope);
        println!(
            "crash-fault query result: {}",
            match crashed {
                Ok(_) => "ok (unexpected)".to_string(),
                Err(e) => format!("failed as injected: {e}"),
            }
        );
    }

    // Slow-query log: tree + event slice per over-threshold query.
    let slow = qbism_obs::event::slow_queries();
    println!("\nslow-query log ({} captured, threshold 0 for the demo):", slow.len());
    for q in slow.iter().rev().take(3) {
        println!(
            "  trace {:016x}  {:>9.3} ms  {} ({} events)",
            q.trace,
            q.micros as f64 / 1e3,
            q.tree.name,
            q.events.len()
        );
    }
    if let Some(q) = slow.last() {
        println!("\nEXPLAIN ANALYZE of the last slow query\n{}", q.tree.render_tree());
    }

    // Crash dump: the events leading up to the injected crash.
    if let Some(dump) = qbism_obs::event::last_crash_dump() {
        println!(
            "crash dump at site {:?}: {} events, live spans {:?}",
            dump.site,
            dump.events.len(),
            dump.live_spans
        );
        std::fs::write("crash_dump.json", qbism_obs::export::crash_dump_json(&dump))?;
        println!("wrote crash_dump.json");
    }

    // Chrome trace + event journal + folded exclusive times to disk.
    let roots = qbism_obs::trace::recent_roots();
    let events = qbism_obs::event::events();
    let folded = qbism_obs::export::folded_stacks(&roots);
    std::fs::write("trace.json", qbism_obs::export::chrome_trace(&roots, &events))?;
    std::fs::write("events.jsonl", qbism_obs::export::events_jsonl(&events))?;
    std::fs::write("profile.folded", &folded)?;
    println!(
        "\nwrote trace.json ({} span trees, {} journal events) — load it in about:tracing",
        roots.len(),
        events.len()
    );
    println!("wrote events.jsonl");
    println!("wrote profile.folded ({} distinct span paths, exclusive µs)", folded.lines().count());

    // Leave process-global knobs as we found them.
    qbism_obs::event::set_slow_query_threshold(Duration::from_micros(250_000));
    Ok(())
}
