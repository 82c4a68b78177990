//! Observability tour: run the Section 3.4 query classes and show what
//! the instrumentation captured — per-query EXPLAIN ANALYZE span trees
//! (operator wall times, LFM page counts, UDF calls) and the
//! process-wide Prometheus / JSON metric exports.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use qbism::{QbismConfig, QbismSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = QbismConfig::medium();
    println!(
        "installing QBISM: {}³ atlas, {} PET + {} MRI studies …\n",
        config.side(),
        config.pet_studies,
        config.mri_studies
    );
    let sys = QbismSystem::install(&config)?;
    let study = sys.pet_study_ids[0];

    // The Section 3.4 pair: catalog lookup, then spatial extraction.
    sys.server.atlas_info(study)?;
    let q3 = sys.server.structure_data(study, "putamen-l")?;
    println!(
        "Q3-style structure query: {} voxels, {} h-runs, {} LFM pages",
        q3.voxel_count(),
        q3.run_count(),
        q3.cost.lfm.pages_read
    );
    if let Some(tree) = qbism_obs::trace::last_root() {
        println!("\nEXPLAIN ANALYZE query.structure\n{}", tree.render_tree());
    }

    // An attribute query over a stored intensity band.
    let q5 = sys.server.band_data(study, 224, 255)?;
    println!(
        "Q5-style band query: {} voxels, {} LFM pages",
        q5.voxel_count(),
        q5.cost.lfm.pages_read
    );

    // The mixed query — band ∩ structure, intersected inside the DBMS.
    let q6 = sys.server.band_in_structure(study, 96, 127, "putamen-l")?;
    println!(
        "\nQ6-style mixed query (band ∩ structure): {} voxels, {} LFM pages, {} msgs",
        q6.voxel_count(),
        q6.cost.lfm.pages_read,
        q6.cost.messages
    );
    let tree = qbism_obs::trace::last_root().expect("tracing is on by default");
    println!("\nEXPLAIN ANALYZE query.band_in_structure\n{}", tree.render_tree());

    // The Section 6.4 population aggregate, folded with QueryCost::accumulate.
    let ids = sys.pet_study_ids.clone();
    let pop = sys.server.population_average(&ids, "putamen-l")?;
    println!(
        "population average over {} studies: {} voxels, {} tuples scanned",
        ids.len(),
        pop.voxel_count(),
        pop.cost.rows_scanned
    );

    // Everything above also landed in the process-wide registry.
    println!("\n──── Prometheus text exposition ────");
    print!("{}", qbism_obs::global().render_prometheus());
    println!("\n──── JSON snapshot (truncated) ────");
    let json = qbism_obs::global().snapshot_json();
    println!("{}…", &json[..json.len().min(400)]);
    Ok(())
}
