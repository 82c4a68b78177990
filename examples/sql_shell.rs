//! An interactive SQL shell over the populated medical database — the
//! closest thing to sitting at the 1994 prototype's console.
//!
//! ```sh
//! cargo run --release --example sql_shell            # interactive
//! echo "select * from patient" | cargo run --release --example sql_shell
//! ```
//!
//! Spatial UDFs are available: try
//! `select ns.structureName, regionVoxels(ast.region) from atlasStructure ast,
//!  neuralStructure ns where ast.structureId = ns.structureId`, or extract
//! a structure's voxels with `select extractVoxels(wv.data, ast.region)
//!  from warpedVolume wv, atlasStructure ast where wv.studyId = 1 and
//!  ast.structureId = 1`, or count a band inside a structure with
//! `select regionVoxels(intersection(b.region, ast.region)) from
//!  intensityBand b, atlasStructure ast where b.studyId = 1 and b.lo = 128
//!  and ast.structureId = 1`.

use qbism::{QbismConfig, QbismSystem};
use qbism_region::Region;
use qbism_starburst::{ExecOutcome, Value};
use qbism_volume::DataRegion;
use std::io::{BufRead, Write};

/// One result cell: an extraction's typed DATA_REGION by its size and
/// mean intensity, a computed REGION by its size, anything else as SQL
/// prints it.
fn cell(value: &Value) -> String {
    if let Some(dr) = value.as_object::<DataRegion<u8>>() {
        return format!(
            "<data_region: {} voxels in {} runs, mean {:.1}>",
            dr.voxel_count(),
            dr.region().run_count(),
            dr.mean().unwrap_or(0.0)
        );
    }
    match value.as_object::<Region>() {
        Some(r) => format!("<region: {} voxels in {} runs>", r.voxel_count(), r.run_count()),
        None => value.to_string(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = QbismConfig::medium();
    eprintln!(
        "installing QBISM ({}³ atlas, {} PET + {} MRI) …",
        config.side(),
        config.pet_studies,
        config.mri_studies
    );
    let mut sys = QbismSystem::install(&config)?;
    eprintln!("ready. end with ctrl-d.  tables: atlas, patient, rawVolume, warpedVolume,");
    eprintln!("atlasStructure, intensityBand, neuralStructure, neuralSystem, systemStructure");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        eprint!("qbism> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let sql = line.trim();
        if sql.is_empty() || sql.starts_with("--") {
            continue;
        }
        if sql == "\\q" || sql == "quit" || sql == "exit" {
            break;
        }
        let before = sys.server.lfm_stats();
        match sys.server.database().execute(sql) {
            Ok(ExecOutcome::Rows(rs)) => {
                println!("{}", rs.columns().join(" | "));
                for row in rs.rows().iter().take(50) {
                    let cells: Vec<String> = row.iter().map(cell).collect();
                    println!("{}", cells.join(" | "));
                }
                if rs.len() > 50 {
                    println!("… {} more rows", rs.len() - 50);
                }
                let io = sys.server.lfm_stats().since(&before);
                eprintln!(
                    "({} rows, {} tuples scanned, {} page reads)",
                    rs.len(),
                    rs.rows_scanned,
                    io.pages_read
                );
            }
            Ok(ExecOutcome::Inserted(n)) => eprintln!("inserted {n} rows"),
            Ok(ExecOutcome::Deleted(n)) => eprintln!("deleted {n} rows"),
            Ok(ExecOutcome::Updated(n)) => eprintln!("updated {n} rows"),
            Ok(ExecOutcome::Created) => eprintln!("created"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}
