//! The Section 2.1 sample session, step by step.
//!
//! "The following scenario illustrates a sample session with such a
//! system in which each step generates a database query" — structure
//! selection, texture mapping, histogram segmentation, cross-study
//! comparison, and the population query over demographics.
//!
//! ```sh
//! cargo run --release --example brain_mapping_session
//! ```

#![allow(clippy::indexing_slicing)]

use qbism::{QbismConfig, QbismSystem};
use qbism_starburst::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = QbismConfig { pet_studies: 4, ..QbismConfig::medium() };
    let mut sys = QbismSystem::install(&config)?;
    let study = sys.pet_study_ids[0];

    // Step 1: "selecting from a standard atlas a set of brain structures
    // for the system to render" — fetch the visual system's structures.
    let rs = sys.server.database().query(
        "select ns.structureName
         from neuralStructure ns, systemStructure ss, neuralSystem sys
         where ns.structureId = ss.structureId and ss.systemId = sys.systemId and
               sys.systemName = 'motor' order by ns.structureName",
    )?;
    let structures: Vec<String> =
        rs.rows().iter().map(|r| r[0].as_str().unwrap_or("?").to_string()).collect();
    println!("step 1 — structures of the motor system: {structures:?}");

    // Step 2: "structures may be texture mapped with a patient's PET
    // study" — extract the study data inside one structure.
    let tex = sys.server.structure_data(study, &structures[1])?;
    println!(
        "step 2 — texture data for {}: {} voxels (mean {:.1})",
        structures[1],
        tex.voxel_count(),
        tex.data.mean().unwrap_or(0.0)
    );

    // Step 3: "the intensity range may be histogram segmented and other
    // regions in this PET study identified in the same range".
    let vol = sys.server.warped_volume(study)?;
    let hist = vol.histogram();
    let hot_band = (0..8)
        .map(|b| {
            let lo = b * 32;
            let count: u64 = hist[lo..lo + 32].iter().sum();
            (lo as u8, count)
        })
        .filter(|&(lo, _)| lo >= 128)
        .max_by_key(|&(_, c)| c)
        .map(|(lo, _)| lo)
        .unwrap_or(128);
    let band = sys.server.band_data(study, hot_band, hot_band + 31)?;
    println!(
        "step 3 — hottest populated band {}-{}: {} voxels in {} runs",
        hot_band,
        hot_band + 31,
        band.voxel_count(),
        band.run_count()
    );

    // Step 4: "an arbitrary region may be compared with the same region
    // from a previous PET study" — same band in study 2, intersected.
    let (consistent, cost) = sys.server.multi_study_band_region(
        &[study, sys.pet_study_ids[1]],
        hot_band,
        hot_band + 31,
    )?;
    println!(
        "step 4 — voxels hot in BOTH studies: {} ({} page reads)",
        consistent.voxel_count(),
        cost.lfm.pages_read
    );

    // Step 5: targeting simulation — which structures does a beam along
    // the x axis through the hot centre intersect?
    if let Some(bb) = consistent.bounding_box3() {
        let (cy, cz) = ((bb.min.y + bb.max.y) / 2, (bb.min.z + bb.max.z) / 2);
        let mut hit = Vec::new();
        for s in sys.atlas.structures() {
            let beam_hits = (0..config.side()).any(|x| s.region.contains_voxel(&[x, cy, cz]));
            if beam_hits {
                hit.push(s.name);
            }
        }
        println!("step 5 — a beam through (*,{cy},{cz}) crosses: {hit:?}");
    } else {
        println!("step 5 — no consistently hot region; beam planning skipped");
    }

    // Step 6: "an individual PET may be compared with data from a
    // comparable subpopulation" — the paper's demographic query:
    // PET studies of 40-year-old females, averaged inside a structure.
    let rs = sys.server.database().query(
        "select rv.studyId from rawVolume rv, patient p
         where rv.patientId = p.patientId and rv.modality = 'PET' and
               p.age = 40 and p.sex = 'F' order by rv.studyId",
    )?;
    let cohort: Vec<i64> = rs
        .rows()
        .iter()
        .filter_map(|r| if let Value::Int(i) = r[0] { Some(i) } else { None })
        .collect();
    println!("step 6 — PET studies of 40-year-old females: {cohort:?}");
    if !cohort.is_empty() {
        let avg = sys.server.population_average(&cohort, "hippocampus-l")?;
        println!(
            "         cohort hippocampus-l mean intensity: {:.1} over {} voxels",
            avg.data.mean().unwrap_or(0.0),
            avg.voxel_count()
        );
    }
    Ok(())
}
