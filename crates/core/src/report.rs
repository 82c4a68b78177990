//! The full-system measured pipeline — Table 3's row generator.
//!
//! For one query this runs every stage of Figure 7 and accounts it the
//! way the paper does: database (I/Os + time), network (messages +
//! time), DX (ImportVolume + rendering), plus the "other" column (the
//! atlas catalog query and SQL compilation).  Native times are measured
//! on this machine; simulated times replay the exact counts through the
//! calibrated 1994 models, so the *shape* of the paper's table
//! reproduces on modern hardware.

use crate::server::{host_now, QueryAnswer};
use crate::{QbismSystem, Result};
use qbism_render::{import_data_region, Camera, DxTimeModel, Rasterizer};

/// A single-study query specification (the Table 3 rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// Q1: the entire study.
    FullStudy,
    /// Q2: a rectangular solid.
    Box {
        /// Inclusive minimum corner.
        min: [u32; 3],
        /// Inclusive maximum corner.
        max: [u32; 3],
    },
    /// Q3/Q4: a named anatomic structure.
    Structure(String),
    /// Q5: an intensity band.
    Band {
        /// Band low end.
        lo: u8,
        /// Band high end.
        hi: u8,
    },
    /// Q6: band restricted to a structure.
    BandInStructure {
        /// Band low end.
        lo: u8,
        /// Band high end.
        hi: u8,
        /// Structure name.
        structure: String,
    },
}

impl QuerySpec {
    /// Short label used in printed tables.
    pub fn label(&self) -> String {
        match self {
            QuerySpec::FullStudy => "entire study".into(),
            QuerySpec::Box { min, max } => {
                format!("box ({},{},{})-({},{},{})", min[0], min[1], min[2], max[0], max[1], max[2])
            }
            QuerySpec::Structure(s) => s.clone(),
            QuerySpec::Band { lo, hi } => format!("band {lo}-{hi}"),
            QuerySpec::BandInStructure { lo, hi, structure } => {
                format!("band {lo}-{hi} in {structure}")
            }
        }
    }
}

/// One measured Table 3 row.
#[derive(Debug, Clone)]
pub struct FullQueryReport {
    /// Query label.
    pub label: String,
    /// Runs in the answer REGION.
    pub h_runs: usize,
    /// Voxels in the answer.
    pub voxels: u64,
    /// LFM 4 KiB page reads.
    pub lfm_ios: u64,
    /// Native database seconds on this machine.
    pub db_native_seconds: f64,
    /// Simulated 1994 database real seconds.
    pub db_sim_seconds: f64,
    /// RPC messages.
    pub messages: u64,
    /// Simulated network seconds.
    pub net_sim_seconds: f64,
    /// Native ImportVolume seconds on this machine.
    pub import_native_seconds: f64,
    /// Simulated ImportVolume seconds.
    pub import_sim_seconds: f64,
    /// Native rendering seconds on this machine.
    pub render_native_seconds: f64,
    /// Simulated "rendering +" seconds.
    pub render_sim_seconds: f64,
    /// Simulated "other" seconds (atlas query + SQL compilation).
    pub other_sim_seconds: f64,
    /// Simulated total execution seconds (sum of the bold components).
    pub total_sim_seconds: f64,
}

/// The fixed "other" time: the paper attributes ~3-4.5 s per query to
/// the atlas catalog query and SQL compilation on the 1994 machine.
const OTHER_SIM_SECONDS: f64 = 3.7;

/// Pixel size of the measurement render (native cost only; the
/// simulated render time comes from the calibrated model).
const FRAME: usize = 256;

/// Executes one query through the entire pipeline.
pub fn run_full_query(
    sys: &mut QbismSystem,
    study_id: i64,
    spec: &QuerySpec,
) -> Result<FullQueryReport> {
    // "Other": the atlas/patient catalog query that precedes every
    // spatial query (its native cost is folded into the constant).
    let _info = sys.server.atlas_info(study_id)?;
    let answer: QueryAnswer = match spec {
        QuerySpec::FullStudy => sys.server.full_study(study_id)?,
        QuerySpec::Box { min, max } => sys.server.box_data(study_id, *min, *max)?,
        QuerySpec::Structure(name) => sys.server.structure_data(study_id, name)?,
        QuerySpec::Band { lo, hi } => sys.server.band_data(study_id, *lo, *hi)?,
        QuerySpec::BandInStructure { lo, hi, structure } => {
            sys.server.band_in_structure(study_id, *lo, *hi, structure)?
        }
    };
    // DX: ImportVolume.
    let t0 = host_now();
    let field = import_data_region(&answer.data);
    let import_native = t0.elapsed().as_secs_f64();
    // DX: render the intensity cloud.
    let t1 = host_now();
    let camera = Camera::default_for_grid(sys.server.config().side());
    let mut raster = Rasterizer::new(FRAME, FRAME, camera);
    raster.draw_field(&field);
    let _fb = raster.finish();
    let render_native = t1.elapsed().as_secs_f64();

    let dx = DxTimeModel::RS6000_1994;
    let voxels = answer.voxel_count();
    let cost = answer.cost;
    let import_sim = dx.import_seconds(voxels);
    let render_sim = dx.render_seconds(voxels);
    let total =
        cost.sim_db_seconds + cost.sim_net_seconds + import_sim + render_sim + OTHER_SIM_SECONDS;
    Ok(FullQueryReport {
        label: spec.label(),
        h_runs: answer.run_count(),
        voxels,
        lfm_ios: cost.lfm.pages_read,
        db_native_seconds: cost.native_db_seconds,
        db_sim_seconds: cost.sim_db_seconds,
        messages: cost.messages,
        net_sim_seconds: cost.sim_net_seconds,
        import_native_seconds: import_native,
        import_sim_seconds: import_sim,
        render_native_seconds: render_native,
        render_sim_seconds: render_sim,
        other_sim_seconds: OTHER_SIM_SECONDS,
        total_sim_seconds: total,
    })
}

impl FullQueryReport {
    /// Formats the row in the paper's Table 3 column order.
    pub fn table3_row(&self) -> String {
        format!(
            "{:<28} {:>8} {:>9} {:>6} {:>8.2} {:>7} {:>8.1} {:>8.2} {:>8.1} {:>7.1} {:>7.1}",
            self.label,
            self.h_runs,
            self.voxels,
            self.lfm_ios,
            self.db_sim_seconds,
            self.messages,
            self.net_sim_seconds,
            self.import_sim_seconds,
            self.render_sim_seconds,
            self.other_sim_seconds,
            self.total_sim_seconds,
        )
    }

    /// The table header matching [`FullQueryReport::table3_row`].
    pub fn table3_header() -> String {
        format!(
            "{:<28} {:>8} {:>9} {:>6} {:>8} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7}",
            "query",
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
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QbismConfig;

    fn system() -> QbismSystem {
        QbismSystem::install(&QbismConfig::small_test()).unwrap()
    }

    #[test]
    fn full_pipeline_produces_consistent_report() {
        let mut sys = system();
        let r = run_full_query(&mut sys, 1, &QuerySpec::FullStudy).unwrap();
        assert_eq!(r.voxels, 4096);
        assert_eq!(r.h_runs, 1);
        assert!(r.lfm_ios >= 1);
        assert!(r.messages > 2);
        let parts = r.db_sim_seconds
            + r.net_sim_seconds
            + r.import_sim_seconds
            + r.render_sim_seconds
            + r.other_sim_seconds;
        assert!((r.total_sim_seconds - parts).abs() < 1e-12);
    }

    #[test]
    fn early_filtering_shows_in_totals() {
        // Table 3's conclusion: without spatial filtering every response
        // would look like Q1; with it, selective queries are much faster.
        let mut sys = system();
        let full = run_full_query(&mut sys, 1, &QuerySpec::FullStudy).unwrap();
        let sel = run_full_query(&mut sys, 1, &QuerySpec::Structure("thalamus".into())).unwrap();
        assert!(sel.total_sim_seconds < full.total_sim_seconds);
        assert!(sel.voxels < full.voxels);
        assert!(sel.messages < full.messages);
    }

    #[test]
    fn mixed_query_filters_finest() {
        let mut sys = system();
        let band = run_full_query(&mut sys, 1, &QuerySpec::Band { lo: 64, hi: 95 }).unwrap();
        let mixed = run_full_query(
            &mut sys,
            1,
            &QuerySpec::BandInStructure { lo: 64, hi: 95, structure: "ntal1".into() },
        )
        .unwrap();
        assert!(mixed.voxels <= band.voxels);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(QuerySpec::FullStudy.label(), "entire study");
        assert_eq!(
            QuerySpec::Box { min: [30; 3], max: [100; 3] }.label(),
            "box (30,30,30)-(100,100,100)"
        );
        assert_eq!(QuerySpec::Band { lo: 224, hi: 255 }.label(), "band 224-255");
        let header = FullQueryReport::table3_header();
        assert!(header.contains("h-runs") && header.contains("I/Os"));
    }
}
