//! What `tablegen` prints: each selected experiment's report under its
//! banner, as one string, so the binary and the golden test read the
//! same text.

use crate::{approx, eq1, fig4, rects, run_counts, scaling, table3, table4, tables12};
use qbism::{PreparedSet, QbismConfig, QbismError, QbismSystem};
use std::cell::RefCell;

/// One experiment: its name on the command line, its banner title, and
/// its report, which installs what it queries through the run's
/// [`Installs`].
pub type Experiment = (&'static str, &'static str, fn(&Params, &Installs) -> String);

/// The installs of one `tablegen` run.  Tables 3 and 4 and the scaling
/// run store every system from one prepared set: acquisition, warp and
/// banding happen once, and each physical design pays only its own
/// transcode, encode and writes.  A config with other prepare inputs
/// (scaling below 2 PET studies) is prepared afresh and replaces it.
#[derive(Default)]
pub struct Installs {
    prepared: RefCell<Option<PreparedSet>>,
}

impl Installs {
    /// The system `config` installs, stored from the run's prepared set.
    pub fn install(&self, config: &QbismConfig) -> QbismSystem {
        let mut prepared = self.prepared.borrow_mut();
        if let Some(set) = prepared.as_ref() {
            match set.store_as(config) {
                Err(QbismError::PreparedMismatch { .. }) => {}
                stored => return stored.expect("store"),
            }
        }
        let set = prepared.insert(QbismSystem::prepare(config).expect("prepare"));
        set.store_as(config).expect("store")
    }
}

/// The experiments, in the order `all` runs them.
pub const EXPERIMENTS: [Experiment; 9] = [
    ("table12", "Tables 1 & 2", |_, _| tables12::report()),
    ("fig-runs", "Section 4.2 run-count ratios", |p, _| {
        run_counts::measure(p.bits, p.pet, p.mri, p.seed).render()
    }),
    ("eq1", "EQ 1 delta-length power law", |p, _| {
        eq1::measure(p.bits, p.pet, p.mri, p.seed).render()
    }),
    ("fig4", "Figure 4 size vs entropy", |p, _| {
        fig4::measure(p.bits, p.pet, p.mri, p.seed).render()
    }),
    ("rects", "Faloutsos-Roseman rectangles", |p, _| {
        rects::measure(p.bits.min(6), 200, p.seed).render()
    }),
    ("table3", "Table 3 single-study queries", |p, i| table3::report(i, &p.config(), p.repeats)),
    // Paper band 128-159 over all loaded PET studies.
    ("table4", "Table 4 multi-study intersection", |p, i| table4::report(i, &p.config(), 128, 159)),
    ("approx", "Approximate REGIONs ablation", |p, _| approx::report(p.bits, "ntal", p.seed)),
    ("scaling", "Section 6.4 scaling", |p, i| {
        scaling::report(i, &p.config(), "ntal", p.pet.max(2))
    }),
];

/// One `tablegen` run: which experiment and the study set behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    /// An entry of [`EXPERIMENTS`], or `all`.
    pub experiment: String,
    /// The grid is `2^bits` per axis.
    pub bits: u32,
    /// PET studies loaded.
    pub pet: usize,
    /// MRI studies loaded.
    pub mri: usize,
    /// Seed of the phantom and of every sampled experiment.
    pub seed: u64,
    /// Warm runs Table 3 averages.
    pub repeats: usize,
}

impl Default for Params {
    /// `all` at the paper's 128³ with 5 PET and 3 MRI studies.
    fn default() -> Self {
        Params { experiment: "all".into(), bits: 7, pet: 5, mri: 3, seed: 0x51B1_5A17, repeats: 3 }
    }
}

impl Params {
    /// The installation Tables 3 and 4 and the scaling run query.
    fn config(&self) -> QbismConfig {
        QbismConfig {
            atlas_bits: self.bits,
            pet_studies: self.pet,
            mri_studies: self.mri,
            seed: self.seed,
            device_capacity: 1u64 << 31,
            ..QbismConfig::paper_scale()
        }
    }
}

/// The report of every experiment `params` selects, each behind its
/// banner line; `None` when `params.experiment` names none.
pub fn render(params: &Params) -> Option<String> {
    let installs = Installs::default();
    let mut out = String::new();
    for (name, title, report) in EXPERIMENTS {
        if params.experiment == "all" || params.experiment == name {
            out.push_str(&format!(
                "\n================ {title} ================\n{}\n",
                report(params, &installs)
            ));
        }
    }
    (!out.is_empty()).then_some(out)
}

/// The experiments' command-line names, space-separated.
pub fn experiment_names() -> String {
    EXPERIMENTS.map(|(name, ..)| name).join(" ")
}
