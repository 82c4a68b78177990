//! What `tablegen` prints: each selected experiment's report under its
//! banner, as one string, so the binary and the golden test read the
//! same text.

use crate::{approx, eq1, fig4, rects, run_counts, scaling, table3, table4, tables12};
use qbism::QbismConfig;

/// One experiment: its name on the command line, its banner title, and
/// its report.
pub type Experiment = (&'static str, &'static str, fn(&Params) -> String);

/// The experiments, in the order `all` runs them.
pub const EXPERIMENTS: [Experiment; 9] = [
    ("table12", "Tables 1 & 2", |_| tables12::report()),
    ("fig-runs", "Section 4.2 run-count ratios", |p| {
        run_counts::measure(p.bits, p.pet, p.mri, p.seed).render()
    }),
    ("eq1", "EQ 1 delta-length power law", |p| eq1::measure(p.bits, p.pet, p.mri, p.seed).render()),
    ("fig4", "Figure 4 size vs entropy", |p| fig4::measure(p.bits, p.pet, p.mri, p.seed).render()),
    ("rects", "Faloutsos-Roseman rectangles", |p| {
        rects::measure(p.bits.min(6), 200, p.seed).render()
    }),
    ("table3", "Table 3 single-study queries", |p| table3::report(&p.config(), p.repeats)),
    // Paper band 128-159 over all loaded PET studies.
    ("table4", "Table 4 multi-study intersection", |p| table4::report(&p.config(), 128, 159)),
    ("approx", "Approximate REGIONs ablation", |p| approx::report(p.bits, "ntal", p.seed)),
    ("scaling", "Section 6.4 scaling", |p| scaling::report(&p.config(), "ntal", p.pet.max(2))),
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
    let mut out = String::new();
    for (name, title, report) in EXPERIMENTS {
        if params.experiment == "all" || params.experiment == name {
            out.push_str(&format!(
                "\n================ {title} ================\n{}\n",
                report(params)
            ));
        }
    }
    (!out.is_empty()).then_some(out)
}

/// The experiments' command-line names, space-separated.
pub fn experiment_names() -> String {
    EXPERIMENTS.map(|(name, ..)| name).join(" ")
}
