//! `tablegen` — regenerates every table and figure of the QBISM paper.
//!
//! ```text
//! tablegen [EXPERIMENT] [--bits N] [--pet N] [--mri N] [--seed N] [--repeats N]
//!
//! EXPERIMENT: all | table12 | fig-runs | eq1 | fig4 | table3 | table4 |
//!             scaling | rects | approx    (default: all)
//! --bits N    grid is 2^N per axis    (default: 7, the paper's 128³;
//!                                      use 5 for quick debug runs)
//! ```
//!
//! Run in release: `cargo run -p qbism-bench --release --bin tablegen`.

use qbism::QbismConfig;
use qbism_bench::{approx, eq1, fig4, rects, run_counts, scaling, table3, table4, tables12};

struct Args {
    experiment: String,
    bits: u32,
    pet: usize,
    mri: usize,
    seed: u64,
    repeats: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { experiment: "all".into(), bits: 7, pet: 5, mri: 3, seed: 0x51B1_5A17, repeats: 3 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut flag = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--bits" => args.bits = flag("--bits")?.parse().map_err(|e| format!("--bits: {e}"))?,
            "--pet" => args.pet = flag("--pet")?.parse().map_err(|e| format!("--pet: {e}"))?,
            "--mri" => args.mri = flag("--mri")?.parse().map_err(|e| format!("--mri: {e}"))?,
            "--seed" => args.seed = flag("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repeats" => {
                args.repeats = flag("--repeats")?.parse().map_err(|e| format!("--repeats: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: tablegen [all|table12|fig-runs|eq1|fig4|table3|table4|scaling|rects|approx] \
                            [--bits N] [--pet N] [--mri N] [--seed N] [--repeats N]"
                    .into())
            }
            exp if !exp.starts_with('-') => args.experiment = exp.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(4..=8).contains(&args.bits) {
        return Err(format!("--bits {} out of supported range 4..=8", args.bits));
    }
    Ok(args)
}

fn config_for(a: &Args) -> QbismConfig {
    QbismConfig {
        atlas_bits: a.bits,
        pet_studies: a.pet,
        mri_studies: a.mri,
        seed: a.seed,
        device_capacity: 1u64 << 31,
        ..QbismConfig::paper_scale()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let run = |name: &str| args.experiment == "all" || args.experiment == name;
    let mut ran = false;
    let banner = |title: &str| println!("\n================ {title} ================");
    if run("table12") {
        ran = true;
        banner("Tables 1 & 2");
        println!("{}", tables12::report());
    }
    if run("fig-runs") {
        ran = true;
        banner("Section 4.2 run-count ratios");
        println!("{}", run_counts::measure(args.bits, args.pet, args.mri, args.seed).render());
    }
    if run("eq1") {
        ran = true;
        banner("EQ 1 delta-length power law");
        println!("{}", eq1::measure(args.bits, args.pet, args.mri, args.seed).render());
    }
    if run("fig4") {
        ran = true;
        banner("Figure 4 size vs entropy");
        println!("{}", fig4::measure(args.bits, args.pet, args.mri, args.seed).render());
    }
    if run("rects") {
        ran = true;
        banner("Faloutsos-Roseman rectangles");
        println!("{}", rects::measure(args.bits.min(6), 200, args.seed).render());
    }
    if run("table3") {
        ran = true;
        banner("Table 3 single-study queries");
        println!("{}", table3::report(&config_for(&args), args.repeats));
    }
    if run("table4") {
        ran = true;
        banner("Table 4 multi-study intersection");
        // Paper band 128-159 over all loaded PET studies.
        println!("{}", table4::report(&config_for(&args), 128, 159));
    }
    if run("approx") {
        ran = true;
        banner("Approximate REGIONs ablation");
        println!("{}", approx::report(args.bits, "ntal", args.seed));
    }
    if run("scaling") {
        ran = true;
        banner("Section 6.4 scaling");
        let cfg = config_for(&args);
        println!("{}", scaling::report(&cfg, "ntal", args.pet.max(2)));
    }
    if !ran {
        eprintln!(
            "unknown experiment '{}'; try: all table12 fig-runs eq1 fig4 table3 table4 scaling rects approx",
            args.experiment
        );
        std::process::exit(2);
    }
}
