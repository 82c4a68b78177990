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

use qbism_bench::tablegen::{experiment_names, render, Params};

fn parse_args() -> Result<Params, String> {
    let mut args = Params::default();
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
                let names = experiment_names();
                return Err(format!(
                    "usage: tablegen [all {names}] [--bits N] [--pet N] [--mri N] [--seed N] [--repeats N]"
                ));
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

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match render(&args) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("unknown experiment '{}'; try: all {}", args.experiment, experiment_names());
            std::process::exit(2);
        }
    }
}
