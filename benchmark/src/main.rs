//! Command line of the benchmark.
//!
//! ```text
//! qbism-benchmark --workload W --seed N --seconds S --trace 0|1
//!     the BENCHMARK.json contract: one run, result as one JSON line
//! qbism-benchmark run (--all | --workload W) [--seed N] [--seconds S]
//!     untraced then traced; prints every metric as `workload/name value unit`
//! qbism-benchmark aa [--runs N] [--seed N] [--seconds S] [--workload W]
//!     two interleaved sets of N runs on this build; medians, gap, bound
//! ```

use qbism_benchmark::estimator::median;
use qbism_benchmark::report::{json_line, parse_metrics, END_TO_END};
use qbism_benchmark::run::{run_untraced, Outcome};
use qbism_benchmark::traced::run_traced;
use qbism_benchmark::workload::{Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The seed used when none is given (A/A and acceptance also run 7).
const DEFAULT_SEED: u64 = 1994;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 13.0;

struct Args {
    mode: String,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: "once".into(),
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 5,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut words = std::env::args().skip(1).peekable();
    if let Some(first) = words.peek() {
        if !first.starts_with("--") {
            args.mode = words.next().expect("peeked");
        }
    }
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--runs" => args.runs = number(value()?)? as usize,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn specs(args: &Args) -> Result<Vec<Spec>, String> {
    match (&args.workload, args.all) {
        (Some(name), _) => Spec::by_name(name).map(|s| vec![s]).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        }),
        (None, true) => Ok(WORKLOADS.to_vec()),
        (None, false) => Err("give --workload <name> or --all".into()),
    }
}

fn run_one(spec: Spec, args: &Args, trace: bool) -> Result<Outcome, String> {
    if trace {
        run_traced(spec, args.seed, &args.out_dir)
    } else {
        run_untraced(spec, args.seed, args.seconds)
    }
}

/// One run, one JSON line — what the driver calls.
fn once(args: &Args) -> Result<bool, String> {
    let spec = specs(args)?.pop().expect("one workload");
    let outcome = run_one(spec, args, args.trace)?;
    println!("{}", json_line(&outcome)?);
    Ok(outcome.correct)
}

/// Untraced then traced, every metric on its own line.
fn run(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for spec in specs(args)? {
        for trace in [false, true] {
            let outcome = run_one(spec, args, trace)?;
            for m in &outcome.metrics {
                println!("{}/{} {} {}", spec.name, m.name, m.value, m.unit);
            }
            println!(
                "{}/fail_ratio {} ratio",
                spec.name,
                outcome.failed as f64 / outcome.attempted as f64
            );
            correct &= outcome.correct;
        }
    }
    Ok(correct)
}

/// A/A: two interleaved sets of `--runs` untraced runs per workload on
/// this one build, each run a fresh process.
fn aa(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut within = true;
    println!(
        "{:<20} {:<26} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "gap %", "bound %"
    );
    for spec in specs(args)? {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * args.runs.max(1) {
            let output = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", "0"])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!("{} run {i} exited with {}", spec.name, output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            sets[i % 2].push(parse_metrics(stdout.lines().last().unwrap_or("")));
        }
        for metric in END_TO_END {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter().flatten().filter(|(n, _)| n == metric.name).map(|&(_, v)| v).collect()
            };
            let (a, b) = (median(&values(&sets[0])), median(&values(&sets[1])));
            let gap = (a - b).abs() / a.min(b);
            // Fix the bench, do not widen the bound: a gap over half
            // the bound on the same build is the benchmark's own noise.
            let ok = gap <= metric.bound / 2.0;
            within &= ok;
            println!(
                "{:<20} {:<26} {:>12.5} {:>12.5} {:>8.2} {:>7.1}  {}",
                spec.name,
                metric.name,
                a,
                b,
                gap * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "NOISY (> half the bound)" }
            );
        }
    }
    Ok(within)
}

/// The glibc allocator setting every run happens under: a 64 MiB top
/// pad.  Answer buffers (256 KiB at 64³, 2 MiB at 128³) sit exactly
/// where the default allocator flips between carving them from the heap
/// and mapping, faulting in and unmapping them on every query; which
/// way a process falls depends on the order of its first big frees.  The
/// same build measured `lat_ms.full_study` on `clients-2-64` at 0.06 ms
/// in some processes and 0.20-0.26 ms in others; padded, every process
/// takes the first path (README.md, "Sizing").
const ALLOCATOR_ENV: (&str, &str) = ("MALLOC_TOP_PAD_", "67108864");

/// Runs this same command line again with [`ALLOCATOR_ENV`] set, waits
/// for it and passes its exit code on.  (The variable is read when the
/// allocator starts, before `main`; setting it in-process is too late.)
fn rerun_with_allocator_env() -> ExitCode {
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(ALLOCATOR_ENV.0, ALLOCATOR_ENV.1)
            .status()
    });
    match child {
        Ok(status) => ExitCode::from(status.code().map_or(1, |c| c.clamp(0, 255) as u8)),
        Err(e) => {
            eprintln!("benchmark: cannot re-run under {}: {e}", ALLOCATOR_ENV.0);
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    if std::env::var_os(ALLOCATOR_ENV.0).is_none() {
        return rerun_with_allocator_env();
    }
    let result = parse_args().and_then(|args| match args.mode.as_str() {
        "once" => once(&args),
        "run" => run(&args),
        "aa" => aa(&args),
        other => Err(format!("unknown mode {other}; one of run, aa")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed (see above)");
            ExitCode::from(2)
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
