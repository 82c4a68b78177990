//! The `qbism-analyze` gate binary.
//!
//! ```text
//! qbism-analyze [--root DIR] [--allowlist FILE] [--json FILE]
//! ```
//!
//! Scans the workspace, checks every rule in the table, applies the
//! allowlist (default `<root>/analyze-allowlist.txt`, if present),
//! prints the per-rule summary and human diagnostics with call traces,
//! optionally writes the JSON report, and exits non-zero when any
//! unallowlisted finding remains — the CI analyze-gate contract.

use qbism_analyze::report::Finding;
use qbism_analyze::rules::{Reach, RULES};
use qbism_analyze::{allowlist, analyze_root, AnalysisConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut allow = None;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--root" => root = PathBuf::from(value("--root")?),
            "--allowlist" => allow = Some(PathBuf::from(value("--allowlist")?)),
            "--json" => json = Some(PathBuf::from(value("--json")?)),
            "--help" | "-h" => {
                return Err("usage: qbism-analyze [--root DIR] [--allowlist FILE] [--json FILE]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { root, allowlist: allow, json })
}

#[expect(clippy::disallowed_methods, reason = "the scan timer reports the analyzer's own run time")]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let mut report = match analyze_root(&args.root, &AnalysisConfig::workspace()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qbism-analyze: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.stats.scan_ms = started.elapsed().as_millis();

    // Allowlist: explicit path must exist; the default is optional.
    let allow_path =
        args.allowlist.clone().unwrap_or_else(|| args.root.join("analyze-allowlist.txt"));
    let mut unused = Vec::new();
    match std::fs::read_to_string(&allow_path) {
        Ok(text) => match allowlist::parse(&text) {
            Ok(entries) => {
                unused = allowlist::apply(&mut report, &entries);
                report.finalize();
            }
            Err(msg) => {
                eprintln!("qbism-analyze: {}: {msg}", allow_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(e) if args.allowlist.is_some() => {
            eprintln!("qbism-analyze: {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
        Err(_) => {}
    }

    if let Some(json_path) = &args.json {
        if let Err(e) = std::fs::write(json_path, report.to_json()) {
            eprintln!("qbism-analyze: writing {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
    }

    let s = &report.stats;
    println!(
        "qbism-analyze: {} files, {} functions, {} call edges ({}/{} call sites resolved), {} ms",
        s.files, s.functions, s.edges, s.resolved_call_sites, s.call_sites, s.scan_ms
    );
    for (rule, (_, n)) in RULES.iter().zip(&s.per_rule) {
        print!("  {:<20} {:<13} {n} finding(s)", rule.name, rule.reach.label());
        if rule.reach == Reach::Through {
            let listed = report.allowlisted.iter().map(|(f, _)| f);
            let here = |f: &&Finding| f.rule == rule.name && f.path.is_empty();
            print!(", {} at zero hops", report.findings.iter().chain(listed).filter(here).count());
        }
        println!();
    }
    if !report.allowlisted.is_empty() {
        println!(
            "  allowlisted: {} finding(s) suppressed with justification",
            report.allowlisted.len()
        );
    }
    for entry in &unused {
        println!(
            "  warning: allowlist entry at line {} matched nothing: `{}`",
            entry.line, entry.pattern
        );
    }

    if report.findings.is_empty() {
        println!("qbism-analyze: clean");
        return ExitCode::SUCCESS;
    }
    println!();
    for finding in &report.findings {
        print!("{}", finding.render());
        println!();
    }
    println!(
        "qbism-analyze: {} unallowlisted finding(s) — fix them or add a justified allowlist entry",
        report.findings.len()
    );
    ExitCode::FAILURE
}
