//! The end-to-end metric table, and the one-line JSON result the
//! `BENCHMARK.json` contract asks for.

use crate::run::{Metric, Outcome};
use std::fmt::Write as _;

/// An end-to-end metric's contract: which way is better and by what
/// share of the parent's median it may worsen.  `BENCHMARK.json`
/// carries the same table (a test keeps the two in step).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Worsening, as a share of the parent's median, that counts as a
    /// regression.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: false, bound }
}

/// Every end-to-end metric; every workload reports every one.
pub const END_TO_END: [EndToEnd; 11] = [
    lower("setup_s", "s", 0.25),
    EndToEnd { name: "ops_per_s", unit: "ops/s", higher_is_better: true, bound: 0.25 },
    lower("lat_ms.full_study", "ms", 0.25),
    lower("lat_ms.box", "ms", 0.25),
    lower("lat_ms.structure", "ms", 0.25),
    lower("lat_ms.band", "ms", 0.25),
    lower("lat_ms.band_in_structure", "ms", 0.25),
    lower("lat_ms.multi_study_band", "ms", 0.25),
    lower("lat_ms.population_average", "ms", 0.25),
    lower("pages_per_query", "pages/op", 0.02),
    lower("space_amp", "ratio", 0.02),
];

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.  Values print with every digit
/// `f64` carries.
pub fn json_line(outcome: &Outcome) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, Metric { name, value, unit }) in outcome.metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

/// Reads the `(name, value)` pairs back out of a [`json_line`].
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    const KEY: &str = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        let name_start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + KEY.len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse::<f64>() {
            out.push((name, value));
        }
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("lat_ms.box", 0.123_456_789_012_345_68, "ms"),
                Metric::new("ops_per_s", 1470.25, "ops/s"),
            ],
        };
        let line = json_line(&outcome).expect("finite");
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.ends_with("\"unit\": \"ops/s\"}}}"));
        let parsed = parse_metrics(&line);
        assert_eq!(
            parsed,
            vec![
                ("lat_ms.box".to_string(), 0.123_456_789_012_345_68),
                ("ops_per_s".to_string(), 1470.25)
            ]
        );
    }

    #[test]
    fn a_non_finite_metric_is_refused() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", f64::NAN, "s")],
        };
        assert!(json_line(&outcome).is_err());
    }
}
