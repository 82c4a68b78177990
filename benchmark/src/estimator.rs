//! The one estimator every timing goes through.
//!
//! Host interference in a shared sandbox is one-sided and bursty: a
//! noisy neighbour only ever makes a repetition *slower*, for
//! milliseconds to tens of seconds at a time, and on a bad quarter of
//! an hour it touches most repetitions.  Means and pooled tail
//! percentiles inherit every burst.  Quartiles of per-round summaries —
//! this benchmark's first estimator — hold while three quarters of the
//! rounds are clean, and on this box that was not always so: eight
//! back-to-back runs of one workload disagreed by 15-37 % (interquartile
//! range over median) on round-median quartiles, by 4-13 % on the
//! **quiet floor** below, computed from the same samples (README.md,
//! "Sizing", has the table).
//!
//! The quiet floor of a series of repetitions of *identical work* is
//! its minimum: the repetition the host left alone.  It is meaningful
//! only because the harness replays the same op sequence every round —
//! repetition `r` of op `i` differs from repetition `r'` by nothing but
//! the host — and it is never taken over *different* ops: a class
//! latency is the **median over the class's ops** of each op's floor.

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics (the "type 7" rule of R and NumPy).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of the samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quietest of several repetitions of identical work.
///
/// # Panics
/// Panics on an empty slice.
pub fn quiet_floor(repetitions: &[f64]) -> f64 {
    assert!(!repetitions.is_empty(), "floor of no repetitions");
    repetitions.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Coefficient of variation (population standard deviation ÷ mean) —
/// the run's own noise reading, printed with every run.
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// 40 ops of 100-139 µs, 30 repetitions each with ±1 % jitter; a
    /// burst-polluted host slows 70 % of all repetitions by 20-80 %.
    /// The mean moves by a third, the quartile of round medians by a
    /// fifth; the median of per-op floors does not move.
    #[test]
    fn the_floor_ignores_bursts_that_move_means_and_quartiles() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let clean: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..40).map(|op| (100.0 + op as f64) * (1.0 + 0.01 * unit())).collect())
            .collect();
        let polluted: Vec<Vec<f64>> = clean
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|&v| if unit() < 0.7 { v * (1.2 + 0.6 * unit()) } else { v })
                    .collect()
            })
            .collect();
        let mean = |rounds: &[Vec<f64>]| rounds.iter().flatten().sum::<f64>() / 1200.0;
        let quartile_of_round_medians = |rounds: &[Vec<f64>]| {
            quantile(&rounds.iter().map(|r| median(r)).collect::<Vec<_>>(), 0.25)
        };
        let median_of_floors = |rounds: &[Vec<f64>]| {
            let floors: Vec<f64> = (0..40)
                .map(|op| quiet_floor(&rounds.iter().map(|r| r[op]).collect::<Vec<_>>()))
                .collect();
            median(&floors)
        };
        assert!(mean(&polluted) / mean(&clean) > 1.3);
        assert!(quartile_of_round_medians(&polluted) / quartile_of_round_medians(&clean) > 1.15);
        let drift = median_of_floors(&polluted) / median_of_floors(&clean);
        assert!((drift - 1.0).abs() < 0.01, "floor drifted {drift}");
        let rates = |rounds: &[Vec<f64>]| {
            rounds.iter().map(|r| 1e6 / r.iter().sum::<f64>()).collect::<Vec<_>>()
        };
        assert!(cv(&rates(&polluted)) > 3.0 * cv(&rates(&clean)));
    }

    #[test]
    fn set_up_floor_drops_the_slow_set_ups() {
        assert_eq!(quiet_floor(&[2.05, 3.4, 2.07]), 2.05);
    }
}
