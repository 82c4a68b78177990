//! The empirical entropy bound of EQ 2.
//!
//! "If `p_l` is the fraction of length-`l` deltas among the total, then the
//! entropy theorem states that we cannot use less than
//! `-Σ_l p_l log p_l` bits per delta."  The paper uses this as the
//! yardstick for Figure 4; the `tablegen fig4` harness does the same.

/// A frequency histogram over `u64` values (delta lengths).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: std::collections::BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from an iterator of observations.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut h = Self::new();
        for v in values {
            h.add(v);
        }
        h
    }

    /// Records one observation of `value`.
    pub fn add(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct observed values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count recorded for `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Iterates `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Shannon entropy of the empirical distribution, in bits per
    /// observation (EQ 2).  Returns 0 for an empty histogram.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        -self
            .counts
            .values()
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Octave-binned power-law fit: aggregates counts into bins
    /// `[2^k, 2^(k+1))`, fits `log(density)` against `log(bin centre)`,
    /// and returns `(a, r)` for `density ~ length^-a`.
    ///
    /// Raw per-length fits are dominated by the noisy tail of singleton
    /// counts; octave binning is the standard estimator for heavy-tailed
    /// count data and is what the EQ 1 experiment uses.  Returns `None`
    /// with fewer than 3 non-empty octaves.
    pub fn power_law_fit_binned(&self) -> Option<(f64, f64)> {
        let mut bins: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for (value, count) in self.iter() {
            if value == 0 {
                continue;
            }
            let octave = 63 - value.leading_zeros();
            *bins.entry(octave).or_insert(0) += count;
        }
        if bins.len() < 3 {
            return None;
        }
        // With enough octaves, trim the ends: octave 0 is the single
        // discrete point l = 1 (the continuum density approximation is
        // worst there and biases the slope steep), and the final octave
        // is usually partially populated.  Keep everything when data is
        // scarce.
        let mut entries: Vec<(u32, u64)> = bins.into_iter().collect();
        if entries.len() >= 5 {
            if entries.first().is_some_and(|&(octave, _)| octave == 0) {
                entries.remove(0);
            }
            entries.pop();
        }
        let pts: Vec<(f64, f64)> = entries
            .iter()
            .map(|&(k, c)| {
                let width = (1u64 << k) as f64;
                let centre = width * 1.5; // midpoint of [2^k, 2^(k+1))
                ((centre).ln(), (c as f64 / width).ln())
            })
            .collect();
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let syy: f64 = pts.iter().map(|p| p.1 * p.1).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let var_y = n * syy - sy * sy;
        let r = if var_y.abs() < 1e-12 {
            0.0
        } else {
            (n * sxy - sx * sy) / (denom.sqrt() * var_y.sqrt())
        };
        Some((-slope, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_entropy_bits(values: &[u64]) -> f64 {
        Histogram::from_values(values.iter().copied()).entropy_bits()
    }

    #[test]
    fn uniform_distribution_entropy() {
        // 8 equally likely values -> exactly 3 bits.
        let values: Vec<u64> = (0..8).flat_map(|v| std::iter::repeat_n(v, 5)).collect();
        let h = Histogram::from_values(values.iter().copied());
        assert!((h.entropy_bits() - 3.0).abs() < 1e-12);
        assert_eq!(h.total(), 40);
        assert_eq!(h.distinct(), 8);
    }

    #[test]
    fn single_value_has_zero_entropy() {
        assert_eq!(empirical_entropy_bits(&[7, 7, 7, 7]), 0.0);
        assert_eq!(empirical_entropy_bits(&[]), 0.0);
    }

    #[test]
    fn biased_coin_entropy() {
        // p = 1/4, 3/4 -> H = 2 - 0.75*log2(3) ≈ 0.8113
        let values = [1u64, 2, 2, 2];
        let h = empirical_entropy_bits(&values);
        assert!((h - 0.8112781244591328).abs() < 1e-12);
    }

    #[test]
    fn entropy_lower_bounds_every_prefix_code() {
        use crate::{EliasGamma, IntCodec};
        // Shannon: average code length >= entropy, for any prefix code and
        // any empirical distribution.
        let values: Vec<u64> =
            (1..=64u64).flat_map(|v| std::iter::repeat_n(v, (65 - v) as usize)).collect();
        let entropy = empirical_entropy_bits(&values);
        let avg = EliasGamma.total_bits(&values).unwrap() as f64 / values.len() as f64;
        assert!(avg >= entropy, "gamma avg {avg} below entropy {entropy}");
    }

    #[test]
    fn binned_fit_recovers_exponent_despite_singleton_tail() {
        // Power-law counts whose tail rounds to sparse singletons: the
        // octave-binned density fit still recovers the exponent.
        let mut h = Histogram::new();
        for l in 1..=512u64 {
            let c = (20_000.0 * (l as f64).powf(-1.6)).round() as u64;
            (0..c).for_each(|_| h.add(l));
        }
        let (a, r) = h.power_law_fit_binned().expect("binned fit");
        assert!((a - 1.6).abs() < 0.15, "binned exponent {a}");
        assert!(r < -0.99, "binned correlation {r}");
    }

    #[test]
    fn binned_fit_needs_three_octaves() {
        let h = Histogram::from_values([1, 1, 2]);
        assert!(h.power_law_fit_binned().is_none(), "only two octaves");
    }

    #[test]
    fn histogram_iteration_is_sorted() {
        let h = Histogram::from_values([5u64, 1, 3, 1, 5, 5]);
        let pairs: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(pairs, vec![(1, 2), (3, 1), (5, 3)]);
        assert_eq!(h.count(5), 3);
        assert_eq!(h.count(99), 0);
    }
}
