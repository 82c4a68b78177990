//! Representation statistics: the measured quantities of Section 4.
//!
//! For each REGION the paper reports (a) how many pieces each
//! representation needs — h-runs, z-runs, oblong octants, octants —
//! finding the constant ratios `1 : 1.27 : 1.61 : 2.42`, and (b) how many
//! bytes each encoding occupies relative to the EQ 2 entropy bound —
//! `1 : 1.17 : 9.50 : 10.4 : 17.8` for entropy : elias : naive :
//! oblong-octant : octant (Figure 4).  This module computes both per
//! region; `qbism-bench` aggregates them over the phantom population.

use crate::encode::{RegionCodec, RegionEncodeError};
use crate::octant::OctantKind;
use crate::region::Region;
use qbism_coding::Histogram;
use qbism_sfc::CurveKind;

/// Piece counts of one voxel set under every representation compared in
/// Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepresentationCounts {
    /// Runs on the Hilbert curve.
    pub h_runs: usize,
    /// Runs on the Z curve.
    pub z_runs: usize,
    /// Oblong octants (Z order, as in the paper).
    pub oblong_octants: usize,
    /// Regular cubic octants (Z order).
    pub octants: usize,
}

impl RepresentationCounts {
    /// Measures all four counts for the voxel set of `region`
    /// (whatever curve it currently lives on).
    pub fn measure(region: &Region) -> Self {
        let h = region.to_curve(CurveKind::Hilbert);
        let z = region.to_curve(CurveKind::Morton);
        RepresentationCounts {
            h_runs: h.run_count(),
            z_runs: z.run_count(),
            oblong_octants: z.octant_count(OctantKind::Oblong),
            octants: z.octant_count(OctantKind::Cubic),
        }
    }

    /// The three ratios relative to h-runs, in the paper's order
    /// `(z-runs, oblong octants, octants)`; `None` for an empty region.
    pub fn ratios(&self) -> Option<(f64, f64, f64)> {
        if self.h_runs == 0 {
            return None;
        }
        let h = self.h_runs as f64;
        Some((self.z_runs as f64 / h, self.oblong_octants as f64 / h, self.octants as f64 / h))
    }
}

/// Delta-length statistics of one region: the EQ 1 / EQ 2 measurements.
#[derive(Debug, Clone)]
pub struct DeltaStats {
    /// Histogram of run and interior-gap lengths.
    pub histogram: Histogram,
    /// Bits per delta no prefix code can beat (EQ 2).
    pub entropy_bits_per_delta: f64,
    /// Number of deltas.
    pub delta_count: usize,
}

impl DeltaStats {
    /// Measures the delta distribution of `region` on its current curve.
    pub fn measure(region: &Region) -> Self {
        let deltas = region.delta_lengths();
        let histogram = Histogram::from_values(deltas.iter().copied());
        DeltaStats {
            entropy_bits_per_delta: histogram.entropy_bits(),
            delta_count: deltas.len(),
            histogram,
        }
    }

    /// Entropy lower bound for the whole region, in bytes — the x axis of
    /// Figure 4.
    pub fn entropy_bound_bytes(&self) -> f64 {
        self.entropy_bits_per_delta * self.delta_count as f64 / 8.0
    }
}

impl Region {
    /// Payload bytes of this region under each codec, in
    /// [`RegionCodec::ALL`] order — one Figure 4 sample.
    pub fn encoding_sizes(&self) -> Result<[usize; 4], RegionEncodeError> {
        let mut out = [0usize; 4];
        for (slot, codec) in out.iter_mut().zip(RegionCodec::ALL) {
            *slot = codec.payload_len(self)?;
        }
        Ok(out)
    }
}

/// Least-squares slope-through-origin fit `y = k x` plus correlation, for
/// the paper's scatter-plot summaries ("the scatter-plots were well
/// approximated by lines").  Returns `None` for fewer than 2 points or a
/// degenerate x vector.
pub fn linear_fit_through_origin(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    if sxx < 1e-12 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = sxy / sxx;
    // Pearson correlation of the raw points.
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
    let sxx_c: f64 = points.iter().map(|p| p.0 * p.0).sum::<f64>() - sx * sx / n;
    let syy_c: f64 = points.iter().map(|p| p.1 * p.1).sum::<f64>() - sy * sy / n;
    let sxy_c: f64 = points.iter().map(|p| p.0 * p.1).sum::<f64>() - sx * sy / n;
    let r = if sxx_c <= 1e-12 || syy_c <= 1e-12 { 1.0 } else { sxy_c / (sxx_c * syy_c).sqrt() };
    Some((slope, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridGeometry;
    use qbism_geometry::{Ellipsoid, Vec3};

    fn ball_region() -> Region {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 5);
        let e = Ellipsoid::new(Vec3::splat(16.0), Vec3::new(10.0, 7.0, 5.0));
        Region::rasterize_solid(g, &e)
    }

    #[test]
    fn counts_obey_paper_ordering() {
        // h-runs <= z-runs <= oblong octants <= octants, the direction of
        // the 1 : 1.27 : 1.61 : 2.42 ratios.
        let c = RepresentationCounts::measure(&ball_region());
        assert!(c.h_runs > 0);
        assert!(c.h_runs <= c.z_runs, "{c:?}");
        assert!(c.z_runs <= c.oblong_octants, "{c:?}");
        assert!(c.oblong_octants <= c.octants, "{c:?}");
        let (rz, rob, roc) = c.ratios().unwrap();
        assert!(rz >= 1.0 && rob >= rz && roc >= rob);
    }

    #[test]
    fn empty_region_has_no_ratios() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 3);
        let c = RepresentationCounts::measure(&Region::empty(g));
        assert_eq!(c.h_runs, 0);
        assert!(c.ratios().is_none());
    }

    #[test]
    fn delta_stats_of_smooth_region() {
        let r = ball_region();
        let s = DeltaStats::measure(&r);
        assert_eq!(s.delta_count, 2 * r.run_count() - 1);
        assert!(s.entropy_bits_per_delta > 0.0);
        assert!(s.entropy_bound_bytes() > 0.0);
    }

    #[test]
    fn elias_beats_naive_and_respects_entropy_on_anatomy() {
        // The Figure 4 ordering on a realistic compact structure:
        // entropy <= elias < naive, and octant representations cost more
        // than naive per Section 4.2's ratio list.
        let r = ball_region();
        let [elias, naive, oblong, octant] = r.encoding_sizes().unwrap();
        let bound = DeltaStats::measure(&r).entropy_bound_bytes();
        assert!(elias as f64 >= bound * 0.9, "elias {elias} below entropy bound {bound}");
        assert!(elias < naive, "elias {elias} vs naive {naive}");
        assert!(naive <= oblong * 2, "naive within 2x of oblong (paper: ~equal)");
        assert!(octant >= oblong, "octant {octant} vs oblong {oblong}");
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 2.5 * i as f64)).collect();
        let (k, r) = linear_fit_through_origin(&pts).unwrap();
        assert!((k - 2.5).abs() < 1e-12);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        assert!(linear_fit_through_origin(&[]).is_none());
        assert!(linear_fit_through_origin(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit_through_origin(&[(0.0, 0.0), (0.0, 1.0)]).is_none());
    }

    #[test]
    fn noisy_line_correlation_below_one() {
        let pts: Vec<(f64, f64)> = (1..40)
            .map(|i| {
                let x = i as f64;
                (x, 3.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            })
            .collect();
        let (k, r) = linear_fit_through_origin(&pts).unwrap();
        assert!((k - 3.0).abs() < 0.2);
        assert!(r < 1.0 && r > 0.9);
    }
}
