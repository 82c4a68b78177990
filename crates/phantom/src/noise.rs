//! Deterministic lattice value noise.
//!
//! Tissue texture and measurement noise must be reproducible across runs
//! (the paper averages repeated query executions; our tables must
//! regenerate byte-identically), so noise comes from a hash of the
//! integer lattice point and a seed, interpolated trilinearly.

use qbism_geometry::{floor, Vec3};

/// Trilinearly interpolated hash noise over 3-space, in `[0, 1)`.
#[derive(Debug, Clone, Copy)]
pub struct ValueNoise {
    seed: u64,
    /// Feature size: lattice spacing in the input units (millimetres).
    scale: f64,
}

impl ValueNoise {
    /// Noise with the given seed and feature size.
    ///
    /// # Panics
    /// Panics unless `scale` is positive.
    pub fn new(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0, "noise scale must be positive, got {scale}");
        ValueNoise { seed, scale }
    }

    /// Hash of one lattice point, uniform in `[0, 1)`.
    #[inline]
    fn lattice(&self, x: i64, y: i64, z: i64) -> f64 {
        // SplitMix64-style avalanche over the packed coordinates.
        let mut h = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((x as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((y as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add((z as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Sampled noise at `p`, in `[0, 1)`: a row of one.
    pub fn sample(&self, p: Vec3) -> f64 {
        self.sample_in(p, &mut Corners::default())
    }

    /// Two-octave fractal variant for richer tissue texture, in `[0, 1)`.
    pub fn sample_fractal(&self, p: Vec3) -> f64 {
        let (coarse, fine) = self.octaves();
        (coarse.sample(p) * 2.0 / 3.0) + (fine.sample(p) / 3.0)
    }

    /// [`ValueNoise::sample`], reusing `corners`' hashes while `p` stays
    /// in their lattice cell.
    #[inline]
    pub(crate) fn sample_in(&self, p: Vec3, corners: &mut Corners) -> f64 {
        let q = p / self.scale;
        let (x0, fx) = cell(q.x);
        let (y0, fy) = cell(q.y);
        let (z0, fz) = cell(q.z);
        if corners.cell != Some((x0, y0, z0)) {
            corners.hash = std::array::from_fn(|i| {
                let step = |axis: usize| (i >> (2 - axis) & 1) as i64;
                self.lattice(x0 + step(0), y0 + step(1), z0 + step(2))
            });
            corners.cell = Some((x0, y0, z0));
        }
        // Smoothstep the fractions for C1 continuity.
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let sz = fz * fz * (3.0 - 2.0 * fz);
        let (wx, wy, wz) = ([1.0 - sx, sx], [1.0 - sy, sy], [1.0 - sz, sz]);
        let mut acc = 0.0;
        for (i, &hash) in corners.hash.iter().enumerate() {
            acc += wx[i >> 2] * wy[i >> 1 & 1] * wz[i & 1] * hash;
        }
        acc
    }

    /// The fractal's two octaves: `sample_fractal(p)` is
    /// `(coarse.sample(p) * 2.0 / 3.0) + (fine.sample(p) / 3.0)`.
    pub(crate) fn octaves(&self) -> (ValueNoise, ValueNoise) {
        (*self, ValueNoise { seed: self.seed ^ 0xabcd_ef01, scale: self.scale * 0.5 })
    }
}

/// One octave's last lattice cell and its eight corner hashes, in
/// `(dx, dy, dz)` order.  A scanner row steps about 1 mm, against cells
/// of 2.7 mm and up, so consecutive points mostly share a cell, and the
/// hashes are most of an octave's cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Corners {
    cell: Option<(i64, i64, i64)>,
    hash: [f64; 8],
}

/// The lattice cell holding `q` on one axis and `q`'s fraction in it.
#[inline]
fn cell(q: f64) -> (i64, f64) {
    let (cell, whole) = floor(q);
    (cell, q - whole)
}

/// The per-point sampler the cell-reusing one replaced, kept as the
/// tests' oracle: `f64::floor`, eight fresh hashes a point.
#[cfg(test)]
impl ValueNoise {
    pub(crate) fn sample_reference(&self, p: Vec3) -> f64 {
        let q = p / self.scale;
        let (x0, fx) = (q.x.floor() as i64, q.x - q.x.floor());
        let (y0, fy) = (q.y.floor() as i64, q.y - q.y.floor());
        let (z0, fz) = (q.z.floor() as i64, q.z - q.z.floor());
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let sz = fz * fz * (3.0 - 2.0 * fz);
        let mut acc = 0.0;
        for (dx, wx) in [(0, 1.0 - sx), (1, sx)] {
            for (dy, wy) in [(0, 1.0 - sy), (1, sy)] {
                for (dz, wz) in [(0, 1.0 - sz), (1, sz)] {
                    acc += wx * wy * wz * self.lattice(x0 + dx, y0 + dy, z0 + dz);
                }
            }
        }
        acc
    }

    pub(crate) fn fractal_reference(&self, p: Vec3) -> f64 {
        let fine = ValueNoise { seed: self.seed ^ 0xabcd_ef01, scale: self.scale * 0.5 };
        (self.sample_reference(p) * 2.0 / 3.0) + (fine.sample_reference(p) / 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cell_reuse_is_bit_equal_to_the_per_point_oracle(
            seed in any::<u64>(),
            scale in 0.5f64..14.0,
            origin in proptest::array::uniform3(-40.0f64..80.0),
            step in proptest::array::uniform3(-1.5f64..1.5),
            len in 1usize..60,
        ) {
            let n = ValueNoise::new(seed, scale);
            let mut corners = Corners::default();
            for i in 0..len {
                let p = Vec3::from(origin) + Vec3::from(step) * i as f64;
                prop_assert_eq!(n.sample_in(p, &mut corners).to_bits(), n.sample_reference(p).to_bits());
                prop_assert_eq!(n.sample_fractal(p).to_bits(), n.fractal_reference(p).to_bits());
                prop_assert_eq!(n.sample(p).to_bits(), n.sample_reference(p).to_bits());
            }
        }
    }

    #[test]
    fn lattice_edges_and_signed_zeros_match_the_oracle() {
        // Points on, just below and just above lattice planes, where the
        // floor changes cell, on both sides of zero.
        let n = ValueNoise::new(5, 2.5);
        let mut corners = Corners::default();
        for k in -6i32..=6 {
            let on = f64::from(k) * 2.5;
            for c in [on, on.next_down(), on.next_up(), -0.0] {
                for p in [Vec3::new(c, 1.0, 1.0), Vec3::new(3.0, c, -2.0), Vec3::new(c, c, c)] {
                    let want = n.sample_reference(p).to_bits();
                    prop_assert_eq!(n.sample_in(p, &mut corners).to_bits(), want, "{:?}", p);
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let n = ValueNoise::new(7, 4.0);
        let p = Vec3::new(10.3, 5.9, 22.1);
        assert_eq!(n.sample(p), n.sample(p));
        let m = ValueNoise::new(8, 4.0);
        assert_ne!(n.sample(p), m.sample(p), "different seeds differ");
    }

    #[test]
    fn range_is_unit_interval() {
        let n = ValueNoise::new(42, 3.0);
        for i in 0..500 {
            let p = Vec3::new(i as f64 * 0.77, i as f64 * 1.31, i as f64 * 0.13);
            let v = n.sample(p);
            assert!((0.0..1.0).contains(&v), "sample {v} out of range");
            let f = n.sample_fractal(p);
            assert!((0.0..1.0).contains(&f), "fractal {f} out of range");
        }
    }

    #[test]
    fn continuity_at_small_steps() {
        // Value noise is continuous: close points give close values.
        let n = ValueNoise::new(3, 5.0);
        let p = Vec3::new(12.0, 7.5, 3.25);
        let a = n.sample(p);
        let b = n.sample(p + Vec3::splat(0.01));
        assert!((a - b).abs() < 0.05, "jump of {} over 0.01 mm", (a - b).abs());
    }

    #[test]
    fn varies_across_space() {
        let n = ValueNoise::new(9, 2.0);
        let vals: Vec<f64> =
            (0..100).map(|i| n.sample(Vec3::new(i as f64 * 3.1, 0.0, 0.0))).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!(var > 0.01, "noise should not be (nearly) constant, var={var}");
        assert!((0.2..0.8).contains(&mean), "mean {mean} suspicious");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_scale_panics() {
        let _ = ValueNoise::new(1, 0.0);
    }
}
