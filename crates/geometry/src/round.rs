//! Floor and round without libm.
//!
//! `f64::floor` and `f64::round` are libm calls on baseline x86-64, and
//! `as` saturates, which costs a clamp and a NaN test per value.  The
//! per-voxel loops of the load path (acquisition, lattice noise, the
//! resampler) take both through the 1.5 · 2^52 trick instead: adding it
//! rounds a value to the nearest integer, held in the sum's low mantissa
//! bits.

/// `1.5 · 2^52`: a float whose unit in the last place is 1, with room
/// below it for a signed offset of up to 2^51.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `floor(f)` as an integer and as a float, for `|f| < 2^51`, without
/// a branch: the sum with 1.5 · 2^52 holds `f` rounded to the nearest
/// integer, and the floor is one below wherever that rounded up.
///
/// On that domain the float is `f.floor()` bit for bit, except that
/// `-0.0` gives `(0, +0.0)` where `f64::floor` keeps `-0.0`.  Outside it
/// (`|f| ≥ 2^51`, infinities, NaN) both results are meaningless, though
/// never a panic.
#[inline]
pub fn floor(f: f64) -> (i64, f64) {
    let sum = f + ROUND;
    let nearest = sum - ROUND;
    let down = nearest > f;
    let cell = (sum.to_bits() as i64 - ROUND.to_bits() as i64) - i64::from(down);
    (cell, nearest - if down { 1.0 } else { 0.0 })
}

/// `v.round().clamp(0.0, 255.0) as u8` — round half away from zero,
/// then clamp to a byte — for `|v| < 2^51`, without `round`'s libm call
/// and its branch on the fraction, which mispredicts on values whose
/// fractions are uniform.  `v − floor(v)` is exact.  Below zero the
/// halves round up here and down in `f64::round`, which the clamp to 0
/// hides, and `-0.0` gives 0.
#[inline]
pub fn round_to_byte(v: f64) -> u8 {
    let (cell, whole) = floor(v);
    (cell + i64::from(v - whole >= 0.5)).clamp(0, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn edges_of_the_domain() {
        for f in [0.0, 0.5, 1.0, -0.5, -1.0, -1.5, 2.5, 1e15 + 0.5, -(1e15 + 0.5), 0.1, -0.1] {
            let (cell, whole) = floor(f);
            assert_eq!(whole.to_bits(), f.floor().to_bits(), "{f}");
            assert_eq!(cell, f.floor() as i64, "{f}");
        }
        let big = (1u64 << 51) as f64 - 0.5;
        assert_eq!(floor(big), (big.floor() as i64, big.floor()));
        assert_eq!(floor(-big), (-big.floor() as i64 - 1, (-big).floor()));
        let (cell, whole) = floor(-0.0);
        assert_eq!((cell, whole.to_bits()), (0, 0.0f64.to_bits()), "-0.0 floors to +0.0");
    }

    #[test]
    fn rounding_to_a_byte_at_ties_and_clamps() {
        for v in [-300.0, -0.5, -0.0, 0.0, 0.49999999999999994, 0.5, 1.5, 2.5, 254.5, 255.49, 1e9] {
            assert_eq!(round_to_byte(v), v.round().clamp(0.0, 255.0) as u8, "{v}");
        }
    }

    proptest! {
        #[test]
        fn floor_is_f64_floor(f in -1e12f64..1e12) {
            let (cell, whole) = floor(f);
            prop_assert_eq!(whole.to_bits(), f.floor().to_bits());
            prop_assert_eq!(cell, f.floor() as i64);
        }

        #[test]
        fn round_to_byte_is_round_then_clamp(v in -40.0f64..300.0, tie in -40i32..300) {
            prop_assert_eq!(round_to_byte(v), v.round().clamp(0.0, 255.0) as u8);
            let half = f64::from(tie) + 0.5;
            prop_assert_eq!(round_to_byte(half), half.round().clamp(0.0, 255.0) as u8);
        }
    }
}
