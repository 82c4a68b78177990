//! The integer codes compared in the paper's compression study.

use crate::{BitReader, BitWriter, CodingError, Result};

/// A prefix code over strictly positive integers (`1..=u64::MAX`, unless a
/// codec documents a tighter domain).
///
/// Delta lengths — the quantities QBISM encodes — are always at least 1,
/// so positive-only codes are the natural interface; callers mapping other
/// domains shift values themselves.
pub trait IntCodec {
    /// Human-readable codec name, used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Appends the codeword for `value` to `w`.
    fn encode(&self, w: &mut BitWriter, value: u64) -> Result<()>;

    /// Reads one codeword from `r`.
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u64>;

    /// Length of the codeword for `value` in bits, without encoding it.
    fn code_len(&self, value: u64) -> Result<u64>;

    /// Total encoded size of a slice in bits.
    fn total_bits(&self, values: &[u64]) -> Result<u64> {
        let mut total = 0u64;
        for &v in values {
            total += self.code_len(v)?;
        }
        Ok(total)
    }
}

fn require_positive(value: u64, codec: &'static str) -> Result<()> {
    if value == 0 {
        Err(CodingError::ValueOutOfDomain { value, codec })
    } else {
        Ok(())
    }
}

/// The Elias γ code — the paper's chosen "elias" method.
///
/// Encodes `x ≥ 1` as `floor(log2 x)` zeros, a one, then the low
/// `floor(log2 x)` bits of `x`.  Codeword length `2*floor(log2 x) + 1`.
/// Following the paper's worked examples: `1 -> "1"`, `2 -> "010"`,
/// `3 -> "011"`, `4 -> "00100"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EliasGamma;

impl IntCodec for EliasGamma {
    fn name(&self) -> &'static str {
        "elias-gamma"
    }

    fn encode(&self, w: &mut BitWriter, value: u64) -> Result<()> {
        require_positive(value, self.name())?;
        let lg = 63 - value.leading_zeros();
        w.write_unary(u64::from(lg));
        if lg > 0 {
            w.write_bits(value & ((1u64 << lg) - 1), lg);
        }
        Ok(())
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u64> {
        let lg = r.read_unary()?;
        if lg > 63 {
            return Err(CodingError::Corrupt("gamma length prefix exceeds 63"));
        }
        let low = if lg == 0 { 0 } else { r.read_bits(lg as u32)? };
        Ok((1u64 << lg) | low)
    }

    fn code_len(&self, value: u64) -> Result<u64> {
        require_positive(value, self.name())?;
        let lg = u64::from(63 - value.leading_zeros());
        Ok(2 * lg + 1)
    }
}

/// Golomb code with parameter `m` (Golomb, 1966).
///
/// Optimal for geometrically distributed values — which QBISM's deltas are
/// *not* (EQ 1 measures a power law), which is exactly why the paper rules
/// this family out.  We implement it so that ruling-out is reproducible.
#[derive(Debug, Clone, Copy)]
pub struct Golomb {
    m: u64,
}

impl Golomb {
    /// A Golomb code with divisor `m ≥ 1`.
    pub fn new(m: u64) -> Self {
        assert!(m >= 1, "Golomb parameter must be >= 1");
        Golomb { m }
    }

    /// The divisor `m`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Truncated-binary encoding helpers: `b = ceil(log2 m)`,
    /// `cutoff = 2^b - m`.  Remainders below `cutoff` use `b-1` bits.
    fn params(&self) -> (u32, u64) {
        if self.m == 1 {
            return (0, 0);
        }
        let b = 64 - (self.m - 1).leading_zeros();
        let cutoff = (1u64 << b) - self.m;
        (b, cutoff)
    }
}

impl IntCodec for Golomb {
    fn name(&self) -> &'static str {
        "golomb"
    }

    fn encode(&self, w: &mut BitWriter, value: u64) -> Result<()> {
        require_positive(value, self.name())?;
        let v = value - 1;
        let (q, rem) = (v / self.m, v % self.m);
        w.write_unary(q);
        let (b, cutoff) = self.params();
        if self.m > 1 {
            if rem < cutoff {
                w.write_bits(rem, b - 1);
            } else {
                w.write_bits(rem + cutoff, b);
            }
        }
        Ok(())
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u64> {
        let q = r.read_unary()?;
        let (b, cutoff) = self.params();
        let rem = if self.m == 1 {
            0
        } else {
            let head = if b > 1 { r.read_bits(b - 1)? } else { 0 };
            if head < cutoff {
                head
            } else {
                let extra = u64::from(r.read_bit()?);
                (head << 1 | extra) - cutoff
            }
        };
        q.checked_mul(self.m)
            .and_then(|qm| qm.checked_add(rem))
            .and_then(|v| v.checked_add(1))
            .ok_or(CodingError::Corrupt("golomb quotient overflow"))
    }

    fn code_len(&self, value: u64) -> Result<u64> {
        require_positive(value, self.name())?;
        let v = value - 1;
        let (q, rem) = (v / self.m, v % self.m);
        let (b, cutoff) = self.params();
        let rem_bits = if self.m == 1 {
            0
        } else if rem < cutoff {
            u64::from(b - 1)
        } else {
            u64::from(b)
        };
        Ok(q + 1 + rem_bits)
    }
}

/// Rice code: a Golomb code with a power-of-two divisor `m = 2^k`.
#[derive(Debug, Clone, Copy)]
pub struct Rice {
    k: u32,
}

impl Rice {
    /// A Rice code with `m = 2^k`, `k <= 32`.
    pub fn new(k: u32) -> Self {
        assert!(k <= 32, "Rice parameter k={k} out of range");
        Rice { k }
    }

    /// The exponent `k`.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl IntCodec for Rice {
    fn name(&self) -> &'static str {
        "rice"
    }

    fn encode(&self, w: &mut BitWriter, value: u64) -> Result<()> {
        require_positive(value, self.name())?;
        let v = value - 1;
        w.write_unary(v >> self.k);
        if self.k > 0 {
            w.write_bits(v & ((1u64 << self.k) - 1), self.k);
        }
        Ok(())
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u64> {
        let q = r.read_unary()?;
        let low = if self.k > 0 { r.read_bits(self.k)? } else { 0 };
        q.checked_shl(self.k)
            .filter(|shifted| shifted >> self.k == q)
            .and_then(|shifted| shifted.checked_add(low))
            .and_then(|v| v.checked_add(1))
            .ok_or(CodingError::Corrupt("rice quotient overflow"))
    }

    fn code_len(&self, value: u64) -> Result<u64> {
        require_positive(value, self.name())?;
        let v = value - 1;
        Ok((v >> self.k) + 1 + u64::from(self.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codeword_bits(codec: &dyn IntCodec, value: u64) -> String {
        let mut w = BitWriter::new();
        codec.encode(&mut w, value).unwrap();
        let n = w.bit_len();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        (0..n).map(|_| if r.read_bit().unwrap() { '1' } else { '0' }).collect()
    }

    #[test]
    fn gamma_matches_paper_worked_examples() {
        // Section 4.2 lists:  1 -> 1,  2 -> 010,  3 -> 011,  4 -> 00100.
        assert_eq!(codeword_bits(&EliasGamma, 1), "1");
        assert_eq!(codeword_bits(&EliasGamma, 2), "010");
        assert_eq!(codeword_bits(&EliasGamma, 3), "011");
        assert_eq!(codeword_bits(&EliasGamma, 4), "00100");
    }

    #[test]
    fn gamma_code_lengths() {
        for (v, bits) in
            [(1u64, 1u64), (2, 3), (3, 3), (4, 5), (7, 5), (8, 7), (255, 15), (256, 17)]
        {
            assert_eq!(EliasGamma.code_len(v).unwrap(), bits, "value {v}");
        }
    }

    #[test]
    fn golomb_truncated_binary_remainders() {
        // m = 3: remainders 0,1,2 -> cutoff = 1, so r=0 uses 1 bit ("0"),
        // r=1 -> "10", r=2 -> "11".  Values 1,2,3 have quotient 0.
        let g = Golomb::new(3);
        assert_eq!(codeword_bits(&g, 1), "10");
        assert_eq!(codeword_bits(&g, 2), "110");
        assert_eq!(codeword_bits(&g, 3), "111");
        assert_eq!(codeword_bits(&g, 4), "010");
    }

    #[test]
    fn golomb_m1_degenerates_to_unary() {
        // Unary: `n` as `n-1` zero bits followed by a one.
        let g = Golomb::new(1);
        for v in 1..12u64 {
            assert_eq!(g.code_len(v).unwrap(), v);
        }
        assert_eq!(codeword_bits(&g, 3), "001");
    }

    #[test]
    fn rice_equals_golomb_power_of_two() {
        let rice = Rice::new(3);
        let gol = Golomb::new(8);
        for v in 1..200u64 {
            assert_eq!(rice.code_len(v).unwrap(), gol.code_len(v).unwrap(), "value {v}");
            assert_eq!(codeword_bits(&rice, v), codeword_bits(&gol, v), "value {v}");
        }
    }

    #[test]
    fn zero_rejected_by_positive_codes() {
        for codec in [&EliasGamma as &dyn IntCodec, &Golomb::new(4), &Rice::new(2)] {
            let mut w = BitWriter::new();
            assert!(matches!(
                codec.encode(&mut w, 0),
                Err(CodingError::ValueOutOfDomain { value: 0, .. })
            ));
            assert!(codec.code_len(0).is_err());
        }
    }

    #[test]
    fn truncated_stream_reports_unexpected_end() {
        let mut w = BitWriter::new();
        EliasGamma.encode(&mut w, 300).unwrap();
        let mut bytes = w.finish();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert_eq!(EliasGamma.decode(&mut r), Err(CodingError::UnexpectedEnd));
    }

    /// Kraft inequality check: a prefix code's lengths must satisfy
    /// sum(2^-len) <= 1 over any prefix of the domain.
    #[test]
    fn kraft_inequality_holds() {
        for codec in [&EliasGamma as &dyn IntCodec, &Golomb::new(7), &Rice::new(3)] {
            let sum: f64 =
                (1..=4096u64).map(|v| 2f64.powi(-(codec.code_len(v).unwrap() as i32))).sum();
            assert!(sum <= 1.0 + 1e-9, "{} violates Kraft: {sum}", codec.name());
        }
    }

    proptest! {
        #[test]
        fn all_codecs_roundtrip(values in proptest::collection::vec(1u64..1_000_000, 1..200)) {
            for codec in [&EliasGamma as &dyn IntCodec, &Golomb::new(13), &Rice::new(4)] {
                let mut w = BitWriter::new();
                for &v in &values {
                    codec.encode(&mut w, v).unwrap();
                }
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                for &v in &values {
                    prop_assert_eq!(codec.decode(&mut r).unwrap(), v, "{}", codec.name());
                }
            }
        }

        #[test]
        fn code_len_matches_actual_bits(v in 1u64..10_000_000) {
            for codec in [&EliasGamma as &dyn IntCodec, &Golomb::new(9), &Rice::new(5)] {
                let mut w = BitWriter::new();
                codec.encode(&mut w, v).unwrap();
                prop_assert_eq!(codec.code_len(v).unwrap(), w.bit_len(), "{}", codec.name());
            }
        }

        #[test]
        fn gamma_is_within_paper_bound_of_log(v in 1u64..1_000_000_000) {
            // gamma length = 2 floor(log2 v) + 1
            let lg = 63 - v.leading_zeros() as u64;
            prop_assert_eq!(EliasGamma.code_len(v).unwrap(), 2 * lg + 1);
        }
    }
}
