//! MSB-first bit-level reader and writer.
//!
//! The codes in this crate are prefix codes, so decoding proceeds bit by
//! bit from the most significant bit of each byte — the natural order for
//! codes described as "N zero bits followed by a one".

use crate::{CodingError, Result};

/// Appends bits MSB-first into a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final (partial) byte, 0..=7; 0 means byte-aligned.
    partial_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        if self.partial_bits == 0 {
            self.bytes.len() as u64 * 8
        } else {
            (self.bytes.len() as u64 - 1) * 8 + u64::from(self.partial_bits)
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.bytes.push(0);
        }
        if bit {
            let shift = 7 - self.partial_bits;
            if let Some(last) = self.bytes.last_mut() {
                *last |= 1 << shift;
            }
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
    }

    /// Writes the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `width > 64` or `value` has bits above `width`.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(width == 64 || value < (1u64 << width), "value {value} wider than {width} bits");
        // Simple loop: run-length data streams are short compared to the
        // voxel payloads they index, so clarity wins over a word-at-a-time
        // fast path here.
        for i in (0..width).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Writes `count` zero bits followed by a one bit (unary coding).
    pub fn write_unary(&mut self, count: u64) {
        for _ in 0..count {
            self.write_bit(false);
        }
        self.write_bit(true);
    }

    /// Finishes the stream, zero-padding the final byte, and returns the
    /// underlying bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit position (absolute, from the start of `bytes`).
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Total number of bits available from the start.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Number of bits consumed so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Remaining readable bits (including any zero padding in the final
    /// byte — callers decode a known count of values, not until EOF).
    pub fn remaining(&self) -> u64 {
        self.bit_len() - self.pos
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.pos >= self.bit_len() {
            return Err(CodingError::UnexpectedEnd);
        }
        let Some(&byte) = self.bytes.get((self.pos / 8) as usize) else {
            return Err(CodingError::UnexpectedEnd);
        };
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `width` bits MSB-first into the low bits of a `u64`.
    pub fn read_bits(&mut self, width: u32) -> Result<u64> {
        assert!(width <= 64, "width {width} exceeds 64");
        if self.remaining() < u64::from(width) {
            return Err(CodingError::UnexpectedEnd);
        }
        let mut out = 0u64;
        for _ in 0..width {
            out = (out << 1) | u64::from(self.read_bit()?);
        }
        Ok(out)
    }

    /// Reads a unary count: the number of zero bits before the next one bit.
    pub fn read_unary(&mut self) -> Result<u64> {
        let mut count = 0u64;
        loop {
            if self.read_bit()? {
                return Ok(count);
            }
            count += 1;
            if count > self.bit_len() {
                return Err(CodingError::Corrupt("unbounded unary prefix"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_bits_roundtrip_and_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, false, true, true] {
            w.write_bit(bit);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1011_0001, 0b1000_0000]);
        let mut r = BitReader::new(&bytes);
        let got: Vec<bool> = (0..9).map(|_| r.read_bit().unwrap()).collect();
        assert_eq!(got, vec![true, false, true, true, false, false, false, true, true]);
    }

    #[test]
    fn write_bits_is_msb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0b0110, 4);
        assert_eq!(w.finish(), vec![0b1011_0110]);
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for n in [0u64, 1, 2, 7, 20] {
            w.write_unary(n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for n in [0u64, 1, 2, 7, 20] {
            assert_eq!(r.read_unary().unwrap(), n);
        }
    }

    #[test]
    fn read_past_end_errors() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bit(), Err(CodingError::UnexpectedEnd));
        assert_eq!(r.read_bits(1), Err(CodingError::UnexpectedEnd));
    }

    #[test]
    fn unary_prefix_running_off_the_end_errors() {
        let bytes = [0x00u8]; // eight zeros, no terminating one
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary(), Err(CodingError::UnexpectedEnd));
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn overwide_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(16, 4);
    }

    #[test]
    fn full_width_64_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    proptest! {
        #[test]
        fn mixed_stream_roundtrip(ops in proptest::collection::vec((0u64..1000, 1u32..33), 1..50)) {
            let mut w = BitWriter::new();
            for &(v, width) in &ops {
                let v = v & ((1u64 << width) - 1);
                w.write_bits(v, width);
            }
            let expected: Vec<u64> = ops.iter().map(|&(v, width)| v & ((1u64 << width) - 1)).collect();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for (i, &(_, width)) in ops.iter().enumerate() {
                prop_assert_eq!(r.read_bits(width).unwrap(), expected[i]);
            }
        }

        #[test]
        fn bit_len_matches_written(widths in proptest::collection::vec(1u32..33, 0..40)) {
            let mut w = BitWriter::new();
            let mut total = 0u64;
            for &width in &widths {
                w.write_bits(0, width);
                total += u64::from(width);
            }
            prop_assert_eq!(w.bit_len(), total);
        }
    }
}
