//! Byte-aligned LEB128 varints — the delta transport of the k³ layout's
//! run-block leaves.
//!
//! The bit-level codes ([`crate::EliasGamma`] and friends) are what the
//! paper's Figure 4 compares, but a *queryable* on-disk representation
//! wants byte alignment: a leaf is skipped by its byte length, and a
//! cursor must be able to land on any leaf and decode it alone.
//! LEB128 gives that — each codeword is a whole number of bytes, 7
//! payload bits per byte, continuation in the high bit.
//!
//! Decoding is hardened against untrusted input: a truncated buffer
//! yields [`CodingError::UnexpectedEnd`] and an over-long codeword
//! (more than [`MAX_VARINT_BYTES`] bytes, or payload bits beyond 64)
//! yields [`CodingError::Corrupt`] — never a panic, never wraparound.

use crate::{CodingError, Result};

/// Longest legal LEB128 encoding of a `u64`: ⌈64 / 7⌉ bytes.
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`, returning the
/// number of bytes written (1 ..= [`MAX_VARINT_BYTES`]).
pub fn write_uvarint(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 codeword from `bytes[*pos..]`, advancing `*pos`
/// past it.
///
/// Errors — the typed contract fuzzed by the property tests:
///
/// * [`CodingError::UnexpectedEnd`] — the buffer ended while the last
///   byte still had its continuation bit set (truncated input);
/// * [`CodingError::Corrupt`] — the codeword ran past
///   [`MAX_VARINT_BYTES`] bytes or carried payload bits beyond a
///   `u64` (overflow), i.e. bytes that no encoder produces.
#[inline]
pub fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    // Most deltas of a REGION fit one byte.
    if let Some(&byte) = bytes.get(*pos).filter(|&&byte| byte < 0x80) {
        *pos += 1;
        return Ok(u64::from(byte));
    }
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    let mut at = *pos;
    loop {
        let Some(&byte) = bytes.get(at) else {
            return Err(CodingError::UnexpectedEnd);
        };
        at += 1;
        let payload = u64::from(byte & 0x7f);
        if shift >= 63 {
            // Tenth byte: only the lowest payload bit fits in a u64,
            // and an eleventh byte is over-long outright.
            if shift >= 70 || payload > 1 {
                return Err(CodingError::Corrupt("varint overflows u64"));
            }
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            *pos = at;
            return Ok(value);
        }
        shift += 7;
        if shift as usize >= MAX_VARINT_BYTES * 7 {
            return Err(CodingError::Corrupt("varint longer than 10 bytes"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: u64) -> (Vec<u8>, u64) {
        let mut buf = Vec::new();
        let n = write_uvarint(&mut buf, v);
        assert_eq!(n, buf.len());
        let mut pos = 0;
        let back = read_uvarint(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        (buf, back)
    }

    #[test]
    fn encodes_boundary_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::from(u32::MAX), u64::MAX] {
            let (_, back) = roundtrip(v);
            assert_eq!(back, v);
        }
        // 1 byte per 7 significant bits; zero still costs one byte.
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, MAX_VARINT_BYTES)] {
            assert_eq!(roundtrip(v).0.len(), len, "{v}");
        }
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 300_000);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(
                read_uvarint(&buf[..cut], &mut pos),
                Err(CodingError::UnexpectedEnd),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn overlong_and_overflowing_codewords_are_corrupt() {
        // Eleven continuation bytes: longer than any u64 encoding.
        let overlong = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(read_uvarint(&overlong, &mut pos), Err(CodingError::Corrupt(_))));
        // Ten bytes whose tenth carries more than one payload bit.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        let mut pos = 0;
        assert!(matches!(read_uvarint(&overflow, &mut pos), Err(CodingError::Corrupt(_))));
    }

    proptest! {
        /// The satellite contract: decoding an arbitrary byte prefix
        /// never panics — it returns a value or a typed error.
        #[test]
        fn fuzz_random_prefixes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut pos = 0;
            while pos < bytes.len() {
                let before = pos;
                match read_uvarint(&bytes, &mut pos) {
                    Ok(_) => prop_assert!(pos > before, "decode must consume bytes"),
                    Err(CodingError::UnexpectedEnd) | Err(CodingError::Corrupt(_)) => break,
                    Err(other) => prop_assert!(false, "unexpected error class {other:?}"),
                }
            }
        }

        #[test]
        fn fuzz_roundtrip_and_every_strict_prefix_truncates(v in any::<u64>()) {
            let (buf, back) = roundtrip(v);
            prop_assert_eq!(back, v);
            for cut in 0..buf.len() {
                let mut pos = 0;
                prop_assert_eq!(read_uvarint(&buf[..cut], &mut pos), Err(CodingError::UnexpectedEnd));
            }
        }

        #[test]
        fn fuzz_streams_of_varints_roundtrip(vs in proptest::collection::vec(any::<u64>(), 0..40)) {
            let mut buf = Vec::new();
            for &v in &vs {
                write_uvarint(&mut buf, v);
            }
            let mut pos = 0;
            for &v in &vs {
                prop_assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
