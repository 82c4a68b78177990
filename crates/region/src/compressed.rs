//! The queryable REGION codec, [`RegionCodec::K3Tree`]: a k³ directory
//! over delta+varint run-block leaves ([`qbism_coding::k3tree`]).
//!
//! The Figure-4 codecs are storage studies: a kernel must fully decode
//! them before operating.  A k³ REGION opens instead: [`open_k3`] parses
//! its header once into the grid and the payload, [`K3Cursor::new`]
//! makes the payload a seekable run source that the [`crate::kernel`]
//! family merges like any other cursor, and [`intersect_k3`] answers the
//! n-way ∩ of payloads by synchronized directory descent.  Both answer
//! a [`Region`]; k³ bytes are written only by
//! [`RegionCodec::encode_into`].

use crate::encode::{split_header, RegionCodec, RegionEncodeError};
use crate::geometry::GridGeometry;
use crate::region::Region;
use crate::run::Run;
use qbism_coding::{k3tree, K3Cursor};

/// An encoded REGION's grid and k³ payload with one parse of its header,
/// or `None` when it holds one of the Figure-4 codecs.
pub fn open_k3(bytes: &[u8]) -> Result<Option<(GridGeometry, &[u8])>, RegionEncodeError> {
    let (codec, geom, _count, body) = split_header(bytes)?;
    Ok(matches!(codec, RegionCodec::K3Tree).then_some((geom, body)))
}

/// Opens a k³ REGION byte string as its grid plus a streaming cursor
/// (nothing decoded but the first leaf).  Any other codec is
/// [`RegionEncodeError::BadTag`].
pub fn compressed_cursor(bytes: &[u8]) -> Result<(GridGeometry, K3Cursor<'_>), RegionEncodeError> {
    let (codec, geom, _count, body) = split_header(bytes)?;
    if codec != RegionCodec::K3Tree {
        return Err(RegionEncodeError::BadTag(codec.tag()));
    }
    Ok((geom, K3Cursor::new(body)?))
}

/// The n-way ∩ of k³ `payloads` (from [`open_k3`]) on `geom` by
/// synchronized directory descent ([`k3tree::intersect`]), with what the
/// descent skipped and masked: no operand is decoded into runs, and the
/// answer's runs are checked canonical and on the grid once.
pub fn intersect_k3(
    geom: GridGeometry,
    payloads: &[&[u8]],
) -> Result<(Region, k3tree::DescentCounts), RegionEncodeError> {
    let mut runs = Vec::new();
    let counts = k3tree::intersect(payloads, |start, end| {
        runs.push(Run::new(start, end));
        Ok::<_, RegionEncodeError>(())
    })?;
    Ok((Region::from_canonical_runs(geom, runs)?, counts))
}

/// Encodes a region in the k³ layout: [`RegionCodec::K3Tree`]'s
/// `encode`, the name the frozen benchmark probes call it by.
pub fn encode_compressed(region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
    RegionCodec::K3Tree.encode(region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_coding::RunCursor;
    use qbism_sfc::CurveKind;

    /// A full grid collapses to a few directory words, and a far seek
    /// over a sparse REGION skips subtrees instead of scanning.
    #[test]
    fn a_solid_is_small_and_a_far_seek_skips() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 6);
        assert!(encode_compressed(&Region::full(g)).expect("encode dense").len() < 32);
        let sparse = Region::from_ids(g, (0..(1u64 << 18)).step_by(97).collect());
        let sparse_bytes = encode_compressed(&sparse).expect("encode sparse");
        let (_, mut cursor) = compressed_cursor(&sparse_bytes).expect("open");
        cursor.seek(97 * 2_700).expect("seek far");
        assert_eq!(cursor.peek(), Some((97 * 2_700, 97 * 2_700)));
        assert!(cursor.skips() > 0, "far seek should skip, not scan");
    }

    #[test]
    fn only_k3_bytes_open() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let region = Region::from_ids(g, vec![1, 2, 3, 900, 4_000]);
        for codec in RegionCodec::ALL {
            let bytes = codec.encode(&region).expect("encode");
            assert!(matches!(open_k3(&bytes), Ok(None)), "{}", codec.name());
            assert_eq!(
                compressed_cursor(&bytes).err(),
                Some(RegionEncodeError::BadTag(codec.tag()))
            );
        }
        let bytes = encode_compressed(&region).expect("encode");
        let (geom, payload) = open_k3(&bytes).expect("header").expect("k3");
        assert_eq!(geom, g);
        let runs = K3Cursor::new(payload).expect("open").decode_all().expect("drain");
        assert_eq!(runs, region.runs().iter().map(|&r| r.into()).collect::<Vec<(u64, u64)>>());
        assert_eq!(open_k3(&[1, 2, 3]).err(), Some(RegionEncodeError::Truncated));
    }

    proptest! {
        /// The descent's answer is the k-way slice merge's `Region`; a
        /// paper codec's bytes are not a k³ payload.
        #[test]
        fn intersect_k3_is_the_slice_merge_encoded(
            operands in proptest::collection::vec((
                proptest::collection::vec(0u64..(1 << 18), 0..300),
                proptest::array::uniform3(0u32..64),
                proptest::array::uniform3(0u32..40),
            ), 1..6),
        ) {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 6);
            let regions: Vec<Region> = operands.into_iter().map(|(ids, min, size)| {
                let max = [0, 1, 2].map(|a| (min[a] + size[a]).min(63));
                let bx = Region::from_box(g, min, max).expect("box inside grid");
                Region::from_ids(g, ids).union(&bx)
            }).collect();
            let blobs: Vec<Vec<u8>> =
                regions.iter().map(|r| RegionCodec::K3Tree.encode(r).expect("encode")).collect();
            let mut payloads = Vec::new();
            for blob in &blobs {
                let (geom, payload) = open_k3(blob).expect("header").expect("k3");
                prop_assert_eq!(geom, g);
                payloads.push(payload);
            }
            let lists: Vec<&[Run]> = regions.iter().map(Region::runs).collect();
            let want = Region::from_runs(g, crate::kernel::intersect_k(&lists));
            let (got, _) = intersect_k3(g, &payloads).expect("descent");
            prop_assert_eq!(got, want);
            let naive = RegionCodec::Naive.encode(&regions[0]).expect("encode");
            prop_assert!(open_k3(&naive).expect("header").is_none());
        }
    }
}
