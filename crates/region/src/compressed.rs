//! The queryable REGION codec, [`RegionCodec::K3Tree`]: a k³ directory
//! over delta+varint run-block leaves ([`qbism_coding::k3tree`]).
//!
//! The Figure-4 codecs ([`RegionCodec::Naive`], `Elias`, the octant
//! packings) are storage studies: compact, but a kernel must fully
//! decode them before operating.  A k³ REGION opens instead: [`open_k3`]
//! parses its header once into the grid and the payload, and
//! [`K3Cursor::new`] makes the payload a streaming, seekable run source
//! that decodes a leaf at a time into a small buffer and that the one
//! [`crate::kernel`] family merges like any other cursor, without ever
//! materializing the run vector.
//!
//! `CompressedWriter` is the one writer of k³ REGION bytes: runs are
//! pushed in id order and encoded once — a [`Region`]'s, by
//! [`RegionCodec::encode`] with `K3Tree` (and [`encode_compressed`]), or
//! the answer of [`intersect_k3`], the n-way ∩ of k³ payloads by the
//! synchronized directory descent of [`k3tree::intersect`].  A merge
//! over k³ cursors collects its answer as a [`Region`] and writes no
//! bytes.

use crate::encode::{check_width, split_header, RegionCodec, RegionEncodeError, HEADER_LEN};
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

/// What [`intersect_k3`] returns.
#[derive(Debug)]
pub struct K3Intersection {
    /// The answer.
    pub region: Region,
    /// The answer as [`encode_compressed`] writes it.
    pub bytes: Vec<u8>,
    /// What the descent skipped and masked.
    pub counts: k3tree::DescentCounts,
}

/// The n-way ∩ of k³ `payloads` (from [`open_k3`]) on `geom` by
/// synchronized directory descent ([`k3tree::intersect`]): no operand is
/// decoded into runs, and each answer run is pushed once, into the
/// [`Region`]'s run vector and into its k³ bytes.
pub fn intersect_k3(
    geom: GridGeometry,
    payloads: &[&[u8]],
) -> Result<K3Intersection, RegionEncodeError> {
    let (mut runs, mut bytes) = (Vec::new(), Vec::new());
    let mut writer = CompressedWriter::new(&mut bytes, geom)?;
    let counts = k3tree::intersect(payloads, |start, end| {
        writer.push(start, end)?;
        runs.push(Run::new(start, end));
        Ok::<_, RegionEncodeError>(())
    })?;
    writer.finish();
    Ok(K3Intersection { region: Region::from_canonical_runs(geom, runs)?, bytes, counts })
}

/// Streaming encoder of a k³ REGION: push the runs of a canonical list
/// in id order, then [`CompressedWriter::finish`].  A run that is out of
/// order, touches its predecessor or leaves the grid is a typed error —
/// the writer is the checking sweep of whatever feeds it.
#[derive(Debug)]
pub(crate) struct CompressedWriter<'a> {
    /// The buffer the REGION is appended to: its header (the count
    /// patched at the end) from `header_at`, then the payload so far.
    out: &'a mut Vec<u8>,
    header_at: usize,
    k3: k3tree::Encoder,
    runs: usize,
}

impl<'a> CompressedWriter<'a> {
    /// Starts a REGION on `geom` at the end of `out`.  A grid too wide
    /// for the codec is refused before `out` is touched.
    pub fn new(out: &'a mut Vec<u8>, geom: GridGeometry) -> Result<Self, RegionEncodeError> {
        check_width(RegionCodec::K3Tree, geom)?;
        let header_at = out.len();
        RegionCodec::K3Tree.write_header(geom, 0, out);
        let k3 = k3tree::Encoder::new(out, geom.dims() * geom.bits())?;
        Ok(CompressedWriter { out, header_at, k3, runs: 0 })
    }

    /// Appends the next run (on error, `out` holds a partial REGION).
    pub fn push(&mut self, start: u64, end: u64) -> Result<(), RegionEncodeError> {
        self.k3.push(self.out, start, end)?;
        self.runs += 1;
        Ok(())
    }

    /// Closes the payload and writes the run count into the header.
    /// Canonical runs in an id space of at most 32 bits number at most
    /// 2³¹, so the count fits its word.
    pub fn finish(self) {
        self.k3.finish(self.out);
        let at = self.header_at + HEADER_LEN - 4;
        if let Some(slot) = self.out.get_mut(at..at + 4) {
            slot.copy_from_slice(&(self.runs as u32).to_le_bytes());
        }
    }
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

    #[test]
    fn the_writer_refuses_what_is_not_a_canonical_list() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let refused = |runs: &[(u64, u64)]| {
            let mut out = Vec::new();
            let mut writer = CompressedWriter::new(&mut out, g).expect("writer");
            runs.iter().try_for_each(|&(start, end)| writer.push(start, end)).is_err()
        };
        assert!(refused(&[(0, 3), (4, 6)]), "touching");
        assert!(refused(&[(10, 12), (5, 7)]), "out of order");
        assert!(refused(&[(7, 5)]), "inverted");
        assert!(refused(&[(4_000, 4_096)]), "past the grid");
        assert!(!refused(&[(0, 3), (5, 6), (4_095, 4_095)]));
        let wide = GridGeometry::new(CurveKind::Morton, 3, 11);
        let mut out = vec![7u8];
        let refused = CompressedWriter::new(&mut out, wide).err();
        assert!(matches!(refused, Some(RegionEncodeError::IdTooWide { .. })));
        assert_eq!(out, [7], "refused before the buffer is touched");
    }

    proptest! {
        /// The descent's answer is the k-way slice merge's, as a
        /// `Region` and as `encode_compressed` bytes; a paper codec's
        /// bytes are not a k³ payload.
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
            let got = intersect_k3(g, &payloads).expect("descent");
            prop_assert_eq!(&got.bytes, &encode_compressed(&want).expect("encode answer"));
            prop_assert_eq!(got.region, want);
            let naive = RegionCodec::Naive.encode(&regions[0]).expect("encode");
            prop_assert!(open_k3(&naive).expect("header").is_none());
        }

        /// The writer appends the REGION header and exactly the payload
        /// `k3tree::encode_runs` builds, from dense boxes down to a few
        /// scattered cells and the empty REGION, and it decodes back.
        #[test]
        fn the_writer_appends_the_header_and_the_k3tree_payload(
            ids in proptest::collection::vec(0u64..(1 << 18), 0..300),
            keep in 1usize..40,
            bx in (any::<bool>(), proptest::array::uniform3(0u32..64), proptest::array::uniform3(0u32..24)),
        ) {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 6);
            let mut region = Region::from_ids(g, ids.into_iter().step_by(keep).collect());
            let (present, min, size) = bx;
            if present {
                let max = [0, 1, 2].map(|a| (min[a] + size[a]).min(63));
                region = region.union(&Region::from_box(g, min, max).expect("box inside grid"));
            }
            let mut out = vec![7u8, 7];
            RegionCodec::K3Tree.encode_into(&region, &mut out).expect("encode");
            let mut want = vec![7u8, 7];
            RegionCodec::K3Tree.write_header(g, region.run_count(), &mut want);
            want.extend(k3tree::encode_runs(region.runs(), 18).expect("payload"));
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(RegionCodec::decode(&out[2..]).expect("decode"), region);
        }
    }
}
