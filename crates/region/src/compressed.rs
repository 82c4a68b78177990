//! Queryable compressed REGION byte strings.
//!
//! The Figure-4 codecs ([`RegionCodec::Naive`], `Elias`, the octant
//! packings) are storage studies: compact, but a kernel must fully
//! decode them before operating.  The two *queryable* codecs of the
//! compressed tablespace — [`RegionCodec::K3Tree`] (an octree directory
//! over delta+varint run-block leaves, [`qbism_coding::k3tree`]) and
//! [`RegionCodec::RunVskip`] (one delta+varint run list under a flat
//! skip-block directory) — open as a [`CompressedCursor`] instead: a
//! streaming, seekable run source that decodes a leaf or a skip block at
//! a time into a small buffer, and that the one [`crate::kernel`] family
//! merges like any other cursor, without ever materializing the run
//! vector.
//!
//! [`CompressedWriter`] is the storage policy and the way in: runs are
//! pushed in id order — a stored REGION's, or a merge's as it emits
//! them — and encoded once, into the k³ layout; only when the plain run
//! list would be smaller (tiny or very sparse answers) is that written
//! instead.  [`encode_compressed`] is the writer over a [`Region`].
//!
//! [`intersect_k3`] is the n-way ∩ of k³ payloads without cursors: the
//! synchronized directory descent of [`k3tree::intersect`], its answer
//! pushed once into a run vector and a [`CompressedWriter`].

use crate::encode::{check_width, split_header, RegionCodec, RegionEncodeError, HEADER_LEN};
use crate::geometry::GridGeometry;
use crate::region::Region;
use crate::run::Run;
use qbism_coding::{k3tree, runcode, K3Cursor, RunCursor, RunListCursor};

/// A streaming cursor over either queryable compressed payload.
#[derive(Debug, Clone)]
pub enum CompressedCursor<'a> {
    /// Delta+varint run list with a skip-block directory.
    RunList(RunListCursor<'a>),
    /// k³ directory over run-block leaves.
    K3(K3Cursor<'a>),
}

impl RunCursor for CompressedCursor<'_> {
    #[inline]
    fn peek(&self) -> Option<(u64, u64)> {
        match self {
            CompressedCursor::RunList(c) => c.peek(),
            CompressedCursor::K3(c) => c.peek(),
        }
    }

    #[inline]
    fn advance(&mut self) -> qbism_coding::Result<()> {
        match self {
            CompressedCursor::RunList(c) => c.advance(),
            CompressedCursor::K3(c) => c.advance(),
        }
    }

    #[inline]
    fn seek(&mut self, target: u64) -> qbism_coding::Result<()> {
        match self {
            CompressedCursor::RunList(c) => c.seek(target),
            CompressedCursor::K3(c) => c.seek(target),
        }
    }

    fn skips(&self) -> u64 {
        match self {
            CompressedCursor::RunList(c) => c.skips(),
            CompressedCursor::K3(c) => c.skips(),
        }
    }
}

impl CompressedCursor<'_> {
    /// Skip-jumps taken so far, callable without importing
    /// [`RunCursor`] (downstream crates may not depend on
    /// `qbism_coding` directly).
    pub fn skip_count(&self) -> u64 {
        self.skips()
    }

    /// Drains the stream into a run vector.  Decode-everything
    /// convenience for tests and the [`RegionCodec::decode`] fallback —
    /// kernel modules must stream instead (rule `kernel-materialize` bans
    /// this call there, at zero hops and through helpers).
    pub fn to_runs_vec(self) -> Result<Vec<Run>, RegionEncodeError> {
        let mut out = Vec::with_capacity(self.runs_hint());
        self.drain_blocks(|block| {
            out.extend(block.iter().map(|&(start, end)| Run::new(start, end)))
        })?;
        Ok(out)
    }

    /// A guess at the run count for sizing a drain; both are bounded by
    /// the payload size, so safe to reserve for.
    pub(crate) fn runs_hint(&self) -> usize {
        match self {
            CompressedCursor::RunList(c) => c.run_count(),
            CompressedCursor::K3(c) => c.runs_hint(),
        }
    }

    /// Drains the stream a decoded leaf or skip block at a time, in id
    /// order — the runs and the error `peek` / `advance` would give.
    pub fn drain_blocks(self, f: impl FnMut(&[(u64, u64)])) -> Result<(), RegionEncodeError> {
        match self {
            CompressedCursor::RunList(c) => c.drain_blocks(f),
            CompressedCursor::K3(c) => c.drain_blocks(f),
        }
        .map_err(RegionEncodeError::from)
    }
}

/// Opens the payload of a REGION whose header named `codec`.
pub(crate) fn open_payload(
    codec: RegionCodec,
    body: &[u8],
) -> Result<CompressedCursor<'_>, RegionEncodeError> {
    Ok(match codec {
        RegionCodec::RunVskip => CompressedCursor::RunList(RunListCursor::new(body)?),
        RegionCodec::K3Tree => CompressedCursor::K3(K3Cursor::new(body)?),
        RegionCodec::Naive => return Err(RegionEncodeError::BadTag(0)),
        RegionCodec::Elias => return Err(RegionEncodeError::BadTag(1)),
        RegionCodec::Octant(_) => return Err(RegionEncodeError::BadTag(2)),
    })
}

/// Opens an encoded REGION for merging with one parse of its header: a
/// geometry plus streaming cursor over a queryable compressed payload
/// (nothing decoded but the first block), or `None` when the byte string
/// holds one of the Figure-4 codecs, which must be decoded instead.
pub fn open_compressed(
    bytes: &[u8],
) -> Result<Option<(GridGeometry, CompressedCursor<'_>)>, RegionEncodeError> {
    let (codec, geom, _count, body) = split_header(bytes)?;
    if !codec.is_compressed() {
        return Ok(None);
    }
    Ok(Some((geom, open_payload(codec, body)?)))
}

/// An encoded REGION's grid and k³ payload with one parse of its header,
/// or `None` when it holds any other codec.
pub fn open_k3(bytes: &[u8]) -> Result<Option<(GridGeometry, &[u8])>, RegionEncodeError> {
    let (codec, geom, _count, body) = split_header(bytes)?;
    Ok(matches!(codec, RegionCodec::K3Tree).then_some((geom, body)))
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
/// [`Region`]'s run vector and into a [`CompressedWriter`].
pub fn intersect_k3(
    geom: GridGeometry,
    payloads: &[&[u8]],
) -> Result<K3Intersection, RegionEncodeError> {
    let mut runs = Vec::new();
    let mut writer = CompressedWriter::new(geom, 0)?;
    let counts = k3tree::intersect(payloads, |start, end| {
        writer.push(start, end)?;
        runs.push(Run::new(start, end));
        Ok::<_, RegionEncodeError>(())
    })?;
    let bytes = writer.finish()?;
    Ok(K3Intersection { region: Region::from_canonical_runs(geom, runs)?, bytes, counts })
}

/// Opens a compressed REGION byte string as a geometry plus streaming
/// cursor, without decoding the payload.
///
/// Errors with [`RegionEncodeError::BadTag`] if the byte string holds
/// one of the non-queryable Figure-4 codecs.
pub fn compressed_cursor(
    bytes: &[u8],
) -> Result<(GridGeometry, CompressedCursor<'_>), RegionEncodeError> {
    let (codec, geom, _count, body) = split_header(bytes)?;
    Ok((geom, open_payload(codec, body)?))
}

/// True if `bytes` is an encoded REGION in one of the queryable
/// compressed formats (cheap header sniff, no payload access).
pub fn is_compressed(bytes: &[u8]) -> bool {
    matches!(split_header(bytes), Ok((RegionCodec::RunVskip | RegionCodec::K3Tree, _, _, _)))
}

/// Streaming encoder of a compressed REGION byte string: push the runs
/// of a canonical list in id order, then [`CompressedWriter::finish`].
/// A run that is out of order, touches its predecessor or leaves the
/// grid is a typed error — the writer is the checking sweep of whatever
/// feeds it.
#[derive(Debug)]
pub struct CompressedWriter {
    geom: GridGeometry,
    /// The REGION header (its count patched at the end) and the k³
    /// payload so far.
    out: Vec<u8>,
    k3: k3tree::Encoder,
    /// What the same runs would take as a skip-block run list.
    run_list: runcode::Sizer,
    runs: usize,
}

impl CompressedWriter {
    /// Starts a REGION on `geom` with room for about `runs` runs.
    pub fn new(geom: GridGeometry, runs: usize) -> Result<Self, RegionEncodeError> {
        check_width(RegionCodec::K3Tree, geom)?;
        // Band and structure REGIONs take a little over two bytes a run.
        let mut out = Vec::with_capacity(HEADER_LEN + 2 + 5 * runs / 2);
        RegionCodec::K3Tree.write_header(geom, 0, &mut out);
        let k3 = k3tree::Encoder::new(&mut out, geom.dims() * geom.bits())?;
        Ok(CompressedWriter { geom, out, k3, run_list: runcode::Sizer::default(), runs: 0 })
    }

    /// Appends the next run.
    pub fn push(&mut self, start: u64, end: u64) -> Result<(), RegionEncodeError> {
        self.k3.push(&mut self.out, start, end)?;
        self.run_list.push(start, end);
        self.runs += 1;
        Ok(())
    }

    /// The encoded REGION: the k³ layout as built, or the run list where
    /// that is no larger (ties go to the run list).
    pub fn finish(mut self) -> Result<Vec<u8>, RegionEncodeError> {
        self.k3.finish(&mut self.out);
        if HEADER_LEN + self.run_list.encoded_len() <= self.out.len() {
            // Rare and small: the runs are read back out of the tree
            // just built rather than kept beside it for this.
            let payload = self.out.get(HEADER_LEN..).unwrap_or_default();
            let runs = K3Cursor::new(payload)?.decode_all()?;
            self.out.clear();
            RegionCodec::RunVskip.write_header(self.geom, 0, &mut self.out);
            runcode::encode_runs_into(&mut self.out, &runs)?;
        }
        let count =
            u32::try_from(self.runs).map_err(|_| RegionEncodeError::Corrupt("run count"))?;
        if let Some(slot) = self.out.get_mut(HEADER_LEN - 4..HEADER_LEN) {
            slot.copy_from_slice(&count.to_le_bytes());
        }
        Ok(self.out)
    }
}

/// Encodes a region in the smaller of the two queryable compressed
/// formats ([`CompressedWriter`] over its runs).
pub fn encode_compressed(region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
    let mut writer = CompressedWriter::new(region.geometry(), region.run_count())?;
    for run in region.runs() {
        writer.push(run.start, run.end)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_sfc::CurveKind;

    /// The policy the writer replaced: measure both, build the smaller,
    /// ties to the run list.
    fn measure_then_build(region: &Region) -> Vec<u8> {
        let vskip = RegionCodec::RunVskip.encoded_len(region).expect("vskip length");
        let k3 = RegionCodec::K3Tree.encoded_len(region).expect("k3 length");
        let codec = if vskip <= k3 { RegionCodec::RunVskip } else { RegionCodec::K3Tree };
        codec.encode(region).expect("encode")
    }

    /// The storage policy picks the octree for a dense solid, and a far
    /// seek gallops instead of scanning.
    #[test]
    fn auto_policy_and_gallop_observable() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 6);
        let dense = Region::full(g);
        let dense_bytes = encode_compressed(&dense).expect("encode dense");
        let sparse = Region::from_ids(g, (0..(1u64 << 18)).step_by(97).collect());
        let sparse_bytes = encode_compressed(&sparse).expect("encode sparse");
        assert!(
            dense_bytes.len() < RegionCodec::RunVskip.encode(&dense).expect("vskip").len(),
            "octree should win on the full grid"
        );
        for (region, bytes) in [(&dense, &dense_bytes), (&sparse, &sparse_bytes)] {
            assert_eq!(bytes, &measure_then_build(region));
            let (_, mut cursor) = compressed_cursor(bytes).expect("open");
            cursor.seek(1 << 17).expect("seek");
            assert!(cursor.peek().is_some());
        }
        let (_, mut cursor) = compressed_cursor(&sparse_bytes).expect("open");
        cursor.seek(97 * 2_700).expect("seek far");
        assert_eq!(cursor.peek(), Some((97 * 2_700, 97 * 2_700)));
        assert!(cursor.skip_count() > 0, "far seek should gallop, not scan");
    }

    #[test]
    fn open_compressed_tells_the_paper_codecs_apart() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let region = Region::from_ids(g, vec![1, 2, 3, 900, 4_000]);
        for codec in RegionCodec::ALL {
            let bytes = codec.encode(&region).expect("encode");
            assert!(matches!(open_compressed(&bytes), Ok(None)), "{}", codec.name());
            assert!(matches!(compressed_cursor(&bytes), Err(RegionEncodeError::BadTag(_))));
        }
        for codec in RegionCodec::COMPRESSED {
            let bytes = codec.encode(&region).expect("encode");
            let (geom, cursor) = open_compressed(&bytes).expect("header").expect("queryable");
            assert_eq!((geom, cursor.to_runs_vec().expect("drain")), (g, region.runs().to_vec()));
        }
        assert_eq!(open_compressed(&[1, 2, 3]).err(), Some(RegionEncodeError::Truncated));
    }

    #[test]
    fn the_writer_refuses_what_is_not_a_canonical_list() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let refused = |runs: &[(u64, u64)]| {
            let mut writer = CompressedWriter::new(g, runs.len()).expect("writer");
            runs.iter().try_for_each(|&(start, end)| writer.push(start, end)).is_err()
        };
        assert!(refused(&[(0, 3), (4, 6)]), "touching");
        assert!(refused(&[(10, 12), (5, 7)]), "out of order");
        assert!(refused(&[(7, 5)]), "inverted");
        assert!(refused(&[(4_000, 4_096)]), "past the grid");
        assert!(!refused(&[(0, 3), (5, 6), (4_095, 4_095)]));
        let wide = GridGeometry::new(CurveKind::Morton, 3, 11);
        assert!(matches!(CompressedWriter::new(wide, 0), Err(RegionEncodeError::IdTooWide { .. })));
    }

    proptest! {
        /// The descent's answer is the k-way slice merge's, as a
        /// `Region` and as `encode_compressed` bytes; a paper codec or
        /// run-list operand is not a k³ payload.
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
            for codec in [RegionCodec::Naive, RegionCodec::RunVskip] {
                prop_assert!(open_k3(&codec.encode(&regions[0]).expect("encode"))
                    .expect("header")
                    .is_none());
            }
        }

        /// One build pass picks what measuring both picked, byte for
        /// byte, from dense boxes down to a few scattered cells.
        #[test]
        fn the_writer_builds_what_measure_then_build_did(
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
            let bytes = encode_compressed(&region).expect("encode");
            prop_assert_eq!(&bytes, &measure_then_build(&region));
            prop_assert_eq!(RegionCodec::decode(&bytes).expect("decode"), region);
        }
    }
}
