//! An encoded REGION opened as the naive run list `EXTRACT_DATA` walks.
//!
//! A DATA_REGION's region part is the naive encoding — 8 bytes per run
//! — which is exactly what the default tablespace stores.  So a
//! canonical naive operand is used as it stands: one sweep checks it
//! and sums its voxels, and its header and records become the answer's
//! region part verbatim.  A k³ operand is drained once, a leaf at a
//! time, straight into naive records.  Anything else
//! — another paper codec, or bytes that are inverted, out of the grid,
//! not canonical or corrupt — goes through [`RegionCodec::decode`],
//! which normalises the list or names the error, so every input gives
//! what decoding it always gave.

use crate::encode::{check_width, split_header, RegionCodec, RegionEncodeError, HEADER_LEN};
use crate::geometry::GridGeometry;
use qbism_coding::K3Cursor;
use std::borrow::Cow;

/// A REGION's naive encoding — header, then one `<start, end>` pair of
/// little-endian `u32`s per run — with its geometry and voxel count.
#[derive(Debug, Clone)]
pub struct NaiveRuns<'a> {
    geom: GridGeometry,
    /// The operand's own bytes when they were canonical naive ones;
    /// otherwise the runs written out once.  Empty for a grid too wide
    /// for naive words, which [`NaiveRuns::encoded`] refuses.
    bytes: Cow<'a, [u8]>,
    voxels: u64,
}

impl<'a> NaiveRuns<'a> {
    /// Opens an encoded REGION of any codec.  The result (or error) is
    /// that of [`RegionCodec::decode`] followed by a naive encode.
    pub fn open(bytes: &'a [u8]) -> Result<Self, RegionEncodeError> {
        let (codec, geom, count, body) = split_header(bytes)?;
        let fits = check_width(RegionCodec::Naive, geom).is_ok();
        let opened = match codec {
            RegionCodec::Naive => {
                let len = count.checked_mul(8).and_then(|records| records.checked_add(HEADER_LEN));
                len.and_then(|len| bytes.get(..len)).and_then(|stored| {
                    let voxels = canonical_voxels(geom, stored.get(HEADER_LEN..)?)?;
                    Some(NaiveRuns { geom, bytes: Cow::Borrowed(stored), voxels })
                })
            }
            RegionCodec::K3Tree if fits => drain_k3(geom, count, body),
            _ => None,
        };
        if let Some(opened) = opened {
            return Ok(opened);
        }
        let region = RegionCodec::decode(bytes)?;
        // Naive encoding fails only on the width `encoded` checks again.
        let bytes = RegionCodec::Naive.encode(&region).unwrap_or_default();
        Ok(NaiveRuns { geom, bytes: Cow::Owned(bytes), voxels: region.voxel_count() })
    }

    /// The grid the REGION lives on.
    pub fn geometry(&self) -> GridGeometry {
        self.geom
    }

    /// Voxels covered.
    pub fn voxel_count(&self) -> u64 {
        self.voxels
    }

    /// The naive encoding, as [`RegionCodec::Naive`]'s `encode` writes
    /// it — or its error when the grid's ids do not fit `u32` words.
    pub fn encoded(&self) -> Result<&[u8], RegionEncodeError> {
        check_width(RegionCodec::Naive, self.geom)?;
        Ok(&self.bytes)
    }

    /// Each run as an `(offset, len)` piece of a VOLUME in the same
    /// curve order, in id order.
    pub fn pieces(&self) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        let records = self.bytes.get(HEADER_LEN..).unwrap_or_default();
        records.as_chunks::<8>().0.iter().map(|&[s0, s1, s2, s3, e0, e1, e2, e3]| {
            let start = u32::from_le_bytes([s0, s1, s2, s3]);
            let end = u32::from_le_bytes([e0, e1, e2, e3]);
            (u64::from(start), u64::from(end - start) + 1)
        })
    }
}

/// The voxel count of naive `records` when every run is in order, not
/// inverted, not touching its predecessor and inside the grid — the one
/// sweep; `None` sends the bytes to the decoder.
fn canonical_voxels(geom: GridGeometry, records: &[u8]) -> Option<u64> {
    let cells = geom.cell_count();
    // Smallest start the next run may have in canonical order.
    let (mut floor, mut voxels, mut ok) = (0u64, 0u64, true);
    for &[s0, s1, s2, s3, e0, e1, e2, e3] in records.as_chunks::<8>().0 {
        let start = u64::from(u32::from_le_bytes([s0, s1, s2, s3]));
        let end = u64::from(u32::from_le_bytes([e0, e1, e2, e3]));
        ok &= floor <= start && start <= end && end < cells;
        floor = end + 2;
        voxels = voxels.wrapping_add(end.wrapping_sub(start).wrapping_add(1));
    }
    ok.then_some(voxels)
}

/// A k³ payload drained once, a leaf at a time, into naive records;
/// `None` (the decoder then names the error) unless it drains cleanly
/// into `count` canonical runs inside the grid.
fn drain_k3(geom: GridGeometry, count: usize, body: &[u8]) -> Option<NaiveRuns<'static>> {
    let cursor = K3Cursor::new(body).ok()?;
    let cells = geom.cell_count();
    let mut bytes = Vec::with_capacity(HEADER_LEN + 8 * cursor.runs_hint().min(count));
    RegionCodec::Naive.write_header(geom, count, &mut bytes);
    let (mut floor, mut voxels, mut runs, mut ok) = (0u64, 0u64, 0usize, true);
    cursor
        .drain_blocks(|block| {
            for &(start, end) in block {
                ok &= floor <= start && start <= end && end < cells;
                floor = end.saturating_add(2);
                voxels = voxels.wrapping_add(end.wrapping_sub(start).wrapping_add(1));
                bytes.extend_from_slice(&(start as u32).to_le_bytes());
                bytes.extend_from_slice(&(end as u32).to_le_bytes());
            }
            runs += block.len();
        })
        .ok()?;
    (ok && runs == count).then_some(NaiveRuns { geom, bytes: Cow::Owned(bytes), voxels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use proptest::prelude::*;
    use qbism_sfc::CurveKind;

    /// The naive encoding, the `(offset, len)` pieces and the voxel count.
    type Opened = Result<(Vec<u8>, Vec<(u64, u64)>, u64), RegionEncodeError>;

    /// The path the opener replaces: decode, then encode and list the
    /// runs of the decoded REGION.
    fn decoded(bytes: &[u8]) -> Opened {
        let region = RegionCodec::decode(bytes)?;
        let pieces = region.runs().iter().map(|r| (r.start, r.len())).collect();
        Ok((RegionCodec::Naive.encode(&region)?, pieces, region.voxel_count()))
    }

    fn opened(bytes: &[u8]) -> Opened {
        let runs = NaiveRuns::open(bytes)?;
        Ok((runs.encoded()?.to_vec(), runs.pieces().collect(), runs.voxel_count()))
    }

    fn naive_bytes(geom: GridGeometry, runs: &[(u64, u64)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        RegionCodec::Naive.write_header(geom, runs.len(), &mut bytes);
        for &(start, end) in runs {
            bytes.extend_from_slice(&(start as u32).to_le_bytes());
            bytes.extend_from_slice(&(end as u32).to_le_bytes());
        }
        bytes
    }

    #[test]
    fn canonical_naive_bytes_are_used_in_place() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let region = Region::from_ids(g, vec![1, 2, 3, 90, 91, 4_000]);
        let mut bytes = RegionCodec::Naive.encode(&region).expect("encode");
        bytes.extend_from_slice(b"trailing bytes the decoder ignores");
        let runs = NaiveRuns::open(&bytes).expect("open");
        assert!(matches!(runs.bytes, Cow::Borrowed(_)));
        assert_eq!(runs.encoded().expect("fits"), &bytes[..HEADER_LEN + 24]);
        assert_eq!(runs.pieces().collect::<Vec<_>>(), [(1, 3), (90, 2), (4_000, 1)]);
        assert_eq!(runs.voxel_count(), 6);
    }

    #[test]
    fn every_form_the_sweep_refuses_goes_to_the_decoder() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let lists: [&[(u64, u64)]; 6] = [
            &[(10, 12), (3, 4)], // unsorted
            &[(3, 4), (5, 9)],   // adjacent
            &[(3, 8), (5, 9)],   // overlapping
            &[(3, 8), (3, 8)],   // duplicate
            &[(9, 3)],           // inverted
            &[(4_000, 4_096)],   // past the grid
        ];
        for list in lists {
            let bytes = naive_bytes(g, list);
            assert_eq!(opened(&bytes), decoded(&bytes), "{list:?}");
        }
        let truncated = &naive_bytes(g, &[(1, 2), (5, 6)])[..HEADER_LEN + 12];
        assert_eq!(opened(truncated), Err(RegionEncodeError::Truncated));
    }

    /// A header claiming 33-bit ids decodes (no run needs them), opens,
    /// and is refused only when its naive encoding is asked for — where
    /// the decode path refused it too.
    #[test]
    fn a_grid_too_wide_for_naive_words_opens_and_refuses_to_encode() {
        let g = GridGeometry::new(CurveKind::Morton, 3, 10);
        for codec in [RegionCodec::Naive, RegionCodec::Elias] {
            let mut bytes = codec.encode(&Region::empty(g)).expect("encode");
            bytes[5] = 11;
            let runs = NaiveRuns::open(&bytes).expect("decodes");
            assert_eq!(runs.voxel_count(), 0);
            assert!(matches!(runs.encoded(), Err(RegionEncodeError::IdTooWide { .. })));
            assert!(matches!(decoded(&bytes), Err(RegionEncodeError::IdTooWide { .. })));
        }
    }

    proptest! {
        /// Hand-written naive lists of every shape, every paper codec
        /// and the queryable one: the opener gives the decode path's
        /// bytes, pieces and voxel count, or its error.
        #[test]
        fn the_opener_is_the_decode_path(
            spans in proptest::collection::vec((0u64..4_200, 0u64..30), 0..40),
            shuffle in any::<bool>(),
            cut in any::<u32>(),
            flip in any::<u32>(),
        ) {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
            let mut list: Vec<(u64, u64)> = spans.iter().map(|&(s, l)| (s, s + l)).collect();
            if !shuffle {
                list.sort_unstable();
            }
            let raw = naive_bytes(g, &list);
            prop_assert_eq!(opened(&raw), decoded(&raw));
            let cells = g.cell_count();
            let ids = list.iter().flat_map(|&(s, e)| s..=e.min(cells - 1)).filter(|&id| id < cells);
            let region = Region::from_ids(g, ids.collect());
            for codec in RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree]) {
                let bytes = codec.encode(&region).expect("encode");
                prop_assert_eq!(opened(&bytes), decoded(&bytes));
                let short = &bytes[..cut as usize % (bytes.len() + 1)];
                prop_assert_eq!(opened(short), decoded(short));
                let mut flipped = bytes.clone();
                let bit = flip as usize % (bytes.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(opened(&flipped), decoded(&flipped));
            }
        }
    }
}
