//! Queryable compressed REGION byte strings.
//!
//! The Figure-4 codecs ([`RegionCodec::Naive`], `Elias`, the octant
//! packings) are storage studies: compact, but a kernel must fully
//! decode them before operating.  The two *queryable* codecs added for
//! compressed-domain execution — [`RegionCodec::RunVskip`] (delta+varint
//! run list with skip blocks) and [`RegionCodec::K3Tree`] (octree
//! bitmap) — open as a [`CompressedCursor`] instead: a streaming,
//! seekable run source that the one [`crate::kernel`] family merges,
//! like any other cursor, without ever materializing the run vector.
//!
//! [`encode_compressed`] is the storage policy: it measures both ways
//! and builds the smaller byte string, so sparse boundary-dominated
//! structures land in the skip-block run list and dense blobs in the
//! k³-tree.

use crate::encode::{split_header, RegionCodec, RegionEncodeError};
use crate::geometry::GridGeometry;
use crate::region::Region;
use crate::run::Run;
use qbism_coding::{K3Cursor, RunCursor, RunListCursor};

/// A streaming cursor over either queryable compressed payload.
#[derive(Debug, Clone)]
pub enum CompressedCursor<'a> {
    /// Delta+varint run list with a skip-block directory.
    RunList(RunListCursor<'a>),
    /// k³-tree octree bitmap.
    K3(K3Cursor<'a>),
}

impl RunCursor for CompressedCursor<'_> {
    fn peek(&self) -> Option<(u64, u64)> {
        match self {
            CompressedCursor::RunList(c) => c.peek(),
            CompressedCursor::K3(c) => c.peek(),
        }
    }

    fn advance(&mut self) -> qbism_coding::Result<()> {
        match self {
            CompressedCursor::RunList(c) => c.advance(),
            CompressedCursor::K3(c) => c.advance(),
        }
    }

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
    pub fn to_runs_vec(mut self) -> Result<Vec<Run>, RegionEncodeError> {
        // Both cursors bounded their header's run count by the payload
        // size when they opened, so it is safe to reserve for.
        let mut out = Vec::with_capacity(match &self {
            CompressedCursor::RunList(c) => c.run_count(),
            CompressedCursor::K3(c) => c.run_count(),
        });
        while let Some((start, end)) = self.peek() {
            out.push(Run::new(start, end));
            self.advance()?;
        }
        Ok(out)
    }
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
    let cursor = match codec {
        RegionCodec::RunVskip => CompressedCursor::RunList(RunListCursor::new(body)?),
        RegionCodec::K3Tree => CompressedCursor::K3(K3Cursor::new(body)?),
        other => {
            return Err(RegionEncodeError::BadTag(match other {
                RegionCodec::Naive => 0,
                RegionCodec::Elias => 1,
                _ => 2,
            }))
        }
    };
    Ok((geom, cursor))
}

/// True if `bytes` is an encoded REGION in one of the queryable
/// compressed formats (cheap header sniff, no payload access).
pub fn is_compressed(bytes: &[u8]) -> bool {
    matches!(split_header(bytes), Ok((RegionCodec::RunVskip | RegionCodec::K3Tree, _, _, _)))
}

/// Encodes a region in the smaller of the two queryable compressed
/// formats — run lists win on sparse boundary-heavy structures,
/// k³-trees on dense blobs.
pub fn encode_compressed(region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
    // Measure both, build only the winner (ties go to the run list).
    let vskip = RegionCodec::RunVskip.encoded_len(region)?;
    let k3 = RegionCodec::K3Tree.encoded_len(region)?;
    if vskip <= k3 { RegionCodec::RunVskip } else { RegionCodec::K3Tree }.encode(region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_sfc::CurveKind;

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
        for bytes in [&dense_bytes, &sparse_bytes] {
            let (_, mut cursor) = compressed_cursor(bytes).expect("open");
            cursor.seek(1 << 17).expect("seek");
            assert!(cursor.peek().is_some());
        }
        let (_, mut cursor) = compressed_cursor(&sparse_bytes).expect("open");
        cursor.seek(97 * 2_700).expect("seek far");
        assert_eq!(cursor.peek(), Some((97 * 2_700, 97 * 2_700)));
        assert!(cursor.skip_count() > 0, "far seek should gallop, not scan");
    }
}
