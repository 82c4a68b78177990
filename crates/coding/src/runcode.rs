//! Queryable compressed run lists: delta+varint coding under a
//! fixed-interval skip-block directory.
//!
//! The operational REGION representation is a sorted list of maximal
//! `(start, end)` id runs.  This codec stores it in the
//! Brisaboa-et-al. spirit — compact *and* directly queryable:
//!
//! * **delta+varint payload** — per run, the gap to the previous run
//!   and the run length, each LEB128-coded ([`crate::read_uvarint`]),
//!   so short runs and short gaps (the power-law mass of EQ 1) cost a
//!   byte or two instead of the naive eight;
//! * **fixed-interval skip blocks** — every [`SKIP_BLOCK_RUNS`] runs a
//!   fixed-width directory entry records the block's bounding SFC
//!   range (`first_start ..= last_end`), its longest run, and the byte
//!   offset of its payload.  Each block's deltas restart from the
//!   directory entry, so a cursor can land on any block and decode it
//!   without touching the bytes before it.
//!
//! [`RunListCursor`] is a block cursor: it decodes one skip block into
//! a reused 32-run buffer and answers `peek` / `advance` / `seek` from
//! it.  A seek past the decoded block uses the directory to gallop: a
//! binary search over bounding ranges jumps straight to the first block
//! that can contain the target id, skipping the payload of every block
//! in between *without decoding it* (one [`RunCursor::skips`] credit a
//! block) — the streamed set operations in `qbism_region` ride this to
//! merge two compressed operands while touching only the bytes near
//! their intersection.
//!
//! The compressed tablespace stores [`crate::k3tree`]'s layout — the
//! same pairs under an octree directory instead of this flat one — and
//! falls back to this one only for REGIONs of a few runs.

use crate::varint::{read_uvarint, uvarint_len, write_uvarint};
use crate::{first_reaching, CodingError, Result, RunCursor};

/// Runs per skip block (a directory entry every 32 runs costs half a
/// byte per run against typical 2–4 byte coded runs).
pub const SKIP_BLOCK_RUNS: usize = 32;

/// Bytes per fixed-width directory entry:
/// `first_start, last_end, max_run_len, byte_offset` as `u32` LE.
const DIR_ENTRY_BYTES: usize = 16;

/// Encodes a canonical run list (sorted, disjoint, non-adjacent,
/// inclusive `(start, end)` pairs) into the skip-block payload.
///
/// Ids must fit in 32 bits (the directory words); the id-width gate at
/// the REGION layer enforces the same limit the naive codec has.
pub fn encode_runs<R: Copy + Into<(u64, u64)>>(runs: &[R]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    encode_runs_into(&mut out, runs)?;
    Ok(out)
}

/// [`encode_runs`] appending to `out` (on error, a partial payload).
pub fn encode_runs_into<R: Copy + Into<(u64, u64)>>(out: &mut Vec<u8>, runs: &[R]) -> Result<()> {
    out.reserve(8 + runs.len() * 3);
    write_uvarint(out, runs.len() as u64);
    let n_blocks = runs.len().div_ceil(SKIP_BLOCK_RUNS);
    write_uvarint(out, n_blocks as u64);
    let dir_base = out.len();
    out.resize(dir_base + n_blocks * DIR_ENTRY_BYTES, 0);
    let runs_base = out.len();
    let mut prev_end = 0u64;
    for (b, block) in runs.chunks(SKIP_BLOCK_RUNS).enumerate() {
        let byte_off = (out.len() - runs_base) as u64;
        let (first_start, _) = block[0].into();
        let mut max_run = 0u64;
        for (j, &run) in block.iter().enumerate() {
            let (start, end) = run.into();
            if end < start {
                return Err(CodingError::Corrupt("inverted run"));
            }
            if end > u64::from(u32::MAX) {
                return Err(CodingError::ValueOutOfDomain { value: end, codec: "run-vskip" });
            }
            if b > 0 || j > 0 {
                if start < prev_end + 2 {
                    return Err(CodingError::Corrupt("run list not canonical"));
                }
                if j > 0 {
                    write_uvarint(out, start - prev_end - 2);
                }
            }
            write_uvarint(out, end - start);
            max_run = max_run.max(end - start + 1);
            prev_end = end;
        }
        let entry = dir_base + b * DIR_ENTRY_BYTES;
        out[entry..entry + 4].copy_from_slice(&(first_start as u32).to_le_bytes());
        out[entry + 4..entry + 8].copy_from_slice(&(prev_end as u32).to_le_bytes());
        out[entry + 8..entry + 12].copy_from_slice(&(max_run as u32).to_le_bytes());
        out[entry + 12..entry + 16].copy_from_slice(&(byte_off as u32).to_le_bytes());
    }
    Ok(())
}

/// Encoded payload size without building it.
pub fn encoded_len<R: Copy + Into<(u64, u64)>>(runs: &[R]) -> usize {
    let mut sizer = Sizer::default();
    for &run in runs {
        let (start, end) = run.into();
        sizer.push(start, end);
    }
    sizer.encoded_len()
}

/// [`encoded_len`] of a run list seen a run at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizer {
    runs: usize,
    /// Bytes of the gap and length varints so far.
    deltas: usize,
    prev_end: u64,
}

impl Sizer {
    /// Counts the next run of the list.
    pub fn push(&mut self, start: u64, end: u64) {
        if !self.runs.is_multiple_of(SKIP_BLOCK_RUNS) {
            self.deltas += uvarint_len(start.saturating_sub(self.prev_end + 2));
        }
        self.deltas += uvarint_len(end.saturating_sub(start));
        self.runs += 1;
        self.prev_end = end;
    }

    /// Payload size of the runs pushed so far.
    pub fn encoded_len(&self) -> usize {
        let n_blocks = self.runs.div_ceil(SKIP_BLOCK_RUNS);
        let directory = uvarint_len(n_blocks as u64) + n_blocks * DIR_ENTRY_BYTES;
        uvarint_len(self.runs as u64) + directory + self.deltas
    }
}

/// One parsed skip-directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// First id covered by the block.
    pub first_start: u64,
    /// Last id covered by the block (ends are increasing, so this
    /// bounds every run in it).
    pub last_end: u64,
    /// Longest run in the block, in ids.
    pub max_run_len: u64,
    /// Byte offset of the block's payload inside the runs area.
    pub byte_offset: u64,
}

/// Streaming decoder over a skip-block payload, a block at a time.
///
/// The cursor decodes one skip block into a reused buffer and answers
/// `peek` / `advance` / `seek` from it; [`RunListCursor::seek`] gallops
/// through the directory instead of decoding skipped blocks.
#[derive(Debug, Clone)]
pub struct RunListCursor<'a> {
    bytes: &'a [u8],
    runs_base: usize,
    dir_base: usize,
    count: usize,
    n_blocks: usize,
    /// The decoded runs of block `block_index`; `block[at]` is the
    /// current one.  Empty once the stream is exhausted.
    block: Vec<(u64, u64)>,
    block_index: usize,
    at: usize,
    skips: u64,
}

impl<'a> RunListCursor<'a> {
    /// Parses the payload header and decodes the first block.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut pos = 0;
        let count = read_uvarint(bytes, &mut pos)? as usize;
        let n_blocks = read_uvarint(bytes, &mut pos)? as usize;
        if n_blocks != count.div_ceil(SKIP_BLOCK_RUNS) {
            return Err(CodingError::Corrupt("skip directory size mismatch"));
        }
        let dir_base = pos;
        // This also bounds the untrusted `count` (it sizes `decode_all`'s
        // allocation): the directory must fit in `bytes`, and it has 16
        // bytes for every 32 runs, so `count <= 2 * bytes.len()`.
        let runs_base = n_blocks
            .checked_mul(DIR_ENTRY_BYTES)
            .and_then(|dir| dir_base.checked_add(dir))
            .filter(|&b| b <= bytes.len())
            .ok_or(CodingError::UnexpectedEnd)?;
        let mut cursor = RunListCursor {
            bytes,
            runs_base,
            dir_base,
            count,
            n_blocks,
            block: Vec::with_capacity(count.min(SKIP_BLOCK_RUNS)),
            block_index: 0,
            at: 0,
            skips: 0,
        };
        if count > 0 {
            cursor.enter_block(0)?;
        }
        Ok(cursor)
    }

    /// Total runs in the payload.
    pub fn run_count(&self) -> usize {
        self.count
    }

    /// Skip-directory entry `b`.
    pub fn skip_entry(&self, b: usize) -> Result<SkipEntry> {
        if b >= self.n_blocks {
            return Err(CodingError::Corrupt("skip entry out of range"));
        }
        let at = self.dir_base + b * DIR_ENTRY_BYTES;
        let word = |o: usize| -> u64 {
            let mut w = [0u8; 4];
            w.copy_from_slice(&self.bytes[at + o..at + o + 4]);
            u64::from(u32::from_le_bytes(w))
        };
        Ok(SkipEntry {
            first_start: word(0),
            last_end: word(4),
            max_run_len: word(8),
            byte_offset: word(12),
        })
    }

    /// Decodes block `b` — its deltas restart from the directory entry —
    /// and positions the cursor on its first run.
    fn enter_block(&mut self, b: usize) -> Result<()> {
        let entry = self.skip_entry(b)?;
        let runs = (self.count - b * SKIP_BLOCK_RUNS).min(SKIP_BLOCK_RUNS);
        let mut pos = self.runs_base + entry.byte_offset as usize;
        self.block.clear();
        for _ in 0..runs {
            let start = match self.block.last() {
                None => entry.first_start,
                Some(&(_, prev_end)) => {
                    let gap = read_uvarint(self.bytes, &mut pos)?;
                    prev_end.checked_add(gap).and_then(|s| s.checked_add(2)).ok_or(OVERFLOW)?
                }
            };
            let len = read_uvarint(self.bytes, &mut pos)?;
            self.block.push((start, start.checked_add(len).ok_or(OVERFLOW)?));
        }
        self.block_index = b;
        self.at = 0;
        Ok(())
    }

    /// Past the last run, for good.
    fn exhaust(&mut self) {
        self.block.clear();
        (self.block_index, self.at) = (self.n_blocks, 0);
    }

    /// Drains the cursor into a `(start, end)` vector.  Test/API-edge
    /// helper — kernel code streams instead (rule `kernel-materialize`
    /// bans this call there, at zero hops and through helpers).
    pub fn decode_all(self) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::with_capacity(self.count);
        self.drain_blocks(|block| out.extend_from_slice(block))?;
        Ok(out)
    }

    /// Drains the cursor a decoded skip block at a time: `f` sees the
    /// runs `peek` / `advance` would have handed out one by one, and the
    /// same error ends the drain where `advance` would have returned it.
    pub fn drain_blocks(mut self, mut f: impl FnMut(&[(u64, u64)])) -> Result<()> {
        loop {
            match self.block.get(self.at..) {
                Some(ready) if !ready.is_empty() => f(ready),
                _ => return Ok(()),
            }
            if self.block_index + 1 >= self.n_blocks {
                return Ok(());
            }
            self.enter_block(self.block_index + 1)?;
        }
    }
}

const OVERFLOW: CodingError = CodingError::Corrupt("run arithmetic overflows");

impl RunCursor for RunListCursor<'_> {
    #[inline]
    fn peek(&self) -> Option<(u64, u64)> {
        self.block.get(self.at).copied()
    }

    #[inline]
    fn advance(&mut self) -> Result<()> {
        self.at += 1;
        if self.at < self.block.len() {
            return Ok(());
        }
        if self.block_index + 1 < self.n_blocks {
            return self.enter_block(self.block_index + 1);
        }
        self.exhaust();
        Ok(())
    }

    #[inline]
    fn seek(&mut self, target: u64) -> Result<()> {
        // Most seeks of a merge find the cursor already there.
        if self.peek().is_none_or(|(_, end)| end >= target) {
            return Ok(());
        }
        self.seek_past_current(target)
    }

    fn skips(&self) -> u64 {
        self.skips
    }
}

impl RunListCursor<'_> {
    /// [`RunCursor::seek`] once the current run is known to end before
    /// `target`.
    fn seek_past_current(&mut self, target: u64) -> Result<()> {
        loop {
            let ahead = self.block.get(self.at..).unwrap_or_default();
            match ahead.last() {
                // Exhausted.
                None => return Ok(()),
                Some(&(_, end)) if end >= target => {
                    self.at += first_reaching(ahead, target);
                    return Ok(());
                }
                Some(_) => {}
            }
            // Gallop: this block cannot reach the target, so binary
            // search the directory's bounding ranges and jump, decoding
            // nothing in between.
            let mut lo = self.block_index + 1;
            let mut hi = self.n_blocks;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.skip_entry(mid)?.last_end < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo >= self.n_blocks {
                self.exhaust();
                return Ok(());
            }
            self.skips += (lo - self.block_index) as u64;
            self.enter_block(lo)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn canonical(mut ids: Vec<u64>) -> Vec<(u64, u64)> {
        ids.sort_unstable();
        ids.dedup();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for id in ids {
            match runs.last_mut() {
                Some((_, end)) if *end + 1 == id => *end = id,
                _ => runs.push((id, id)),
            }
        }
        runs
    }

    #[test]
    fn roundtrips_including_block_boundaries() {
        for n in [0usize, 1, 31, 32, 33, 200] {
            let runs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 10, i * 10 + 3)).collect();
            let bytes = encode_runs(&runs).unwrap();
            assert_eq!(bytes.len(), encoded_len(&runs));
            let back = RunListCursor::new(&bytes).unwrap().decode_all().unwrap();
            assert_eq!(back, runs, "n={n}");
        }
    }

    #[test]
    fn seek_gallops_over_blocks_without_decoding() {
        let runs: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i * 100, i * 100 + 5)).collect();
        let bytes = encode_runs(&runs).unwrap();
        let mut c = RunListCursor::new(&bytes).unwrap();
        c.seek(900_000).unwrap();
        assert_eq!(c.peek(), Some((900_000, 900_005)));
        assert!(c.skips() > 100, "directory jumps expected, got {}", c.skips());
        c.seek(999_905).unwrap();
        assert_eq!(c.peek(), Some((999_900, 999_905)));
        c.seek(1_000_000).unwrap();
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn skip_entries_carry_bounds_and_max_run() {
        let runs: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 10, i * 10 + (i % 7))).collect();
        let bytes = encode_runs(&runs).unwrap();
        let c = RunListCursor::new(&bytes).unwrap();
        let e0 = c.skip_entry(0).unwrap();
        assert_eq!(e0.first_start, 0);
        assert_eq!(e0.last_end, runs[31].1);
        assert_eq!(e0.max_run_len, 7);
        let e1 = c.skip_entry(1).unwrap();
        assert_eq!(e1.first_start, 320);
        assert_eq!(e1.last_end, runs[63].1);
    }

    #[test]
    fn non_canonical_input_is_rejected() {
        assert!(encode_runs(&[(5, 3)]).is_err());
        assert!(encode_runs(&[(0, 3), (4, 6)]).is_err(), "adjacent runs must be merged");
        assert!(encode_runs(&[(10, 12), (5, 7)]).is_err());
        assert!(encode_runs(&[(0, 1u64 << 33)]).is_err(), "ids wider than u32");
    }

    #[test]
    fn hostile_run_count_is_rejected_not_allocated() {
        // A run count of 2^63 - 1 with the matching block count: the
        // directory it implies is not there, so `decode_all` never
        // reserves for it.
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        write_uvarint(&mut bytes, (i64::MAX as u64).div_ceil(SKIP_BLOCK_RUNS as u64));
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(RunListCursor::new(&bytes).err(), Some(CodingError::UnexpectedEnd));
        // Any count that does open is at most two runs per byte.
        let bytes = encode_runs(&[(3u64, 9)]).unwrap();
        assert!(RunListCursor::new(&bytes).unwrap().run_count() <= 2 * bytes.len());
    }

    #[test]
    fn a_gap_that_wraps_the_next_start_is_corrupt_not_a_panic() {
        // Two runs in one block; the second's gap is 2^64 − 1.
        let mut bytes = encode_runs(&[(3u64, 9), (20, 21)]).unwrap();
        bytes.truncate(bytes.len() - 2);
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1]);
        assert_eq!(RunListCursor::new(&bytes).err(), Some(OVERFLOW));
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let runs: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 9, i * 9 + 2)).collect();
        let bytes = encode_runs(&runs).unwrap();
        for cut in 0..bytes.len() {
            // Either drains fine (the prefix happened to parse) or
            // errors while decoding — never panics.
            if let Ok(mut c) = RunListCursor::new(&bytes[..cut]) {
                while c.peek().is_some() {
                    if c.advance().is_err() {
                        break;
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn fuzz_roundtrip_random_regions(ids in proptest::collection::vec(0u64..200_000, 0..600)) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs).unwrap();
            prop_assert_eq!(bytes.len(), encoded_len(&runs));
            let back = RunListCursor::new(&bytes).unwrap().decode_all().unwrap();
            prop_assert_eq!(back, runs);
        }

        #[test]
        fn fuzz_seek_matches_linear_scan(
            ids in proptest::collection::vec(0u64..50_000, 1..400),
            targets in proptest::collection::vec(0u64..55_000, 1..20),
        ) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs).unwrap();
            let mut targets = targets;
            targets.sort_unstable();
            let mut c = RunListCursor::new(&bytes).unwrap();
            for &t in &targets {
                c.seek(t).unwrap();
                let expect = runs.iter().find(|&&(_, e)| e >= t).copied();
                prop_assert_eq!(c.peek(), expect, "target {}", t);
            }
        }

        /// `seek(t)` then drain is the run list from the first run that
        /// reaches `t` on, after an earlier seek and a few steps too.
        #[test]
        fn fuzz_seek_then_drain_is_the_rest_of_the_run_list(
            ids in proptest::collection::vec(0u64..50_000, 1..600),
            first in 0u64..55_000,
            steps in 0usize..80,
            second in 0u64..55_000,
        ) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs).unwrap();
            let mut c = RunListCursor::new(&bytes).unwrap();
            c.seek(first).unwrap();
            for _ in 0..steps {
                c.advance().unwrap();
            }
            c.seek(second).unwrap();
            let from_first = runs.iter().skip_while(|&&(_, end)| end < first).skip(steps);
            let want: Vec<_> = from_first.skip_while(|&&(_, end)| end < second).copied().collect();
            prop_assert_eq!(c.decode_all().unwrap(), want);
        }

        #[test]
        fn fuzz_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            if let Ok(mut c) = RunListCursor::new(&bytes) {
                for _ in 0..400 {
                    if c.peek().is_none() || c.advance().is_err() {
                        break;
                    }
                }
            }
        }
    }
}
