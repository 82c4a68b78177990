//! The skip-block run list: delta+varint runs under a flat directory.
//!
//! No REGION is stored in this layout any more — [`crate::k3tree`] is the
//! one queryable REGION codec.  The module is kept only because the
//! frozen benchmark's `coding.runvskip_*` probes compile against
//! [`encode_runs`], [`RunListCursor::new`] and its [`RunCursor`] impl;
//! it is deleted when `benchmark/` is unfrozen (ROADMAP item 14).
//!
//! Layout: the run count and the block count as LEB128 varints, one
//! 16-byte directory entry per 32 runs (`first_start, last_end,
//! max_run_len, byte_offset` as `u32` LE), then per run the gap to the
//! previous run (not for a block's first) and the run length minus one,
//! each a varint.  A block's deltas restart from its entry,
//! so the cursor decodes one block at a time, and a seek gallops by
//! binary search over the entries, decoding nothing in between.

use crate::varint::{read_uvarint, write_uvarint};
use crate::{first_reaching, CodingError, Result, RunCursor};

/// Runs per skip block.
const SKIP_BLOCK_RUNS: usize = 32;

/// Bytes per fixed-width directory entry.
const DIR_ENTRY_BYTES: usize = 16;

/// Encodes a canonical run list (sorted, disjoint, non-adjacent,
/// inclusive `(start, end)` pairs, ids below 2³²) into the skip-block
/// payload.
pub fn encode_runs<R: Copy + Into<(u64, u64)>>(runs: &[R]) -> Result<Vec<u8>> {
    let n_blocks = runs.len().div_ceil(SKIP_BLOCK_RUNS);
    let mut dir = Vec::with_capacity(n_blocks * DIR_ENTRY_BYTES);
    let mut body = Vec::with_capacity(runs.len() * 3);
    let mut prev_end = 0u64;
    for (b, block) in runs.chunks(SKIP_BLOCK_RUNS).enumerate() {
        let byte_off = body.len() as u64;
        let (mut first_start, mut max_run) = (0u64, 0u64);
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
                    write_uvarint(&mut body, start - prev_end - 2);
                }
            }
            if j == 0 {
                first_start = start;
            }
            write_uvarint(&mut body, end - start);
            max_run = max_run.max(end - start + 1);
            prev_end = end;
        }
        for word in [first_start, prev_end, max_run, byte_off] {
            dir.extend_from_slice(&(word as u32).to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(8 + dir.len() + body.len());
    write_uvarint(&mut out, runs.len() as u64);
    write_uvarint(&mut out, n_blocks as u64);
    out.extend_from_slice(&dir);
    out.extend_from_slice(&body);
    Ok(out)
}

/// Streaming decoder over a skip-block payload, a block at a time.
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
        // The directory must fit in `bytes`: every entry read later is
        // inside it.
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

    /// Word `k` of directory entry `b` (0 `first_start`, 1 `last_end`,
    /// 3 `byte_offset`).
    fn entry_word(&self, b: usize, k: usize) -> Result<u64> {
        let at = self.dir_base + b * DIR_ENTRY_BYTES + 4 * k;
        match self.bytes.get(at..at + 4) {
            Some(&[b0, b1, b2, b3]) => Ok(u64::from(u32::from_le_bytes([b0, b1, b2, b3]))),
            _ => Err(CodingError::Corrupt("skip directory entry out of range")),
        }
    }

    /// Decodes block `b` — its deltas restart from the directory entry —
    /// and positions the cursor on its first run.
    fn enter_block(&mut self, b: usize) -> Result<()> {
        let runs = (self.count - b * SKIP_BLOCK_RUNS).min(SKIP_BLOCK_RUNS);
        let first_start = self.entry_word(b, 0)?;
        let mut pos = self.runs_base + self.entry_word(b, 3)? as usize;
        self.block.clear();
        for _ in 0..runs {
            let start = match self.block.last() {
                None => first_start,
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

    fn seek(&mut self, target: u64) -> Result<()> {
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
            let (mut lo, mut hi) = (self.block_index + 1, self.n_blocks);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.entry_word(mid, 1)? < target {
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

    fn skips(&self) -> u64 {
        self.skips
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

    /// Every run the cursor hands out from where it stands.
    fn drain(mut c: RunListCursor<'_>) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        while let Some(run) = c.peek() {
            out.push(run);
            c.advance()?;
        }
        Ok(out)
    }

    #[test]
    fn roundtrips_including_block_boundaries() {
        for n in [0usize, 1, 31, 32, 33, 200] {
            let runs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 10, i * 10 + 3)).collect();
            let bytes = encode_runs(&runs).unwrap();
            assert_eq!(drain(RunListCursor::new(&bytes).unwrap()).unwrap(), runs, "n={n}");
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
    fn non_canonical_input_is_rejected() {
        assert!(encode_runs(&[(5, 3)]).is_err());
        assert!(encode_runs(&[(0, 3), (4, 6)]).is_err(), "adjacent runs must be merged");
        assert!(encode_runs(&[(10, 12), (5, 7)]).is_err());
        assert!(encode_runs(&[(0, 1u64 << 33)]).is_err(), "ids wider than u32");
    }

    #[test]
    fn hostile_run_count_is_rejected_not_allocated() {
        // A run count of 2^63 - 1 with the matching block count: the
        // directory it implies is not there.
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        write_uvarint(&mut bytes, (i64::MAX as u64).div_ceil(SKIP_BLOCK_RUNS as u64));
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(RunListCursor::new(&bytes).err(), Some(CodingError::UnexpectedEnd));
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
            if let Ok(c) = RunListCursor::new(&bytes[..cut]) {
                let _ = drain(c);
            }
        }
    }

    proptest! {
        #[test]
        fn fuzz_roundtrip_random_regions(ids in proptest::collection::vec(0u64..200_000, 0..600)) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs).unwrap();
            prop_assert_eq!(drain(RunListCursor::new(&bytes).unwrap()).unwrap(), runs);
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
            prop_assert_eq!(drain(c).unwrap(), want);
        }

        #[test]
        fn fuzz_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            if let Ok(c) = RunListCursor::new(&bytes) {
                let _ = drain(c);
            }
        }
    }
}
