//! k³-tree: an octree bitmap over the SFC id space — the queryable
//! compressed representation for *dense* REGIONs.
//!
//! A k²-tree (Brisaboa et al.) stores a 2-D bitmap as a k-ary tree of
//! bit codes; the k³ variant here uses branching factor 8 over the id
//! space `[0, 8^levels)`, which on a hierarchical curve (Hilbert or
//! Morton) makes every node an axis-aligned octant.  Each child of a
//! node costs two bits — `00` empty, `01` full, `10` partial — and
//! only partial children recurse, so a solid structure collapses to a
//! handful of codes no matter how many voxels it holds: the whole-grid
//! REGION is 16 bits where the naive run codec needs 8 bytes and a
//! run-list codec grows with the boundary.
//!
//! # Payload layout
//!
//! `varint id_bits`, `varint run_count`, then (unless the list is
//! empty) the root node.  A node is **one big-endian 16-bit word** —
//! its eight 2-bit child codes, child 0 in the top two bits — followed
//! by the subtrees of its partial children in id order.  Every node
//! costs exactly 16 bits wherever its codes sit, so this layout is
//! bit-for-bit as long as one that interleaves each code with its
//! subtree; what it buys is navigation a *node* at a time: the cursor
//! loads a word with one bounds-checked read, finds its next non-empty
//! child by `leading_zeros`, emits that child and the full siblings
//! right after it as one interval (the leading codes that an all-`01`
//! word cancels), and skips a pruned subtree by recursing once per set
//! partial bit (`count_ones`) — no per-code reads, and no rank
//! directory, which would cost bytes the tablespace does not have.
//!
//! Nodes appear in depth-first child order, which *is* increasing id
//! order, so [`K3Cursor`] streams maximal `(start, end)` runs directly
//! off the words — no voxel materialization, no intermediate tree.
//! Seeking consumes (but never assembles) the subtrees before the
//! target, counting each pruned subtree as one skip.  The encoder is
//! the same walk backwards: one pass over the runs, cut into maximal
//! aligned octree blocks, with a stack of open nodes whose words are
//! patched in place as their children arrive.

use crate::varint::{read_uvarint, uvarint_len, write_uvarint};
use crate::{CodingError, Result, RunCursor};

const FULL: u16 = 0b01;
const PARTIAL: u16 = 0b10;

/// Widest id space: 11 levels of 3 bits.
const MAX_ID_BITS: u32 = 33;
const MAX_LEVELS: usize = 11;

/// The most covered intervals one payload byte can describe: a 2-byte
/// node word holds eight child codes.
const MAX_RUNS_PER_BYTE: usize = 4;

const CELL_LEVEL_PARTIAL: CodingError = CodingError::Corrupt("partial code at cell level");

/// log2 of the ids one child of the root covers.
fn top_shift(id_bits: u32) -> Result<u32> {
    if id_bits == 0 || id_bits > MAX_ID_BITS {
        return Err(CodingError::ValueOutOfDomain { value: u64::from(id_bits), codec: "k3-tree" });
    }
    Ok(3 * (id_bits.div_ceil(3) - 1))
}

/// Checks one run of a canonical list over `[0, 2^id_bits)`;
/// `min_start` is the previous run's end plus 2 (0 for the first).
fn check_run(start: u64, end: u64, min_start: u64, id_bits: u32) -> Result<()> {
    if end < start || end >> id_bits != 0 {
        return Err(CodingError::Corrupt("run outside the id space"));
    }
    if start < min_start {
        return Err(CodingError::Corrupt("run list not canonical"));
    }
    Ok(())
}

/// Encodes a canonical run list over `[0, 2^id_bits)` into a k³-tree
/// payload (see the module docs for the layout).
pub fn encode_runs<R: Copy + Into<(u64, u64)>>(runs: &[R], id_bits: u32) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    encode_runs_into(&mut out, runs, id_bits)?;
    Ok(out)
}

/// [`encode_runs`] appending to `out` (on error, a partial payload).
///
/// One pass over the runs, each cut into its maximal aligned octree
/// blocks in id order; sibling blocks go into their node's word
/// together.
pub fn encode_runs_into<R: Copy + Into<(u64, u64)>>(
    out: &mut Vec<u8>,
    runs: &[R],
    id_bits: u32,
) -> Result<()> {
    let top = top_shift(id_bits)?;
    write_uvarint(out, u64::from(id_bits));
    write_uvarint(out, runs.len() as u64);
    // Band and structure REGIONs take about one node a run.
    out.reserve(2 * runs.len());
    // Word offsets of the open nodes, root first.
    let mut open: Vec<usize> = Vec::with_capacity(MAX_LEVELS);
    if !runs.is_empty() {
        open_node(out, &mut open);
    }
    let mut prev_lo: Option<u64> = None;
    let mut min_start = 0;
    for &run in runs {
        let (start, end) = run.into();
        check_run(start, end, min_start, id_bits)?;
        min_start = end + 2;
        let mut lo = start;
        while lo <= end {
            // The largest block aligned at `lo` that ends by `end`, and
            // how many of its later siblings do too.
            let len = end - lo + 1;
            let shift = lo.trailing_zeros().min(len.ilog2()).min(top) / 3 * 3;
            let count = (8 - (lo >> shift) % 8).min(len >> shift);
            // Ids increase, so `lo` and the previous group part ways at
            // their highest differing bit — a child index of the deepest
            // node that holds both.  Close what lies below that fork,
            // then descend to the group.
            let fork = prev_lo.map_or(top, |prev| (prev ^ lo).ilog2() / 3 * 3);
            open.truncate(((top - fork) / 3 + 1) as usize);
            let mut level = fork;
            while level > shift {
                set_codes(out, &open, lo >> level, PARTIAL, 1)?;
                open_node(out, &mut open);
                level -= 3;
            }
            set_codes(out, &open, lo >> shift, FULL, count as u32)?;
            prev_lo = Some(lo);
            lo += count << shift;
        }
    }
    Ok(())
}

/// Appends an all-empty node word and makes it the innermost open node.
fn open_node(out: &mut Vec<u8>, open: &mut Vec<usize>) {
    open.push(out.len());
    out.extend_from_slice(&[0, 0]);
}

/// Sets `count` children of the innermost open node, from child
/// `first % 8` on, to `code`.
fn set_codes(out: &mut [u8], open: &[usize], first: u64, code: u16, count: u32) -> Result<()> {
    let word = open.last().and_then(|&at| out.get_mut(at..at + 2));
    let Some([hi, lo]) = word else {
        return Err(CodingError::Corrupt("k3-tree encoder lost its open node"));
    };
    // `code` in each of the top `count` children, moved down to `first`.
    let codes = (code * 0x5555) & !(0xffff_u16.checked_shr(2 * count).unwrap_or(0));
    let [set_hi, set_lo] = (codes >> (2 * (first % 8))).to_be_bytes();
    *hi |= set_hi;
    *lo |= set_lo;
    Ok(())
}

/// Length of [`encode_runs`]' payload without building it.
///
/// The tree costs 16 bits a node, and below the root a node exists
/// exactly when it is mixed: when a *boundary* — a run's `start` or its
/// `end + 1` — falls strictly inside it.  A boundary `at` is strictly
/// inside the nodes of `2^m` ids with `m > at.trailing_zeros()`.  The
/// boundary `prev` before it has already counted those of them it is
/// strictly inside too — every `m` above both `prev.trailing_zeros()`
/// and the highest bit in which the two differ — so `at` adds the nodes
/// with `tz(at) < m <= max(tz(prev), ilog2(prev ^ at))`, `m` a multiple
/// of 3 no larger than the root's children.
pub fn encoded_len<R: Copy + Into<(u64, u64)>>(runs: &[R], id_bits: u32) -> Result<usize> {
    let top = top_shift(id_bits)?;
    let new_nodes = |prev: u64, at: u64| {
        let uncounted_up_to = prev.trailing_zeros().max((prev ^ at).ilog2()).min(top);
        (uncounted_up_to / 3).saturating_sub(at.trailing_zeros() / 3) as usize
    };
    let mut nodes = usize::from(!runs.is_empty());
    // Id 0 is inside nothing (64 trailing zeros): as `prev` it has
    // counted nothing, as `at` it would add nothing.
    let (mut prev, mut min_start) = (0, 0);
    for &run in runs {
        let (start, end) = run.into();
        check_run(start, end, min_start, id_bits)?;
        min_start = end + 2;
        if start > 0 {
            nodes += new_nodes(prev, start);
        }
        nodes += new_nodes(start, end + 1);
        prev = end + 1;
    }
    Ok(uvarint_len(u64::from(id_bits)) + uvarint_len(runs.len() as u64) + 2 * nodes)
}

/// One DFS frame: a node's id range and the children still to visit.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// Id of the node's first cell.
    base: u64,
    /// log2 of the ids one child covers.
    shift: u32,
    /// The node word in the top half, child 0 in the top two bits, the
    /// codes of visited children zeroed.
    codes: u32,
}

/// Streaming run decoder over a k³-tree payload.
#[derive(Debug, Clone)]
pub struct K3Cursor<'a> {
    /// The node words (the payload past its header).
    nodes: &'a [u8],
    /// Byte offset of the next unread node word.
    pos: usize,
    /// The open path, root first; `depth` frames are live.
    frames: [Frame; MAX_LEVELS],
    depth: usize,
    /// Covered interval read ahead of `current`: the one that showed
    /// `current` was maximal.
    lookahead: Option<(u64, u64)>,
    current: Option<(u64, u64)>,
    count: usize,
    skips: u64,
    /// Subtrees wholly before this id may be consumed unassembled.
    prune_below: u64,
}

impl<'a> K3Cursor<'a> {
    /// Parses the payload header and decodes the first run.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let mut pos = 0;
        let id_bits = read_uvarint(bytes, &mut pos)?;
        let top = u32::try_from(id_bits).ok().and_then(|bits| top_shift(bits).ok());
        let top = top.ok_or(CodingError::Corrupt("bad k3-tree id width"))?;
        let count = read_uvarint(bytes, &mut pos)?;
        let nodes = bytes.get(pos..).ok_or(CodingError::UnexpectedEnd)?;
        // The count is untrusted and sizes allocations downstream.
        let count = usize::try_from(count)
            .ok()
            .filter(|&c| c <= nodes.len().saturating_mul(MAX_RUNS_PER_BYTE))
            .ok_or(CodingError::Corrupt("k3-tree run count exceeds its payload"))?;
        let mut cursor = K3Cursor {
            nodes,
            pos: 0,
            frames: [Frame::default(); MAX_LEVELS],
            depth: 0,
            lookahead: None,
            current: None,
            count,
            skips: 0,
            prune_below: 0,
        };
        if count > 0 {
            cursor.enter_node(0, top)?;
            cursor.pump()?;
        }
        Ok(cursor)
    }

    /// Total runs recorded in the header (at most four per payload byte).
    pub fn run_count(&self) -> usize {
        self.count
    }

    /// Reads the next node word, its eight codes checked to be `00`,
    /// `01` or `10`.
    fn read_word(&mut self) -> Result<u16> {
        let Some(&[hi, lo]) = self.nodes.get(self.pos..self.pos + 2) else {
            return Err(CodingError::UnexpectedEnd);
        };
        self.pos += 2;
        let word = u16::from_be_bytes([hi, lo]);
        if word & (word >> 1) & 0x5555 != 0 {
            return Err(CodingError::Corrupt("bad k3-tree child code"));
        }
        Ok(word)
    }

    /// Reads the node that starts at id `base` and makes it the
    /// innermost frame.
    fn enter_node(&mut self, base: u64, shift: u32) -> Result<()> {
        let word = self.read_word()?;
        let frame = self.frames.get_mut(self.depth);
        let frame = frame.ok_or(CodingError::Corrupt("k3-tree deeper than its id space"))?;
        *frame = Frame { base, shift, codes: u32::from(word) << 16 };
        self.depth += 1;
        Ok(())
    }

    /// Assembles the next maximal run into `current`: walks the tree in
    /// id order, joining covered intervals — adjacent FULL children of a
    /// node come as one — while they touch, and pruning subtrees that
    /// end below `prune_below`.
    fn pump(&mut self) -> Result<()> {
        if self.current.is_some() {
            return Ok(());
        }
        let mut run = self.lookahead.take();
        while let Some(frame) = self.depth.checked_sub(1).and_then(|d| self.frames.get_mut(d)) {
            let codes = frame.codes;
            if codes == 0 {
                self.depth -= 1;
                continue;
            }
            // The first unvisited non-empty child, its code moved to the
            // top two bits.
            let child = codes.leading_zeros() / 2;
            let shift = frame.shift;
            let lo = frame.base + (u64::from(child) << shift);
            let rest = codes << (2 * child);
            if rest >> 30 == u32::from(FULL) {
                // It and the FULL siblings right after it: the leading
                // codes that `01` in every position cancels.
                let fulls = (rest ^ (u32::MAX / 3)).leading_zeros() / 2;
                frame.codes = codes & (u32::MAX >> (2 * (child + fulls)));
                let hi = lo + (u64::from(fulls) << shift) - 1;
                if hi < self.prune_below {
                    continue;
                }
                match &mut run {
                    None => run = Some((lo, hi)),
                    Some((_, end)) if *end + 1 == lo => *end = hi,
                    Some(_) => {
                        self.lookahead = Some((lo, hi));
                        break;
                    }
                }
                continue;
            }
            frame.codes = codes & (u32::MAX >> (2 * child + 2));
            let below = shift.checked_sub(3).ok_or(CELL_LEVEL_PARTIAL)?;
            if lo + (1 << shift) <= self.prune_below {
                // The whole subtree precedes the seek target: consume
                // its nodes without assembling runs.
                self.skip_subtree(below)?;
                self.skips += 1;
            } else {
                self.enter_node(lo, below)?;
            }
        }
        self.current = run;
        Ok(())
    }

    /// Reads past one subtree (a node whose children each cover
    /// `2^shift` ids) without emitting anything.
    fn skip_subtree(&mut self, shift: u32) -> Result<()> {
        let partial = self.read_word()? & (PARTIAL * 0x5555);
        if partial != 0 {
            let below = shift.checked_sub(3).ok_or(CELL_LEVEL_PARTIAL)?;
            for _ in 0..partial.count_ones() {
                self.skip_subtree(below)?;
            }
        }
        Ok(())
    }

    /// Drains the cursor into a `(start, end)` vector.  Test/API-edge
    /// helper — kernel code streams instead (rule `kernel-materialize`
    /// bans this call there, at zero hops and through helpers).
    pub fn decode_all(mut self) -> Result<Vec<(u64, u64)>> {
        // `new` bounded the count by the payload size.
        let mut out = Vec::with_capacity(self.count);
        while let Some(run) = self.peek() {
            out.push(run);
            self.advance()?;
        }
        Ok(out)
    }
}

impl RunCursor for K3Cursor<'_> {
    fn peek(&self) -> Option<(u64, u64)> {
        self.current
    }

    fn advance(&mut self) -> Result<()> {
        self.current = None;
        self.pump()
    }

    fn seek(&mut self, target: u64) -> Result<()> {
        self.prune_below = self.prune_below.max(target);
        loop {
            match self.current {
                Some((_, end)) if end >= target => return Ok(()),
                Some(_) => {
                    self.current = None;
                    if let Some((_, la_end)) = self.lookahead {
                        if la_end < target {
                            self.lookahead = None;
                        }
                    }
                    self.pump()?;
                }
                None => {
                    self.pump()?;
                    if self.current.is_none() {
                        return Ok(());
                    }
                }
            }
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

    fn every_third_id() -> Vec<(u64, u64)> {
        canonical((0..8_192).step_by(3).collect())
    }

    /// A solid unaligned box of ids plus 3,000 LCG-scattered cells.
    fn box_plus_speckle() -> Vec<(u64, u64)> {
        let mut ids: Vec<u64> = (250_000..=400_000).collect();
        let mut x = 1994u64;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ids.push((x >> 33) % (1 << 21));
        }
        canonical(ids)
    }

    /// The layout, written down the slow way: a node's word, then the
    /// subtrees of its partial children.
    fn reference_node(out: &mut Vec<u8>, runs: &[(u64, u64)], base: u64, child_size: u64) {
        let at = out.len();
        out.extend_from_slice(&[0, 0]);
        let mut word = 0u16;
        for i in 0..8 {
            let lo = base + i * child_size;
            let hi = lo + child_size - 1;
            let inside = &runs[runs.partition_point(|&(_, end)| end < lo)
                ..runs.partition_point(|&(start, _)| start <= hi)];
            let code = match inside {
                [] => 0,
                [(start, end)] if *start <= lo && *end >= hi => FULL,
                _ => PARTIAL,
            };
            word |= code << (14 - 2 * i);
            if code == PARTIAL {
                reference_node(out, inside, lo, child_size / 8);
            }
        }
        out[at..at + 2].copy_from_slice(&word.to_be_bytes());
    }

    fn reference_encode(runs: &[(u64, u64)], id_bits: u32) -> Vec<u8> {
        let mut out = Vec::new();
        write_uvarint(&mut out, u64::from(id_bits));
        write_uvarint(&mut out, runs.len() as u64);
        if !runs.is_empty() {
            reference_node(&mut out, runs, 0, 8u64.pow(id_bits.div_ceil(3) - 1));
        }
        out
    }

    /// Drives a cursor over untrusted `bytes` — a seek to each target in
    /// turn, then a drain — and checks what must hold whatever the bytes
    /// are: typed errors only, a step count the payload size bounds, and
    /// strictly increasing canonical runs.
    fn drive_untrusted(bytes: &[u8], mut targets: Vec<u64>) {
        let Ok(mut c) = K3Cursor::new(bytes) else { return };
        assert!(c.run_count() <= MAX_RUNS_PER_BYTE * bytes.len());
        targets.sort_unstable();
        let mut steps = 0;
        let mut prev_end: Option<u64> = None;
        let mut check = |run: Option<(u64, u64)>, floor: u64| {
            let Some((start, end)) = run else { return };
            assert!(start <= end, "inverted run {start}..{end}");
            if let Some(prev) = prev_end.filter(|&p| p != end) {
                // A seek may clip a start upward, never past its target.
                assert!(start.max(floor) > prev + 1, "{start}..{end} touches a run ending {prev}");
            }
            prev_end = Some(end);
        };
        for target in targets {
            if c.seek(target).is_err() {
                return;
            }
            check(c.peek(), target);
        }
        while let Some(run) = c.peek() {
            check(Some(run), 0);
            steps += 1;
            assert!(steps <= MAX_RUNS_PER_BYTE * bytes.len(), "more runs than the bytes can hold");
            if c.advance().is_err() {
                return;
            }
        }
    }

    #[test]
    fn dense_regions_collapse_to_a_few_codes() {
        // The full 12-bit id space: root's 8 children all FULL.
        let full = vec![(0u64, (1u64 << 12) - 1)];
        let bytes = encode_runs(&full, 12).unwrap();
        assert!(bytes.len() <= 4, "full grid should cost ~2 header bytes + 16 bits");
        let back = K3Cursor::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn roundtrips_structured_regions() {
        let runs = vec![(0u64, 63), (100, 100), (512, 1023), (2048, 2050)];
        let bytes = encode_runs(&runs, 12).unwrap();
        let back = K3Cursor::new(&bytes).unwrap().decode_all().unwrap();
        assert_eq!(back, runs);
    }

    #[test]
    fn empty_region_roundtrips() {
        let bytes = encode_runs::<(u64, u64)>(&[], 15).unwrap();
        let mut c = K3Cursor::new(&bytes).unwrap();
        assert_eq!(c.peek(), None);
        c.seek(10).unwrap();
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn a_node_is_one_big_endian_word_then_its_partial_subtrees() {
        // 9 id bits, three levels.  Child 0 of the root is partial (one
        // cell, id 9 = child 1 of its child 1), child 7 is full.
        let bytes = encode_runs(&[(9u64, 9), (448, 511)], 9).unwrap();
        let root = 0b10_00_00_00_00_00_00_01u16.to_be_bytes();
        let inner = 0b00_10_00_00_00_00_00_00u16.to_be_bytes();
        let leaf = 0b00_01_00_00_00_00_00_00u16.to_be_bytes();
        assert_eq!(bytes, [&[9, 2][..], &root, &inner, &leaf].concat());
    }

    #[test]
    fn sizes_are_pinned_to_the_interleaved_layout() {
        // Byte lengths recorded with the code-then-subtree layout this
        // one replaced: 16 bits a node either way.
        let pin = |name: &str, runs: Vec<(u64, u64)>, id_bits: u32, pinned: usize| {
            let bytes = encode_runs(&runs, id_bits).unwrap();
            assert_eq!(bytes.len(), pinned, "{name}");
            assert_eq!(encoded_len(&runs, id_bits).unwrap(), pinned, "{name}");
            assert_eq!(K3Cursor::new(&bytes).unwrap().decode_all().unwrap(), runs, "{name}");
        };
        pin("empty", vec![], 15, 2);
        pin("full grid", vec![(0, (1 << 12) - 1)], 12, 4);
        pin("one cell", vec![(1_234, 1_234)], 12, 10);
        pin("every third id", every_third_id(), 13, 2_345);
        pin("box plus speckle", box_plus_speckle(), 21, 15_837);
    }

    #[test]
    fn seek_prunes_earlier_subtrees() {
        // Every third id: every subtree is partial, so a long-distance
        // seek must consume interior subtrees without assembling them.
        let bytes = encode_runs(&every_third_id(), 13).unwrap();
        let mut c = K3Cursor::new(&bytes).unwrap();
        c.seek(8_000).unwrap();
        assert_eq!(c.peek(), Some((8_001, 8_001)));
        // The count the bit-at-a-time cursor took on this payload.
        assert_eq!(c.skips(), 33);
    }

    #[test]
    fn rejects_out_of_space_and_non_canonical_runs() {
        let outside = CodingError::Corrupt("run outside the id space");
        let non_canonical = CodingError::Corrupt("run list not canonical");
        assert_eq!(encode_runs(&[(0u64, 1 << 12)], 12), Err(outside.clone()));
        assert_eq!(encode_runs(&[(5u64, 3)], 12), Err(outside));
        assert_eq!(encode_runs(&[(0u64, 3), (4, 6)], 12), Err(non_canonical.clone()));
        assert_eq!(encode_runs(&[(10u64, 12), (5, 7)], 12), Err(non_canonical.clone()));
        assert_eq!(encoded_len(&[(0u64, 3), (4, 6)], 12), Err(non_canonical));
        for id_bits in [0, 34] {
            let err = CodingError::ValueOutOfDomain { value: u64::from(id_bits), codec: "k3-tree" };
            assert_eq!(encode_runs(&[(0u64, 0)], id_bits), Err(err));
        }
    }

    #[test]
    fn hostile_run_count_is_rejected_not_allocated() {
        // 12 id bits, a varint run count of 2^57 - 1, one empty node:
        // `decode_all` used to reserve the count and abort the process.
        let bytes = [12, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0];
        let err = CodingError::Corrupt("k3-tree run count exceeds its payload");
        assert_eq!(K3Cursor::new(&bytes).err(), Some(err));
        // The most the two node bytes could hold still opens and drains.
        assert_eq!(K3Cursor::new(&[12, 8, 0, 0]).unwrap().decode_all().unwrap(), []);
    }

    #[test]
    fn malformed_nodes_yield_typed_errors() {
        let open = |nodes: &[u8]| K3Cursor::new(&[&[3, 1][..], nodes].concat()).err();
        assert_eq!(open(&[0b11_00_00_00, 0]), Some(CodingError::Corrupt("bad k3-tree child code")));
        assert_eq!(open(&[0b10_00_00_00, 0]), Some(CELL_LEVEL_PARTIAL));
        assert_eq!(open(&[0b01_00_00_00]), Some(CodingError::UnexpectedEnd));
        // No payload at all cannot hold the header's one run.
        assert!(matches!(open(&[]), Some(CodingError::Corrupt(_))));
        // A pruned subtree is validated as it is skipped: three partial
        // children of the root, the third one's node holds a `11`.
        let bytes = [6, 3, 0b10_10_10_01, 0, 0b01_00_00_00, 0, 0b00_00_01_00, 0, 0b00_00_00_11, 0];
        let mut c = K3Cursor::new(&bytes).unwrap();
        assert_eq!(c.peek(), Some((0, 0)));
        assert_eq!(c.clone().seek(24), Err(CodingError::Corrupt("bad k3-tree child code")));
        assert_eq!(c.advance(), Err(CodingError::Corrupt("bad k3-tree child code")));
    }

    #[test]
    fn truncations_and_bit_flips_of_valid_payloads_never_panic() {
        for (runs, id_bits) in [
            (vec![(0u64, 10), (500, 700), (4_000, 4_095)], 12),
            (every_third_id(), 13),
            (box_plus_speckle().into_iter().step_by(40).collect(), 21),
        ] {
            let bytes = encode_runs(&runs, id_bits).unwrap();
            let targets = |seed: usize| {
                (1..4u64).map(|i| (seed as u64 * 2_654_435_761 * i) % (1 << id_bits)).collect()
            };
            for cut in 0..bytes.len() {
                drive_untrusted(&bytes[..cut], vec![]);
                drive_untrusted(&bytes[..cut], targets(cut));
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                drive_untrusted(&flipped, vec![]);
                drive_untrusted(&flipped, targets(bit));
            }
        }
    }

    proptest! {
        #[test]
        fn fuzz_roundtrip_random_regions(ids in proptest::collection::vec(0u64..32_768, 0..500)) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs, 15).unwrap();
            let back = K3Cursor::new(&bytes).unwrap().decode_all().unwrap();
            prop_assert_eq!(back, runs);
        }

        #[test]
        fn fuzz_seek_returns_clipped_suffix(
            ids in proptest::collection::vec(0u64..8_192, 1..300),
            target in 0u64..9_000,
        ) {
            let runs = canonical(ids);
            let bytes = encode_runs(&runs, 13).unwrap();
            let mut c = K3Cursor::new(&bytes).unwrap();
            c.seek(target).unwrap();
            let truth = runs.iter().find(|&&(_, e)| e >= target).copied();
            match (c.peek(), truth) {
                (None, None) => {}
                (Some((got_s, got_e)), Some((want_s, want_e))) => {
                    // The cursor may clip ids below the seek target but
                    // must agree from the target onward.
                    prop_assert_eq!(got_e, want_e);
                    prop_assert_eq!(got_s.max(target), want_s.max(target));
                    prop_assert!(got_s >= want_s);
                }
                (got, want) => prop_assert!(false, "got {:?} want {:?}", got, want),
            }
        }

        /// The streaming encoder against the recursive reference, on
        /// speckle plus runs laid across an octant boundary of every
        /// level.
        #[test]
        fn fuzz_streaming_encoder_matches_reference(
            width_pick in 0usize..3,
            ids in proptest::collection::vec(any::<u64>(), 0..300),
            straddles in proptest::collection::vec((any::<u64>(), 0u32..7, 1u64..600, 1u64..600), 0..6),
        ) {
            let id_bits = [12, 15, 21][width_pick];
            let space = 1u64 << id_bits;
            let mut ids: Vec<u64> = ids.into_iter().map(|id| id % space).collect();
            for (at, level, before, after) in straddles {
                // A boundary between two octants of 8^level cells.
                let boundary = (at % space) >> (3 * level) << (3 * level);
                ids.extend(boundary.saturating_sub(before)..(boundary + after).min(space));
            }
            let runs = canonical(ids);
            let bytes = encode_runs(&runs, id_bits).unwrap();
            prop_assert_eq!(&bytes, &reference_encode(&runs, id_bits));
            prop_assert_eq!(encoded_len(&runs, id_bits).unwrap(), bytes.len());
            prop_assert_eq!(K3Cursor::new(&bytes).unwrap().decode_all().unwrap(), runs);
        }

        #[test]
        fn fuzz_arbitrary_bytes_never_panic(
            id_bits in 1u8..34,
            count in 0u8..128,
            nodes in proptest::collection::vec(any::<u8>(), 0..300),
            targets in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            // A plausible header, so the node words get exercised …
            let bytes = [&[id_bits, count][..], &nodes].concat();
            let targets: Vec<u64> = targets.into_iter().map(|t| t % (1 << id_bits)).collect();
            drive_untrusted(&bytes, vec![]);
            drive_untrusted(&bytes, targets.clone());
            // … and no header at all.
            drive_untrusted(&nodes, targets);
        }
    }
}
