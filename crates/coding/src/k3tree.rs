//! k³-tree: an octree *directory* over the SFC id space whose leaves are
//! run blocks — the queryable compressed representation of a REGION.
//!
//! A k²-tree (Brisaboa et al.) stores a 2-D bitmap as a k-ary tree of
//! bit codes; the k³ variant here uses branching factor 8 over the id
//! space `[0, 8^levels)`, which on a hierarchical curve (Hilbert or
//! Morton) makes every node an axis-aligned octant.  Each child of a
//! node costs two bits — `00` empty, `01` full, `10` partial — so a
//! solid structure collapses to a handful of codes no matter how many
//! voxels it holds.  Like the k²/k³ variants of "Extending General
//! Compact Querieable Representations to GIS Applications", the tree
//! does not run one arity to the cell level: it stops at a fixed cut,
//! [`LEAF_BITS`], and a partial subtree of that size is stored as what a
//! REGION is everywhere else — a delta-coded run list — so a cursor
//! pays one varint pair a run instead of three or four node visits.
//!
//! # Payload layout
//!
//! `LAYOUT` (one byte naming this layout; a payload of the word-only
//! layout it replaced starts with its id width, 1 ..= 33, and is refused),
//! `id_bits` (one byte), then — unless the REGION is empty — the root
//! subtree.  A subtree over `2^span` ids is
//!
//! * a **leaf** when `span <= LEAF_BITS`: `varint byte length`, then that
//!   many bytes of `(gap, len − 1)` LEB128 pairs, one a run, in id order.
//!   The first gap counts from the leaf's base id, each later one from
//!   two past the previous run's end, so the runs of a leaf are
//!   canonical whatever the bytes are.  A run that crosses a leaf
//!   boundary is stored cut there; a leaf is never empty;
//! * a **directory node** otherwise: one big-endian 16-bit word — its
//!   eight 2-bit child codes, child 0 in the top two bits — followed by
//!   the subtrees of its partial children in id order.
//!
//! Subtrees appear in depth-first child order, which *is* increasing id
//! order.  Whole leaves a run covers are FULL codes (at whatever level
//! they align to), never run blocks, so a solid still costs a few words.
//!
//! # Cursor
//!
//! [`K3Cursor`] decodes **one leaf at a time** into a reused buffer and
//! answers `peek` / `advance` / `seek` from the decoded block.  Between
//! leaves it walks the directory a word at a time (next non-empty child
//! by `leading_zeros`, the FULL siblings after it as one interval), and
//! joins what touches — FULL intervals, and runs cut at a leaf boundary
//! — back into maximal runs.  A seek gallops inside the decoded block;
//! past it, whole subtrees before the target are consumed undecoded: a
//! directory subtree by recursing once per set partial bit
//! (`count_ones`), a leaf by its byte length.  Each such jump is one
//! [`RunCursor::skips`] credit.  The encoder is the same walk
//! backwards: one pass over the runs with a stack of open nodes whose
//! words are patched in place as their children arrive.
//!
//! # Intersection
//!
//! [`intersect`] answers an n-way ∩ without decoding its operands into
//! runs: it walks every operand's directory together, one word per live
//! operand at each node.  A child that any operand marks EMPTY is
//! pruned (the others' subtrees there consumed undecoded), one that all
//! mark FULL is one answer interval, and an operand FULL over a child
//! leaves the live set below it.  Where two or more operands meet in a
//! leaf, each leaf's pairs are decoded straight into a 4,096-bit mask,
//! smallest leaf first, and the masks are ANDed until the accumulator
//! is empty or the leaves run out; the answer's runs are read off the
//! mask by `trailing_zeros`.  Cursor and descent decode leaves through
//! one pair decoder.

use crate::varint::{read_uvarint, write_uvarint};
use crate::{first_reaching, CodingError, Result, RunCursor};

const FULL: u16 = 0b01;
const PARTIAL: u16 = 0b10;

/// Widest id space: 11 levels of 3 bits.
const MAX_ID_BITS: u32 = 33;
/// Deepest open path: the root's stand-in parent, then a node per level
/// above the cut.
const MAX_DEPTH: usize = 11;

/// First payload byte of this layout.  The layout before it led with
/// its id width (at most 33), so neither reads the other's bytes.
const LAYOUT: u8 = b'K';

/// log2 of the ids one leaf covers: the cut depth, chosen once from the
/// sweep in EXPERIMENTS.md ("One REGION layout").  A multiple of 3.
pub const LEAF_BITS: u32 = 12;
const LEAF_IDS: u64 = 1 << LEAF_BITS;

const OUTSIDE_LEAF: CodingError = CodingError::Corrupt("k3-tree run outside its leaf");

/// log2 of the ids one child of the root covers.
fn top_shift(id_bits: u32) -> Result<u32> {
    if id_bits == 0 || id_bits > MAX_ID_BITS {
        return Err(CodingError::ValueOutOfDomain { value: u64::from(id_bits), codec: "k3-tree" });
    }
    Ok(3 * (id_bits.div_ceil(3) - 1))
}

/// Parses a payload's header: log2 of the ids the root subtree covers,
/// and the subtrees (empty for an empty REGION).
fn open(bytes: &[u8]) -> Result<(u32, &[u8])> {
    let (&layout, rest) = bytes.split_first().ok_or(CodingError::UnexpectedEnd)?;
    if layout != LAYOUT {
        return Err(CodingError::Corrupt("not a run-block k3-tree payload"));
    }
    let (&id_bits, nodes) = rest.split_first().ok_or(CodingError::UnexpectedEnd)?;
    let top =
        top_shift(u32::from(id_bits)).map_err(|_| CodingError::Corrupt("bad k3-tree id width"))?;
    Ok((top + 3, nodes))
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

/// A run cut at leaf boundaries: the piece in its first leaf, the whole
/// leaves it covers, the piece in its last leaf (inclusive bounds).
/// Without a `directory` (the id space is one leaf) nothing is whole.
fn cut_at_leaves(start: u64, end: u64, directory: bool) -> [Option<(u64, u64)>; 3] {
    let first_whole = start.next_multiple_of(LEAF_IDS);
    let past_whole = (end + 1) / LEAF_IDS * LEAF_IDS;
    if directory && first_whole < past_whole {
        [
            (start < first_whole).then(|| (start, first_whole - 1)),
            Some((first_whole, past_whole - 1)),
            (past_whole <= end).then_some((past_whole, end)),
        ]
    } else if start / LEAF_IDS == end / LEAF_IDS {
        [Some((start, end)), None, None]
    } else {
        [Some((start, first_whole - 1)), None, Some((first_whole, end))]
    }
}

/// Encodes a canonical run list over `[0, 2^id_bits)` into a k³-tree
/// payload (see the module docs for the layout).
pub fn encode_runs<R: Copy + Into<(u64, u64)>>(runs: &[R], id_bits: u32) -> Result<Vec<u8>> {
    // Band and structure REGIONs take a little over two bytes a run.
    let mut out = Vec::with_capacity(2 + 5 * runs.len() / 2);
    let mut encoder = Encoder::new(&mut out, id_bits)?;
    for &run in runs {
        let (start, end) = run.into();
        encoder.push(&mut out, start, end)?;
    }
    encoder.finish(&mut out);
    Ok(out)
}

/// Streaming k³-tree encoder: [`Encoder::push`] the runs of a canonical
/// list in id order, then [`Encoder::finish`] — one pass, so what a
/// merge emits is encoded as it is produced.  The payload grows at the
/// end of the `out` every call is handed, which must be the same buffer
/// with nothing else appended in between (open node words are patched
/// in place).
#[derive(Debug)]
pub struct Encoder {
    id_bits: u32,
    top: u32,
    /// Offsets in `out` of the open nodes' words, root first.
    open: Vec<usize>,
    /// Where the last group of codes (FULL siblings, or a leaf's PARTIAL)
    /// was placed.
    prev_lo: Option<u64>,
    min_start: u64,
    /// Base id of the open leaf, whose pairs wait in `leaf` for their
    /// byte length.
    leaf_base: Option<u64>,
    leaf: Vec<u8>,
    /// Smallest start the open leaf's next run may have.
    leaf_floor: u64,
}

impl Encoder {
    /// Appends the payload header to `out`.
    pub fn new(out: &mut Vec<u8>, id_bits: u32) -> Result<Self> {
        let top = top_shift(id_bits)?;
        out.extend_from_slice(&[LAYOUT, id_bits as u8]);
        Ok(Encoder {
            id_bits,
            top,
            open: Vec::with_capacity(MAX_DEPTH),
            prev_lo: None,
            min_start: 0,
            leaf_base: None,
            leaf: Vec::new(),
            leaf_floor: 0,
        })
    }

    /// Appends the next run of the list (on error, `out` holds a partial
    /// payload).
    pub fn push(&mut self, out: &mut Vec<u8>, start: u64, end: u64) -> Result<()> {
        check_run(start, end, self.min_start, self.id_bits)?;
        self.min_start = end + 2;
        let [head, whole, tail] = cut_at_leaves(start, end, self.top >= LEAF_BITS);
        if let Some(piece) = head {
            self.leaf_run(out, piece)?;
        }
        if let Some((mut lo, hi)) = whole {
            self.close_leaf(out);
            while lo <= hi {
                // The largest block aligned at `lo` that ends by `hi`,
                // and how many of its later siblings do too.
                let len = hi - lo + 1;
                let shift = lo.trailing_zeros().min(len.ilog2()).min(self.top) / 3 * 3;
                let count = (8 - (lo >> shift) % 8).min(len >> shift);
                self.place(out, lo, shift, FULL, count as u32)?;
                lo += count << shift;
            }
        }
        if let Some(piece) = tail {
            self.leaf_run(out, piece)?;
        }
        Ok(())
    }

    /// Closes the last leaf; the payload is complete.
    pub fn finish(mut self, out: &mut Vec<u8>) {
        self.close_leaf(out);
    }

    /// Appends a run that lies inside one leaf to that leaf's block,
    /// opening the leaf if the last run went elsewhere.
    fn leaf_run(&mut self, out: &mut Vec<u8>, (start, end): (u64, u64)) -> Result<()> {
        let base = start / LEAF_IDS * LEAF_IDS;
        if self.leaf_base != Some(base) {
            self.close_leaf(out);
            if self.top >= LEAF_BITS {
                self.place(out, base, LEAF_BITS, PARTIAL, 1)?;
            }
            self.leaf_base = Some(base);
            self.leaf_floor = base;
        }
        write_uvarint(&mut self.leaf, start - self.leaf_floor);
        write_uvarint(&mut self.leaf, end - start);
        self.leaf_floor = end + 2;
        Ok(())
    }

    fn close_leaf(&mut self, out: &mut Vec<u8>) {
        if self.leaf_base.take().is_some() {
            write_uvarint(out, self.leaf.len() as u64);
            out.extend_from_slice(&self.leaf);
            self.leaf.clear();
        }
    }

    /// Sets `count` sibling codes, the first for the `2^shift` ids at
    /// `lo`, opening the nodes down to theirs.
    fn place(
        &mut self,
        out: &mut Vec<u8>,
        lo: u64,
        shift: u32,
        code: u16,
        count: u32,
    ) -> Result<()> {
        if self.open.is_empty() {
            open_node(out, &mut self.open);
        }
        // Ids increase, so `lo` and the previous group part ways at
        // their highest differing bit — a child index of the deepest
        // node that holds both.  Close what lies below that fork, then
        // descend to the group.
        let fork = self.prev_lo.map_or(self.top, |prev| (prev ^ lo).ilog2() / 3 * 3);
        self.open.truncate(((self.top - fork) / 3 + 1) as usize);
        let mut level = fork;
        while level > shift {
            set_codes(out, &self.open, lo >> level, PARTIAL, 1)?;
            open_node(out, &mut self.open);
            level -= 3;
        }
        self.prev_lo = Some(lo);
        set_codes(out, &self.open, lo >> shift, code, count)
    }
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

/// One open directory node: its id range and the children still to
/// visit.
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

/// One payload's subtrees (the payload past its header) and the byte
/// offset of the next unread one: what the cursor and the descent read
/// node words and leaves through.
#[derive(Debug, Clone)]
struct Subtrees<'a> {
    nodes: &'a [u8],
    pos: usize,
}

impl<'a> Subtrees<'a> {
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

    /// Reads a leaf's byte length and steps past its pairs.
    fn take_leaf(&mut self) -> Result<&'a [u8]> {
        let len = read_uvarint(self.nodes, &mut self.pos)?;
        // The length is untrusted: it is only ever used to slice the
        // bytes that are there.
        let end = usize::try_from(len).ok().and_then(|len| self.pos.checked_add(len));
        let leaf = end.and_then(|end| self.nodes.get(self.pos..end));
        let leaf = leaf.ok_or(CodingError::UnexpectedEnd)?;
        if leaf.is_empty() {
            return Err(CodingError::Corrupt("empty k3-tree leaf"));
        }
        self.pos += leaf.len();
        Ok(leaf)
    }

    /// Reads past the subtree over `2^span` ids without decoding it.
    fn skip_subtree(&mut self, span: u32) -> Result<()> {
        if span <= LEAF_BITS {
            return self.take_leaf().map(|_| ());
        }
        let partial = self.read_word()? & (PARTIAL * 0x5555);
        for _ in 0..partial.count_ones() {
            self.skip_subtree(span - 3)?;
        }
        Ok(())
    }
}

/// The one pair decoder: hands each run of a leaf's `(gap, len − 1)`
/// pairs to `f` as ids local to the leaf, whose last id is `last`.
/// Always inlined, so each caller's `f` compiles into the loop (as a
/// call, the descent's mask fill ran ~15 % slower).
#[inline(always)]
fn decode_pairs<E: From<CodingError>>(
    leaf: &[u8],
    last: u64,
    mut f: impl FnMut(u64, u64) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let (mut floor, mut at) = (0, 0);
    while at < leaf.len() {
        let (gap, len) = match leaf.get(at..at + 2) {
            // Most pairs of a REGION are two one-byte varints.
            Some(&[gap, len]) if gap | len < 0x80 => {
                at += 2;
                (u64::from(gap), u64::from(len))
            }
            _ => {
                let pair = (read_uvarint(leaf, &mut at)?, read_uvarint(leaf, &mut at)?);
                // Bounded before they are added below: the sum cannot
                // wrap.
                if pair.0 > last || pair.1 > last {
                    return Err(OUTSIDE_LEAF.into());
                }
                pair
            }
        };
        if floor + gap + len > last {
            return Err(OUTSIDE_LEAF.into());
        }
        let start = floor + gap;
        let end = start + len;
        floor = end + 2;
        f(start, end)?;
    }
    Ok(())
}

/// Appends a covered interval to `block`, joined to its last run if
/// they touch.
fn append(block: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    match block.last_mut() {
        Some((_, end)) if *end + 1 == lo => *end = hi,
        _ => block.push((lo, hi)),
    }
}

/// Streaming run decoder over a k³-tree payload, a leaf at a time.
#[derive(Debug, Clone)]
pub struct K3Cursor<'a> {
    tree: Subtrees<'a>,
    /// The open path, root first; `depth` frames are live.
    frames: [Frame; MAX_DEPTH],
    depth: usize,
    /// Decoded runs in id order; `block[at]` is the current one.  Those
    /// before `complete` are maximal; one more may follow that the next
    /// subtree can still extend.
    block: Vec<(u64, u64)>,
    at: usize,
    complete: usize,
    skips: u64,
    /// Subtrees and runs wholly before this id may be consumed
    /// undecoded.
    prune_below: u64,
}

impl<'a> K3Cursor<'a> {
    /// Parses the payload header and decodes the first leaf.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let (span, nodes) = open(bytes)?;
        let mut frames = [Frame::default(); MAX_DEPTH];
        let mut depth = 0;
        if let ([root, ..], false) = (&mut frames, nodes.is_empty()) {
            // The root subtree hangs off a stand-in parent as its one
            // partial child, so the walk opens it like any other.
            *root = Frame { base: 0, shift: span, codes: u32::from(PARTIAL) << 30 };
            depth = 1;
        }
        let mut cursor = K3Cursor {
            tree: Subtrees { nodes, pos: 0 },
            frames,
            depth,
            block: Vec::new(),
            at: 0,
            complete: 0,
            skips: 0,
            prune_below: 0,
        };
        cursor.fill()?;
        Ok(cursor)
    }

    /// A guess at the payload's run count for sizing a drain, bounded by
    /// the payload: most runs are leaf runs, two bytes at least.
    pub fn runs_hint(&self) -> usize {
        self.tree.nodes.len() / 2
    }

    /// Reads the node that starts at id `base`, its children `2^shift`
    /// ids each, and makes it the innermost frame.
    fn enter_node(&mut self, base: u64, shift: u32) -> Result<()> {
        let word = self.tree.read_word()?;
        let frame = self.frames.get_mut(self.depth);
        let frame = frame.ok_or(CodingError::Corrupt("k3-tree deeper than its id space"))?;
        *frame = Frame { base, shift, codes: u32::from(word) << 16 };
        self.depth += 1;
        Ok(())
    }

    /// Decodes the leaf over the `2^span` ids at `base` onto the block,
    /// leaving out runs that end below `prune_below`.
    fn decode_leaf(&mut self, base: u64, span: u32) -> Result<()> {
        let leaf = self.tree.take_leaf()?;
        let (block, prune_below) = (&mut self.block, self.prune_below);
        // Two bytes a run at least: sized by bytes that are there.
        block.reserve(leaf.len() / 2);
        // Runs of one leaf never touch each other: only the first one
        // kept can join what the block already ends with.
        let mut joined = false;
        decode_pairs(leaf, (1u64 << span) - 1, |start, end| {
            let (start, end) = (base + start, base + end);
            if end < prune_below {
                return Ok(());
            }
            if joined {
                block.push((start, end));
            } else {
                append(block, start, end);
                joined = true;
            }
            Ok::<_, CodingError>(())
        })
    }

    /// Refills the block: walks the tree in id order from where the last
    /// fill stopped, joining covered intervals while they touch and
    /// pruning what ends below `prune_below`, until a leaf has been
    /// decoded and at least one run is known maximal, or the tree ends.
    fn fill(&mut self) -> Result<()> {
        // The run that may still grow moves to the front.
        let open = self.block.get(self.complete).copied();
        self.block.clear();
        self.block.extend(open);
        self.at = 0;
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
                if hi >= self.prune_below {
                    append(&mut self.block, lo, hi);
                }
                continue;
            }
            frame.codes = codes & (u32::MAX >> (2 * child + 2));
            let last = lo + ((1u64 << shift) - 1);
            if last < self.prune_below {
                // The whole subtree precedes the seek target: consume it
                // undecoded.
                self.tree.skip_subtree(shift)?;
                self.skips += 1;
            } else if shift > LEAF_BITS {
                self.enter_node(lo, shift - 3)?;
            } else {
                self.decode_leaf(lo, shift)?;
                // Only a run that ends with the leaf can go on.
                let grows = self.block.last().is_some_and(|&(_, end)| end == last);
                self.complete = self.block.len() - usize::from(grows);
                if self.complete > 0 {
                    return Ok(());
                }
            }
        }
        self.complete = self.block.len();
        Ok(())
    }

    /// Drains the cursor into a `(start, end)` vector.  Test/API-edge
    /// helper — kernel code streams instead (rule `kernel-materialize`
    /// bans this call there, at zero hops and through helpers).
    pub fn decode_all(self) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::with_capacity(self.runs_hint());
        self.drain_blocks(|block| out.extend_from_slice(block))?;
        Ok(out)
    }

    /// Drains the cursor a decoded leaf at a time: `f` sees the maximal
    /// runs of each fill in id order, exactly the runs `peek` /
    /// `advance` would have handed out one by one, and the same error
    /// ends the drain where `advance` would have returned it.
    pub fn drain_blocks(mut self, mut f: impl FnMut(&[(u64, u64)])) -> Result<()> {
        loop {
            match self.block.get(self.at..self.complete) {
                Some(ready) if !ready.is_empty() => f(ready),
                _ => return Ok(()),
            }
            self.at = self.complete;
            self.fill()?;
        }
    }
}

impl RunCursor for K3Cursor<'_> {
    #[inline]
    fn peek(&self) -> Option<(u64, u64)> {
        // Every call leaves `at` on a maximal run or past the last one.
        self.block.get(self.at).copied()
    }

    #[inline]
    fn advance(&mut self) -> Result<()> {
        self.at += 1;
        if self.at >= self.complete {
            self.fill()?;
        }
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

impl K3Cursor<'_> {
    /// [`RunCursor::seek`] once the current run is known to end before
    /// `target`.
    fn seek_past_current(&mut self, target: u64) -> Result<()> {
        loop {
            let ahead = self.block.get(self.at..self.complete).unwrap_or_default();
            match ahead.last() {
                // Exhausted.
                None => return Ok(()),
                Some(&(_, end)) if end >= target => {
                    self.at += first_reaching(ahead, target);
                    return Ok(());
                }
                Some(_) => {}
            }
            // Nothing decoded reaches the target; the run still growing
            // stays only if it does.
            self.prune_below = self.prune_below.max(target);
            if self.block.get(self.complete).is_some_and(|&(_, end)| end < target) {
                self.block.clear();
                self.complete = 0;
            }
            self.fill()?;
        }
    }
}

/// What an [`intersect`] did besides emitting the answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DescentCounts {
    /// Operand subtrees and leaves consumed undecoded: pruned where
    /// another operand is EMPTY, or passed over once a leaf's
    /// accumulator was empty.
    pub skips: u64,
    /// Leaves where two or more operands met and were ANDed as masks.
    pub leaves_masked: u64,
}

const MASK_WORDS: usize = (LEAF_IDS / 64) as usize;

/// One leaf as a bitmap, bit `i % 64` of word `i / 64` for local id `i`.
type LeafMask = [u64; MASK_WORDS];

const LOST_OPERAND: CodingError = CodingError::Corrupt("k3-tree descent lost an operand");

/// The intersection of k³-tree `payloads` over one id space, by
/// synchronized directory descent (see the module docs): `emit` gets
/// the answer's maximal runs in id order — canonical — and its first
/// error ends the walk.  No operand is decoded into runs; no payloads,
/// no runs.  Operands over different id spaces are a typed error.
pub fn intersect<E: From<CodingError>>(
    payloads: &[&[u8]],
    emit: impl FnMut(u64, u64) -> std::result::Result<(), E>,
) -> std::result::Result<DescentCounts, E> {
    let mut root = None;
    let mut operands = Vec::with_capacity(payloads.len());
    for bytes in payloads {
        let (span, nodes) = open(bytes)?;
        if *root.get_or_insert(span) != span {
            return Err(CodingError::Corrupt("k3-tree operands over different id spaces").into());
        }
        operands.push(Subtrees { nodes, pos: 0 });
    }
    // An empty operand (no root subtree) empties the intersection.
    let root = root.filter(|_| operands.iter().all(|op| !op.nodes.is_empty()));
    let live = (0..operands.len()).map(|op| (op, 0)).collect();
    let mut descent = Descent {
        operands,
        live,
        leaves: Vec::new(),
        open: None,
        emit,
        counts: DescentCounts::default(),
    };
    if let Some(span) = root {
        descent.subtree(0, 0, span)?;
        if let Some((lo, hi)) = descent.open.take() {
            (descent.emit)(lo, hi)?;
        }
    }
    Ok(descent.counts)
}

/// The state of one [`intersect`].
struct Descent<'a, F> {
    operands: Vec<Subtrees<'a>>,
    /// `(operand, node word)` for the live operands of every open node,
    /// the innermost node's last.
    live: Vec<(usize, u16)>,
    /// The live operands' leaf bytes at the current leaf.
    leaves: Vec<&'a [u8]>,
    /// The answer run that may still grow.
    open: Option<(u64, u64)>,
    emit: F,
    counts: DescentCounts,
}

impl<E, F> Descent<'_, F>
where
    E: From<CodingError>,
    F: FnMut(u64, u64) -> std::result::Result<(), E>,
{
    /// The subtree over the `2^span` ids at `base`, where `live[from..]`
    /// are the operands partial over it, each positioned at its subtree.
    fn subtree(&mut self, from: usize, base: u64, span: u32) -> std::result::Result<(), E> {
        if span <= LEAF_BITS {
            return self.leaf(from, base, span);
        }
        // A child's code has its low bit set in `full` where every
        // operand's is FULL, in `nonempty` where none is EMPTY.
        let (mut nonempty, mut full, mut partial) = (0x5555u16, 0x5555u16, 0u16);
        for (op, word) in self.live.get_mut(from..).unwrap_or_default() {
            *word = self.operands.get_mut(*op).ok_or(LOST_OPERAND)?.read_word()?;
            nonempty &= (*word | *word >> 1) & 0x5555;
            full &= *word & 0x5555;
            partial |= *word >> 1 & 0x5555;
        }
        let shift = span - 3;
        let to = self.live.len();
        for child in 0..8u32 {
            let low = 0x4000u16 >> (2 * child);
            let lo = base + (u64::from(child) << shift);
            if full & low != 0 {
                self.run(lo, lo + ((1u64 << shift) - 1))?;
                continue;
            }
            if partial & low == 0 {
                // EMPTY in every operand that is not FULL.
                continue;
            }
            // The operands partial here: pruned where another is EMPTY,
            // else the live set below (a FULL one leaves it).
            let pruned = nonempty & low == 0;
            for at in from..to {
                let Some(&(op, word)) = self.live.get(at) else { break };
                if word >> 1 & low == 0 {
                    continue;
                }
                if pruned {
                    self.operands.get_mut(op).ok_or(LOST_OPERAND)?.skip_subtree(shift)?;
                    self.counts.skips += 1;
                } else {
                    self.live.push((op, 0));
                }
            }
            if !pruned {
                self.subtree(to, lo, shift)?;
                self.live.truncate(to);
            }
        }
        Ok(())
    }

    /// The leaf over the `2^span` ids at `base` where `live[from..]`
    /// meet.
    fn leaf(&mut self, from: usize, base: u64, span: u32) -> std::result::Result<(), E> {
        let last = (1u64 << span) - 1;
        self.leaves.clear();
        for &(op, _) in self.live.get(from..).unwrap_or_default() {
            self.leaves.push(self.operands.get_mut(op).ok_or(LOST_OPERAND)?.take_leaf()?);
        }
        // Fewest bytes first: the accumulator starts small and empties
        // soonest.
        self.leaves.sort_unstable_by_key(|leaf| leaf.len());
        let Some(&first) = self.leaves.first() else { return Ok(()) };
        if self.leaves.len() == 1 {
            return decode_pairs(first, last, |start, end| self.run(base + start, base + end));
        }
        self.counts.leaves_masked += 1;
        let mut acc: LeafMask = [0; MASK_WORDS];
        decode_pairs(first, last, |start, end| set_bits(&mut acc, start, end))?;
        for (at, &leaf) in self.leaves.iter().enumerate().skip(1) {
            let mut mask: LeafMask = [0; MASK_WORDS];
            decode_pairs(leaf, last, |start, end| set_bits(&mut mask, start, end))?;
            let mut any = 0;
            for (acc, mask) in acc.iter_mut().zip(&mask) {
                *acc &= mask;
                any |= *acc;
            }
            if any == 0 {
                // The leaves after this one were consumed by their
                // length and need not be decoded.
                self.counts.skips += (self.leaves.len() - 1 - at) as u64;
                return Ok(());
            }
        }
        mask_runs(&acc, |start, end| self.run(base + start, base + end))
    }

    /// Appends an answer interval, joined to the open run if they touch.
    fn run(&mut self, lo: u64, hi: u64) -> std::result::Result<(), E> {
        match &mut self.open {
            Some((_, end)) if *end + 1 == lo => {
                *end = hi;
                Ok(())
            }
            open => match open.replace((lo, hi)) {
                Some((done_lo, done_hi)) => (self.emit)(done_lo, done_hi),
                None => Ok(()),
            },
        }
    }
}

/// Sets bits `start..=end` of a leaf mask (`end` inside the leaf).
#[inline(always)]
fn set_bits(mask: &mut LeafMask, start: u64, end: u64) -> Result<()> {
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - end % 64);
    match mask.get_mut((start / 64) as usize..=(end / 64) as usize) {
        Some([word]) => *word |= head & tail,
        Some([first, whole @ .., last]) => {
            *first |= head;
            whole.fill(u64::MAX);
            *last |= tail;
        }
        _ => {}
    }
    Ok(())
}

/// Hands each run of set bits of `mask` to `f` as local ids, in order.
fn mask_runs<E>(
    mask: &LeafMask,
    mut f: impl FnMut(u64, u64) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    // A set bit of `edges` is where the mask changes from the bit below:
    // a run starts there when the mask's bit is set, else one ended just
    // before it.
    let (mut carry, mut start) = (0, 0);
    for (at, &word) in (0u64..).step_by(64).zip(mask) {
        let mut edges = word ^ (word << 1 | carry);
        carry = word >> 63;
        while edges != 0 {
            let bit = edges.trailing_zeros();
            if word >> bit & 1 == 1 {
                start = at + u64::from(bit);
            } else {
                f(start, at + u64::from(bit) - 1)?;
            }
            edges &= edges - 1;
        }
    }
    if carry == 1 {
        f(start, LEAF_IDS - 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The most covered intervals one payload byte can describe: a 2-byte
    /// node word holds eight child codes (a leaf run costs two bytes).
    const MAX_RUNS_PER_BYTE: usize = 4;

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

    fn every_third_id(ids: u64) -> Vec<(u64, u64)> {
        canonical((0..ids).step_by(3).collect())
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

    fn decode(bytes: &[u8]) -> Vec<(u64, u64)> {
        K3Cursor::new(bytes).unwrap().decode_all().unwrap()
    }

    /// The layout, written down the slow way: a leaf's pairs behind
    /// their byte length; a node's word, then the subtrees of its
    /// partial children.
    fn reference_subtree(out: &mut Vec<u8>, runs: &[(u64, u64)], base: u64, span: u32) {
        if span <= LEAF_BITS {
            let (mut pairs, mut floor) = (Vec::new(), base);
            for &(start, end) in runs {
                let (start, end) = (start.max(base), end.min(base + (1 << span) - 1));
                write_uvarint(&mut pairs, start - floor);
                write_uvarint(&mut pairs, end - start);
                floor = end + 2;
            }
            write_uvarint(out, pairs.len() as u64);
            out.extend_from_slice(&pairs);
            return;
        }
        let at = out.len();
        out.extend_from_slice(&[0, 0]);
        let mut word = 0u16;
        for i in 0..8 {
            let lo = base + (i << (span - 3));
            let hi = lo + (1 << (span - 3)) - 1;
            let inside = &runs[runs.partition_point(|&(_, end)| end < lo)
                ..runs.partition_point(|&(start, _)| start <= hi)];
            let code = match inside {
                [] => 0,
                [(start, end)] if *start <= lo && *end >= hi => FULL,
                _ => PARTIAL,
            };
            word |= code << (14 - 2 * i);
            if code == PARTIAL {
                reference_subtree(out, inside, lo, span - 3);
            }
        }
        out[at..at + 2].copy_from_slice(&word.to_be_bytes());
    }

    fn reference_encode(runs: &[(u64, u64)], id_bits: u32) -> Vec<u8> {
        let mut out = vec![LAYOUT, id_bits as u8];
        if !runs.is_empty() {
            reference_subtree(&mut out, runs, 0, 3 * id_bits.div_ceil(3));
        }
        out
    }

    /// `runs` from the first that reaches `target` on, its start clipped
    /// there — all a cursor owes after `seek(target)`.
    fn clipped(runs: &[(u64, u64)], target: u64) -> Vec<(u64, u64)> {
        let rest = runs.iter().filter(|&&(_, end)| end >= target);
        rest.map(|&(start, end)| (start.max(target), end)).collect()
    }

    /// Seeks `cursor` to `target`, drains it and clips what came out.
    fn seek_then_drain(mut cursor: impl RunCursor, target: u64) -> Vec<(u64, u64)> {
        cursor.seek(target).unwrap();
        let mut out = Vec::new();
        while let Some(run) = cursor.peek() {
            out.push(run);
            cursor.advance().unwrap();
        }
        clipped(&out, target)
    }

    /// Drives a cursor over untrusted `bytes` — a seek to each target in
    /// turn, then a drain — and checks what must hold whatever the bytes
    /// are: typed errors only, a step count the payload size bounds, and
    /// strictly increasing canonical runs.
    fn drive_untrusted(bytes: &[u8], mut targets: Vec<u64>) {
        let Ok(mut c) = K3Cursor::new(bytes) else { return };
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
        // The full 15-bit id space: root's 8 children all FULL.
        let full = vec![(0u64, (1u64 << 15) - 1)];
        let bytes = encode_runs(&full, 15).unwrap();
        assert_eq!(bytes, [LAYOUT, 15, 0x55, 0x55]);
        assert_eq!(decode(&bytes), full);
    }

    #[test]
    fn roundtrips_structured_regions() {
        let runs = vec![(0u64, 63), (100, 100), (512, 1023), (2048, 2050), (4000, 9000)];
        for id_bits in [14, 15, 21, 33] {
            assert_eq!(decode(&encode_runs(&runs, id_bits).unwrap()), runs, "{id_bits}");
        }
    }

    #[test]
    fn empty_region_roundtrips() {
        let bytes = encode_runs::<(u64, u64)>(&[], 15).unwrap();
        assert_eq!(bytes, [LAYOUT, 15]);
        let mut c = K3Cursor::new(&bytes).unwrap();
        assert_eq!(c.peek(), None);
        c.seek(10).unwrap();
        assert_eq!(c.peek(), None);
        c.advance().unwrap();
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn a_node_is_a_word_then_its_partial_subtrees_and_a_leaf_is_a_run_block() {
        // Three levels above 4096-id leaves.  Child 0 of the root is
        // partial: its child 1 is a leaf holding two runs, the second
        // cut where the leaf ends and carried on by FULL child 2.
        let leaf = LEAF_IDS;
        let runs = [
            (leaf + 9, leaf + 9),
            (2 * leaf - 100, 3 * leaf - 1),
            (7 * 64 * leaf, 8 * 64 * leaf - 1),
        ];
        let bytes = encode_runs(&runs, LEAF_BITS + 9).unwrap();
        let root = 0b10_00_00_00_00_00_00_01u16.to_be_bytes();
        let inner = 0b10_00_00_00_00_00_00_00u16.to_be_bytes();
        let lowest = 0b00_10_01_00_00_00_00_00u16.to_be_bytes();
        // (gap 9, one id), then (gap 4096 − 11 − 100 = 3985, 100 ids).
        let pairs = [9, 0, 0x91, 0x1f, 99];
        let want = [&[LAYOUT, (LEAF_BITS + 9) as u8][..], &root, &inner, &lowest, &[5], &pairs];
        assert_eq!(bytes, want.concat());
        assert_eq!(decode(&bytes), runs);
    }

    #[test]
    fn an_id_space_of_one_leaf_has_no_directory() {
        // 16³: the whole grid is one run block, the full grid included.
        let bytes = encode_runs(&[(3u64, 9), (4_000, 4_095)], 12).unwrap();
        assert_eq!(bytes, [LAYOUT, 12, 5, 3, 6, 0x95, 0x1f, 95]);
        assert_eq!(decode(&bytes), [(3, 9), (4_000, 4_095)]);
        let full = [(0u64, 4_095)];
        let bytes = encode_runs(&full, 12).unwrap();
        assert_eq!(bytes, [LAYOUT, 12, 3, 0, 0xff, 0x1f]);
        assert_eq!(decode(&bytes), full);
    }

    #[test]
    fn sizes_are_pinned() {
        // Byte lengths of this layout, against the reference encoder;
        // beside each, the word-only layout it replaced.
        let pin = |name: &str, runs: Vec<(u64, u64)>, id_bits: u32, pinned: usize| {
            let bytes = encode_runs(&runs, id_bits).unwrap();
            assert_eq!(bytes, reference_encode(&runs, id_bits), "{name}");
            assert_eq!(bytes.len(), pinned, "{name}");
            assert_eq!(decode(&bytes), runs, "{name}");
        };
        pin("empty", vec![], 15, 2); // 2
        pin("full grid", vec![(0, (1 << 12) - 1)], 12, 6); // 4
        pin("one cell", vec![(1_234, 1_234)], 12, 6); // 10
        pin("every third id", every_third_id(8_192), 13, 5_470); // 2,345
        pin("box plus speckle", box_plus_speckle(), 21, 8_369); // 15,837
    }

    #[test]
    fn seek_prunes_subtrees_and_leaves_undecoded() {
        // Every third id of 2^18: 64 partial leaves under 8 nodes.
        let runs = every_third_id(1 << 18);
        let bytes = encode_runs(&runs, 18).unwrap();
        let mut c = K3Cursor::new(&bytes).unwrap();
        c.seek(250_000).unwrap();
        assert_eq!(c.peek(), Some((250_002, 250_002)));
        // The other seven leaves of the open subtree one by one, six
        // subtrees of eight leaves whole, then five leaves.
        assert_eq!(c.skips(), 18);
        // Inside the decoded leaf a seek is a gallop, not a jump.
        c.seek(250_100).unwrap();
        assert_eq!(c.peek(), Some((250_101, 250_101)));
        assert_eq!(c.skips(), 18);
        assert_eq!(seek_then_drain(c, 262_000), clipped(&runs, 262_000));
    }

    #[test]
    fn runs_cut_at_leaf_boundaries_come_back_whole() {
        // One run through a partial leaf, whole leaves and into another
        // partial leaf; one that ends exactly with its leaf; one that
        // starts exactly on the next.
        let leaf = LEAF_IDS;
        let runs =
            vec![(100u64, 5 * leaf + 7), (7 * leaf - 3, 7 * leaf - 1), (8 * leaf, 8 * leaf + 4)];
        let bytes = encode_runs(&runs, 18).unwrap();
        assert_eq!(decode(&bytes), runs);
        for target in [0, 100, leaf, 5 * leaf, 5 * leaf + 8, 7 * leaf - 1, 7 * leaf, 8 * leaf + 5] {
            let c = K3Cursor::new(&bytes).unwrap();
            assert_eq!(seek_then_drain(c, target), clipped(&runs, target), "{target}");
        }
    }

    #[test]
    fn rejects_out_of_space_and_non_canonical_runs() {
        let outside = CodingError::Corrupt("run outside the id space");
        let non_canonical = CodingError::Corrupt("run list not canonical");
        assert_eq!(encode_runs(&[(0u64, 1 << 12)], 12), Err(outside.clone()));
        assert_eq!(encode_runs(&[(5u64, 3)], 12), Err(outside));
        assert_eq!(encode_runs(&[(0u64, 3), (4, 6)], 12), Err(non_canonical.clone()));
        assert_eq!(encode_runs(&[(10u64, 12), (5, 7)], 12), Err(non_canonical));
        for id_bits in [0, 34] {
            let err = CodingError::ValueOutOfDomain { value: u64::from(id_bits), codec: "k3-tree" };
            assert_eq!(encode_runs(&[(0u64, 0)], id_bits), Err(err));
        }
    }

    #[test]
    fn the_word_only_layout_is_refused_not_misread() {
        // What the layout this one replaced wrote for `[(9, 9), (448,
        // 511)]` over 9 id bits: id width, run count, three node words.
        let old = [9, 2, 0x80, 0x01, 0x20, 0x00, 0x10, 0x00];
        let err = CodingError::Corrupt("not a run-block k3-tree payload");
        assert_eq!(K3Cursor::new(&old).err(), Some(err.clone()));
        // Every id width it could lead with.
        for id_bits in 0..=MAX_ID_BITS as u8 {
            assert_eq!(K3Cursor::new(&[id_bits, 1, 0x40, 0x00]).err(), Some(err.clone()));
        }
    }

    #[test]
    fn a_hostile_leaf_length_is_refused_not_allocated() {
        // A root leaf claiming 2^63 − 1 bytes of pairs, then four.
        let mut bytes = vec![LAYOUT, 12, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        bytes.extend_from_slice(&[1, 1, 1, 1]);
        assert_eq!(K3Cursor::new(&bytes).err(), Some(CodingError::UnexpectedEnd));
        // The same behind a directory, decoded and skipped.
        let mut bytes = vec![LAYOUT, 15, 0xa0, 0x00, 2, 0, 0];
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1]);
        let mut c = K3Cursor::new(&bytes).unwrap();
        assert_eq!(c.peek(), Some((0, 0)));
        assert_eq!(c.clone().advance(), Err(CodingError::UnexpectedEnd));
        assert_eq!(c.seek(2 * LEAF_IDS), Err(CodingError::UnexpectedEnd));
    }

    #[test]
    fn malformed_subtrees_yield_typed_errors() {
        let open = |id_bits: u8, nodes: &[u8]| {
            K3Cursor::new(&[&[LAYOUT, id_bits][..], nodes].concat()).and_then(K3Cursor::decode_all)
        };
        let bad_code = CodingError::Corrupt("bad k3-tree child code");
        let outside = CodingError::Corrupt("k3-tree run outside its leaf");
        assert_eq!(open(15, &[0b11_00_00_00, 0]), Err(bad_code.clone()));
        assert_eq!(open(15, &[0b01_00_00_00]), Err(CodingError::UnexpectedEnd));
        assert_eq!(open(15, &[0b10_00_00_00, 0]), Err(CodingError::UnexpectedEnd));
        assert_eq!(
            open(15, &[0b10_00_00_00, 0, 0]),
            Err(CodingError::Corrupt("empty k3-tree leaf"))
        );
        // A run past its leaf's last id; a gap past it; a cut pair.
        assert_eq!(open(12, &[2, 0, 0x80, 0x20]), Err(CodingError::UnexpectedEnd));
        assert_eq!(open(12, &[3, 0, 0x80, 0x20]), Err(outside.clone()));
        // Gap and length each inside the leaf, their run one id past it.
        assert_eq!(open(12, &[3, 1, 0xff, 0x1f]), Err(outside.clone()));
        assert_eq!(open(12, &[3, 0, 0xff, 0x1f]), Ok(vec![(0, 4_095)]));
        assert_eq!(open(12, &[3, 0x80, 0x20, 0]), Err(outside.clone()));
        assert_eq!(open(12, &[3, 0, 0, 5]), Err(CodingError::UnexpectedEnd));
        assert_eq!(open(9, &[3, 0, 0xff, 0x03]), Ok(vec![(0, 511)]));
        assert_eq!(open(9, &[3, 0, 0x80, 0x04]), Err(outside));
        // No header, half a header, an id width no tree has.
        assert_eq!(K3Cursor::new(&[]).err(), Some(CodingError::UnexpectedEnd));
        assert_eq!(K3Cursor::new(&[LAYOUT]).err(), Some(CodingError::UnexpectedEnd));
        for id_bits in [0, 34, 255] {
            let err = CodingError::Corrupt("bad k3-tree id width");
            assert_eq!(K3Cursor::new(&[LAYOUT, id_bits, 0, 0]).err(), Some(err));
        }
        // A pruned subtree is validated as it is skipped: three partial
        // children of an 18-bit root, the third one's node holds a `11`.
        let leaf = [2, 0, 0];
        let node = [&[0b10_00_00_00, 0][..], &leaf].concat();
        let bytes =
            [&[LAYOUT, 18, 0b10_10_10_00, 0][..], &node, &node, &[0b00_00_00_11, 0]].concat();
        let mut c = K3Cursor::new(&bytes).unwrap();
        assert_eq!(c.peek(), Some((0, 0)));
        assert_eq!(c.clone().seek(1 << 17), Err(bad_code.clone()));
        c.advance().unwrap();
        assert_eq!(c.peek(), Some((1 << 15, 1 << 15)));
        assert_eq!(c.advance(), Err(bad_code));
    }

    #[test]
    fn truncations_and_bit_flips_of_valid_payloads_never_panic() {
        for (runs, id_bits) in [
            (vec![], 15),
            (vec![(0u64, (1 << 15) - 1)], 15),
            (vec![(20_000, 20_000)], 15),
            (vec![(0, 10), (500, 700), (4_000, 4_095)], 12),
            (every_third_id(40_000).into_iter().step_by(7).collect(), 18),
            (box_plus_speckle().into_iter().step_by(3).collect(), 21),
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

    /// Scattered ids plus runs laid across an octant boundary of every
    /// level, in an id space of `id_bits`.
    fn scattered(
        id_bits: u32,
        ids: Vec<u64>,
        straddles: Vec<(u64, u32, u64, u64)>,
    ) -> Vec<(u64, u64)> {
        let space = 1u64 << id_bits;
        let mut ids: Vec<u64> = ids.into_iter().map(|id| id % space).collect();
        for (at, level, before, after) in straddles {
            // A boundary between two octants of 8^level cells.
            let boundary = (at % space) >> (3 * level) << (3 * level);
            ids.extend(boundary.saturating_sub(before)..(boundary + after).min(space));
        }
        canonical(ids)
    }

    fn straddles() -> impl Strategy<Value = Vec<(u64, u32, u64, u64)>> {
        proptest::collection::vec((any::<u64>(), 0u32..11, 1u64..600, 1u64..600), 0..6)
    }

    /// Canonical runs of the union of inclusive intervals.
    fn union_of(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        intervals.sort_unstable();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in intervals {
            match runs.last_mut() {
                Some((_, end)) if lo <= *end + 1 => *end = hi.max(*end),
                _ => runs.push((lo, hi)),
            }
        }
        runs
    }

    /// The ids of `[0, 2^id_bits)` that `runs` leave out.
    fn complement(runs: &[(u64, u64)], id_bits: u32) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut next = 0;
        for &(start, end) in runs {
            if start > next {
                out.push((next, start - 1));
            }
            next = end + 1;
        }
        if next < 1 << id_bits {
            out.push((next, (1 << id_bits) - 1));
        }
        out
    }

    /// The k-way simultaneous merge over decoded run slices: the
    /// reference the descent must equal.
    fn slice_merge(lists: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
        let mut at = vec![0; lists.len()];
        let mut out = Vec::new();
        if lists.is_empty() {
            return out;
        }
        'merge: loop {
            let (mut lo, mut hi) = (0, u64::MAX);
            for (list, &i) in lists.iter().zip(&at) {
                let Some(&(start, end)) = list.get(i) else { break 'merge };
                (lo, hi) = (lo.max(start), hi.min(end));
            }
            // Overlap: emit it and step the runs that end with it; none:
            // step the runs that end before the latest start.
            let step_below = if lo <= hi {
                out.push((lo, hi));
                hi + 1
            } else {
                lo
            };
            for (list, i) in lists.iter().zip(&mut at) {
                if list[*i].1 < step_below {
                    *i += 1;
                }
            }
        }
        out
    }

    /// Runs the descent over `payloads`, collecting what it emits.
    fn descend(payloads: &[&[u8]]) -> Result<(Vec<(u64, u64)>, DescentCounts)> {
        let mut runs = Vec::new();
        let counts = intersect(payloads, |start, end| {
            runs.push((start, end));
            Ok::<_, CodingError>(())
        })?;
        Ok((runs, counts))
    }

    /// One operand of a descent test, from a kind and its raw material:
    /// 0 ids scattered over the low 2^15 (so operands overlap at every
    /// width), straddles, and FULL blocks at every level; 1 empty; 2 the
    /// previous operand again; 3 its complement (disjoint from it).
    fn operand(
        id_bits: u32,
        kind: usize,
        ids: Vec<u64>,
        blocks: Vec<(u64, u32)>,
        straddles: Vec<(u64, u32, u64, u64)>,
        previous: Option<&[(u64, u64)]>,
    ) -> Vec<(u64, u64)> {
        match (kind, previous) {
            (1, _) => vec![],
            (2, Some(previous)) => previous.to_vec(),
            (3, Some(previous)) => complement(previous, id_bits),
            _ => {
                let space = 1u64 << id_bits;
                let ids = ids.into_iter().map(|id| id % (1 << 15)).collect();
                let mut intervals = scattered(id_bits, ids, straddles);
                for (at, level) in blocks {
                    // A whole octant of 8^level ids, so a FULL code at
                    // that level (the root's children included).
                    let shift = 3 * (level % (id_bits / 3 + 1));
                    let lo = (at % space) >> shift << shift;
                    intervals.push((lo, (lo + (1 << shift) - 1).min(space - 1)));
                }
                union_of(intervals)
            }
        }
    }

    /// Checks what must hold of a descent over untrusted payloads: a
    /// typed error or canonical runs, no more than the bytes can hold.
    fn descend_untrusted(payloads: &[&[u8]]) {
        let Ok((runs, _)) = descend(payloads) else { return };
        let bytes: usize = payloads.iter().map(|p| p.len()).sum();
        assert!(runs.len() <= MAX_RUNS_PER_BYTE * bytes, "more runs than the bytes can hold");
        for pair in runs.windows(2) {
            let [(start, end), (next, _)] = [pair[0], pair[1]];
            assert!(start <= end && next > end + 1, "{pair:?} not canonical");
        }
    }

    #[test]
    fn the_descent_prunes_counts_and_masks() {
        let leaf = LEAF_IDS;
        // Over 15 bits: a meets b in leaf 0; a alone in leaf 1 and b
        // alone in leaf 2 are pruned undecoded; leaf 3 is FULL in both;
        // leaf 4 is FULL in a, so b's runs there are emitted as stored,
        // joined to leaf 3's interval.
        let a = [(3, 40), (leaf + 5, leaf + 9), (3 * leaf, 5 * leaf - 1)];
        let b = [(30, 50), (2 * leaf + 1, 2 * leaf + 1), (3 * leaf, 4 * leaf + 6)];
        let b = [&b[..], &[(4 * leaf + 9, 4 * leaf + 9)]].concat();
        let (a, b) = (encode_runs(&a, 15).unwrap(), encode_runs(&b, 15).unwrap());
        let (runs, counts) = descend(&[&a, &b]).unwrap();
        assert_eq!(runs, [(30, 40), (3 * leaf, 4 * leaf + 6), (4 * leaf + 9, 4 * leaf + 9)]);
        assert_eq!(counts, DescentCounts { skips: 2, leaves_masked: 1 });
        // Three operands meeting in one leaf: once the two shortest
        // leaves AND to nothing, the longest is not decoded.
        let c = encode_runs(&[(0u64, 100)], 15).unwrap();
        let d = encode_runs(&[(102u64, 110)], 15).unwrap();
        let e = encode_runs(&[(0u64, 100), (300, 400)], 15).unwrap();
        let (runs, counts) = descend(&[&e, &c, &d]).unwrap();
        assert_eq!((runs, counts), (vec![], DescentCounts { skips: 1, leaves_masked: 1 }));
        // A masked answer run through a leaf's last id joins the next
        // leaf's.
        let f = encode_runs(&[(4_000u64, 4_200)], 15).unwrap();
        let g = encode_runs(&[(4_050u64, 4_150), (4_300, 4_301)], 15).unwrap();
        let (runs, counts) = descend(&[&f, &g]).unwrap();
        assert_eq!((runs, counts.leaves_masked), (vec![(4_050, 4_150)], 2));
        // One operand: its runs as stored.  An empty one: nothing, and
        // nothing read.  None at all: nothing.
        assert_eq!(descend(&[&a]).unwrap().0, decode(&a));
        let empty = encode_runs::<(u64, u64)>(&[], 15).unwrap();
        assert_eq!(descend(&[&a, &empty, &b]).unwrap(), (vec![], DescentCounts::default()));
        assert_eq!(descend(&[]).unwrap(), (vec![], DescentCounts::default()));
    }

    #[test]
    fn the_descent_refuses_what_the_cursor_refuses() {
        let a = encode_runs(&[(0u64, 9)], 15).unwrap();
        let other_space = encode_runs(&[(0u64, 9)], 18).unwrap();
        let spaces = CodingError::Corrupt("k3-tree operands over different id spaces");
        assert_eq!(descend(&[&a, &other_space]).err(), Some(spaces));
        let old = [9, 2, 0x80, 0x01, 0x20, 0x00, 0x10, 0x00];
        let layout = CodingError::Corrupt("not a run-block k3-tree payload");
        assert_eq!(descend(&[&a, &old]).err(), Some(layout));
        // A leaf claiming 2^63 − 1 bytes, behind a directory: refused
        // when met, whether decoded into a mask or skipped.
        let mut hostile = vec![LAYOUT, 15, 0xa0, 0x00, 2, 0, 0];
        hostile.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1]);
        let both_leaves = encode_runs(&[(0u64, 0), (LEAF_IDS, LEAF_IDS)], 15).unwrap();
        for other in [&a, &both_leaves] {
            assert_eq!(descend(&[other, &hostile]).err(), Some(CodingError::UnexpectedEnd));
        }
        let broken = |nodes: &[u8]| descend(&[&a, &[&[LAYOUT, 15][..], nodes].concat()]).err();
        let bad_code = CodingError::Corrupt("bad k3-tree child code");
        assert_eq!(broken(&[0b11_00_00_00, 0]), Some(bad_code));
        let outside = CodingError::Corrupt("k3-tree run outside its leaf");
        assert_eq!(broken(&[0b10_00_00_00, 0, 3, 0, 0x80, 0x20]), Some(outside.clone()));
        assert_eq!(broken(&[0b10_00_00_00, 0, 3, 1, 0xff, 0x1f]), Some(outside));
        let empty_leaf = CodingError::Corrupt("empty k3-tree leaf");
        assert_eq!(broken(&[0b10_00_00_00, 0, 0]), Some(empty_leaf));
        assert_eq!(broken(&[0b10_00_00_00, 0, 2, 0]), Some(CodingError::UnexpectedEnd));
    }

    #[test]
    fn truncations_and_bit_flips_of_a_three_operand_fold_never_panic() {
        // Every 21st id; scattered ids beside FULL blocks of 8^4 and 8^5
        // ids and a run across a leaf boundary; nearly everything.
        let a: Vec<_> = every_third_id(40_000).into_iter().step_by(7).collect();
        let ids = (0..90).map(|i| i * 2_654_435_761).collect();
        let b = operand(18, 0, ids, vec![(70_000, 4), (9, 5)], vec![(40_000, 4, 300, 200)], None);
        let holes: Vec<_> = every_third_id(30_000).into_iter().step_by(11).collect();
        let ops = [a, b, complement(&holes, 18)].map(|runs| encode_runs(&runs, 18).unwrap());
        let (runs, counts) = descend(&ops.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
        assert!(!runs.is_empty() && counts.leaves_masked > 0, "the fold reaches the mask kernel");
        for target in 0..ops.len() {
            let bytes = &ops[target];
            let with = |broken: &[u8]| {
                let mut payloads: Vec<&[u8]> = ops.iter().map(Vec::as_slice).collect();
                payloads[target] = broken;
                descend_untrusted(&payloads);
            };
            for cut in 0..bytes.len() {
                with(&bytes[..cut]);
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                with(&flipped);
            }
        }
    }

    proptest! {
        /// Encode, then drain: the identity at every id width, ids past
        /// 2^32 included; the streaming encoder against the recursive
        /// reference.
        #[test]
        fn fuzz_roundtrip_at_every_id_width(
            id_bits in 3u32..=33,
            ids in proptest::collection::vec(any::<u64>(), 0..300),
            straddles in straddles(),
        ) {
            let runs = scattered(id_bits, ids, straddles);
            let bytes = encode_runs(&runs, id_bits).unwrap();
            prop_assert_eq!(&bytes, &reference_encode(&runs, id_bits));
            prop_assert_eq!(decode(&bytes), runs);
        }

        /// Dense speckle in a small space: many runs a leaf, several
        /// leaves, every boundary kind.
        #[test]
        fn fuzz_roundtrip_dense_regions(
            ids in proptest::collection::vec(0u64..32_768, 0..1500),
            straddles in straddles(),
        ) {
            let runs = scattered(15, ids, straddles);
            let bytes = encode_runs(&runs, 15).unwrap();
            prop_assert_eq!(&bytes, &reference_encode(&runs, 15));
            prop_assert_eq!(decode(&bytes), runs);
        }

        /// `seek(t)` then drain is the run list clipped at `t`, from a
        /// fresh cursor and after an earlier seek and a few steps.
        #[test]
        fn fuzz_seek_then_drain_is_the_clipped_run_list(
            width_pick in 0usize..4,
            ids in proptest::collection::vec(any::<u64>(), 1..400),
            straddles in straddles(),
            first in any::<u64>(),
            steps in 0usize..40,
            second in any::<u64>(),
        ) {
            let id_bits = [12, 15, 18, 33][width_pick];
            let runs = scattered(id_bits, ids, straddles);
            let bytes = encode_runs(&runs, id_bits).unwrap();
            let (first, second) = (first % (1 << id_bits), second % (1 << id_bits));
            let mut c = K3Cursor::new(&bytes).unwrap();
            prop_assert_eq!(seek_then_drain(c.clone(), first), clipped(&runs, first));
            c.seek(first).unwrap();
            for _ in 0..steps {
                c.advance().unwrap();
            }
            // Never backward: a target behind the cursor leaves it be.
            let rest: Vec<_> = clipped(&runs, first).into_iter().skip(steps).collect();
            let floor = first.max(second);
            prop_assert_eq!(clipped(&seek_then_drain(c, second), floor), clipped(&rest, floor));
        }

        #[test]
        fn fuzz_arbitrary_bytes_never_panic(
            id_bits in 1u8..34,
            nodes in proptest::collection::vec(any::<u8>(), 0..300),
            targets in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            // A valid header, so the subtrees get exercised …
            let bytes = [&[LAYOUT, id_bits][..], &nodes].concat();
            let targets: Vec<u64> = targets.into_iter().map(|t| t % (1 << id_bits)).collect();
            drive_untrusted(&bytes, vec![]);
            drive_untrusted(&bytes, targets.clone());
            // … and no header at all.
            drive_untrusted(&nodes, targets);
        }

        /// The descent over 1–6 payloads is the k-way slice merge of
        /// their decoded runs at every id width (12: one leaf, no
        /// directory), with FULL subtrees at every level and empty,
        /// identical and disjoint operands.
        #[test]
        fn fuzz_descent_is_the_slice_merge(
            width_pick in 0usize..6,
            specs in proptest::collection::vec((
                0usize..4,
                proptest::collection::vec(any::<u64>(), 0..150),
                proptest::collection::vec((any::<u64>(), 0u32..12), 0..4),
                straddles(),
            ), 1..=6),
        ) {
            let id_bits = [9, 12, 15, 18, 21, 33][width_pick];
            let mut lists: Vec<Vec<(u64, u64)>> = Vec::new();
            for (kind, ids, blocks, straddles) in specs {
                let previous = lists.last().map(Vec::as_slice);
                let runs = operand(id_bits, kind, ids, blocks, straddles, previous);
                lists.push(runs);
            }
            let payloads: Vec<Vec<u8>> =
                lists.iter().map(|runs| encode_runs(runs, id_bits).unwrap()).collect();
            let (runs, _) = descend(&payloads.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
            prop_assert_eq!(runs, slice_merge(&lists));
        }

        /// Arbitrary subtrees behind a valid header — alone, beside each
        /// other and beside the full id space, which leaves them the one
        /// live operand — and arbitrary bytes with no header at all.
        #[test]
        fn fuzz_descent_over_arbitrary_bytes_never_panics(
            id_bits in 1u8..34,
            nodes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..4),
        ) {
            let full = encode_runs(&[(0u64, (1u64 << id_bits) - 1)], u32::from(id_bits)).unwrap();
            let payloads: Vec<Vec<u8>> =
                nodes.iter().map(|nodes| [&[LAYOUT, id_bits][..], nodes].concat()).collect();
            let mut refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            descend_untrusted(&refs);
            refs.insert(0, &full);
            descend_untrusted(&refs);
            descend_untrusted(&nodes.iter().map(Vec::as_slice).collect::<Vec<_>>());
        }
    }
}
