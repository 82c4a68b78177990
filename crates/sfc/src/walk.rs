//! Walking a 3-D curve: the coordinates of *consecutive* ids.
//!
//! `coords_of` answers "where is id `i`" from scratch — `bits` dependent
//! table steps per voxel.  Data that arrives in curve order (a VOLUME's
//! samples, a REGION's runs) asks a cheaper question: "where is the
//! *next* id".  On an octree-aligned curve the eight ids of a leaf block
//! share every level of the descent but the last, and a block's
//! successor shares every level above the lowest digit that carried —
//! so stepping is one table lookup per voxel plus an amortised 8/7
//! level re-descents per block of eight.
//!
//! A range predicate asks the converse: "which ids lie in this box".
//! The same transducer answers it top-down ([`Curve::cover_box3`]): a
//! child cube's corner and orientation are one table step from its
//! parent's, so a box becomes its id intervals by descending only the
//! cubes its surface cuts.  The descent stops at cubes of side 4: the
//! 64 curve-ordered ids of such a cube fit one `u64`, and the ids whose
//! coordinate on one axis lies in `[lo, hi]` are a word the transducer
//! fixes per orientation ([`LeafMasks`]).  A cut 4³ cube is three such
//! words ANDed, its runs read off with `trailing_zeros` /
//! `trailing_ones`.

use crate::{Curve, SpaceFillingCurve, MAX_INDEX_BITS};
use std::ops::Range;

/// Deepest 3-D grid an index can address (`3 * 21 = 63` bits).
const MAX_LEVELS: usize = (MAX_INDEX_BITS / 3) as usize;

/// `masks[axis][lo * 4 + hi]` for one orientation: bit `i` is set when
/// the `i`-th id of a 4³ cube has its `axis` coordinate, relative to
/// the cube's corner, in `[lo, hi]`.  Slots with `lo > hi` are empty.
pub(crate) type LeafMasks = [[u64; 16]; 3];

/// An octant transducer: `octant[state][digit]` is the child cube the
/// curve visits `digit`-th in orientation `state`, `next[state][octant]`
/// the orientation inside that child, and `masks[state]` the 4³ cube's
/// per-axis id words in that orientation.  Hilbert's 24 states are
/// learned from the bitwise curve; the Z curve is the one-state identity.
#[derive(Clone, Copy)]
pub(crate) struct Transducer3 {
    pub start: u8,
    pub octant: &'static [[u8; 8]],
    pub next: &'static [[u8; 8]],
    pub masks: &'static [LeafMasks],
}

/// `table[row][col]`.  Rows are states the tables themselves issued and
/// columns 3-bit digits, so the fallback is never taken.
#[inline]
fn at(table: &[[u8; 8]], row: u8, col: usize) -> u8 {
    table.get(usize::from(row)).and_then(|r| r.get(col)).copied().unwrap_or(0)
}

/// `masks[state][axis][slot]`, in the same idiom: states come from the
/// tables, axes are `0..3` and slots `lo * 4 + hi` with `hi < 4`.
#[inline]
fn mask(masks: &[LeafMasks], state: u8, axis: usize, slot: u32) -> u64 {
    masks
        .get(usize::from(state))
        .and_then(|m| m.get(axis))
        .and_then(|row| row.get(slot as usize))
        .copied()
        .unwrap_or(0)
}

/// Derives every orientation's [`LeafMasks`] from the octant tables: id
/// `i` of a 4³ cube is digit `i >> 3` one level down and digit `i & 7`
/// two levels down, the same two table steps `coords_of` takes.
pub(crate) fn leaf_masks(octant: &[[u8; 8]], next: &[[u8; 8]]) -> Vec<LeafMasks> {
    (0..octant.len())
        .map(|state| {
            let state = state as u8;
            let mut masks = [[0u64; 16]; 3];
            for id in 0..64usize {
                let upper = at(octant, state, id >> 3);
                let lower = at(octant, at(next, state, usize::from(upper)), id & 7);
                for (axis, row) in masks.iter_mut().enumerate() {
                    let bit = |oct: u8| usize::from((oct >> (2 - axis)) & 1);
                    let c = bit(upper) << 1 | bit(lower);
                    for (slot, word) in row.iter_mut().enumerate() {
                        if slot / 4 <= c && c <= slot % 4 {
                            *word |= 1 << id;
                        }
                    }
                }
            }
            masks
        })
        .collect()
}

/// A cube on the path from the root to the current id: the orientation
/// its digit is decoded in, and its minimum corner.
type Cube = (u8, u32, u32, u32);

/// Streams `(id, x, y, z)` for an ascending range of ids on a 3-D curve.
///
/// Built by [`Curve::walk3`]; yields exactly what `coords_of` would for
/// each id, in id order, without materialising anything.
pub struct Walk3 {
    ids: Range<u64>,
    bits: u32,
    /// `None` walks scanline order, whose coordinates are bit fields of
    /// the id and need no state.
    table: Option<Transducer3>,
    /// `path[l]` is the cube of side `2^(l+1)` holding the current id,
    /// the one whose digit is id bits `3l..3l+3`; `path[0]` is the leaf
    /// block of eight consecutive ids.
    path: [Cube; MAX_LEVELS],
}

impl Walk3 {
    fn new(curve: &Curve, ids: Range<u64>) -> Walk3 {
        assert_eq!(curve.dims(), 3, "walk3 requires a 3-D curve");
        assert!(
            ids.end <= curve.cell_count(),
            "walk3 range {ids:?} exceeds the grid's {} cells",
            curve.cell_count()
        );
        let table = curve.transducer3();
        let root = (table.map_or(0, |t| t.start), 0, 0, 0);
        let mut walk = Walk3 { bits: curve.bits(), table, path: [root; MAX_LEVELS], ids };
        if let Some(table) = table {
            walk.descend(table, walk.ids.start, walk.bits as usize - 1);
        }
        walk
    }

    /// Re-derives `path[..from]` from `id`'s digits; `path[from]` and
    /// above must already hold `id`.
    fn descend(&mut self, table: Transducer3, id: u64, from: usize) {
        let (below, held) = self.path.split_at_mut(from);
        let Some(&(mut state, mut x, mut y, mut z)) = held.first() else { return };
        for (child, cube) in below.iter_mut().enumerate().rev() {
            let level = child + 1;
            let oct = at(table.octant, state, ((id >> (3 * level)) & 7) as usize);
            x |= u32::from(oct >> 2) << level;
            y |= u32::from((oct >> 1) & 1) << level;
            z |= u32::from(oct & 1) << level;
            state = at(table.next, state, usize::from(oct));
            *cube = (state, x, y, z);
        }
    }
}

impl Iterator for Walk3 {
    type Item = (u64, u32, u32, u32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let id = self.ids.next()?;
        let Some(table) = self.table else {
            let mask = (1u64 << self.bits) - 1;
            let (x, y) = (id >> (2 * self.bits), (id >> self.bits) & mask);
            return Some((id, x as u32, y as u32, (id & mask) as u32));
        };
        let digit = (id & 7) as usize;
        if digit == 0 {
            // Entering a new leaf block: the digits below the one that
            // carried are all zero, the levels above it are unchanged.
            let carried = (id.trailing_zeros() / 3).min(self.bits - 1);
            self.descend(table, id, carried as usize);
        }
        let [(state, x, y, z), ..] = self.path;
        let oct = at(table.octant, state, digit);
        Some((id, x | u32::from(oct >> 2), y | u32::from((oct >> 1) & 1), z | u32::from(oct & 1)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

/// The box descent: the tables, the inclusive box, and the sink.
struct BoxCover<F> {
    table: Transducer3,
    min: [u32; 3],
    max: [u32; 3],
    emit: F,
}

impl<F: FnMut(u64, u64)> BoxCover<F> {
    /// Covers the part of the box inside one cube the box's surface
    /// cuts: the cube of side `2^level` at `corner`, whose ids start at
    /// `base` and are decoded in orientation `state`.  A 4³ cube is one
    /// [`BoxCover::leaf`] word; a larger one tests its children before
    /// entering them, in id order.  A single voxel is never cut, so
    /// `level >= 1`, and only a 2³ grid's root has `level == 1`.
    fn cover(&mut self, state: u8, base: u64, corner: [u32; 3], level: u32) {
        if level == 2 {
            return self.leaf(state, base, corner);
        }
        let half = level - 1;
        let cells = 1u64 << (3 * half);
        let [x, y, z] = corner;
        for digit in 0..8u8 {
            let oct = at(self.table.octant, state, usize::from(digit));
            let bit = |axis: u8| u32::from((oct >> (2 - axis)) & 1) << half;
            let child = [x | bit(0), y | bit(1), z | bit(2)];
            let (mut inside, mut outside) = (true, false);
            for ((&lo, &min), &max) in child.iter().zip(&self.min).zip(&self.max) {
                let hi = lo + ((1u32 << half) - 1);
                outside |= lo > max || hi < min;
                inside &= lo >= min && hi <= max;
            }
            if outside {
                continue;
            }
            let first = base + u64::from(digit) * cells;
            if inside {
                (self.emit)(first, first + (cells - 1));
            } else {
                self.cover(at(self.table.next, state, usize::from(oct)), first, child, half);
            }
        }
    }

    /// Covers the box inside one cut 4³ cube: the box clipped to the
    /// cube is `[lo, hi]` on each axis, its ids the AND of the three
    /// axes' words, and its runs the word's blocks of set bits.
    fn leaf(&mut self, state: u8, base: u64, corner: [u32; 3]) {
        let mut word = u64::MAX;
        for (axis, ((&c, &min), &max)) in corner.iter().zip(&self.min).zip(&self.max).enumerate() {
            let (lo, hi) = (min.saturating_sub(c), max.saturating_sub(c).min(3));
            word &= mask(self.table.masks, state, axis, lo * 4 + hi);
        }
        while word != 0 {
            let first = word.trailing_zeros();
            let end = first + (word >> first).trailing_ones();
            (self.emit)(base + u64::from(first), base + u64::from(end - 1));
            word &= u64::MAX.checked_shl(end).unwrap_or(0);
        }
    }
}

impl Curve {
    /// The octant transducer of a hierarchical 3-D curve; `None` for
    /// scanline order, whose coordinates are bit fields of the id.
    fn transducer3(&self) -> Option<Transducer3> {
        match self {
            Curve::Hilbert(_) => Some(crate::hilbert::transducer3()),
            Curve::Morton(_) => Some(crate::morton::transducer3()),
            Curve::Scanline(_) => None,
        }
    }

    /// Walks the ids of `ids` in ascending order, yielding each with
    /// its coordinates as `(id, x, y, z)` — the streaming form of
    /// [`SpaceFillingCurve::coords_of`] for data that is already in
    /// curve order (a VOLUME's samples, a REGION's runs).  Hilbert and Z
    /// order step through their octant transducers at about one table
    /// lookup per voxel; scanline coordinates are bit fields of the id.
    ///
    /// # Panics
    /// Panics if the curve is not 3-dimensional or `ids` reaches past
    /// the grid.
    pub fn walk3(&self, ids: Range<u64>) -> Walk3 {
        Walk3::new(self, ids)
    }

    /// Hands `emit` the ids of the inclusive box `[min, max]` as
    /// `(first, last)` intervals, ascending and disjoint — a range
    /// predicate as a set of curve intervals.  Consecutive intervals may
    /// touch (`last + 1 == first`); a caller that wants maximal runs
    /// fuses them as they arrive.
    ///
    /// Hilbert and Z order descend their octant transducers from the
    /// root: a cube wholly inside the box is one interval, one outside
    /// is never entered, and only cubes the box's surface cuts subdivide
    /// — O(surface) table steps, no per-id decode.  Scanline order is
    /// one interval per `(x, y)` row.
    ///
    /// # Panics
    /// Panics if the curve is not 3-dimensional or the box is inverted
    /// or reaches past the grid.
    pub fn cover_box3(&self, min: [u32; 3], max: [u32; 3], mut emit: impl FnMut(u64, u64)) {
        assert_eq!(self.dims(), 3, "cover_box3 requires a 3-D curve");
        let (side, bits) = (self.side(), self.bits());
        assert!(
            max.iter().all(|&c| c < side) && min.iter().zip(&max).all(|(a, b)| a <= b),
            "box [{min:?}, {max:?}] inverted or outside grid side {side}"
        );
        let Some(table) = self.transducer3() else {
            let ([x0, y0, z0], [x1, y1, z1]) = (min.map(u64::from), max.map(u64::from));
            for x in x0..=x1 {
                for y in y0..=y1 {
                    let row = (x << (2 * bits)) | (y << bits);
                    emit(row | z0, row | z1);
                }
            }
            return;
        };
        if min == [0; 3] && max == [side - 1; 3] {
            emit(0, self.cell_count() - 1);
        } else {
            BoxCover { table, min, max, emit }.cover(table.start, 0, [0; 3], bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CurveKind;
    use proptest::prelude::*;

    /// Checks `cover_box3`'s contract on one box and returns how many
    /// intervals it emitted.
    fn check_cover(curve: &Curve, min: [u32; 3], max: [u32; 3]) -> usize {
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        curve.cover_box3(min, max, |first, last| intervals.push((first, last)));
        for &(first, last) in &intervals {
            assert!(first <= last && last < curve.cell_count(), "{first}..={last}");
        }
        for pair in intervals.windows(2) {
            assert!(pair[0].1 < pair[1].0, "ascending and disjoint: {pair:?}");
        }
        let covered: Vec<u64> = intervals.iter().flat_map(|&(first, last)| first..=last).collect();
        let inside = |id: &u64| {
            let (x, y, z) = curve.coords_of3(*id);
            (0..3).all(|a| (min[a]..=max[a]).contains(&[x, y, z][a]))
        };
        let expect: Vec<u64> = (0..curve.cell_count()).filter(inside).collect();
        assert_eq!(
            covered,
            expect,
            "{:?} bits={} box {min:?}..={max:?}",
            curve.kind(),
            curve.bits()
        );
        intervals.len()
    }

    /// Fuses touching intervals into maximal runs.
    fn fused(intervals: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (first, last) in intervals {
            match out.last_mut() {
                Some(prev) if prev.1 + 1 == first => prev.1 = last,
                _ => out.push((first, last)),
            }
        }
        out
    }

    /// The reference the 4³ leaf word is checked against: every cut
    /// cube tests its eight children, down to single voxels.
    struct PerChild {
        table: Transducer3,
        min: [u32; 3],
        max: [u32; 3],
        out: Vec<(u64, u64)>,
    }

    impl PerChild {
        fn descend(&mut self, state: u8, base: u64, corner: [u32; 3], level: u32) {
            let half = level - 1;
            let cells = 1u64 << (3 * half);
            for digit in 0..8u8 {
                let oct = at(self.table.octant, state, usize::from(digit));
                let lo: [u32; 3] =
                    std::array::from_fn(|a| corner[a] | u32::from((oct >> (2 - a)) & 1) << half);
                let hi = lo.map(|c| c + ((1u32 << half) - 1));
                if (0..3).any(|a| lo[a] > self.max[a] || hi[a] < self.min[a]) {
                    continue;
                }
                let first = base + u64::from(digit) * cells;
                if (0..3).all(|a| lo[a] >= self.min[a] && hi[a] <= self.max[a]) {
                    self.out.push((first, first + (cells - 1)));
                } else {
                    self.descend(at(self.table.next, state, usize::from(oct)), first, lo, half);
                }
            }
        }
    }

    /// [`PerChild`]'s cover of the box, as maximal runs.
    fn per_child_cover(curve: &Curve, min: [u32; 3], max: [u32; 3]) -> Vec<(u64, u64)> {
        let table = curve.transducer3().expect("a hierarchical curve");
        let mut reference = PerChild { table, min, max, out: Vec::new() };
        reference.descend(table.start, 0, [0; 3], curve.bits());
        fused(reference.out)
    }

    /// `cover_box3`'s intervals, fused, against [`per_child_cover`].
    fn check_against_per_child(curve: &Curve, min: [u32; 3], max: [u32; 3]) {
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        curve.cover_box3(min, max, |first, last| intervals.push((first, last)));
        for pair in intervals.windows(2) {
            assert!(pair[0].1 < pair[1].0, "ascending and disjoint: {pair:?}");
        }
        assert_eq!(
            fused(intervals),
            per_child_cover(curve, min, max),
            "{:?} bits={} box {min:?}..={max:?}",
            curve.kind(),
            curve.bits()
        );
    }

    #[test]
    fn cover_leaf_masks_match_coords_of() {
        // Every orientation's words, bit by bit, against the coordinates
        // of a 4³ cube the curve enters in that orientation at 128³.
        for kind in [CurveKind::Hilbert, CurveKind::Morton] {
            let curve = kind.curve(3, 7);
            let table = curve.transducer3().expect("hierarchical");
            let mut seen = vec![false; table.masks.len()];
            for base in (0..curve.cell_count()).step_by(64) {
                let mut state = table.start;
                for level in (2..7).rev() {
                    let oct = at(table.octant, state, ((base >> (3 * level)) & 7) as usize);
                    state = at(table.next, state, usize::from(oct));
                }
                if std::mem::replace(&mut seen[usize::from(state)], true) {
                    continue;
                }
                let (x, y, z) = curve.coords_of3(base);
                let corner = [x & !3, y & !3, z & !3];
                for id in 0..64u64 {
                    let (x, y, z) = curve.coords_of3(base + id);
                    for (axis, c) in [x, y, z].into_iter().enumerate() {
                        let c = c - corner[axis];
                        for slot in 0..16u32 {
                            let (lo, hi) = (slot / 4, slot % 4);
                            let set = mask(table.masks, state, axis, slot) >> id & 1 == 1;
                            assert_eq!(
                                set,
                                lo <= c && c <= hi,
                                "{kind} state {state} axis {axis} [{lo}, {hi}] id {id}"
                            );
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{kind}: every state reached at 128³");
        }
    }

    #[test]
    fn cover_matches_per_child_descent_on_edge_boxes() {
        for kind in [CurveKind::Hilbert, CurveKind::Morton] {
            for bits in 1..=7u32 {
                let curve = kind.curve(3, bits);
                let last = curve.side() - 1;
                check_against_per_child(&curve, [0; 3], [last; 3]);
                for voxel in [[0; 3], [last; 3], [1, last, 2 % curve.side()], [last / 2; 3]] {
                    check_against_per_child(&curve, voxel, voxel);
                }
                for axis in 0..3 {
                    for face in [0, last] {
                        let (mut min, mut max) = ([0; 3], [last; 3]);
                        (min[axis], max[axis]) = (face, face);
                        check_against_per_child(&curve, min, max);
                    }
                }
                for start in [1, last / 3, last - 1] {
                    check_against_per_child(&curve, [start; 3], [last; 3]);
                    check_against_per_child(&curve, [start, 0, last / 2], [last; 3]);
                }
            }
        }
    }

    #[test]
    fn full_grid_walk_matches_coords_of() {
        for kind in CurveKind::ALL {
            for bits in 1..=4u32 {
                let curve = kind.curve(3, bits);
                let mut count = 0u64;
                for (id, x, y, z) in curve.walk3(0..curve.cell_count()) {
                    assert_eq!(id, count, "{kind} bits={bits}: ids ascend from 0");
                    assert_eq!((x, y, z), curve.coords_of3(id), "{kind} bits={bits} id={id}");
                    count += 1;
                }
                assert_eq!(count, curve.cell_count());
            }
        }
    }

    #[test]
    fn empty_and_single_id_ranges() {
        for kind in CurveKind::ALL {
            let curve = kind.curve(3, 5);
            assert_eq!(curve.walk3(77..77).count(), 0);
            let last = curve.cell_count() - 1;
            let (x, y, z) = curve.coords_of3(last);
            assert_eq!(curve.walk3(last..last + 1).collect::<Vec<_>>(), vec![(last, x, y, z)]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the grid")]
    fn range_past_the_grid_panics() {
        let curve = CurveKind::Hilbert.curve(3, 2);
        let _ = curve.walk3(60..65);
    }

    #[test]
    #[should_panic(expected = "requires a 3-D curve")]
    fn two_dimensional_curve_panics() {
        let _ = CurveKind::Hilbert.curve(2, 4).walk3(0..4);
    }

    #[test]
    fn cover_of_degenerate_boxes() {
        for kind in CurveKind::ALL {
            for bits in 1..=4u32 {
                let curve = kind.curve(3, bits);
                let last = curve.side() - 1;
                let full = check_cover(&curve, [0; 3], [last; 3]);
                if kind != CurveKind::Scanline {
                    assert_eq!(full, 1, "the whole grid is the root cube");
                }
                for corner in [[0; 3], [last; 3], [0, last, 0], [last / 2, last, last / 2]] {
                    assert_eq!(check_cover(&curve, corner, corner), 1, "one voxel, one interval");
                }
                for axis in 0..3 {
                    for face in [0, last] {
                        let (mut min, mut max) = ([0; 3], [last; 3]);
                        (min[axis], max[axis]) = (face, face);
                        check_cover(&curve, min, max);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverted or outside grid")]
    fn cover_of_a_box_past_the_grid_panics() {
        CurveKind::Hilbert.curve(3, 2).cover_box3([0; 3], [3, 4, 3], |_, _| {});
    }

    /// Not a correctness test: prints walk vs `coords_of` timings over a
    /// full 128³ sweep, and the box cover's per box and per maximal
    /// answer run at the benchmark's box extents (side/8, side/4,
    /// side/2; 60 seeded boxes × 30 repetitions each).  Run with
    /// `cargo test -p qbism-sfc --release -- --ignored --nocapture walk_speed`.
    #[test]
    #[ignore = "timing report, run explicitly in release mode"]
    #[expect(
        clippy::disallowed_methods,
        reason = "an ignored speed report: it measures native time by design"
    )]
    fn walk_speed_report() {
        for kind in CurveKind::ALL {
            let curve = kind.curve(3, 7);
            let n = curve.cell_count();
            let t = std::time::Instant::now();
            let walked = curve.walk3(0..n).fold(0u64, |acc, (_, x, y, z)| {
                acc.wrapping_add(u64::from(x ^ (y << 7) ^ (z << 14)))
            });
            let walk = t.elapsed();
            let t = std::time::Instant::now();
            let decoded = (0..n).fold(0u64, |acc, id| {
                let (x, y, z) = curve.coords_of3(id);
                acc.wrapping_add(u64::from(x ^ (y << 7) ^ (z << 14)))
            });
            let decode = t.elapsed();
            assert_eq!(walked, decoded);
            println!(
                "{kind}: walk3 {:.2} ns/voxel, coords_of {:.2} ns/voxel",
                walk.as_nanos() as f64 / n as f64,
                decode.as_nanos() as f64 / n as f64
            );
            let side = curve.side();
            for extent in [side / 8, side / 4, side / 2] {
                let mut seed = 1994u64;
                let boxes: Vec<[u32; 3]> = (0..60)
                    .map(|_| {
                        [0; 3].map(|_| (splitmix(&mut seed) % u64::from(side - extent + 1)) as u32)
                    })
                    .collect();
                let mut runs = 0u64;
                let t = std::time::Instant::now();
                for _ in 0..30 {
                    for min in &boxes {
                        let mut next_id = u64::MAX;
                        curve.cover_box3(*min, min.map(|c| c + extent - 1), |first, last| {
                            runs += u64::from(first != next_id);
                            next_id = last + 1;
                        });
                    }
                }
                let elapsed = t.elapsed().as_nanos() as f64;
                println!(
                    "{kind}: cover_box3 extent {extent}: {:.1} us/box, {:.2} ns/run ({} runs/box)",
                    elapsed / 1e3 / (30.0 * 60.0),
                    elapsed / runs as f64,
                    runs / (30 * 60)
                );
            }
        }
    }

    /// SplitMix64: the report's box corners, the same on every run.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        #[test]
        fn walk_equals_coords_of_on_random_intervals(
            kind in 0usize..3,
            bits in 1u32..=7,
            a in 0.0f64..1.0,
            len in 0u64..700,
        ) {
            let curve = CurveKind::ALL[kind].curve(3, bits);
            let cells = curve.cell_count();
            let start = (a * cells as f64) as u64;
            let end = (start + len).min(cells);
            let mut expect = start;
            for (id, x, y, z) in curve.walk3(start..end) {
                prop_assert_eq!(id, expect);
                prop_assert_eq!((x, y, z), curve.coords_of3(id));
                expect += 1;
            }
            prop_assert_eq!(expect, end);
        }

        #[test]
        fn cover_box_is_exactly_the_ids_inside(
            kind in 0usize..3,
            bits in 1u32..=5,
            c0 in proptest::array::uniform3(0.0f64..1.0),
            c1 in proptest::array::uniform3(0.0f64..1.0),
        ) {
            let curve = CurveKind::ALL[kind].curve(3, bits);
            let pick = |c: f64| (c * f64::from(curve.side())) as u32;
            let min = [0, 1, 2].map(|a| pick(c0[a].min(c1[a])));
            let max = [0, 1, 2].map(|a| pick(c0[a].max(c1[a])));
            check_cover(&curve, min, max);
        }

        #[test]
        fn cover_matches_per_child_descent_at_64_and_128(
            hilbert in any::<bool>(),
            bits in 6u32..=7,
            c0 in proptest::array::uniform3(0.0f64..1.0),
            c1 in proptest::array::uniform3(0.0f64..1.0),
        ) {
            let kind = if hilbert { CurveKind::Hilbert } else { CurveKind::Morton };
            let curve = kind.curve(3, bits);
            let pick = |c: f64| (c * f64::from(curve.side())) as u32;
            let min = [0, 1, 2].map(|a| pick(c0[a].min(c1[a])));
            let max = [0, 1, 2].map(|a| pick(c0[a].max(c1[a])));
            check_against_per_child(&curve, min, max);
        }
    }
}
