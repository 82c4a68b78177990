//! Walking a 3-D curve: the coordinates of *consecutive* ids.
//!
//! `coords_of` answers "where is id `i`" from scratch — `bits` dependent
//! table steps per voxel.  Data that arrives in curve order (a VOLUME's
//! samples, a REGION's runs) asks a cheaper question: "where is the
//! *next* id".  On an octree-aligned curve the 64 ids of a 4³ cube
//! share every level of the descent but the last two, and those two
//! depend only on the cube's orientation: so a walk descends once per
//! 64 ids, to the cube's corner and orientation, and reads each id's
//! offset from that corner out of the orientation's table
//! ([`CubeOffsets`]) — one byte load per voxel.
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

use crate::{Curve, SpaceFillingCurve};
use std::ops::Range;

/// `offsets[i]` for one orientation: the `i`-th id of a 4³ cube lies at
/// the cube's corner plus `(o >> 4, o >> 2 & 3, o & 3)`, `o = offsets[i]`.
pub(crate) type CubeOffsets = [u8; 64];

/// `masks[axis][lo * 4 + hi]` for one orientation: bit `i` is set when
/// the `i`-th id of a 4³ cube has its `axis` coordinate, relative to
/// the cube's corner, in `[lo, hi]`.  Slots with `lo > hi` are empty.
pub(crate) type LeafMasks = [[u64; 16]; 3];

/// An octant transducer: `octant[state][digit]` is the child cube the
/// curve visits `digit`-th in orientation `state`, `next[state][octant]`
/// the orientation inside that child, and `cubes[state]` and
/// `masks[state]` the 4³ cube's id offsets and per-axis id words in
/// that orientation.  Hilbert's 24 states are learned from the bitwise
/// curve; the Z curve is the one-state identity.
#[derive(Clone, Copy)]
pub(crate) struct Transducer3 {
    pub start: u8,
    pub octant: &'static [[u8; 8]],
    pub next: &'static [[u8; 8]],
    pub cubes: &'static [CubeOffsets],
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

/// An octant digit `(x, y, z)` bits as a [`CubeOffsets`] entry.
fn spread(oct: u8) -> u8 {
    (oct >> 2 & 1) << 4 | (oct >> 1 & 1) << 2 | oct & 1
}

/// Derives every orientation's [`CubeOffsets`] from the octant tables:
/// id `i` of a 4³ cube is digit `i >> 3` one level down and digit `i & 7`
/// two levels down, the same two table steps `coords_of` takes.
pub(crate) fn cube_offsets(octant: &[[u8; 8]], next: &[[u8; 8]]) -> Vec<CubeOffsets> {
    (0..octant.len())
        .map(|state| {
            let state = state as u8;
            std::array::from_fn(|id| {
                let upper = at(octant, state, id >> 3);
                let lower = at(octant, at(next, state, usize::from(upper)), id & 7);
                spread(upper) << 1 | spread(lower)
            })
        })
        .collect()
}

/// Derives every orientation's [`LeafMasks`] from its [`CubeOffsets`].
pub(crate) fn leaf_masks(cubes: &[CubeOffsets]) -> Vec<LeafMasks> {
    cubes
        .iter()
        .map(|offsets| {
            let mut masks = [[0u64; 16]; 3];
            for (id, &o) in offsets.iter().enumerate() {
                for (axis, row) in masks.iter_mut().enumerate() {
                    let c = usize::from(o >> (4 - 2 * axis) & 3);
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
    /// The minimum corner of the 4³ cube holding the current id.
    corner: [u32; 3],
    /// That cube's id offsets from its corner.  A 2³ grid, smaller than
    /// one cube, is its root's eight octants.
    offsets: CubeOffsets,
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
        let mut walk = Walk3 { bits: curve.bits(), table, corner: [0; 3], offsets: [0; 64], ids };
        walk.enter(walk.ids.start);
        walk
    }

    /// Descends from the root to the 4³ cube holding `id`: its corner
    /// and its orientation's offsets.
    #[inline(never)]
    fn enter(&mut self, id: u64) {
        let Some(table) = &self.table else { return };
        let mut state = table.start;
        let mut corner = [0u32; 3];
        for level in (2..self.bits).rev() {
            let oct = at(table.octant, state, ((id >> (3 * level)) & 7) as usize);
            for (axis, c) in corner.iter_mut().enumerate() {
                *c |= u32::from(oct >> (2 - axis) & 1) << level;
            }
            state = at(table.next, state, usize::from(oct));
        }
        self.corner = corner;
        self.offsets = if self.bits == 1 {
            std::array::from_fn(|id| spread(at(table.octant, state, id)))
        } else {
            table.cubes.get(usize::from(state)).copied().unwrap_or([0; 64])
        };
    }

    /// Scanline coordinates: bit fields of the id.
    #[inline]
    fn scanline(&self, id: u64) -> (u64, u32, u32, u32) {
        let mask = (1u64 << self.bits) - 1;
        let (x, y) = (id >> (2 * self.bits), (id >> self.bits) & mask);
        (id, x as u32, y as u32, (id & mask) as u32)
    }

    /// The id `slot` places into the current cube.
    #[inline]
    fn in_cube(&self, id: u64, slot: usize) -> (u64, u32, u32, u32) {
        let o = self.offsets[slot];
        let [x, y, z] = self.corner;
        (id, x | u32::from(o >> 4), y | u32::from(o >> 2 & 3), z | u32::from(o & 3))
    }
}

impl Iterator for Walk3 {
    type Item = (u64, u32, u32, u32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let id = self.ids.next()?;
        if self.table.is_none() {
            return Some(self.scanline(id));
        }
        let slot = (id & 63) as usize;
        if slot == 0 {
            self.enter(id);
        }
        Some(self.in_cube(id, slot))
    }

    /// A cube at a time: one descent, then a loop over its offsets.
    #[inline]
    fn fold<B, G: FnMut(B, Self::Item) -> B>(mut self, init: B, mut g: G) -> B {
        let mut acc = init;
        if self.table.is_none() {
            for id in self.ids.clone() {
                acc = g(acc, self.scanline(id));
            }
            return acc;
        }
        let Range { mut start, end } = self.ids;
        while start < end {
            let slot = (start & 63) as usize;
            if slot == 0 {
                self.enter(start);
            }
            let stop = end.min((start | 63) + 1);
            for (id, slot) in (start..stop).zip(slot..) {
                acc = g(acc, self.in_cube(id, slot));
            }
            start = stop;
        }
        acc
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

    /// Not a correctness test: prints, in ns/voxel over full 64³ and
    /// 128³ sweeps, the cube walk through `fold` and through `next`,
    /// `Volume::from_fn3`'s gather of a scanline table into curve order,
    /// and `coords_of3` per id; then the box cover's per box and per
    /// maximal answer run at 128³ at the benchmark's box extents (side/8,
    /// side/4, side/2; 60 seeded boxes × 30 repetitions each).  Run with
    /// `cargo test -p qbism-sfc --release -- --ignored --nocapture walk_speed`.
    #[test]
    #[ignore = "timing report, run explicitly in release mode"]
    #[expect(
        clippy::disallowed_methods,
        reason = "an ignored speed report: it measures native time by design"
    )]
    fn walk_speed_report() {
        for kind in CurveKind::ALL {
            for bits in [6, 7] {
                let curve = kind.curve(3, bits);
                let n = curve.cell_count();
                let side = u64::from(curve.side());
                // Opaque to the optimizer, which would otherwise fold a
                // whole scanline sweep's sum into a closed form.
                let key = |x: u32, y: u32, z: u32| {
                    let (x, y, z) = std::hint::black_box((x, y, z));
                    u64::from(x ^ (y << 7) ^ (z << 14))
                };
                let ns = |t: std::time::Instant| t.elapsed().as_nanos() as f64 / n as f64;
                let best = |f: &dyn Fn() -> u64| {
                    (0..5)
                        .map(|_| {
                            let t = std::time::Instant::now();
                            (f(), ns(t))
                        })
                        .fold((0, f64::INFINITY), |(_, b), (sum, t)| (sum, b.min(t)))
                };
                let (folded, fold) = best(&|| {
                    curve.walk3(0..n).fold(0u64, |acc, (_, x, y, z)| acc.wrapping_add(key(x, y, z)))
                });
                let (stepped, next) = best(&|| {
                    let mut acc = 0u64;
                    for (_, x, y, z) in curve.walk3(0..n) {
                        acc = acc.wrapping_add(key(x, y, z));
                    }
                    acc
                });
                let (decoded, decode) = best(&|| {
                    (0..n).fold(0u64, |acc, id| {
                        let (x, y, z) = curve.coords_of3(id);
                        acc.wrapping_add(key(x, y, z))
                    })
                });
                // `Volume::from_fn3`'s gather, as the warp runs it: a
                // scanline-ordered table read into curve order.
                let table: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
                let (gathered, gather) = best(&|| {
                    let mut values = Vec::with_capacity(n as usize);
                    values.extend(curve.walk3(0..n).map(|(_, x, y, z)| {
                        let scan = (u64::from(x) * side + u64::from(y)) * side + u64::from(z);
                        table[scan as usize]
                    }));
                    values.iter().map(|&v| u64::from(v)).sum()
                });
                assert_eq!((folded, stepped), (decoded, decoded));
                assert_eq!(gathered, table.iter().map(|&v| u64::from(v)).sum::<u64>());
                println!(
                    "{kind} {side}³: walk3 fold {fold:.2}, walk3 next {next:.2}, \
                     from_fn3 gather {gather:.2}, coords_of {decode:.2} ns/voxel (best of 5)"
                );
            }
            let curve = kind.curve(3, 7);
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

    /// Checks `walk3(ids)` against `coords_of3`, through both `next`
    /// (a `for` loop) and `fold`, which steps a cube at a time.
    fn check_walk(curve: &Curve, ids: Range<u64>) {
        let expect: Vec<_> = ids
            .clone()
            .map(|id| {
                let (x, y, z) = curve.coords_of3(id);
                (id, x, y, z)
            })
            .collect();
        let mut stepped = Vec::new();
        for item in curve.walk3(ids.clone()) {
            stepped.push(item);
        }
        let folded = curve.walk3(ids.clone()).fold(Vec::new(), |mut v, item| {
            v.push(item);
            v
        });
        assert_eq!(stepped, expect, "{:?} bits={} {ids:?}", curve.kind(), curve.bits());
        assert_eq!(folded, expect, "{:?} bits={} {ids:?} (fold)", curve.kind(), curve.bits());
    }

    #[test]
    fn cube_walk_edges_equal_coords_of() {
        for kind in CurveKind::ALL {
            // A 2³ grid, smaller than one 4³ cube, then ranges that start
            // and end mid-cube and cross one or more 64-id boundaries.
            let tiny = kind.curve(3, 1);
            for start in 0..=8 {
                for end in start..=8 {
                    check_walk(&tiny, start..end);
                }
            }
            for bits in 2..=5 {
                let curve = kind.curve(3, bits);
                let cells = curve.cell_count();
                for (start, end) in [(0, 1), (1, 63), (63, 65), (5, 200), (64, 128), (127, 129)] {
                    check_walk(&curve, start.min(cells)..end.min(cells));
                }
                check_walk(&curve, cells - 70..cells);
                check_walk(&curve, cells..cells);
            }
            // Full sweeps at 64³ and 128³.
            for bits in [6, 7] {
                let curve = kind.curve(3, bits);
                let cells = curve.cell_count();
                let count = curve.walk3(0..cells).fold(0u64, |n, (id, x, y, z)| {
                    assert_eq!((x, y, z), curve.coords_of3(id), "{kind} bits={bits} id {id}");
                    assert_eq!(id, n);
                    n + 1
                });
                assert_eq!(count, cells);
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
