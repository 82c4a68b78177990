//! Run kernels: one streaming set algebra over sorted run streams, plus
//! batched curve transcoding and box decomposition.
//!
//! The paper's thesis is that runs on a space-filling curve are the right
//! *algebraic* representation, so the hot operators never leave it.  A
//! REGION operand is whatever can answer `peek` / `advance` / `seek` in id
//! order ([`Cursor`]) — a decoded `&[Run]` slice ([`RunsCursor`]) or a
//! k³ payload decoded a leaf at a time ([`qbism_coding::K3Cursor`],
//! which gallops inside the decoded leaf and past it by byte lengths and
//! subtree pruning, so a merge touches only the codewords near overlaps:
//! Brisaboa et al.'s compact *queryable* representations applied to
//! h-runs) — and each operator exists once, generic over it.  The SQL
//! operators run these over decoded slices, since a stored REGION is
//! decoded at most once per field; the k³ cursor is a capability the
//! kernel and codec tests and the benchmark probes exercise:
//!
//! * [`intersect`] / [`union`] / [`difference`] — two-pointer merge
//!   scans, the run analogue of Orenstein & Manola's spatial join, each
//!   collecting its answer as a run vector; [`intersect_into`] is the ∩
//!   scan feeding a sink, so overlap is counted without building the
//!   intersection;
//! * [`intersect_k_cursors`] — the k-way simultaneous merge.  It now
//!   serves only the decoded operands of the multi-study fold (naive
//!   bands', through its slice entry [`intersect_k`]) and the
//!   benchmark probe: a fold of k³ payloads is the synchronized
//!   directory descent of [`crate::intersect_k3`], so the probe's
//!   `region.intersect_k_stream_ns_per_run` no longer measures the
//!   server's compressed fold.
//!
//! Canonical operands (sorted, disjoint, non-adjacent — see
//! [`crate::Region`] invariants) give canonical output, identical for
//! every cursor kind; nothing here materializes per-voxel ids or drains a
//! compressed payload.  After `seek(t)` a cursor may report its current
//! run with the start clipped upward (never past `t`); every merge only
//! consumes ids `>= t` after seeking `t`, so clipped and true runs are
//! indistinguishable.
//!
//! The two batch kernels have no cursor form:
//!
//! * [`transcode_runs`] — re-linearization onto another curve that walks
//!   maximal octree-aligned id blocks (one curve conversion per *block*
//!   instead of per voxel) whenever both curves are hierarchical;
//! * [`box_runs3`] — axis-aligned box rasterization from the curve's box
//!   cover ([`Curve::cover_box3`]), visiting only O(surface) cells
//!   instead of every voxel in the box.

use crate::encode::RegionEncodeError;
use crate::run::{normalize, push_fused, Run};
use qbism_coding::RunCursor;
use qbism_sfc::{Curve, SpaceFillingCurve};
use std::convert::Infallible;

/// What a merge needs of an operand: [`RunCursor`]'s stepping with the
/// error type `E` left open, so operands that cannot fail merge
/// infallibly *by type*.  Every [`RunCursor`] is a
/// `Cursor<RegionEncodeError>`; a [`RunsCursor`] is a `Cursor<E>` for
/// any `E`, which is also what lets it pair with a compressed operand.
pub trait Cursor<E> {
    /// Current run as `(start, end)`, or `None` once exhausted.
    fn peek(&self) -> Option<(u64, u64)>;
    /// Steps to the next run in id order.
    fn advance(&mut self) -> Result<(), E>;
    /// Gallops forward to the first run with `end >= target`; never
    /// moves backward.
    fn seek(&mut self, target: u64) -> Result<(), E>;
}

impl<C: RunCursor + ?Sized> Cursor<RegionEncodeError> for C {
    fn peek(&self) -> Option<(u64, u64)> {
        RunCursor::peek(self)
    }

    fn advance(&mut self) -> Result<(), RegionEncodeError> {
        Ok(RunCursor::advance(self)?)
    }

    fn seek(&mut self, target: u64) -> Result<(), RegionEncodeError> {
        Ok(RunCursor::seek(self, target)?)
    }
}

/// Cursor over a decoded canonical run slice.
#[derive(Debug, Clone)]
pub struct RunsCursor<'a> {
    runs: &'a [Run],
    pos: usize,
    skips: u64,
}

impl<'a> RunsCursor<'a> {
    /// Wraps a canonical (sorted, disjoint, non-adjacent) run slice.
    pub fn new(runs: &'a [Run]) -> Self {
        RunsCursor { runs, pos: 0, skips: 0 }
    }

    /// Runs bypassed by `seek` beyond the one it lands on — the slice
    /// analogue of [`RunCursor::skips`].
    pub fn skips(&self) -> u64 {
        self.skips
    }
}

impl<E> Cursor<E> for RunsCursor<'_> {
    #[inline]
    fn peek(&self) -> Option<(u64, u64)> {
        self.runs.get(self.pos).map(|r| (r.start, r.end))
    }

    #[inline]
    fn advance(&mut self) -> Result<(), E> {
        if self.pos < self.runs.len() {
            self.pos += 1;
        }
        Ok(())
    }

    /// Run ends are strictly increasing, so the landing run is found by
    /// an exponential probe then a binary search of the last window:
    /// O(log skip), not O(log remaining), and two compares when the
    /// current or the next run already suffices.
    #[inline]
    fn seek(&mut self, target: u64) -> Result<(), E> {
        let rest = &self.runs[self.pos..];
        let (mut base, mut step) = (0usize, 1usize);
        while rest.get(base + step).is_some_and(|r| r.end < target) {
            base += step;
            step <<= 1;
        }
        let window = &rest[base..(base + step).min(rest.len())];
        let ahead = base + window.partition_point(|r| r.end < target);
        self.skips += ahead.saturating_sub(1) as u64;
        self.pos += ahead;
        Ok(())
    }
}

/// The ∩ merge scan, handing each common span to `emit` in id order —
/// a counter or a run vector; the scan stops at the sink's first error.
/// Disjoint stretches are galloped over with `seek`, so a compressed
/// operand is never fully decoded.
pub fn intersect_into<E>(
    a: &mut impl Cursor<E>,
    b: &mut impl Cursor<E>,
    mut emit: impl FnMut(u64, u64) -> Result<(), E>,
) -> Result<(), E> {
    while let (Some((a_start, a_end)), Some((b_start, b_end))) = (a.peek(), b.peek()) {
        let lo = a_start.max(b_start);
        let hi = a_end.min(b_end);
        if lo <= hi {
            // Overlap: emit it and step whichever run ends first.  A
            // span ends where one operand's run ends, and that operand's
            // next run starts at least two ids later: no two spans touch.
            emit(lo, hi)?;
            if a_end <= b_end {
                a.advance()?;
            } else {
                b.advance()?;
            }
        } else if a_end < b_start {
            // Disjoint: the run behind gallops to the one ahead.
            a.seek(b_start)?;
        } else {
            b.seek(a_start)?;
        }
    }
    Ok(())
}

/// Spatial intersection of two run streams.
pub fn intersect<E>(a: &mut impl Cursor<E>, b: &mut impl Cursor<E>) -> Result<Vec<Run>, E> {
    let mut out = Vec::new();
    intersect_into(a, b, |lo, hi| {
        out.push(Run::new(lo, hi));
        Ok(())
    })?;
    Ok(out)
}

/// Spatial union of two run streams, fusing overlap and adjacency on
/// the fly (no seeks — every run of both operands contributes): a run
/// is pushed once the next one starts past it.
pub fn union<E>(a: &mut impl Cursor<E>, b: &mut impl Cursor<E>) -> Result<Vec<Run>, E> {
    let mut out = Vec::new();
    // The run still growing.
    let mut open: Option<(u64, u64)> = None;
    loop {
        // The earlier-starting run goes next; an exhausted side never leads.
        let (start, end) = match (a.peek(), b.peek()) {
            (Some(ra), Some(rb)) if rb.0 < ra.0 => b.advance().map(|()| rb)?,
            (Some(ra), _) => a.advance().map(|()| ra)?,
            (None, Some(rb)) => b.advance().map(|()| rb)?,
            (None, None) => break,
        };
        match &mut open {
            Some((_, open_end)) if start <= open_end.saturating_add(1) => {
                *open_end = end.max(*open_end);
            }
            _ => {
                if let Some((lo, hi)) = open.replace((start, end)) {
                    out.push(Run::new(lo, hi));
                }
            }
        }
    }
    out.extend(open.map(|(lo, hi)| Run::new(lo, hi)));
    Ok(out)
}

/// Spatial difference `a \ b` of two run streams; the subtrahend
/// gallops to each minuend run, so a sparse `a` touches only the
/// matching parts of `b`.
pub fn difference<E>(a: &mut impl Cursor<E>, b: &mut impl Cursor<E>) -> Result<Vec<Run>, E> {
    let mut out = Vec::new();
    while let Some((a_start, a_end)) = a.peek() {
        // Next id of this a-run not yet pushed or subtracted.
        let mut cur = a_start;
        b.seek(cur)?;
        // Each b-run starting inside the a-run cuts it.  One reaching
        // `a_end` finishes it and stays current: it may also cover the
        // next a-run.
        let covered = loop {
            match b.peek() {
                Some((b_start, b_end)) if b_start <= a_end => {
                    if b_start > cur {
                        out.push(Run::new(cur, b_start - 1));
                    }
                    if b_end >= a_end {
                        break true;
                    }
                    cur = b_end + 1;
                    b.advance()?;
                }
                _ => break false,
            }
        };
        if !covered {
            out.push(Run::new(cur, a_end));
        }
        a.advance()?;
    }
    Ok(out)
}

/// K-way intersection in one simultaneous merge — the multi-study fold
/// of `multiStudyBandRegion`.  Every operand is scanned at most once,
/// galloping to the running maximum start over disjoint spans; no
/// intermediate list is built per fold step.  Generic over the cursor
/// so a fold over one concrete type is monomorphised; `dyn RunCursor`
/// operands still fit.  No cursors, no runs.
pub fn intersect_k_cursors<E, C: Cursor<E> + ?Sized>(
    cursors: &mut [&mut C],
) -> Result<Vec<Run>, E> {
    let mut out = Vec::new();
    if cursors.is_empty() {
        return Ok(out);
    }
    'merge: loop {
        let mut lo = 0u64;
        let mut hi = u64::MAX;
        for c in cursors.iter() {
            let Some((start, end)) = c.peek() else { break 'merge };
            lo = lo.max(start);
            hi = hi.min(end);
        }
        if lo <= hi {
            // At least one run finished at `hi` and its successor starts
            // at `hi + 2` or later, so the next span cannot be adjacent.
            out.push(Run::new(lo, hi));
            for c in cursors.iter_mut() {
                if c.peek().is_some_and(|(_, end)| end == hi) {
                    c.advance()?;
                }
            }
        } else {
            // A no-op for the cursors already at `lo`.
            for c in cursors.iter_mut() {
                c.seek(lo)?;
            }
        }
    }
    Ok(out)
}

/// K-way intersection of canonical run slices: [`intersect_k_cursors`]
/// over [`RunsCursor`]s, which cannot fail.
pub fn intersect_k(lists: &[&[Run]]) -> Vec<Run> {
    let mut cursors: Vec<RunsCursor<'_>> = lists.iter().map(|l| RunsCursor::new(l)).collect();
    let mut refs: Vec<&mut RunsCursor<'_>> = cursors.iter_mut().collect();
    let Ok(runs) = intersect_k_cursors::<Infallible, _>(&mut refs);
    runs
}

/// Largest `t` (a multiple of `dims`) such that the id block
/// `[p, p + 2^t)` is aligned at `p` and fits inside `avail` remaining ids.
fn max_block_log(p: u64, avail: u64, dims: u32) -> u32 {
    let align = if p == 0 { 63 } else { p.trailing_zeros().min(63) };
    // floor(log2(avail)); avail >= 1 always.
    let len_log = 63 - avail.leading_zeros();
    let t = align.min(len_log);
    t - t % dims
}

/// Clears the low `m` bits of every coordinate, snapping a point to the
/// minimum corner of its side-`2^m` aligned cube.
fn snap_to_corner(coords: &mut [u32], m: u32) {
    let mask = if m >= 32 { u32::MAX } else { (1u32 << m) - 1 };
    for c in coords.iter_mut() {
        *c &= !mask;
    }
}

/// Re-expresses a canonical run list from curve `src` onto curve `dst`
/// (same dims and bits), returning the canonical run list of the same
/// voxel set in the destination order.
///
/// When both curves are hierarchical
/// ([`qbism_sfc::CurveKind::is_hierarchical`]),
/// each run is decomposed into maximal octree-aligned id blocks and each
/// block transcodes with a *single* curve conversion: an aligned block is
/// one subcube in the source order and one aligned block in the
/// destination order, so only its corner needs converting.  Otherwise
/// (scanline on either side) ids are converted run-by-run through a
/// reused buffer — still never materializing the whole region at once.
///
/// # Panics
/// Panics if the two curves disagree on dims or bits.
pub fn transcode_runs(runs: &[Run], src: &Curve, dst: &Curve) -> Vec<Run> {
    assert_eq!(src.dims(), dst.dims(), "transcode between different dimensionalities");
    assert_eq!(src.bits(), dst.bits(), "transcode between different grid sizes");
    let dims = src.dims();
    let mut coords = vec![0u32; dims as usize];
    let mut out: Vec<Run> = Vec::new();
    if src.kind().is_hierarchical() && dst.kind().is_hierarchical() {
        for r in runs {
            let mut p = r.start;
            while p <= r.end {
                let t = max_block_log(p, r.end - p + 1, dims);
                src.coords_of(p, &mut coords);
                snap_to_corner(&mut coords, t / dims);
                // The corner's destination id lands somewhere inside the
                // destination block; shift down to the block base.
                let base = (dst.index_of(&coords) >> t) << t;
                out.push(Run::new(base, base + ((1u64 << t) - 1)));
                p += 1u64 << t;
            }
        }
    } else {
        let mut buf: Vec<u64> = Vec::new();
        for r in runs {
            buf.clear();
            buf.reserve(r.len() as usize);
            for id in r.start..=r.end {
                src.coords_of(id, &mut coords);
                buf.push(dst.index_of(&coords));
            }
            buf.sort_unstable();
            // Sorted within this run only (so not `push_fused`):
            // `normalize` below orders and fuses across runs.
            for &id in &buf {
                match out.last_mut() {
                    Some(last) if id == last.end + 1 => last.end = id,
                    _ => out.push(Run::new(id, id)),
                }
            }
        }
    }
    normalize(out)
}

/// Canonical run list of the inclusive axis-aligned box `[min, max]` on a
/// 3-D curve, computed without visiting individual voxels: the curve's
/// own box cover ([`Curve::cover_box3`] — transducer descent on
/// hierarchical curves, whole rows on scanline order, O(surface) either
/// way) with touching intervals fused into maximal runs.
///
/// # Panics
/// Panics if the curve is not 3-D or the box is inverted / out of grid.
pub fn box_runs3(curve: &Curve, min: [u32; 3], max: [u32; 3]) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    curve.cover_box3(min, max, |first, last| push_fused(&mut out, Run::new(first, last)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compressed_cursor, GridGeometry, Region, RegionCodec};
    use proptest::prelude::*;
    use qbism_coding::K3Cursor;
    use qbism_sfc::CurveKind;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// Seed-era reference implementations, kept verbatim-in-spirit as the
    /// debug oracle the kernels are measured and property-tested against.
    mod reference {
        use super::*;

        pub fn to_set(runs: &[Run]) -> BTreeSet<u64> {
            runs.iter().flat_map(|r| r.start..=r.end).collect()
        }

        pub fn from_set(set: &BTreeSet<u64>) -> Vec<Run> {
            let mut out: Vec<Run> = Vec::new();
            for &id in set {
                match out.last_mut() {
                    Some(last) if id == last.end + 1 => last.end = id,
                    _ => out.push(Run::new(id, id)),
                }
            }
            out
        }

        /// `[a ∩ b, a ∪ b, a ∖ b]` by set algebra.
        pub fn algebra(a: &[Run], b: &[Run]) -> [Vec<Run>; 3] {
            let (a, b) = (to_set(a), to_set(b));
            [
                from_set(&a.intersection(&b).copied().collect()),
                from_set(&a.union(&b).copied().collect()),
                from_set(&a.difference(&b).copied().collect()),
            ]
        }

        /// The seed `to_curve` path: one curve conversion per voxel into
        /// a materialized id vector.
        pub fn transcode(runs: &[Run], src: &Curve, dst: &Curve) -> Vec<Run> {
            let mut coords = vec![0u32; src.dims() as usize];
            let set: BTreeSet<u64> = to_set(runs)
                .into_iter()
                .map(|id| {
                    src.coords_of(id, &mut coords);
                    dst.index_of(&coords)
                })
                .collect();
            from_set(&set)
        }

        /// The seed `from_box` path: every voxel visited individually.
        pub fn box_runs(curve: &Curve, min: [u32; 3], max: [u32; 3]) -> Vec<Run> {
            let mut set = BTreeSet::new();
            for x in min[0]..=max[0] {
                for y in min[1]..=max[1] {
                    for z in min[2]..=max[2] {
                        set.insert(curve.index_of(&[x, y, z]));
                    }
                }
            }
            from_set(&set)
        }
    }

    /// One merge operand in both forms it can reach a kernel as: the
    /// decoded run list and the k³ byte string.
    struct Operand {
        region: Region,
        packed: Vec<u8>,
    }

    impl Operand {
        /// Also pins that the byte string decodes back to the region.
        fn new(region: Region) -> Self {
            let packed = RegionCodec::K3Tree.encode(&region).expect("encode");
            assert_eq!(RegionCodec::decode(&packed).expect("decode"), region);
            Operand { region, packed }
        }

        /// Scattered ids plus an optional solid box `(present, min,
        /// size)` on a 64³ or 128³ Hilbert grid, so payloads exercise
        /// both k³ node kinds.
        fn scattered(bits: u32, ids: &[u64], bx: (bool, [u32; 3], [u32; 3])) -> Self {
            let g = GridGeometry::new(CurveKind::Hilbert, 3, bits);
            let mut region =
                Region::from_ids(g, ids.iter().map(|id| id % g.cell_count()).collect());
            let (present, min, size) = bx;
            if present {
                let min = min.map(|c| c % g.side());
                let max = [0, 1, 2].map(|a| (min[a] + size[a]).min(g.side() - 1));
                region = region.union(&Region::from_box(g, min, max).expect("box inside grid"));
            }
            Operand::new(region)
        }

        fn of_runs(runs: Vec<Run>) -> Self {
            Operand::new(Region::from_runs(GridGeometry::new(CurveKind::Hilbert, 3, 6), runs))
        }

        fn runs(&self) -> RunsCursor<'_> {
            RunsCursor::new(self.region.runs())
        }

        fn packed(&self) -> K3Cursor<'_> {
            compressed_cursor(&self.packed).expect("open k3 cursor").1
        }
    }

    fn bx() -> impl Strategy<Value = (bool, [u32; 3], [u32; 3])> {
        (any::<bool>(), proptest::array::uniform3(0u32..128), proptest::array::uniform3(0u32..16))
    }

    /// `[∩, ∪, ∖]` through one cursor pairing; the in-place ∩ count
    /// must agree with the ∩ it did not build.
    fn algebra<E: Debug, A: Cursor<E>, B: Cursor<E>>(
        a: impl Fn() -> A,
        b: impl Fn() -> B,
    ) -> [Vec<Run>; 3] {
        let and = intersect(&mut a(), &mut b()).expect("intersect");
        let mut count = 0;
        let counted = intersect_into(&mut a(), &mut b(), |lo, hi| {
            count += hi - lo + 1;
            Ok(())
        });
        counted.expect("count");
        assert_eq!(count, and.iter().map(Run::len).sum::<u64>());
        let or = union(&mut a(), &mut b()).expect("union");
        [and, or, difference(&mut a(), &mut b()).expect("difference")]
    }

    /// Checks every operator over every cursor pairing — slice × slice
    /// (infallible by type), k³ × k³, and slice × k³ both ways round —
    /// against the set reference, whose answer (canonical by
    /// construction) it returns.
    fn check_pair(a: &Operand, b: &Operand) -> [Vec<Run>; 3] {
        let want = reference::algebra(a.region.runs(), b.region.runs());
        assert_eq!(algebra::<Infallible, _, _>(|| a.runs(), || b.runs()), want);
        assert_eq!(algebra(|| a.packed(), || b.packed()), want, "k3 x k3");
        assert_eq!(algebra(|| a.packed(), || b.runs()), want, "k3 x slice");
        assert_eq!(algebra(|| a.runs(), || b.packed()), want, "slice x k3");
        want
    }

    /// The k-way merge through every entry: the slice entry, concrete
    /// k³ cursors, and the `dyn RunCursor` form the benchmark probes
    /// call.
    fn check_kway(operands: &[Operand]) -> Vec<Run> {
        let mut want = operands.first().map(|o| reference::to_set(o.region.runs()));
        for o in operands.iter().skip(1) {
            let set = reference::to_set(o.region.runs());
            want = want.map(|w| w.intersection(&set).copied().collect());
        }
        let want = want.map(|w| reference::from_set(&w)).unwrap_or_default();
        let lists: Vec<&[Run]> = operands.iter().map(|o| o.region.runs()).collect();
        assert_eq!(intersect_k(&lists), want);
        let open = || operands.iter().map(Operand::packed).collect::<Vec<_>>();
        let mut cursors = open();
        let mut refs: Vec<&mut K3Cursor<'_>> = cursors.iter_mut().collect();
        assert_eq!(intersect_k_cursors(&mut refs).expect("k-way"), want);
        let mut cursors = open();
        let mut refs: Vec<&mut dyn RunCursor> =
            cursors.iter_mut().map(|c| c as &mut dyn RunCursor).collect();
        assert_eq!(intersect_k_cursors(&mut refs).expect("dyn"), want);
        want
    }

    #[test]
    fn empty_operands() {
        let (some, none) = (Operand::of_runs(vec![Run::new(1, 3)]), Operand::of_runs(vec![]));
        let some_runs = some.region.runs().to_vec();
        assert_eq!(check_pair(&none, &some), [vec![], some_runs.clone(), vec![]]);
        assert_eq!(check_pair(&some, &none), [vec![], some_runs.clone(), some_runs.clone()]);
        // K-way: no lists, no runs; one list is the identity; any empty
        // operand empties the answer.
        assert_eq!(check_kway(&[]), vec![]);
        assert_eq!(check_kway(std::slice::from_ref(&some)), some_runs);
        let full = Operand::new(Region::full(some.region.geometry()));
        assert_eq!(check_kway(&[full, none, some]), vec![]);
    }

    #[test]
    fn adjacent_runs_fuse_in_union_only() {
        // <0,4> ∪ <5,9> must fuse into the maximal run <0,9>, whichever
        // side leads, while ∩ and ∖ see the two as disjoint.
        let a = Operand::of_runs(vec![Run::new(0, 4)]);
        let b = Operand::of_runs(vec![Run::new(5, 9)]);
        assert_eq!(check_pair(&a, &b), [vec![], vec![Run::new(0, 9)], vec![Run::new(0, 4)]]);
        assert_eq!(check_pair(&b, &a), [vec![], vec![Run::new(0, 9)], vec![Run::new(5, 9)]]);
    }

    #[test]
    fn containment_splits_in_difference() {
        // b strictly inside a run of a: difference splits it.
        let a = Operand::of_runs(vec![Run::new(0, 99)]);
        let b = Operand::of_runs(vec![Run::new(10, 11), Run::new(50, 50)]);
        let split = vec![Run::new(0, 9), Run::new(12, 49), Run::new(51, 99)];
        let b_runs = b.region.runs().to_vec();
        assert_eq!(check_pair(&a, &b), [b_runs.clone(), vec![Run::new(0, 99)], split]);
        // a == b: difference empties, intersection and union are identity.
        assert_eq!(check_pair(&b, &b), [b_runs.clone(), b_runs, vec![]]);
    }

    #[test]
    fn far_right_sparse_run_gallops_over_a_thousand_dense_ones() {
        let sparse = vec![Run::new(100_000, 100_001)];
        let dense: Vec<Run> = (0..=1000).map(|i| Run::new(i * 100, i * 100 + 50)).collect();
        // The skip is observable: one seek passes every dense run but
        // the last, which it lands on.
        let (mut s, mut d) = (RunsCursor::new(&sparse), RunsCursor::new(&dense));
        assert_eq!(intersect::<Infallible>(&mut s, &mut d), Ok(sparse.clone()));
        assert_eq!((s.skips(), d.skips()), (0, 999));
        let (s, d) = (Operand::of_runs(sparse.clone()), Operand::of_runs(dense));
        assert_eq!(check_pair(&s, &d)[0], sparse);
        assert_eq!(check_kway(&[s, d]), sparse);
    }

    #[test]
    fn a_run_ending_at_u64_max_terminates_every_merge() {
        // Beyond any grid a codec can hold, so slice cursors only.
        let a = [Run::new(5, 9), Run::new(u64::MAX - 9, u64::MAX)];
        let b = [Run::new(0, 6), Run::new(u64::MAX - 4, u64::MAX)];
        let tail = Run::new(u64::MAX - 4, u64::MAX);
        let pair = algebra::<Infallible, _, _>(|| RunsCursor::new(&a), || RunsCursor::new(&b));
        assert_eq!(pair[0], vec![Run::new(5, 6), tail]);
        assert_eq!(pair[1], vec![Run::new(0, 9), Run::new(u64::MAX - 9, u64::MAX)]);
        assert_eq!(pair[2], vec![Run::new(7, 9), Run::new(u64::MAX - 9, u64::MAX - 5)]);
        assert_eq!(intersect_k(&[&a, &b, &a]), pair[0]);
    }

    proptest! {
        #[test]
        fn algebra_matches_btreeset_oracle_for_every_cursor_pairing(
            bits in 6u32..8,
            a_ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
            b_ids in proptest::collection::vec(0u64..(1 << 21), 0..250),
            a_bx in bx(),
            b_bx in bx(),
        ) {
            let a = Operand::scattered(bits, &a_ids, a_bx);
            let b = Operand::scattered(bits, &b_ids, b_bx);
            check_pair(&a, &b);
        }

        #[test]
        fn kway_matches_btreeset_oracle_for_every_entry(
            bits in 6u32..8,
            id_sets in proptest::collection::vec(
                (proptest::collection::vec(0u64..(1 << 21), 0..200), bx()), 1..6),
        ) {
            let operands: Vec<Operand> =
                id_sets.iter().map(|(ids, bx)| Operand::scattered(bits, ids, *bx)).collect();
            check_kway(&operands);
        }

        /// `RunsCursor::seek` lands where `partition_point` over the
        /// whole remainder would, and counts the runs it passed beyond
        /// the one it lands on — including seeks behind or onto the
        /// current run (no-ops) and past the end (exhausts).
        #[test]
        fn runs_cursor_seek_matches_partition_point(
            ids in proptest::collection::vec(0u64..2000, 0..300),
            steps in proptest::collection::vec((any::<bool>(), 0u64..2100), 0..40),
        ) {
            let runs = reference::from_set(&ids.into_iter().collect());
            let mut cursor = RunsCursor::new(&runs);
            let (mut pos, mut skips) = (0usize, 0u64);
            let current = |c: &RunsCursor<'_>| Cursor::<Infallible>::peek(c);
            let onto_current = (true, runs.first().map_or(0, |r| r.end));
            let script = [onto_current].into_iter().chain(steps).chain([(true, u64::MAX), (true, 0)]);
            for (seek, target) in script {
                if seek {
                    let ahead = runs[pos..].partition_point(|r| r.end < target);
                    skips += ahead.saturating_sub(1) as u64;
                    pos += ahead;
                    prop_assert_eq!(Cursor::<Infallible>::seek(&mut cursor, target), Ok(()));
                } else {
                    pos = (pos + 1).min(runs.len());
                    prop_assert_eq!(Cursor::<Infallible>::advance(&mut cursor), Ok(()));
                }
                prop_assert_eq!(current(&cursor), runs.get(pos).map(|r| (r.start, r.end)));
                prop_assert_eq!(cursor.skips(), skips);
            }
            prop_assert_eq!(current(&cursor), None, "seek(u64::MAX) exhausts; seek(0) stays");
        }

        #[test]
        fn transcode_matches_reference_on_every_curve_pair(
            ids in proptest::collection::vec(0u64..4096, 0..250),
            src_pick in 0usize..3,
            dst_pick in 0usize..3,
        ) {
            let src = CurveKind::ALL[src_pick].curve(3, 4);
            let dst = CurveKind::ALL[dst_pick].curve(3, 4);
            let ids: BTreeSet<u64> = ids.into_iter().collect();
            let runs = reference::from_set(&ids);
            prop_assert_eq!(transcode_runs(&runs, &src, &dst), reference::transcode(&runs, &src, &dst));
        }

        #[test]
        fn box_runs_match_reference_on_every_curve(
            pick in 0usize..3,
            bits in 1u32..=7,
            c0 in proptest::array::uniform3(0.0f64..1.0),
            c1 in proptest::array::uniform3(0.0f64..1.0),
            thin in 0u32..12,
        ) {
            let curve = CurveKind::ALL[pick].curve(3, bits);
            let at = |c: f64| (c * f64::from(curve.side())) as u32;
            let min = [0, 1, 2].map(|a| at(c0[a].min(c1[a])));
            let mut max = [0, 1, 2].map(|a| at(c0[a].max(c1[a])));
            // Two axes are clipped (which two rotates with `thin`) so the
            // per-voxel reference stays cheap at 128³.
            let axis = (thin % 3) as usize;
            max[axis] = max[axis].min(min[axis] + thin);
            max[(axis + 1) % 3] = max[(axis + 1) % 3].min(min[(axis + 1) % 3] + 15);
            prop_assert_eq!(box_runs3(&curve, min, max), reference::box_runs(&curve, min, max));
        }
    }

    #[test]
    fn degenerate_boxes_match_reference_on_every_curve() {
        for kind in CurveKind::ALL {
            for bits in 1..=7u32 {
                let curve = kind.curve(3, bits);
                let last = curve.side() - 1;
                let mid = last / 2;
                // Single voxels, boxes ending at `side - 1`, and the
                // one-voxel-thick slab on each of the six faces.
                let mut boxes = vec![
                    ([0; 3], [0; 3]),
                    ([last; 3], [last; 3]),
                    ([mid, last, 0], [mid, last, 0]),
                    ([last.saturating_sub(2); 3], [last; 3]),
                    ([mid, 0, last], [last, mid.min(9), last]),
                ];
                for axis in 0..3 {
                    for face in [0, last] {
                        let (mut lo, mut hi) = ([0; 3], [last; 3]);
                        (lo[axis], hi[axis]) = (face, face);
                        boxes.push((lo, hi));
                    }
                }
                for (lo, hi) in boxes {
                    let want = reference::box_runs(&curve, lo, hi);
                    assert_eq!(
                        box_runs3(&curve, lo, hi),
                        want,
                        "{kind} bits={bits} {lo:?}..={hi:?}"
                    );
                }
                // The full grid is the one run every curve fills.
                let full = vec![Run::new(0, curve.cell_count() - 1)];
                assert_eq!(box_runs3(&curve, [0; 3], [last; 3]), full, "{kind} bits={bits}");
            }
        }
    }
}
