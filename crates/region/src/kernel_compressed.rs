//! Compressed-domain REGION kernels: stream-merge *compressed*
//! operands without full decompression.
//!
//! The run-native kernels in [`crate::kernel`] merge decoded `&[Run]`
//! slices.  These variants merge [`RunCursor`] streams instead — the
//! cursors decode one run at a time straight off the compact payloads
//! ([`qbism_coding::runcode`], [`qbism_coding::k3tree`]) and gallop via
//! skip blocks or subtree pruning, so an intersect touches only the
//! codewords near overlaps.  This is the Brisaboa et al. move (compact
//! *queryable* representations) applied to QBISM's h-run REGIONs.
//!
//! Every function emits a canonical run list identical to what the
//! uncompressed kernel would produce on the decoded operands; the
//! `compressed` integration suite pins that equivalence property-wise.
//!
//! Seek-clipping note: after `seek(t)` a cursor may report its current
//! run with the start clipped upward (never past `t`).  Every merge
//! below only consumes ids `>= t` after seeking `t`, so clipped and
//! true runs are indistinguishable here.

use crate::encode::RegionEncodeError;
use crate::run::Run;
use qbism_coding::RunCursor;
use qbism_sfc::Curve;

type Result<T> = std::result::Result<T, RegionEncodeError>;

/// Streaming cursor over an in-memory sorted run slice — the adapter
/// that lets one compressed and one already-decoded operand merge
/// through the same kernels (box masks, cached REGIONs).
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
}

impl RunCursor for RunsCursor<'_> {
    fn peek(&self) -> Option<(u64, u64)> {
        self.runs.get(self.pos).map(|r| (r.start, r.end))
    }

    fn advance(&mut self) -> qbism_coding::Result<()> {
        if self.pos < self.runs.len() {
            self.pos += 1;
        }
        Ok(())
    }

    fn seek(&mut self, target: u64) -> qbism_coding::Result<()> {
        let ahead = self.runs[self.pos..].partition_point(|r| r.end < target);
        if ahead > 1 {
            self.skips += (ahead - 1) as u64;
        }
        self.pos += ahead;
        Ok(())
    }

    fn skips(&self) -> u64 {
        self.skips
    }
}

/// Appends `(start, end)`, coalescing with the previous run when they
/// touch or overlap, so outputs stay canonical.
fn push(out: &mut Vec<Run>, start: u64, end: u64) {
    if let Some(last) = out.last_mut() {
        if start <= last.end.saturating_add(1) {
            if end > last.end {
                last.end = end;
            }
            return;
        }
    }
    out.push(Run::new(start, end));
}

/// Intersection of two compressed streams.  Disjoint stretches are
/// galloped over with `seek`, so neither payload is fully decoded.
pub fn intersect_stream(a: &mut impl RunCursor, b: &mut impl RunCursor) -> Result<Vec<Run>> {
    let mut out = Vec::new();
    while let (Some((a_start, a_end)), Some((b_start, b_end))) = (a.peek(), b.peek()) {
        let lo = a_start.max(b_start);
        let hi = a_end.min(b_end);
        if lo <= hi {
            push(&mut out, lo, hi);
        }
        if a_end <= b_end {
            if a_end < b_start {
                a.seek(b_start)?;
            } else {
                a.advance()?;
            }
        } else if b_end < a_start {
            b.seek(a_start)?;
        } else {
            b.advance()?;
        }
    }
    Ok(out)
}

/// Union of two compressed streams (no seeks — every run of both
/// operands contributes to the output).
pub fn union_stream(a: &mut impl RunCursor, b: &mut impl RunCursor) -> Result<Vec<Run>> {
    let mut out = Vec::new();
    loop {
        match (a.peek(), b.peek()) {
            (None, None) => break,
            (Some((s, e)), None) => {
                push(&mut out, s, e);
                a.advance()?;
            }
            (None, Some((s, e))) => {
                push(&mut out, s, e);
                b.advance()?;
            }
            (Some((a_start, a_end)), Some((b_start, b_end))) => {
                if a_start <= b_start {
                    push(&mut out, a_start, a_end);
                    a.advance()?;
                } else {
                    push(&mut out, b_start, b_end);
                    b.advance()?;
                }
            }
        }
    }
    Ok(out)
}

/// `a \ b` over compressed streams; the subtrahend gallops to each
/// minuend run, so a sparse `a` touches only matching parts of `b`.
pub fn difference_stream(a: &mut impl RunCursor, b: &mut impl RunCursor) -> Result<Vec<Run>> {
    let mut out = Vec::new();
    'minuend: while let Some((a_start, a_end)) = a.peek() {
        let mut cur = a_start;
        b.seek(cur)?;
        loop {
            match b.peek() {
                Some((b_start, b_end)) if b_start <= a_end => {
                    if b_start > cur {
                        push(&mut out, cur, b_start - 1);
                    }
                    if b_end >= a_end {
                        // This b-run may also cover the next a-run:
                        // leave it current.
                        a.advance()?;
                        continue 'minuend;
                    }
                    cur = cur.max(b_end + 1);
                    b.advance()?;
                }
                _ => {
                    push(&mut out, cur, a_end);
                    a.advance()?;
                    continue 'minuend;
                }
            }
        }
    }
    Ok(out)
}

/// k-way intersection over compressed streams — the multi-study fold of
/// `multiStudyBandRegion`, galloping every operand to the running
/// maximum start.  Generic over the cursor so a fold over one concrete
/// type is monomorphised; `dyn RunCursor` operands still fit.
pub fn intersect_k_stream<C: RunCursor + ?Sized>(cursors: &mut [&mut C]) -> Result<Vec<Run>> {
    if cursors.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    'merge: loop {
        let mut lo = 0u64;
        let mut hi = u64::MAX;
        for c in cursors.iter() {
            let Some((start, end)) = c.peek() else { break 'merge };
            lo = lo.max(start);
            hi = hi.min(end);
        }
        if lo <= hi {
            push(&mut out, lo, hi);
            for c in cursors.iter_mut() {
                if let Some((_, end)) = c.peek() {
                    if end == hi {
                        c.advance()?;
                    }
                }
            }
        } else {
            for c in cursors.iter_mut() {
                if let Some((_, end)) = c.peek() {
                    if end < lo {
                        c.seek(lo)?;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Restricts a compressed stream to an axis-aligned box on a 3-D grid —
/// the `boxRegion`-style window — by intersecting with the box's run
/// mask.
pub fn restrict_box_stream(
    cursor: &mut impl RunCursor,
    curve: &Curve,
    min: [u32; 3],
    max: [u32; 3],
) -> Result<Vec<Run>> {
    let mask = crate::kernel::box_runs3(curve, min, max);
    intersect_stream(cursor, &mut RunsCursor::new(&mask))
}

/// Restricts a compressed stream to one contiguous id band
/// `[lo, hi]` — a single `seek` then a clipped scan; everything before
/// the band is galloped over.
pub fn restrict_range_stream(cursor: &mut impl RunCursor, lo: u64, hi: u64) -> Result<Vec<Run>> {
    let mut out = Vec::new();
    if lo > hi {
        return Ok(out);
    }
    cursor.seek(lo)?;
    while let Some((start, end)) = cursor.peek() {
        if start > hi {
            break;
        }
        push(&mut out, start.max(lo), end.min(hi));
        if end > hi {
            break;
        }
        cursor.advance()?;
    }
    Ok(out)
}
