//! Runs: maximal intervals of consecutive curve ids.
//!
//! "A z-delta is a maximal set of voxels with consecutive z-ids all either
//! entirely inside or outside a REGION.  When these voxels are inside, we
//! call it a z-run; when outside, a z-gap." (Section 4)

/// An inclusive interval `[start, end]` of curve ids, all inside a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Run {
    /// First id in the run.
    pub start: u64,
    /// Last id in the run (inclusive; `end >= start`).
    pub end: u64,
}

impl Run {
    /// Creates a run.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "run end {end} precedes start {start}");
        Run { start, end }
    }

    /// Number of voxels in the run.
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Runs are never empty; provided for API symmetry with collections.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `id` falls inside the run.
    pub fn contains(&self, id: u64) -> bool {
        (self.start..=self.end).contains(&id)
    }
}

/// The `(start, end)` pair the `qbism_coding` run codecs consume.
impl From<Run> for (u64, u64) {
    fn from(run: Run) -> Self {
        (run.start, run.end)
    }
}

/// Appends `r` to a run list built in start order, fusing it into the
/// last run when the two overlap or touch (`end + 1 == start`) — how
/// every producer of runs keeps its output maximal.
pub(crate) fn push_fused(out: &mut Vec<Run>, r: Run) {
    match out.last_mut() {
        Some(last) if r.start <= last.end.saturating_add(1) => last.end = last.end.max(r.end),
        _ => out.push(r),
    }
}

/// Normalizes an arbitrary list of runs into the canonical form: sorted,
/// disjoint, maximal (adjacent or overlapping runs merged).
pub(crate) fn normalize(mut runs: Vec<Run>) -> Vec<Run> {
    runs.sort_unstable_by_key(|r| r.start);
    let mut out: Vec<Run> = Vec::with_capacity(runs.len());
    for r in runs {
        push_fused(&mut out, r);
    }
    out
}

/// Builds canonical runs from an arbitrary (unsorted, possibly duplicated)
/// list of ids.
pub(crate) fn runs_from_ids(mut ids: Vec<u64>) -> Vec<Run> {
    ids.sort_unstable();
    let mut out: Vec<Run> = Vec::new();
    for id in ids {
        push_fused(&mut out, Run::new(id, id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn run_basics() {
        let r = Run::new(4, 7);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(4) && r.contains(7));
        assert!(!r.contains(3) && !r.contains(8));
        assert_eq!(Run::new(5, 5).len(), 1);
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn inverted_run_panics() {
        let _ = Run::new(7, 4);
    }

    #[test]
    fn normalize_merges_overlap_and_adjacency() {
        let runs = vec![Run::new(10, 12), Run::new(1, 3), Run::new(4, 6), Run::new(11, 15)];
        assert_eq!(normalize(runs), vec![Run::new(1, 6), Run::new(10, 15)]);
    }

    #[test]
    fn normalize_handles_empty_and_singleton() {
        assert_eq!(normalize(vec![]), vec![]);
        assert_eq!(normalize(vec![Run::new(5, 5)]), vec![Run::new(5, 5)]);
    }

    #[test]
    fn runs_from_ids_matches_paper_table1() {
        // z-ids {1, 4..7, 12, 13} -> runs <1,1> <4,7> <12,13>
        let runs = runs_from_ids(vec![13, 1, 5, 4, 7, 6, 12]);
        assert_eq!(runs, vec![Run::new(1, 1), Run::new(4, 7), Run::new(12, 13)]);
    }

    #[test]
    fn runs_from_ids_dedups() {
        let runs = runs_from_ids(vec![3, 3, 3, 4, 4]);
        assert_eq!(runs, vec![Run::new(3, 4)]);
    }

    proptest! {
        #[test]
        fn normalized_runs_are_canonical(ids in proptest::collection::vec(0u64..500, 0..300)) {
            let runs = runs_from_ids(ids.clone());
            // sorted, disjoint, non-adjacent
            for w in runs.windows(2) {
                prop_assert!(w[0].end + 1 < w[1].start);
            }
            // cover exactly the id set
            let mut expect: Vec<u64> = ids;
            expect.sort_unstable();
            expect.dedup();
            let got: Vec<u64> = runs.iter().flat_map(|r| r.start..=r.end).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn normalize_is_idempotent(spans in proptest::collection::vec((0u64..1000, 0u64..20), 0..100)) {
            let runs: Vec<Run> = spans.into_iter().map(|(s, l)| Run::new(s, s + l)).collect();
            let once = normalize(runs);
            let twice = normalize(once.clone());
            prop_assert_eq!(once, twice);
        }
    }
}
