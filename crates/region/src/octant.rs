//! Octant and oblong-octant decompositions.
//!
//! "An **octant** is a cube of maximal size that is the result of the
//! recursive decomposition of space, and entirely inside some REGION …
//! an **oblong octant** (or z-element) of rank r is the complete set of
//! 2^r voxels that have the same prefix in their z-ids … For a regular
//! (cubic) octant in n-d, r must be a multiple of n." (Section 4)
//!
//! A REGION is classically encoded as the list of z-values of its
//! octants; the paper's improvement is to use runs instead.  Both octant
//! flavours are implemented here so the Section 4.2 count comparison and
//! the Table 4 octant row can be reproduced.

use crate::region::Region;
use crate::run::Run;

/// Which decomposition to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OctantKind {
    /// Regular octants: rank is a multiple of the grid dimension, so each
    /// block is a cube (`2^(r/n)` voxels per side).
    Cubic,
    /// Oblong octants (z-elements): any rank, each block is an aligned
    /// dyadic interval of curve ids.
    Oblong,
}

/// One octant: the aligned dyadic block `[id, id + 2^rank - 1]`.
///
/// `id` is the smallest curve id in the block and is always a multiple of
/// `2^rank` — the pair is the paper's `<z-id, rank>` z-value (or
/// `<h-id, rank>` under the Hilbert curve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Octant {
    /// Smallest curve id of the block.
    pub id: u64,
    /// log2 of the block's voxel count.
    pub rank: u32,
}

impl Octant {
    /// Creates an octant.
    ///
    /// # Panics
    /// Panics if `id` is not aligned to `2^rank`.
    pub fn new(id: u64, rank: u32) -> Self {
        assert!(rank < 64, "octant rank {rank} out of range");
        assert!(id.is_multiple_of(1u64 << rank), "octant id {id} not aligned to rank {rank}");
        Octant { id, rank }
    }

    /// Number of voxels in the block.
    pub fn len(&self) -> u64 {
        1u64 << self.rank
    }

    /// Octants are never empty; provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Last id in the block (inclusive).
    pub fn end(&self) -> u64 {
        self.id + self.len() - 1
    }

    /// The block as a [`Run`].
    pub fn as_run(&self) -> Run {
        Run::new(self.id, self.end())
    }
}

impl Region {
    /// Decomposes the region into octants of the requested kind, in curve
    /// order.  The result is the canonical minimal dyadic cover of each
    /// run: greedy largest-aligned-block, which coincides with recursive
    /// space subdivision.
    pub fn octants(&self, kind: OctantKind) -> Vec<Octant> {
        let dims = self.geometry().dims();
        let mut out = Vec::new();
        for r in self.runs() {
            decompose_run(*r, dims, kind, &mut out);
        }
        out
    }

    /// Number of octants of the given kind (Section 4.2's counted
    /// quantity, without materializing when you only need the count).
    pub fn octant_count(&self, kind: OctantKind) -> usize {
        let dims = self.geometry().dims();
        let mut count = 0usize;
        for r in self.runs() {
            count += count_run_octants(*r, dims, kind);
        }
        count
    }
}

/// Greedy canonical decomposition of one run into aligned blocks.
fn decompose_run(run: Run, dims: u32, kind: OctantKind, out: &mut Vec<Octant>) {
    let mut s = run.start;
    let end = run.end;
    while s <= end {
        let oct = Octant::new(s, next_rank(s, end, dims, kind));
        let step = 1u64 << oct.rank;
        out.push(oct);
        s += step;
    }
}

fn count_run_octants(run: Run, dims: u32, kind: OctantKind) -> usize {
    let mut s = run.start;
    let end = run.end;
    let mut count = 0usize;
    while s <= end {
        let rank = next_rank(s, end, dims, kind);
        count += 1;
        s += 1u64 << rank;
    }
    count
}

/// Largest admissible rank for a block starting at `s` within `[s, end]`.
fn next_rank(s: u64, end: u64, dims: u32, kind: OctantKind) -> u32 {
    let align = if s == 0 { 63 } else { s.trailing_zeros() };
    let remaining = end - s + 1;
    let fit = 63 - remaining.leading_zeros(); // floor(log2(remaining))
    let mut rank = align.min(fit);
    if kind == OctantKind::Cubic {
        rank -= rank % dims;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridGeometry;
    use proptest::prelude::*;
    use qbism_sfc::CurveKind;

    /// Reassembles a region from octants (any order, may overlap).
    fn octants_to_runs(geom: GridGeometry, octants: &[Octant]) -> Region {
        Region::from_runs(geom, octants.iter().map(Octant::as_run).collect())
    }

    fn geom_2d(kind: CurveKind) -> GridGeometry {
        GridGeometry::new(kind, 2, 2)
    }

    /// Figure 3's shaded region on the Z curve.
    fn paper_region_z() -> Region {
        Region::from_ids(geom_2d(CurveKind::Morton), vec![1, 4, 5, 6, 7, 12, 13])
    }

    #[test]
    fn table1_z_octants() {
        // TABLE 1 row "octants": <0001,0> <0100,2> <1100,0> <1101,0>
        let octs = paper_region_z().octants(OctantKind::Cubic);
        assert_eq!(
            octs,
            vec![
                Octant::new(0b0001, 0),
                Octant::new(0b0100, 2),
                Octant::new(0b1100, 0),
                Octant::new(0b1101, 0),
            ]
        );
    }

    #[test]
    fn table1_z_oblong_octants() {
        // TABLE 1 row "oblong octants": <0001,0> <0100,2> <1100,1>
        let octs = paper_region_z().octants(OctantKind::Oblong);
        assert_eq!(
            octs,
            vec![Octant::new(0b0001, 0), Octant::new(0b0100, 2), Octant::new(0b1100, 1),]
        );
    }

    #[test]
    fn table2_hilbert_octants() {
        // TABLE 2: octants <0011,0> <0100,2> <1000,0> <1001,0>;
        //          oblong  <0011,0> <0100,2> <1000,1>;
        //          runs    <3,9>.
        let h = paper_region_z().to_curve(CurveKind::Hilbert);
        assert_eq!(h.runs(), &[Run::new(3, 9)]);
        assert_eq!(
            h.octants(OctantKind::Cubic),
            vec![
                Octant::new(0b0011, 0),
                Octant::new(0b0100, 2),
                Octant::new(0b1000, 0),
                Octant::new(0b1001, 0),
            ]
        );
        assert_eq!(
            h.octants(OctantKind::Oblong),
            vec![Octant::new(0b0011, 0), Octant::new(0b0100, 2), Octant::new(0b1000, 1),]
        );
    }

    #[test]
    fn octant_accessors() {
        let o = Octant::new(8, 3);
        assert_eq!(o.len(), 8);
        assert_eq!(o.end(), 15);
        assert_eq!(o.as_run(), Run::new(8, 15));
        assert!(!o.is_empty());
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_octant_panics() {
        let _ = Octant::new(9, 3);
    }

    #[test]
    fn count_never_less_than_runs() {
        // "the number of runs never exceeds the number of octants"
        let r = paper_region_z();
        assert!(r.octant_count(OctantKind::Oblong) >= r.run_count());
        assert!(r.octant_count(OctantKind::Cubic) >= r.octant_count(OctantKind::Oblong));
    }

    #[test]
    fn full_grid_is_one_octant() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 3);
        let full = Region::full(g);
        assert_eq!(full.octants(OctantKind::Cubic), vec![Octant::new(0, 9)]);
        assert_eq!(full.octants(OctantKind::Oblong), vec![Octant::new(0, 9)]);
    }

    #[test]
    fn octants_to_runs_roundtrip_paper_region() {
        let r = paper_region_z();
        for kind in [OctantKind::Cubic, OctantKind::Oblong] {
            let octs = r.octants(kind);
            let back = octants_to_runs(r.geometry(), &octs);
            assert_eq!(back, r);
        }
    }

    #[test]
    fn octant_count_matches_materialized_len() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 4);
        let r = Region::from_ids(g, (0..4096).filter(|i| i % 7 != 0).collect());
        for kind in [OctantKind::Cubic, OctantKind::Oblong] {
            assert_eq!(r.octant_count(kind), r.octants(kind).len());
        }
    }

    proptest! {
        #[test]
        fn decomposition_partitions_region(ids in proptest::collection::vec(0u64..4096, 1..300)) {
            let g = GridGeometry::new(CurveKind::Morton, 3, 4);
            let r = Region::from_ids(g, ids);
            for kind in [OctantKind::Cubic, OctantKind::Oblong] {
                let octs = r.octants(kind);
                // aligned, ordered, disjoint
                for o in &octs {
                    prop_assert_eq!(o.id % o.len(), 0);
                    if kind == OctantKind::Cubic {
                        prop_assert_eq!(o.rank % 3, 0);
                    }
                }
                for w in octs.windows(2) {
                    prop_assert!(w[0].end() < w[1].id);
                }
                // exact cover
                let back = octants_to_runs(g, &octs);
                prop_assert_eq!(&back, &r);
                // count relations from the paper
                prop_assert!(octs.len() >= r.run_count());
            }
            prop_assert!(r.octant_count(OctantKind::Cubic) >= r.octant_count(OctantKind::Oblong));
        }

        #[test]
        fn blocks_are_maximal(ids in proptest::collection::vec(0u64..1024, 1..100)) {
            // No two consecutive oblong octants of equal rank may be
            // mergeable into a single aligned block (that would contradict
            // canonical minimality).
            let g = GridGeometry::new(CurveKind::Morton, 2, 5);
            let r = Region::from_ids(g, ids);
            let octs = r.octants(OctantKind::Oblong);
            for w in octs.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a.rank == b.rank && b.id == a.id + a.len() {
                    // merging is only legal when the union is aligned
                    prop_assert!(a.id % (a.len() * 2) != 0,
                        "octants {a:?} {b:?} should have been merged");
                }
            }
        }
    }
}
