//! The five workloads and the seeded op-sequence generator.
//!
//! A workload fixes *which* queries a round holds; `--seed` decides
//! the order they arrive in (see [`Spec::ops`] for why).  The *data*
//! seed never changes: every run loads
//! `QbismConfig::paper_scale().seed`, so answers are comparable across
//! runs and commits.

/// The seven query classes, in the order the `lat_ms.*` metrics list
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// EQ1 `full_study`.
    FullStudy,
    /// `box_data`, extents side/8, side/4, side/2.
    Box,
    /// `structure_data` over all atlas structures.
    Structure,
    /// EQ2 `band_data`, the 8 width-32 bands.
    Band,
    /// Q6 `band_in_structure`.
    BandInStructure,
    /// Table 4 fold `multi_study_band_region` over the 5 PET studies.
    MultiStudyBand,
    /// `population_average` over the 5 PET studies.
    PopulationAverage,
}

impl Class {
    /// Every class, in metric order.
    pub const ALL: [Class; 7] = [
        Class::FullStudy,
        Class::Box,
        Class::Structure,
        Class::Band,
        Class::BandInStructure,
        Class::MultiStudyBand,
        Class::PopulationAverage,
    ];

    /// The class's metric suffix (`lat_ms.<name>`) and server span name.
    pub fn name(self) -> &'static str {
        match self {
            Class::FullStudy => "full_study",
            Class::Box => "box",
            Class::Structure => "structure",
            Class::Band => "band",
            Class::BandInStructure => "band_in_structure",
            Class::MultiStudyBand => "multi_study_band",
            Class::PopulationAverage => "population_average",
        }
    }

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One query with its parameters.  Structures are indices into the
/// atlas's structure list; bands are named by their low edge `lo`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // each variant's doc line names its fields
pub enum Op {
    /// `full_study(study)`.
    FullStudy { study: i64 },
    /// `box_data(study, min, max)`.
    Box { study: i64, min: [u32; 3], max: [u32; 3] },
    /// `structure_data(study, structure)`.
    Structure { study: i64, structure: usize },
    /// `band_data(study, lo, lo + 31)`.
    Band { study: i64, lo: u8 },
    /// `band_in_structure(study, lo, lo + 31, structure)`.
    BandInStructure { study: i64, lo: u8, structure: usize },
    /// `multi_study_band_region(all PET studies, lo, lo + 31)`.
    MultiStudyBand { lo: u8 },
    /// `population_average(all PET studies, structure)`.
    PopulationAverage { structure: usize },
}

impl Op {
    /// The op's query class.
    pub fn class(&self) -> Class {
        match self {
            Op::FullStudy { .. } => Class::FullStudy,
            Op::Box { .. } => Class::Box,
            Op::Structure { .. } => Class::Structure,
            Op::Band { .. } => Class::Band,
            Op::BandInStructure { .. } => Class::BandInStructure,
            Op::MultiStudyBand { .. } => Class::MultiStudyBand,
            Op::PopulationAverage { .. } => Class::PopulationAverage,
        }
    }
}

/// Width of the stored intensity bands (the paper's 32).
pub const BAND_WIDTH: u8 = 32;
/// PET studies every workload loads.  No MRI: an MRI study costs 3.7 s
/// of phantom noise synthesis at 128³ against 0.23 s for a PET study,
/// none of it QBISM's (README.md, "Sizing").
pub const PET_STUDIES: usize = 5;
/// Sequential readahead depth wherever the page cache is on.
pub const READAHEAD_PAGES: usize = 8;

/// One workload: an installation, a cache setting, a client count and
/// a class mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Atlas grid is `2^bits` per axis.
    pub bits: u32,
    /// Compressed tablespace (queryable REGION codecs) on or off.
    pub compressed: bool,
    /// LFM page-cache frames; 0 keeps the paper's unbuffered LFM.
    pub cache_pages: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Draw studies Zipf(1) instead of uniformly.
    pub zipf_studies: bool,
    /// Every round installs a fresh system before querying it.
    pub install_each_round: bool,
    /// Times a round replays its query sequence.  More than one only
    /// where queries are a small part of the round (`load-query-64`:
    /// 0.08 s of queries after a 0.3 s install), so that every op still
    /// gets sixty repetitions to find a quiet one in.
    pub passes: usize,
    /// Serve from a 2-shard, 2-replica `ClusterWarehouse`.
    pub cluster: bool,
    /// Queries of each class one client issues per round, in
    /// [`Class::ALL`] order.  Fixed per workload, so a round is the same
    /// work for every seed and on every commit; sized so 30 rounds take
    /// 12-13 s on the 2-core reference box with at least 40 samples of
    /// every class in each (README.md, "Sizing").
    pub counts: [usize; 7],
}

/// The benchmark's workloads.  The reason each exists is in
/// `BENCHMARK.json` (`why`) and README.md.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "small-cached-128",
        bits: 7,
        compressed: false,
        cache_pages: 8192,
        clients: 1,
        zipf_studies: false,
        install_each_round: false,
        passes: 1,
        cluster: false,
        counts: [40, 60, 110, 60, 110, 60, 60],
    },
    Spec {
        name: "fold-compressed-128",
        bits: 7,
        compressed: true,
        cache_pages: 8192,
        clients: 1,
        zipf_studies: false,
        install_each_round: false,
        passes: 1,
        cluster: false,
        counts: [40; 7],
    },
    Spec {
        name: "scan-spill-128",
        bits: 7,
        compressed: false,
        cache_pages: 512,
        clients: 1,
        zipf_studies: true,
        install_each_round: false,
        passes: 1,
        cluster: false,
        counts: [60, 66, 40, 60, 40, 40, 44],
    },
    Spec {
        name: "load-query-64",
        bits: 6,
        compressed: true,
        cache_pages: 0,
        clients: 1,
        zipf_studies: false,
        install_each_round: true,
        passes: 2,
        cluster: false,
        counts: [40; 7],
    },
    Spec {
        name: "clients-2-64",
        bits: 6,
        compressed: false,
        cache_pages: 0,
        clients: 2,
        zipf_studies: false,
        install_each_round: false,
        passes: 1,
        cluster: true,
        counts: [40; 7],
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Grid side in voxels.
    pub fn side(&self) -> u32 {
        1 << self.bits
    }

    /// The same workload on a smaller grid with `per_class` queries of
    /// each class per round (the exact-count self-test runs every
    /// workload at 16³).
    pub fn scaled_down(mut self, bits: u32, per_class: usize) -> Spec {
        self.bits = bits;
        self.counts = [per_class; 7];
        self
    }

    /// Queries one client issues per round.
    pub fn ops_per_client(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The op sequence client `client` replays every round.
    ///
    /// Which queries a round holds is part of the workload's
    /// definition and the same for every seed: class `c` issues
    /// `counts[c]` queries whose parameters cycle through every band,
    /// structure, box extent and (in Zipf or uniform proportion) study,
    /// with box corners from a generator salted by the workload's name
    /// only.  A query's cost depends on those parameters — a side/2 box
    /// reads 60 times the pages of a side/8 box — so drawing them per
    /// seed made ten seeds disagree by up to 30 % on a class median and
    /// 2.5 % on `pages_per_query` (README.md, "Sizing").  `--seed`
    /// decides the **arrival order**, which is what the page cache,
    /// readahead and two clients contending for one server react to.
    pub fn ops(&self, seed: u64, client: usize, structures: usize) -> Vec<Op> {
        let salt = fnv1a(self.name.as_bytes()) ^ ((client as u64) << 56);
        let mut corners = Rng::new(salt);
        // Zipf(1) over 5 studies is 60 : 30 : 20 : 15 : 12.
        let study_weights: &[u32] = if self.zipf_studies { &[60, 30, 20, 15, 12] } else { &[1; 5] };
        let side = self.side();
        let mut ops = Vec::with_capacity(self.ops_per_client());
        for class in Class::ALL {
            let n = self.counts[class.index()];
            for (i, study) in spread(study_weights, n).into_iter().enumerate() {
                // 8 bands and 11 structures are coprime, so `i` walks
                // every (band, structure) pair before repeating one; the
                // client offset gives two clients different pairs.
                let j = i + client;
                let study = study as i64 + 1;
                let lo = (j % 8) as u8 * BAND_WIDTH;
                let structure = j % structures;
                ops.push(match class {
                    Class::FullStudy => Op::FullStudy { study },
                    Class::Box => {
                        let extent = side >> (1 + j % 3);
                        let min =
                            [0; 3].map(|_| corners.below(u64::from(side - extent) + 1) as u32);
                        Op::Box { study, min, max: min.map(|c| c + extent - 1) }
                    }
                    Class::Structure => Op::Structure { study, structure },
                    Class::Band => Op::Band { study, lo },
                    Class::BandInStructure => Op::BandInStructure { study, lo, structure },
                    Class::MultiStudyBand => Op::MultiStudyBand { lo },
                    Class::PopulationAverage => Op::PopulationAverage { structure },
                });
            }
        }
        Rng::new(seed ^ salt).shuffle(&mut ops);
        ops
    }
}

/// `n` picks among `weights.len()` values by smooth weighted
/// round-robin: every prefix holds each value in proportion to its
/// weight, give or take one, and the sequence is the same on every call.
fn spread(weights: &[u32], n: usize) -> Vec<usize> {
    let total: i64 = weights.iter().map(|&w| i64::from(w)).sum();
    let mut credit = vec![0i64; weights.len()];
    (0..n)
        .map(|_| {
            for (c, &w) in credit.iter_mut().zip(weights) {
                *c += i64::from(w);
            }
            let pick = (0..credit.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .expect("at least one weight");
            credit[pick] -= total;
            pick
        })
        .collect()
}

/// FNV-1a over bytes (workload-name salt for the seed).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64: the harness's own generator, so the op sequence for a
/// seed never depends on which `rand` the workspace vendors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these `n` is
    /// below 2⁻⁴⁰.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_has_forty_samples_of_every_class() {
        for spec in WORKLOADS {
            let per_round = spec.counts.map(|c| c * spec.clients);
            assert!(per_round.iter().all(|&c| c >= 40), "{}: {per_round:?}", spec.name);
            let ops = spec.ops(1, 0, 11);
            for class in Class::ALL {
                let n = ops.iter().filter(|op| op.class() == class).count();
                assert_eq!(n, spec.counts[class.index()], "{} {}", spec.name, class.name());
            }
        }
    }

    #[test]
    fn a_seed_fixes_the_order_and_never_changes_the_queries() {
        let spec = Spec::by_name("scan-spill-128").expect("workload");
        assert_eq!(spec.ops(1994, 0, 11), spec.ops(1994, 0, 11));
        assert_ne!(spec.ops(1994, 0, 11), spec.ops(7, 0, 11));
        assert_ne!(spec.ops(1994, 0, 11), spec.ops(1994, 1, 11));
        let sorted = |seed: u64| {
            let mut ops: Vec<String> =
                spec.ops(seed, 0, 11).iter().map(|op| format!("{op:?}")).collect();
            ops.sort();
            ops
        };
        assert_eq!(sorted(1994), sorted(7), "the seed must only permute");
    }

    #[test]
    fn parameters_cover_every_value_and_zipf_skews_studies() {
        let spec = Spec::by_name("small-cached-128").expect("workload");
        let mut per_structure = [0usize; 11];
        let mut pairs = std::collections::BTreeSet::new();
        for op in spec.ops(3, 0, 11) {
            match op {
                Op::Structure { structure, .. } => per_structure[structure] += 1,
                Op::BandInStructure { lo, structure, .. } => {
                    pairs.insert((lo, structure));
                }
                _ => {}
            }
        }
        assert!(per_structure.iter().all(|&n| n == 10), "{per_structure:?}");
        assert_eq!(pairs.len(), 88, "every (band, structure) pair is queried");
        assert_eq!(spread(&[1; 5], 7), [0, 1, 2, 3, 4, 0, 1]);
        let zipf = spread(&[60, 30, 20, 15, 12], 60);
        let count = |s: usize| zipf.iter().filter(|&&p| p == s).count();
        assert_eq!([count(0), count(1), count(2), count(3), count(4)], [26, 13, 9, 7, 5]);
    }

    #[test]
    fn boxes_stay_inside_the_grid() {
        for spec in WORKLOADS {
            for op in spec.ops(11, 0, 11) {
                if let Op::Box { min, max, .. } = op {
                    assert!((0..3).all(|a| min[a] <= max[a] && max[a] < spec.side()));
                }
            }
        }
    }
}
