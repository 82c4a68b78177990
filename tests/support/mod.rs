//! Root test support: the generated-query oracle (ROADMAP 10a).
//!
//! [`Oracle`] is a reference evaluator for the seven query classes that
//! shares nothing with the route it checks — no SQL, no LFM piece reads,
//! no REGION codec: the stored warped volumes, the phantom's
//! ground-truth REGIONs, and `qbism-volume` / `qbism-region` called
//! directly.  [`generate`] is a seeded generator of query specs over all
//! seven classes, edge cases first.  A test installs a system, asks the
//! oracle and the server the same [`Query`]s and compares.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use qbism::{MedicalServer, QbismError, QbismSystem, QueryCost};
use qbism_region::{GridGeometry, Region};
use qbism_volume::{DataRegion, Volume};

/// Width of the stored intensity bands.
pub const BAND_WIDTH: u8 = 32;

/// One query with its parameters.  Structures are indices into the
/// atlas's structure list; bands are named by their low edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    FullStudy { study: i64 },
    Box { study: i64, min: [u32; 3], max: [u32; 3] },
    Structure { study: i64, structure: usize },
    Band { study: i64, lo: u8 },
    BandInStructure { study: i64, lo: u8, structure: usize },
    MultiStudyBand { studies: Vec<i64>, lo: u8 },
    PopulationAverage { studies: Vec<i64>, structure: usize },
}

/// What a query returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A DATA_REGION answer (six of the seven classes).
    Data(DataRegion<u8>),
    /// The multi-study fold's REGION answer.
    Region(Region),
}

/// The reference evaluator over one installed system's data.
pub struct Oracle {
    geom: GridGeometry,
    /// Stored warped volume of study `i + 1`.
    volumes: Vec<Volume>,
    /// Ground-truth structures, in atlas order.
    structures: Vec<(&'static str, Region)>,
}

impl Oracle {
    /// Reads the stored warped volumes and the atlas's ground truth.
    pub fn new(system: &QbismSystem) -> Oracle {
        let volumes = system
            .pet_study_ids
            .iter()
            .map(|&study| system.server.warped_volume(study).expect("stored warped volume"))
            .collect();
        let structures =
            system.atlas.structures().iter().map(|s| (s.name, s.region.clone())).collect();
        Oracle { geom: system.server.config().geometry(), volumes, structures }
    }

    /// Name of structure `index` (what the server's API takes).
    pub fn structure_name(&self, index: usize) -> &'static str {
        self.structures[index].0
    }

    fn volume(&self, study: i64) -> &Volume {
        &self.volumes[study as usize - 1]
    }

    fn extract(&self, study: i64, region: &Region) -> Answer {
        Answer::Data(self.volume(study).extract(region).expect("region on the volume's grid"))
    }

    fn band(&self, study: i64, lo: u8) -> Region {
        self.volume(study).intensity_region(lo, lo + (BAND_WIDTH - 1))
    }

    /// The answer `query` must get, `None` where it must be refused (a
    /// box that is inverted or leaves the grid).
    pub fn answer(&self, query: &Query) -> Option<Answer> {
        Some(match query {
            Query::FullStudy { study } => self.extract(*study, &Region::full(self.geom)),
            Query::Box { study, min, max } => {
                self.extract(*study, &Region::from_box(self.geom, *min, *max)?)
            }
            Query::Structure { study, structure } => {
                self.extract(*study, &self.structures[*structure].1)
            }
            Query::Band { study, lo } => self.extract(*study, &self.band(*study, *lo)),
            Query::BandInStructure { study, lo, structure } => {
                let region = self.band(*study, *lo).intersect(&self.structures[*structure].1);
                self.extract(*study, &region)
            }
            Query::MultiStudyBand { studies, lo } => {
                let bands = studies.iter().map(|&study| self.band(study, *lo));
                Answer::Region(bands.reduce(|acc, band| acc.intersect(&band))?)
            }
            Query::PopulationAverage { studies, structure } => {
                let region = &self.structures[*structure].1;
                let mut sums = vec![0u32; region.voxel_count() as usize];
                for &study in studies {
                    let extract = self.volume(study).extract(region).expect("same grid");
                    for (sum, &value) in sums.iter_mut().zip(extract.values()) {
                        *sum += u32::from(value);
                    }
                }
                let n = studies.len() as u32;
                let mean = sums.into_iter().map(|sum| (sum / n) as u8).collect();
                Answer::Data(DataRegion::new(region.clone(), mean))
            }
        })
    }

    /// Runs `query` through the server's public API.
    pub fn ask(
        &self,
        server: &MedicalServer,
        query: &Query,
    ) -> Result<(Answer, QueryCost), QbismError> {
        let hi = |lo: u8| lo + (BAND_WIDTH - 1);
        let data = |a: qbism::QueryAnswer| (Answer::Data(a.data), a.cost);
        Ok(match query {
            Query::FullStudy { study } => data(server.full_study(*study)?),
            Query::Box { study, min, max } => data(server.box_data(*study, *min, *max)?),
            Query::Structure { study, structure } => {
                data(server.structure_data(*study, self.structure_name(*structure))?)
            }
            Query::Band { study, lo } => data(server.band_data(*study, *lo, hi(*lo))?),
            Query::BandInStructure { study, lo, structure } => {
                let name = self.structure_name(*structure);
                data(server.band_in_structure(*study, *lo, hi(*lo), name)?)
            }
            Query::MultiStudyBand { studies, lo } => {
                let (region, cost) = server.multi_study_band_region(studies, *lo, hi(*lo))?;
                (Answer::Region(region), cost)
            }
            Query::PopulationAverage { studies, structure } => {
                let answer = server.population_average(studies, self.structure_name(*structure))?;
                assert!(answer.is_complete(), "{query:?} skipped studies");
                (Answer::Data(answer.data), answer.cost)
            }
        })
    }
}

/// SplitMix64: the generator's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// The first `n` of a shuffle of `from`.
    fn subset<T: Copy>(&mut self, from: &[T], n: usize) -> Vec<T> {
        let mut pool = from.to_vec();
        for i in 0..n {
            let j = i + self.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    }
}

/// Query specs over all seven classes for a grid of `side`³, `structures`
/// atlas structures and the loaded `studies`: the edge cases of each
/// class exhaustively (inverted, out-of-grid, single-voxel, full-grid
/// and grid-face boxes; every stored band of every study; every
/// structure; every fold width from one study to all), then seeded
/// draws.
pub fn generate(seed: u64, side: u32, structures: usize, studies: &[i64]) -> Vec<Query> {
    let mut rng = Rng(seed);
    let last = side - 1;
    let bands: Vec<u8> = (0..=255u8).step_by(usize::from(BAND_WIDTH)).collect();
    let mut out = Vec::new();
    for &study in studies {
        out.push(Query::FullStudy { study });
    }
    // Boxes: refused ones, then degenerate ones, then random ones.
    let mid = side / 2;
    let mut boxes = vec![
        ([mid + 1, 0, 0], [mid, last, last]),
        ([0; 3], [last, last, side]),
        ([0; 3], [0; 3]),
        ([last; 3], [last; 3]),
        ([mid, last, 0], [mid, last, 0]),
        ([0; 3], [last; 3]),
        ([last - 1; 3], [last; 3]),
    ];
    for axis in 0..3 {
        for face in [0, last] {
            let (mut min, mut max) = ([0; 3], [last; 3]);
            (min[axis], max[axis]) = (face, face);
            boxes.push((min, max));
        }
    }
    for _ in 0..12 {
        let a = [0; 3].map(|_| rng.below(u64::from(side)) as u32);
        let b = [0; 3].map(|_| rng.below(u64::from(side)) as u32);
        boxes.push(([0, 1, 2].map(|i| a[i].min(b[i])), [0, 1, 2].map(|i| a[i].max(b[i]))));
    }
    for (min, max) in boxes {
        out.push(Query::Box { study: rng.pick(studies), min, max });
    }
    for structure in 0..structures {
        out.push(Query::Structure { study: rng.pick(studies), structure });
    }
    for &study in studies {
        for &lo in &bands {
            out.push(Query::Band { study, lo });
        }
    }
    for structure in 0..structures {
        for _ in 0..3 {
            let (study, lo) = (rng.pick(studies), rng.pick(&bands));
            out.push(Query::BandInStructure { study, lo, structure });
        }
    }
    for &lo in &bands {
        for width in 1..=studies.len() {
            out.push(Query::MultiStudyBand { studies: rng.subset(studies, width), lo });
        }
    }
    for structure in 0..structures {
        let width = 1 + rng.below(studies.len() as u64) as usize;
        out.push(Query::PopulationAverage { studies: rng.subset(studies, width), structure });
    }
    out
}
