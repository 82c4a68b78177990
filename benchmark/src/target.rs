//! The system under test: one installed `QbismSystem` or one
//! `ClusterWarehouse`, driven only through their public APIs.

use crate::workload::{Op, Spec, BAND_WIDTH, PET_STUDIES, READAHEAD_PAGES};
use qbism::{MedicalServer, QbismConfig, QbismSystem, QueryCost};
use qbism_cluster::ClusterWarehouse;
use qbism_lfm::CacheConfig;
use qbism_phantom::{Modality, PhantomAtlas};
use qbism_region::Region;
use qbism_volume::{DataRegion, Volume};

/// LFM device page size (the paper's 4 KiB).
pub const PAGE_BYTES: u64 = 4096;
/// Shards (and replicas per study) of the cluster workload's warehouse.
pub const SHARDS: usize = 2;

/// The installation a workload queries.
pub enum Installed {
    /// One server over one database.
    Single(Box<QbismSystem>),
    /// Two full-copy shards behind the scatter/gather router.
    Cluster(Box<ClusterWarehouse>),
}

/// An installed system plus what the op generator and the checks need
/// to know about it.
pub struct Target {
    /// The installation.
    pub installed: Installed,
    /// The configuration it was installed from.
    pub config: QbismConfig,
    /// Device pages allocated by the install (one shard's worth).
    pub allocated_pages: u64,
    /// Loaded PET study ids.
    pub studies: Vec<i64>,
}

/// What a query returned, kept so the digest is computed outside the
/// timed section.
pub enum Answer {
    /// A DATA_REGION answer (six of the seven classes).
    Data(DataRegion<u8>),
    /// The multi-study fold's REGION answer.
    Region(Region),
}

/// One executed op.
pub struct Reply {
    /// The answer payload.
    pub answer: Answer,
    /// The server's cost accounting for it.
    pub cost: QueryCost,
}

/// What is compared across rounds: voxel count, run count and a hash
/// of the values (of the run bounds for a REGION answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    voxels: u64,
    runs: u64,
    hash: u64,
}

impl Digest {
    /// A digest no answer has: the slot of an op that failed in the
    /// recording round.
    pub fn unmatchable() -> Digest {
        Digest { voxels: u64::MAX, runs: u64::MAX, hash: 0 }
    }
}

impl Reply {
    /// The answer's digest.
    pub fn digest(&self) -> Digest {
        match &self.answer {
            Answer::Data(data) => Digest {
                voxels: data.voxel_count() as u64,
                runs: data.region().run_count() as u64,
                hash: hash_bytes(data.values()),
            },
            Answer::Region(region) => Digest {
                voxels: region.voxel_count(),
                runs: region.run_count() as u64,
                hash: region.runs().iter().fold(FNV_OFFSET, |h, r| mix(mix(h, r.start), r.end)),
            },
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x100_0000_01b3)
}

/// FNV-style hash taking eight bytes per multiply: a 2 MiB full-study
/// answer hashes in ~0.25 ms, so verifying every op costs a few
/// percent of the cheapest workload instead of doubling it.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)")));
    }
    chunks.remainder().iter().fold(h, |h, &b| mix(h, u64::from(b)))
}

/// The configuration a workload installs: the paper-scale data seed and
/// physical design at the workload's grid size, 5 PET studies, no MRI.
pub fn config_for(spec: &Spec) -> QbismConfig {
    QbismConfig {
        atlas_bits: spec.bits,
        pet_studies: PET_STUDIES,
        mri_studies: 0,
        compressed_tablespace: spec.compressed,
        ..QbismConfig::paper_scale()
    }
}

/// Bytes of user data an install loads: the raw and the warped voxels
/// of every study (one byte each) — the denominator of `space_amp`.
pub fn user_bytes(config: &QbismConfig) -> u64 {
    let side = config.side();
    let raw: u64 = Modality::Pet.native_dims(side).iter().map(|&d| u64::from(d)).product();
    let warped = u64::from(side).pow(3);
    (raw + warped) * config.pet_studies as u64
}

impl Target {
    /// Installs the workload's system and applies its cache setting.
    /// This is the part of set-up `load-query-64` repeats every round.
    pub fn install(spec: &Spec) -> Result<Target, String> {
        let config = config_for(spec);
        let installed = if spec.cluster {
            let warehouse = ClusterWarehouse::install(&config, SHARDS, SHARDS)
                .map_err(|e| format!("install: {e}"))?;
            Installed::Cluster(Box::new(warehouse))
        } else {
            let mut sys = QbismSystem::install(&config).map_err(|e| format!("install: {e}"))?;
            if spec.cache_pages > 0 {
                sys.server.set_cache_config(CacheConfig {
                    capacity_pages: spec.cache_pages,
                    enabled: true,
                    readahead_pages: READAHEAD_PAGES,
                });
            }
            Installed::Single(Box::new(sys))
        };
        // Every LFM publishes its allocation to this gauge; shards are
        // byte-identical copies, so the last writer speaks for each.
        let allocated = qbism_obs::global().gauge("qbism_lfm_allocated_pages").get();
        let studies = (1..=config.pet_studies as i64).collect();
        Ok(Target { installed, config, allocated_pages: allocated.max(0) as u64, studies })
    }

    /// Full set-up: install, cache configuration and the oracle check.
    pub fn set_up(spec: &Spec) -> Result<Target, String> {
        let target = Target::install(spec)?;
        target.check_oracle()?;
        Ok(target)
    }

    /// The server single-study queries go to.
    pub fn server(&self) -> &MedicalServer {
        match &self.installed {
            Installed::Single(sys) => &sys.server,
            Installed::Cluster(warehouse) => warehouse.reference_server(),
        }
    }

    /// The phantom atlas (ground truth and structure names).
    pub fn atlas(&self) -> &PhantomAtlas {
        match &self.installed {
            Installed::Single(sys) => &sys.atlas,
            Installed::Cluster(warehouse) => {
                &warehouse.shard(0).expect("a 2-shard warehouse has shard 0").system().atlas
            }
        }
    }

    fn structure_name(&self, index: usize) -> &'static str {
        self.atlas().structures()[index].name
    }

    /// `allocated_pages × 4096 ÷ user bytes`.
    pub fn space_amp(&self) -> f64 {
        (self.allocated_pages * PAGE_BYTES) as f64 / user_bytes(&self.config) as f64
    }

    /// Runs one op through the public query API.  Single-study classes
    /// go to the server; on a cluster the two multi-study classes go
    /// through the router.
    pub fn execute(&self, op: &Op) -> Result<Reply, String> {
        let server = self.server();
        let data = |r: qbism::Result<qbism::QueryAnswer>| {
            r.map(|a| Reply { answer: Answer::Data(a.data), cost: a.cost })
                .map_err(|e| e.to_string())
        };
        let hi = |lo: u8| lo + (BAND_WIDTH - 1);
        match *op {
            Op::FullStudy { study } => data(server.full_study(study)),
            Op::Box { study, min, max } => data(server.box_data(study, min, max)),
            Op::Structure { study, structure } => {
                data(server.structure_data(study, self.structure_name(structure)))
            }
            Op::Band { study, lo } => data(server.band_data(study, lo, hi(lo))),
            Op::BandInStructure { study, lo, structure } => {
                data(server.band_in_structure(study, lo, hi(lo), self.structure_name(structure)))
            }
            Op::MultiStudyBand { lo } => {
                let studies = &self.studies;
                let (region, cost) = match &self.installed {
                    Installed::Single(_) => server
                        .multi_study_band_region(studies, lo, hi(lo))
                        .map_err(|e| e.to_string())?,
                    Installed::Cluster(warehouse) => warehouse
                        .multi_study_band_region(studies, lo, hi(lo))
                        .map_err(|e| e.to_string())?,
                };
                Ok(Reply { answer: Answer::Region(region), cost })
            }
            Op::PopulationAverage { structure } => {
                let studies = &self.studies;
                let name = self.structure_name(structure);
                let (data, cost, complete) = match &self.installed {
                    Installed::Single(_) => {
                        let a =
                            server.population_average(studies, name).map_err(|e| e.to_string())?;
                        let complete = a.is_complete();
                        (a.data, a.cost, complete)
                    }
                    Installed::Cluster(warehouse) => {
                        let a = warehouse
                            .population_average(studies, name)
                            .map_err(|e| e.to_string())?;
                        let complete = a.is_complete();
                        (a.data, a.cost, complete)
                    }
                };
                if !complete {
                    return Err(format!("population_average({name}) skipped studies"));
                }
                Ok(Reply { answer: Answer::Data(data), cost })
            }
        }
    }

    /// Correctness oracle: one op per class is checked against a route
    /// that bypasses SQL, the LFM's piece reads and the REGION codecs —
    /// the stored warped volumes, the phantom's ground-truth REGIONs,
    /// and `qbism-volume` / `qbism-region` called directly.
    pub fn check_oracle(&self) -> Result<(), String> {
        let server = self.server();
        let atlas = self.atlas();
        let geom = self.config.geometry();
        let side = self.config.side();
        let studies = &self.studies;
        let volumes: Vec<Volume> = studies
            .iter()
            .map(|&s| server.warped_volume(s).map_err(|e| format!("oracle: warped_volume: {e}")))
            .collect::<Result<_, _>>()?;
        let study = studies[1];
        let volume = &volumes[1];

        // Parameters with non-trivial answers, picked from the data: the
        // largest structure, the smallest one, and the band holding most
        // of the largest structure's voxels.
        let sizes: Vec<u64> = atlas.structures().iter().map(|s| s.region.voxel_count()).collect();
        let largest = (0..sizes.len()).max_by_key(|&i| sizes[i]).expect("the atlas has structures");
        // (On a 16³ test grid the smallest structures rasterize to nothing.)
        let smallest = (0..sizes.len())
            .filter(|&i| sizes[i] > 0)
            .min_by_key(|&i| sizes[i])
            .expect("the atlas has structures");
        let truth = |i: usize| &atlas.structures()[i].region;
        let extract =
            |v: &Volume, r: &Region| v.extract(r).map_err(|e| format!("oracle: extract: {e}"));
        let mut per_band = [0u64; 8];
        for &v in extract(volume, truth(largest))?.values() {
            per_band[usize::from(v / BAND_WIDTH)] += 1;
        }
        let busiest = (0..8).max_by_key(|&b| per_band[b]).expect("8 bands") as u8 * BAND_WIDTH;
        let band_hi = busiest + (BAND_WIDTH - 1);

        let min = [side / 8 + 1, side / 4 + 1, side / 8 + 3];
        let max = min.map(|c| c + side / 4 - 1);
        let box_region = Region::from_box(geom, min, max).ok_or("oracle: box outside the grid")?;
        let band_region = volume.intensity_region(busiest, band_hi);
        let fold = volumes
            .iter()
            .map(|v| v.intensity_region(busiest, band_hi))
            .reduce(|acc, r| acc.intersect(&r))
            .expect("at least one study");
        let extracts: Vec<DataRegion<u8>> =
            volumes.iter().map(|v| extract(v, truth(smallest))).collect::<Result<_, _>>()?;
        let n = extracts.len() as u32;
        let mean: Vec<u8> = (0..extracts[0].voxel_count())
            .map(|i| (extracts.iter().map(|e| u32::from(e.values()[i])).sum::<u32>() / n) as u8)
            .collect();

        let cases: [(Op, Answer); 7] = [
            (Op::FullStudy { study }, Answer::Data(extract(volume, &Region::full(geom))?)),
            (Op::Box { study, min, max }, Answer::Data(extract(volume, &box_region)?)),
            (
                Op::Structure { study, structure: largest },
                Answer::Data(extract(volume, truth(largest))?),
            ),
            (Op::Band { study, lo: busiest }, Answer::Data(extract(volume, &band_region)?)),
            (
                Op::BandInStructure { study, lo: busiest, structure: largest },
                Answer::Data(extract(volume, &band_region.intersect(truth(largest)))?),
            ),
            (Op::MultiStudyBand { lo: busiest }, Answer::Region(fold)),
            (
                Op::PopulationAverage { structure: smallest },
                Answer::Data(DataRegion::new(truth(smallest).clone(), mean)),
            ),
        ];
        for (op, expected) in cases {
            let reply = self.execute(&op).map_err(|e| format!("oracle: {op:?}: {e}"))?;
            let same = match (&reply.answer, &expected) {
                (Answer::Data(got), Answer::Data(want)) => {
                    got.voxel_count() > 0
                        && got.region() == want.region()
                        && got.values() == want.values()
                }
                (Answer::Region(got), Answer::Region(want)) => got == want,
                _ => false,
            };
            if !same {
                return Err(format!("oracle: {op:?} disagrees with the direct route"));
            }
        }
        Ok(())
    }
}
