//! Layer probes: the harness times a layer's public function directly,
//! on inputs taken from the installed system, and reports the quiet
//! floor of the repetitions.
//!
//! Probes answer "did this layer's own cost move?" for layers the
//! program's spans do not separate (REGION codecs, cursors, the curve,
//! warp, the phantom generator, the DX side).  They run in the traced
//! invocation only.

use crate::estimator::quiet_floor;
use crate::run::Metric;
use crate::target::{Installed, Target};
use crate::workload::BAND_WIDTH;
use qbism::wire::{decode_data_region, encode_data_region};
use qbism_coding::{k3tree, runcode, K3Cursor, RunCursor, RunListCursor};
use qbism_phantom::{build_atlas, Modality, PetField, StudyGenerator};
use qbism_region::{
    compressed_cursor, encode_compressed, kernel, kernel_compressed, Region, RegionCodec, Run,
};
use qbism_render::{extract_surface, import_data_region, Camera, Rasterizer};
use qbism_sfc::{CurveKind, SpaceFillingCurve};
use qbism_volume::Volume;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of a probe that costs microseconds.
const REPS: usize = 30;
/// A probe costing milliseconds stops repeating after this long …
const PROBE_BUDGET_S: f64 = 0.6;
/// … but never before this many repetitions.
const MIN_REPS: usize = 3;

/// Seconds of the quietest call of `f`, after one untimed call.
fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let started = Instant::now();
    let mut samples = Vec::with_capacity(REPS);
    while samples.len() < REPS
        && (samples.len() < MIN_REPS || started.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    quiet_floor(&samples)
}

fn pairs(region: &Region) -> Vec<(u64, u64)> {
    region.runs().iter().map(|r| (r.start, r.end)).collect()
}

/// Drains a cursor; returns the runs seen.
fn scan(mut cursor: impl RunCursor) -> u64 {
    let mut runs = 0;
    while cursor.peek().is_some() {
        runs += 1;
        cursor.advance().expect("probe payload was encoded a moment ago");
    }
    runs
}

/// Gallops a cursor to 64 evenly spaced ids.
fn seek(mut cursor: impl RunCursor, ids: u64) -> u64 {
    for i in 1..=SEEKS {
        cursor.seek(ids / (SEEKS + 1) * i).expect("probe payload was encoded a moment ago");
    }
    cursor.skips()
}

const SEEKS: u64 = 64;

/// Runs every probe against `target` and returns the probe metrics.
pub fn run(target: &mut Target) -> Result<Vec<Metric>, String> {
    let config = target.config.clone();
    let geom = config.geometry();
    let side = config.side();
    let studies = target.studies.clone();
    let err = |what: &str, e: &dyn std::fmt::Display| format!("probe {what}: {e}");
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));

    // ---- inputs taken from the installed system -------------------
    let volumes: Vec<Volume> = studies
        .iter()
        .map(|&s| target.server().warped_volume(s).map_err(|e| err("warped_volume", &e)))
        .collect::<Result<_, _>>()?;
    let structures: Vec<Region> =
        target.atlas().structures().iter().map(|s| s.region.clone()).collect();
    let largest_at = (0..structures.len())
        .max_by_key(|&i| structures[i].voxel_count())
        .expect("atlas structures");
    let largest = &structures[largest_at];
    let largest_name = target.atlas().structures()[largest_at].name;
    let answer = volumes[0].extract(largest).map_err(|e| err("extract", &e))?;
    let voxels = answer.voxel_count() as f64;
    let bands: Vec<Vec<(u8, u8, Region)>> =
        volumes.iter().map(|v| v.intensity_bands(u16::from(BAND_WIDTH))).collect();
    // The band whose five REGIONs carry the most runs feeds the folds.
    let fold_band = (0..bands[0].len())
        .max_by_key(|&b| bands.iter().map(|s| s[b].2.run_count()).sum::<usize>())
        .expect("8 bands");
    let fold: Vec<&Region> = bands.iter().map(|s| &s[fold_band].2).collect();
    let fold_runs = fold.iter().map(|r| r.run_count()).sum::<usize>() as f64;
    let one = fold[0];
    let one_runs = one.run_count() as f64;

    // ---- core: the DATA_REGION wire form --------------------------
    let wire = encode_data_region(&answer).map_err(|e| err("wire encode", &e))?;
    put("core.wire_encode_ns_per_voxel", time(|| encode_data_region(&answer)) * 1e9 / voxels, "ns");
    put("core.wire_decode_ns_per_voxel", time(|| decode_data_region(&wire)) * 1e9 / voxels, "ns");

    // ---- region: kernels and codecs on the five band REGIONs -------
    let lists: Vec<&[Run]> = fold.iter().map(|r| r.runs()).collect();
    put(
        "region.intersect_k_ns_per_run",
        time(|| kernel::intersect_k(&lists)) * 1e9 / fold_runs,
        "ns",
    );
    let blobs: Vec<Vec<u8>> = fold
        .iter()
        .map(|r| encode_compressed(r).map_err(|e| err("encode_compressed", &e)))
        .collect::<Result<_, _>>()?;
    let stream = || {
        let mut opened: Vec<_> =
            blobs.iter().map(|b| compressed_cursor(b).expect("encoded a moment ago").1).collect();
        let mut refs: Vec<&mut dyn RunCursor> =
            opened.iter_mut().map(|c| c as &mut dyn RunCursor).collect();
        kernel_compressed::intersect_k_stream(&mut refs)
    };
    put("region.intersect_k_stream_ns_per_run", time(stream) * 1e9 / fold_runs, "ns");
    let naive = RegionCodec::Naive.encode(one).map_err(|e| err("encode", &e))?;
    put("region.decode_ns_per_run", time(|| RegionCodec::decode(&naive)) * 1e9 / one_runs, "ns");
    put("region.encode_ns_per_run", time(|| RegionCodec::Naive.encode(one)) * 1e9 / one_runs, "ns");
    put(
        "region.encode_compressed_ns_per_run",
        time(|| encode_compressed(one)) * 1e9 / one_runs,
        "ns",
    );
    put(
        "region.to_curve_ns_per_run",
        time(|| one.to_curve(CurveKind::Morton)) * 1e9 / one_runs,
        "ns",
    );
    let stored_len = |r: &Region| -> Result<usize, String> {
        if config.compressed_tablespace {
            encode_compressed(r).map(|b| b.len()).map_err(|e| err("encode_compressed", &e))
        } else {
            config.region_codec.encoded_len(r).map_err(|e| err("encoded_len", &e))
        }
    };
    let mut region_bytes = 0usize;
    for region in structures.iter().chain(bands.iter().flatten().map(|b| &b.2)) {
        region_bytes += stored_len(region)?;
    }
    put("region.bytes_on_device", region_bytes as f64, "bytes");

    // ---- coding: cursor drain and gallop, compressed workloads only
    let mut coding = [0.0; 4];
    if config.compressed_tablespace {
        let vskip = runcode::encode_runs(&pairs(one)).map_err(|e| err("runvskip", &e))?;
        let k3 = k3tree::encode_runs(&pairs(largest), 3 * config.atlas_bits)
            .map_err(|e| err("k3tree", &e))?;
        let ids = geom.cell_count();
        let open_vskip = || RunListCursor::new(&vskip).expect("encoded a moment ago");
        let open_k3 = || K3Cursor::new(&k3).expect("encoded a moment ago");
        coding = [
            time(|| scan(open_vskip())) * 1e9 / one_runs,
            time(|| scan(open_k3())) * 1e9 / largest.run_count() as f64,
            time(|| seek(open_vskip(), ids)) * 1e9 / SEEKS as f64,
            time(|| seek(open_k3(), ids)) * 1e9 / SEEKS as f64,
        ];
    }
    put("coding.runvskip_scan_ns_per_run", coding[0], "ns");
    put("coding.k3tree_scan_ns_per_run", coding[1], "ns");
    put("coding.runvskip_seek_ns", coding[2], "ns");
    put("coding.k3tree_seek_ns", coding[3], "ns");

    // ---- sfc: the Hilbert transducer ------------------------------
    let curve = geom.curve();
    let coords: Vec<[u32; 3]> = {
        let mut rng = crate::workload::Rng::new(0x5fc);
        (0..4096).map(|_| [0; 3].map(|_| rng.below(u64::from(side)) as u32)).collect()
    };
    let index_all = || coords.iter().map(|c| curve.index_of(c)).fold(0u64, u64::wrapping_add);
    put("sfc.hilbert_index_ns_per_voxel", time(index_all) * 1e9 / coords.len() as f64, "ns");

    // ---- volume ----------------------------------------------------
    put("volume.extract_ns_per_voxel", time(|| volumes[0].extract(largest)) * 1e9 / voxels, "ns");
    put(
        "volume.intensity_bands_ms_per_study",
        time(|| volumes[0].intensity_bands(u16::from(BAND_WIDTH))) * 1e3,
        "ms",
    );

    // ---- phantom and warp: what an install spends per study --------
    let truth_geom = geom.with_kind(CurveKind::Hilbert);
    put("phantom.build_atlas_ms", time(|| build_atlas(truth_geom)) * 1e3, "ms");
    let atlas = target.atlas();
    let field = PetField::new(atlas, config.seed.wrapping_add(100), config.pet_blobs);
    let generator = StudyGenerator::new(side);
    let acquire = || generator.acquire(&field, Modality::Pet, config.seed.wrapping_add(500));
    put("phantom.acquire_ms_per_study", time(acquire) * 1e3, "ms");
    let acquired = acquire();
    let (patient, atlas_pts): (Vec<_>, Vec<_>) = acquired.landmarks.iter().copied().unzip();
    let register = || qbism_warp::register_landmarks(&patient, &atlas_pts);
    put("warp.register_us", time(register) * 1e6, "us");
    let warp = register().map_err(|e| err("register", &e))?;
    put(
        "warp.warp_to_atlas_ms_per_study",
        time(|| qbism_warp::warp_to_atlas(&acquired.raw, &warp, geom, 1.0)) * 1e3,
        "ms",
    );

    // ---- render: Table 3's DX columns on one fixed answer ----------
    put("render.extract_surface_ms", time(|| extract_surface(largest)) * 1e3, "ms");
    put("render.import_ns_per_voxel", time(|| import_data_region(&answer)) * 1e9 / voxels, "ns");
    let dx_field = import_data_region(&answer);
    let draw = || {
        let mut raster = Rasterizer::new(256, 256, Camera::default_for_grid(side));
        raster.draw_field(&dx_field);
        raster.finish()
    };
    put("render.draw_ns_per_voxel", time(draw) * 1e9 / voxels, "ns");

    // ---- cluster and parallel --------------------------------------
    let (lo, hi, _) = bands[0][fold_band];
    let route_overhead = match &target.installed {
        Installed::Cluster(warehouse) => {
            let routed = time(|| warehouse.multi_study_band_region(&studies, lo, hi));
            let direct =
                time(|| warehouse.reference_server().multi_study_band_region(&studies, lo, hi));
            routed / direct
        }
        Installed::Single(_) => 0.0,
    };
    put("cluster.route_overhead_ratio", route_overhead, "ratio");
    let mut fanout = [0.0; 2];
    for (slot, threads) in fanout.iter_mut().zip([1, 2]) {
        *slot = match &mut target.installed {
            Installed::Single(sys) => {
                sys.server.set_threads(threads);
                time(|| sys.server.population_average(&studies, largest_name).map(|a| a.cost))
            }
            Installed::Cluster(warehouse) => {
                warehouse.set_threads(threads);
                time(|| warehouse.population_average(&studies, largest_name).map(|a| a.cost))
            }
        };
    }
    match &mut target.installed {
        Installed::Single(sys) => sys.server.set_threads(1),
        Installed::Cluster(warehouse) => warehouse.set_threads(1),
    }
    put("parallel.fanout_speedup_2t", fanout[0] / fanout[1], "ratio");
    Ok(out)
}
