//! Integration tests of the Section 4 physical-design claims, checked
//! on phantom data across crate boundaries.

use qbism_bench::population::region_population;
use qbism_coding::{EliasGamma, Golomb, IntCodec, Rice};
use qbism_region::{DeltaStats, RegionCodec, RepresentationCounts};
use qbism_sfc::CurveKind;

#[test]
fn hilbert_beats_z_on_every_brain_region() {
    // Section 4.1: "yielding about 27% more runs for each of the REGIONs
    // we tried" — Z order must never beat Hilbert.
    for r in region_population(5, 2, 1, 11) {
        let counts = RepresentationCounts::measure(&r.region);
        assert!(
            counts.h_runs <= counts.z_runs,
            "{}: h {} vs z {}",
            r.name,
            counts.h_runs,
            counts.z_runs
        );
    }
}

#[test]
fn runs_never_exceed_octants() {
    // Section 4.2: "the number of runs never exceeds the number of
    // octants" — a theorem, so check it everywhere.
    use qbism_region::OctantKind;
    for r in region_population(5, 1, 1, 13) {
        for curve in [CurveKind::Hilbert, CurveKind::Morton] {
            let on = r.region.to_curve(curve);
            assert!(on.run_count() <= on.octant_count(OctantKind::Oblong), "{}", r.name);
            assert!(
                on.octant_count(OctantKind::Oblong) <= on.octant_count(OctantKind::Cubic),
                "{}",
                r.name
            );
        }
    }
}

#[test]
fn elias_gamma_beats_the_geometric_codes_on_brain_deltas() {
    // Section 4.2 rules out Golomb-family codes because deltas are
    // power-law, not geometric.  Measure it: γ must use fewer total bits
    // than any Golomb/Rice parameter choice on real delta data.
    let pop = region_population(5, 2, 1, 7);
    let mut gamma_total = 0u64;
    let mut best_golomb_total = 0u64;
    for r in &pop {
        let deltas = r.region.delta_lengths();
        if deltas.is_empty() {
            continue;
        }
        gamma_total += EliasGamma.total_bits(&deltas).expect("positive deltas");
        // Give Golomb its best parameter per region (generous).
        let best = (0..8)
            .map(|k| Rice::new(k).total_bits(&deltas).expect("positive"))
            .chain([Golomb::new(3).total_bits(&deltas).expect("positive")])
            .min()
            .expect("non-empty");
        best_golomb_total += best;
    }
    assert!(
        gamma_total < best_golomb_total,
        "gamma {gamma_total} bits should beat best-tuned Golomb {best_golomb_total}"
    );
}

#[test]
fn elias_encoding_sits_near_the_entropy_bound() {
    // Figure 4's key claim: elias ≈ 1.2x entropy, "difficult to improve
    // upon".  Checked in aggregate over the population.
    let pop = region_population(5, 2, 1, 7);
    let mut elias_bytes = 0.0;
    let mut entropy_bytes = 0.0;
    for r in &pop {
        elias_bytes += RegionCodec::Elias.payload_len(&r.region).expect("encodes") as f64;
        entropy_bytes += DeltaStats::measure(&r.region).entropy_bound_bytes();
    }
    let ratio = elias_bytes / entropy_bytes;
    assert!((1.0..1.6).contains(&ratio), "elias/entropy ratio {ratio} (paper: 1.17)");
}

#[test]
fn approximate_regions_accelerate_but_never_lie() {
    // Section 4.2's approximation plus the prescribed post-processing:
    // approximate intersect + refine == exact intersect.
    let pop = region_population(5, 1, 0, 9);
    let hemisphere = &pop[1].region;
    let band = &pop[12].region;
    let approx_band =
        band.approximate(qbism_region::ApproxParams { mingap: 6, min_octant_side: 2 });
    assert!(approx_band.run_count() <= band.run_count());
    let candidate = hemisphere.intersect(&approx_band);
    let refined = candidate.refine_with_exact(band);
    assert_eq!(refined, hemisphere.intersect(band));
}

#[test]
fn volume_layout_controls_extraction_page_counts() {
    // Section 4.1 requirement 2 (clustering): extracting a compact
    // structure from a Hilbert-ordered volume touches no more pages than
    // from a scanline-ordered one.
    use qbism_bench::population::sample_field;
    use qbism_lfm::LongFieldManager;
    use qbism_phantom::{build_atlas, PetField};
    use qbism_region::GridGeometry;
    let geom = GridGeometry::new(CurveKind::Hilbert, 3, 6);
    let atlas = build_atlas(geom);
    let vol_h = sample_field(geom, &PetField::new(&atlas, 3, 3));
    let structure = &atlas.structure("ntal").expect("exists").region;
    let mut pages = Vec::new();
    for kind in [CurveKind::Hilbert, CurveKind::Scanline] {
        let vol = vol_h.relayout(kind);
        let region = structure.to_curve(kind);
        let mut lfm = LongFieldManager::new(1 << 22, 4096).expect("device");
        let id = lfm.create(vol.values()).expect("store");
        lfm.reset_stats();
        let pieces = region.runs().iter().map(|r| (r.start, r.len()));
        let mut out = Vec::new();
        lfm.read_pieces_into(id, pieces, &mut out).expect("extract");
        pages.push(lfm.stats().pages_read);
    }
    assert!(pages[0] <= pages[1], "hilbert layout reads {} pages, scanline {}", pages[0], pages[1]);
}
