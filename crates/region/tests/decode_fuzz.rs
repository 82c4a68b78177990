//! Decode-fuzz for every REGION byte string: the paper encodings
//! (`Naive`, `Elias`, both octant kinds) and the queryable k³ one.
//!
//! These bytes come back from the device, so whatever they hold,
//! [`compressed_cursor`] + drain and [`RegionCodec::decode`] must answer
//! `Ok` or a typed `Err` — never panic, never reserve memory the bytes
//! cannot back.  Valid strings of each codec are cut at every length
//! and flipped at every bit (header included, so a tag flip hands one
//! codec's payload to another's decoder); arbitrary tails ride behind a
//! valid REGION header with an arbitrary run count so the payload
//! decoders, not the header check, see them.  The queryable codec —
//! what the compressed tablespace stores — takes the same cuts and flips
//! on the shapes their payload has special forms for: no runs, the full
//! grid, one voxel, and a real intensity band of a phantom PET field.
//! Tag 4, a retired skip-block run list, is one typed error everywhere.
//!
//! The decoder wraps a run list it finds canonical and sorts and fuses
//! any other; a differential case writes both kinds by hand and holds
//! each decode to the `Region` that `Region::from_runs` builds.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use proptest::prelude::*;
use qbism_coding::CodingError;
use qbism_geometry::Vec3;
use qbism_phantom::{build_atlas, PetField, ScalarField3};
use qbism_region::{
    compressed_cursor, open_k3, GridGeometry, Octant, OctantKind, Region, RegionCodec,
    RegionEncodeError, Run,
};
use qbism_sfc::CurveKind;

fn every_codec() -> impl Iterator<Item = RegionCodec> {
    RegionCodec::ALL.into_iter().chain([RegionCodec::K3Tree])
}

/// A 32³ REGION with a solid box and some scattered cells: both node
/// kinds of the k³-tree.
fn sample() -> Region {
    let g = GridGeometry::new(CurveKind::Hilbert, 3, 5);
    let solid = Region::from_box(g, [3, 4, 5], [17, 12, 9]).expect("box inside the grid");
    solid.union(&Region::from_ids(g, (0..400).map(|i| i * 79 % 32_768).collect()))
}

/// The 96–127 intensity band of a phantom PET field sampled at 32³: the
/// boundary-heavy speckle the compressed tablespace mostly holds.
fn band() -> Region {
    let g = sample().geometry();
    let atlas = build_atlas(g);
    let field = PetField::new(&atlas, 1994, 4);
    let at = |c: u32| f64::from(c) + 0.5;
    let volume = qbism_volume::Volume::from_fn3(g, |x, y, z| {
        field.value(Vec3::new(at(x), at(y), at(z))).clamp(0.0, 255.0) as u8
    });
    volume.intensity_region(96, 127)
}

/// Every cut and every single-bit flip of `bytes`, decoded both ways.
fn cut_and_flip(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        decode_both_ways(&bytes[..cut]);
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode_both_ways(&flipped);
    }
}

/// Opens and drains `bytes` both ways.  Whatever a k³-tree's bytes
/// hold, the runs it streams are canonical.
fn decode_both_ways(bytes: &[u8]) {
    let streamed = compressed_cursor(bytes).and_then(|(_, cursor)| Ok(cursor.decode_all()?));
    let decoded = RegionCodec::decode(bytes);
    if let Ok(runs) = streamed {
        let runs: Vec<Run> = runs.into_iter().map(|(start, end)| Run::new(start, end)).collect();
        assert!(runs.windows(2).all(|w| w[0].end + 1 < w[1].start), "k3 runs not canonical");
        if let Ok(region) = decoded {
            assert_eq!(runs, region.runs());
        }
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_valid_region_is_handled() {
    let region = sample();
    for codec in every_codec() {
        let bytes = codec.encode(&region).expect("encode");
        assert_eq!(RegionCodec::decode(&bytes).expect("decode"), region);
        cut_and_flip(&bytes);
    }
}

#[test]
fn every_truncation_and_bit_flip_of_the_queryable_payload_shapes_is_handled() {
    let g = sample().geometry();
    let band = band();
    assert!(band.run_count() > 500, "a band of {} runs is no speckle", band.run_count());
    let one_voxel = Region::from_ids(g, vec![20_000]);
    for region in [Region::empty(g), Region::full(g), one_voxel, band] {
        let bytes = RegionCodec::K3Tree.encode(&region).expect("encode");
        assert_eq!(RegionCodec::decode(&bytes).expect("decode"), region);
        cut_and_flip(&bytes);
    }
}

/// A REGION with codec tag 4 — the skip-block run list the compressed
/// tablespace once fell back to, here `[(9, 9), (448, 511)]` on an 8³
/// grid in that layout — is `BadTag(4)` from every opener, not misread.
#[test]
fn a_former_run_list_region_is_bad_tag_4_everywhere() {
    let mut bytes = vec![0x52, 0x51, 0x04, 0x00, 0x03, 0x03, 0x02, 0x00, 0x00, 0x00];
    bytes.extend_from_slice(&[2, 1, 9, 0, 0, 0, 255, 1, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0]);
    bytes.extend_from_slice(&[0, 181, 3, 63]);
    let refused = RegionEncodeError::BadTag(4);
    assert_eq!(RegionCodec::decode(&bytes), Err(refused.clone()));
    assert_eq!(open_k3(&bytes), Err(refused.clone()));
    assert_eq!(compressed_cursor(&bytes).err(), Some(refused));
}

/// What the k³ codec wrote before its leaves became run blocks — here
/// `[(9, 9), (448, 511)]` on an 8³ grid — is refused with a typed
/// error, by the cursor and by `decode`, not misread.
#[test]
fn a_word_only_k3_payload_is_refused() {
    let mut bytes = vec![0x52, 0x51, 0x05, 0x00, 0x03, 0x03, 0x02, 0x00, 0x00, 0x00];
    bytes.extend_from_slice(&[9, 2, 0x80, 0x01, 0x20, 0x00, 0x10, 0x00]);
    let refused = CodingError::Corrupt("not a run-block k3-tree payload");
    let refused = RegionEncodeError::Coding(refused);
    assert_eq!(compressed_cursor(&bytes).err(), Some(refused.clone()));
    assert_eq!(RegionCodec::decode(&bytes), Err(refused));
}

/// γ(6) then γ(2⁶⁴−1) behind a valid one-run Elias header: the length
/// wrapped `start + len - 1` to 3 < 5 (release: `Run::new`'s assert;
/// debug: add overflow).  Random tails do not find 63 zero bits.
#[test]
fn an_elias_length_that_wraps_the_run_end_is_corrupt_not_a_panic() {
    let mut bytes = vec![0x52, 0x51, 0x01, 0x00, 0x03, 0x05, 0x01, 0x00, 0x00, 0x00];
    bytes.extend_from_slice(&[0x30, 0, 0, 0, 0, 0, 0, 0, 0x0f]);
    bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0]);
    assert_eq!(bytes.len(), 27);
    assert_eq!(RegionCodec::decode(&bytes), Err(RegionEncodeError::Corrupt("run bounds overflow")));
}

/// `codec`'s header for `sample()`'s grid claiming `count` entries,
/// ready for a hand-written payload.
fn header(codec: RegionCodec, count: usize) -> Vec<u8> {
    let mut bytes = codec.encode(&sample()).expect("encode");
    bytes.truncate(6);
    bytes.extend_from_slice(&(count as u32).to_le_bytes());
    bytes
}

proptest! {
    /// Run lists no encoder writes — unsorted, overlapping, adjacent,
    /// duplicated — still decode to the REGION they denote (the sort-
    /// and-fuse fallback), and canonical ones to themselves (the wrap).
    #[test]
    fn hand_written_run_lists_decode_to_what_from_runs_builds(
        spans in proptest::collection::vec((0u64..32_768, 0u64..60), 0..50),
        blocks in proptest::collection::vec((0u64..32_768, 0u32..7), 0..50),
        dup in any::<bool>(),
    ) {
        let g = sample().geometry();
        let clip = |end: u64| end.min(g.cell_count() - 1);
        let mut runs: Vec<Run> = spans.iter().map(|&(s, l)| Run::new(s, clip(s + l))).collect();
        let mut octants: Vec<Octant> =
            blocks.iter().map(|&(id, rank)| Octant::new(id >> rank << rank, rank)).collect();
        if dup {
            runs.extend_from_within(..runs.len() / 2);
            octants.extend_from_within(..octants.len() / 2);
        }
        let canonical = Region::from_runs(g, runs.clone());

        // Naive: the list as given, then its canonical form.
        for list in [&runs[..], canonical.runs()] {
            let mut bytes = header(RegionCodec::Naive, list.len());
            for r in list {
                bytes.extend_from_slice(&(r.start as u32).to_le_bytes());
                bytes.extend_from_slice(&(r.end as u32).to_le_bytes());
            }
            prop_assert_eq!(RegionCodec::decode(&bytes), Ok(canonical.clone()));
        }

        // Octant words in any order, nested or repeated; then the
        // encoder's own (ascending, disjoint) decomposition.
        let denoted = Region::from_runs(g, octants.iter().map(Octant::as_run).collect());
        for kind in [OctantKind::Oblong, OctantKind::Cubic] {
            for list in [octants.clone(), denoted.octants(kind)] {
                let mut bytes = header(RegionCodec::Octant(kind), list.len());
                for o in &list {
                    bytes.extend_from_slice(&(((o.id as u32) << 5) | o.rank).to_le_bytes());
                }
                prop_assert_eq!(RegionCodec::decode(&bytes), Ok(denoted.clone()));
            }
        }

        // Elias gaps are at least one id wide, so its lists are
        // canonical by construction: the wrap arm only.
        let bytes = RegionCodec::Elias.encode(&canonical).expect("encode");
        prop_assert_eq!(RegionCodec::decode(&bytes), Ok(canonical));
    }

    #[test]
    fn arbitrary_payloads_behind_a_valid_header_are_handled(
        codec_pick in 0usize..5,
        count in any::<u32>(),
        tail in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // The first ten bytes of any encoding are the REGION header;
        // the claimed run count is arbitrary too.
        let codec = every_codec().nth(codec_pick).expect("five codecs");
        let mut bytes = codec.encode(&sample()).expect("encode");
        bytes.truncate(6);
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&tail);
        decode_both_ways(&bytes);
        decode_both_ways(&tail);
    }
}
