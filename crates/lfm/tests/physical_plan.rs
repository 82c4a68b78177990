//! The read path's physical-plan counters, checked exactly.
//!
//! `qbism_lfm_extent_*` and `qbism_lfm_cache_*` are process-wide, so
//! this binary holds a single test: nothing else reads a long field
//! while it takes its before/after deltas.

use proptest::prelude::*;
use qbism_lfm::{CacheConfig, LongFieldManager};

const COUNTERS: [&str; 5] = [
    "qbism_lfm_extent_phys_reads_total",
    "qbism_lfm_extent_coalesced_pages_total",
    "qbism_lfm_extent_readahead_pages_total",
    "qbism_lfm_cache_hits_total",
    "qbism_lfm_cache_misses_total",
];

fn counters() -> [u64; 5] {
    COUNTERS.map(|name| qbism_obs::global().counter(name).get())
}

proptest! {
    /// One physical transfer per logical extent, every further page of
    /// the extent riding it — unbuffered, and equally on the cold pass
    /// of a pool that fits (one demand miss per extent stages the rest).
    #[test]
    fn physical_totals_are_the_per_extent_sums(
        seed_len in 1usize..30_000,
        cuts in proptest::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let data: Vec<u8> = (0..seed_len).map(|i| (i * 31 % 256) as u8).collect();
        let mut offs: Vec<u64> = cuts.iter().map(|c| (c * seed_len as f64) as u64).collect();
        offs.sort_unstable();
        offs.dedup();
        let mut pieces: Vec<(u64, u64)> = Vec::new();
        let mut prev = 0u64;
        for &o in &offs {
            if o > prev {
                pieces.push((prev, (o - prev) / 2));
            }
            prev = o;
        }
        for page_size in [4096usize, 512, 100] {
            for capacity_pages in [0usize, 512] {
                let mut lfm = LongFieldManager::new(1 << 16, page_size).unwrap();
                lfm.set_cache_config(CacheConfig {
                    capacity_pages,
                    enabled: capacity_pages > 0,
                    readahead_pages: 0,
                });
                let id = lfm.create(&data).unwrap();
                lfm.reset_stats();
                let before = counters();
                let mut out = Vec::new();
                lfm.read_pieces_into(id, pieces.iter().copied(), &mut out).unwrap();
                let after = counters();
                let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
                let (pages, extents) = (lfm.stats().pages_read, lfm.stats().extents_read);
                let (hits, misses) =
                    if capacity_pages > 0 { (pages - extents, extents) } else { (0, 0) };
                prop_assert_eq!(delta, vec![extents, pages - extents, 0, hits, misses]);
                let cs = lfm.cache_stats();
                prop_assert_eq!((cs.hits, cs.misses, cs.evictions), (hits, misses, 0));
                // A whole-field object read moves every series exactly as
                // `read` does, whether it decodes (cold) or is served
                // decoded (warm): `twin` has had the same history as
                // `lfm`, so the two pools agree call for call.
                let mut twin = LongFieldManager::new(1 << 16, page_size).unwrap();
                twin.set_cache_config(lfm.cache_config());
                let twin_id = twin.create(&data).unwrap();
                twin.reset_stats();
                twin.read_pieces_into(twin_id, pieces.iter().copied(), &mut Vec::new()).unwrap();
                let keep = |bytes: Vec<u8>| Ok::<_, qbism_lfm::LfmError>((bytes.len(), 0));
                let delta = |read: &dyn Fn()| {
                    let before = counters();
                    read();
                    counters().iter().zip(before).map(|(a, b)| a - b).collect::<Vec<u64>>()
                };
                for _ in 0..2 {
                    let by_read = delta(&|| drop(lfm.read(id).unwrap()));
                    let by_object = delta(&|| drop(twin.read_object(twin_id, keep).unwrap()));
                    prop_assert_eq!(by_object, by_read);
                }
                prop_assert_eq!(twin.stats(), lfm.stats());
            }
        }
    }
}
