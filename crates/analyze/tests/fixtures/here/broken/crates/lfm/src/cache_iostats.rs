// Fixture: cache-layer code reaching into the logical accounting
// layer.  The path scopes the rule: a `*cache*` file of crates/lfm —
// the real target is crates/lfm/src/cache.rs.

struct IoStats; // LINT: no-cache-iostats

fn bad_counts(stats: &mut IoStats) { // LINT: no-cache-iostats
    let _ = stats;
}

struct CacheStats {
    hits: u64,
}

fn fine_cache_stats(s: &CacheStats) -> u64 {
    s.hits
}
