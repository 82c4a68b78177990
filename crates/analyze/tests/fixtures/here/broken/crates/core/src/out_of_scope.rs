// Fixture: patterns that are findings elsewhere and fine here, because
// scope is the path.

// `core` is not a deterministic crate: it may time queries.
fn fine_native_timing() -> std::time::Instant {
    std::time::Instant::now()
}

// `IoStats` is banned in the lfm cache files only.
fn fine_logical_accounting(stats: &IoStats) -> u64 {
    stats.pages_read
}
