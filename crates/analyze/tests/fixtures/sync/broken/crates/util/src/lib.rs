//! Not a facade crate: raw primitives are allowed here — until a facade
//! crate calls in.

pub fn tally(pages: u64) -> u64 {
    let total = std::sync::Mutex::new(0u64); // LINT: raw-sync
    pages
}

pub fn unreached() -> std::sync::RwLock<u32> {
    std::sync::RwLock::new(0)
}
