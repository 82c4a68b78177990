//! Seeded bug, the transitive half of `raw-sync`: no `std::sync` token
//! appears in this facade crate's file, but `account` reaches a raw
//! mutex in a crate the model checker does not drive.

pub fn account(pages: u64) -> u64 {
    tally(pages)
}
