//! Fixed form: the shared counter lives behind the facade, and the
//! helper the facade crate calls holds no primitive of its own.

use qbism_check::sync::Mutex;
use std::sync::Arc;

pub fn account(total: &Arc<Mutex<u64>>, pages: u64) -> u64 {
    *total.lock_or_recover() += tally(pages);
    pages
}
