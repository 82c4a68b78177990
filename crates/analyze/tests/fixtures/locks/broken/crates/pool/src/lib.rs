//! Seeded bug: `grab` takes `Pool.free` then `Pool.used`; `release`
//! takes them in the opposite order.  A concurrent grab/release pair
//! can deadlock, though only a run that interleaves them would show it.

use qbism_obs::LockOrRecover;
use std::sync::Mutex;

struct Pool {
    free: Mutex<u32>,
    used: Mutex<u32>,
}

impl Pool {
    fn init() -> Pool {
        Pool { free: Mutex::new(0), used: Mutex::new(0) }
    }

    pub fn grab(&self) {
        let f = self.free.lock_or_recover(); // LINT: lock-order
        let u = self.used.lock_or_recover();
    }

    pub fn release(&self) {
        let u = self.used.lock_or_recover();
        let f = self.free.lock_or_recover();
    }
}
