//! Fixed form: both paths acquire `Pool.free` before `Pool.used`, so
//! the ordering graph has edges in one direction only.

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
        let f = self.free.lock_or_recover();
        let u = self.used.lock_or_recover();
    }

    pub fn release(&self) {
        let f = self.free.lock_or_recover();
        let u = self.used.lock_or_recover();
    }
}
