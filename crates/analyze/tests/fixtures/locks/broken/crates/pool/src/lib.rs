//! Seeded bug: `grab` takes `pool.free` then `pool.used`; `release`
//! takes them in the opposite order.  A concurrent grab/release pair
//! can deadlock — the static twin of what the dynamic lockorder
//! checker would flag only once a run actually interleaves them.

struct Pool {
    free: Mutex,
    used: Mutex,
}

impl Pool {
    fn init() -> Pool {
        Pool { free: Mutex::named("pool.free", 0), used: Mutex::named("pool.used", 0) }
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
