//! Names the frozen `benchmark/` crate still calls, each the thinnest
//! form over what replaced it.  They go with the next change to the
//! benchmark.

use crate::ClusterWarehouse;

impl ClusterWarehouse {
    /// Does nothing: the router routes a query's studies in order on
    /// the calling thread (`benchmark/src/probes.rs:246,253`).
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}
}
