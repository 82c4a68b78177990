//! Names the frozen `benchmark/` crate still calls, each the thinnest
//! form over what replaced it.  They go with the next change to the
//! benchmark.

use crate::MedicalServer;

impl MedicalServer {
    /// Does nothing: a multi-study query runs its studies in order on
    /// the calling thread (`benchmark/src/probes.rs:242,252`).
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}
}
