//! Names the frozen `benchmark/` crate still imports, each the thinnest
//! form over what replaced it; the crate root re-exports them.  They go
//! with the next change to the benchmark.

use crate::{Region, RegionCodec, RegionEncodeError};

/// [`RegionCodec::K3Tree`]'s `encode` (`benchmark/src/probes.rs:122,137,147`).
pub fn encode_compressed(region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
    RegionCodec::K3Tree.encode(region)
}

/// The k-way cursor merge (`benchmark/src/probes.rs:129`).
pub mod kernel_compressed {
    pub use crate::kernel::intersect_k_cursors as intersect_k_stream;
}
