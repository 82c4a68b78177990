//! QBISM: querying and visualizing 3-D medical images on an extensible
//! DBMS — the paper's integrated system.
//!
//! This crate wires the substrates together exactly along the paper's
//! architecture (Figure 7):
//!
//! ```text
//!  DX UI  ──▶  DX executive (qbism-render)
//!                 ▲   ImportVolume
//!                 │ RPC (qbism-netsim)
//!  MedicalServer (this crate) ──▶ Starburst (qbism-starburst)
//!                                    │ spatial UDFs (this crate)
//!                                    ▼
//!                            Long Field Manager (qbism-lfm)
//! ```
//!
//! * [`schema`] — the Figure 1 medical schema as SQL DDL;
//! * [`wire`] — the long-field layouts of VOLUMEs and the wire layout of
//!   `DATA_REGION` answers;
//! * [`ops`] — the Section 3.2 spatial operators registered as
//!   user-defined SQL functions (`intersection`, `contains`,
//!   `extractVoxels`, plus `runion`/`rdifference`, which §3.2 calls
//!   straightforward);
//! * [`loader`] — database population: synthesize phantom data, register
//!   and warp studies *at load time*, compute intensity bands;
//! * [`server`] — MedicalServer: high-level query specs translated to
//!   SQL (the two queries of Section 3.4 and their variants), with
//!   per-query I/O and time accounting;
//! * [`report`] — the full-system measured pipeline that regenerates
//!   Table 3 and Table 4 rows (database → network → ImportVolume →
//!   rendering).
//!
//! # Quickstart
//!
//! ```
//! use qbism::{QbismConfig, QbismSystem};
//!
//! // A small deterministic installation (16^3 atlas, 2 PET studies).
//! let config = QbismConfig::small_test();
//! let mut sys = QbismSystem::install(&config).unwrap();
//! let answer = sys.server.structure_data(1, "ntal").unwrap();
//! assert!(answer.data.voxel_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "octant and piece indices are produced by the same geometry that sized the arrays"
)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod compat;
mod config;
pub mod loader;
pub mod ops;
pub mod report;
pub mod schema;
pub mod server;
pub mod wire;

pub use config::QbismConfig;
pub use loader::QbismSystem;
pub use report::{FullQueryReport, QuerySpec};
pub use server::{MedicalServer, PopulationAnswer, QueryAnswer, QueryCost, StudyStage};

/// Errors from the integrated system.
#[derive(Debug)]
pub enum QbismError {
    /// Database-layer failure.
    Db(qbism_starburst::DbError),
    /// REGION encode/decode failure.
    Region(qbism_region::RegionEncodeError),
    /// Volume-layer failure.
    Volume(qbism_volume::VolumeError),
    /// Registration failure.
    Registration(qbism_warp::RegistrationError),
    /// Malformed wire payload or long-field contents.
    Wire(String),
    /// Query addressed something that does not exist.
    NotFound(String),
    /// A [`QbismConfig`] no installation can be built from.
    Config(String),
    /// Simulated network failure: the answer could not be shipped even
    /// after the RPC channel's bounded retries.
    Net(qbism_netsim::NetError),
}

impl std::fmt::Display for QbismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QbismError::Db(e) => write!(f, "database: {e}"),
            QbismError::Region(e) => write!(f, "region: {e}"),
            QbismError::Volume(e) => write!(f, "volume: {e}"),
            QbismError::Registration(e) => write!(f, "registration: {e}"),
            QbismError::Wire(m) => write!(f, "wire format: {m}"),
            QbismError::NotFound(m) => write!(f, "not found: {m}"),
            QbismError::Config(m) => write!(f, "configuration: {m}"),
            QbismError::Net(e) => write!(f, "network: {e}"),
        }
    }
}

impl std::error::Error for QbismError {}

impl From<qbism_starburst::DbError> for QbismError {
    fn from(e: qbism_starburst::DbError) -> Self {
        QbismError::Db(e)
    }
}

impl From<qbism_netsim::NetError> for QbismError {
    fn from(e: qbism_netsim::NetError) -> Self {
        QbismError::Net(e)
    }
}

impl From<qbism_region::RegionEncodeError> for QbismError {
    fn from(e: qbism_region::RegionEncodeError) -> Self {
        QbismError::Region(e)
    }
}

impl From<qbism_volume::VolumeError> for QbismError {
    fn from(e: qbism_volume::VolumeError) -> Self {
        QbismError::Volume(e)
    }
}

impl From<qbism_warp::RegistrationError> for QbismError {
    fn from(e: qbism_warp::RegistrationError) -> Self {
        QbismError::Registration(e)
    }
}

impl From<qbism_lfm::LfmError> for QbismError {
    fn from(e: qbism_lfm::LfmError) -> Self {
        QbismError::Db(qbism_starburst::DbError::Storage(e))
    }
}

/// Result alias for the integrated system.
pub type Result<T> = std::result::Result<T, QbismError>;
