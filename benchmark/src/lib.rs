//! The QBISM reproduction's one repeatable benchmark.
//!
//! Five workloads drive the system through its public APIs only
//! (`QbismSystem::install`, `MedicalServer::*`, `ClusterWarehouse::*`,
//! the public stats and the `qbism_obs` registry and span trees), from
//! one process, closed loop, with no sleeps and no latency replay.
//! Every timing is a quiet quartile over rounds of identical work
//! ([`estimator`]); every count comes from the answers' own
//! `QueryCost` and repeats exactly.  README.md has the metric and
//! workload tables, the predicted interactions and the measurements
//! the design rests on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod probes;
pub mod report;
pub mod run;
pub mod target;
pub mod trace;
pub mod traced;
pub mod workload;
