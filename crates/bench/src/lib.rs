//! The QBISM evaluation harness.
//!
//! One module per paper result; every module produces a printable report
//! carrying both the paper's published numbers and ours, so
//! `tablegen all` regenerates the entire evaluation section.
//!
//! | paper result | module |
//! |---|---|
//! | Tables 1 & 2 (encodings of the Figure 3 region) | [`tables12`] |
//! | §4.2 run/octant count ratios (1 : 1.27 : 1.61 : 2.42) | [`run_counts`] |
//! | EQ 1 delta-length power law (a ≈ 1.5–1.7) | [`eq1`] |
//! | Figure 4 size ratios (1 : 1.17 : 9.50 : 10.4 : 17.8) | [`fig4`] |
//! | Table 3 single-study queries Q1–Q6 | [`table3`] |
//! | Table 4 multi-study n-way intersection | [`table4`] |
//! | §6.4 multi-study traffic scaling | [`scaling`] |
//! | Faloutsos–Roseman 1 : 1.20 rectangle cross-check | [`rects`] |
//! | §4.2 approximate-REGION trade-off (ablation) | [`approx`] |
//!
//! [`tablegen`] strings the reports together as the `tablegen` binary
//! prints them.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "the paper-table harness indexes result rows and sweeps it built itself"
)]
#![expect(
    clippy::expect_used,
    reason = "the paper-table harness: a failed install or query aborts the table run with its message"
)]
#![warn(missing_docs)]

pub mod approx;
pub mod eq1;
pub mod fig4;
pub mod population;
pub mod rects;
pub mod run_counts;
pub mod scaling;
pub mod table3;
pub mod table4;
pub mod tablegen;
pub mod tables12;
