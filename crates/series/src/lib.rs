//! # tsq-series — time-series substrate for similarity queries
//!
//! Value types and sequence operations underlying the paper *Similarity-
//! Based Queries for Time Series Data* (Rafiei & Mendelzon, SIGMOD 1997):
//!
//! - [`series::TimeSeries`] — the sequence type (finite `f64` values);
//! - [`normal::NormalForm`] — Goldin–Kanellakis normal forms (Equation 9),
//!   the representation the paper indexes;
//! - [`moving_average`] — the paper's circular moving average (equal to a
//!   circular convolution, hence expressible as a frequency-domain
//!   transformation), the classical windowed variant, and weighted kernels;
//! - [`warp`] — integer time stretching (Example 1.2 / Appendix A);
//! - [`distance`] — the one accumulate-and-abandon sum-of-squares loop
//!   every exact check runs (the optimization behind the paper's fast
//!   sequential-scan baseline) and its threshold, plus the reference
//!   Euclidean, city-block and Chebyshev distances;
//! - [`generate`] — the paper's random-walk workload and a synthetic
//!   stock-market generator substituting for the defunct MIT stock archive;
//! - [`io`] — one-series-per-line CSV persistence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod generate;
pub mod io;
pub mod moving_average;
pub mod normal;
pub mod series;
pub mod stats;
pub mod warp;

pub use normal::NormalForm;
pub use series::{NonFiniteValue, TimeSeries};
