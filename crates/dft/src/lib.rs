//! # tsq-dft — Fourier substrate for similarity-based time-series queries
//!
//! This crate implements, from scratch, every piece of Fourier machinery the
//! paper *Similarity-Based Queries for Time Series Data* (Rafiei &
//! Mendelzon, SIGMOD 1997) relies on:
//!
//! - [`Complex64`] — dependency-free complex arithmetic with both
//!   rectangular and polar views (Section 3.1 of the paper indexes features
//!   in either representation);
//! - [`dft`] — the first `k` unitary coefficients of a series (Equation 1,
//!   `1/sqrt(n)` in both directions), and the transform's defining sums,
//!   which the planner runs for the smallest sizes;
//! - [`FftPlanner`] — per-size plan cache choosing the defining sums, an
//!   iterative power-of-two Cooley–Tukey FFT, or Bluestein's chirp-z FFT
//!   for arbitrary lengths (the paper's examples use lengths 15 and 1067);
//! - [`sliding`] — the incremental sliding-window DFT that updates the
//!   first `k` coefficients in `O(k)` per window step, powering the
//!   subsequence ST-index in `tsq-core`.
//!
//! The paper's formulas no statement runs — energy and Euclidean distance
//! in either domain (Equations 3, 7, 8) and circular convolution
//! (Equations 4 and 6) — are references in `tsq-testkit`, which checks
//! this crate against them.
//!
//! Everything is pure safe Rust with no dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bluestein;
pub mod complex;
pub mod dft;
mod fft;
mod planner;
pub mod sliding;

pub use complex::Complex64;
pub use planner::FftPlanner;
pub use sliding::SlidingCursor;
