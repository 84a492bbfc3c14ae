//! # tsq-dft — Fourier substrate for similarity-based time-series queries
//!
//! This crate implements, from scratch, every piece of Fourier machinery the
//! paper *Similarity-Based Queries for Time Series Data* (Rafiei &
//! Mendelzon, SIGMOD 1997) relies on:
//!
//! - [`complex::Complex64`] — dependency-free complex arithmetic with both
//!   rectangular and polar views (Section 3.1 of the paper indexes features
//!   in either representation);
//! - [`dft`] — the unitary DFT exactly as defined by Equations 1–2
//!   (`1/sqrt(n)` in both directions), used as the correctness reference;
//! - [`fft::Radix2Tables`] — iterative power-of-two Cooley–Tukey FFT;
//! - [`bluestein::Bluestein`] — chirp-z FFT for arbitrary lengths (the
//!   paper's examples use lengths 15 and 1067);
//! - [`planner::FftPlanner`] — per-size plan cache choosing naive / radix-2 /
//!   Bluestein;
//! - [`convolution`] — circular convolution and the convolution–
//!   multiplication property (Equations 4 and 6), including the `sqrt(n)`
//!   factor the paper elides;
//! - [`energy`] — energy, Parseval's relation and Euclidean distances in
//!   either domain (Equations 3, 7, 8) — the reference definitions the
//!   engine's one distance loop is tested against;
//! - [`sliding`] — the incremental sliding-window DFT that updates the
//!   first `k` coefficients in `O(k)` per window step, powering the
//!   subsequence ST-index in `tsq-core`.
//!
//! Everything is pure safe Rust with no dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bluestein;
pub mod complex;
pub mod convolution;
pub mod dft;
pub mod energy;
pub mod fft;
pub mod planner;
pub mod sliding;

pub use complex::Complex64;
pub use planner::{FftPlan, FftPlanner};
pub use sliding::{SlidingCursor, SlidingDft};
