//! # tsq — similarity-based queries for time series data
//!
//! Umbrella crate over the workspace reproducing **Rafiei & Mendelzon,
//! "Similarity-Based Queries for Time Series Data" (SIGMOD 1997)**. It
//! re-exports every layer so downstream users need a single dependency,
//! and it owns the top-level integration suites (`tests/`) and example
//! programs (`examples/`).
//!
//! The crate DAG underneath:
//!
//! ```text
//! tsq-pool ──────────────────┐
//! tsq-series ─→ tsq-dft ─→ tsq-rtree ─→ tsq-core ─→ tsq-service ─→ tsq-lang
//!                                            └─────→ tsq-bench
//! ```
//!
//! `tsq-pool` is the persistent work-stealing executor every parallel
//! path fans out over; it sits below `tsq-rtree` (the lowest crate that
//! fans out) and is re-exported through `tsq_core::executor`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tsq_bench as bench;
pub use tsq_core as core;
pub use tsq_dft as dft;
pub use tsq_lang as lang;
pub use tsq_pool as pool;
pub use tsq_rtree as rtree;
pub use tsq_series as series;
pub use tsq_service as service;

pub use tsq_core::SimilarityIndex;
pub use tsq_lang::{Catalog, SharedCatalog};
pub use tsq_series::TimeSeries;
