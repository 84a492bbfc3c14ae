//! # tsq — similarity-based queries for time series data
//!
//! Umbrella crate over the workspace reproducing **Rafiei & Mendelzon,
//! "Similarity-Based Queries for Time Series Data" (SIGMOD 1997)**. It
//! re-exports every layer so downstream users need a single dependency,
//! and it owns the top-level integration suites (`tests/`) and example
//! programs (`examples/`).
//!
//! The crate DAG underneath (arrows point at dependents):
//!
//! ```text
//! tsq-series ──────────────┐
//!                          ├──→ tsq-core ──→ tsq-service ──→ tsq-lang
//! tsq-dft ─────────────────┤
//! tsq-store ──→ tsq-rtree ─┘
//! tsq-pool ───→ tsq-rtree (and tsq-core directly)
//! ```
//!
//! `tsq-series`, `tsq-dft`, `tsq-store` and `tsq-pool` depend on no
//! workspace crate. `tsq-service` also uses `tsq-store` directly (its
//! wire frames), and `tsq-lang` uses `tsq-series` and `tsq-store`
//! directly. `tsq-pool` is the persistent work-stealing executor every
//! parallel path fans out over; it sits below `tsq-rtree` (the lowest
//! crate that fans out) and is re-exported through `tsq_core::executor`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
