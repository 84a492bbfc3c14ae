//! # tsq-lang — a query language for similarity-based time-series queries
//!
//! A concrete realization of the (P, T, L) framework of Jagadish,
//! Mendelzon & Milo that the paper specializes (Section 1.2): the pattern
//! language P denotes constant objects (literal sequences, labeled stored
//! series) or whole relations; the transformation language T names members
//! of the paper's linear-transformation class (`mavg`, `reverse`, `shift`,
//! `scale`, `warp`, compositions); and the query language L offers range
//! (`FIND SIMILAR`), nearest-neighbor (`FIND k NEAREST`) and all-pairs
//! (`JOIN`) forms.
//!
//! ```text
//! FIND SIMILAR TO stocks.BBA IN stocks WITHIN 2.75 APPLY mavg(20)
//! FIND 5 NEAREST TO [36, 38, 40, ...] IN stocks APPLY reverse
//! JOIN stocks WITHIN 1.5 APPLY mavg(20) WITH (force = index)
//! EXPLAIN ANALYZE FIND SIMILAR TO stocks.BBA IN stocks WITHIN 2.75
//! APPEND stocks BBA VALUES (41.5, 42.25)
//! ```
//!
//! Every query runs through the cost-based planner
//! ([`tsq_core::plan`]): the AST lowers to a `LogicalPlan`, catalog
//! statistics cost each access path (scan, early-abandoning scan, index
//! filter-and-refine, transformed-MBR traversal), and the cheapest
//! physical plan executes. The `WITH (force = ..., threads = ...,
//! shards = ...)` clause is the unified override surface; `EXPLAIN [ANALYZE]`
//! renders the choice with estimates (and actual counters).
//!
//! Every relation is a [`tsq_core::shard::ShardedIndex`] of n >= 1
//! shards — one after registration, n after `SHARD <rel> INTO <n> BY
//! HASH|RANGE`: queries run scatter-gather over the per-shard indexes
//! with answers byte-identical at every n.
//!
//! Queries run against a [`Catalog`] of named [`tsq_core::SeriesRelation`]s
//! whose similarity indexes are built on registration. [`SharedCatalog`]
//! makes one catalog safely shareable across any number of client threads,
//! and [`Catalog::run_batch`] fans a batch of queries over a worker pool
//! with per-batch [`BatchSummary`] statistics.
//!
//! Relations are live: the `APPEND` verb ([`Catalog::append`], routed
//! automatically by [`Catalog::run_mut`] and [`SharedCatalog::run`])
//! grows stored series point by point, maintaining the touched series'
//! features and every subsequence ST-index it holds *incrementally* (the
//! whole-match tree is dropped, and packed again by the next statement
//! that reads it) — answers afterwards are identical to a catalog rebuilt
//! from the final data.
//!
//! Catalogs are durable: [`Catalog::save`] snapshots every relation's
//! series (its whole-match index is a pure function of them, rebuilt
//! identically on restore) and subsequence ST-indexes to one checksummed
//! binary file, and
//! [`Catalog::open`] / [`Catalog::load`] restore it with query results —
//! and traversal statistics — guaranteed identical to the saved catalog.
//! The shell exposes this as `.save <path>` / `.open <path>` and a
//! `tsq --snapshot <path>` startup flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod serve;
mod snapshot;
pub mod token;

pub use ast::{AppendRow, Query, Source, TransformSpec, WindowSpec};
pub use error::LangError;
pub use exec::{BatchSummary, Catalog, QueryOutput, Row, SharedCatalog};
pub use parser::parse;
pub use serve::serve;
