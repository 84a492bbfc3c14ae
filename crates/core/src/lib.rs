//! # tsq-core — Similarity-Based Queries for Time Series Data
//!
//! A faithful Rust implementation of **Rafiei & Mendelzon, "Similarity-
//! Based Queries for Time Series Data", SIGMOD 1997**: linear
//! transformations on Fourier-series representations as a similarity
//! language, processed efficiently over an R\*-tree index that is
//! transformed *on the fly* during traversal.
//!
//! ## The pipeline
//!
//! 1. Every series is reduced to a feature point ([`features`]): its mean
//!    and standard deviation plus the first `k` DFT coefficients of its
//!    normal form (the paper's Section-5 layout; a raw AFS93 schema is also
//!    available).
//! 2. Feature points live in a coordinate space ([`space`]): rectangular
//!    (`S_rect`, re/im) or polar (`S_pol`, magnitude/angle). Safety of a
//!    transformation — rectangles map to rectangles, insides stay inside
//!    (Definition 1) — depends on the space: Theorems 1–3 are enforced by
//!    [`space::SpaceKind::check_safety`].
//! 3. Queries carry a [`transform::LinearTransform`] `T = (a, b)`:
//!    moving averages, reversal, shifts/scales (negative allowed), time
//!    warps. The R\*-tree is never rebuilt: every node MBR is mapped through
//!    `T` during the search (Algorithms 1–2, [`index::SimilarityIndex`]),
//!    and candidates are verified against full records. Lemma 1 guarantees
//!    the index level never dismisses a true answer.
//! 4. Range, nearest-neighbor and all-pairs queries ([`queries`]) all
//!    support transformations; sequential-scan baselines ([`scan`]) and the
//!    cost-bounded Equation-10 dissimilarity ([`cost`]) complete the
//!    paper's toolbox.
//! 5. Every statement is *bound* once before anything runs ([`plan`]):
//!    Algorithm 2's preprocessing — validation in one fixed order (ragged
//!    relation, threshold, transformation, query length), the query's
//!    FFT, the search rectangle — happens there and nowhere else, for the
//!    direct [`SimilarityIndex`] calls, the planner, the plan executor
//!    and every shard of a [`ShardedIndex`] alike.
//!
//! ## Subsequence queries
//!
//! The [`subseq`] module extends the same feature-space machinery to
//! *subsequence* matching (FRM-style ST-index): a window of length `w`
//! slides over every stored series, each window's first `k` DFT
//! coefficients — maintained incrementally in `O(k)` per step by
//! `tsq_dft::sliding` — become a feature point, and runs of consecutive
//! points are grouped into **trail MBRs** inserted into the R\*-tree.
//! Because the unitary DFT preserves distances, the coefficient-prefix
//! distance lower-bounds the true window distance, so the very same
//! Lemma-1 argument applies: the trail-level traversal can produce false
//! hits (discarded by an exact early-abandoning check on raw samples) but
//! never false dismissals. [`SubseqIndex::subseq_range`] and
//! [`SubseqIndex::subseq_knn`] are oracle-tested against naive sliding
//! scans in `tests/subseq_consistency.rs`.
//!
//! ## Concurrency
//!
//! The [`executor`] module holds the shared fan-out primitive
//! ([`executor::parallel_map`], over the persistent work-stealing pool):
//! a sharded relation scatters one statement over its shards
//! ([`ShardedIndex::execute`]), batches of statements fan out one layer
//! up, and the heavy build paths — STR bulk loading and sliding-DFT
//! trail extraction ([`SubseqIndex::build_parallel`]) — partition their
//! input across threads. Every parallel path returns results
//! byte-identical to its sequential oracle regardless of thread count.
//!
//! ## Persistence
//!
//! The [`store`] module plus [`SimilarityIndex::write_to`] /
//! [`SimilarityIndex::read_from`] snapshot indexes to the `tsq-store`
//! binary format. An index is derived data: a whole-match index travels
//! as its configuration and series — its features, its R\*-tree and its
//! planner statistics are a pure function of those, so `read_from` calls
//! `build` and they are rebuilt identically, and a restored index answers
//! every query with the same results *and the same traversal statistics*.
//! An ST-index travels as nothing but its window: a restored relation
//! holds the window ([`ShardedIndex::hold_window`]) and its first reader
//! builds it over the restored series. No tree is serialized whole; the
//! one file a tree's nodes are written to is `tsq-rtree`'s page file.
//! Malformed snapshot bytes are rejected with typed [`Error::Store`]
//! values at every boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod executor;
pub mod features;
pub mod geometry;
pub mod index;
pub mod plan;
pub mod queries;
pub mod relation;
pub mod scan;
pub mod shard;
pub mod space;
pub mod store;
pub mod subseq;
pub mod transform;

pub use error::{Error, Result};
pub use executor::CancelToken;
pub use features::{FeatureSchema, Features};
pub use index::{IndexConfig, Match, QueryStats, Refine, SimilarityIndex, StoredSeries};
pub use plan::{
    execute_plan, CostEstimate, ExecStats, ForceOp, LogicalPlan, PhysicalOp, PhysicalPlan,
    PlanChoice, PlanRows, Planner, QueryOptions, RelationStats, SpaceProfile,
};
pub use queries::{JoinOutcome, JoinPair, JoinStats};
pub use relation::SeriesRelation;
pub use scan::{ScanMode, ScanStats};
pub use shard::{
    render_sharded_analyze, render_sharded_plan, sharded_plan_name, ShardBy, ShardMap, ShardSpec,
    ShardedIndex, ShardedOutcome, MAX_SUBSEQ_WINDOWS,
};
pub use space::{QueryWindow, SpaceKind};
pub use subseq::{SubseqConfig, SubseqIndex, SubseqMatch, SubseqScanStats, SubseqStats};
pub use transform::LinearTransform;
