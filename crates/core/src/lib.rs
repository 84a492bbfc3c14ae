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
//! never false dismissals. One index at window `w` answers every query
//! length `L >= w` by PrefixSearch (its first `w` samples probe the tree, all
//! `L` are refined), so a relation holds one ST-index set
//! ([`ShardedIndex`]). [`SubseqIndex::subseq_range`] and
//! [`SubseqIndex::subseq_knn`] are oracle-tested against naive sliding
//! scans in `tests/subseq_consistency.rs`.
//!
//! ## Concurrency
//!
//! The [`executor`] module holds the shared fan-out primitive
//! ([`executor::parallel_map`], over the persistent work-stealing pool):
//! a sharded relation scatters one statement over its shards
//! ([`ShardedIndex::execute`]), batches of statements fan out one layer
//! up, and one build path partitions its input across threads: the
//! ST-index build ([`SubseqIndex::build_parallel`]) extracts sliding-DFT
//! trails per run of series and sorts the STR levels in parallel. A
//! whole-match tree is packed on the calling thread (`pack`, in
//! [`index`]). Every parallel path returns results byte-identical to its
//! sequential oracle regardless of thread count.
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
//! A relation's ST-index travels as nothing but its base window: a
//! restored relation holds the window ([`ShardedIndex::hold_window`]) and
//! its first reader builds it over the restored series. No tree is serialized whole; the
//! one file a tree's nodes are written to is `tsq-rtree`'s page file, and
//! the one file a paged index's samples are written to is its record file
//! ([`records`]).
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
pub mod records;
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
pub use index::{IndexConfig, Match, QueryStats, Record, Refine, SimilarityIndex, StoredSeries};
pub use plan::{
    execute_plan, CostEstimate, ExecStats, ForceOp, LogicalPlan, PhysicalOp, PhysicalPlan,
    PlanChoice, PlanRows, Planner, QueryOptions, RelationStats, SpaceProfile,
};
pub use queries::{JoinOutcome, JoinPair, JoinStats};
pub use records::RecordIo;
pub use relation::{Labels, SeriesRelation};
pub use scan::{ScanMode, ScanStats};
pub use shard::{
    render_sharded_analyze, render_sharded_plan, sharded_plan_name, ShardMap, ShardSpec,
    ShardedIndex, ShardedOutcome,
};
pub use space::{QueryWindow, SpaceKind};
pub use subseq::{
    SubseqConfig, SubseqIndex, SubseqMatch, SubseqScanStats, SubseqStats, TrailIndex,
};
pub use transform::LinearTransform;
/// The buffer cache [`SimilarityIndex::attach_paged`] joins.
pub use tsq_rtree::PageCache;
/// The series crate, for dependents that reach it through the engine: the
/// network service reads append rows with [`series::io::parse_rows`].
pub use tsq_series as series;
