//! Abstract syntax of the query language.
//!
//! The language is the (P, T, L) specialization the paper describes
//! (Section 1.2): patterns are either constant objects (a literal sequence
//! or a labeled series) or whole relations; transformations are named
//! members of the paper's linear-transformation class; and the query
//! language offers range, nearest-neighbor and all-pairs forms.
//!
//! Every query form carries a [`QueryOptions`] parsed from the unified
//! `WITH (force = ..., threads = ..., shards = ...)` clause — the one
//! override surface for access-path forcing, worker-thread counts, and
//! scatter width.

use tsq_core::QueryOptions;

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `FIND SIMILAR TO <source> IN <relation> WITHIN <eps> [APPLY ...]
    /// [WHERE ...] [WITH (...)]` — range query.
    Similar {
        /// Query object.
        source: Source,
        /// Relation searched.
        relation: String,
        /// Distance threshold.
        eps: f64,
        /// Transformations applied to the data side, in order.
        transforms: Vec<TransformSpec>,
        /// Optional mean/std windows.
        window: WindowSpec,
        /// Execution overrides from the `WITH (...)` clause.
        options: QueryOptions,
    },
    /// `FIND <k> NEAREST TO <source> IN <relation> [APPLY ...] [WITH (...)]`.
    Nearest {
        /// Query object.
        source: Source,
        /// Relation searched.
        relation: String,
        /// Number of neighbors.
        k: usize,
        /// Transformations applied to the data side.
        transforms: Vec<TransformSpec>,
        /// Execution overrides from the `WITH (...)` clause.
        options: QueryOptions,
    },
    /// `JOIN <relation> WITHIN <eps> [APPLY ...] [WITH (...)]`. A forced
    /// method (`WITH (force = <m>)`) keeps its historical Table-1
    /// accounting (the index join reports each pair twice).
    Join {
        /// Relation self-joined.
        relation: String,
        /// Distance threshold.
        eps: f64,
        /// Transformations applied to both sides.
        transforms: Vec<TransformSpec>,
        /// Execution overrides (`force` selects the join method).
        options: QueryOptions,
    },
    /// `FIND SUBSEQUENCE OF <source> IN <relation> WITHIN <eps> WINDOW <w>
    /// [WITH (...)]` — subsequence range query over the ST-index: every
    /// window of length `w` in the relation within `eps` of the query.
    SubseqSimilar {
        /// Query object (must be exactly `window` values long).
        source: Source,
        /// Relation searched.
        relation: String,
        /// Distance threshold.
        eps: f64,
        /// Sliding-window length.
        window: usize,
        /// Execution overrides from the `WITH (...)` clause.
        options: QueryOptions,
    },
    /// `FIND <k> NEAREST SUBSEQUENCE OF <source> IN <relation> WINDOW <w>
    /// [WITH (...)]` — the `k` windows closest to the query, over all
    /// series and offsets.
    SubseqNearest {
        /// Query object (must be exactly `window` values long).
        source: Source,
        /// Relation searched.
        relation: String,
        /// Number of neighbors.
        k: usize,
        /// Sliding-window length.
        window: usize,
        /// Execution overrides from the `WITH (...)` clause.
        options: QueryOptions,
    },
    /// `EXPLAIN [ANALYZE] <query>` — show the planner's chosen physical
    /// plan with cost estimates. The plain form never executes the inner
    /// query; `ANALYZE` runs it and appends the actual counters.
    Explain {
        /// Execute the inner query and report actual counters.
        analyze: bool,
        /// The query being explained (never itself an `Explain`).
        query: Box<Query>,
    },
    /// `APPEND <relation> <label> VALUES (v1, v2, ...)` or the batched
    /// `APPEND <relation> CSV (label, v1, ...) (label, v1, ...)` —
    /// streaming ingest. The statement is atomic: either every row is
    /// applied (and every index maintained incrementally) or none is.
    Append {
        /// Relation receiving the points.
        relation: String,
        /// Appended rows, in statement order. The same label may appear
        /// more than once; its rows apply sequentially.
        rows: Vec<AppendRow>,
    },
    /// `SHARD <relation> INTO <n> BY HASH` — repartition a relation into
    /// `n` per-shard indexes, by label hash, for scatter-gather execution.
    /// Every relation has at least one shard (registration builds one), so
    /// `INTO 1` is the layout a relation starts with.
    Shard {
        /// Relation repartitioned.
        relation: String,
        /// Number of shards.
        count: usize,
    },
}

impl Query {
    /// The `WITH (...)` execution overrides this statement carries
    /// (`EXPLAIN` forwards its inner query's; mutations have none).
    pub fn options(&self) -> QueryOptions {
        match self {
            Query::Similar { options, .. }
            | Query::Nearest { options, .. }
            | Query::Join { options, .. }
            | Query::SubseqSimilar { options, .. }
            | Query::SubseqNearest { options, .. } => *options,
            Query::Explain { query, .. } => query.options(),
            Query::Append { .. } | Query::Shard { .. } => QueryOptions::default(),
        }
    }
}

/// One row of an `APPEND` statement: values for the tail of one series.
/// An unknown label starts a new series in the relation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRow {
    /// Series label.
    pub label: String,
    /// Values appended to that series, in order.
    pub values: Vec<f64>,
}

/// The query object of a FIND.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// `relation.label` — a stored series.
    Ref {
        /// Relation name.
        relation: String,
        /// Series label.
        label: String,
    },
    /// `[v1, v2, ...]` — an inline literal sequence.
    Literal(Vec<f64>),
}

/// A named transformation with numeric arguments, e.g. `mavg(20)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSpec {
    /// Lower-cased name.
    pub name: String,
    /// Arguments.
    pub args: Vec<f64>,
}

/// Mean/std windows from the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowSpec {
    /// `MEAN BETWEEN a AND b`.
    pub mean: Option<(f64, f64)>,
    /// `STD BETWEEN a AND b`.
    pub std: Option<(f64, f64)>,
}
