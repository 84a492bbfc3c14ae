//! The engine boundary: what the server needs from a query engine.
//!
//! `tsq-service` sits *below* `tsq-lang` in the crate DAG (so the `tsq`
//! shell can embed a server), which means it cannot name `SharedCatalog`
//! directly. Instead the server is generic over this small object-safe
//! trait; `tsq-lang` implements it for `SharedCatalog`, and tests
//! implement it with mock engines (slow queries, gated queries) to
//! exercise timeouts and admission control deterministically.

use tsq_core::plan::ExecStats;

/// One answer row as it crosses the wire: labels, the optional
/// subsequence offset, and the exact distance. The mirror of
/// `tsq_lang::Row` without the crate dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// First (or only) series label.
    pub a: String,
    /// Second label for join rows.
    pub b: Option<String>,
    /// Window offset for subsequence rows.
    pub offset: Option<u64>,
    /// Exact distance.
    pub distance: f64,
}

/// One `APPEND` row as it crosses the wire: a series label and the
/// values appended to its tail. The mirror of `tsq_lang::AppendRow`
/// without the crate dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRow {
    /// Series label; an unknown label starts a new series.
    pub label: String,
    /// Values appended to that series, in order.
    pub values: Vec<f64>,
}

/// A successful query answer: rows, the physical operator the planner
/// chose, and the full execution counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryReply {
    /// Answer rows.
    pub rows: Vec<WireRow>,
    /// Name of the physical operator that ran (e.g. `IndexRange`, or
    /// `Sharded(4):IndexRange` for a scatter-gather run).
    pub plan: String,
    /// Execution counters (candidates, refines, disk accesses, ...).
    /// For a sharded relation this is the exact sum of
    /// [`QueryReply::shard_stats`].
    pub stats: ExecStats,
    /// Per-shard execution counters of a scatter-gather run (a range or
    /// k-NN statement on several shards), in shard order. One plan per
    /// statement; joins are not scattered: empty for joins and subsequence
    /// statements (each runs once over the relation), for one-shard
    /// relations and for mutations.
    pub shard_stats: Vec<ExecStats>,
}

/// Why the engine rejected or failed a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query text did not lex, parse, or resolve — the client's
    /// fault; maps to wire code `BadQuery` and HTTP 400.
    BadQuery(String),
    /// The engine accepted the query but execution failed — maps to wire
    /// code `Engine` and HTTP 500.
    Failed(String),
    /// The request named an operation this engine (or this relation)
    /// cannot perform — e.g. APPEND to a relation backed by an immutable
    /// page file. Maps to wire code `Unsupported` and HTTP 409.
    Unsupported(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadQuery(m) => write!(f, "bad query: {m}"),
            EngineError::Failed(m) => write!(f, "engine failure: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A query engine the server can put behind the wire.
///
/// Implementations must be safe to call from many threads at once — the
/// server fans requests over a worker pool. `execute_batch` exists so an
/// engine with a smarter batch path (per-query lock acquisition in
/// `SharedCatalog`, so writers interleave with a served batch) can
/// provide it; the default runs the queries sequentially.
pub trait Engine: Send + Sync + 'static {
    /// Parses and executes one query.
    fn execute(&self, query: &str) -> Result<QueryReply, EngineError>;

    /// Executes a batch; `threads` is a parallelism hint the
    /// implementation may clamp or ignore. Slot `i` of the result always
    /// answers `queries[i]`.
    fn execute_batch(
        &self,
        queries: Vec<String>,
        threads: usize,
    ) -> Vec<Result<QueryReply, EngineError>> {
        let _ = threads;
        queries.iter().map(|q| self.execute(q)).collect()
    }

    /// Applies one atomic `APPEND`: every row lands (and every index is
    /// maintained incrementally) or none does. The reply carries one row
    /// per distinct label — `a` is the label, `offset` the series' new
    /// length, `distance` the number of points appended — and `plan` is
    /// `"Append"`. The default refuses with
    /// [`EngineError::Unsupported`], so read-only engines need not
    /// override anything.
    fn append(&self, relation: &str, rows: Vec<IngestRow>) -> Result<QueryReply, EngineError> {
        let _ = rows;
        Err(EngineError::Unsupported(format!(
            "this engine cannot APPEND to {relation:?}: it serves a read-only catalog"
        )))
    }
}
