//! Planning and execution: AST → [`LogicalPlan`] → cost-based
//! [`tsq_core::Planner`] → [`tsq_core::PhysicalPlan`] → the single plan
//! executor.
//!
//! [`Catalog::execute_with`] is the one execution entry point: it merges
//! the statement's own `WITH (...)` clause with caller overrides into a
//! single [`QueryOptions`], lowers the AST to a resolved logical plan
//! and hands it to the relation's [`ShardedIndex`], where the planner
//! (fed by per-shard statistics derived from the trees) picks the
//! cheapest physical operator per shard and
//! [`tsq_core::plan::execute_plan`] runs it. [`Catalog::execute`],
//! [`Catalog::run`] and the batch paths are thin wrappers over it.
//! `EXPLAIN` / `EXPLAIN ANALYZE` surface the choice.
//!
//! Every relation is a [`ShardedIndex`] with n >= 1 shards — there is no
//! second, unsharded code path. `register` builds one hash shard;
//! `SHARD <rel> INTO <n> BY HASH|RANGE` rebuilds with n. Queries run
//! scatter-gather ([`ShardedIndex::execute`]): per-shard plans fan over
//! the worker pool and a typed merge reassembles the answer. With one
//! shard the scatter runs inline, the merges are identities, and what a
//! client sees (rows, counters, plan name, `EXPLAIN` text) is the plain
//! single-index answer; how a one-shard relation is *named and rendered*
//! is decided in `tsq_core::shard`, not here. `APPEND` routes each row to
//! its owning shard as one batch per shard per statement.
//!
//! Two layers of concurrency live here:
//!
//! - [`Catalog`] executes queries through `&self`, so any number of reader
//!   threads can share one catalog. It holds no lock of its own: the only
//!   interior mutability a query meets is inside the relation's
//!   [`ShardedIndex`], which owns the subsequence ST-indexes it builds on
//!   first use (who locks and who evicts: `tsq_core::shard`). Replacing a
//!   relation's index — `register`, `SHARD`, a restore — drops them with
//!   it, so nothing is ever invalidated and nothing stale is ever served.
//! - [`SharedCatalog`] wraps a catalog in `Arc<RwLock<..>>` for the
//!   many-clients-one-catalog topology: queries take the outer read lock,
//!   registration the write lock. [`Catalog::run_batch`] fans a batch of
//!   query strings over a worker pool (`tsq_core::executor`).
//!
//! All locks recover from poisoning instead of panicking: a query that
//! panics mid-flight must not take the whole catalog down with it.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use tsq_core::plan::{ExecStats, LogicalPlan, PlanRows, QueryOptions};
use tsq_core::shard::{
    render_sharded_analyze, render_sharded_plan, sharded_plan_name, ShardBy, ShardSpec,
    ShardedIndex,
};
use tsq_core::{executor, IndexConfig, LinearTransform, QueryWindow, SeriesRelation};
use tsq_series::TimeSeries;

use crate::ast::{AppendRow, Query, Source, TransformSpec, WindowSpec};
use crate::error::LangError;

/// One registered relation: its labelled series (name resolution, answer
/// labelling) and its index — n >= 1 shards, each with its whole-match
/// R\*-tree and planner statistics, and the ST-indexes built so far.
#[derive(Debug)]
pub(crate) struct Relation {
    pub(crate) labels: SeriesRelation,
    pub(crate) index: ShardedIndex,
}

/// A catalog of named relations with their similarity indexes.
///
/// Whole-sequence indexes are built eagerly at registration (every query
/// form needs one); subsequence ST-indexes depend on the query's `WINDOW`
/// length, so the relation's [`ShardedIndex`] builds and keeps them on
/// first use — `execute` stays `&self`.
#[derive(Debug, Default)]
pub struct Catalog {
    pub(crate) relations: HashMap<String, Relation>,
    pub(crate) config: IndexConfig,
}

impl Catalog {
    /// Creates an empty catalog with the default index configuration.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a catalog whose indexes use `config`.
    pub fn with_config(config: IndexConfig) -> Self {
        Catalog {
            config,
            ..Catalog::default()
        }
    }

    /// Registers a relation (replacing any previous one of the same name)
    /// and builds its index as one hash shard. The old relation's index
    /// goes, and every ST-index over it with it — a replaced relation
    /// cannot serve stale subsequence answers.
    ///
    /// # Errors
    /// Propagates index-construction failures.
    pub fn register(&mut self, relation: SeriesRelation) -> Result<(), LangError> {
        let name = relation.name().to_string();
        let index = ShardedIndex::build(self.config, &relation, ShardSpec::hash(1)?)?;
        let labels = relation;
        self.relations.insert(name, Relation { labels, index });
        Ok(())
    }

    /// Shard layout of a relation: `Some((by, count, per-shard series
    /// counts))` when it is split over several shards, `None` for a
    /// one-shard (or unknown) relation.
    pub fn shard_layout(&self, name: &str) -> Option<(ShardBy, usize, Vec<usize>)> {
        self.relations.get(name)?.index.layout()
    }

    /// Number of subsequence ST-index windows the relations hold.
    pub fn subseq_cache_len(&self) -> usize {
        self.subseq_cache_keys().len()
    }

    /// The `(relation, window)` pairs ST-indexes are held for: relations
    /// in name order, each relation's windows least recently used first —
    /// the order snapshots persist them in and evictions consume them in.
    pub fn subseq_cache_keys(&self) -> Vec<(String, usize)> {
        let mut keys = Vec::new();
        for name in self.relation_names() {
            for (window, _) in self.relations[&name].index.subseq_entries() {
                keys.push((name.clone(), window));
            }
        }
        keys
    }

    /// Looks up a relation.
    pub fn relation(&self, name: &str) -> Option<&SeriesRelation> {
        self.relations.get(name).map(|rel| &rel.labels)
    }

    /// Names of all registered relations, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    fn resolve_relation(&self, name: &str) -> Result<&Relation, LangError> {
        self.relations
            .get(name)
            .ok_or_else(|| LangError::Resolve(format!("unknown relation {name:?}")))
    }

    fn resolve_source(&self, source: &Source) -> Result<TimeSeries, LangError> {
        match source {
            // The lexer already rejects non-finite literals, but a Query
            // can be built programmatically — keep the typed rejection
            // here so NaN can never reach the engine (or panic) from any
            // entry point.
            Source::Literal(values) => {
                TimeSeries::try_new(values.clone()).map_err(|e| LangError::Engine(e.into()))
            }
            Source::Ref { relation, label } => self
                .resolve_relation(relation)?
                .labels
                .get_by_label(label)
                .cloned()
                .ok_or_else(|| LangError::Resolve(format!("unknown series {relation}.{label}"))),
        }
    }

    /// Parses and executes a query.
    pub fn run(&self, src: &str) -> Result<QueryOutput, LangError> {
        let query = crate::parser::parse(src)?;
        self.execute(&query)
    }

    /// Parses and executes a statement that may mutate the catalog:
    /// `APPEND` routes to [`Catalog::append`], `SHARD` to
    /// [`Catalog::shard`], everything else to [`Catalog::execute`].
    /// Shells and single-owner embedders use this; shared topologies
    /// route through [`SharedCatalog::run`], which takes the write lock
    /// only for mutations.
    pub fn run_mut(&mut self, src: &str) -> Result<QueryOutput, LangError> {
        let query = crate::parser::parse(src)?;
        match &query {
            Query::Append { relation, rows } => self.append(relation, rows),
            Query::Shard {
                relation,
                count,
                by,
            } => self.shard(relation, *count, *by),
            _ => self.execute(&query),
        }
    }

    /// Applies a `SHARD <rel> INTO <n> BY HASH|RANGE` statement:
    /// partitions the relation's series over `n` shards (FNV-1a label
    /// hash, or lexicographic label ranges with boundaries cut from the
    /// current label population) and rebuilds one index per shard.
    /// Queries then execute scatter-gather with answers byte-identical
    /// to a one-shard relation's; `INTO 1` is that one shard again, and
    /// reports like it. The relation's ST-indexes go with the index they
    /// were built over (their partitioning shape changed).
    ///
    /// Returns one row per shard: `a` is `shard<i>`, `distance` the
    /// number of series it holds.
    ///
    /// # Errors
    /// [`LangError::Resolve`] for an unknown relation;
    /// [`LangError::Engine`] with [`tsq_core::Error::Unsupported`] when
    /// paged storage is attached (page files are immutable — shard
    /// before `open_paged`, or re-register first) or `count` is zero;
    /// index-build failures of any shard.
    pub fn shard(
        &mut self,
        relation: &str,
        count: usize,
        by: ShardBy,
    ) -> Result<QueryOutput, LangError> {
        let Relation { labels: rel, index } = self.resolve_relation(relation)?;
        if index.is_paged() {
            return Err(LangError::Engine(tsq_core::Error::Unsupported(
                "SHARD a relation with paged storage attached (the page file is immutable)"
                    .to_string(),
            )));
        }
        let spec = match by {
            ShardBy::Hash => ShardSpec::hash(count),
            ShardBy::Range => {
                let labels: Vec<&str> = (0..rel.len())
                    .map(|id| rel.label(id).expect("id < len"))
                    .collect();
                ShardSpec::range(count, &labels)
            }
        }?;
        let rebuilt = ShardedIndex::build(self.config, rel, spec)?;
        let rows = (0..rebuilt.shard_count())
            .map(|s| Row {
                a: format!("shard{s}"),
                b: None,
                offset: None,
                distance: rebuilt.map().members(s).len() as f64,
            })
            .collect();
        self.relations
            .get_mut(relation)
            .expect("resolved above")
            .index = rebuilt;
        Ok(QueryOutput {
            rows,
            nodes_visited: 0,
            stats: ExecStats::default(),
            shard_stats: Vec::new(),
            plan: "Shard".to_string(),
            explain: None,
        })
    }

    /// Applies an `APPEND` statement, maintaining per-series state
    /// *incrementally* and dropping what is derived from the relation as a
    /// whole, which nothing can read while the lengths are uneven:
    ///
    /// - the relation extends each touched series once, at its
    ///   statement-end length ([`SeriesRelation::extend_series`], the one
    ///   place samples are appended); an unknown label starts a new series
    ///   (the relation is then ragged until appends even the lengths out);
    /// - each owning shard's whole-series index is handed the extended
    ///   values — it shares their buffers — re-extracts features for those
    ///   series only and drops its R\*-tree and planner statistics
    ///   ([`ShardedIndex::extend_series_batch`] /
    ///   [`ShardedIndex::push_series_batch`]); the next whole-match
    ///   statement or `EXPLAIN` packs them once, as a fresh build over the
    ///   final data would — an `APPEND`, a `save` and an executed
    ///   subsequence statement never do;
    /// - the same two calls hand the values to every subsequence ST-index
    ///   the relation holds, next to the shard's features
    ///   ([`tsq_core::SubseqIndex::extend_series`] resumes the sliding-DFT
    ///   recurrence at `O(k)` per appended point), clone-on-write so
    ///   in-flight readers keep their consistent pre-append snapshot.
    ///
    /// The statement is **atomic**: everything is validated up front
    /// (unknown relation, paged storage, non-finite values, a schema that
    /// no longer fits), and only then applied — on any error the relation
    /// and every index are exactly as they were.
    ///
    /// Returns one row per distinct label in first-touch order: `a` is
    /// the label, `offset` the series' new length, `distance` the number
    /// of points appended to it.
    ///
    /// # Errors
    /// [`LangError::Resolve`] for an unknown relation or an empty
    /// statement; [`LangError::Engine`] with
    /// [`tsq_core::Error::Unsupported`] when paged storage is attached
    /// (page files are immutable), [`tsq_core::Error::NonFinite`] for
    /// NaN/±∞ values, [`tsq_core::Error::InvalidCutoff`] when a series
    /// (typically a new one) would be too short for the feature schema.
    pub fn append(&mut self, relation: &str, rows: &[AppendRow]) -> Result<QueryOutput, LangError> {
        // Validation phase: nothing is mutated until every row has been
        // checked against the final state it would produce.
        let Relation { labels: rel, index } = self.resolve_relation(relation)?;
        if index.is_paged() {
            return Err(LangError::Engine(tsq_core::Error::Unsupported(
                "APPEND to a relation with paged storage attached (the page file is immutable)"
                    .to_string(),
            )));
        }
        if rows.is_empty() {
            return Err(LangError::Resolve("APPEND carries no rows".to_string()));
        }
        let schema = index.config().schema;
        // A statement's rows fold into one tail per label (first-touch
        // order): a label is extended — or, unknown so far, enters the
        // relation — once, at its statement-end length, however many rows
        // name it.
        let mut slot: HashMap<&str, usize> = HashMap::new();
        let mut tails: Vec<(&str, Vec<f64>)> = Vec::new();
        for row in rows {
            if row.values.is_empty() {
                return Err(LangError::Resolve(format!(
                    "APPEND row for {:?} carries no values",
                    row.label
                )));
            }
            if let Some((at, v)) = row.values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                return Err(LangError::Engine(tsq_core::Error::NonFinite {
                    context: format!(
                        "APPEND value {v} at position {at} of the row for {:?}",
                        row.label
                    ),
                }));
            }
            let at = *slot.entry(row.label.as_str()).or_insert(tails.len());
            match tails.get_mut(at) {
                Some((_, tail)) => tail.extend_from_slice(&row.values),
                None => tails.push((row.label.as_str(), row.values.clone())),
            }
        }
        for (label, tail) in &tails {
            let held = rel.get_by_label(label).map_or(0, TimeSeries::len);
            schema
                .validate(held + tail.len())
                .map_err(LangError::Engine)?;
        }
        // Apply phase: validated above, so no step below can fail. The
        // relation extends (or gains) each series; the index is handed the
        // resulting values and shares their buffers.
        let Relation { labels: rel, index } =
            self.relations.get_mut(relation).expect("resolved above");
        let mut edits: Vec<(usize, TimeSeries)> = Vec::new();
        let mut pushed: Vec<(&str, TimeSeries)> = Vec::new();
        // One answer row per distinct label, in first-touch order.
        let mut out_rows = Vec::with_capacity(tails.len());
        for (label, tail) in tails {
            let appended = tail.len();
            if rel.get_by_label(label).is_some() {
                let id = rel.extend_series(label, &tail).expect("validated upfront");
                edits.push((id, rel.get(id).expect("just extended").clone()));
            } else {
                let series = TimeSeries::try_new(tail).expect("checked finite");
                rel.push(label, series.clone()).expect("label is new");
                pushed.push((label, series));
            }
            out_rows.push(Row {
                a: label.to_string(),
                b: None,
                offset: rel.get_by_label(label).map(TimeSeries::len),
                distance: appended as f64,
            });
        }
        // Each extended and each new series routes to its owning shard —
        // one batch per touched shard — which drops its tree and planner
        // statistics and extends its ST-indexes itself.
        if !edits.is_empty() {
            index.extend_series_batch(edits).expect("validated upfront");
        }
        if !pushed.is_empty() {
            index.push_series_batch(pushed).expect("validated upfront");
        }
        Ok(QueryOutput {
            rows: out_rows,
            nodes_visited: 0,
            stats: ExecStats::default(),
            shard_stats: Vec::new(),
            plan: "Append".to_string(),
            explain: None,
        })
    }

    /// Parses and executes a batch of queries through
    /// [`Catalog::execute_with`], fanning them over up to `threads` pool
    /// workers (`0` means the hardware default; the count is clamped by
    /// [`tsq_core::executor::clamp_threads`], so a hostile or fat-fingered
    /// request cannot spawn unbounded OS threads) and passing `threads` on
    /// as each statement's scatter-width override. Results come back in
    /// batch order and are identical to running each query sequentially;
    /// per-query failures occupy their slot without affecting the rest of
    /// the batch.
    pub fn run_batch(
        &self,
        queries: Vec<String>,
        threads: usize,
    ) -> (Vec<Result<QueryOutput, LangError>>, BatchSummary) {
        run_batch(queries, threads, |query, overrides| {
            self.execute_with(query, overrides)
        })
    }

    /// Executes a parsed query with the engine-default overrides — a
    /// thin wrapper over [`Catalog::execute_with`] (the statement's own
    /// `WITH (...)` clause still applies).
    pub fn execute(&self, query: &Query) -> Result<QueryOutput, LangError> {
        self.execute_with(query, &QueryOptions::default())
    }

    /// The single execution entry point: merge the statement's
    /// `WITH (...)` clause with `overrides` (overrides win field-wise),
    /// lower to a [`LogicalPlan`], scatter it over the relation's shards
    /// ([`ShardedIndex::execute`]: the cost-based planner picks the
    /// cheapest [`tsq_core::PhysicalPlan`] per shard, the typed merge
    /// reassembles the global answer), and attach labels. The output
    /// carries the exact-sum merged counters and, for a relation of
    /// several shards, the per-shard breakdown.
    ///
    /// # Errors
    /// Resolution, validation, and engine failures of the query.
    pub fn execute_with(
        &self,
        query: &Query,
        overrides: &QueryOptions,
    ) -> Result<QueryOutput, LangError> {
        if let Query::Explain { analyze, query } = query {
            return self.explain_with(query, *analyze, overrides);
        }
        let options = query.options().merged(overrides);
        let logical = self.lower(query)?;
        let Relation { labels, index } = self.resolve_relation(logical.relation())?;
        let width = scatter_width(index.shard_count(), &options);
        let outcome = index.execute(&logical, options.force, width)?;
        let plan = sharded_plan_name(&outcome.plans);
        let mut out = label_output(labels, outcome.rows, outcome.merged, plan);
        out.shard_stats = outcome.per_shard;
        Ok(out)
    }

    /// Plans a query and renders the plan tree without executing it
    /// (`EXPLAIN`); with `analyze`, also runs the chosen plan and appends
    /// the actual counters (`EXPLAIN ANALYZE`). The rendered text is in
    /// [`QueryOutput::explain`]; `ANALYZE` outputs carry the run's
    /// [`ExecStats`] (rows are never returned — the plan is the answer).
    /// Relations of several shards render the per-shard plan tree, and
    /// `ANALYZE` appends one actual-counters line per shard plus the
    /// exact-sum total.
    ///
    /// # Errors
    /// Same validation failures as executing the inner query.
    fn explain_with(
        &self,
        query: &Query,
        analyze: bool,
        overrides: &QueryOptions,
    ) -> Result<QueryOutput, LangError> {
        if matches!(query, Query::Explain { .. }) {
            return Err(LangError::Resolve("cannot EXPLAIN an EXPLAIN".to_string()));
        }
        let options = query.options().merged(overrides);
        let logical = self.lower(query)?;
        let index = &self.resolve_relation(logical.relation())?.index;
        // Planning executes no statement: a held window not built yet is
        // built (as its first statement would build it), and a window the
        // relation does not hold is planned, and rendered, as cold.
        let plans = index.plan_shards(&logical, options.force)?;
        let mut text = render_sharded_plan(&logical, index, &plans);
        let mut exec = ExecStats::default();
        let mut shard_stats = Vec::new();
        if analyze {
            let width = scatter_width(index.shard_count(), &options);
            let outcome = index.execute(&logical, options.force, width)?;
            render_sharded_analyze(&mut text, outcome.rows.len(), &outcome);
            exec = outcome.merged;
            shard_stats = outcome.per_shard;
        }
        Ok(QueryOutput {
            rows: Vec::new(),
            nodes_visited: exec.nodes_visited,
            stats: exec,
            shard_stats,
            plan: sharded_plan_name(&plans),
            explain: Some(text),
        })
    }

    /// Lowers an AST query to a resolved [`LogicalPlan`]: names resolved,
    /// transformations composed and validated.
    fn lower(&self, query: &Query) -> Result<LogicalPlan, LangError> {
        match query {
            Query::Similar {
                source,
                relation,
                eps,
                transforms,
                window,
                ..
            } => {
                let index = &self.resolve_relation(relation)?.index;
                Ok(LogicalPlan::Range {
                    relation: relation.clone(),
                    query: self.resolve_source(source)?,
                    eps: *eps,
                    transform: resolve_transforms(transforms, index.series_len())?,
                    window: to_window(window),
                })
            }
            Query::Nearest {
                source,
                relation,
                k,
                transforms,
                ..
            } => {
                let index = &self.resolve_relation(relation)?.index;
                Ok(LogicalPlan::Knn {
                    relation: relation.clone(),
                    query: self.resolve_source(source)?,
                    k: *k,
                    transform: resolve_transforms(transforms, index.series_len())?,
                })
            }
            Query::Join {
                relation,
                eps,
                transforms,
                ..
            } => {
                let index = &self.resolve_relation(relation)?.index;
                Ok(LogicalPlan::Join {
                    relation: relation.clone(),
                    eps: *eps,
                    transform: resolve_transforms(transforms, index.series_len())?,
                })
            }
            Query::SubseqSimilar {
                source,
                relation,
                eps,
                window,
                ..
            } => {
                self.resolve_relation(relation)?;
                Ok(LogicalPlan::SubseqRange {
                    relation: relation.clone(),
                    query: self.resolve_source(source)?,
                    eps: *eps,
                    window: *window,
                })
            }
            Query::SubseqNearest {
                source,
                relation,
                k,
                window,
                ..
            } => {
                self.resolve_relation(relation)?;
                Ok(LogicalPlan::SubseqKnn {
                    relation: relation.clone(),
                    query: self.resolve_source(source)?,
                    k: *k,
                    window: *window,
                })
            }
            Query::Explain { .. } => Err(LangError::Resolve(
                "EXPLAIN is not itself a plannable query".to_string(),
            )),
            // Unreachable through `run_mut`/`SharedCatalog`, which route
            // mutations before lowering; reachable programmatically via
            // `execute` on a shared reference, where mutating is
            // impossible.
            Query::Append { .. } => Err(LangError::Resolve(
                "APPEND mutates the catalog; run it through Catalog::run_mut or a SharedCatalog"
                    .to_string(),
            )),
            Query::Shard { .. } => Err(LangError::Resolve(
                "SHARD mutates the catalog; run it through Catalog::run_mut or a SharedCatalog"
                    .to_string(),
            )),
        }
    }
}

/// How many shards to probe concurrently: the smaller of the clamped
/// thread override and the `shards` override, never exceeding the shard
/// count and never zero.
fn scatter_width(shards: usize, options: &QueryOptions) -> usize {
    executor::clamp_threads(options.threads.unwrap_or(0))
        .min(options.shards.unwrap_or(usize::MAX).max(1))
        .min(shards.max(1))
        .max(1)
}

/// Aggregate counters for one executed query batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries that returned an error.
    pub errors: usize,
    /// Total answer rows across successful queries.
    pub rows: usize,
    /// Summed R\*-tree node visits across successful queries.
    pub nodes_visited: u64,
    /// Summed index-level candidates examined.
    pub candidates: usize,
    /// Summed exact distance refinements.
    pub refined: usize,
    /// Summed simulated disk accesses (plan-level accounting: scans charge
    /// one access per record, index plans nodes + candidate fetches).
    pub disk_accesses: u64,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Worker threads the batch ran on.
    pub threads: usize,
}

impl BatchSummary {
    /// Batch throughput in queries per second (0 when nothing ran).
    pub fn queries_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            0.0
        }
    }
}

/// A thread-safe, cloneable handle to one shared [`Catalog`]: the
/// many-clients-one-catalog topology of the ROADMAP's north star.
///
/// Queries take the outer read lock, so any number of clients execute
/// concurrently (including concurrent ST-index hits, which share the read
/// lock inside the relation's [`ShardedIndex`]);
/// [`SharedCatalog::register`] takes the write lock and so waits for
/// in-flight queries to drain. The lock recovers from poisoning: a
/// relation and its index enter the catalog in one map insertion, so an
/// interrupted write leaves either the old relation or the new one, never
/// half of either.
#[derive(Debug, Clone, Default)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// Wraps a catalog for sharing.
    pub fn new(catalog: Catalog) -> Self {
        SharedCatalog {
            inner: Arc::new(RwLock::new(catalog)),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Catalog> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a relation under the write lock.
    ///
    /// # Errors
    /// Propagates index-construction failures.
    pub fn register(&self, relation: SeriesRelation) -> Result<(), LangError> {
        self.write().register(relation)
    }

    /// Parses and executes one statement: queries run under the read
    /// lock (any number of clients concurrently); an `APPEND` takes the
    /// write lock, so it waits for in-flight queries to drain and every
    /// query that starts after it sees the fully-appended state.
    ///
    /// # Errors
    /// Same failure modes as [`Catalog::run_mut`].
    pub fn run(&self, src: &str) -> Result<QueryOutput, LangError> {
        let query = crate::parser::parse(src)?;
        self.execute(&query)
    }

    /// Executes a parsed statement — read lock for queries, write lock
    /// for `APPEND` and `SHARD` (see [`SharedCatalog::run`]).
    ///
    /// # Errors
    /// Same failure modes as [`Catalog::execute`] / [`Catalog::append`] /
    /// [`Catalog::shard`].
    pub fn execute(&self, query: &Query) -> Result<QueryOutput, LangError> {
        self.execute_with(query, &QueryOptions::default())
    }

    /// Executes a parsed statement with caller overrides layered over its
    /// `WITH (...)` clause — the shared-catalog face of
    /// [`Catalog::execute_with`]. Mutations (`APPEND`, `SHARD`) take the
    /// write lock; everything else runs under the read lock.
    ///
    /// # Errors
    /// Same failure modes as [`Catalog::execute_with`].
    pub fn execute_with(
        &self,
        query: &Query,
        overrides: &QueryOptions,
    ) -> Result<QueryOutput, LangError> {
        match query {
            Query::Append { relation, rows } => self.write().append(relation, rows),
            Query::Shard {
                relation,
                count,
                by,
            } => self.write().shard(relation, *count, *by),
            _ => self.read().execute_with(query, overrides),
        }
    }

    /// Runs a batch over the worker pool, taking the catalog read lock
    /// **per query** rather than for the whole batch. A writer calling
    /// [`SharedCatalog::register`] therefore only waits for the queries
    /// currently executing, not for every remaining query in a long
    /// batch — and queries that start after the registration see the new
    /// relation. Results are still in batch order and, absent concurrent
    /// writes, identical to [`Catalog::run_batch`]'s.
    pub fn run_batch(
        &self,
        queries: Vec<String>,
        threads: usize,
    ) -> (Vec<Result<QueryOutput, LangError>>, BatchSummary) {
        // `execute_with` acquires and releases its lock per query.
        run_batch(queries, threads, |query, overrides| {
            self.execute_with(query, overrides)
        })
    }

    /// Unwraps the shared catalog, returning the inner [`Catalog`] when
    /// this is the last handle, or `Err(self)` while clones remain.
    ///
    /// # Errors
    /// Returns `Err(self)` when other handles are still alive.
    pub fn into_inner(self) -> Result<Catalog, SharedCatalog> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner().unwrap_or_else(PoisonError::into_inner)),
            Err(inner) => Err(SharedCatalog { inner }),
        }
    }

    /// Read-locked access to a relation (the guard cannot escape, so the
    /// borrow is handed to a closure).
    pub fn with_relation<R>(&self, name: &str, f: impl FnOnce(Option<&SeriesRelation>) -> R) -> R {
        f(self.read().relation(name))
    }
}

/// The one batch loop behind [`Catalog::run_batch`] and
/// [`SharedCatalog::run_batch`], which differ only in how `execute` locks:
/// parse each statement, run it with `threads` as its override, fold the
/// results into a [`BatchSummary`].
fn run_batch(
    queries: Vec<String>,
    threads: usize,
    execute: impl Fn(&Query, &QueryOptions) -> Result<QueryOutput, LangError> + Sync,
) -> (Vec<Result<QueryOutput, LangError>>, BatchSummary) {
    let started = Instant::now();
    let overrides = QueryOptions {
        threads: (threads > 0).then_some(threads),
        ..QueryOptions::default()
    };
    let mut summary = BatchSummary {
        queries: queries.len(),
        threads: executor::clamp_threads(threads),
        ..BatchSummary::default()
    };
    let results = executor::parallel_map(summary.threads, queries, |src| {
        crate::parser::parse(&src).and_then(|query| execute(&query, &overrides))
    });
    summary.elapsed = started.elapsed();
    for r in &results {
        match r {
            Ok(out) => {
                summary.rows += out.rows.len();
                summary.nodes_visited += out.nodes_visited;
                summary.candidates += out.stats.candidates;
                summary.refined += out.stats.refined;
                summary.disk_accesses += out.stats.disk_accesses;
            }
            Err(_) => summary.errors += 1,
        }
    }
    (results, summary)
}

/// Attaches labels to typed plan rows, producing the language-level
/// answer.
fn label_output(
    rel: &SeriesRelation,
    rows: PlanRows,
    stats: ExecStats,
    plan: String,
) -> QueryOutput {
    let label = |id: usize| rel.label(id).unwrap_or("?").to_string();
    let rows = match rows {
        PlanRows::Whole(matches) => matches
            .into_iter()
            .map(|m| Row {
                a: label(m.id),
                b: None,
                offset: None,
                distance: m.distance,
            })
            .collect(),
        PlanRows::Pairs(pairs) => pairs
            .into_iter()
            .map(|p| Row {
                a: label(p.a),
                b: Some(label(p.b)),
                offset: None,
                distance: p.distance,
            })
            .collect(),
        PlanRows::Windows(matches) => matches
            .into_iter()
            .map(|m| Row {
                a: label(m.series),
                b: None,
                offset: Some(m.offset),
                distance: m.distance,
            })
            .collect(),
    };
    QueryOutput {
        rows,
        nodes_visited: stats.nodes_visited,
        stats,
        shard_stats: Vec::new(),
        plan,
        explain: None,
    }
}

/// One output row: a label (and a second one for joins) plus the distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// First (or only) series label.
    pub a: String,
    /// Second label for join rows.
    pub b: Option<String>,
    /// Window offset for subsequence rows.
    pub offset: Option<usize>,
    /// Exact distance.
    pub distance: f64,
}

/// Query answer: labeled rows plus the full execution counters and the
/// plan the cost-based planner chose.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Answer rows (empty for `EXPLAIN` forms).
    pub rows: Vec<Row>,
    /// R\*-tree nodes visited (0 for scan plans) — kept alongside the full
    /// [`ExecStats`] for backward compatibility.
    pub nodes_visited: u64,
    /// Full execution counters (candidates, refines, disk accesses). For
    /// a relation of several shards this is the exact sum of
    /// [`Self::shard_stats`].
    pub stats: ExecStats,
    /// Per-shard execution counters of a scatter-gather run, in shard
    /// order — empty for one-shard relations and for mutations.
    pub shard_stats: Vec<ExecStats>,
    /// Name of the physical operator that ran (e.g. `IndexRange`, or
    /// `Sharded(4):IndexRange` for a scatter-gather run).
    pub plan: String,
    /// Rendered plan tree for `EXPLAIN` / `EXPLAIN ANALYZE`.
    pub explain: Option<String>,
}

fn to_window(w: &WindowSpec) -> QueryWindow {
    QueryWindow {
        mean: w.mean,
        std: w.std,
    }
}

/// Resolves the APPLY list to a single composed transformation for series
/// length `n`. Transformations compose left to right; `warp(m)` must be
/// the only transformation (it changes the series length).
pub fn resolve_transforms(specs: &[TransformSpec], n: usize) -> Result<LinearTransform, LangError> {
    if specs.is_empty() {
        return Ok(LinearTransform::identity(n));
    }
    let mut result: Option<LinearTransform> = None;
    for spec in specs {
        let t = resolve_one(spec, n)?;
        result = Some(match result {
            None => t,
            Some(prev) => prev.then(&t)?,
        });
    }
    Ok(result.expect("non-empty specs"))
}

fn resolve_one(spec: &TransformSpec, n: usize) -> Result<LinearTransform, LangError> {
    let arity = |want: usize| -> Result<(), LangError> {
        if spec.args.len() == want {
            Ok(())
        } else {
            Err(LangError::Resolve(format!(
                "{} expects {want} argument(s), got {}",
                spec.name,
                spec.args.len()
            )))
        }
    };
    let positive_int = |v: f64, what: &str| -> Result<usize, LangError> {
        if v.fract() == 0.0 && v >= 1.0 {
            Ok(v as usize)
        } else {
            Err(LangError::Resolve(format!(
                "{what} must be a positive integer, got {v}"
            )))
        }
    };
    match spec.name.as_str() {
        "identity" => {
            arity(0)?;
            Ok(LinearTransform::identity(n))
        }
        "mavg" => {
            arity(1)?;
            let w = positive_int(spec.args[0], "mavg window")?;
            if w > n {
                return Err(LangError::Resolve(format!(
                    "mavg window {w} exceeds series length {n}"
                )));
            }
            Ok(LinearTransform::moving_average(n, w))
        }
        "wmavg" => {
            if spec.args.is_empty() || spec.args.len() > n {
                return Err(LangError::Resolve(
                    "wmavg expects between 1 and n weights".to_string(),
                ));
            }
            Ok(LinearTransform::weighted_moving_average(n, &spec.args))
        }
        "reverse" => {
            arity(0)?;
            Ok(LinearTransform::reverse(n))
        }
        "shift" => {
            arity(1)?;
            Ok(LinearTransform::shift(n, spec.args[0]))
        }
        "scale" => {
            arity(1)?;
            Ok(LinearTransform::scale(n, spec.args[0]))
        }
        "warp" => {
            arity(1)?;
            let m = positive_int(spec.args[0], "warp factor")?;
            Ok(LinearTransform::time_warp(n, m))
        }
        other => Err(LangError::Resolve(format!(
            "unknown transformation {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_core::shard::MAX_SUBSEQ_WINDOWS;
    use tsq_series::generate::RandomWalkGenerator;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rel =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(51).relation(60, 32))
                .unwrap();
        cat.register(rel).unwrap();
        cat
    }

    #[test]
    fn similar_query_runs() {
        let cat = catalog();
        // Identity: the query series matches itself at distance zero.
        let out = cat
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 2")
            .unwrap();
        assert!(out.rows.iter().any(|r| r.a == "s0" && r.distance < 1e-9));
        assert!(out.stats.disk_accesses > 0);
        // A selective threshold makes the cost-based planner take the
        // index path (an unselective one is correctly answered by a scan:
        // on 60 records, 60 accesses beat nodes + 60 candidate fetches).
        let tight = cat
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 0.5")
            .unwrap();
        assert_eq!(tight.plan, "IndexRange");
        assert!(tight.nodes_visited > 0);
        assert!(tight.rows.iter().any(|r| r.a == "s0" && r.distance < 1e-9));
        // With a data-side transformation the self-distance is
        // D(mavg(nf(s0)), nf(s0)) — nonzero; the query must still run and
        // agree with the sequential scan.
        let smoothed = cat
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 5 APPLY mavg(4)")
            .unwrap();
        assert!(!smoothed.rows.is_empty());
    }

    #[test]
    fn nearest_query_runs() {
        let cat = catalog();
        let out = cat.run("FIND 4 NEAREST TO walks.s3 IN walks").unwrap();
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0].a, "s3");
    }

    #[test]
    fn literal_source() {
        let cat = catalog();
        let values: Vec<String> = cat
            .relation("walks")
            .unwrap()
            .get_by_label("s1")
            .unwrap()
            .iter()
            .map(|v| format!("{v}"))
            .collect();
        let q = format!("FIND 1 NEAREST TO [{}] IN walks", values.join(", "));
        let out = cat.run(&q).unwrap();
        assert_eq!(out.rows[0].a, "s1");
        assert!(out.rows[0].distance < 1e-9);
    }

    #[test]
    fn join_methods_agree() {
        let cat = catalog();
        let scan = cat
            .run("JOIN walks WITHIN 1.5 APPLY mavg(4) WITH (force = scan)")
            .unwrap();
        let index = cat
            .run("JOIN walks WITHIN 1.5 APPLY mavg(4) WITH (force = index)")
            .unwrap();
        let scanfull = cat
            .run("JOIN walks WITHIN 1.5 APPLY mavg(4) WITH (force = scanfull)")
            .unwrap();
        // The scans report each pair once; the index twice.
        assert_eq!(index.rows.len(), 2 * scan.rows.len());
        assert_eq!(scanfull.rows, scan.rows);
    }

    #[test]
    fn subsequence_query_runs() {
        let cat = catalog();
        // A stored window matches itself at distance zero.
        let probe: Vec<String> = cat
            .relation("walks")
            .unwrap()
            .get_by_label("s2")
            .unwrap()
            .values()[5..13]
            .iter()
            .map(|v| format!("{v}"))
            .collect();
        let q = format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 0.001 WINDOW 8",
            probe.join(", ")
        );
        let out = cat.run(&q).unwrap();
        assert!(out
            .rows
            .iter()
            .any(|r| r.a == "s2" && r.offset == Some(5) && r.distance < 1e-9));
        // Nearest form: the same window is the 1-NN.
        let qn = format!(
            "FIND 1 NEAREST SUBSEQUENCE OF [{}] IN walks WINDOW 8",
            probe.join(", ")
        );
        let near = cat.run(&qn).unwrap();
        assert_eq!(near.rows.len(), 1);
        assert_eq!(near.rows[0].a, "s2");
        assert_eq!(near.rows[0].offset, Some(5));
    }

    #[test]
    fn subsequence_query_length_must_match_window() {
        let cat = catalog();
        let err = cat
            .run("FIND SUBSEQUENCE OF [1, 2, 3] IN walks WITHIN 1 WINDOW 8")
            .unwrap_err();
        assert!(matches!(
            err,
            LangError::Engine(tsq_core::Error::LengthMismatch {
                expected: 8,
                got: 3
            })
        ));
    }

    #[test]
    fn subseq_index_is_cached_per_window() {
        let cat = catalog();
        let q = "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 100 WINDOW 32";
        let a = cat.run(q).unwrap();
        let b = cat.run(q).unwrap();
        assert_eq!(a, b);
        assert_eq!(cat.subseq_cache_keys(), vec![("walks".to_string(), 32)]);
    }

    #[test]
    fn register_invalidates_subseq_cache() {
        let mut cat = catalog();
        cat.run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 32")
            .unwrap();
        assert_eq!(cat.subseq_cache_len(), 1);
        let replacement =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(77).relation(10, 32))
                .unwrap();
        cat.register(replacement).unwrap();
        assert_eq!(cat.subseq_cache_len(), 0);
    }

    #[test]
    fn mutated_relation_serves_fresh_answers() {
        let mut cat = catalog();
        // Prime the cache: s2's own window matches at distance ~0.
        let probe: Vec<String> = cat
            .relation("walks")
            .unwrap()
            .get_by_label("s2")
            .unwrap()
            .values()[5..13]
            .iter()
            .map(|v| format!("{v}"))
            .collect();
        let q = format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 0.001 WINDOW 8",
            probe.join(", ")
        );
        assert!(!cat.run(&q).unwrap().rows.is_empty());
        // Replace the relation with unrelated data: the old answer must
        // disappear — a stale cached ST-index would still report it.
        let replacement =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(987_654).relation(4, 32))
                .unwrap();
        cat.register(replacement).unwrap();
        assert!(cat.run(&q).unwrap().rows.is_empty());
    }

    /// A literal probe sized to the window, so every query is valid.
    fn window_probe(rel: &str, w: usize) -> String {
        let vals: Vec<String> = (0..w).map(|i| format!("{i}")).collect();
        format!(
            "FIND SUBSEQUENCE OF [{}] IN {rel} WITHIN 100 WINDOW {w}",
            vals.join(", ")
        )
    }

    fn keys(rel: &str, windows: &[usize]) -> Vec<(String, usize)> {
        windows.iter().map(|&w| (rel.to_string(), w)).collect()
    }

    #[test]
    fn subseq_cache_is_lru_bounded() {
        let cat = catalog();
        let full: Vec<usize> = (4..4 + MAX_SUBSEQ_WINDOWS).collect();
        for &w in &full {
            cat.run(&window_probe("walks", w)).unwrap();
        }
        assert_eq!(cat.subseq_cache_keys(), keys("walks", &full));
        // Touch window 4 so window 5 becomes the LRU victim of the next
        // further window.
        cat.run(&window_probe("walks", 4)).unwrap();
        cat.run(&window_probe("walks", 20)).unwrap();
        let mut want = full[2..].to_vec();
        want.extend([4, 20]);
        assert_eq!(cat.subseq_cache_keys(), keys("walks", &want));
        // Evicted windows still answer correctly (rebuilt on demand).
        assert!(cat.run(&window_probe("walks", 5)).is_ok());
        assert_eq!(cat.subseq_cache_len(), MAX_SUBSEQ_WINDOWS);
    }

    #[test]
    fn reregister_interleaved_with_cache_fills_keeps_lru_consistent() {
        // A relation's windows live and die with its index, so
        // interleaving re-registers with filling queries must drop exactly
        // the replaced relation's windows, keep every other relation's
        // recency order, and keep evicting each relation's own LRU window.
        let mut cat = catalog();
        cat.register(
            SeriesRelation::from_series("other", RandomWalkGenerator::new(8).relation(12, 32))
                .unwrap(),
        )
        .unwrap();
        cat.run(&window_probe("walks", 4)).unwrap();
        cat.run(&window_probe("other", 5)).unwrap();
        cat.run(&window_probe("other", 9)).unwrap();
        cat.run(&window_probe("walks", 6)).unwrap();
        assert_eq!(cat.subseq_cache_len(), 4);
        // Re-register `walks` mid-stream: only its windows vanish.
        let replacement =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(91).relation(20, 32))
                .unwrap();
        cat.register(replacement).unwrap();
        assert_eq!(cat.subseq_cache_keys(), keys("other", &[5, 9]));
        // Keep filling `walks` to its bound and one past it, with a hit on
        // the survivor in between: `walks` evicts its own oldest window,
        // `other` only records the hit.
        let full: Vec<usize> = (4..4 + MAX_SUBSEQ_WINDOWS).collect();
        for &w in &full {
            cat.run(&window_probe("walks", w)).unwrap();
        }
        cat.run(&window_probe("other", 5)).unwrap();
        cat.run(&window_probe("walks", 20)).unwrap();
        let mut want = keys("other", &[9, 5]);
        want.extend(keys("walks", &full[1..]));
        want.extend(keys("walks", &[20]));
        assert_eq!(cat.subseq_cache_keys(), want);
        assert_eq!(cat.subseq_cache_len(), 2 + MAX_SUBSEQ_WINDOWS);
    }

    #[test]
    fn non_finite_literal_is_a_typed_error_not_a_panic() {
        let cat = catalog();
        // Through the parser: overflowing literals die at the lexer.
        assert!(matches!(
            cat.run("FIND SIMILAR TO [1e999, 2] IN walks WITHIN 1"),
            Err(LangError::Lex { .. })
        ));
        // Programmatic queries bypass the lexer; the executor must still
        // reject NaN with a typed error instead of panicking.
        let q = Query::Nearest {
            source: Source::Literal(vec![1.0, f64::NAN]),
            relation: "walks".into(),
            k: 1,
            transforms: Vec::new(),
            options: QueryOptions::default(),
        };
        assert!(matches!(
            cat.execute(&q),
            Err(LangError::Engine(tsq_core::Error::NonFinite { .. }))
        ));
    }

    #[test]
    fn run_batch_matches_sequential() {
        let cat = catalog();
        let queries: Vec<String> = (0..12)
            .map(|i| match i % 4 {
                0 => format!("FIND SIMILAR TO walks.s{i} IN walks WITHIN 2"),
                1 => format!("FIND 3 NEAREST TO walks.s{i} IN walks"),
                2 => format!("FIND SUBSEQUENCE OF walks.s{i} IN walks WITHIN 50 WINDOW 32"),
                _ => "JOIN walks WITHIN 1.5 APPLY mavg(4) WITH (force = index)".to_string(),
            })
            .collect();
        let want: Vec<_> = queries.iter().map(|q| cat.run(q)).collect();
        for threads in [1usize, 2, 4] {
            let (got, summary) = cat.run_batch(queries.clone(), threads);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(summary.queries, 12);
            assert_eq!(summary.errors, 0);
            assert_eq!(summary.threads, threads);
            assert!(summary.nodes_visited > 0);
        }
        // Errors occupy their slot without sinking the batch.
        let (mixed, summary) = cat.run_batch(
            vec![
                "FIND 1 NEAREST TO walks.s0 IN walks".to_string(),
                "FIND 1 NEAREST TO walks.nope IN walks".to_string(),
            ],
            2,
        );
        assert!(mixed[0].is_ok());
        assert!(matches!(mixed[1], Err(LangError::Resolve(_))));
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn shared_catalog_recovers_from_poisoned_outer_lock() {
        let shared = SharedCatalog::new(catalog());
        // Poison the catalog-level RwLock itself: a thread panics while
        // holding the *write* guard (the worst case — a reader guard
        // never poisons a std RwLock). With `.unwrap()` instead of
        // poison recovery, every subsequent query and registration
        // would panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.inner.write().unwrap();
            panic!("writer dies mid-registration");
        }));
        assert!(result.is_err());
        assert!(shared.inner.is_poisoned());
        let out = shared.run("FIND 2 NEAREST TO walks.s0 IN walks").unwrap();
        assert_eq!(out.rows.len(), 2);
        shared
            .register(
                SeriesRelation::from_series("more", RandomWalkGenerator::new(11).relation(5, 32))
                    .unwrap(),
            )
            .unwrap();
        assert!(shared.run("FIND 1 NEAREST TO more.s0 IN more").is_ok());
    }

    #[test]
    fn shared_catalog_concurrent_readers_and_writer() {
        let shared = SharedCatalog::new(catalog());
        let q = "FIND 4 NEAREST TO walks.s3 IN walks";
        let want = shared.run(q).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = shared.clone();
                let want = &want;
                scope.spawn(move || {
                    for _ in 0..8 {
                        assert_eq!(&shared.run(q).unwrap(), want);
                    }
                });
            }
            let writer = shared.clone();
            scope.spawn(move || {
                let rel = SeriesRelation::from_series(
                    "other",
                    RandomWalkGenerator::new(9).relation(6, 32),
                )
                .unwrap();
                writer.register(rel).unwrap();
            });
        });
        assert!(shared.run("FIND 1 NEAREST TO other.s0 IN other").is_ok());
        shared.with_relation("other", |rel| assert_eq!(rel.unwrap().len(), 6));
    }

    #[test]
    fn unknown_names_resolve_errors() {
        let cat = catalog();
        assert!(matches!(
            cat.run("FIND SIMILAR TO walks.nope IN walks WITHIN 1"),
            Err(LangError::Resolve(_))
        ));
        assert!(matches!(
            cat.run("FIND SIMILAR TO walks.s0 IN nothere WITHIN 1"),
            Err(LangError::Resolve(_))
        ));
        assert!(matches!(
            cat.run("JOIN walks WITHIN 1 APPLY frobnicate"),
            Err(LangError::Resolve(_))
        ));
    }

    #[test]
    fn transform_argument_validation() {
        let cat = catalog();
        assert!(matches!(
            cat.run("JOIN walks WITHIN 1 APPLY mavg"),
            Err(LangError::Resolve(_))
        ));
        assert!(matches!(
            cat.run("JOIN walks WITHIN 1 APPLY mavg(0)"),
            Err(LangError::Resolve(_))
        ));
        assert!(matches!(
            cat.run("JOIN walks WITHIN 1 APPLY mavg(100)"),
            Err(LangError::Resolve(_))
        ));
    }

    #[test]
    fn composition_left_to_right() {
        let t = resolve_transforms(
            &[
                TransformSpec {
                    name: "mavg".into(),
                    args: vec![4.0],
                },
                TransformSpec {
                    name: "reverse".into(),
                    args: vec![],
                },
            ],
            32,
        )
        .unwrap();
        assert_eq!(t.name(), "reverse . mavg(4)");
    }

    #[test]
    fn warp_composition_rejected_via_engine_error() {
        let err = resolve_transforms(
            &[
                TransformSpec {
                    name: "warp".into(),
                    args: vec![2.0],
                },
                TransformSpec {
                    name: "reverse".into(),
                    args: vec![],
                },
            ],
            16,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LangError::Engine(tsq_core::Error::Unsupported(_))
        ));
    }

    /// A fresh catalog rebuilt from `cat`'s current (post-append) data —
    /// the oracle every incremental path is compared against.
    fn rebuilt(cat: &Catalog, name: &str) -> Catalog {
        let rel = cat.relation(name).unwrap();
        let items: Vec<(String, TimeSeries)> = (0..rel.len())
            .map(|id| {
                (
                    rel.label(id).unwrap().to_string(),
                    rel.get(id).unwrap().clone(),
                )
            })
            .collect();
        let mut fresh = Catalog::new();
        fresh
            .register(SeriesRelation::from_labeled(name, items).unwrap())
            .unwrap();
        fresh
    }

    /// Sorts subsequence rows into a canonical order (tree traversal
    /// order may differ between an incrementally-extended index and a
    /// fresh build; the row *set* may not).
    fn canonical(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|x, y| {
            (x.distance.to_bits(), &x.a, x.offset).cmp(&(y.distance.to_bits(), &y.a, y.offset))
        });
        rows
    }

    #[test]
    fn append_matches_a_freshly_built_catalog() {
        let mut cat = catalog();
        // Prime the ST-index cache *before* appending, so the cached
        // index answers through the incremental extension path. The probe
        // is a stored window, so it keeps matching data before and after
        // the appends.
        let probe: Vec<String> = cat
            .relation("walks")
            .unwrap()
            .get_by_label("s2")
            .unwrap()
            .values()[5..13]
            .iter()
            .map(|v| format!("{v}"))
            .collect();
        let sub_q = format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 5 WINDOW 8",
            probe.join(", ")
        );
        let sub_q = sub_q.as_str();
        cat.run(sub_q).unwrap();
        // Single-series append first, then a batched catch-up so the
        // relation ends uniform at length 35.
        let out = cat
            .run_mut("APPEND walks s0 VALUES (1.5, -0.25, 2.0)")
            .unwrap();
        assert_eq!(out.plan, "Append");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].a, "s0");
        assert_eq!(out.rows[0].offset, Some(35));
        assert_eq!(out.rows[0].distance, 3.0);
        let batch: Vec<String> = (1..60)
            .map(|i| format!("(s{i}, 0.5, {i}.25, -3)"))
            .collect();
        let out = cat
            .run_mut(&format!("APPEND walks CSV {}", batch.join(" ")))
            .unwrap();
        assert_eq!(out.rows.len(), 59);
        let fresh = rebuilt(&cat, "walks");
        // Whole-series forms are *byte-identical* to the fresh build —
        // rows, every counter, and the rendered EXPLAIN ANALYZE plan —
        // because the first read packs the tree a fresh build packs.
        for q in [
            "FIND SIMILAR TO walks.s0 IN walks WITHIN 2",
            "FIND SIMILAR TO walks.s0 IN walks WITHIN 0.5",
            "FIND 5 NEAREST TO walks.s7 IN walks",
            "JOIN walks WITHIN 1.5 APPLY mavg(4)",
            "JOIN walks WITHIN 1.5 APPLY mavg(4) WITH (force = index)",
            "EXPLAIN ANALYZE FIND SIMILAR TO walks.s0 IN walks WITHIN 0.5",
            "EXPLAIN ANALYZE JOIN walks WITHIN 1.5 APPLY mavg(4)",
        ] {
            assert_eq!(cat.run(q).unwrap(), fresh.run(q).unwrap(), "{q}");
        }
        // Subsequence forms: identical answer rows and identical
        // candidate-level counters (same entry set ⇒ same candidates,
        // refines and false hits); only the node layout — and therefore
        // nodes_visited / disk_accesses — may differ.
        let a = cat.run(sub_q).unwrap();
        let b = fresh.run(sub_q).unwrap();
        assert!(!a.rows.is_empty());
        assert_eq!(canonical(a.rows), canonical(b.rows));
        assert_eq!(a.stats.candidates, b.stats.candidates);
        assert_eq!(a.stats.refined, b.stats.refined);
        assert_eq!(a.stats.false_hits, b.stats.false_hits);
        let knn_q =
            "FIND 4 NEAREST SUBSEQUENCE OF [0.5, 1, 1.5, 1, 0.5, 0, -0.5, -1] IN walks WINDOW 8";
        let a = cat.run(knn_q).unwrap();
        let b = fresh.run(knn_q).unwrap();
        assert_eq!(canonical(a.rows), canonical(b.rows));
        // The appended windows are really in the cached index: a probe
        // matching the appended tail of s0 hits at its exact offset.
        let tail: Vec<String> = cat
            .relation("walks")
            .unwrap()
            .get_by_label("s0")
            .unwrap()
            .values()[27..35]
            .iter()
            .map(|v| format!("{v}"))
            .collect();
        let probe = format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 0.001 WINDOW 8",
            tail.join(", ")
        );
        let hit = cat.run(&probe).unwrap();
        assert!(hit
            .rows
            .iter()
            .any(|r| r.a == "s0" && r.offset == Some(27) && r.distance < 1e-9));
    }

    #[test]
    fn many_rows_for_one_label_extend_it_once() {
        // An extension allocates a new buffer, so a statement must extend
        // a label once however many rows name it. 2 000 one-value rows
        // for one label answer exactly like 2 000 statements and like one
        // row carrying all the values.
        const ROWS: usize = 2000;
        let values: Vec<f64> = (0..ROWS).map(|i| (i as f64 * 0.37).sin() * 4.0).collect();
        let csv = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
        // A window of the appended tail: it must be found where it lands.
        let window = csv(&values[100..108]);
        let probe = &format!("FIND SUBSEQUENCE OF [{window}] IN walks WITHIN 0.5 WINDOW 8");
        let knn = &format!("FIND 5 NEAREST SUBSEQUENCE OF [{window}] IN walks WINDOW 8");
        // `held`: the ST-index exists before the appends and is extended
        // by them; otherwise the first probe after them builds it.
        let run = |statements: &[String], held: bool| {
            let mut cat = Catalog::new();
            let series = RandomWalkGenerator::new(77).relation(6, 32);
            cat.register(SeriesRelation::from_series("walks", series).unwrap())
                .unwrap();
            if held {
                cat.run(probe).unwrap();
            }
            let mut appended = 0.0;
            let mut last = None;
            for statement in statements {
                let out = cat.run_mut(statement).unwrap();
                assert_eq!(out.rows.len(), 1);
                appended += out.rows[0].distance;
                last = Some((out.rows[0].a.clone(), out.rows[0].offset));
            }
            let len = cat.relation("walks").unwrap().get(2).unwrap().len();
            let answers = [probe, knn].map(|q| cat.run(q).unwrap().rows);
            assert_eq!(cat.subseq_cache_len(), 1);
            let scanned = cat.run(&format!("{probe} WITH (force = scan)")).unwrap();
            assert_eq!(canonical(answers[0].clone()), canonical(scanned.rows));
            (appended, last, len, answers, cat.snapshot_bytes().unwrap())
        };
        let rows: Vec<String> = values.iter().map(|v| format!("(s2, {v})")).collect();
        let one_statement = [format!("APPEND walks CSV {}", rows.join(" "))];
        let one_row = [format!("APPEND walks s2 VALUES ({})", csv(&values))];
        let statements: Vec<String> = values
            .iter()
            .map(|v| format!("APPEND walks s2 VALUES ({v})"))
            .collect();

        let want = run(&one_row, true);
        assert_eq!(want.0, ROWS as f64);
        assert_eq!(want.1, Some(("s2".to_string(), Some(32 + ROWS))));
        assert_eq!(want.2, 32 + ROWS);
        let found = |r: &Row| r.a == "s2" && r.offset == Some(132) && r.distance < 1e-9;
        assert!(want.3[0].iter().any(found));
        assert_eq!(run(&one_statement, true), want);
        // Which nodes of a held ST-index's tree the trails sit in depends
        // on the append schedule (`SubseqIndex::extend_series`), but a
        // snapshot stores the held window, not its tree: the snapshots
        // agree too.
        assert_eq!(run(&statements, true), want);
        assert_eq!(run(&statements, false), run(&one_statement, false));
    }

    #[test]
    fn restored_held_window_is_the_fresh_build() {
        let probe =
            "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 3 WINDOW 8";
        let knn =
            "FIND 5 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WINDOW 8";
        let explain = format!("EXPLAIN ANALYZE {probe}");
        let mut cat = catalog();
        cat.run(probe).unwrap();
        // One point per series per statement: the held index grows its
        // trails in place, into a node layout no build produces.
        for round in 0..24 {
            let rows: Vec<String> = (0..60)
                .map(|i| format!("(s{i}, {})", ((i * 7 + round) as f64 * 0.37).sin()))
                .collect();
            cat.run_mut(&format!("APPEND walks CSV {}", rows.join(" ")))
                .unwrap();
        }
        let fresh = rebuilt(&cat, "walks");
        let (live, built) = (cat.run(probe).unwrap(), fresh.run(probe).unwrap());
        assert_eq!(canonical(live.rows), canonical(built.rows.clone()));
        assert_ne!(live.stats.nodes_visited, built.stats.nodes_visited);
        // The snapshot holds the window, not the layout: the restored
        // catalog builds what a fresh build builds, and answers as it does.
        let mut restored = Catalog::new();
        restored
            .restore_bytes(&cat.snapshot_bytes().unwrap())
            .unwrap();
        for q in [probe, knn, &explain] {
            assert_eq!(restored.run(q).unwrap(), fresh.run(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn ragged_relation_gates_whole_series_queries_until_healed() {
        let mut cat = catalog();
        cat.run_mut("APPEND walks s0 VALUES (7, 8)").unwrap();
        // Whole-series forms are rejected with the typed raggedness error…
        for q in [
            "FIND SIMILAR TO walks.s1 IN walks WITHIN 2",
            "FIND 3 NEAREST TO walks.s1 IN walks",
            "JOIN walks WITHIN 1 WITH (force = scan)",
        ] {
            assert!(
                matches!(
                    cat.run(q),
                    Err(LangError::Engine(tsq_core::Error::Ragged {
                        min: 32,
                        max: 34
                    }))
                ),
                "{q}"
            );
        }
        // …while subsequence queries keep working throughout…
        assert!(cat
            .run("FIND SUBSEQUENCE OF [7, 8, 7, 8, 7, 8, 7, 8] IN walks WITHIN 10 WINDOW 8")
            .is_ok());
        // …and catching the other series up heals the relation.
        let batch: Vec<String> = (1..60).map(|i| format!("(s{i}, 7, 8)")).collect();
        cat.run_mut(&format!("APPEND walks CSV {}", batch.join(" ")))
            .unwrap();
        assert!(cat
            .run("FIND SIMILAR TO walks.s1 IN walks WITHIN 2")
            .is_ok());
    }

    #[test]
    fn append_is_atomic_on_every_rejection() {
        let mut cat = catalog();
        let sub_q =
            "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 10 WINDOW 8";
        cat.run(sub_q).unwrap();
        let range_q = "FIND SIMILAR TO walks.s0 IN walks WITHIN 2";
        let before_range = cat.run(range_q).unwrap();
        let before_sub = cat.run(sub_q).unwrap();
        let before_bytes = cat.snapshot_bytes().unwrap();
        // Unknown relation.
        assert!(matches!(
            cat.run_mut("APPEND nope s0 VALUES (1)"),
            Err(LangError::Resolve(_))
        ));
        // Non-finite value mid-batch (unreachable through the lexer, so
        // hostile programmatic input): the *whole* statement is rejected —
        // the valid first row must not have been applied.
        let err = cat
            .append(
                "walks",
                &[
                    AppendRow {
                        label: "s0".into(),
                        values: vec![1.0, 2.0],
                    },
                    AppendRow {
                        label: "s1".into(),
                        values: vec![3.0, f64::NAN],
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            LangError::Engine(tsq_core::Error::NonFinite { .. })
        ));
        // A new series too short for the feature schema (k = 2 needs at
        // least 3 points), batched behind a valid row: also atomic.
        assert!(matches!(
            cat.run_mut("APPEND walks CSV (s0, 1, 2) (newcomer, 5)"),
            Err(LangError::Engine(tsq_core::Error::InvalidCutoff { .. }))
        ));
        // Empty-values rows are parser-unreachable; programmatic form:
        assert!(matches!(
            cat.append(
                "walks",
                &[AppendRow {
                    label: "s0".into(),
                    values: Vec::new(),
                }]
            ),
            Err(LangError::Resolve(_))
        ));
        // Relation, indexes and cache are exactly as they were.
        assert!(cat
            .relation("walks")
            .unwrap()
            .get_by_label("newcomer")
            .is_none());
        assert_eq!(cat.run(range_q).unwrap(), before_range);
        assert_eq!(cat.run(sub_q).unwrap(), before_sub);
        assert_eq!(cat.snapshot_bytes().unwrap(), before_bytes);
    }

    #[test]
    fn append_updates_cached_st_index_in_place() {
        /// The window-8 ST-index of the one shard of `walks`.
        fn st_index(cat: &Catalog) -> Arc<tsq_core::SubseqIndex> {
            let entries = cat.relations["walks"].index.subseq_entries();
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].0, 8);
            Arc::clone(&entries[0].1.as_ref().unwrap()[0])
        }
        let mut cat = catalog();
        cat.run("FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 10 WINDOW 8")
            .unwrap();
        let ptr_before = Arc::as_ptr(&st_index(&cat));
        cat.run_mut("APPEND walks s0 VALUES (1, 2, 3)").unwrap();
        // Still held (never dropped), updated in place (sole owner ⇒
        // Arc::make_mut did not clone).
        let index = st_index(&cat);
        assert_eq!(Arc::as_ptr(&index), ptr_before);
        assert_eq!(index.series(0).unwrap().len(), 35);
        // An in-flight reader holding the Arc keeps its consistent
        // pre-append snapshot while the relation moves on (clone-on-write).
        let held = index;
        cat.run_mut("APPEND walks s0 VALUES (4)").unwrap();
        assert_eq!(held.series(0).unwrap().len(), 35);
        assert_eq!(st_index(&cat).series(0).unwrap().len(), 36);
    }

    #[test]
    fn append_creates_new_series_and_batches_sequentially() {
        let mut cat = catalog();
        // One new label split across three rows of one CSV statement:
        // rows apply sequentially, so the series assembles in order.
        let out = cat
            .run_mut("APPEND walks CSV (fresh, 1, 2) (s0, 9) (fresh, 3, 4)")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].a, "fresh");
        assert_eq!(out.rows[0].offset, Some(4));
        assert_eq!(out.rows[0].distance, 4.0);
        assert_eq!(out.rows[1].a, "s0");
        assert_eq!(out.rows[1].offset, Some(33));
        let rel = cat.relation("walks").unwrap();
        assert_eq!(rel.len(), 61);
        assert_eq!(
            rel.get_by_label("fresh").unwrap().values(),
            &[1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn immutable_execute_rejects_append_with_guidance() {
        let cat = catalog();
        let q = crate::parser::parse("APPEND walks s0 VALUES (1)").unwrap();
        match cat.execute(&q) {
            Err(LangError::Resolve(msg)) => assert!(msg.contains("run_mut")),
            other => panic!("unexpected {other:?}"),
        }
        // `run` (read-only by design) reports the same guidance.
        assert!(matches!(
            cat.run("APPEND walks s0 VALUES (1)"),
            Err(LangError::Resolve(_))
        ));
    }

    #[test]
    fn shared_catalog_append_interleaves_with_readers() {
        let shared = SharedCatalog::new(catalog());
        // APPEND routes through the write lock transparently via `run`.
        let out = shared.run("APPEND walks s0 VALUES (1, 2)").unwrap();
        assert_eq!(out.plan, "Append");
        shared.with_relation("walks", |rel| {
            assert_eq!(rel.unwrap().get_by_label("s0").unwrap().len(), 34);
        });
        // Concurrent appenders and readers: every append is atomic under
        // the write lock, so the final length is exact and every
        // interleaved read sees a consistent catalog.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let shared = shared.clone();
                scope.spawn(move || {
                    for i in 0..8 {
                        shared
                            .run(&format!("APPEND walks s0 VALUES ({}.5)", t * 8 + i))
                            .unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let shared = shared.clone();
                scope.spawn(move || {
                    for _ in 0..16 {
                        // Raggedness is a legal transient answer; anything
                        // else must succeed.
                        match shared.run("FIND SUBSEQUENCE OF [1, 2, 3, 4, 3, 2, 1, 0] IN walks WITHIN 5 WINDOW 8")
                        {
                            Ok(_) => {}
                            Err(e) => panic!("reader failed: {e}"),
                        }
                    }
                });
            }
        });
        shared.with_relation("walks", |rel| {
            assert_eq!(rel.unwrap().get_by_label("s0").unwrap().len(), 34 + 32);
        });
    }

    #[test]
    fn where_window_filters() {
        let cat = catalog();
        let all = cat
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 100")
            .unwrap();
        let filtered = cat
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 100 WHERE STD BETWEEN 0 AND 1")
            .unwrap();
        assert!(filtered.rows.len() <= all.rows.len());
    }

    /// Every query form a sharded relation must answer identically to the
    /// unsharded engine.
    const SHARD_QUERIES: &[&str] = &[
        "FIND SIMILAR TO walks.s0 IN walks WITHIN 8",
        "FIND SIMILAR TO walks.s0 IN walks WITHIN 8 APPLY mavg(5)",
        "FIND 7 NEAREST TO walks.s3 IN walks",
        "JOIN walks WITHIN 6",
        "JOIN walks WITHIN 6 WITH (force = index)",
        "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 6 WINDOW 8",
        "FIND 9 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WINDOW 8",
    ];

    #[test]
    fn sharded_answers_match_unsharded_for_every_form() {
        let baseline = catalog();
        for by in ["HASH", "RANGE"] {
            for count in [2usize, 3, 8] {
                let mut cat = catalog();
                let out = cat
                    .run_mut(&format!("SHARD walks INTO {count} BY {by}"))
                    .unwrap();
                assert_eq!(out.rows.len(), count);
                assert_eq!(out.plan, "Shard");
                for q in SHARD_QUERIES {
                    let want = baseline.run(q).unwrap();
                    let got = cat.run(q).unwrap();
                    assert_eq!(got.rows, want.rows, "{by}/{count}: {q}");
                    // Merged counters are the exact sum of the per-shard
                    // breakdown.
                    assert_eq!(got.shard_stats.len(), count, "{q}");
                    assert_eq!(got.stats, ExecStats::sum(&got.shard_stats), "{q}");
                }
            }
        }
    }

    #[test]
    fn sharded_force_scan_stats_equal_unsharded() {
        // Scan counters are structure-independent, so sharding must also
        // preserve the *statistics*, not just the rows.
        let baseline = catalog();
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 4 BY HASH").unwrap();
        for q in [
            "FIND SIMILAR TO walks.s0 IN walks WITHIN 8 WITH (force = scan)",
            "FIND 7 NEAREST TO walks.s3 IN walks WITH (force = scan)",
        ] {
            let want = baseline.run(q).unwrap();
            let got = cat.run(q).unwrap();
            assert_eq!(got.rows, want.rows, "{q}");
            assert_eq!(got.stats, want.stats, "{q}");
        }
    }

    #[test]
    fn shard_into_one_restores_unsharded_execution() {
        let baseline = catalog();
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 4 BY RANGE").unwrap();
        cat.run_mut("SHARD walks INTO 1 BY HASH").unwrap();
        for q in SHARD_QUERIES {
            let want = baseline.run(q).unwrap();
            let got = cat.run(q).unwrap();
            assert_eq!(got, want, "{q}");
            assert!(got.shard_stats.is_empty(), "{q}");
        }
    }

    #[test]
    fn with_threads_and_shards_do_not_change_answers() {
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 4 BY HASH").unwrap();
        let plain = cat.run("FIND 7 NEAREST TO walks.s3 IN walks").unwrap();
        for q in [
            "FIND 7 NEAREST TO walks.s3 IN walks WITH (threads = 2)",
            "FIND 7 NEAREST TO walks.s3 IN walks WITH (shards = 1)",
            "FIND 7 NEAREST TO walks.s3 IN walks WITH (threads = 3, shards = 2)",
        ] {
            let got = cat.run(q).unwrap();
            assert_eq!(got.rows, plain.rows, "{q}");
            assert_eq!(got.stats, plain.stats, "{q}");
        }
    }

    #[test]
    fn sharded_append_matches_fresh_sharded_build() {
        let mut live = catalog();
        live.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        live.run_mut("APPEND walks CSV (s0, 1.5, 2.5) (brand_new, 9, 8, 7) (s11, -1)")
            .unwrap();

        let mut fresh = catalog();
        fresh
            .run_mut("APPEND walks CSV (s0, 1.5, 2.5) (brand_new, 9, 8, 7) (s11, -1)")
            .unwrap();
        fresh.run_mut("SHARD walks INTO 3 BY HASH").unwrap();

        // The relation is now ragged, so only subsequence forms run.
        let q = "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 6 WINDOW 8";
        assert_eq!(live.run(q).unwrap().rows, fresh.run(q).unwrap().rows);
        // Heal to uniform length and compare a whole-series form too.
        let heal: Vec<String> = {
            let rel = live.relation("walks").unwrap();
            (0..rel.len())
                .filter_map(|id| {
                    let label = rel.label(id).unwrap();
                    let len = rel.get_by_label(label).unwrap().len();
                    let longest = 37; // 32 + 2 appended + headroom
                    (len < longest).then(|| {
                        let pad = vec!["0"; longest - len].join(", ");
                        format!("APPEND walks {label} VALUES ({pad})")
                    })
                })
                .collect()
        };
        for stmt in &heal {
            live.run_mut(stmt).unwrap();
            fresh.run_mut(stmt).unwrap();
        }
        let q = "FIND 5 NEAREST TO walks.s3 IN walks";
        assert_eq!(live.run(q).unwrap().rows, fresh.run(q).unwrap().rows);
    }

    #[test]
    fn sharded_explain_renders_per_shard_plans_and_totals() {
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        let out = cat
            .run("EXPLAIN FIND SIMILAR TO walks.s0 IN walks WITHIN 8")
            .unwrap();
        let text = out.explain.as_deref().unwrap();
        assert!(text.contains("sharded: 3 shard(s) by hash"), "{text}");
        assert!(text.contains("shard 0:"), "{text}");
        assert!(out.rows.is_empty());
        assert!(out.plan.starts_with("Sharded(3):"), "{}", out.plan);

        let out = cat
            .run("EXPLAIN ANALYZE FIND SIMILAR TO walks.s0 IN walks WITHIN 8")
            .unwrap();
        let text = out.explain.as_deref().unwrap();
        assert!(text.contains("shard 0 actual: rows="), "{text}");
        assert!(text.contains("total actual: rows="), "{text}");
        assert_eq!(out.shard_stats.len(), 3);
        assert_eq!(out.stats, ExecStats::sum(&out.shard_stats));
    }

    #[test]
    fn immutable_execute_rejects_shard_with_guidance() {
        let cat = catalog();
        let q = crate::parser::parse("SHARD walks INTO 2 BY HASH").unwrap();
        match cat.execute(&q) {
            Err(LangError::Resolve(msg)) => {
                assert!(msg.contains("run_mut"), "{msg}")
            }
            other => panic!("expected guidance, got {other:?}"),
        }
        // The shared catalog routes it to the write path instead.
        let shared = SharedCatalog::new(catalog());
        assert_eq!(
            shared.run("SHARD walks INTO 2 BY HASH").unwrap().rows.len(),
            2
        );
        assert!(shared
            .run("FIND 3 NEAREST TO walks.s0 IN walks")
            .unwrap()
            .plan
            .starts_with("Sharded(2):"));
    }

    #[test]
    fn shard_on_paged_relation_is_rejected() {
        let dir = std::env::temp_dir().join(format!("tsq-shard-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        catalog().save(&path).unwrap();
        let mut cat = Catalog::new();
        cat.open_paged(&path, 4).unwrap();
        match cat.run_mut("SHARD walks INTO 2 BY HASH") {
            Err(LangError::Engine(tsq_core::Error::Unsupported(msg))) => {
                assert!(msg.contains("paged"), "{msg}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_snapshot_round_trips_byte_identically() {
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 3 BY RANGE").unwrap();
        // Populate a per-shard ST cache entry; it travels with the
        // snapshot like a one-shard relation's.
        cat.run("FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 6 WINDOW 8")
            .unwrap();
        let bytes = cat.snapshot_bytes().unwrap();
        let mut restored = Catalog::new();
        restored.restore_bytes(&bytes).unwrap();
        assert_eq!(
            restored.shard_layout("walks"),
            cat.shard_layout("walks"),
            "shard layout survives the round trip"
        );
        for q in SHARD_QUERIES {
            let want = cat.run(q).unwrap();
            let got = restored.run(q).unwrap();
            assert_eq!(got, want, "{q}");
        }
        assert_eq!(restored.subseq_cache_keys(), cat.subseq_cache_keys());
        // save → open → save reproduces the file byte for byte.
        assert_eq!(restored.snapshot_bytes().unwrap(), bytes);
    }

    #[test]
    fn sharded_paged_open_serves_identical_answers() {
        let dir = std::env::temp_dir().join(format!("tsq-shard-paged-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        cat.save(&path).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&path, 4).unwrap();
        for q in SHARD_QUERIES {
            let want = cat.run(q).unwrap();
            let got = paged.run(q).unwrap();
            assert_eq!(got.rows, want.rows, "{q}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_paged_save_writes_the_in_memory_bytes_and_pins_no_page() {
        let dir = std::env::temp_dir().join(format!("tsq-paged-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        cat.run("FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 6 WINDOW 8")
            .unwrap();
        // A second relation, left ragged by an append to a known and a new
        // label, with a held window of its own.
        let ragged = RandomWalkGenerator::new(52).relation(20, 32);
        cat.register(SeriesRelation::from_series("ragged", ragged).unwrap())
            .unwrap();
        cat.run("FIND 2 NEAREST SUBSEQUENCE OF ragged.s1 IN ragged WINDOW 32")
            .unwrap();
        cat.run_mut("APPEND ragged CSV (s7, 1.5, 2.5) (fresh, 1, 2, 3, 4, 5, 6, 7, 8, 9)")
            .unwrap();
        let bytes = cat.snapshot_bytes().unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        // (hits, misses) of every shard's pool (an unchanged map iterates in
        // one order).
        let pins = |cat: &Catalog| -> Vec<(u64, u64)> {
            let parts = cat.relations.values().flat_map(|rel| rel.index.parts());
            parts
                .map(|part| {
                    let pool = part.paged().expect("open_paged pages every shard").pool();
                    (pool.hits(), pool.misses())
                })
                .collect()
        };
        let before = pins(&paged);
        assert_eq!(paged.snapshot_bytes().unwrap(), bytes);
        assert_eq!(
            paged.save(&dir.join("again.tsq")).unwrap(),
            bytes.len() as u64
        );
        assert_eq!(pins(&paged), before, "a save reads series, not pages");
        // The pools do count: an index read moves them.
        paged
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 8 WITH (force = index)")
            .unwrap();
        assert_ne!(pins(&paged), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sharing oracle: for every label of every relation, the
    /// catalog's series, its owning shard's stored record and every built
    /// window's ST-index hand out one and the same buffer.
    fn assert_one_buffer_per_series(cat: &Catalog, step: &str) {
        for (name, Relation { labels, index }) in &cat.relations {
            let windows = index.subseq_entries();
            for id in 0..labels.len() {
                let held = labels.get(id).unwrap();
                let (shard, local) = index.map().owner(id).unwrap();
                let in_windows = windows
                    .iter()
                    .filter_map(|(_, parts)| parts.as_ref())
                    .map(|parts| parts[shard].series(local).unwrap());
                let stored = &index.parts()[shard].entries()[local].series;
                for (holder, other) in std::iter::once(stored).chain(in_windows).enumerate() {
                    let at = format!(
                        "{step}: {name}.{}, holder {holder}",
                        labels.label(id).unwrap()
                    );
                    assert_eq!(other.len(), held.len(), "{at}");
                    assert_eq!(other.values().as_ptr(), held.values().as_ptr(), "{at}");
                }
            }
        }
    }

    #[test]
    fn every_holder_of_a_series_shares_one_buffer() {
        const PROBES: [&str; 2] = [
            "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 6 WINDOW 8",
            "FIND 3 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25, 1, 2, 0, 1, 3, 2, 1, 0] \
             IN walks WINDOW 16",
        ];
        let probe = |cat: &Catalog, step: &str| {
            for q in PROBES {
                cat.run(q).unwrap();
            }
            let windows = cat.relations["walks"].index.subseq_entries();
            assert_eq!(windows.len(), 2, "{step}");
            assert!(windows.iter().all(|(_, parts)| parts.is_some()), "{step}");
            assert_one_buffer_per_series(cat, step);
        };
        let mut cat = catalog();
        assert_one_buffer_per_series(&cat, "register");
        probe(&cat, "two windows built");
        // A rebuilt index drops its ST-indexes; probe again after each.
        cat.run_mut("SHARD walks INTO 4 BY RANGE").unwrap();
        assert_one_buffer_per_series(&cat, "4 range shards");
        probe(&cat, "4 range shards, two windows");
        cat.run_mut("SHARD walks INTO 1 BY RANGE").unwrap();
        probe(&cat, "back to 1 shard, two windows");
        cat.run_mut("SHARD walks INTO 4 BY RANGE").unwrap();
        probe(&cat, "4 range shards again");
        cat.run_mut("APPEND walks CSV (s7, 1.5, 2.5) (fresh, 1, 2, 3, 4, 5, 6, 7, 8, 9) (s7, -1)")
            .unwrap();
        assert_eq!(cat.relation("walks").unwrap().get(7).unwrap().len(), 35);
        assert_eq!(cat.relation("walks").unwrap().len(), 61);
        assert_eq!(cat.subseq_cache_len(), 2);
        assert_one_buffer_per_series(&cat, "append to a known and a new label");

        let dir = std::env::temp_dir().join(format!("tsq-one-buffer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        cat.save(&path).unwrap();
        // A restore holds both windows unbuilt; their first statements
        // build them over the restored series.
        let mut opened = Catalog::new();
        opened.open(&path).unwrap();
        assert_eq!(opened.subseq_cache_len(), 2);
        assert_one_buffer_per_series(&opened, "save -> open");
        probe(&opened, "save -> open, windows built");
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        assert_eq!(paged.subseq_cache_len(), 2);
        probe(&paged, "open_paged, windows built");
        std::fs::remove_dir_all(&dir).ok();
    }
}
