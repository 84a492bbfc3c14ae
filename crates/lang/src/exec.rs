//! Planning and execution: AST → [`LogicalPlan`] → cost-based
//! [`tsq_core::Planner`] → [`tsq_core::PhysicalPlan`] → the single plan
//! executor.
//!
//! [`Catalog::execute_with`] is the one execution entry point: it merges
//! the statement's own `WITH (...)` clause with caller overrides into a
//! single [`QueryOptions`], lowers the AST to a resolved logical plan
//! and hands it to the relation's [`ShardedIndex`], where the planner
//! (fed by per-shard statistics derived from the trees, summed over the
//! relation's shards) picks the cheapest physical operator once per
//! statement, and that one operator runs. [`Catalog::execute`],
//! [`Catalog::run`] and the batch paths are thin wrappers over it.
//! `EXPLAIN` / `EXPLAIN ANALYZE` surface the choice.
//!
//! A relation is its [`Labels`] and its [`ShardedIndex`], and nothing
//! else: each series is held once, by the shard that owns it — in memory,
//! or in the shard's record file once paged. A named query source, an
//! export and [`Catalog::relation`] read series through
//! [`ShardedIndex::series`], and a save through each shard, whichever the
//! storage.
//!
//! Every relation's index has n >= 1 shards — there is no
//! second, unsharded code path. `register` builds one hash shard;
//! `SHARD <rel> INTO <n> BY HASH` rebuilds with n. Range and k-NN
//! statements run scatter-gather ([`ShardedIndex::execute`]): the one
//! plan fans over the worker pool and a typed merge reassembles the
//! answer; joins and subsequence statements run once. With one shard
//! nothing is scattered, and what a
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
//!   [`ShardedIndex`], which owns the subsequence ST-index it builds on
//!   first use (who locks and who replaces it: `tsq_core::shard`). Replacing a
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
use std::path::PathBuf;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use tsq_core::plan::{ExecStats, LogicalPlan, PlanRows, QueryOptions};
use tsq_core::shard::{
    render_sharded_analyze, render_sharded_plan, sharded_plan_name, ShardSpec, ShardedIndex,
};
use tsq_core::{executor, IndexConfig, Labels, LinearTransform, QueryWindow, SeriesRelation};
use tsq_series::TimeSeries;

use crate::ast::{AppendRow, Query, Source, TransformSpec, WindowSpec};
use crate::error::LangError;

/// One registered relation: its labels (name resolution, answer
/// labelling) and its index — n >= 1 shards, each with its whole-match
/// R\*-tree, planner statistics and its series' records, and the one
/// ST-index it holds, if any. Each series is held once, by its shard: in
/// memory, or in the shard's record file once paged.
#[derive(Debug)]
pub(crate) struct Relation {
    pub(crate) labels: Labels,
    pub(crate) index: ShardedIndex,
    /// The labelled relation [`Catalog::relation`] reads out of the index
    /// on its first call, kept until the next `APPEND`; nothing else fills
    /// it.
    materialized: OnceLock<SeriesRelation>,
}

impl Relation {
    /// The relation `labels` name over `index`, nothing materialized.
    pub(crate) fn new(labels: Labels, index: ShardedIndex) -> Self {
        Relation {
            labels,
            index,
            materialized: OnceLock::new(),
        }
    }

    /// The series labelled `label`, read through the index: a shared
    /// buffer in memory, a copy of its record when paged.
    fn series_by_label(&self, label: &str) -> Result<Option<TimeSeries>, LangError> {
        let id = self.labels.id(label);
        Ok(id.map(|id| self.index.series(id)).transpose()?)
    }

    /// Every series in id order, read through the index.
    fn all_series(&self) -> Result<Vec<TimeSeries>, LangError> {
        let series = (0..self.labels.len()).map(|id| self.index.series(id));
        Ok(series.collect::<Result<_, _>>()?)
    }

    /// The labelled relation, read out of the index by the first call
    /// (`None` while a record file cannot be read).
    fn materialized(&self) -> Option<&SeriesRelation> {
        if let Some(rel) = self.materialized.get() {
            return Some(rel);
        }
        let series = self.all_series().ok()?;
        let rel = SeriesRelation::from_labels(self.labels.clone(), series).ok()?;
        Some(self.materialized.get_or_init(|| rel))
    }
}

/// A catalog of named relations with their similarity indexes.
///
/// Whole-sequence indexes are built eagerly at registration (every query
/// form needs one); a subsequence ST-index depends on a `WINDOW` length,
/// so the relation's [`ShardedIndex`] builds and keeps one on first use —
/// `execute` stays `&self`.
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
        let (name, relation) = indexed(self.config, relation)?;
        self.relations.insert(name, relation);
        Ok(())
    }

    /// Shard layout of a relation: `((shortest, longest) series length,
    /// shard count, per-shard series counts)`, read off its index alone —
    /// no sample of a paged relation is read. The lengths are `(0, 0)` for
    /// an empty relation; `None` for an unknown one.
    pub fn shard_layout(&self, name: &str) -> Option<((usize, usize), usize, Vec<usize>)> {
        let parts = self.relations.get(name)?.index.parts();
        let held = parts.iter().filter(|part| !part.is_empty());
        let lens = held
            .map(|part| part.len_bounds())
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)));
        let sizes = parts.iter().map(|part| part.len()).collect();
        Some((lens.unwrap_or((0, 0)), parts.len(), sizes))
    }

    /// The base window a relation holds its subsequence ST-index at, if it
    /// holds one (`None` too for an unknown relation).
    pub fn subseq_window(&self, name: &str) -> Option<usize> {
        let (window, _) = self.relations.get(name)?.index.subseq_held()?;
        Some(window)
    }

    /// The files a relation restored by [`Catalog::open_paged`] reads, and
    /// will remove when it drops: per shard, in shard order, its node page
    /// file and its record file, then its held ST-index's trail file once
    /// built. Empty for an in-memory or unknown relation.
    pub fn paged_files(&self, name: &str) -> Vec<PathBuf> {
        let Some(relation) = self.relations.get(name) else {
            return Vec::new();
        };
        let mut files = Vec::new();
        for part in relation.index.parts() {
            files.extend(part.paged().map(|tree| tree.path().to_path_buf()));
            files.extend(part.records().map(|records| records.path().to_path_buf()));
        }
        if let Some((_, Some(trails))) = relation.index.subseq_held() {
            files.extend(trails.paged().map(|tree| tree.path().to_path_buf()));
        }
        files
    }

    /// Looks up a relation. A catalog relation holds its labels and its
    /// index, which holds each series once: the first call here
    /// materializes the labelled relation from the index — in memory, a
    /// handle per series sharing the shard's buffer; paged, a copy of every
    /// sample read from the record files — and keeps it until the next
    /// `APPEND` to the relation (`None` while a record file cannot be
    /// read). No statement, `EXPLAIN`, save or export does: they read
    /// samples through the index.
    pub fn relation(&self, name: &str) -> Option<&SeriesRelation> {
        self.relations.get(name)?.materialized()
    }

    /// Every series of a relation, in id order — what the shell's CSV
    /// `save` writes — read through its index.
    ///
    /// # Errors
    /// [`LangError::Resolve`] for an unknown relation; typed
    /// [`tsq_core::Error::Store`] failures when a record file cannot be
    /// read.
    pub fn export(&self, name: &str) -> Result<Vec<TimeSeries>, LangError> {
        self.resolve_relation(name)?.all_series()
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
                .series_by_label(label)?
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
    /// `Catalog::shard`, everything else to [`Catalog::execute`].
    /// Shells and single-owner embedders use this; shared topologies
    /// route through [`SharedCatalog::run`], which takes the write lock
    /// only for mutations.
    pub fn run_mut(&mut self, src: &str) -> Result<QueryOutput, LangError> {
        let query = crate::parser::parse(src)?;
        match &query {
            Query::Append { relation, rows } => self.append(relation, rows),
            Query::Shard { relation, count } => self.shard(relation, *count),
            _ => self.execute(&query),
        }
    }

    /// Applies a `SHARD <rel> INTO <n> BY HASH` statement: partitions the
    /// relation's series over `n` shards by FNV-1a label hash
    /// ([`ShardSpec::hash`]) and rebuilds one index per shard from the
    /// records the relation holds — their features move with them, under
    /// the relation's own configuration ([`ShardedIndex::reshard`]).
    /// Range and k-NN statements then execute scatter-gather with answers
    /// byte-identical to a one-shard relation's; joins and subsequence
    /// statements run once, over the whole relation. `INTO 1` is that one
    /// shard again, and reports like it. The relation's ST-index and
    /// its window survive: resharding keeps every global id, so the index
    /// over them stays valid (and built, if it was), and a save writes the
    /// window as before.
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
    pub(crate) fn shard(&mut self, relation: &str, count: usize) -> Result<QueryOutput, LangError> {
        self.resolve_relation(relation)?;
        let Relation { labels, index, .. } =
            self.relations.get_mut(relation).expect("resolved above");
        if index.is_paged() {
            return Err(LangError::Engine(tsq_core::Error::Unsupported(
                "SHARD a relation with paged storage attached (the page file is immutable)"
                    .to_string(),
            )));
        }
        let labels: Vec<&str> = (0..labels.len())
            .map(|id| labels.label(id).expect("id < len"))
            .collect();
        index.reshard(ShardSpec::hash(count)?, &labels)?;
        let rows = (0..index.shard_count())
            .map(|s| Row {
                a: format!("shard{s}"),
                b: None,
                offset: None,
                distance: index.map().members(s).len() as f64,
            })
            .collect();
        Ok(QueryOutput {
            rows,
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
    /// - each touched series is built once, at its statement-end length:
    ///   the index's value ([`ShardedIndex::series`]) followed by the
    ///   statement's tail ([`TimeSeries::try_extend`], a copy into a new
    ///   buffer); an unknown label takes the relation's next id
    ///   ([`Labels::push`]) and starts a new series (the relation is then
    ///   ragged until appends even the lengths out);
    /// - each owning shard's whole-series index is handed those values,
    ///   holds them in place of the old ones, re-extracts features for
    ///   those series only and drops its R\*-tree and planner statistics
    ///   ([`ShardedIndex::extend_series_batch`] /
    ///   [`ShardedIndex::push_series_batch`]); the next whole-match
    ///   statement or `EXPLAIN` packs them once, as a fresh build over the
    ///   final data would — an `APPEND`, a `save` and an executed
    ///   subsequence statement never do;
    /// - the same two calls hand the values to the subsequence ST-index
    ///   the relation holds, next to the shard's features — its trails
    ///   resume the sliding-DFT recurrence at `O(k)` per appended point
    ///   and keep the new length, not the samples — clone-on-write so
    ///   in-flight readers keep their consistent pre-append snapshot;
    /// - the labelled relation [`Catalog::relation`] kept, if any, is
    ///   dropped: its next call reads the appended one.
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
        let Relation { labels, index, .. } = self.resolve_relation(relation)?;
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
        // Each touched series, built once at its statement-end length and
        // checked against the schema.
        let mut edits: Vec<(usize, TimeSeries)> = Vec::new();
        let mut pushed: Vec<(&str, TimeSeries)> = Vec::new();
        // One answer row per distinct label, in first-touch order.
        let mut out_rows = Vec::with_capacity(tails.len());
        for (label, tail) in tails {
            let appended = tail.len();
            let id = labels.id(label);
            let series = match id {
                Some(id) => {
                    let mut series = index.series(id)?;
                    series.try_extend(&tail).expect("checked finite");
                    series
                }
                None => TimeSeries::try_new(tail).expect("checked finite"),
            };
            schema.validate(series.len()).map_err(LangError::Engine)?;
            out_rows.push(Row {
                a: label.to_string(),
                b: None,
                offset: Some(series.len()),
                distance: appended as f64,
            });
            match id {
                Some(id) => edits.push((id, series)),
                None => pushed.push((label, series)),
            }
        }
        // Apply phase: validated above, so no step below can fail. Each
        // extended and each new series routes to its owning shard — one
        // batch per touched shard — which drops its tree and planner
        // statistics; the relation's built ST-index takes them by global id.
        let Relation {
            labels,
            index,
            materialized,
        } = self.relations.get_mut(relation).expect("resolved above");
        for (label, _) in &pushed {
            labels.push(label).expect("label is new");
        }
        materialized.take();
        if !edits.is_empty() {
            index.extend_series_batch(edits).expect("validated upfront");
        }
        if !pushed.is_empty() {
            index.push_series_batch(pushed).expect("validated upfront");
        }
        Ok(QueryOutput {
            rows: out_rows,
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
    /// lower to a [`LogicalPlan`], run it on the relation
    /// ([`ShardedIndex::execute`]: the cost-based planner picks the
    /// cheapest [`tsq_core::PhysicalPlan`] once for the relation; a range
    /// or k-NN statement on several shards scatters it and the typed merge
    /// reassembles the global answer), and attach labels. The output
    /// carries the statement's counters and, for a scattered statement,
    /// the per-shard breakdown they sum.
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
        let relation = self.resolve_relation(logical.relation())?;
        let (labels, index) = (&relation.labels, &relation.index);
        let width = scatter_width(index.shard_count(), &options);
        let outcome = index.execute(&logical, options.force, width)?;
        let plan = sharded_plan_name(index, &logical, &outcome.plan);
        let mut out = label_output(labels, outcome.rows, outcome.merged, plan);
        out.shard_stats = outcome.per_shard;
        Ok(out)
    }

    /// Plans a query and renders the plan tree without executing it
    /// (`EXPLAIN`); with `analyze`, also runs the chosen plan and appends
    /// the actual counters (`EXPLAIN ANALYZE`). The rendered text is in
    /// [`QueryOutput::explain`]; `ANALYZE` outputs carry the run's
    /// [`ExecStats`] (rows are never returned — the plan is the answer).
    /// A statement renders its one plan; on a scattered statement
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
        // Planning executes no statement: a held window that can answer
        // the statement is built if it is not yet (as its first statement
        // would build it); otherwise the probe is planned, and rendered,
        // as cold.
        let plan = index.plan_shards(&logical, options.force)?;
        let mut text = render_sharded_plan(&logical, index, &plan);
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
            stats: exec,
            shard_stats,
            plan: sharded_plan_name(index, &logical, &plan),
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

/// How many shards of a range or k-NN statement to probe concurrently
/// (joins and subsequence statements are not scattered): the smaller of
/// the clamped thread override and the `shards` override, never exceeding
/// the shard count and never zero.
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

    /// Registers a relation: its index is built with no lock held, so the
    /// build blocks no reader, then put in place under the write lock.
    ///
    /// # Errors
    /// Propagates index-construction failures.
    pub fn register(&self, relation: SeriesRelation) -> Result<(), LangError> {
        let config = self.read().config;
        let (name, relation) = indexed(config, relation)?;
        self.write().relations.insert(name, relation);
        Ok(())
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
    /// `Catalog::shard`.
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
            Query::Shard { relation, count } => self.write().shard(relation, *count),
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

/// A relation's name and its catalog entry, its one-shard index built
/// under `config`.
fn indexed(config: IndexConfig, relation: SeriesRelation) -> Result<(String, Relation), LangError> {
    let name = relation.name().to_string();
    let index = ShardedIndex::build(config, &relation, ShardSpec::hash(1)?)?;
    Ok((name, Relation::new(relation.into_labels(), index)))
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
                summary.nodes_visited += out.stats.nodes_visited;
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
fn label_output(rel: &Labels, rows: PlanRows, stats: ExecStats, plan: String) -> QueryOutput {
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
    /// Full execution counters (candidates, refines, disk accesses). For
    /// a relation of several shards this is the exact sum of
    /// [`Self::shard_stats`].
    pub stats: ExecStats,
    /// Per-shard execution counters of a scatter-gather run, in shard
    /// order — empty for one-shard relations, for subsequence statements
    /// (which probe the relation's one ST-index) and for mutations.
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
pub(crate) fn resolve_transforms(
    specs: &[TransformSpec],
    n: usize,
) -> Result<LinearTransform, LangError> {
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
        assert!(tight.stats.nodes_visited > 0);
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
            .values()
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
        assert_eq!(cat.subseq_window("walks"), Some(32));
        assert_eq!(cat.subseq_window("nope"), None);
    }

    #[test]
    fn register_invalidates_subseq_cache() {
        let mut cat = catalog();
        cat.run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 32")
            .unwrap();
        assert_eq!(cat.subseq_window("walks"), Some(32));
        let replacement =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(77).relation(10, 32))
                .unwrap();
        cat.register(replacement).unwrap();
        assert_eq!(cat.subseq_window("walks"), None);
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

    /// The ST-index `rel` holds, built.
    fn st_index_of(cat: &Catalog, rel: &str) -> Arc<tsq_core::TrailIndex> {
        let (_, built) = cat.relations[rel].index.subseq_held().expect("held");
        built.expect("built")
    }

    #[test]
    fn one_st_index_serves_every_longer_window_and_a_shorter_one_replaces_it() {
        let mut cat = Catalog::new();
        let long = RandomWalkGenerator::new(52).relation(12, 160);
        cat.register(SeriesRelation::from_series("long", long).unwrap())
            .unwrap();
        // Window 64 builds; 96 and 128 probe that one build by prefix.
        cat.run(&window_probe("long", 64)).unwrap();
        let first = st_index_of(&cat, "long");
        for w in [96, 128] {
            cat.run(&window_probe("long", w)).unwrap();
            assert_eq!(cat.subseq_window("long"), Some(64), "window {w}");
            assert!(
                Arc::ptr_eq(&st_index_of(&cat, "long"), &first),
                "window {w}"
            );
        }
        // Window 32 is the second build, and the last: 64 is now served by
        // prefix too.
        cat.run(&window_probe("long", 32)).unwrap();
        let second = st_index_of(&cat, "long");
        assert!(!Arc::ptr_eq(&second, &first));
        assert_eq!(second.config().window, 32);
        assert_eq!(cat.subseq_window("long"), Some(32));
        cat.run(&window_probe("long", 64)).unwrap();
        assert!(Arc::ptr_eq(&st_index_of(&cat, "long"), &second));
        assert_eq!(cat.subseq_window("long"), Some(32));
    }

    #[test]
    fn reregister_interleaved_with_cache_fills_keeps_each_relation_its_own_window() {
        // A relation's ST-index lives and dies with its index, so
        // interleaving re-registers with filling queries must drop exactly
        // the replaced relation's, and a shorter window replaces only its
        // own relation's.
        let mut cat = catalog();
        cat.register(
            SeriesRelation::from_series("other", RandomWalkGenerator::new(8).relation(12, 32))
                .unwrap(),
        )
        .unwrap();
        let windows = |cat: &Catalog| (cat.subseq_window("walks"), cat.subseq_window("other"));
        cat.run(&window_probe("walks", 6)).unwrap();
        cat.run(&window_probe("other", 9)).unwrap();
        cat.run(&window_probe("other", 5)).unwrap();
        cat.run(&window_probe("walks", 7)).unwrap();
        assert_eq!(windows(&cat), (Some(6), Some(5)));
        // Re-register `walks` mid-stream: only its window vanishes.
        let replacement =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(91).relation(20, 32))
                .unwrap();
        cat.register(replacement).unwrap();
        assert_eq!(windows(&cat), (None, Some(5)));
        cat.run(&window_probe("walks", 20)).unwrap();
        cat.run(&window_probe("other", 20)).unwrap();
        cat.run(&window_probe("walks", 4)).unwrap();
        assert_eq!(windows(&cat), (Some(4), Some(5)));
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
            assert_eq!(cat.subseq_window("walks"), Some(8));
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
        // on the append schedule (`TrailIndex::extend_series`), but a
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
        /// The window-8 ST-index of `walks`.
        fn st_index(cat: &Catalog) -> Arc<tsq_core::TrailIndex> {
            assert_eq!(cat.subseq_window("walks"), Some(8));
            st_index_of(cat, "walks")
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
        assert_eq!(index.length(0), Some(35));
        // An in-flight reader holding the Arc keeps its consistent
        // pre-append snapshot while the relation moves on (clone-on-write).
        let held = index;
        cat.run_mut("APPEND walks s0 VALUES (4)").unwrap();
        assert_eq!(held.length(0), Some(35));
        assert_eq!(st_index(&cat).length(0), Some(36));
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
        for count in [2usize, 3, 8] {
            let mut cat = catalog();
            let out = cat
                .run_mut(&format!("SHARD walks INTO {count} BY HASH"))
                .unwrap();
            assert_eq!(out.rows.len(), count);
            assert_eq!(out.plan, "Shard");
            for q in SHARD_QUERIES {
                let want = baseline.run(q).unwrap();
                let got = cat.run(q).unwrap();
                assert_eq!(got.rows, want.rows, "{count}: {q}");
                if q.contains("SUBSEQUENCE") {
                    // Not scattered: the relation's one ST-index answers.
                    assert_eq!(got, want, "{count}: {q}");
                    continue;
                }
                if q.starts_with("JOIN") {
                    // Not scattered: one plain plan over the relation.
                    assert!(got.shard_stats.is_empty(), "{count}: {q}");
                    assert!(got.plan.starts_with("Join"), "{count}: {q}");
                    continue;
                }
                // Merged counters are the exact sum of the per-shard
                // breakdown.
                assert_eq!(got.shard_stats.len(), count, "{q}");
                assert_eq!(got.stats, ExecStats::sum(&got.shard_stats), "{q}");
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

    /// Each part's features, bit for bit, and its tree as `{:?}` prints
    /// it (every node, entry and bound, in order).
    fn derived(index: &ShardedIndex) -> Vec<(Vec<u64>, String)> {
        let part = |part: &tsq_core::SimilarityIndex| {
            let bits = part.entries().iter().flat_map(|e| {
                let f = &e.features;
                let spectrum = f.spectrum.iter().flat_map(|c| [c.re, c.im]);
                [f.mean, f.std]
                    .into_iter()
                    .chain(spectrum)
                    .map(f64::to_bits)
            });
            (bits.collect(), format!("{:?}", part.tree()))
        };
        index.parts().iter().map(part).collect()
    }

    #[test]
    fn shard_moves_the_records_it_holds_onto_a_fresh_build() {
        for appended in [false, true] {
            for count in 1..=6 {
                let what = format!("into {count}, appended {appended}");
                let mut cat = catalog();
                if appended {
                    cat.run_mut("APPEND walks CSV (s0, 1.5, 2.5) (brand_new, 9, 8, 7) (s11, -1)")
                        .unwrap();
                }
                // From a sharded layout, so records change parts.
                cat.run_mut("SHARD walks INTO 4 BY HASH").unwrap();
                cat.run_mut(&format!("SHARD walks INTO {count} BY HASH"))
                    .unwrap();
                let (rel, index) = (
                    cat.relation("walks").unwrap(),
                    &cat.relations["walks"].index,
                );
                let spec = ShardSpec::hash(count).unwrap();
                let fresh = ShardedIndex::build(*index.config(), rel, spec).unwrap();
                assert_eq!(index.map(), fresh.map(), "{what}");
                assert!(derived(index) == derived(&fresh), "{what}");
            }
        }
    }

    #[test]
    fn shard_keeps_the_st_index_and_its_window() {
        const PROBE: &str =
            "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WITHIN 6 WINDOW 8";
        let mut cat = catalog();
        let want = cat.run(PROBE).unwrap();
        let built = st_index_of(&cat, "walks");
        let dir = std::env::temp_dir().join(format!("tsq-shard-keeps-st-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        for count in [3, 4, 1] {
            let at = format!("SHARD INTO {count}");
            cat.run_mut(&format!("SHARD walks INTO {count} BY HASH"))
                .unwrap();
            // Global ids survive a reshard, so the built index does too.
            assert_eq!(cat.subseq_window("walks"), Some(8), "{at}");
            assert!(Arc::ptr_eq(&st_index_of(&cat, "walks"), &built), "{at}");
            let explain = cat.run(&format!("EXPLAIN {PROBE}")).unwrap();
            let text = explain.explain.unwrap();
            assert!(!text.contains("[cold"), "{at}: {text}");
            assert_eq!(cat.run(PROBE).unwrap(), want, "{at}");
            // A save writes the window; an open holds it again.
            cat.save(&path).unwrap();
            let mut opened = Catalog::new();
            opened.open(&path).unwrap();
            assert_eq!(opened.subseq_window("walks"), Some(8), "{at}");
            assert_eq!(opened.shard_layout("walks"), cat.shard_layout("walks"));
            assert_eq!(opened.run(PROBE).unwrap(), want, "{at}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_keeps_the_relations_own_config() {
        // A relation restored into a catalog of another configuration keeps
        // its own, and so does every part SHARD makes of it.
        let mut own = IndexConfig {
            bulk_load: false,
            ..IndexConfig::default()
        };
        own.rtree.max_entries = 8;
        own.rtree.min_entries = 3;
        own.rtree.reinsert_count = 2;
        let mut saved = Catalog::with_config(own);
        let rel =
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(51).relation(60, 32));
        saved.register(rel.unwrap()).unwrap();
        let dir = std::env::temp_dir().join(format!("tsq-shard-config-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.tsq");
        saved.save(&path).unwrap();
        let mut cat = Catalog::new();
        cat.open(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        cat.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        let index = &cat.relations["walks"].index;
        assert_eq!(index.shard_count(), 3);
        for part in index.parts() {
            assert_eq!(part.config().rtree, own.rtree);
            assert!(!part.config().bulk_load);
            part.tree().validate();
        }
    }

    #[test]
    fn shard_into_one_restores_unsharded_execution() {
        let baseline = catalog();
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 4 BY HASH").unwrap();
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
        cat.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        // Hold a window; it travels with the snapshot like a one-shard
        // relation's.
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
        assert_eq!(restored.subseq_window("walks"), Some(8));
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

    #[test]
    fn no_engine_path_materializes_a_paged_relation() {
        let dir = std::env::temp_dir().join(format!("tsq-paged-labels-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        let mut cat = catalog();
        cat.run_mut("SHARD walks INTO 3 BY HASH").unwrap();
        cat.save(&path).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        let materialized = |cat: &Catalog| -> Vec<bool> {
            let relations = cat.relations.values();
            relations
                .map(|rel| rel.materialized.get().is_some())
                .collect()
        };
        let statements = [
            "FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5",
            "FIND 3 NEAREST TO walks.s2 IN walks APPLY mavg(4) WITH (force = scan)",
            "JOIN walks WITHIN 1.0 WITH (force = scan)",
            "FIND SUBSEQUENCE OF walks.s5 IN walks WITHIN 4 WINDOW 32",
            "EXPLAIN ANALYZE FIND 4 NEAREST TO walks.s3 IN walks",
            "EXPLAIN FIND SIMILAR TO walks.s0 IN walks WITHIN 1",
        ];
        for q in statements {
            let (want, got) = (cat.run(q).unwrap(), paged.run(q).unwrap());
            assert_eq!((got.rows, got.plan), (want.rows, want.plan), "{q}");
        }
        assert_eq!(
            paged.snapshot_bytes().unwrap(),
            cat.snapshot_bytes().unwrap()
        );
        paged.save(&dir.join("again.tsq")).unwrap();
        let exported = paged.export("walks").unwrap();
        assert_eq!(exported, cat.export("walks").unwrap());
        assert_eq!(paged.shard_layout("walks"), cat.shard_layout("walks"));
        assert_eq!(materialized(&paged), vec![false]);
        // The one path that does: `relation`, on its first call, and only
        // for the relation it names.
        let rel = paged.relation("walks").unwrap();
        assert_eq!(rel.series(), cat.relation("walks").unwrap().series());
        assert_eq!(
            rel.get_by_label("s7"),
            cat.relation("walks").unwrap().get_by_label("s7")
        );
        assert_eq!(materialized(&paged), vec![true]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relation_reads_after_an_append_see_the_append() {
        const APPEND: &str = "APPEND walks CSV (s0, 1.5, 2.5) (fresh, 1, 2, 3, 4, 5, 6, 7, 8, 9)";
        let s0 = catalog().relation("walks").unwrap().series()[0].clone();
        let appended = [s0.values(), &[1.5, 2.5]].concat();
        let fresh: Vec<f64> = (1..=9).map(f64::from).collect();
        let check = |rel: Option<&SeriesRelation>, step: &str| {
            let rel = rel.expect(step);
            assert_eq!(rel.len(), 61, "{step}");
            assert_eq!(rel.get_by_label("s0").unwrap().values(), appended, "{step}");
            assert_eq!(rel.label(60), Some("fresh"), "{step}");
            assert_eq!(rel.get_by_label("fresh").unwrap().values(), fresh, "{step}");
        };
        let mut cat = catalog();
        let before = cat.relation("walks").unwrap();
        assert_eq!((before.len(), before.get_by_label("fresh")), (60, None));
        assert_eq!(before.get_by_label("s0"), Some(&s0));
        cat.run_mut(APPEND).unwrap();
        check(cat.relation("walks"), "Catalog::relation after the append");

        let shared = SharedCatalog::new(catalog());
        shared.with_relation("walks", |rel| {
            let rel = rel.unwrap();
            assert_eq!((rel.len(), rel.get_by_label("s0")), (60, Some(&s0)));
        });
        shared.run(APPEND).unwrap();
        shared.with_relation("walks", |rel| check(rel, "with_relation after the append"));

        // Paged: `relation` reads the record files, and an APPEND is still
        // refused, leaving what it reads as it was.
        let dir = std::env::temp_dir().join(format!("tsq-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        cat.save(&path).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        check(paged.relation("walks"), "open_paged");
        match paged.run_mut("APPEND walks CSV (s0, 3.5)") {
            Err(LangError::Engine(tsq_core::Error::Unsupported(msg))) => {
                assert!(msg.contains("paged"), "{msg}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        check(paged.relation("walks"), "open_paged, the append refused");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sharing oracle: for every label of every in-memory relation,
    /// the series [`Catalog::relation`] hands out and its owning shard's
    /// stored record are one and the same buffer, and the built ST-index,
    /// which holds no samples, knows its length. (A paged relation's
    /// shards hold no samples.)
    fn assert_one_buffer_per_series(cat: &Catalog, step: &str) {
        for (name, relation) in &cat.relations {
            let index = &relation.index;
            if index.is_paged() {
                continue;
            }
            let labels = cat.relation(name).expect(step);
            let built = index.subseq_held().and_then(|(_, built)| built);
            for id in 0..labels.len() {
                let held = labels.get(id).unwrap();
                let (shard, local) = index.map().owner(id).unwrap();
                let stored = &index.parts()[shard].entries()[local].series;
                let at = format!("{step}: {name}.{}", labels.label(id).unwrap());
                assert_eq!(stored.len(), held.len(), "{at}");
                assert_eq!(stored.values().as_ptr(), held.values().as_ptr(), "{at}");
                if let Some(st) = &built {
                    assert_eq!(st.length(id), Some(held.len()), "{at}: ST-index");
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
            let held = cat.relations["walks"].index.subseq_held();
            let (window, parts) = held.expect(step);
            assert_eq!(window, 8, "{step}");
            assert!(parts.is_some(), "{step}");
            assert_one_buffer_per_series(cat, step);
        };
        let mut cat = catalog();
        assert_one_buffer_per_series(&cat, "register");
        probe(&cat, "window built");
        // SHARD moves the records and keeps the ST-index over them.
        cat.run_mut("SHARD walks INTO 4 BY HASH").unwrap();
        assert_one_buffer_per_series(&cat, "4 hash shards");
        probe(&cat, "4 hash shards, window built");
        cat.run_mut("SHARD walks INTO 1 BY HASH").unwrap();
        probe(&cat, "back to 1 shard, window built");
        cat.run_mut("SHARD walks INTO 4 BY HASH").unwrap();
        probe(&cat, "4 hash shards again");
        cat.run_mut("APPEND walks CSV (s7, 1.5, 2.5) (fresh, 1, 2, 3, 4, 5, 6, 7, 8, 9) (s7, -1)")
            .unwrap();
        assert_eq!(cat.relation("walks").unwrap().get(7).unwrap().len(), 35);
        assert_eq!(cat.relation("walks").unwrap().len(), 61);
        assert_eq!(cat.subseq_window("walks"), Some(8));
        assert_one_buffer_per_series(&cat, "append to a known and a new label");

        let dir = std::env::temp_dir().join(format!("tsq-one-buffer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        cat.save(&path).unwrap();
        // A restore holds the window unbuilt; its first statement builds
        // it over the restored series.
        let mut opened = Catalog::new();
        opened.open(&path).unwrap();
        assert_eq!(opened.subseq_window("walks"), Some(8));
        assert_one_buffer_per_series(&opened, "save -> open");
        probe(&opened, "save -> open, window built");
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        assert_eq!(paged.subseq_window("walks"), Some(8));
        probe(&paged, "open_paged, window built");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bytes charged to the frames of every live handle onto a paged
    /// catalog's cache: each shard's node and record files, and the held
    /// ST-index's trail file.
    fn live_frame_bytes(cat: &Catalog) -> u64 {
        let mut bytes = 0;
        for relation in cat.relations.values() {
            let index = &relation.index;
            for part in index.parts() {
                let (Some(tree), Some(records)) = (part.paged(), part.records()) else {
                    continue;
                };
                let pool = records.pool();
                bytes += (tree.pool().resident_pages() * tree.page_size()) as u64;
                bytes += (pool.resident_pages() * records.frame_size()) as u64;
            }
            if let Some((_, Some(trails))) = index.subseq_held() {
                if let Some(tree) = trails.paged() {
                    bytes += (tree.pool().resident_pages() * tree.page_size()) as u64;
                }
            }
        }
        bytes
    }

    #[test]
    fn dead_files_leave_the_cache() {
        // A statement shorter than the held window replaces the ST-index,
        // and with it its trail file; re-registering a paged relation
        // drops its node and record files. Their frames go with them:
        // after every step the cache holds its live handles' frames alone,
        // within the budget.
        let dir = std::env::temp_dir().join(format!("tsq-dead-frames-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.tsq");
        let mut cat = catalog();
        let walks = RandomWalkGenerator::new(53).relation(500, 128);
        cat.register(SeriesRelation::from_series("big", walks.clone()).unwrap())
            .unwrap();
        cat.save(&path).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        let part = &paged.relations["big"].index.parts()[0];
        let cache = Arc::clone(part.paged().unwrap().pool().cache());
        let check = |cat: &Catalog, what: &str| {
            let resident = cache.resident_bytes();
            assert!(resident <= cache.budget(), "{what}: {resident} B resident");
            assert_eq!(
                live_frame_bytes(cat),
                resident,
                "{what}: a dead file's frames"
            );
        };
        let mut replaced = 0;
        for (step, window) in [64, 56, 48, 40, 32, 24, 16, 12, 10, 8]
            .into_iter()
            .enumerate()
        {
            let held = paged.subseq_window("big");
            let pattern: Vec<String> = walks[step].values()[..window]
                .iter()
                .map(|v| v.to_string())
                .collect();
            paged
                .run(&format!(
                    "FIND 3 NEAREST SUBSEQUENCE OF [{}] IN big WINDOW {window}",
                    pattern.join(", ")
                ))
                .unwrap();
            replaced += usize::from(held.is_some_and(|w| w > window));
            check(&paged, &format!("window {window}"));
            paged
                .run("FIND SIMILAR TO big.s1 IN big WITHIN 2 WITH (force = scan)")
                .unwrap();
            check(&paged, &format!("a scan after window {window}"));
        }
        assert_eq!(
            replaced, 9,
            "every statement after the first replaced the ST-index"
        );
        assert!(
            cache.resident_bytes() > cache.budget() / 2,
            "the cache was filled"
        );
        paged
            .register(SeriesRelation::from_series("big", walks).unwrap())
            .unwrap();
        check(&paged, "big re-registered");
        paged.run("FIND 3 NEAREST TO walks.s1 IN walks").unwrap();
        check(&paged, "walks after the re-registration");
        std::fs::remove_dir_all(&dir).ok();
    }
}
