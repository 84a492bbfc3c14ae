//! Sharded execution: a single-process rehearsal for distributing the
//! paper's filter-and-refine pipeline.
//!
//! A relation is partitioned into `N >= 1` shards by a hash of each
//! series label, and every shard gets its own [`SimilarityIndex`]. This
//! is the only shape a catalog relation has: a freshly registered one is
//! a single hash shard.
//!
//! **One plan per statement; joins are not scattered.** A statement is
//! bound once (validated, its query transformed and its search rectangle
//! built — shards share one configuration and series length) and planned
//! once, for the relation: the [`crate::plan::Planner`] costs each
//! operator over all of the relation's active shards, and that one
//! operator runs. A join runs once over the relation's records, in
//! global-id order (`crate::queries`), as does a subsequence statement
//! (below). Only a range or k-NN statement is scattered: its plan runs on
//! every active shard concurrently, on the worker pool
//! ([`crate::executor::parallel_map`]), and a typed merge reassembles the
//! global answer:
//!
//! | form | merge |
//! |------|-------|
//! | range | threshold-union: concatenate, remap to global ids, sort by id |
//! | k-NN | bounded k-way merge by `(distance, id)` — deterministic ties |
//!
//! **Correctness bar.** Rows — values *and* order — are byte-identical to
//! the unsharded engine for every query form. A scattered statement's
//! merged [`ExecStats`] are the exact sum of the per-shard counters
//! (buffer-pool traffic included), which are reported per shard; for
//! scan-forced plans those sums also equal the unsharded counters
//! exactly, while index-plan traversal counters legitimately differ (N
//! small trees are not one big tree). A statement that runs once reports
//! its own counters and no per-shard breakdown.
//!
//! Within a shard, members keep their global-id order, so local ids are
//! order-isomorphic to global ids — per-shard `(distance, local id)`
//! tie-breaking therefore agrees with the global `(distance, id)` rule
//! the k-way merge applies.
//!
//! **One shard is the unsharded engine.** With `N = 1` nothing is
//! scattered (local ids *are* global ids). What a client sees of such a
//! relation is what it always saw of an unsharded one, and that rule is
//! kept here and nowhere else: [`sharded_plan_name`] names the plain
//! operator (`IndexRange`, not `Sharded(1):IndexRange`),
//! [`render_sharded_plan`] / [`render_sharded_analyze`] render the plain
//! `EXPLAIN [ANALYZE]` tree and [`ShardedOutcome::per_shard`] is empty.
//!
//! **A relation owns one ST-index.** The [`ShardedIndex`] holds at most
//! one [`TrailIndex`] — FRM's one trail tree over the relation's windows,
//! above the shards, over global series ids in id order — at one base
//! window `w`: the window of the relation's first subsequence statement,
//! or the one a restore brings back. A subsequence statement is not
//! scattered: it is planned and run once, and reports as on one shard,
//! counters included. A statement of length `L >= w` probes
//! it by PrefixSearch ([`crate::SubseqIndex::subseq_range`]); a statement
//! shorter than `w` replaces it with one at `L`, so `w` only ever
//! shrinks and alternating lengths cannot rebuild back and forth. The held
//! index is a cell that starts empty and is filled once, by the first
//! subsequence statement or `EXPLAIN` that needs it, with a build that
//! reads the records and keeps no sample; racing first readers wait.
//! *Who owns:* the
//! `ShardedIndex`, so whatever replaces it (`register`, a restore) drops
//! the cell with it and nothing is ever invalidated; `SHARD` keeps it, as
//! resharding keeps every global id; a clone shares the cell by `Arc`.
//! *Who locks:* [`ShardedIndex::execute`] stays `&self` — a statement the
//! held cell serves takes the read lock; a new cell is held under the
//! write lock, after the bind (a rejected statement holds and builds
//! nothing); the build runs outside the lock; [`ShardedIndex::plan_shards`]
//! holds nothing; appends hold `&mut self` and extend a filled cell
//! clone-on-write, so a reader keeps its pre-append snapshot, and give an
//! empty cell shared with a clone a fresh one, so each builds over its own
//! series. The lock recovers from poisoning: it guards an `Arc`, and no
//! user code runs under it.

use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, TryLockError};

use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::executor::{default_threads, parallel_map};
use crate::index::{IndexConfig, Match, SimilarityIndex, StoredSeries};
use crate::plan::{
    execute_bound, execute_subseq, plan_relation, plan_subseq, render_analyze, render_plan,
    render_plan_over, run_join, Bound, ExecStats, ForceOp, LogicalPlan, PhysicalOp, PlanChoice,
    PlanRows,
};
use crate::relation::SeriesRelation;
use crate::subseq::{SubseqConfig, TrailIndex};

/// 64-bit FNV-1a over the label bytes — tiny, dependency-free, and
/// stable across platforms and sessions (snapshots rely on it).
pub(crate) fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic label → shard assignment rule: FNV-1a of the label
/// (`hash_label`) modulo the shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    count: usize,
}

impl ShardSpec {
    /// Hash sharding into `count` shards.
    ///
    /// # Errors
    /// `count == 0` is rejected as [`Error::Unsupported`].
    pub fn hash(count: usize) -> Result<Self> {
        if count == 0 {
            return Err(Error::Unsupported(
                "SHARD count must be at least 1".to_string(),
            ));
        }
        Ok(ShardSpec { count })
    }

    /// Number of shards.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The shard a label belongs to.
    pub fn assign(&self, label: &str) -> usize {
        (hash_label(label) % self.count as u64) as usize
    }
}

/// The materialized assignment of one relation's series to shards.
/// Members are listed in ascending global-id order, so the local id of a
/// series is its rank among its shard's members — an order-preserving
/// embedding of local ids into global ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    spec: ShardSpec,
    members: Vec<Vec<usize>>,
    /// `owner[global] = (shard, local)`.
    owner: Vec<(usize, usize)>,
}

impl ShardMap {
    /// Assigns `labels` (in global-id order) to shards under `spec`. The
    /// rule is a pure function of the label, so this is also how a
    /// snapshot restores membership: it stores the rule, not the lists.
    pub fn build(spec: ShardSpec, labels: &[&str]) -> Self {
        let mut members = vec![Vec::new(); spec.count()];
        let mut owner = Vec::with_capacity(labels.len());
        for (global, label) in labels.iter().enumerate() {
            let shard = spec.assign(label);
            owner.push((shard, members[shard].len()));
            members[shard].push(global);
        }
        ShardMap {
            spec,
            members,
            owner,
        }
    }

    /// The assignment rule.
    pub(crate) fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Global ids of one shard's members, ascending.
    pub fn members(&self, shard: usize) -> &[usize] {
        &self.members[shard]
    }

    /// `(shard, local id)` of a global id.
    pub fn owner(&self, global: usize) -> Option<(usize, usize)> {
        self.owner.get(global).copied()
    }

    /// Global id of `(shard, local)`.
    pub(crate) fn to_global(&self, shard: usize, local: usize) -> usize {
        self.members[shard][local]
    }

    /// Total series across all shards.
    pub(crate) fn total(&self) -> usize {
        self.owner.len()
    }

    /// Registers a brand-new series (the next global id) and returns its
    /// `(shard, local)` slot.
    pub(crate) fn push_label(&mut self, label: &str) -> (usize, usize) {
        let shard = self.spec.assign(label);
        let local = self.members[shard].len();
        self.members[shard].push(self.owner.len());
        self.owner.push((shard, local));
        (shard, local)
    }
}

/// A relation's shards as a statement planned or run once reads them: the
/// parts, and the map that places their local ids among the relation's
/// global ids (`None` for one bare index, whose local ids are global).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shards<'a> {
    parts: &'a [SimilarityIndex],
    map: Option<&'a ShardMap>,
}

impl<'a> Shards<'a> {
    /// One bare index: a relation of one shard.
    pub(crate) fn one(index: &'a SimilarityIndex) -> Self {
        Shards {
            parts: std::slice::from_ref(index),
            map: None,
        }
    }

    /// Series across all shards.
    pub(crate) fn len(&self) -> usize {
        self.parts.iter().map(SimilarityIndex::len).sum()
    }

    /// Global id of `(shard, local)`.
    pub(crate) fn global(&self, shard: usize, local: usize) -> usize {
        self.map.map_or(local, |map| map.to_global(shard, local))
    }

    /// `(shard, index)` of every shard a statement reads, in shard order.
    /// Empty shards of a non-empty relation are skipped (their zero series
    /// length would reject the query the unsharded engine accepts); an
    /// entirely empty relation keeps shard 0, so validation and
    /// empty-answer behavior match the unsharded engine exactly.
    pub(crate) fn active(&self) -> impl Iterator<Item = (usize, &'a SimilarityIndex)> {
        let empty = self.len() == 0;
        let parts = self.parts.iter().enumerate();
        parts.filter(move |(s, part)| !part.is_empty() || (empty && *s == 0))
    }
}

/// One relation partitioned into per-shard [`SimilarityIndex`]es, each
/// holding its own tree and planner statistics, and the relation's one
/// ST-index above them.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    map: ShardMap,
    parts: Vec<SimilarityIndex>,
    subseq: SubseqSlot,
}

/// The relation's ST-index at its base window, over global series ids —
/// empty until a reader builds it.
#[derive(Debug)]
struct WindowCell {
    window: usize,
    built: OnceLock<Arc<TrailIndex>>,
    /// Held by the one reader building `built`.
    building: Mutex<()>,
}

impl WindowCell {
    fn new(window: usize) -> Self {
        WindowCell {
            window,
            built: OnceLock::new(),
            building: Mutex::default(),
        }
    }
}

impl Clone for WindowCell {
    /// What is built, or nothing: a build in flight stays its reader's.
    fn clone(&self) -> Self {
        WindowCell {
            window: self.window,
            built: self.built.clone(),
            building: Mutex::default(),
        }
    }
}

/// A relation's one held window, if any (see the module docs for who
/// owns, locks and replaces it). A clone shares the cell.
#[derive(Debug, Default)]
struct SubseqSlot(RwLock<Option<Arc<WindowCell>>>);

impl Clone for SubseqSlot {
    fn clone(&self) -> Self {
        SubseqSlot(RwLock::new(self.get()))
    }
}

impl SubseqSlot {
    /// The held cell, if any.
    fn get(&self) -> Option<Arc<WindowCell>> {
        self.0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The held cell when its window is at most `window`, so that it can
    /// answer a statement of that length.
    fn serving(&self, window: usize) -> Option<Arc<WindowCell>> {
        self.get().filter(|cell| cell.window <= window)
    }

    /// The cell a statement of length `window` probes: the held one when
    /// it serves, else a fresh cell at `window` that replaces it.
    fn hold(&self, window: usize) -> Arc<WindowCell> {
        let mut held = self.0.write().unwrap_or_else(PoisonError::into_inner);
        match &*held {
            Some(cell) if cell.window <= window => Arc::clone(cell),
            _ => Arc::clone(held.insert(Arc::new(WindowCell::new(window)))),
        }
    }

    /// The built ST-index, for an append to maintain in place.
    /// `Arc::make_mut` is clone-on-write: a query still traversing the
    /// pre-append index keeps its consistent snapshot. An empty cell shared
    /// with a clone is replaced by an empty one of its own, so neither side
    /// ever builds over the other's series.
    fn built_mut(&mut self) -> Option<&mut TrailIndex> {
        let held = self.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        let built = Arc::make_mut(held.as_mut()?).built.get_mut()?;
        Some(Arc::make_mut(built))
    }
}

/// The result of one statement on a sharded relation.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Global answer rows, byte-identical to the unsharded engine.
    pub rows: PlanRows,
    /// The statement's counters: for a scattered statement, the exact sum
    /// of the per-shard counters.
    pub merged: ExecStats,
    /// Per-shard counters of a scattered statement (zeros for shards
    /// skipped as empty). Empty for a statement that ran once — a join, a
    /// subsequence statement, anything on a one-shard relation: a
    /// breakdown would only repeat `merged`.
    pub per_shard: Vec<ExecStats>,
    /// Pre-merge row count each shard contributed, beside `per_shard`.
    pub per_shard_rows: Vec<usize>,
    /// The statement's one plan.
    pub plan: PlanChoice,
}

impl ShardedOutcome {
    /// The outcome of a statement that ran once.
    fn once((rows, merged): (PlanRows, ExecStats), plan: PlanChoice) -> Self {
        ShardedOutcome {
            rows,
            merged,
            per_shard: Vec::new(),
            per_shard_rows: Vec::new(),
            plan,
        }
    }
}

impl ShardedIndex {
    /// Partitions `rel` under `spec` and builds one index per shard.
    ///
    /// # Errors
    /// Index-build failures of any shard.
    pub fn build(config: IndexConfig, rel: &SeriesRelation, spec: ShardSpec) -> Result<Self> {
        let labels: Vec<&str> = (0..rel.len())
            .map(|id| rel.label(id).expect("id < len"))
            .collect();
        let map = ShardMap::build(spec, &labels);
        let mut parts = Vec::with_capacity(map.spec().count());
        for shard in 0..map.spec().count() {
            let series: Vec<TimeSeries> = map
                .members(shard)
                .iter()
                .map(|&g| rel.get(g).expect("member id valid").clone())
                .collect();
            parts.push(SimilarityIndex::build(config, series)?);
        }
        Self::from_parts(map, parts)
    }

    /// Re-partitions the series this index holds under `spec`, given the
    /// relation's labels in global-id order: each record — series and
    /// features — moves into its new part, and each part packs its tree.
    /// Features depend on the series alone, so every part is bit for bit
    /// the one [`ShardedIndex::build`] would extract, without one FFT. The
    /// relation keeps its own configuration, and its ST-index: global ids
    /// do not change, so neither does the index over them.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when `labels` does not name every series
    /// held; the index is then unchanged.
    pub fn reshard(&mut self, spec: ShardSpec, labels: &[&str]) -> Result<()> {
        if labels.len() != self.len() {
            return Err(Error::Unsupported(format!(
                "{} label(s) for {} series",
                labels.len(),
                self.len()
            )));
        }
        let config = *self.config();
        let map = ShardMap::build(spec, labels);
        let mut stores: Vec<Vec<StoredSeries>> = (0..map.spec().count())
            .map(|shard| Vec::with_capacity(map.members(shard).len()))
            .collect();
        // A part holds its members in ascending global order, so walking
        // the global ids takes each part's next record.
        let mut held: Vec<_> = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|part| part.into_records().into_iter())
            .collect();
        for global in 0..map.total() {
            let (from, _) = self.map.owner(global).expect("a held id");
            let (to, _) = map.owner(global).expect("a mapped id");
            stores[to].push(held[from].next().expect("a part holds its members"));
        }
        self.parts = stores
            .into_iter()
            .map(|store| SimilarityIndex::from_records(config, store))
            .collect();
        self.map = map;
        Ok(())
    }

    /// Assembles a sharded index from its parts — freshly built, or
    /// restored (snapshot open), either way holding their trees and planner
    /// statistics already.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when part count or membership disagrees
    /// with the map.
    pub fn from_parts(map: ShardMap, parts: Vec<SimilarityIndex>) -> Result<Self> {
        if parts.len() != map.spec().count() {
            return Err(Error::Unsupported(format!(
                "sharded snapshot holds {} parts for {} shards",
                parts.len(),
                map.spec().count()
            )));
        }
        for (shard, part) in parts.iter().enumerate() {
            if part.len() != map.members(shard).len() {
                return Err(Error::Unsupported(format!(
                    "shard {shard} holds {} series, map expects {}",
                    part.len(),
                    map.members(shard).len()
                )));
            }
        }
        Ok(ShardedIndex {
            map,
            parts,
            subseq: SubseqSlot::default(),
        })
    }

    /// Holds `window` without building it (snapshot open): its first
    /// subsequence statement or `EXPLAIN` of at least that length builds
    /// it. It replaces the window held so far, if any.
    ///
    /// # Errors
    /// [`Error::InvalidWindow`] for a window below 2.
    pub fn hold_window(&mut self, window: usize) -> Result<()> {
        SubseqConfig::new(window).validate()?;
        self.subseq = SubseqSlot(RwLock::new(Some(Arc::new(WindowCell::new(window)))));
        Ok(())
    }

    /// The base window this relation holds its ST-index at, if any, with
    /// the ST-index once built.
    pub fn subseq_held(&self) -> Option<(usize, Option<Arc<TrailIndex>>)> {
        let cell = self.subseq.get()?;
        Some((cell.window, cell.built.get().cloned()))
    }

    /// The ST-index a statement of length `window` probes: the held one
    /// when its window is at most `window`, else a fresh one at `window`,
    /// held in its place; either is built by the first reader of its cell
    /// (see the module docs for the locking).
    fn subseq_index(&self, window: usize) -> Result<Arc<TrailIndex>> {
        let cell = match self.subseq.serving(window) {
            Some(cell) => cell,
            None => {
                SubseqConfig::new(window).validate()?;
                self.subseq.hold(window)
            }
        };
        self.fill(&cell)
    }

    /// A held cell's index, built now if nobody has yet: by one reader,
    /// fanned out over the worker pool, while later first readers wait for
    /// it.
    ///
    /// # Errors
    /// What [`SimilarityIndex::record`] reports for a paged shard whose
    /// record file cannot be read; the cell stays empty then.
    fn fill(&self, cell: &WindowCell) -> Result<Arc<TrailIndex>> {
        if let Some(built) = cell.built.get() {
            return Ok(Arc::clone(built));
        }
        let config = SubseqConfig::new(cell.window);
        let build = || TrailIndex::build(config, self, default_threads()).map(Arc::new);
        let _building = match cell.building.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let guard = cell.building.lock();
                guard.unwrap_or_else(PoisonError::into_inner)
            }
        };
        // A reader that waited finds the cell filled, unless a build failed.
        let built = cell.built.get().cloned().map_or_else(build, Ok)?;
        Ok(Arc::clone(cell.built.get_or_init(|| built)))
    }

    /// The assignment map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The per-shard indexes, shard order.
    pub fn parts(&self) -> &[SimilarityIndex] {
        &self.parts
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.parts.len()
    }

    /// Total stored series across shards.
    pub(crate) fn len(&self) -> usize {
        self.map.total()
    }

    /// Shared index configuration (identical across parts).
    pub fn config(&self) -> &IndexConfig {
        self.parts[0].config()
    }

    /// Series length of the relation — its longest series', as for one
    /// [`SimilarityIndex`] (shards of a uniform relation agree; use
    /// `ShardedIndex::check_uniform` to gate whole-series forms).
    pub fn series_len(&self) -> usize {
        let lens = self.parts.iter().map(SimilarityIndex::series_len);
        lens.max().unwrap_or(0)
    }

    /// The shard a statement is bound against: shards share one
    /// configuration and, past the global uniformity gate, one series
    /// length, so the first non-empty shard stands for all of them — and
    /// shard 0 for an entirely empty relation, which validates (and
    /// answers emptily) exactly as the unsharded engine does.
    fn representative(&self) -> &SimilarityIndex {
        self.parts
            .iter()
            .find(|p| !p.is_empty())
            .unwrap_or(&self.parts[0])
    }

    /// Binds a statement once for every shard: whether the form may
    /// carry its force, the global uniformity gate (per-shard uniformity
    /// is not enough), then the statement's own validation, query
    /// features and search rectangle.
    fn bind<'a>(&self, logical: &'a LogicalPlan, forced: Option<ForceOp>) -> Result<Bound<'a>> {
        logical.check_force(forced)?;
        if logical.subseq_window().is_none() {
            self.check_uniform()?;
        }
        Bound::new(logical, self.representative())
    }

    /// True when any shard runs on paged storage.
    pub fn is_paged(&self) -> bool {
        self.parts.iter().any(SimilarityIndex::is_paged)
    }

    /// Mutable access to the per-shard indexes, for attaching storage
    /// (e.g. per-shard paged node files). The slice length is fixed, so
    /// the shard map stays consistent; callers must not change which
    /// series a part stores.
    pub fn parts_mut(&mut self) -> &mut [SimilarityIndex] {
        &mut self.parts
    }

    /// Stored series by global id, read as
    /// [`SimilarityIndex::series`] reads it: a shared buffer in memory, a
    /// copy from the owning shard's record file when paged.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for an id past the end, and what
    /// [`SimilarityIndex::series`] reports.
    pub fn series(&self, global: usize) -> Result<TimeSeries> {
        let (shard, local) = self.map.owner(global).ok_or(Error::UnknownSeries(global))?;
        self.parts[shard].series(local)
    }

    /// Global uniformity gate: per-shard uniformity is not enough (each
    /// shard may be internally uniform at a different length), so
    /// whole-series forms check the global `(min, max)` first and report
    /// the same [`Error::Ragged`] the unsharded engine would.
    pub(crate) fn check_uniform(&self) -> Result<()> {
        let bounds = self
            .parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(SimilarityIndex::len_bounds)
            .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)));
        match bounds {
            Some((min, max)) if min != max => Err(Error::Ragged { min, max }),
            _ => Ok(()),
        }
    }

    /// Routes a statement's extended series (global id, the relation's
    /// extended value) to their owning shards, whose trees and statistics
    /// are dropped for the next whole-match reader to pack; the relation's
    /// built ST-index then takes the same values by global id, in
    /// statement order (a held window not built yet is built over them by
    /// its first reader) ([`crate::SubseqIndex::extend_series`] resumes the
    /// sliding-DFT recurrence at `O(k)` per appended point, and keeps the
    /// new length, not the samples). Callers (the
    /// catalog) validate the batch up front; per-shard application reuses
    /// the index's atomic batch append.
    ///
    /// # Errors
    /// The same failures `SimilarityIndex::extend_series_batch` reports.
    pub fn extend_series_batch(&mut self, edits: Vec<(usize, TimeSeries)>) -> Result<()> {
        let mut per_shard: Vec<Vec<(usize, TimeSeries)>> = vec![Vec::new(); self.parts.len()];
        for (global, series) in &edits {
            let (shard, local) = self
                .map
                .owner(*global)
                .ok_or(Error::UnknownSeries(*global))?;
            per_shard[shard].push((local, series.clone()));
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.parts[shard].extend_series_batch(&batch)?;
            }
        }
        if let Some(st) = self.subseq.built_mut() {
            for (global, series) in edits {
                st.extend_series(global, series.values())?;
            }
        }
        Ok(())
    }

    /// Registers and stores a statement's brand-new labeled series: each
    /// owning shard receives its share as one batch — its next reader
    /// packs it as a build over the final data would — and the series
    /// take the next global ids in the order given, in the shard map and
    /// in the relation's built ST-index. Callers (the catalog) validate the
    /// batch up front, as for [`ShardedIndex::extend_series_batch`].
    ///
    /// # Errors
    /// The same failures [`SimilarityIndex::push_series_batch`] reports.
    pub fn push_series_batch(&mut self, series: Vec<(&str, TimeSeries)>) -> Result<()> {
        let mut per_shard: Vec<Vec<TimeSeries>> = vec![Vec::new(); self.parts.len()];
        for (label, series) in &series {
            per_shard[self.map.spec().assign(label)].push(series.clone());
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.parts[shard].push_series_batch(batch)?;
            }
        }
        // The map and the ST-index learn the series only once every shard
        // has accepted its share.
        let mut st = self.subseq.built_mut();
        for (label, series) in series {
            self.map.push_label(label);
            if let Some(st) = st.as_deref_mut() {
                st.insert(series.values())?;
            }
        }
        Ok(())
    }

    /// Whether a statement runs scatter-gather: a range or k-NN statement
    /// on a relation of several shards. A join or a subsequence statement
    /// runs once, and a one-shard relation has nothing to scatter.
    pub(crate) fn scatters(&self, logical: &LogicalPlan) -> bool {
        let whole = matches!(logical, LogicalPlan::Range { .. } | LogicalPlan::Knn { .. });
        whole && self.parts.len() > 1
    }

    /// The relation's shards as a statement planned or run once reads them.
    fn shards(&self) -> Shards<'_> {
        Shards {
            parts: &self.parts,
            map: Some(&self.map),
        }
    }

    /// Plans the statement without executing it (the `EXPLAIN` path): once,
    /// for the relation — over its active shards for a whole-match form or
    /// a join; against its ST-index for a subsequence statement, whose held
    /// window, if no longer than the statement and not built yet, is built
    /// first.
    ///
    /// # Errors
    /// The same validation failures execution would report.
    pub fn plan_shards(
        &self,
        logical: &LogicalPlan,
        forced: Option<ForceOp>,
    ) -> Result<PlanChoice> {
        let bound = self.bind(logical, forced)?;
        if let Some(window) = logical.subseq_window() {
            // A held window that can answer the statement is built if it is
            // not yet (as its first statement would, so the plan reads as
            // the saved catalog's did); otherwise the probe is planned cold,
            // and holds and builds nothing.
            let held = self.subseq.serving(window).map(|cell| self.fill(&cell));
            let st = held.transpose()?;
            return Ok(plan_subseq(
                &bound,
                forced,
                st.as_deref(),
                self.len(),
                self.series_len(),
            ));
        }
        Ok(plan_relation(self.shards(), &bound, forced))
    }

    /// Executes a statement under its one plan (the operator `forced`
    /// names, else the cheapest for the relation). A range or k-NN
    /// statement on several shards runs scatter-gather: the plan runs on
    /// every active shard, up to `scatter` at once, then the form's typed
    /// merge reassembles the global answer (see the module docs for the
    /// merge rules and the stats contract). A join runs once over the
    /// relation's shards, and a subsequence statement once against the
    /// relation's ST-index, as on an unsharded relation.
    ///
    /// # Errors
    /// The same validation failures the unsharded engine reports (a
    /// join-only force on another form, global raggedness, transform
    /// arity/safety, bad thresholds, warp joins).
    pub fn execute(
        &self,
        logical: &LogicalPlan,
        forced: Option<ForceOp>,
        scatter: usize,
    ) -> Result<ShardedOutcome> {
        // Bind first: a statement that fails validation builds nothing.
        let bound = self.bind(logical, forced)?;
        if let Some(window) = logical.subseq_window() {
            let st = self.subseq_index(window)?;
            let plan = plan_subseq(&bound, forced, Some(&st), self.len(), self.series_len());
            let ran = execute_subseq(&bound, &plan.plan, Some((&*st, self)))?;
            return Ok(ShardedOutcome::once(ran, plan));
        }
        let plan = plan_relation(self.shards(), &bound, forced);
        if self.scatters(logical) {
            return self.scatter(&bound, plan, scatter);
        }
        let ran = match bound {
            Bound::Join(join) => run_join(join, plan.plan.op, self.shards())?,
            _ => execute_bound(&bound, &plan.plan, &self.parts[0], None)?,
        };
        Ok(ShardedOutcome::once(ran, plan))
    }

    /// Scatter-gather of a range or k-NN statement: its one plan runs on
    /// every active shard (one item runs inline; more fan over the worker
    /// pool), then the form's typed merge.
    fn scatter(
        &self,
        bound: &Bound<'_>,
        plan: PlanChoice,
        scatter: usize,
    ) -> Result<ShardedOutcome> {
        let active: Vec<usize> = self.shards().active().map(|(s, _)| s).collect();
        let ran = parallel_map(scatter.max(1), active.clone(), |s| {
            execute_bound(bound, &plan.plan, &self.parts[s], None)
        });
        let mut per_shard = vec![ExecStats::default(); self.parts.len()];
        let mut per_shard_rows = vec![0usize; self.parts.len()];
        let mut all: Vec<Match> = Vec::new();
        // The first error, in shard order, wins.
        for (s, ran) in active.into_iter().zip(ran) {
            let (rows, exec) = ran?;
            per_shard[s] = exec;
            per_shard_rows[s] = rows.len();
            if let PlanRows::Whole(matches) = rows {
                all.extend(matches.into_iter().map(|m| Match {
                    id: self.map.to_global(s, m.id),
                    distance: m.distance,
                }));
            }
        }
        match *bound {
            Bound::Knn { k, .. } => {
                all.sort_by(|x, y| x.distance.total_cmp(&y.distance).then(x.id.cmp(&y.id)));
                all.truncate(k);
                // Scan-forced shards report false hits against the *final*
                // answer, so the merged sum equals the unsharded scan's
                // `n - rows` exactly.
                if plan.plan.op == PhysicalOp::SeqScan {
                    let mut survivors = vec![0usize; self.parts.len()];
                    for m in &all {
                        survivors[self.map.owner(m.id).expect("a merged id").0] += 1;
                    }
                    for (s, exec) in per_shard.iter_mut().enumerate() {
                        exec.false_hits = self.parts[s].len() - survivors[s];
                    }
                }
            }
            _ => all.sort_by_key(|m| m.id),
        }
        Ok(ShardedOutcome {
            rows: PlanRows::Whole(all),
            merged: ExecStats::sum(&per_shard),
            per_shard,
            per_shard_rows,
            plan,
        })
    }
}

/// The reported plan name of a statement's one plan: `Sharded(n):<op>`
/// when it runs scatter-gather over `n` shards
/// (`ShardedIndex::scatters`), else the bare operator name.
pub fn sharded_plan_name(
    sharded: &ShardedIndex,
    logical: &LogicalPlan,
    plan: &PlanChoice,
) -> String {
    let op = plan.plan.op.name();
    if sharded.scatters(logical) {
        format!("Sharded({}):{op}", sharded.shard_count())
    } else {
        op.to_string()
    }
}

/// Renders a statement's `EXPLAIN` tree: the plain [`render_plan`] tree of
/// its one plan. Over several shards the relation line counts the whole
/// relation and all of its whole-match trees, and a scattered statement
/// adds the sharding layout.
pub fn render_sharded_plan(
    logical: &LogicalPlan,
    sharded: &ShardedIndex,
    plan: &PlanChoice,
) -> String {
    let [part] = &sharded.parts[..] else {
        let trees = sharded.parts.iter().map(SimilarityIndex::stats);
        let nodes: u64 = trees.map(|stats| stats.profile.nodes_total()).sum();
        let mut relation = format!(
            "{} series x {} points; index: {} {}-d R*-trees, {nodes} node(s)",
            sharded.len(),
            sharded.series_len(),
            sharded.parts.len(),
            sharded.config().schema.dims(),
        );
        if sharded.scatters(logical) {
            relation.push_str(&format!(
                "\n  sharded: {} shard(s) by hash, scatter-gather merge",
                sharded.parts.len()
            ));
        }
        return render_plan_over(logical, plan, &relation);
    };
    render_plan(logical, plan, part.stats())
}

/// Appends the `EXPLAIN ANALYZE` counters: for a scattered statement one
/// per-shard actual line each, then the exact-sum total; else the plain
/// [`render_analyze`] lines.
pub fn render_sharded_analyze(rendered: &mut String, rows: usize, outcome: &ShardedOutcome) {
    if outcome.per_shard.is_empty() {
        return render_analyze(rendered, rows, &outcome.merged);
    }
    for (s, exec) in outcome.per_shard.iter().enumerate() {
        rendered.push_str(&format!(
            "     shard {s} actual: rows={}, nodes={}, candidates={}, refined={}, false_hits={}, disk={}\n",
            outcome.per_shard_rows[s],
            exec.nodes_visited,
            exec.candidates,
            exec.refined,
            exec.false_hits,
            exec.disk_accesses,
        ));
        if exec.measured() {
            rendered.push_str(&format!(
                "     shard {s} measured: {}\n",
                exec.render_measured()
            ));
        }
    }
    let total = &outcome.merged;
    rendered.push_str(&format!(
        "     total actual: rows={rows}, nodes={}, candidates={}, refined={}, false_hits={}, disk={}\n",
        total.nodes_visited, total.candidates, total.refined, total.false_hits, total.disk_accesses,
    ));
    if total.measured() {
        rendered.push_str(&format!(
            "     total measured: {}\n",
            total.render_measured()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::derived_bytes;
    use crate::plan::{execute_plan, Planner, RelationStats};
    use crate::space::QueryWindow;
    use crate::transform::LinearTransform;
    use tsq_series::generate::RandomWalkGenerator;

    fn relation(count: usize, len: usize, seed: u64) -> SeriesRelation {
        let series = RandomWalkGenerator::new(seed).relation(count, len);
        SeriesRelation::from_series("r", series).unwrap()
    }

    fn whole_index(rel: &SeriesRelation) -> SimilarityIndex {
        SimilarityIndex::build(IndexConfig::default(), rel.series().to_vec()).unwrap()
    }

    fn range_logical(rel: &SeriesRelation, qid: usize, eps: f64) -> LogicalPlan {
        LogicalPlan::Range {
            relation: "r".into(),
            query: rel.get(qid).unwrap().clone(),
            eps,
            transform: LinearTransform::identity(rel.get(qid).unwrap().len()),
            window: QueryWindow::default(),
        }
    }

    #[test]
    fn hash_assignment_is_stable() {
        let spec = ShardSpec::hash(4).unwrap();
        for label in ["AAPL", "MSFT", "s17", ""] {
            assert_eq!(spec.assign(label), spec.assign(label));
            assert!(spec.assign(label) < 4);
        }
        assert!(ShardSpec::hash(0).is_err());
    }

    #[test]
    fn shard_map_is_a_pure_function_of_the_labels() {
        let labels: Vec<String> = (0..17).map(|i| format!("s{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let map = ShardMap::build(ShardSpec::hash(3).unwrap(), &refs);
        // Labels pushed one at a time land exactly where a build over the
        // final label list puts them — which is what lets a snapshot store
        // the rule alone.
        let mut grown = ShardMap::build(ShardSpec::hash(3).unwrap(), &refs[..5]);
        for label in &refs[5..] {
            grown.push_label(label);
        }
        assert_eq!(map, grown);
        for g in 0..17 {
            let (s, l) = map.owner(g).unwrap();
            assert_eq!(map.to_global(s, l), g);
        }
    }

    #[test]
    fn sharded_range_matches_unsharded() {
        let rel = relation(60, 32, 5);
        let whole = whole_index(&rel);
        let stats = RelationStats::from_index(&whole);
        for count in [1usize, 2, 3, 5] {
            let sharded = ShardedIndex::build(
                IndexConfig::default(),
                &rel,
                ShardSpec::hash(count).unwrap(),
            )
            .unwrap();
            for eps in [0.5, 2.0, 8.0] {
                let logical = range_logical(&rel, 7, eps);
                let choice = Planner::new(&whole, &stats)
                    .plan(&logical, None, None)
                    .unwrap();
                let (want, _) = execute_plan(&logical, &choice.plan, &whole, None).unwrap();
                let got = sharded.execute(&logical, None, 4).unwrap();
                assert_eq!(got.rows, want, "count={count} eps={eps}");
            }
        }
    }

    #[test]
    fn sharded_scan_stats_sum_exactly() {
        let rel = relation(50, 32, 9);
        let whole = whole_index(&rel);
        let stats = RelationStats::from_index(&whole);
        let sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(4).unwrap()).unwrap();
        let logical = range_logical(&rel, 3, 2.5);
        let choice = Planner::new(&whole, &stats)
            .plan(&logical, Some(ForceOp::Scan), None)
            .unwrap();
        let (want_rows, want_exec) = execute_plan(&logical, &choice.plan, &whole, None).unwrap();
        let got = sharded.execute(&logical, Some(ForceOp::Scan), 4).unwrap();
        assert_eq!(got.rows, want_rows);
        assert_eq!(got.merged, want_exec, "scan counters sum exactly");
        assert_eq!(ExecStats::sum(&got.per_shard), got.merged);
    }

    #[test]
    fn sharded_knn_breaks_ties_like_unsharded() {
        // Duplicate series force exact distance ties across shards.
        let base = RandomWalkGenerator::new(11).relation(6, 32);
        let mut items = Vec::new();
        for (i, s) in base.iter().enumerate() {
            items.push((format!("a{i}"), s.clone()));
            items.push((format!("b{i}"), s.clone()));
        }
        let rel = SeriesRelation::from_labeled("r", items).unwrap();
        let whole = whole_index(&rel);
        let stats = RelationStats::from_index(&whole);
        let logical = LogicalPlan::Knn {
            relation: "r".into(),
            query: rel.get(0).unwrap().clone(),
            k: 5,
            transform: LinearTransform::identity(32),
        };
        let choice = Planner::new(&whole, &stats)
            .plan(&logical, None, None)
            .unwrap();
        let (want, _) = execute_plan(&logical, &choice.plan, &whole, None).unwrap();
        for count in [2usize, 3, 4] {
            let sharded = ShardedIndex::build(
                IndexConfig::default(),
                &rel,
                ShardSpec::hash(count).unwrap(),
            )
            .unwrap();
            let got = sharded.execute(&logical, None, 2).unwrap();
            assert_eq!(got.rows, want, "count={count}");
        }
    }

    #[test]
    fn sharded_join_matches_canonical_and_directed() {
        let rel = relation(40, 32, 13);
        let whole = whole_index(&rel);
        let stats = RelationStats::from_index(&whole);
        let t = LinearTransform::moving_average(32, 4);
        let sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap();
        let logical = LogicalPlan::Join {
            relation: "r".into(),
            eps: 1.6,
            transform: t.clone(),
        };
        for force in [None, Some(ForceOp::Scan), Some(ForceOp::Index)] {
            let choice = Planner::new(&whole, &stats)
                .plan(&logical, force, None)
                .unwrap();
            let (want, want_exec) = execute_plan(&logical, &choice.plan, &whole, None).unwrap();
            let got = sharded.execute(&logical, force, 3).unwrap();
            assert_eq!(got.rows, want, "force={force:?}");
            if force == Some(ForceOp::Scan) {
                assert_eq!(got.merged, want_exec, "scan join counters sum exactly");
            }
        }
    }

    #[test]
    fn globally_ragged_relation_rejected() {
        // Each shard uniform at a different length: the per-shard gate
        // passes, only the global gate catches it.
        let items = vec![
            ("a0".to_string(), TimeSeries::from(vec![1.0; 16])),
            ("a1".to_string(), TimeSeries::from(vec![1.0; 32])),
        ];
        let rel = SeriesRelation::from_labeled("r", items).unwrap();
        let spec = ShardSpec::hash(2).unwrap();
        let sharded = ShardedIndex::build(IndexConfig::default(), &rel, spec).unwrap();
        assert_eq!(sharded.parts()[0].len(), 1);
        assert_eq!(sharded.parts()[1].len(), 1);
        let logical = LogicalPlan::Range {
            relation: "r".into(),
            query: TimeSeries::from(vec![0.0; 16]),
            eps: 1.0,
            transform: LinearTransform::identity(16),
            window: QueryWindow::default(),
        };
        assert!(matches!(
            sharded.execute(&logical, None, 2),
            Err(Error::Ragged { min: 16, max: 32 })
        ));
    }

    #[test]
    fn appends_route_to_owning_shard() {
        let rel = relation(12, 16, 21);
        let mut sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap();
        let before: Vec<usize> = sharded.parts().iter().map(SimilarityIndex::len).collect();
        // Extend an existing series through its global id.
        let (shard, local) = sharded.map().owner(5).unwrap();
        let old_len = sharded.parts()[shard].series(local).unwrap().len();
        let grown = TimeSeries::new([rel.get(5).unwrap().values(), &[1.0, 2.0]].concat());
        sharded.extend_series_batch(vec![(5, grown)]).unwrap();
        assert_eq!(
            sharded.parts()[shard].series(local).unwrap().len(),
            old_len + 2
        );
        // Push a brand-new series: exactly one shard grows.
        sharded
            .push_series_batch(vec![("fresh", TimeSeries::from(vec![0.5; 16]))])
            .unwrap();
        let (shard, _) = sharded.map().owner(12).unwrap();
        assert_eq!(shard, sharded.map().spec().assign("fresh"));
        let after: Vec<usize> = sharded.parts().iter().map(SimilarityIndex::len).collect();
        for s in 0..3 {
            assert_eq!(after[s], before[s] + usize::from(s == shard));
        }
    }

    #[test]
    fn batched_pushes_are_byte_identical_to_a_build_over_the_final_data() {
        let rel = relation(20, 16, 23);
        let config = IndexConfig::default();
        for count in [1usize, 3] {
            let mut live =
                ShardedIndex::build(config, &rel, ShardSpec::hash(count).unwrap()).unwrap();
            let mut grown = rel.clone();
            let fresh: Vec<(String, TimeSeries)> = (0..6)
                .map(|i| (format!("n{i}"), TimeSeries::from(vec![i as f64; 16])))
                .collect();
            for (label, series) in &fresh {
                grown.push(label.clone(), series.clone()).unwrap();
            }
            live.push_series_batch(fresh.iter().map(|(l, s)| (l.as_str(), s.clone())).collect())
                .unwrap();
            let want =
                ShardedIndex::build(config, &grown, ShardSpec::hash(count).unwrap()).unwrap();
            assert_eq!(live.map(), want.map());
            for (got, want) in live.parts().iter().zip(want.parts()) {
                let (mut a, mut b) = (tsq_store::Encoder::new(), tsq_store::Encoder::new());
                got.write_to(&mut a).unwrap();
                want.write_to(&mut b).unwrap();
                assert_eq!(a.into_bytes(), b.into_bytes(), "count={count}");
                // What the snapshot leaves out: features, tree, profile.
                assert_eq!(derived_bytes(got), derived_bytes(want), "count={count}");
                assert_eq!(got.stats(), want.stats(), "count={count}");
            }
        }
    }

    /// Which shards hold their tree and statistics.
    fn packed(sharded: &ShardedIndex) -> Vec<bool> {
        let parts = sharded.parts().iter();
        parts.map(SimilarityIndex::is_packed).collect()
    }

    /// `rel` with `tail` appended to every series in `ids`, and the edits
    /// that take an index over `rel` there.
    fn grow(
        rel: &mut SeriesRelation,
        ids: std::ops::Range<usize>,
        tail: &[f64],
    ) -> Vec<(usize, TimeSeries)> {
        ids.map(|id| {
            let label = rel.label(id).unwrap().to_string();
            rel.extend_series(&label, tail).unwrap();
            (id, rel.get(id).unwrap().clone())
        })
        .collect()
    }

    #[test]
    fn appends_and_subsequence_statements_never_pack_and_explain_does() {
        let mut rel = relation(24, 32, 41);
        let spec = || ShardSpec::hash(3).unwrap();
        let mut sharded = ShardedIndex::build(IndexConfig::default(), &rel, spec()).unwrap();
        assert_eq!(packed(&sharded), [true; 3], "a build returns packed");
        // One label grows: its shard drops its tree, the others keep theirs,
        // and the ragged relation refuses whole-match statements unpacked.
        let (owner, _) = sharded.map().owner(5).unwrap();
        let mut dropped = [true; 3];
        dropped[owner] = false;
        sharded
            .extend_series_batch(grow(&mut rel, 5..6, &[0.5, -0.5]))
            .unwrap();
        assert_eq!(packed(&sharded), dropped);
        let whole = range_logical(&rel, 5, 2.0);
        assert!(matches!(
            sharded.execute(&whole, None, 2),
            Err(Error::Ragged { min: 32, max: 34 })
        ));
        assert!(matches!(
            sharded.plan_shards(&whole, None),
            Err(Error::Ragged { min: 32, max: 34 })
        ));
        assert_eq!(packed(&sharded), dropped);
        // Executed subsequence statements, cold and warm, range and k-NN,
        // and a snapshot of every shard: still nothing packed.
        let knn = LogicalPlan::SubseqKnn {
            relation: "r".into(),
            query: TimeSeries::from(vec![0.5; 8]),
            k: 3,
            window: 8,
        };
        for logical in [
            subseq_logical(8),
            knn.clone(),
            subseq_logical(8),
            knn.clone(),
        ] {
            sharded.execute(&logical, None, 2).unwrap();
        }
        for part in sharded.parts() {
            part.write_to(&mut tsq_store::Encoder::new()).unwrap();
        }
        assert_eq!(packed(&sharded), dropped);
        // EXPLAIN's relation line prints the tree's height and node count:
        // it packs, and prints what a build over the final data prints.
        let fresh = ShardedIndex::build(IndexConfig::default(), &rel, spec()).unwrap();
        fresh.execute(&knn, None, 2).unwrap();
        for logical in [subseq_logical(8), knn] {
            sharded
                .extend_series_batch(grow(&mut rel, 5..6, &[]))
                .unwrap();
            assert_eq!(packed(&sharded), dropped);
            let plans = sharded.plan_shards(&logical, None).unwrap();
            let text = render_sharded_plan(&logical, &sharded, &plans);
            assert_eq!(packed(&sharded), [true; 3]);
            let want = fresh.plan_shards(&logical, None).unwrap();
            assert_eq!(text, render_sharded_plan(&logical, &fresh, &want));
        }
    }

    #[test]
    fn racing_first_readers_after_an_append_see_one_tree() {
        let mut rel = relation(90, 32, 43);
        for count in [1usize, 4] {
            let spec = || ShardSpec::hash(count).unwrap();
            let mut sharded = ShardedIndex::build(IndexConfig::default(), &rel, spec()).unwrap();
            // A round that leaves the relation uniform again, and unpacked.
            let len = rel.get(0).unwrap().len();
            sharded
                .extend_series_batch(grow(&mut rel, 0..90, &[0.25, -1.0]))
                .unwrap();
            assert_eq!(packed(&sharded), vec![false; count]);
            let fresh = ShardedIndex::build(IndexConfig::default(), &rel, spec()).unwrap();
            let logical = LogicalPlan::Range {
                relation: "r".into(),
                query: rel.get(7).unwrap().clone(),
                eps: 3.0,
                transform: LinearTransform::moving_average(len + 2, 4),
                window: QueryWindow::default(),
            };
            let want = fresh.execute(&logical, None, 1).unwrap();
            let readers = std::sync::Barrier::new(8);
            let got: Vec<ShardedOutcome> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            readers.wait();
                            sharded.execute(&logical, None, 1).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for outcome in &got {
                assert_eq!(outcome.rows, want.rows, "count={count}");
                assert_eq!(outcome.merged, want.merged, "count={count}");
                assert_eq!(outcome.per_shard, want.per_shard, "count={count}");
            }
            assert_eq!(packed(&sharded), vec![true; count]);
            for (got, want) in sharded.parts().iter().zip(fresh.parts()) {
                assert_eq!(derived_bytes(got), derived_bytes(want), "count={count}");
            }
        }
    }

    fn subseq_logical(window: usize) -> LogicalPlan {
        LogicalPlan::SubseqRange {
            relation: "r".into(),
            query: TimeSeries::from(vec![0.5; window]),
            eps: 100.0,
            window,
        }
    }

    /// `(window, built)` of the held window.
    fn held(sharded: &ShardedIndex) -> Option<(usize, bool)> {
        let (window, built) = sharded.subseq_held()?;
        Some((window, built.is_some()))
    }

    /// The held window's built index.
    fn built(sharded: &ShardedIndex) -> Arc<TrailIndex> {
        sharded.subseq_held().unwrap().1.expect("built")
    }

    #[test]
    fn st_indexes_are_built_after_the_bind_and_shared_by_clones() {
        let rel = relation(12, 32, 29);
        let sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap();
        // A statement that fails its bind builds nothing; neither does a
        // plan, which renders the probe as cold.
        let wrong = LogicalPlan::SubseqRange {
            relation: "r".into(),
            query: TimeSeries::from(vec![0.5; 8]),
            eps: 100.0,
            window: 16,
        };
        assert!(matches!(
            sharded.execute(&wrong, None, 2),
            Err(Error::LengthMismatch {
                expected: 16,
                got: 8
            })
        ));
        let cold = sharded.plan_shards(&subseq_logical(8), None).unwrap();
        assert_eq!(held(&sharded), None);
        let probe = |plan: &PlanChoice| plan.plan.op;
        assert!(matches!(
            probe(&cold),
            PhysicalOp::SubseqIndexProbe { base: None, .. }
        ));
        // The first statement builds its window; longer ones, planned or
        // run, probe that one build by its prefix.
        sharded.execute(&subseq_logical(9), None, 2).unwrap();
        let first = built(&sharded);
        for w in [12, 9, 20] {
            let warm = sharded.plan_shards(&subseq_logical(w), None).unwrap();
            assert!(matches!(
                probe(&warm),
                PhysicalOp::SubseqIndexProbe { base: Some(9), .. }
            ));
            sharded.execute(&subseq_logical(w), None, 2).unwrap();
            assert!(Arc::ptr_eq(&built(&sharded), &first), "window {w}");
        }
        // A shorter statement replaces the index with one at its window; a
        // reader's reference outlives the replacement.
        sharded.execute(&subseq_logical(8), None, 2).unwrap();
        assert_eq!(held(&sharded), Some((8, true)));
        assert_eq!(first.config().window, 9);
        assert_eq!(first.len(), 12, "one index over the relation's series");
        // A clone shares the index, not the slot.
        let copy = sharded.clone();
        assert!(Arc::ptr_eq(&built(&copy), &built(&sharded)));
        copy.execute(&subseq_logical(6), None, 2).unwrap();
        assert_eq!(held(&copy), Some((6, true)));
        assert_eq!(held(&sharded), Some((8, true)));
    }

    #[test]
    fn held_windows_are_built_by_their_first_statement_or_explain() {
        let rel = relation(12, 32, 33);
        let build = || {
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap()
        };
        // The saved side built window 8 and probed it at 16 too; the
        // restored sides hold it.
        let saved = build();
        for w in [8, 16] {
            saved.execute(&subseq_logical(w), None, 2).unwrap();
        }
        assert_eq!(held(&saved), Some((8, true)));
        let mut restored = build();
        restored.hold_window(8).unwrap();
        assert_eq!(held(&restored), Some((8, false)));
        // What the relation could not have held is refused.
        assert!(matches!(
            restored.hold_window(1),
            Err(Error::InvalidWindow { window: 1 })
        ));
        assert_eq!(held(&restored), Some((8, false)));
        // An EXPLAIN shorter than the held window builds and holds nothing.
        let cold = subseq_logical(6);
        let plans = restored.plan_shards(&cold, None).unwrap();
        let text = render_sharded_plan(&cold, &restored, &plans);
        assert!(text.contains("[cold"), "{text}");
        assert_eq!(held(&restored), Some((8, false)));
        // An EXPLAIN past the held window builds it, and so does one at
        // it: each prints what the saved side prints.
        for w in [16, 8] {
            let logical = subseq_logical(w);
            let plans = restored.plan_shards(&logical, None).unwrap();
            assert_eq!(held(&restored), Some((8, true)));
            let text = render_sharded_plan(&logical, &restored, &plans);
            let want = saved.plan_shards(&logical, None).unwrap();
            assert_eq!(text, render_sharded_plan(&logical, &saved, &want));
            assert!(!text.contains("[cold"), "{text}");
            assert_eq!(text.contains("[prefix of window 8]"), w > 8, "{text}");
        }
        // A statement past the held window builds it too, and answers as
        // the saved side does.
        let mut restored = build();
        restored.hold_window(8).unwrap();
        for w in [16, 8] {
            let want = saved.execute(&subseq_logical(w), None, 2).unwrap();
            let got = restored.execute(&subseq_logical(w), None, 2).unwrap();
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.merged, want.merged);
            assert_eq!(got.per_shard, want.per_shard);
            assert_eq!(held(&restored), Some((8, true)));
        }
    }

    #[test]
    fn racing_first_readers_of_a_held_window_share_one_build() {
        let rel = relation(40, 64, 37);
        let mut sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(2).unwrap()).unwrap();
        sharded.hold_window(16).unwrap();
        let readers = std::sync::Barrier::new(8);
        // Readers at the held window and past it.
        let got: Vec<Arc<TrailIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (readers, sharded) = (&readers, &sharded);
                    scope.spawn(move || {
                        readers.wait();
                        sharded.subseq_index(16 + 8 * (i % 2)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for st in &got {
            assert!(Arc::ptr_eq(st, &got[0]));
        }
    }

    #[test]
    fn a_clone_never_builds_over_the_other_sides_series() {
        let rel = relation(12, 32, 35);
        // The series lengths a side's built window-8 index holds.
        let lens = |sharded: &ShardedIndex| -> Vec<usize> {
            let st = built(sharded);
            (0..st.len()).map(|i| st.length(i).unwrap()).collect()
        };
        // Either side appended, either side built first: the empty cell
        // they shared at the clone is built over each side's own series.
        for (append_to_copy, copy_first) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let mut original =
                ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap())
                    .unwrap();
            original.hold_window(8).unwrap();
            let mut copy = original.clone();
            let edits = grow(&mut rel.clone(), 0..12, &[0.5, -0.5]);
            let (grown, other) = if append_to_copy {
                (&mut copy, &original)
            } else {
                (&mut original, &copy)
            };
            grown.extend_series_batch(edits).unwrap();
            let grown = &*grown;
            let order = if copy_first == append_to_copy {
                [grown, other]
            } else {
                [other, grown]
            };
            for sharded in order {
                sharded.execute(&subseq_logical(8), None, 2).unwrap();
            }
            let at = format!("append_to_copy={append_to_copy}, copy_first={copy_first}");
            assert_eq!(lens(grown), vec![34; 12], "{at}");
            assert_eq!(lens(other), vec![32; 12], "{at}");
        }
    }

    #[test]
    fn poisoned_cache_lock_recovers_instead_of_panicking() {
        let rel = relation(12, 32, 31);
        let mut sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(2).unwrap()).unwrap();
        sharded.execute(&subseq_logical(16), None, 2).unwrap();
        // Poison the set's lock: a thread panics while holding the write
        // guard. With `.unwrap()` instead of poison recovery every later
        // subsequence statement on the relation would panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sharded.subseq.0.write().unwrap();
            panic!("query thread dies mid-flight");
        }));
        assert!(result.is_err());
        assert!(sharded.subseq.0.is_poisoned());
        // A hit, a prefix probe, a replacement, a plan, the listing, an
        // append and a clone all still work.
        sharded.execute(&subseq_logical(16), None, 2).unwrap();
        sharded.execute(&subseq_logical(24), None, 2).unwrap();
        sharded.execute(&subseq_logical(8), None, 2).unwrap();
        sharded.plan_shards(&subseq_logical(8), None).unwrap();
        assert_eq!(held(&sharded), Some((8, true)));
        let grown = TimeSeries::new([sharded.series(0).unwrap().values(), &[1.0, 2.0]].concat());
        sharded.extend_series_batch(vec![(0, grown)]).unwrap();
        assert_eq!(held(&sharded.clone()), Some((8, true)));
    }

    #[test]
    fn one_shard_reports_like_the_unsharded_engine() {
        let rel = relation(40, 32, 17);
        let whole = whole_index(&rel);
        let stats = RelationStats::from_index(&whole);
        let one =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(1).unwrap()).unwrap();
        assert_eq!(one.shard_count(), 1);
        let logical = range_logical(&rel, 4, 1.5);
        let choice = Planner::new(&whole, &stats)
            .plan(&logical, None, None)
            .unwrap();
        let (want_rows, want_exec) = execute_plan(&logical, &choice.plan, &whole, None).unwrap();
        let mut want_text = render_plan(&logical, &choice, &stats);
        render_analyze(&mut want_text, want_rows.len(), &want_exec);

        let plans = one.plan_shards(&logical, None).unwrap();
        assert_eq!(
            sharded_plan_name(&one, &logical, &plans),
            choice.plan.op.name()
        );
        let mut text = render_sharded_plan(&logical, &one, &plans);
        let got = one.execute(&logical, None, 4).unwrap();
        render_sharded_analyze(&mut text, got.rows.len(), &got);
        assert_eq!(text, want_text);
        assert_eq!(got.rows, want_rows);
        assert_eq!(got.merged, want_exec);
        assert!(got.per_shard.is_empty());

        let three =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap();
        assert_eq!(three.shard_count(), 3);
        let plans = three.plan_shards(&logical, None).unwrap();
        assert!(sharded_plan_name(&three, &logical, &plans).starts_with("Sharded(3):"));
    }
}
