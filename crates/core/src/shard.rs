//! Sharded scatter-gather execution: a single-process rehearsal for
//! distributing the paper's filter-and-refine pipeline.
//!
//! A relation is partitioned into `N >= 1` shards — by a hash of each
//! series label or by contiguous label ranges — and every shard gets its
//! own [`SimilarityIndex`]. This is the only shape a catalog relation has:
//! a freshly registered one is a single hash shard. A query is executed
//! scatter-gather style: the statement is bound once (validated, its
//! query transformed and its search rectangle built — shards share one
//! configuration and series length),
//! the [`Planner`] produces one physical plan *per shard* (each shard's
//! index holds its own `RelationStats` next to its tree), the shard plans
//! run concurrently on the
//! worker pool ([`crate::executor::parallel_map`]), and a typed merge
//! step reassembles the global answer:
//!
//! | form | merge |
//! |------|-------|
//! | range | threshold-union: concatenate, remap to global ids, sort by id |
//! | k-NN | bounded k-way merge by `(distance, id)` — deterministic ties |
//! | join | per-shard self-joins plus the same join kernels over pairs of shards, sorted `(a, b)` |
//! | subseq range | union sorted by `(series, offset)` |
//! | subseq k-NN | k-way merge by `(distance, series, offset)` |
//!
//! **Correctness bar.** Merged rows — values *and* order — are
//! byte-identical to the unsharded engine for every query form. Merged
//! [`ExecStats`] are the exact sum of the per-shard counters (buffer-pool
//! traffic included); for scan-forced plans those sums also equal the
//! unsharded counters exactly, while index-plan traversal counters
//! legitimately differ (N small trees are not one big tree) and are
//! reported per shard so nothing is hidden.
//!
//! Within a shard, members keep their global-id order, so local ids are
//! order-isomorphic to global ids — per-shard `(distance, local id)`
//! tie-breaking therefore agrees with the global `(distance, id)` rule
//! the k-way merge applies.
//!
//! **One shard is the unsharded engine.** With `N = 1` the merges are
//! identities (local ids *are* global ids, one sorted run, nothing to
//! sum), and the scatter runs inline on the calling thread. What a client
//! sees of such a relation is what it always saw of an unsharded one, and
//! that rule is kept here and nowhere else: [`sharded_plan_name`] names
//! the plain operator (`IndexRange`, not `Sharded(1):IndexRange`),
//! [`render_sharded_plan`] / [`render_sharded_analyze`] render the plain
//! `EXPLAIN [ANALYZE]` tree, [`ShardedOutcome::per_shard`] is empty and
//! [`ShardedIndex::layout`] is `None`.
//!
//! **A relation owns its ST-indexes.** Subsequence forms probe one
//! [`SubseqIndex`] per shard for the statement's `WINDOW`, and the
//! [`ShardedIndex`] holds at most [`MAX_SUBSEQ_WINDOWS`] windows. A held
//! window is a cell that starts empty — a new window's first statement
//! holds it, a restore re-creates the saved ones — and is filled once, by
//! the first subsequence statement or `EXPLAIN` that needs it, with a
//! build over the shards' series; racing first readers wait for that one
//! build (a batch's statement on a pool worker builds a copy of its own
//! instead of waiting on a build that may be waiting for the pool). *Who
//! owns:* the `ShardedIndex`, so whatever replaces it
//! (`register`, `SHARD`, a restore) drops them with it and nothing is ever
//! invalidated; a clone shares the cells by `Arc`. *Who locks:*
//! [`ShardedIndex::execute`] stays `&self` — a hit takes the set's read
//! lock and stamps recency atomically; a new window is held under the
//! write lock, after the bind (a rejected statement holds and builds
//! nothing); the build runs outside the lock; [`ShardedIndex::plan_shards`]
//! stamps nothing; appends hold `&mut self` and extend every filled cell
//! clone-on-write, so a reader keeps its pre-append snapshot, and give an
//! empty cell shared with a clone a fresh one, so each builds over its own
//! series. The lock recovers from poisoning: it guards `Arc`s and integer
//! stamps, and no user code runs under it. *Who evicts:* only the hold of
//! a further window in a full set, and only this relation's least
//! recently used window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, TryLockError};

use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::executor::{default_threads, parallel_map};
use crate::index::{IndexConfig, Match, SimilarityIndex};
use crate::plan::{
    execute_bound, render_analyze, render_plan, run_join, Bound, ExecStats, ForceOp, LogicalPlan,
    PhysicalOp, PlanChoice, PlanRows, Planner,
};
use crate::queries::{JoinBound, JoinPair};
use crate::relation::SeriesRelation;
use crate::scan::ScanMode;
use crate::subseq::{SubseqConfig, SubseqIndex, SubseqMatch};

/// How many `WINDOW` lengths one relation keeps ST-indexes for. A
/// constant, not a setting: an ST-index is about as large as the shard
/// data it indexes, so a relation's subsequence memory is bounded by a
/// fixed multiple of its own size.
pub const MAX_SUBSEQ_WINDOWS: usize = 4;

/// How series labels are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBy {
    /// FNV-1a hash of the label, modulo the shard count.
    Hash,
    /// Contiguous lexicographic label ranges (boundaries fixed at `SHARD`
    /// time; later labels route by binary search, so assignment stays
    /// deterministic as the relation grows).
    Range,
}

impl ShardBy {
    /// Stable lower-case name (`hash` / `range`), used by `SHARD ... BY`
    /// and snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            ShardBy::Hash => "hash",
            ShardBy::Range => "range",
        }
    }
}

/// 64-bit FNV-1a over the label bytes — tiny, dependency-free, and
/// stable across platforms and sessions (snapshots rely on it).
pub fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic label → shard assignment rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    by: ShardBy,
    count: usize,
    /// For [`ShardBy::Range`]: shard `i >= 1` starts at `boundaries[i-1]`
    /// (inclusive); labels below `boundaries[0]` go to shard 0. Empty for
    /// hash sharding.
    boundaries: Vec<String>,
}

impl ShardSpec {
    /// Hash sharding into `count` shards.
    ///
    /// # Errors
    /// `count == 0` is rejected as [`Error::Unsupported`].
    pub fn hash(count: usize) -> Result<Self> {
        Self::check_count(count)?;
        Ok(ShardSpec {
            by: ShardBy::Hash,
            count,
            boundaries: Vec::new(),
        })
    }

    /// Range sharding into `count` shards, with boundaries chosen to
    /// split the *current* label population into near-equal contiguous
    /// chunks. Labels appended later route into the fixed boundaries.
    ///
    /// # Errors
    /// `count == 0` is rejected as [`Error::Unsupported`].
    pub fn range(count: usize, labels: &[&str]) -> Result<Self> {
        Self::check_count(count)?;
        let mut sorted: Vec<&str> = labels.to_vec();
        sorted.sort_unstable();
        let mut boundaries = Vec::with_capacity(count.saturating_sub(1));
        if !sorted.is_empty() {
            for i in 1..count {
                // First label of chunk i under near-equal ceil division.
                let at = (i * sorted.len()).div_ceil(count).min(sorted.len() - 1);
                boundaries.push(sorted[at].to_string());
            }
        }
        Ok(ShardSpec {
            by: ShardBy::Range,
            count,
            boundaries,
        })
    }

    /// Rebuilds a spec from snapshot fields.
    ///
    /// # Errors
    /// `count == 0` is rejected as [`Error::Unsupported`].
    pub fn from_parts(by: ShardBy, count: usize, boundaries: Vec<String>) -> Result<Self> {
        Self::check_count(count)?;
        Ok(ShardSpec {
            by,
            count,
            boundaries,
        })
    }

    fn check_count(count: usize) -> Result<()> {
        if count == 0 {
            return Err(Error::Unsupported(
                "SHARD count must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Assignment rule family.
    pub fn by(&self) -> ShardBy {
        self.by
    }

    /// Range boundaries (empty for hash sharding).
    pub fn boundaries(&self) -> &[String] {
        &self.boundaries
    }

    /// The shard a label belongs to.
    pub fn assign(&self, label: &str) -> usize {
        match self.by {
            ShardBy::Hash => (hash_label(label) % self.count as u64) as usize,
            ShardBy::Range => self
                .boundaries
                .partition_point(|b| b.as_str() <= label)
                .min(self.count - 1),
        }
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
    pub fn spec(&self) -> &ShardSpec {
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
    pub fn to_global(&self, shard: usize, local: usize) -> usize {
        self.members[shard][local]
    }

    /// Total series across all shards.
    pub fn total(&self) -> usize {
        self.owner.len()
    }

    /// Registers a brand-new series (the next global id) and returns its
    /// `(shard, local)` slot.
    pub fn push_label(&mut self, label: &str) -> (usize, usize) {
        let shard = self.spec.assign(label);
        let local = self.members[shard].len();
        self.members[shard].push(self.owner.len());
        self.owner.push((shard, local));
        (shard, local)
    }
}

/// One relation partitioned into per-shard [`SimilarityIndex`]es, each
/// holding its own tree and planner statistics.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    map: ShardMap,
    parts: Vec<SimilarityIndex>,
    subseq: SubseqSet,
}

/// One held window's ST-indexes — one per shard, shard order, over
/// shard-local series ids — empty until a reader builds them.
#[derive(Debug, Default)]
struct WindowCell {
    built: OnceLock<Vec<Arc<SubseqIndex>>>,
    /// Held by the one reader building `built`.
    building: Mutex<()>,
}

impl Clone for WindowCell {
    /// What is built, or nothing: a build in flight stays its reader's.
    fn clone(&self) -> Self {
        WindowCell {
            built: self.built.clone(),
            building: Mutex::default(),
        }
    }
}

/// One held window: its cell and its last-hit stamp. The stamp is atomic
/// so a hit, which holds only the read lock, still records recency.
#[derive(Debug)]
struct WindowSlot {
    window: usize,
    cell: Arc<WindowCell>,
    last_used: AtomicU64,
}

/// A relation's held windows (see the module docs for who owns, locks and
/// evicts).
#[derive(Debug, Default)]
struct SubseqSet(RwLock<Vec<WindowSlot>>);

impl Clone for SubseqSet {
    fn clone(&self) -> Self {
        let slots = self.read();
        let slots = slots.iter().map(|slot| WindowSlot {
            window: slot.window,
            cell: Arc::clone(&slot.cell),
            last_used: AtomicU64::new(slot.last_used.load(Ordering::Relaxed)),
        });
        SubseqSet(RwLock::new(slots.collect()))
    }
}

/// A stamp newer than every slot's.
fn newest(slots: &[WindowSlot]) -> u64 {
    let stamps = slots
        .iter()
        .map(|slot| slot.last_used.load(Ordering::Relaxed));
    stamps.max().map_or(0, |newest| newest + 1)
}

impl SubseqSet {
    fn read(&self) -> RwLockReadGuard<'_, Vec<WindowSlot>> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cell held for `window`, if any; `touch` records the hit.
    fn get(&self, window: usize, touch: bool) -> Option<Arc<WindowCell>> {
        let slots = self.read();
        let slot = slots.iter().find(|slot| slot.window == window)?;
        if touch {
            slot.last_used.store(newest(&slots), Ordering::Relaxed);
        }
        Some(Arc::clone(&slot.cell))
    }

    /// Every built window's ST-index of one shard, for an append to
    /// maintain in place. `Arc::make_mut` is clone-on-write: a query still
    /// traversing the pre-append index keeps its consistent snapshot. An
    /// empty cell shared with a clone is replaced by an empty one of its
    /// own, so neither side ever builds over the other's series.
    fn of_shard(&mut self, shard: usize) -> impl Iterator<Item = &mut SubseqIndex> {
        let slots = self.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        slots.iter_mut().filter_map(move |slot| {
            let parts = Arc::make_mut(&mut slot.cell).built.get_mut()?;
            Some(Arc::make_mut(&mut parts[shard]))
        })
    }

    /// Holds `window` (stamped now) unless it is held already, evicting
    /// the least recently used window of a full set. Returns its cell.
    fn hold(&self, window: usize) -> Arc<WindowCell> {
        let mut slots = self.0.write().unwrap_or_else(PoisonError::into_inner);
        let stamp = newest(&slots);
        if let Some(slot) = slots.iter().find(|slot| slot.window == window) {
            slot.last_used.store(stamp, Ordering::Relaxed);
            return Arc::clone(&slot.cell);
        }
        if slots.len() == MAX_SUBSEQ_WINDOWS {
            let lru = (0..slots.len()).min_by_key(|&i| slots[i].last_used.load(Ordering::Relaxed));
            slots.swap_remove(lru.expect("a full set is not empty"));
        }
        let cell = Arc::default();
        slots.push(WindowSlot {
            window,
            cell: Arc::clone(&cell),
            last_used: AtomicU64::new(stamp),
        });
        cell
    }
}

/// The merged result of one scatter-gather execution.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Global answer rows, byte-identical to the unsharded engine.
    pub rows: PlanRows,
    /// Exact sum of the per-shard counters.
    pub merged: ExecStats,
    /// Per-shard counters (zeros for shards skipped as empty). Empty for
    /// a one-shard relation: its breakdown would only repeat `merged`.
    pub per_shard: Vec<ExecStats>,
    /// Pre-merge row count each shard contributed.
    pub per_shard_rows: Vec<usize>,
    /// Per-shard plan choices (`None` for shards skipped as empty).
    pub plans: Vec<Option<PlanChoice>>,
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
            subseq: SubseqSet::default(),
        })
    }

    /// Holds `window` without building it (snapshot open; call in the
    /// saved, least-recently-used-first order to keep it): its first
    /// subsequence statement or `EXPLAIN` builds it.
    ///
    /// # Errors
    /// [`Error::InvalidWindow`] for a window below 2; [`Error::Unsupported`]
    /// when the window is held already or the set is full.
    pub fn hold_window(&mut self, window: usize) -> Result<()> {
        SubseqConfig::new(window).validate()?;
        let held = self
            .subseq
            .0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if held.len() == MAX_SUBSEQ_WINDOWS || held.iter().any(|slot| slot.window == window) {
            return Err(Error::Unsupported(format!(
                "window {window} does not fit the {} window(s) this relation holds",
                held.len()
            )));
        }
        self.subseq.hold(window);
        Ok(())
    }

    /// The windows this relation holds, least recently used first, each
    /// with its per-shard ST-indexes in shard order once built.
    pub fn subseq_entries(&self) -> Vec<(usize, Option<Vec<Arc<SubseqIndex>>>)> {
        let slots = self.subseq.read();
        let mut order: Vec<&WindowSlot> = slots.iter().collect();
        order.sort_by_key(|slot| slot.last_used.load(Ordering::Relaxed));
        order
            .into_iter()
            .map(|slot| (slot.window, slot.cell.built.get().cloned()))
            .collect()
    }

    /// The per-shard ST-indexes for `window`, held on first use and built
    /// by the first reader of the held cell (see the module docs for the
    /// locking).
    fn subseq_indexes(&self, window: usize) -> Result<Vec<Arc<SubseqIndex>>> {
        let cell = match self.subseq.get(window, true) {
            Some(cell) => cell,
            None => {
                SubseqConfig::new(window).validate()?;
                self.subseq.hold(window)
            }
        };
        Ok(self.fill(window, &cell))
    }

    /// A held window's indexes, built now if nobody has yet: by one
    /// reader, fanned out over the worker pool, while later first readers
    /// wait for it. A reader that is itself pool work (a batch's
    /// statement) never waits on another's build, which may be waiting for
    /// its worker: it builds a copy of its own (nested fan-outs run inline,
    /// so that build waits on nothing) and leaves the cell to the builder.
    fn fill(&self, window: usize, cell: &WindowCell) -> Vec<Arc<SubseqIndex>> {
        if let Some(built) = cell.built.get() {
            return built.clone();
        }
        let build = || {
            let shards = self.parts.iter().map(|part| {
                let series = part.entries().iter().map(|e| e.series.clone()).collect();
                let config = SubseqConfig::new(window);
                let built = SubseqIndex::build_parallel(config, series, default_threads());
                Arc::new(built.expect("a held window is a valid window"))
            });
            shards.collect()
        };
        let _building = match cell.building.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) if tsq_pool::in_pool_work() => return build(),
            Err(TryLockError::WouldBlock) => {
                let guard = cell.building.lock();
                guard.unwrap_or_else(PoisonError::into_inner)
            }
        };
        cell.built.get_or_init(build).clone()
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

    /// `(rule, shard count, per-shard series counts)` — `None` for a
    /// one-shard relation, which has no partitioning to report.
    pub fn layout(&self) -> Option<(ShardBy, usize, Vec<usize>)> {
        (self.parts.len() > 1).then(|| {
            (
                self.map.spec().by(),
                self.parts.len(),
                self.parts.iter().map(SimilarityIndex::len).collect(),
            )
        })
    }

    /// Total stored series across shards.
    pub fn len(&self) -> usize {
        self.map.total()
    }

    /// True when no series are stored.
    pub fn is_empty(&self) -> bool {
        self.map.total() == 0
    }

    /// Shared index configuration (identical across parts).
    pub fn config(&self) -> &IndexConfig {
        self.parts[0].config()
    }

    /// Series length of the relation — the first non-empty shard's
    /// (shards of a uniform relation agree; use
    /// [`ShardedIndex::check_uniform`] to gate whole-series forms).
    pub fn series_len(&self) -> usize {
        self.representative().series_len()
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

    /// Stored series by global id.
    pub fn series(&self, global: usize) -> Option<&TimeSeries> {
        let (shard, local) = self.map.owner(global)?;
        self.parts[shard].series(local)
    }

    /// Global uniformity gate: per-shard uniformity is not enough (each
    /// shard may be internally uniform at a different length), so
    /// whole-series forms check the global `(min, max)` first and report
    /// the same [`Error::Ragged`] the unsharded engine would.
    pub fn check_uniform(&self) -> Result<()> {
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
    /// are dropped for the next whole-match reader to pack; every built
    /// window's ST-index of an owning shard then takes the same values
    /// (a window not built yet is built over them by its first reader)
    /// ([`SubseqIndex::extend_series`] resumes the sliding-DFT recurrence
    /// at `O(k)` per appended point), so every holder of a series shares
    /// the relation's buffer. Callers (the catalog) validate the batch up
    /// front; per-shard application reuses the index's atomic batch
    /// append.
    ///
    /// # Errors
    /// The same failures [`SimilarityIndex::extend_series_batch`] reports.
    pub fn extend_series_batch(&mut self, edits: Vec<(usize, TimeSeries)>) -> Result<()> {
        let mut per_shard: Vec<Vec<(usize, TimeSeries)>> = vec![Vec::new(); self.parts.len()];
        for (global, series) in edits {
            let (shard, local) = self.map.owner(global).ok_or(Error::UnknownSeries(global))?;
            per_shard[shard].push((local, series));
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.parts[shard].extend_series_batch(&batch)?;
            for st in self.subseq.of_shard(shard) {
                for (local, series) in &batch {
                    st.extend_series(*local, series.clone())?;
                }
            }
        }
        Ok(())
    }

    /// Registers and stores a statement's brand-new labeled series: each
    /// owning shard receives its share as one batch — its next reader
    /// packs it as a build over the final data would — and the series
    /// take the next global ids in the order given. Callers (the catalog)
    /// validate the batch up front, as for
    /// [`ShardedIndex::extend_series_batch`].
    ///
    /// # Errors
    /// The same failures [`SimilarityIndex::push_series_batch`] reports.
    pub fn push_series_batch(&mut self, series: Vec<(&str, TimeSeries)>) -> Result<()> {
        let mut per_shard: Vec<Vec<TimeSeries>> = vec![Vec::new(); self.parts.len()];
        let mut labels = Vec::with_capacity(series.len());
        for (label, series) in series {
            per_shard[self.map.spec().assign(label)].push(series);
            labels.push(label);
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let first = self.parts[shard].len();
            self.parts[shard].push_series_batch(batch)?;
            for st in self.subseq.of_shard(shard) {
                for pushed in &self.parts[shard].entries()[first..] {
                    st.insert(pushed.series.clone());
                }
            }
        }
        // The map learns the labels only once every shard has accepted
        // its share.
        for label in labels {
            self.map.push_label(label);
        }
        Ok(())
    }

    /// Plans every shard without executing the statement (the `EXPLAIN`
    /// path); a held window not built yet is built first. Empty shards of
    /// a non-empty relation are skipped (`None`).
    ///
    /// # Errors
    /// The same validation failures execution would report.
    pub fn plan_shards(
        &self,
        logical: &LogicalPlan,
        forced: Option<ForceOp>,
    ) -> Result<Vec<Option<PlanChoice>>> {
        let bound = self.bind(logical, forced)?;
        // Planning stamps no recency: a held window is built if it is not
        // yet (as its first statement would, so the plan reads as the
        // saved catalog's did); a window not held is planned cold, and
        // holds and builds nothing.
        let held = |w| self.subseq.get(w, false).map(|cell| self.fill(w, &cell));
        let subseq = logical.subseq_window().and_then(held);
        let plan = |s: usize| {
            let st = subseq.as_ref().map(|list| &*list[s]);
            Planner::of(&self.parts[s]).plan_bound(&bound, forced, st)
        };
        let active = self.active_shards(logical).into_iter();
        Ok(active.map(|slot| slot.map(plan)).collect())
    }

    /// Scatter-gather execution: per-shard plans (the operator `forced`
    /// names, else each shard's cheapest) run concurrently, up to
    /// `scatter` at once, then the form's typed merge reassembles the
    /// global answer. See the module docs for the exact merge rules and
    /// the stats contract.
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
        let subseq = match logical.subseq_window() {
            Some(w) => Some(self.subseq_indexes(w)?),
            None => None,
        };
        // Scatter: every active shard plans and runs its own physical
        // plan for the one bound statement (one item runs inline; more
        // fan over the worker pool).
        let ran = parallel_map(scatter.max(1), self.active_shards(logical), |slot| {
            slot.map(|s| {
                let st = subseq.as_ref().map(|list| &*list[s]);
                let choice = Planner::of(&self.parts[s]).plan_bound(&bound, forced, st);
                let (rows, exec) = execute_bound(&bound, &choice.plan, &self.parts[s], st)?;
                Ok((choice, rows, exec))
            })
        });
        let outcome = self.collect(ran)?;
        // Gather: the form's typed merge.
        match bound {
            Bound::Range { .. } | Bound::Knn { .. } => self.merge_whole(logical, outcome),
            Bound::Join(join) => self.merge_join(outcome, join, forced),
            Bound::SubseqRange { .. } | Bound::SubseqKnn { .. } => {
                self.merge_subseq(logical, outcome)
            }
        }
    }

    /// Shard worklist: `Some(s)` runs, `None` is skipped. Empty shards of
    /// a non-empty relation are skipped for whole-series forms (their
    /// zero series length would reject the query the unsharded engine
    /// accepts); an entirely empty relation keeps shard 0 so validation
    /// and empty-answer behavior match the unsharded engine exactly.
    fn active_shards(&self, logical: &LogicalPlan) -> Vec<Option<usize>> {
        if logical.subseq_window().is_some() {
            return (0..self.parts.len()).map(Some).collect();
        }
        if self.is_empty() {
            let mut v = vec![None; self.parts.len()];
            v[0] = Some(0);
            return v;
        }
        (0..self.parts.len())
            .map(|s| (!self.parts[s].is_empty()).then_some(s))
            .collect()
    }

    fn merge_whole(
        &self,
        logical: &LogicalPlan,
        mut outcome: PartialOutcome,
    ) -> Result<ShardedOutcome> {
        match logical {
            LogicalPlan::Range { .. } => {
                let mut all: Vec<Match> = Vec::new();
                for (s, rows) in outcome.shard_rows.drain(..).enumerate() {
                    if let Some(PlanRows::Whole(matches)) = rows {
                        all.extend(matches.into_iter().map(|m| Match {
                            id: self.map.to_global(s, m.id),
                            distance: m.distance,
                        }));
                    }
                }
                all.sort_by_key(|m| m.id);
                outcome.finish(PlanRows::Whole(all))
            }
            LogicalPlan::Knn { k, .. } => {
                let mut all: Vec<Match> = Vec::new();
                let mut from_shard: Vec<usize> = Vec::new();
                for (s, rows) in outcome.shard_rows.drain(..).enumerate() {
                    if let Some(PlanRows::Whole(matches)) = rows {
                        for m in matches {
                            all.push(Match {
                                id: self.map.to_global(s, m.id),
                                distance: m.distance,
                            });
                            from_shard.push(s);
                        }
                    }
                }
                let mut order: Vec<usize> = (0..all.len()).collect();
                order.sort_by(|&x, &y| {
                    all[x]
                        .distance
                        .total_cmp(&all[y].distance)
                        .then(all[x].id.cmp(&all[y].id))
                });
                order.truncate(*k);
                // Scan-forced shards report false hits against the *final*
                // answer, so the merged sum equals the unsharded scan's
                // `n - rows` exactly.
                let mut survivors = vec![0usize; self.parts.len()];
                for &x in &order {
                    survivors[from_shard[x]] += 1;
                }
                for (s, exec) in outcome.per_shard.iter_mut().enumerate() {
                    if let Some(choice) = &outcome.plans[s] {
                        if matches!(choice.plan.op, PhysicalOp::SeqScan) {
                            exec.false_hits = self.parts[s].len() - survivors[s];
                        }
                    }
                }
                let merged: Vec<Match> = order.into_iter().map(|x| all[x]).collect();
                outcome.finish(PlanRows::Whole(merged))
            }
            _ => unreachable!("merge_whole handles range and knn only"),
        }
    }

    fn merge_subseq(
        &self,
        logical: &LogicalPlan,
        mut outcome: PartialOutcome,
    ) -> Result<ShardedOutcome> {
        let mut all: Vec<SubseqMatch> = Vec::new();
        for (s, rows) in outcome.shard_rows.drain(..).enumerate() {
            if let Some(PlanRows::Windows(matches)) = rows {
                all.extend(matches.into_iter().map(|m| SubseqMatch {
                    series: self.map.to_global(s, m.series),
                    offset: m.offset,
                    distance: m.distance,
                }));
            }
        }
        match logical {
            LogicalPlan::SubseqRange { .. } => {
                all.sort_by_key(|m| (m.series, m.offset));
            }
            LogicalPlan::SubseqKnn { k, .. } => {
                all.sort_by(|a, b| {
                    a.distance
                        .total_cmp(&b.distance)
                        .then((a.series, a.offset).cmp(&(b.series, b.offset)))
                });
                all.truncate(*k);
            }
            _ => unreachable!("merge_subseq handles subsequence forms only"),
        }
        outcome.finish(PlanRows::Windows(all))
    }

    /// Local pairs plus the cross-shard stage, which runs a join operator
    /// of the same table ([`run_join`]) over pairs of shards. Its method
    /// comes from the statement's force, not from a cost comparison: the
    /// scan join a scan force names, else the index-nested-loop probe.
    /// The bind has already rejected what no join accepts (a time warp, a
    /// bad threshold), so the stage only ever sees a valid bound join.
    fn merge_join(
        &self,
        mut outcome: PartialOutcome,
        join: JoinBound<'_>,
        forced: Option<ForceOp>,
    ) -> Result<ShardedOutcome> {
        // Local pairs, remapped to global ids. The order-preserving
        // local→global embedding keeps canonical `a < b` orientation.
        let mut pairs: Vec<JoinPair> = Vec::new();
        for (s, rows) in outcome.shard_rows.drain(..).enumerate() {
            if let Some(PlanRows::Pairs(local)) = rows {
                pairs.extend(local.into_iter().map(|p| JoinPair {
                    a: self.map.to_global(s, p.a),
                    b: self.map.to_global(s, p.b),
                    distance: p.distance,
                }));
            }
        }
        let op = match forced {
            Some(ForceOp::Scan) => PhysicalOp::JoinScan {
                mode: ScanMode::EarlyAbandon,
            },
            Some(ForceOp::ScanFull) => PhysicalOp::JoinScan {
                mode: ScanMode::Naive,
            },
            _ => PhysicalOp::JoinIndex { dedup: false },
        };
        // A forced index join keeps the paper's twice-per-pair accounting
        // by probing every ordered shard pair and reporting
        // `(probe, partner)`; every other answer meets each unordered
        // shard pair once and orients its pairs `a < b`.
        let directed = forced == Some(ForceOp::Index);
        let active: Vec<usize> = (0..self.parts.len())
            .filter(|&s| !self.parts[s].is_empty())
            .collect();
        for (ai, &sa) in active.iter().enumerate() {
            for &sb in &active[ai + 1..] {
                let orders = if directed { 2 } else { 1 };
                for (probe, partner) in [(sa, sb), (sb, sa)].into_iter().take(orders) {
                    let (found, exec) =
                        run_join(op, &self.parts[probe], &self.parts[partner], join)?;
                    outcome.per_shard[probe].absorb(&exec);
                    pairs.extend(found.into_iter().map(|p| {
                        let a = self.map.to_global(probe, p.a);
                        let b = self.map.to_global(partner, p.b);
                        let (a, b) = if directed {
                            (a, b)
                        } else {
                            (a.min(b), a.max(b))
                        };
                        JoinPair {
                            a,
                            b,
                            distance: p.distance,
                        }
                    }));
                }
            }
        }
        pairs.sort_by_key(|p| (p.a, p.b));
        outcome.finish(PlanRows::Pairs(pairs))
    }

    /// Folds raw scatter results into a partially-built outcome: first
    /// error (in shard order) wins, counters and plans line up by shard.
    fn collect(
        &self,
        ran: Vec<Option<Result<(PlanChoice, PlanRows, ExecStats)>>>,
    ) -> Result<PartialOutcome> {
        let mut per_shard = vec![ExecStats::default(); self.parts.len()];
        let mut per_shard_rows = vec![0usize; self.parts.len()];
        let mut plans: Vec<Option<PlanChoice>> = vec![None; self.parts.len()];
        let mut shard_rows: Vec<Option<PlanRows>> = Vec::with_capacity(self.parts.len());
        for (s, slot) in ran.into_iter().enumerate() {
            match slot {
                None => shard_rows.push(None),
                Some(Err(e)) => return Err(e),
                Some(Ok((choice, rows, exec))) => {
                    per_shard[s] = exec;
                    per_shard_rows[s] = rows.len();
                    plans[s] = Some(choice);
                    shard_rows.push(Some(rows));
                }
            }
        }
        Ok(PartialOutcome {
            per_shard,
            per_shard_rows,
            plans,
            shard_rows,
        })
    }
}

/// Scatter results before the typed merge.
struct PartialOutcome {
    per_shard: Vec<ExecStats>,
    per_shard_rows: Vec<usize>,
    plans: Vec<Option<PlanChoice>>,
    shard_rows: Vec<Option<PlanRows>>,
}

impl PartialOutcome {
    fn finish(mut self, rows: PlanRows) -> Result<ShardedOutcome> {
        let merged = ExecStats::sum(&self.per_shard);
        if self.per_shard.len() == 1 {
            self.per_shard.clear();
        }
        Ok(ShardedOutcome {
            rows,
            merged,
            per_shard: self.per_shard,
            per_shard_rows: self.per_shard_rows,
            plans: self.plans,
        })
    }
}

/// The reported plan name of a scatter-gather run over `plans.len()`
/// shards: `Sharded(n):<op>` when every active shard chose the same
/// physical operator, `:mixed` when they diverged, `:empty` when every
/// shard was skipped — and the bare operator name for a one-shard
/// relation.
pub fn sharded_plan_name(plans: &[Option<PlanChoice>]) -> String {
    if let [Some(only)] = plans {
        return only.plan.op.name().to_string();
    }
    let mut ops = plans.iter().flatten().map(|c| c.plan.op.name());
    let body = match ops.next() {
        None => "empty",
        Some(first) if ops.all(|op| op == first) => first,
        Some(_) => "mixed",
    };
    format!("Sharded({}):{body}", plans.len())
}

/// Renders a sharded `EXPLAIN` tree: the logical header, the sharding
/// layout, then each shard's relation line, chosen operator, and
/// considered alternatives (skipped empty shards are marked). A one-shard
/// relation renders as the plain [`render_plan`] tree.
pub fn render_sharded_plan(
    logical: &LogicalPlan,
    sharded: &ShardedIndex,
    plans: &[Option<PlanChoice>],
) -> String {
    if let [Some(only)] = plans {
        return render_plan(logical, only, sharded.parts[0].stats());
    }
    let mut out = String::new();
    let mut header_done = false;
    for (s, slot) in plans.iter().enumerate() {
        let Some(choice) = slot else {
            continue;
        };
        let body = render_plan(logical, choice, sharded.parts[s].stats());
        let mut lines = body.splitn(2, '\n');
        let header = lines.next().unwrap_or("");
        let rest = lines.next().unwrap_or("");
        if !header_done {
            out.push_str(header);
            out.push('\n');
            let spec = sharded.map().spec();
            out.push_str(&format!(
                "  sharded: {} shard(s) by {}, scatter-gather merge\n",
                spec.count(),
                spec.by().name()
            ));
            header_done = true;
        }
        out.push_str(&format!("  shard {s}:\n"));
        for line in rest.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    for (s, slot) in plans.iter().enumerate() {
        if slot.is_none() {
            out.push_str(&format!("  shard {s}: empty, skipped\n"));
        }
    }
    out
}

/// Appends the sharded `EXPLAIN ANALYZE` counters: one per-shard actual
/// line each, then the exact-sum total. A one-shard relation gets the
/// plain [`render_analyze`] lines.
pub fn render_sharded_analyze(rendered: &mut String, rows: usize, outcome: &ShardedOutcome) {
    if outcome.plans.len() == 1 {
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
        if exec.pool_hits + exec.pool_misses > 0 {
            rendered.push_str(&format!(
                "     shard {s} measured: pool_hits={}, pool_misses={}\n",
                exec.pool_hits, exec.pool_misses,
            ));
        }
    }
    let total = &outcome.merged;
    rendered.push_str(&format!(
        "     total actual: rows={rows}, nodes={}, candidates={}, refined={}, false_hits={}, disk={}\n",
        total.nodes_visited, total.candidates, total.refined, total.false_hits, total.disk_accesses,
    ));
    if total.pool_hits + total.pool_misses > 0 {
        rendered.push_str(&format!(
            "     total measured: pool_hits={}, pool_misses={}\n",
            total.pool_hits, total.pool_misses,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::derived_bytes;
    use crate::plan::{execute_plan, RelationStats};
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
    fn range_boundaries_partition_lexicographically() {
        let labels = ["a", "b", "c", "d", "e", "f"];
        let spec = ShardSpec::range(3, &labels).unwrap();
        let shards: Vec<usize> = labels.iter().map(|l| spec.assign(l)).collect();
        // Contiguous, non-decreasing assignment over sorted labels.
        for w in shards.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(shards[0], 0);
        assert_eq!(*shards.last().unwrap(), 2);
        // New labels route deterministically into the fixed boundaries.
        assert_eq!(spec.assign("aa"), 0);
        assert_eq!(spec.assign("zz"), 2);
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
        let spec = ShardSpec::range(2, &["a0", "a1"]).unwrap();
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

    fn windows_of(sharded: &ShardedIndex) -> Vec<usize> {
        let entries = sharded.subseq_entries();
        entries.into_iter().map(|(window, _)| window).collect()
    }

    #[test]
    fn st_indexes_are_built_after_the_bind_kept_lru_and_shared_by_clones() {
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
        assert!(windows_of(&sharded).is_empty());
        let probe = |plans: &[Option<PlanChoice>]| plans[0].as_ref().unwrap().plan.op;
        assert!(matches!(
            probe(&cold),
            PhysicalOp::SubseqIndexProbe { cached: false, .. }
        ));
        // Fill to the bound, hit the oldest, add one more: the least
        // recently used window goes, a peek touches nothing.
        let full: Vec<usize> = (8..8 + MAX_SUBSEQ_WINDOWS).collect();
        for &w in &full {
            sharded.execute(&subseq_logical(w), None, 2).unwrap();
        }
        assert_eq!(windows_of(&sharded), full);
        let warm = sharded.plan_shards(&subseq_logical(9), None).unwrap();
        assert!(matches!(
            probe(&warm),
            PhysicalOp::SubseqIndexProbe { cached: true, .. }
        ));
        assert_eq!(windows_of(&sharded), full, "a plan is not a hit");
        let held = sharded.subseq_entries().remove(1).1.unwrap();
        sharded.execute(&subseq_logical(8), None, 2).unwrap();
        sharded.execute(&subseq_logical(20), None, 2).unwrap();
        let mut want = full[2..].to_vec();
        want.extend([8, 20]);
        assert_eq!(windows_of(&sharded), want);
        // Eviction dropped the set's reference, not the reader's.
        assert_eq!(held.len(), 3);
        assert!(held.iter().all(|st| st.config().window == 9));
        // A clone shares the indexes, not the set.
        let copy = sharded.clone();
        assert_eq!(windows_of(&copy), want);
        for ((_, a), (_, b)) in copy.subseq_entries().iter().zip(sharded.subseq_entries()) {
            let (a, b) = (a.as_ref().unwrap(), b.unwrap());
            assert!(a.iter().zip(&b).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        copy.execute(&subseq_logical(24), None, 2).unwrap();
        assert_eq!(windows_of(&sharded), want);
    }

    /// `(window, built)` of every held window, least recently used first.
    fn held(sharded: &ShardedIndex) -> Vec<(usize, bool)> {
        let entries = sharded.subseq_entries().into_iter();
        entries.map(|(w, parts)| (w, parts.is_some())).collect()
    }

    #[test]
    fn held_windows_are_built_by_their_first_statement_or_explain() {
        let rel = relation(12, 32, 33);
        let build = || {
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap()
        };
        // The saved side built two windows; the restored side holds them.
        let saved = build();
        for w in [8, 16] {
            saved.execute(&subseq_logical(w), None, 2).unwrap();
        }
        let mut restored = build();
        for w in [8, 16] {
            restored.hold_window(w).unwrap();
        }
        assert_eq!(held(&restored), [(8, false), (16, false)]);
        // What the relation could not have held is refused.
        assert!(matches!(
            restored.hold_window(1),
            Err(Error::InvalidWindow { window: 1 })
        ));
        assert!(matches!(
            restored.hold_window(8),
            Err(Error::Unsupported(_))
        ));
        // An EXPLAIN of a window not held builds and holds nothing.
        let cold = subseq_logical(12);
        let plans = restored.plan_shards(&cold, None).unwrap();
        let text = render_sharded_plan(&cold, &restored, &plans);
        assert!(text.contains("[cold"), "{text}");
        assert_eq!(held(&restored), [(8, false), (16, false)]);
        // A statement builds its window, and only that one.
        let want = saved.execute(&subseq_logical(16), None, 2).unwrap();
        let got = restored.execute(&subseq_logical(16), None, 2).unwrap();
        assert_eq!(got.rows, want.rows);
        assert_eq!(got.merged, want.merged);
        assert_eq!(got.per_shard, want.per_shard);
        assert_eq!(held(&restored), [(8, false), (16, true)]);
        // An EXPLAIN of a held window builds it, stamps nothing, and
        // prints what the saved side prints.
        let logical = subseq_logical(8);
        let plans = restored.plan_shards(&logical, None).unwrap();
        assert_eq!(held(&restored), [(8, true), (16, true)]);
        let text = render_sharded_plan(&logical, &restored, &plans);
        let want = saved.plan_shards(&logical, None).unwrap();
        assert_eq!(text, render_sharded_plan(&logical, &saved, &want));
        assert!(!text.contains("[cold"), "{text}");
    }

    #[test]
    fn racing_first_readers_of_a_held_window_share_one_build() {
        let rel = relation(40, 64, 37);
        let mut sharded =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(2).unwrap()).unwrap();
        sharded.hold_window(16).unwrap();
        let readers = std::sync::Barrier::new(8);
        let got: Vec<Vec<Arc<SubseqIndex>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        readers.wait();
                        sharded.subseq_indexes(16).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for parts in &got {
            assert!(parts.iter().zip(&got[0]).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }

    #[test]
    fn a_clone_never_builds_over_the_other_sides_series() {
        let rel = relation(12, 32, 35);
        // The series lengths a side's built window-8 indexes hold.
        let lens = |sharded: &ShardedIndex| -> Vec<usize> {
            let parts = sharded.subseq_entries().remove(0).1.expect("built");
            let shards = parts.iter();
            shards
                .flat_map(|st| (0..st.len()).map(|i| st.series(i).unwrap().len()))
                .collect()
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
        // A hit, a miss, a peek, the listing, an append and a clone all
        // still work.
        sharded.execute(&subseq_logical(16), None, 2).unwrap();
        sharded.execute(&subseq_logical(8), None, 2).unwrap();
        sharded.plan_shards(&subseq_logical(8), None).unwrap();
        assert_eq!(windows_of(&sharded), [16, 8]);
        let grown = TimeSeries::new([sharded.series(0).unwrap().values(), &[1.0, 2.0]].concat());
        sharded.extend_series_batch(vec![(0, grown)]).unwrap();
        assert_eq!(windows_of(&sharded.clone()), [16, 8]);
    }

    #[test]
    fn one_shard_reports_like_the_unsharded_engine() {
        let rel = relation(40, 32, 17);
        let whole = whole_index(&rel);
        let stats = RelationStats::from_index(&whole);
        let one =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(1).unwrap()).unwrap();
        assert_eq!(one.layout(), None);
        let logical = range_logical(&rel, 4, 1.5);
        let choice = Planner::new(&whole, &stats)
            .plan(&logical, None, None)
            .unwrap();
        let (want_rows, want_exec) = execute_plan(&logical, &choice.plan, &whole, None).unwrap();
        let mut want_text = render_plan(&logical, &choice, &stats);
        render_analyze(&mut want_text, want_rows.len(), &want_exec);

        let plans = one.plan_shards(&logical, None).unwrap();
        assert_eq!(sharded_plan_name(&plans), choice.plan.op.name());
        let mut text = render_sharded_plan(&logical, &one, &plans);
        let got = one.execute(&logical, None, 4).unwrap();
        render_sharded_analyze(&mut text, got.rows.len(), &got);
        assert_eq!(text, want_text);
        assert_eq!(got.rows, want_rows);
        assert_eq!(got.merged, want_exec);
        assert!(got.per_shard.is_empty());

        let three =
            ShardedIndex::build(IndexConfig::default(), &rel, ShardSpec::hash(3).unwrap()).unwrap();
        assert_eq!(
            three.layout().map(|(by, n, _)| (by, n)),
            Some((ShardBy::Hash, 3))
        );
        let plans = three.plan_shards(&logical, None).unwrap();
        assert!(sharded_plan_name(&plans).starts_with("Sharded(3):"));
    }
}
