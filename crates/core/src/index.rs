//! The similarity index: Algorithms 1 and 2 of the paper.
//!
//! [`SimilarityIndex`] stores a relation of equal-length time series. Each
//! series is mapped to a feature point (mean, std, first `k` DFT
//! coefficients of its normal form — or raw coefficients, per the schema)
//! and inserted into an R\*-tree. Queries that involve a safe
//! transformation `T` never materialize the transformed index `I' = T(I)`:
//! the traversal applies `T` to every node MBR on the fly (Algorithm 1) and
//! tests the result against the search rectangle (Algorithm 2), then
//! post-processes candidates against full records ([`Refine`], the one
//! exact check every operator shares). Lemma 1 guarantees no false
//! dismissals; tests assert exact agreement with linear scans.
//!
//! A record is its samples: next to the series it keeps the mean, the
//! std and the indexed coefficients ([`crate::features`]), which is all
//! the filter reads. The exact check sums `(T(x̂)_t − q̂_t)²` over time —
//! `x̂` the stored series normalized on the fly, `T(x̂)` the
//! transformation's time-domain action ([`crate::transform`]), `q̂` the
//! query's normal form, or in a join the probe's own `T(x̂_i)` — which by
//! Parseval is the `D²` the filter's lower bound must stay under
//! ([`crate::space`] states that inequality in floating point).

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use tsq_dft::FftPlanner;
use tsq_rtree::knn::nearest_with_tie;
use tsq_rtree::page::PagePin;
use tsq_rtree::search::search_with;
use tsq_rtree::{
    NodeStore, PageCache, PagedTree, RStarTree, RTreeConfig, Rect, RectView, SearchStats,
};
use tsq_series::distance::{limit_sq, sum_sq_blocks, sum_sq_within, ABANDON_BLOCK};
use tsq_series::TimeSeries;
use tsq_store::{Decoder, Encoder, StoreError};

use crate::error::{Error, Result};
use crate::executor::{default_threads, parallel_map};
use crate::features::{FeatureSchema, Features, Normalize};
use crate::plan::{RelationStats, SpaceProfile};
use crate::records::{RecordFile, RecordFrame, RecordIo};
use crate::scan::ScanMode;
use crate::space::{QueryWindow, SpaceKind};
use crate::transform::LinearTransform;

/// Configuration of a [`SimilarityIndex`].
///
/// No statement, CLI flag or wire message sets any of this.
/// [`FeatureSchema::Raw`], [`SpaceKind::Rectangular`] and
/// `bulk_load: false` are **reference-only**: reachable through
/// `Catalog::with_config` alone, kept for the tests that compare against
/// them (`S_rect` vs `S_pol`, insert vs bulk load, Theorem 2, AFS93).
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// Feature schema (default: the paper's NormalForm layout with `k = 2`,
    /// i.e. a 6-dimensional index).
    pub schema: FeatureSchema,
    /// Coordinate space (default: polar, as in the paper's experiments).
    pub space: SpaceKind,
    /// R\*-tree tuning.
    pub rtree: RTreeConfig,
    /// Build the tree with STR bulk loading (faster) instead of repeated
    /// insertion.
    pub bulk_load: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            schema: FeatureSchema::NormalForm { k: 2 },
            space: SpaceKind::Polar,
            rtree: RTreeConfig::default(),
            bulk_load: true,
        }
    }
}

/// A stored series with its extracted features.
#[derive(Debug, Clone)]
pub struct StoredSeries {
    /// The original series, held here alone: a catalog relation keeps its
    /// labels beside the index and no copy (an ST-index reads it, and keeps
    /// none). Empty once the index is paged: the samples then live in its record file, and
    /// [`SimilarityIndex::record`] reads them.
    pub series: TimeSeries,
    /// What the filter reads: mean, std and the indexed coefficients of
    /// the indexed representation (coefficients `0..coeff_indices().end`).
    pub features: Features,
}

/// One record as the exact check reads it: its features, and its samples
/// — borrowed from the index in memory, or from the pinned record frame
/// holding them when the index is paged (the frame stays resident while
/// the record is held).
#[derive(Debug)]
pub struct Record<'a> {
    /// What the filter reads.
    pub features: &'a Features,
    samples: Samples<'a>,
}

#[derive(Debug)]
enum Samples<'a> {
    Held(&'a [f64]),
    Pinned(PagePin<'a, RecordFrame>, Range<usize>),
}

impl Record<'_> {
    /// The record's samples, in time order.
    pub(crate) fn samples(&self) -> &[f64] {
        match &self.samples {
            Samples::Held(values) => values,
            Samples::Pinned(frame, at) => &frame[at.clone()],
        }
    }
}

impl<'a> From<&'a StoredSeries> for Record<'a> {
    /// A record held in memory.
    fn from(stored: &'a StoredSeries) -> Self {
        Record {
            features: &stored.features,
            samples: Samples::Held(stored.series.values()),
        }
    }
}

/// One query answer: a series id and its exact distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Position of the series in the relation (insertion order).
    pub id: usize,
    /// Exact Euclidean distance (between transformed representations).
    pub distance: f64,
}

/// Statistics of one query, extending the R-tree counters with
/// post-processing effort.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Index traversal counters (nodes visited = simulated disk accesses).
    pub index: SearchStats,
    /// Candidates produced by the index level.
    pub candidates: usize,
    /// Candidates rejected by the exact check (false hits of the k-index).
    pub false_hits: usize,
    /// Exact distance computations performed.
    pub exact_checks: usize,
    /// Record-pool traffic of the exact checks (paged storage only).
    pub records: RecordIo,
}

/// The exact check of one bound statement: `D(T(o), q)` for a stored
/// record `o`, decided against the statement's threshold.
#[derive(Debug, Clone)]
pub struct Refine<'a> {
    pub(crate) transform: &'a LinearTransform,
    /// [`LinearTransform::leaves_samples_unchanged`]: the sum reads the
    /// normalized samples in place.
    identity: bool,
    /// What the filter reads: the query's indexed coefficients.
    pub(crate) query: Features,
    /// What the exact check reads: the query's representation in time —
    /// its normal form, or a join probe's own `T(x̂)`.
    target: Vec<f64>,
    /// `limit_sq(eps)`; infinite for a statement without a threshold.
    limit: f64,
    schema: FeatureSchema,
}

impl<'a> Refine<'a> {
    /// The refine of a statement validated against a relation indexed
    /// under `schema`: `target` under `t`, accepted up to a sum of `limit`.
    pub(crate) fn new(
        schema: FeatureSchema,
        t: &'a LinearTransform,
        query: Features,
        target: Vec<f64>,
        limit: f64,
    ) -> Self {
        Refine {
            transform: t,
            identity: t.leaves_samples_unchanged(),
            query,
            target,
            limit,
            schema,
        }
    }

    /// `Σ_t (T(x̂)_t − q̂_t)²` for a stored record, `None` once a partial
    /// sum exceeds `limit`: the shared loop over `T(x̂)` as
    /// [`LinearTransform::with_image`] defines it, eight outputs at a time,
    /// so a record given up on is not transformed past that block — and
    /// over the normalized samples in place under the identity (`1·v` is
    /// `v`, so the bits are the same).
    fn sum_sq(&self, record: &Record<'_>, limit: f64) -> Option<f64> {
        let norm = Normalize::of(record.features, self.schema);
        let (x, q) = (record.samples(), &self.target[..]);
        let sq = |d: f64| d * d;
        if self.identity {
            assert_eq!(x.len(), q.len(), "distance requires equal lengths");
            return sum_sq_within(q.len(), |t| sq(norm.at(x[t]) - q[t]), limit);
        }
        self.transform.with_image(x, norm, |image| {
            assert_eq!(image.len(), q.len(), "distance requires equal lengths");
            let block = |t: usize| {
                let (y, q) = (image.block(t), &q[t..][..ABANDON_BLOCK]);
                std::array::from_fn(|j| sq(y[j] - q[j]))
            };
            sum_sq_blocks(q.len(), block, |t| sq(image.at(t) - q[t]), limit)
        })
    }

    /// The membership test every operator shares: the distance `record`
    /// is reported with, if that is within the statement's threshold.
    /// [`ScanMode::EarlyAbandon`] stops summing once the answer is "no",
    /// [`ScanMode::Naive`] tests after the full sum: same loop, same limit.
    pub(crate) fn within(&self, record: &Record<'_>, mode: ScanMode) -> Option<f64> {
        self.sum_sq(record, mode.abandon_at(self.limit))
            .filter(|sum| *sum <= self.limit)
            .map(f64::sqrt)
    }

    /// The exact distance `D(T(record), q)`, or `None` when it is strictly
    /// greater than `bound` — what a k-NN search asks of a record once it
    /// holds `k` distances, `bound` being the largest of them. The loop
    /// gives up at `limit_sq(bound)`, so a distance it returns is the full
    /// sum's, bit for bit.
    pub(crate) fn distance_within(&self, record: &Record<'_>, bound: f64) -> Option<f64> {
        let limit = match bound.is_finite() {
            true => limit_sq(bound),
            false => f64::INFINITY,
        };
        self.sum_sq(record, limit).map(f64::sqrt)
    }

    /// The exact distance `D(T(record), q)`, whatever the threshold.
    pub fn distance(&self, record: &Record<'_>) -> f64 {
        self.sum_sq(record, f64::INFINITY)
            .expect("no sum exceeds an infinite limit")
            .sqrt()
    }
}

/// A tree payload read as the series id it stores: the in-memory tree
/// hands out `&usize`, a page holds the id as a `u64` word.
pub(crate) trait SeriesId: Copy {
    fn series_id(self) -> usize;
}

impl SeriesId for &usize {
    fn series_id(self) -> usize {
        *self
    }
}

impl SeriesId for u64 {
    fn series_id(self) -> usize {
        self as usize
    }
}

/// The similarity index over a relation of time series.
///
/// Series lengths are *usually* equal, but streaming ingest makes them
/// transiently unequal: a single-series append leaves the relation ragged
/// until the other series catch up. The feature dimensionality is fixed by
/// the schema (`2 + 2k` under the default NormalForm layout), independent
/// of series length, so a ragged relation still yields one consistent
/// feature space — but whole-series Euclidean distance is undefined across
/// lengths, so queries are gated on uniformity ([`Error::Ragged`]).
///
/// The R\*-tree and the planner's profile of it are *derived*: one
/// function of the configuration and the stored features (`pack`), kept in
/// one cell that [`SimilarityIndex::build`] and
/// [`SimilarityIndex::read_from`] fill before they return, an append
/// empties, and the next reader — a whole-match statement's plan, an
/// `EXPLAIN`, [`SimilarityIndex::tree`], [`SimilarityIndex::attach_paged`]
/// — refills. Nothing else constructs either, so an appended, a restored
/// and a freshly built index over the same series hold the same tree.
///
/// Storage comes in two modes. By default the R\*-tree and the samples
/// live in memory. [`SimilarityIndex::attach_paged`] moves the nodes into
/// a page file and the samples into a record file, both behind one
/// pin-counted buffer cache; every traversal then fetches nodes, and
/// every exact check its record, through the cache, and query statistics
/// carry *measured* pool hits and misses next to the simulated
/// node-visit counters.
#[derive(Debug, Clone)]
pub struct SimilarityIndex {
    config: IndexConfig,
    /// Length of the longest stored series.
    series_len: usize,
    /// Length of the shortest stored series (0 for the empty index) —
    /// kept next to `series_len` so the uniformity gate is two loads, not
    /// a walk over the store on every plan and every execute.
    min_len: usize,
    store: Vec<StoredSeries>,
    /// `pack(&config, &store, _)`, empty between an append and the next read
    /// of it ([`SimilarityIndex::packed`] is the one accessor).
    packed: OnceLock<Packed>,
    /// Paged storage; when set, the packed tree is empty, every record's
    /// series is empty, and traversals and exact checks go through the
    /// page and record files' handles onto the cache. Shared so clones
    /// reuse the handles (and their cumulative counters).
    paged: Option<Arc<Paged>>,
}

/// A paged index's files: its nodes and its records.
#[derive(Debug)]
struct Paged {
    tree: PagedTree,
    records: RecordFile,
}

/// What is derived from a relation as a whole.
#[derive(Debug, Clone)]
struct Packed {
    tree: RStarTree<usize>,
    stats: RelationStats,
}

/// The one construction of a whole-match tree and its profile: a feature
/// point per stored series, in id order, bulk-loaded (or inserted one by
/// one, per the configuration). Identical features produce an identical
/// tree, which is what lets an appended or restored index match one built
/// from scratch in answers and traversal statistics.
/// The bulk load sorts and gathers on up to `threads` threads; the tree
/// is the same at every count.
fn pack(config: &IndexConfig, store: &[StoredSeries], threads: usize) -> Packed {
    let (space, schema) = (config.space, config.schema);
    let dims = schema.dims();
    let tree = if config.bulk_load {
        // Each point goes straight into its leaf slot, as a degenerate
        // rectangle: `lo` and `hi` both the point.
        RStarTree::bulk_load_flat(config.rtree, dims, store.len(), threads, |slots, ids| {
            for (slot, s) in slots.zip(store) {
                space.point_into(&s.features, schema, &mut slot[..dims]);
                slot.copy_within(..dims, dims);
            }
            ids.extend(0..store.len())
        })
    } else {
        let mut t = RStarTree::new(config.rtree);
        for (id, s) in store.iter().enumerate() {
            t.insert_point(&space.point(&s.features, schema), id);
        }
        t
    };
    let stats = RelationStats {
        cardinality: store.len(),
        series_len: len_bounds(store).1,
        dims: config.schema.dims(),
        profile: SpaceProfile::of_tree(&tree, store.len() as u64),
    };
    Packed { tree, stats }
}

/// Fewest samples a build's feature extraction needs before it fans out:
/// a smaller one runs on the calling thread. Handing a batch to the pool
/// costs about 9 µs (`pool.map_submit_us`), and extraction about 4 ns a
/// sample on one thread (8 000 × 128 `walks` in 4.2 ms, 400 × 1 024 in
/// 1.5 ms, 2-vCPU VM), so 2^16 samples are about 0.27 ms of work: the
/// hand-off is 3 % of it.
const EXTRACT_FAN_OUT_MIN: usize = 1 << 16;

/// Extracts the features of `series`, in order, on up to `threads`
/// threads; nothing is kept on error.
///
/// The schema is checked against every series before any record is
/// allocated, so a cut-off no series fits allocates nothing. The records
/// are then allocated here, on the calling thread, in id order, and runs
/// of consecutive series fill them in place, each run with a planner of
/// its own (a planner's plans are `Rc`s): a pool worker keeps nothing it
/// allocates.
fn extract_all(
    config: &IndexConfig,
    series: Vec<TimeSeries>,
    threads: usize,
) -> Result<Vec<StoredSeries>> {
    let schema = config.schema;
    for s in &series {
        schema.validate(s.len())?;
    }
    let kept = schema.coeff_indices().end;
    let mut stored: Vec<StoredSeries> = series
        .into_iter()
        .map(|series| StoredSeries {
            features: Features::room(series.len(), kept),
            series,
        })
        .collect();
    let extract = |run: &mut [StoredSeries]| {
        let mut planner = FftPlanner::new();
        for s in run {
            s.features.compute(&s.series, schema, &mut planner);
        }
    };
    let samples: usize = stored.iter().map(|s| s.series.len()).sum();
    if threads <= 1 || samples < EXTRACT_FAN_OUT_MIN {
        extract(&mut stored);
    } else {
        let run = stored.len().div_ceil(threads);
        let runs = stored.chunks_mut(run).collect();
        parallel_map(threads, runs, extract);
    }
    Ok(stored)
}

/// An append hands an index a series' extended value to hold in place
/// of `old`: one that is shorter is refused, and the old samples are
/// its prefix.
pub(crate) fn check_extends(old: &TimeSeries, extended: &TimeSeries) -> Result<()> {
    if extended.len() < old.len() {
        return Err(Error::LengthMismatch {
            expected: old.len(),
            got: extended.len(),
        });
    }
    debug_assert!(
        extended.values().starts_with(old.values()),
        "an extension keeps the old samples as its prefix"
    );
    Ok(())
}

/// `(shortest, longest)` series length of a store; `(0, 0)` when empty.
fn len_bounds(store: &[StoredSeries]) -> (usize, usize) {
    let lens = store.iter().map(|s| s.series.len());
    (lens.clone().min().unwrap_or(0), lens.max().unwrap_or(0))
}

impl SimilarityIndex {
    /// Builds an index over a relation. Lengths may differ (a relation
    /// mid-ingest is ragged); whole-series queries are then gated until
    /// appends even the lengths out.
    ///
    /// Every feature is extracted before the first point is made: a
    /// point's two small vectors allocated between the permanent records'
    /// coefficients would be holes no `malloc_trim` returns once the tree
    /// moves to a page file.
    ///
    /// # Errors
    /// [`Error::InvalidCutoff`] if the schema's `k` does not fit some
    /// series.
    pub fn build(config: IndexConfig, relation: Vec<TimeSeries>) -> Result<Self> {
        Self::build_parallel(config, relation, default_threads())
    }

    /// [`SimilarityIndex::build`] with its two heavy phases — feature
    /// extraction and the STR bulk load — on up to `threads` threads. The
    /// index is *identical* at every thread count: each record's features
    /// are computed alone, and the tree does not depend on the count.
    pub(crate) fn build_parallel(
        config: IndexConfig,
        relation: Vec<TimeSeries>,
        threads: usize,
    ) -> Result<Self> {
        let store = extract_all(&config, relation, threads)?;
        Ok(Self::packed_on(config, store, threads))
    }

    /// An index over records whose features are extracted already, in id
    /// order — [`SimilarityIndex::build`] without its FFTs, for records
    /// moved out of another index under the same configuration
    /// ([`SimilarityIndex::into_records`]). Features depend on the series
    /// alone, so the index is the one a build over the series would be.
    pub(crate) fn from_records(config: IndexConfig, store: Vec<StoredSeries>) -> Self {
        Self::packed_on(config, store, default_threads())
    }

    /// An index over `store` with its tree packed on up to `threads`
    /// threads: set-up pays for the tree, not the first query.
    fn packed_on(config: IndexConfig, store: Vec<StoredSeries>, threads: usize) -> Self {
        let (min_len, series_len) = len_bounds(&store);
        let packed = OnceLock::from(pack(&config, &store, threads));
        SimilarityIndex {
            config,
            series_len,
            min_len,
            store,
            packed,
            paged: None,
        }
    }

    /// The stored records, in id order; the tree and any paged storage go.
    pub(crate) fn into_records(self) -> Vec<StoredSeries> {
        self.store
    }

    /// The derived state, packed now if an append emptied the cell. The
    /// first reader packs it while later readers wait.
    fn packed(&self) -> &Packed {
        self.packed
            .get_or_init(|| pack(&self.config, &self.store, default_threads()))
    }

    /// True while the derived state is held (an append empties it).
    #[cfg(test)]
    pub(crate) fn is_packed(&self) -> bool {
        self.packed.get().is_some()
    }

    /// The planner's statistics of this relation, profiled from the tree
    /// [`SimilarityIndex::tree`] returns (and kept when the nodes move to
    /// a page file).
    pub(crate) fn stats(&self) -> &RelationStats {
        &self.packed().stats
    }

    /// Swaps in a statement's extended series — `(id, value)`, each id at
    /// most once: the catalog folds a statement's rows into one value per
    /// label — re-extracting the touched series' features (the others are
    /// untouched) and emptying the derived cell: nothing is packed here,
    /// and while the relation is ragged nothing can read a tree anyway.
    /// The next reader packs once, so the result is indistinguishable —
    /// features, tree, query answers, traversal statistics — from an index
    /// freshly built over the final data. The index holds the values it is
    /// handed ([`TimeSeries`] clones share one buffer); the old samples are
    /// each one's prefix.
    ///
    /// Validation is atomic across the batch: every feature is extracted
    /// before anything is committed, so on any error the index is exactly
    /// as it was.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when paged storage is attached,
    /// [`Error::UnknownSeries`] for a bad id, [`Error::LengthMismatch`]
    /// for a value shorter than the stored one, [`Error::InvalidCutoff`]
    /// if a length does not fit the schema.
    pub(crate) fn extend_series_batch(&mut self, edits: &[(usize, TimeSeries)]) -> Result<()> {
        self.check_appendable()?;
        let mut planner = FftPlanner::new();
        let mut ready = Vec::with_capacity(edits.len());
        for (id, series) in edits {
            let Some(stored) = self.store.get(*id) else {
                return Err(Error::UnknownSeries(*id));
            };
            check_extends(&stored.series, series)?;
            let features = Features::indexed(series, self.config.schema, &mut planner)?;
            let series = series.clone();
            ready.push((*id, StoredSeries { series, features }));
        }
        // Commit phase: infallible.
        for (id, stored) in ready {
            self.store[id] = stored;
        }
        self.store_changed();
        Ok(())
    }

    /// Appends new series, returning their ids in order, and empties the
    /// derived cell as `SimilarityIndex::extend_series_batch` does. A
    /// new series may differ in length from the others (the relation is
    /// then ragged and whole-series queries are gated until appends even
    /// the lengths out). Feature extraction for every series happens
    /// before anything is committed, so a failure leaves the index exactly
    /// as it was.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when paged storage is attached,
    /// [`Error::InvalidCutoff`] if the schema does not fit a new series.
    pub fn push_series_batch(&mut self, series: Vec<TimeSeries>) -> Result<Vec<usize>> {
        self.check_appendable()?;
        let staged = extract_all(&self.config, series, default_threads())?;
        let first = self.store.len();
        self.store.extend(staged);
        self.store_changed();
        Ok((first..self.store.len()).collect())
    }

    fn check_appendable(&self) -> Result<()> {
        match self.paged {
            Some(_) => Err(Error::Unsupported(
                "append to a relation with paged storage attached".to_string(),
            )),
            None => Ok(()),
        }
    }

    /// After every committed append: the length bounds follow the store,
    /// and what was packed from the old store is dropped unread.
    fn store_changed(&mut self) {
        (self.min_len, self.series_len) = len_bounds(&self.store);
        self.packed.take();
    }

    /// Number of stored series.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Length of the longest stored series — the length of *every* series
    /// whenever the relation is uniform (the steady state; see
    /// `SimilarityIndex::check_uniform`).
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// `Ok(())` when every stored series has the same length (vacuously for
    /// the empty index), [`Error::Ragged`] otherwise. Whole-series query
    /// forms call this first: Euclidean distance across unequal lengths is
    /// undefined, so a mid-ingest ragged relation is rejected with a typed
    /// error instead of answered wrongly.
    pub(crate) fn check_uniform(&self) -> Result<()> {
        match self.len_bounds() {
            (min, max) if min != max => Err(Error::Ragged { min, max }),
            _ => Ok(()),
        }
    }

    /// `(shortest, longest)` stored series length; `(0, 0)` when empty.
    pub fn len_bounds(&self) -> (usize, usize) {
        (self.min_len, self.series_len)
    }

    /// The configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Record `id` as the exact check reads it: a borrow of the held
    /// record in memory; when paged, a pin of the record frame holding
    /// it, counted in `io`. Every operator reads records through here.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for an id past the end; typed
    /// [`Error::Store`] failures when the record file cannot be read or
    /// disagrees with the index.
    pub fn record(&self, id: usize, io: &mut RecordIo) -> Result<Record<'_>> {
        let stored = self.store.get(id).ok_or(Error::UnknownSeries(id))?;
        let samples = match &self.paged {
            None => Samples::Held(stored.series.values()),
            Some(paged) => {
                let (frame, at) = paged.records.pin(id, &self.store, io)?;
                Samples::Pinned(frame, at)
            }
        };
        Ok(Record {
            features: &stored.features,
            samples,
        })
    }

    /// Stored series by id: the held value in memory (a clone shares its
    /// buffer), a copy of the record read from the record file when
    /// paged.
    ///
    /// # Errors
    /// Same as [`SimilarityIndex::record`].
    pub fn series(&self, id: usize) -> Result<TimeSeries> {
        if self.paged.is_none() {
            let stored = self.store.get(id).ok_or(Error::UnknownSeries(id))?;
            return Ok(stored.series.clone());
        }
        let record = self.record(id, &mut RecordIo::default())?;
        Ok(TimeSeries::new(record.samples().to_vec()))
    }

    /// Features of a stored series by id, with the half spectrum a query's
    /// carry: derived from its samples by one FFT — a record keeps the
    /// indexed coefficients alone. `None` for an unknown id, or a record
    /// the record file cannot give.
    pub fn features(&self, id: usize) -> Option<Features> {
        let series = self.series(id).ok()?;
        let features = Features::extract(&series, self.config.schema, &mut FftPlanner::new());
        Some(features.expect("a stored series fits the schema"))
    }

    /// All stored entries, in id order. A paged index's entries keep their
    /// features, and an empty series: [`SimilarityIndex::record`] reads
    /// the samples.
    pub fn entries(&self) -> &[StoredSeries] {
        &self.store
    }

    /// Access to the underlying R\*-tree (read-only), packed first if an
    /// append emptied the cell. Empty when paged storage is attached — the
    /// nodes then live in the page file (see [`SimilarityIndex::paged`]).
    pub fn tree(&self) -> &RStarTree<usize> {
        &self.packed().tree
    }

    /// The paged node storage, when attached.
    pub fn paged(&self) -> Option<&PagedTree> {
        self.paged.as_deref().map(|paged| &paged.tree)
    }

    /// The record file, when paged storage is attached.
    pub fn records(&self) -> Option<&RecordFile> {
        self.paged.as_deref().map(|paged| &paged.records)
    }

    /// True when the relation's nodes and records live in files.
    pub(crate) fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    /// Switches the relation to paged storage. Writes a page file at
    /// `path` holding the R\*-tree's nodes one per fixed-size page, and a
    /// record file beside it (`path` with the extension `records`) holding
    /// the samples, in id order, whole records per frame (`crate::records`
    /// has the layout). Both files join `cache`, whose one byte budget
    /// bounds every node page and record frame of every relation attached
    /// to it (each frame charged its slot size); the in-memory nodes and
    /// every sample buffer the index held are dropped, the planner's
    /// profile and each record's features stay. Every subsequent traversal
    /// fetches nodes, and every exact check its record, through the cache,
    /// so query statistics carry measured `pool_hits`/`pool_misses` and
    /// record hits and misses — each file's handle counts its own. Answers
    /// and the other counters are the in-memory index's: the refine reads
    /// the same values in the same order.
    ///
    /// Both files are created new — a file already at either path is
    /// unlinked, never written into, so a live handle on it keeps its
    /// bytes — and read only through the handles they were written with
    /// ([`tsq_rtree::page::PageFile`]). Each is checked at its first pin
    /// against the header block its writer wrote, the writer's tag
    /// included: a file written over it in place — by another open of the
    /// same snapshot, say — is a typed error, never other rows. The index
    /// owns them: they are removed when its last clone drops.
    ///
    /// The relation becomes append-proof
    /// ([`SimilarityIndex::push_series_batch`] is rejected); snapshots
    /// still work — [`SimilarityIndex::write_to`] reads every record
    /// through the cache.
    ///
    /// # Errors
    /// [`Error::Unsupported`] if paged storage is already attached;
    /// [`Error::Store`] on I/O failure or when the configured fan-out
    /// exceeds the maximum page size.
    pub fn attach_paged(&mut self, path: &Path, cache: &Arc<PageCache>) -> Result<()> {
        if self.paged.is_some() {
            return Err(Error::Unsupported(
                "paged storage is already attached".to_string(),
            ));
        }
        let tree = PagedTree::create(path, self.tree(), |&id| id as u64, cache)?;
        let records_path = path.with_extension("records");
        let records = RecordFile::create(&records_path, &self.store, tree.page_size(), cache)?;
        let packed = self.packed.get_mut().expect("packed to write the pages");
        packed.tree = RStarTree::new(self.config.rtree);
        // One empty buffer shared by every record: the samples are in the
        // record file now.
        let none = TimeSeries::new(Vec::new());
        for stored in &mut self.store {
            stored.series = none.clone();
        }
        self.paged = Some(Arc::new(Paged { tree, records }));
        Ok(())
    }

    /// [`SimilarityIndex::attach_paged`] into a cache of its own of
    /// `budget_bytes`, which bounds this relation's node pages and record
    /// frames together.
    ///
    /// # Errors
    /// Same failure modes as [`SimilarityIndex::attach_paged`].
    pub fn attach_paged_budget(&mut self, path: &Path, budget_bytes: u64) -> Result<()> {
        self.attach_paged(path, &PageCache::new(budget_bytes))
    }

    /// Serializes what the index cannot derive — its configuration and
    /// the stored series, in id order — into `enc` (see [`crate::store`]
    /// for the encodings). Features, tree and planner statistics are
    /// functions of these and are not written. A paged index reads every
    /// record through its record file (in id order, so the file is read
    /// front to back) and writes the bytes the in-memory index writes; no
    /// node page is read.
    ///
    /// # Errors
    /// Typed [`Error::Store`] failures when a paged index's record file
    /// cannot be read.
    pub fn write_to(&self, enc: &mut Encoder) -> Result<()> {
        crate::store::write_index_config(enc, &self.config);
        enc.usize(self.store.len());
        let mut io = RecordIo::default();
        for id in 0..self.store.len() {
            crate::store::write_samples(enc, self.record(id, &mut io)?.samples());
        }
        Ok(())
    }

    /// Restores an index written by [`SimilarityIndex::write_to`]: decodes
    /// the series and calls [`SimilarityIndex::build`]. The tree is a pure
    /// function of the series, so it is rebuilt identically — every query
    /// on the restored index returns the same answers with the same
    /// traversal statistics as the original.
    ///
    /// # Errors
    /// [`Error::Store`] for truncated or corrupt bytes, a series the
    /// schema does not fit included — never a panic.
    pub fn read_from(dec: &mut Decoder<'_>) -> Result<Self> {
        let config = crate::store::read_index_config(dec)?;
        let count = dec.seq(8, "stored series count")?;
        let mut relation = Vec::with_capacity(count);
        for _ in 0..count {
            // Lengths may differ per series: a relation snapshotted
            // mid-ingest is ragged.
            relation.push(crate::store::read_series(dec)?);
        }
        Self::build(config, relation).map_err(|e| {
            StoreError::corrupt(format!("index schema does not fit a stored series: {e}")).into()
        })
    }

    /// **Algorithm 2, step 1** — validation, in the one order every entry
    /// point reports (direct calls, the planner, the plan executor, a
    /// sharded relation, the catalog): a ragged relation, then the
    /// threshold, then the transformation (a time warp under a self-join,
    /// arity, safety for the coordinate space), then the query length,
    /// then whether the transformation maps real series to real series at
    /// all ([`LinearTransform::maps_real_series`]: parts that are not
    /// conjugate-symmetric have no time-domain action to refine with). A
    /// warp-by-`m` query must be `m` times as long as the indexed series
    /// (Example 1.2: daily query series vs. every-other-day data).
    ///
    /// `eps` is `None` for k-NN forms, which have no threshold;
    /// `query_len` is `None` for a self-join, which has no query.
    pub(crate) fn validate(
        &self,
        eps: Option<f64>,
        t: &LinearTransform,
        query_len: Option<usize>,
    ) -> Result<()> {
        self.check_uniform()?;
        if let Some(eps) = eps {
            Error::check_threshold(eps)?;
        }
        if query_len.is_none() && t.warp() > 1 {
            // A self-join between different-length representations is
            // undefined.
            return Err(Error::Unsupported("self-join under time warp".to_string()));
        }
        // An empty relation has no length to fit and no rectangle a
        // transformation could be unsafe for (the safety check reads the
        // indexed multipliers, which only a fitting arity guarantees).
        if !self.store.is_empty() {
            if t.n() != self.series_len {
                return Err(Error::TransformArity {
                    expected: self.series_len,
                    got: t.n(),
                });
            }
            self.config.space.check_safety(t, self.config.schema)?;
        }
        match query_len {
            Some(got) if got != self.series_len * t.warp() => {
                return Err(Error::LengthMismatch {
                    expected: self.series_len * t.warp(),
                    got,
                })
            }
            _ => {}
        }
        if !t.maps_real_series() {
            return Err(Error::Unsupported(format!(
                "transformation {} maps real series to complex ones (its parts are not \
                 conjugate-symmetric)",
                t.name()
            )));
        }
        Ok(())
    }

    /// Binds a query series: [`SimilarityIndex::validate`], then the
    /// query's features (its one FFT) for the filter and its normal form —
    /// normalized as a stored record is — for the exact check.
    pub(crate) fn bind_query<'a>(
        &self,
        q: &TimeSeries,
        eps: Option<f64>,
        t: &'a LinearTransform,
    ) -> Result<Refine<'a>> {
        self.validate(eps, t, Some(q.len()))?;
        let schema = self.config.schema;
        let qf = Features::extract(q, schema, &mut FftPlanner::new())?;
        let norm = Normalize::of(&qf, schema);
        let target = q.values().iter().map(|&v| norm.at(v)).collect();
        let limit = eps.map_or(f64::INFINITY, limit_sq);
        Ok(Refine::new(schema, t, qf, target, limit))
    }

    /// Binds query features posed under `t` (precomputed, so that one
    /// query's features serve several thresholds, as in the paper-shape
    /// suite) into the statement's refine, with its one `limit_sq(eps)`; `eps = None`, a k-NN form,
    /// accepts every distance. The exact check reads the query's
    /// representation inverted from its half spectrum, once.
    ///
    /// # Errors
    /// Everything [`SimilarityIndex::range_query`] rejects, and
    /// [`Error::Unsupported`] for features without their half spectrum (a
    /// stored record's).
    pub fn refine<'a>(
        &self,
        qf: Features,
        eps: Option<f64>,
        t: &'a LinearTransform,
    ) -> Result<Refine<'a>> {
        self.validate(eps, t, Some(qf.n()))?;
        let target = qf.samples().ok_or_else(|| {
            Error::Unsupported("query features without their half spectrum".to_string())
        })?;
        let limit = eps.map_or(f64::INFINITY, limit_sq);
        Ok(Refine::new(self.config.schema, t, qf, target, limit))
    }

    /// The search rectangle around a feature point for a checked
    /// threshold — built here and nowhere else, for a bound range query
    /// and for every per-series probe of an index join.
    pub(crate) fn probe_rect(&self, qf: &Features, eps: f64, window: &QueryWindow) -> Rect {
        self.config
            .space
            .search_rect(qf, self.config.schema, eps, window)
    }

    /// Extracts the features of a query series posed under `t`, validated
    /// as a query would be (relation, transformation, length).
    ///
    /// # Errors
    /// Everything [`SimilarityIndex::range_query`] rejects short of the
    /// threshold.
    pub fn query_features(&self, q: &TimeSeries, t: &LinearTransform) -> Result<Features> {
        self.validate(None, t, Some(q.len()))?;
        Features::extract(q, self.config.schema, &mut FftPlanner::new())
    }

    /// **Algorithm 2** — range query with a transformation: find all stored
    /// series `o` such that `D(T(o), q) <= eps`, where `T` acts on the
    /// indexed representation (the normal-form spectrum under the default
    /// schema) and `q` is compared via its own representation.
    ///
    /// Results are sorted by id. Stats report the on-the-fly transformed
    /// traversal (same node accesses as an ordinary query, per Figure 8).
    ///
    /// # Errors
    /// A ragged relation, a bad threshold, a transformation of the wrong
    /// arity or unsafe for the space ([`Error::UnsafeTransform`]) and a
    /// query of the wrong length are rejected, in that order.
    pub fn range_query(
        &self,
        q: &TimeSeries,
        eps: f64,
        t: &LinearTransform,
        window: &QueryWindow,
    ) -> Result<(Vec<Match>, QueryStats)> {
        let refine = self.bind_query(q, Some(eps), t)?;
        let qrect = self.probe_rect(&refine.query, eps, window);
        self.range_bound(&refine, &qrect)
    }

    /// Algorithm 2, steps 2–3, for a bound range query: filter (the
    /// transformed traversal against the search rectangle) then refine
    /// (exact distances on full records).
    pub(crate) fn range_bound(
        &self,
        refine: &Refine<'_>,
        qrect: &Rect,
    ) -> Result<(Vec<Match>, QueryStats)> {
        let (mut ids, index) = self.filter_rect(qrect, refine.transform)?;
        let mut stats = QueryStats {
            index,
            candidates: ids.len(),
            exact_checks: ids.len(),
            ..QueryStats::default()
        };
        // Refined in id order, the order a built or restored relation's
        // samples are allocated in, and a paged one's record file written
        // in: the refine reads every sample of a candidate it keeps, and
        // tree order would read them at random.
        ids.sort_unstable();
        let mut matches = Vec::new();
        for id in ids {
            if !self.in_window(id, qrect) {
                continue;
            }
            let record = self.record(id, &mut stats.records)?;
            if let Some(distance) = refine.within(&record, ScanMode::EarlyAbandon) {
                matches.push(Match { id, distance });
            }
        }
        stats.false_hits = stats.exact_checks - matches.len();
        Ok((matches, stats))
    }

    /// Whether record `id`'s mean and std lie in the search rectangle's
    /// first `aux_dims` dimensions — the query's `WHERE` window, which
    /// bounds the stored series untransformed. The filter meets the
    /// window on stored bounds rounded outward to `f32`, so a candidate
    /// within an `f32` ulp outside it reaches the refine; this check is
    /// the window's exact test.
    fn in_window(&self, id: usize, qrect: &Rect) -> bool {
        let features = &self.store[id].features;
        let (lo, hi) = (qrect.lo(), qrect.hi());
        let inside = |d: usize, v: f64| lo[d] <= v && v <= hi[d];
        match self.config.schema.aux_dims() {
            2 => inside(0, features.mean) && inside(1, features.std),
            _ => true,
        }
    }

    /// Candidate traversal against a prebuilt search rectangle — the
    /// single filter implementation behind every range form and the join
    /// probes (candidate ids in traversal order, no refine). In paged
    /// mode the traversal pins pages in the buffer pool and can fail on
    /// I/O; in-memory traversal is infallible.
    pub(crate) fn filter_rect(
        &self,
        qrect: &Rect,
        t: &LinearTransform,
    ) -> Result<(Vec<usize>, SearchStats)> {
        match &self.paged {
            Some(paged) => self.filter_in(&paged.tree, qrect, t),
            None => self.filter_in(self.tree(), qrect, t),
        }
    }

    /// [`SimilarityIndex::filter_rect`] over whichever node store holds
    /// the relation's tree.
    fn filter_in<S>(
        &self,
        store: S,
        qrect: &Rect,
        t: &LinearTransform,
    ) -> Result<(Vec<usize>, SearchStats)>
    where
        S: NodeStore,
        S::Item: SeriesId,
        Error: From<S::Error>,
    {
        let schema = self.config.schema;
        let space = self.config.space;
        let mut ids = Vec::new();
        let collect = |_: RectView<'_>, item: S::Item| ids.push(item.series_id());
        // The identity fast path skips the per-rectangle transformation.
        let stats = if t.is_identity(1e-12) {
            search_with(store, |r| r.intersects(qrect.view()), collect)?
        } else {
            search_with(
                store,
                |r| space.windowed_intersects(r, t, schema, qrect),
                collect,
            )?
        };
        Ok((ids, stats))
    }

    /// Nearest-neighbor query under a transformation: the `k` stored series
    /// minimizing `D(T(o), q)`, via best-first search with transformed
    /// MBR lower bounds (the RKV95 scheme generalized per Section 4).
    ///
    /// # Errors
    /// Same failure modes as [`SimilarityIndex::range_query`], the
    /// threshold aside.
    pub fn knn_query(
        &self,
        q: &TimeSeries,
        k: usize,
        t: &LinearTransform,
    ) -> Result<(Vec<Match>, QueryStats)> {
        self.knn_bound(&self.bind_query(q, None, t)?, k)
    }

    /// Best-first search for a bound k-NN query.
    pub(crate) fn knn_bound(
        &self,
        refine: &Refine<'_>,
        k: usize,
    ) -> Result<(Vec<Match>, QueryStats)> {
        match &self.paged {
            Some(paged) => self.knn_in(&paged.tree, k, refine),
            None => self.knn_in(self.tree(), k, refine),
        }
    }

    /// [`SimilarityIndex::knn_bound`] over whichever node store holds the
    /// relation's tree.
    fn knn_in<S>(&self, store: S, k: usize, refine: &Refine<'_>) -> Result<(Vec<Match>, QueryStats)>
    where
        S: NodeStore,
        S::Item: SeriesId,
        Error: From<S::Error>,
    {
        let schema = self.config.schema;
        let space = self.config.space;
        let (t, qf) = (refine.transform, &refine.query);
        let mut exact_checks = 0usize;
        let mut records = RecordIo::default();
        // A record the record file cannot give ends the search: the rest
        // of the traversal computes nothing, and the error is returned.
        let mut failed = None;
        let (neighbors, index) = nearest_with_tie(
            store,
            k,
            |rect| space.transformed_lower_bound(rect, t, schema, qf),
            |_, item, kth| {
                if failed.is_some() {
                    return None;
                }
                exact_checks += 1;
                match self.record(item.series_id(), &mut records) {
                    Ok(record) => refine.distance_within(&record, kth),
                    Err(e) => {
                        failed = Some(e);
                        None
                    }
                }
            },
            // Break exact-distance ties by series id: the answer set is
            // then a pure function of the data, independent of tree shape
            // — what sharded k-way merges rely on.
            |item| item.series_id() as u64,
        )?;
        if let Some(e) = failed {
            return Err(e);
        }
        let matches: Vec<Match> = neighbors
            .into_iter()
            .map(|n| Match {
                id: n.item.series_id(),
                distance: n.distance,
            })
            .collect();
        let stats = QueryStats {
            index,
            candidates: matches.len(),
            false_hits: 0,
            exact_checks,
            records,
        };
        Ok((matches, stats))
    }
}

/// Everything an index derives from its series, as bytes: each record's
/// features bit for bit, then the packed tree as `{:?}` prints it (every
/// node, entry and bound, in order). Snapshots carry neither, so the
/// oracles that hold an appended or restored index to a fresh build
/// compare this.
#[cfg(test)]
pub(crate) fn derived_bytes(index: &SimilarityIndex) -> Vec<u8> {
    let mut enc = Encoder::new();
    for stored in index.entries() {
        let f = &stored.features;
        enc.f64(f.mean);
        enc.f64(f.std);
        enc.usize(f.n());
        enc.usize(f.spectrum.len());
        for c in &f.spectrum {
            enc.f64(c.re);
            enc.f64(c.im);
        }
    }
    enc.raw(format!("{:?}", index.tree()).as_bytes());
    enc.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_dft::complex::{ONE, ZERO};
    use tsq_dft::Complex64;
    use tsq_series::generate::RandomWalkGenerator;
    use tsq_series::normal::normal_form;

    fn small_relation(count: usize, len: usize, seed: u64) -> Vec<TimeSeries> {
        RandomWalkGenerator::new(seed).relation(count, len)
    }

    fn build_default(rel: Vec<TimeSeries>) -> SimilarityIndex {
        SimilarityIndex::build(IndexConfig::default(), rel).unwrap()
    }

    /// The unitary spectrum of `s`'s normal form: the references below
    /// take the spectrum route, `T` as `a .* X + b`.
    fn spectrum(s: &TimeSeries) -> Vec<Complex64> {
        FftPlanner::new().dft_real(normal_form(s).values())
    }

    /// Equation 8 over two spectra: the root of the summed squared
    /// differences.
    fn euclidean_complex(x: &[Complex64], y: &[Complex64]) -> f64 {
        assert_eq!(x.len(), y.len(), "distance requires equal lengths");
        x.iter()
            .zip(y)
            .map(|(&a, &b)| (a - b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// What the relation hands down after appending `tail` to `held`.
    fn extended(held: &TimeSeries, tail: &[f64]) -> TimeSeries {
        TimeSeries::new([held.values(), tail].concat())
    }

    #[test]
    fn build_and_lookup() {
        let rel = small_relation(50, 64, 1);
        let idx = build_default(rel.clone());
        assert_eq!(idx.len(), 50);
        assert_eq!(idx.series_len(), 64);
        assert_eq!(idx.series(7), Ok(rel[7].clone()));
        assert_eq!(idx.series(50), Err(Error::UnknownSeries(50)));
        idx.tree().validate();
    }

    #[test]
    fn empty_relation() {
        let idx = build_default(Vec::new());
        assert!(idx.is_empty());
        let t = LinearTransform::identity(0);
        // Querying an empty index with a zero-length query succeeds trivially.
        let q = TimeSeries::new(vec![]);
        let err = idx.range_query(&q, 1.0, &t, &QueryWindow::default());
        // Zero-length features are invalid; the engine reports a cutoff error.
        assert!(err.is_err());
    }

    #[test]
    fn mixed_lengths_build_but_gate_whole_series_queries() {
        // A ragged relation (streaming ingest mid-catch-up) builds fine;
        // whole-series query forms are rejected with the typed error.
        let mut rel = small_relation(3, 32, 2);
        rel.push(RandomWalkGenerator::new(77).series(16));
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.series_len(), 32);
        let t = LinearTransform::identity(32);
        let err = idx
            .range_query(&rel[0], 1.0, &t, &QueryWindow::default())
            .unwrap_err();
        assert!(matches!(err, Error::Ragged { min: 16, max: 32 }));
        let err = idx.knn_query(&rel[0], 2, &t).unwrap_err();
        assert!(matches!(err, Error::Ragged { min: 16, max: 32 }));
        // Appending the short series up to length 32 heals the relation.
        let mut idx = idx;
        let tail: Vec<f64> = RandomWalkGenerator::new(78).series(16).values().to_vec();
        idx.extend_series_batch(&[(3, extended(&rel[3], &tail))])
            .unwrap();
        idx.check_uniform().unwrap();
        assert!(idx
            .range_query(&rel[0], 1.0, &t, &QueryWindow::default())
            .is_ok());
    }

    #[test]
    fn identity_range_query_matches_scan() {
        let rel = small_relation(120, 64, 3);
        let idx = build_default(rel.clone());
        let t = LinearTransform::identity(64);
        let q = &rel[5];
        let eps = 2.0;
        let (matches, stats) = idx
            .range_query(q, eps, &t, &QueryWindow::default())
            .unwrap();
        // Brute force over normal forms.
        let mut want = Vec::new();
        for (id, s) in rel.iter().enumerate() {
            let d = euclidean_complex(&spectrum(s), &spectrum(q));
            if d <= eps {
                want.push(id);
            }
        }
        let got: Vec<usize> = matches.iter().map(|m| m.id).collect();
        assert_eq!(got, want, "no false dismissals, no spurious answers");
        assert!(matches.iter().any(|m| m.id == 5 && m.distance < 1e-9));
        assert!(stats.index.nodes_visited > 0);
    }

    #[test]
    fn moving_average_query_matches_scan() {
        let rel = small_relation(100, 32, 4);
        let idx = build_default(rel.clone());
        let t = LinearTransform::moving_average(32, 5);
        let q = &rel[0];
        let eps = 1.5;
        let (matches, _) = idx
            .range_query(q, eps, &t, &QueryWindow::default())
            .unwrap();
        let mut want = Vec::new();
        for (id, s) in rel.iter().enumerate() {
            let d = euclidean_complex(&t.apply_spectrum(&spectrum(s)), &spectrum(q));
            if d <= eps {
                want.push(id);
            }
        }
        let got: Vec<usize> = matches.iter().map(|m| m.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unsafe_transform_rejected() {
        let rel = small_relation(10, 16, 5);
        let config = IndexConfig {
            space: SpaceKind::Rectangular,
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(config, rel.clone()).unwrap();
        let t = LinearTransform::moving_average(16, 3); // complex multipliers
        let err = idx
            .range_query(&rel[0], 1.0, &t, &QueryWindow::default())
            .unwrap_err();
        assert!(matches!(err, Error::UnsafeTransform { .. }));
    }

    #[test]
    fn knn_matches_scan_under_transform() {
        let rel = small_relation(80, 32, 6);
        let idx = build_default(rel.clone());
        let t = LinearTransform::moving_average(32, 4);
        let q = &rel[3];
        let (got, _) = idx.knn_query(q, 5, &t).unwrap();
        assert_eq!(got.len(), 5);
        // Brute force.
        let mut dists: Vec<(f64, usize)> = rel
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let d = euclidean_complex(&t.apply_spectrum(&spectrum(s)), &spectrum(q));
                (d, id)
            })
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (m, (d, _)) in got.iter().zip(&dists) {
            assert!((m.distance - d).abs() < 1e-9, "{} vs {d}", m.distance);
        }
    }

    #[test]
    fn identity_and_plain_query_same_disk_accesses() {
        // Figure 8/9's observation: "The number of disk accesses is the
        // same in both cases."
        let rel = small_relation(500, 64, 7);
        let idx = build_default(rel.clone());
        let q = &rel[11];
        let eps = 1.0;
        let t = LinearTransform::identity(64);
        let (_, with_t) = idx
            .range_query(q, eps, &t, &QueryWindow::default())
            .unwrap();
        // Plain query: same search rectangle, no transformation hook.
        let schema = idx.config().schema;
        let space = idx.config().space;
        let qf = idx.query_features(q, &t).unwrap();
        let qrect = space.search_rect(&qf, schema, eps, &QueryWindow::default());
        let plain = idx.tree().search(&qrect, |_, _| {});
        assert_eq!(with_t.index.nodes_visited, plain.nodes_visited);
    }

    #[test]
    fn warp_query_finds_stretched_series() {
        // Example 1.2: data sampled every other day, query sampled daily.
        let mut rel = small_relation(40, 16, 8);
        let special = TimeSeries::from([
            20.0, 21.0, 20.0, 23.0, 25.0, 24.0, 22.0, 21.0, 20.0, 19.0, 21.0, 22.0, 23.0, 25.0,
            24.0, 23.0,
        ]);
        rel.push(special.clone());
        let idx = build_default(rel);
        let t = LinearTransform::time_warp(16, 2);
        // The query is the stretched special series (length 32).
        let q = tsq_series::warp::stretch(&special, 2);
        let (matches, _) = idx
            .range_query(&q, 1e-6, &t, &QueryWindow::default())
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].id, 40);
        assert!(matches[0].distance < 1e-6);
    }

    #[test]
    fn insert_after_build() {
        let rel = small_relation(20, 32, 9);
        let mut idx = build_default(rel.clone());
        let extra = RandomWalkGenerator::new(99).series(32);
        let id = idx.push_series_batch(vec![extra.clone()]).unwrap()[0];
        assert_eq!(id, 20);
        let t = LinearTransform::identity(32);
        let (matches, _) = idx
            .range_query(&extra, 1e-9, &t, &QueryWindow::default())
            .unwrap();
        assert!(matches.iter().any(|m| m.id == id));
        // A series too short for the schema (k = 2 needs length >= 3) is
        // still rejected; a merely different length is now allowed (the
        // relation becomes ragged until appends even it out).
        assert!(matches!(
            idx.push_series_batch(vec![TimeSeries::new(vec![0.0, 1.0])]),
            Err(Error::InvalidCutoff { .. })
        ));
        let short = RandomWalkGenerator::new(100).series(16);
        idx.push_series_batch(vec![short]).unwrap();
        assert!(matches!(idx.check_uniform(), Err(Error::Ragged { .. })));
    }

    #[test]
    fn query_window_filters_by_mean() {
        let rel = small_relation(60, 32, 10);
        let idx = build_default(rel.clone());
        let t = LinearTransform::identity(32);
        let q = &rel[0];
        let all = idx
            .range_query(q, 50.0, &t, &QueryWindow::default())
            .unwrap()
            .0;
        let m = rel[0].mean();
        let window = QueryWindow {
            mean: Some((m - 1.0, m + 1.0)),
            std: None,
        };
        let filtered = idx.range_query(q, 50.0, &t, &window).unwrap().0;
        assert!(filtered.len() <= all.len());
        for mt in &filtered {
            let mm = rel[mt.id].mean();
            assert!(mm >= m - 1.0 && mm <= m + 1.0);
        }
        // The reference series itself always qualifies.
        assert!(filtered.iter().any(|mt| mt.id == 0));
    }

    #[test]
    fn rectangular_space_with_real_transform_matches_scan() {
        let rel = small_relation(70, 32, 11);
        let config = IndexConfig {
            space: SpaceKind::Rectangular,
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(config, rel.clone()).unwrap();
        let t = LinearTransform::reverse(32); // a = -1: real, safe in S_rect
        let q = &rel[2];
        let eps = 3.0;
        let (matches, _) = idx
            .range_query(q, eps, &t, &QueryWindow::default())
            .unwrap();
        let mut want = Vec::new();
        for (id, s) in rel.iter().enumerate() {
            let d = euclidean_complex(&t.apply_spectrum(&spectrum(s)), &spectrum(q));
            if d <= eps {
                want.push(id);
            }
        }
        let got: Vec<usize> = matches.iter().map(|m| m.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_round_trip_preserves_answers_and_stats() {
        let rel = small_relation(150, 64, 14);
        let idx = build_default(rel.clone());
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = SimilarityIndex::read_from(&mut dec).unwrap();
        dec.finish().unwrap();
        restored.tree().validate();
        // Re-serialization is byte-identical (canonical encoding), and what
        // the bytes do not carry is derived identically.
        let mut enc2 = Encoder::new();
        restored.write_to(&mut enc2).unwrap();
        assert_eq!(bytes, enc2.into_bytes());
        assert!(restored.is_packed(), "a restore returns with its tree");
        assert_eq!(derived_bytes(&restored), derived_bytes(&idx));
        // Identical answers *and* identical traversal statistics.
        for t in [
            LinearTransform::identity(64),
            LinearTransform::moving_average(64, 5),
        ] {
            let (a, sa) = idx
                .range_query(&rel[3], 2.5, &t, &QueryWindow::default())
                .unwrap();
            let (b, sb) = restored
                .range_query(&rel[3], 2.5, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(sa.index, sb.index);
            assert_eq!(sa.candidates, sb.candidates);
            let (ka, _) = idx.knn_query(&rel[7], 5, &t).unwrap();
            let (kb, _) = restored.knn_query(&rel[7], 5, &t).unwrap();
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = build_default(Vec::new());
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let restored = SimilarityIndex::read_from(&mut Decoder::new(&bytes)).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn restored_index_accepts_inserts() {
        let rel = small_relation(30, 32, 15);
        let idx = build_default(rel);
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut restored = SimilarityIndex::read_from(&mut Decoder::new(&bytes)).unwrap();
        let extra = RandomWalkGenerator::new(123).series(32);
        let id = restored.push_series_batch(vec![extra.clone()]).unwrap()[0];
        assert_eq!(id, 30);
        let t = LinearTransform::identity(32);
        let (m, _) = restored
            .range_query(&extra, 1e-9, &t, &QueryWindow::default())
            .unwrap();
        assert!(m.iter().any(|x| x.id == id));
    }

    #[test]
    fn corrupt_index_bytes_are_typed_errors() {
        let rel = small_relation(40, 32, 16);
        let idx = build_default(rel);
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        // Truncation at every prefix is a typed error, never a panic.
        for cut in (0..bytes.len()).step_by(7) {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(
                SimilarityIndex::read_from(&mut dec).is_err(),
                "cut at {cut} still decoded"
            );
        }
        let mut dec = Decoder::new(&bytes);
        let err = SimilarityIndex::read_from(&mut dec);
        assert!(err.is_ok(), "pristine bytes must decode");
        // A stored series the schema does not fit (k = 2 needs length 3):
        // what `build` rejects, a restore reports as corrupt bytes.
        let mut enc = Encoder::new();
        crate::store::write_index_config(&mut enc, idx.config());
        enc.usize(2);
        crate::store::write_series(&mut enc, &idx.series(0).unwrap());
        crate::store::write_series(&mut enc, &TimeSeries::new(vec![0.0, 1.0]));
        let forged = enc.into_bytes();
        assert!(matches!(
            SimilarityIndex::read_from(&mut Decoder::new(&forged)),
            Err(Error::Store(StoreError::Corrupt { .. }))
        ));
    }

    #[test]
    fn extend_series_is_byte_identical_to_fresh_build() {
        // The oracle invariant at the index level: appending through
        // extend_series_batch / push_series_batch is indistinguishable —
        // snapshot bytes, features, tree, answers, traversal statistics —
        // from rebuilding over the final data.
        for bulk_load in [true, false] {
            let cfg = IndexConfig {
                bulk_load,
                ..IndexConfig::default()
            };
            let rel = small_relation(40, 32, 21);
            let mut idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
            let tails: Vec<Vec<f64>> = (0..40)
                .map(|i| {
                    RandomWalkGenerator::new(500 + i)
                        .series(8)
                        .values()
                        .to_vec()
                })
                .collect();
            // Append in two uneven waves so the relation goes ragged and
            // heals, plus one brand-new series via the canonical push.
            for wave in [0..3, 3..8] {
                let edits: Vec<(usize, TimeSeries)> = tails
                    .iter()
                    .enumerate()
                    .map(|(id, tail)| (id, extended(&idx.series(id).unwrap(), &tail[wave.clone()])))
                    .collect();
                // One statement per series, then the rest as one batch.
                idx.extend_series_batch(&edits[..1]).unwrap();
                idx.extend_series_batch(&edits[1..]).unwrap();
            }
            let newcomer = RandomWalkGenerator::new(999).series(40);
            idx.push_series_batch(vec![newcomer.clone()]).unwrap();
            // Fresh build over the final data.
            let mut final_rel: Vec<TimeSeries> = rel
                .iter()
                .zip(&tails)
                .map(|(s, tail)| {
                    let mut v = s.values().to_vec();
                    v.extend_from_slice(tail);
                    TimeSeries::new(v)
                })
                .collect();
            final_rel.push(newcomer);
            let fresh = SimilarityIndex::build(cfg, final_rel.clone()).unwrap();
            let mut enc_a = Encoder::new();
            idx.write_to(&mut enc_a).unwrap();
            let mut enc_b = Encoder::new();
            fresh.write_to(&mut enc_b).unwrap();
            assert_eq!(
                enc_a.into_bytes(),
                enc_b.into_bytes(),
                "bulk_load={bulk_load}"
            );
            // The snapshot carries the series alone: hold the features and
            // the tree the appended index packs to the fresh build's too.
            assert_eq!(
                derived_bytes(&idx),
                derived_bytes(&fresh),
                "bulk_load={bulk_load}"
            );
            assert_eq!(idx.stats(), fresh.stats(), "bulk_load={bulk_load}");
            let t = LinearTransform::moving_average(40, 4);
            let (ma, sa) = idx
                .range_query(&final_rel[7], 2.0, &t, &QueryWindow::default())
                .unwrap();
            let (mb, sb) = fresh
                .range_query(&final_rel[7], 2.0, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(ma, mb);
            assert_eq!(sa.index, sb.index);
            assert_eq!(sa.candidates, sb.candidates);
            assert_eq!(sa.false_hits, sb.false_hits);
        }
    }

    #[test]
    fn extend_series_is_atomic_on_errors() {
        let rel = small_relation(10, 32, 22);
        let mut idx = build_default(rel);
        let mut before = Encoder::new();
        idx.write_to(&mut before).unwrap();
        let before = (before.into_bytes(), derived_bytes(&idx));
        // A failing edit anywhere in the batch — a value shorter than the
        // stored one, an unknown id — rejects without touching series or
        // tree, the good edit before it included.
        let good = (0, extended(&idx.series(0).unwrap(), &[1.0, 2.0]));
        let short = TimeSeries::new(idx.series(3).unwrap().values()[..20].to_vec());
        assert_eq!(
            idx.extend_series_batch(&[good.clone(), (3, short)]),
            Err(Error::LengthMismatch {
                expected: 32,
                got: 20
            })
        );
        assert_eq!(
            idx.extend_series_batch(&[good.clone(), (10, good.1)]),
            Err(Error::UnknownSeries(10))
        );
        assert!(idx.is_packed(), "a refused append drops nothing");
        let mut after = Encoder::new();
        idx.write_to(&mut after).unwrap();
        let after = (after.into_bytes(), derived_bytes(&idx));
        assert!(before == after, "failed appends must be no-ops");
    }

    #[test]
    fn an_append_drops_the_tree_and_the_next_reader_packs_it_once() {
        let rel = small_relation(30, 32, 25);
        let mut idx = build_default(rel.clone());
        assert!(idx.is_packed(), "a build returns with its tree");
        // One series grows: ragged, nothing packed, nothing to read.
        let tails: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                RandomWalkGenerator::new(700 + i)
                    .series(2)
                    .values()
                    .to_vec()
            })
            .collect();
        let grown = |id: usize| extended(&rel[id], &tails[id]);
        idx.extend_series_batch(&[(0, grown(0))]).unwrap();
        assert!(!idx.is_packed());
        let t = LinearTransform::identity(34);
        let window = QueryWindow::default();
        assert!(matches!(
            idx.range_query(&grown(0), 1.0, &t, &window),
            Err(Error::Ragged { min: 32, max: 34 })
        ));
        // Neither a refused statement nor a snapshot packs.
        idx.write_to(&mut Encoder::new()).unwrap();
        assert!(!idx.is_packed());
        // The rest catch up, a newcomer joins: still nothing packed, until
        // the first whole-match statement — and the second reads the same
        // tree.
        let rest: Vec<(usize, TimeSeries)> = (1..30).map(|id| (id, grown(id))).collect();
        idx.extend_series_batch(&rest).unwrap();
        let newcomer = RandomWalkGenerator::new(26).series(34);
        idx.push_series_batch(vec![newcomer.clone()]).unwrap();
        assert!(!idx.is_packed());
        let (first, _) = idx.range_query(&newcomer, 3.0, &t, &window).unwrap();
        assert!(idx.is_packed());
        let packed: *const RStarTree<usize> = idx.tree();
        let (second, _) = idx.range_query(&newcomer, 3.0, &t, &window).unwrap();
        assert_eq!(first, second);
        assert!(std::ptr::eq(packed, idx.tree()), "packed exactly once");
        let mut final_rel: Vec<TimeSeries> = (0..30).map(grown).collect();
        final_rel.push(newcomer);
        assert_eq!(
            derived_bytes(&idx),
            derived_bytes(&build_default(final_rel))
        );
    }

    #[test]
    fn attach_paged_packs_an_emptied_cell_and_keeps_the_profile() {
        let rel = small_relation(60, 32, 27);
        let mut idx = build_default(rel[..59].to_vec());
        idx.push_series_batch(vec![rel[59].clone()]).unwrap();
        assert!(!idx.is_packed());
        let fresh = build_default(rel.clone());
        let dir = std::env::temp_dir().join(format!("tsq-attach-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        idx.attach_paged_budget(&dir.join("idx.pages"), 4 << 12)
            .unwrap();
        // The nodes moved out, the profile of them stayed.
        assert!(idx.is_packed() && idx.tree().is_empty());
        assert_eq!(idx.stats(), fresh.stats());
        assert_eq!(idx.paged().unwrap().len(), 60);
        let t = LinearTransform::moving_average(32, 4);
        let (got, got_stats) = idx
            .range_query(&rel[3], 2.0, &t, &QueryWindow::default())
            .unwrap();
        let (want, want_stats) = fresh
            .range_query(&rel[3], 2.0, &t, &QueryWindow::default())
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(
            got_stats.index.nodes_visited,
            want_stats.index.nodes_visited
        );
        assert!(got_stats.index.pool_misses > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extend_series_rejected_when_paged() {
        let rel = small_relation(10, 32, 23);
        let mut idx = build_default(rel);
        let dir = std::env::temp_dir().join(format!("tsq-extend-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.pages");
        idx.attach_paged_budget(&path, 8 << 12).unwrap();
        assert!(matches!(
            idx.extend_series_batch(&[(0, TimeSeries::new(vec![0.0; 33]))]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            idx.push_series_batch(vec![TimeSeries::new(vec![0.0; 32])]),
            Err(Error::Unsupported(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ragged_snapshot_round_trips() {
        let mut rel = small_relation(6, 32, 24);
        rel.push(RandomWalkGenerator::new(55).series(20));
        let idx = build_default(rel);
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let restored = SimilarityIndex::read_from(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(restored.len(), 7);
        assert_eq!(restored.series_len(), 32);
        assert!(matches!(
            restored.check_uniform(),
            Err(Error::Ragged { min: 20, max: 32 })
        ));
        let mut enc2 = Encoder::new();
        restored.write_to(&mut enc2).unwrap();
        assert_eq!(bytes, enc2.into_bytes());
    }

    #[test]
    fn a_build_is_the_same_at_every_thread_count() {
        // Past both fan-out sizes: 2^16 samples to extract, and 4 096
        // points to bulk-load.
        let (count, len) = (4200, 16);
        assert!(count * len >= EXTRACT_FAN_OUT_MIN);
        let rel = small_relation(count, len, 41);
        let config = IndexConfig::default();
        let want = SimilarityIndex::build_parallel(config, rel.clone(), 1).unwrap();
        for threads in [2usize, 4] {
            let got = SimilarityIndex::build_parallel(config, rel.clone(), threads).unwrap();
            // Every feature's bits, every node's stored slab.
            assert!(
                derived_bytes(&got) == derived_bytes(&want),
                "threads = {threads}: features or tree differ"
            );
            assert_eq!(got.stats(), want.stats(), "threads = {threads}");
            assert_eq!(got.stats().profile, want.stats().profile);
        }
    }

    #[test]
    fn bulk_and_incremental_agree() {
        let rel = small_relation(90, 32, 12);
        let bulk = build_default(rel.clone());
        let cfg = IndexConfig {
            bulk_load: false,
            ..IndexConfig::default()
        };
        let incr = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let t = LinearTransform::moving_average(32, 3);
        let q = &rel[7];
        let a = bulk
            .range_query(q, 2.0, &t, &QueryWindow::default())
            .unwrap()
            .0;
        let b = incr
            .range_query(q, 2.0, &t, &QueryWindow::default())
            .unwrap()
            .0;
        assert_eq!(a, b);
    }

    /// The reference for *how* the refine sums: `T(x̂)` as the one function
    /// computes it, then one term at a time, abandon test per term.
    fn per_term(
        t: &LinearTransform,
        stored: &StoredSeries,
        norm: Normalize,
        q: &[f64],
        limit: f64,
    ) -> Option<f64> {
        let image = t.act(stored.series.values(), norm);
        let mut acc = 0.0;
        for (a, b) in image.iter().zip(q) {
            acc += (a - b) * (a - b);
            if acc > limit {
                return None;
            }
        }
        Some(acc)
    }

    /// A walk as a stored record, and its normal form.
    fn record(walks: &mut RandomWalkGenerator, n: usize, schema: FeatureSchema) -> StoredSeries {
        let series = walks.series(n);
        let features = Features::indexed(&series, schema, &mut FftPlanner::new()).unwrap();
        StoredSeries { series, features }
    }

    /// Every transformation the language offers, and compositions.
    fn language(n: usize) -> Vec<LinearTransform> {
        let m = (n / 2).clamp(1, 8);
        let mavg = LinearTransform::moving_average(n, m);
        let weights: Vec<f64> = (1..=m)
            .map(|w| w as f64 / (m * (m + 1) / 2) as f64)
            .collect();
        let scale_shift = LinearTransform::scale(n, -2.5)
            .then(&LinearTransform::shift(n, 3.0))
            .unwrap();
        vec![
            LinearTransform::identity(n),
            LinearTransform::weighted_moving_average(n, &weights),
            LinearTransform::reverse(n),
            LinearTransform::shift(n, 4.0),
            LinearTransform::scale(n, 3.0),
            LinearTransform::scale(n, -0.5),
            mavg.then(&LinearTransform::reverse(n)).unwrap(),
            mavg.then(&scale_shift).unwrap(),
            scale_shift,
            mavg,
        ]
    }

    fn neighbours(v: f64) -> [f64; 3] {
        let bits = v.to_bits();
        [
            f64::from_bits(bits.saturating_sub(1)),
            v,
            f64::from_bits(bits + 1),
        ]
    }

    #[test]
    fn kernel_is_bit_identical_to_the_references() {
        let schema = FeatureSchema::NormalForm { k: 1 };
        // Around the 8-wide block boundary (15, 16, 17), even and odd,
        // long, and a Bluestein length.
        for n in [3usize, 7, 8, 9, 15, 16, 17, 127, 128, 513] {
            let mut walks = RandomWalkGenerator::new(21 + n as u64);
            let stored = record(&mut walks, n, schema);
            let held = Record::from(&stored);
            let q = walks.series(n);
            let norm = Normalize::of(&stored.features, schema);
            let qf = Features::extract(&q, schema, &mut FftPlanner::new()).unwrap();
            let target = normal_form(&q).values().to_vec();
            for t in language(n) {
                let what = format!("n = {n}, {}", t.name());
                let full = per_term(&t, &stored, norm, &target, f64::INFINITY).unwrap();
                // The definition's D², by the spectrum route, up to rounding.
                let definition =
                    euclidean_complex(&t.apply_spectrum(&spectrum(&stored.series)), &spectrum(&q))
                        .powi(2);
                assert!((full - definition).abs() <= 1e-12 * definition, "{what}");
                let refine = |limit| Refine::new(schema, &t, qf.clone(), target.clone(), limit);
                let unbounded = refine(f64::INFINITY);
                assert_eq!(
                    unbounded.distance(&held).to_bits(),
                    full.sqrt().to_bits(),
                    "{what}"
                );
                // At, one ulp below and one ulp above the exact sum.
                for limit in neighbours(full) {
                    let want = per_term(&t, &stored, norm, &target, limit).map(f64::to_bits);
                    let got = unbounded.sum_sq(&held, limit);
                    assert_eq!(got.map(f64::to_bits), want, "{what}, limit {limit:e}");
                    // A row is in exactly when its whole sum is within
                    // the limit, whenever the loop gave up.
                    for mode in [ScanMode::Naive, ScanMode::EarlyAbandon] {
                        assert_eq!(
                            refine(limit).within(&held, mode).map(f64::to_bits),
                            (full <= limit).then_some(full.sqrt().to_bits()),
                            "{what}, limit {limit:e}, {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_transformation_that_maps_real_series_to_complex_ones_is_refused() {
        // What only `from_parts` can build: a complex scale, and a
        // translation of coefficient 1 without its mirror. Neither has a
        // time-domain action, so every form refuses it — after the checks
        // that come first (safety included: Theorem 3 speaks of the
        // complex scale in `S_pol`).
        let n = 32;
        let rel = small_relation(20, n, 77);
        let idx = build_default(rel.clone());
        let mut one_sided = vec![ZERO; n];
        one_sided[1] = ONE;
        let rotation =
            LinearTransform::from_parts(vec![Complex64::new(0.6, 0.8); n], vec![ZERO; n], "rot")
                .unwrap();
        let refused =
            |r: Result<()>| matches!(r, Err(Error::Unsupported(m)) if m.contains("complex"));
        let window = QueryWindow::default();
        assert!(refused(
            idx.range_query(&rel[0], 1.0, &rotation, &window)
                .map(|_| ())
        ));
        assert!(refused(idx.knn_query(&rel[0], 3, &rotation).map(|_| ())));
        assert!(refused(idx.join_index(1.0, &rotation).map(|_| ())));
        assert!(refused(
            idx.join_scan(1.0, &rotation, ScanMode::Naive).map(|_| ())
        ));
        // A bad length is reported first.
        let short = TimeSeries::new(vec![1.0; n - 1]);
        assert!(matches!(
            idx.range_query(&short, 1.0, &rotation, &window),
            Err(Error::LengthMismatch { .. })
        ));
        // The one-sided translation is unsafe in `S_pol` before it is
        // anything else.
        let translated = LinearTransform::from_parts(vec![ONE; n], one_sided, "b1").unwrap();
        assert!(matches!(
            idx.range_query(&rel[0], 1.0, &translated, &window),
            Err(Error::UnsafeTransform { .. })
        ));
    }

    /// One best-first search of `index` for `refine`'s k nearest, as
    /// `knn_bound` runs it, with the exact check summing in full or giving
    /// up past the k-th distance so far: `(rows, traversal stats, exact
    /// checks, checks that gave up)`. A paged index starts from an empty
    /// pool.
    fn knn_with(
        index: &SimilarityIndex,
        refine: &Refine<'_>,
        k: usize,
        bounded: bool,
    ) -> (Vec<(usize, u64)>, SearchStats, usize, usize) {
        let (schema, space) = (index.config.schema, index.config.space);
        let (mut checks, mut gave_up) = (0, 0);
        let bound = |r: RectView<'_>| {
            space.transformed_lower_bound(r, refine.transform, schema, &refine.query)
        };
        let mut exact = |id: usize, kth: f64| {
            checks += 1;
            let record = index.record(id, &mut RecordIo::default()).unwrap();
            if !bounded {
                return Some(refine.distance(&record));
            }
            let d = refine.distance_within(&record, kth);
            gave_up += usize::from(d.is_none());
            d
        };
        let (rows, stats) = match index.paged() {
            Some(p) => {
                p.pool().flush();
                let exact = |_: RectView<'_>, id: u64, kth| exact(id as usize, kth);
                let (found, stats) = nearest_with_tie(p, k, bound, exact, |id| id).unwrap();
                let rows = found
                    .iter()
                    .map(|nb| (nb.item as usize, nb.distance.to_bits()));
                (rows.collect(), stats)
            }
            None => {
                let exact = |_: RectView<'_>, id: &usize, kth| exact(*id, kth);
                let key = |id: &usize| *id as u64;
                let (found, stats) = nearest_with_tie(index.tree(), k, bound, exact, key)
                    .unwrap_or_else(|never| match never {});
                let rows = found.iter().map(|nb| (*nb.item, nb.distance.to_bits()));
                (rows.collect(), stats)
            }
        };
        (rows, stats, checks, gave_up)
    }

    #[test]
    fn knn_gives_up_at_the_kth_distance_without_moving_a_row_or_a_counter() {
        // Walks under identity and mavg(8), in memory and paged: the k-NN
        // search whose exact check gives up past the k-th distance found
        // so far returns the rows, distance bits and counters of the one
        // that sums every candidate in full — and does give up.
        let n = 128;
        let mut rel = small_relation(1500, n, 41);
        // Near-duplicates nearest to the first query, their distances
        // apart by a thousandth of a percent: whichever of them the search
        // checks first, a later one's distance lies within 0.1 % below the
        // k-th found so far, so a check giving up short of the k-th
        // distance drops a row of the answer.
        let first = RandomWalkGenerator::new(900).series(n);
        let nudge = RandomWalkGenerator::new(899).series(n);
        let norm = nudge.values().iter().map(|v| v * v).sum::<f64>().sqrt();
        rel.extend((0..24).map(|j| {
            let scale = 0.5 * (1.0 + 1e-5 * j as f64) / norm;
            let near = first.values().iter().zip(nudge.values());
            TimeSeries::new(near.map(|(q, v)| q + scale * v).collect())
        }));
        let idx = build_default(rel.clone());
        let mut paged = idx.clone();
        let dir = std::env::temp_dir().join(format!("tsq-knn-bound-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        paged
            .attach_paged_budget(&dir.join("idx.pages"), 8 << 12)
            .unwrap();
        let mut queries: Vec<TimeSeries> = (0..4)
            .map(|i| RandomWalkGenerator::new(900 + i).series(n))
            .collect();
        queries.push(rel[17].clone());
        let mut gave_up = 0;
        for t in [
            LinearTransform::identity(n),
            LinearTransform::moving_average(n, 8),
        ] {
            for index in [&idx, &paged] {
                for q in &queries {
                    for k in [1usize, 5, 20] {
                        let what = format!("{}, k = {k}, paged = {}", t.name(), index.is_paged());
                        let refine = index.bind_query(q, None, &t).unwrap();
                        if let Some(p) = index.paged() {
                            p.pool().flush();
                        }
                        let (got, stats) = index.knn_bound(&refine, k).unwrap();
                        let rows: Vec<(usize, u64)> =
                            got.iter().map(|m| (m.id, m.distance.to_bits())).collect();
                        let (full, full_stats, full_checks, _) = knn_with(index, &refine, k, false);
                        let (bounded, bounded_stats, bounded_checks, quit) =
                            knn_with(index, &refine, k, true);
                        // From an empty pool each time, pool hits and
                        // misses included.
                        assert_eq!(rows, full, "{what}");
                        assert_eq!(bounded, full, "{what}");
                        assert_eq!(stats.index, full_stats, "{what}");
                        assert_eq!(bounded_stats, full_stats, "{what}");
                        assert_eq!(stats.exact_checks, full_checks, "{what}");
                        assert_eq!(bounded_checks, full_checks, "{what}");
                        gave_up += quit;
                    }
                }
            }
        }
        assert!(gave_up > 0, "no exact check gave up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_abandon_agrees_with_full() {
        let schema = FeatureSchema::NormalForm { k: 2 };
        let mut walks = RandomWalkGenerator::new(20);
        let stored = record(&mut walks, 20, schema);
        let q = walks.series(20);
        let t = LinearTransform::identity(20);
        let idx = build_default(vec![stored.series.clone()]);
        let stored = Record::from(&stored);
        let d = idx.bind_query(&q, None, &t).unwrap().distance(&stored);
        let bound = |eps: f64| idx.bind_query(&q, Some(eps), &t).unwrap();
        // Generous threshold: the full distance, bit for bit.
        let got = bound(d + 1.0).within(&stored, ScanMode::EarlyAbandon);
        assert_eq!(got.map(f64::to_bits), Some(d.to_bits()));
        // Tight threshold: abandoned, and the full sum is not within it.
        let tight = bound(d - 0.5);
        assert_eq!(tight.sum_sq(&stored, tight.limit), None);
        assert_eq!(tight.within(&stored, ScanMode::Naive), None);
    }

    #[test]
    fn early_abandon_boundary() {
        // Raw samples, so the sum is the plain one: 3² + 4² = 5².
        let config = IndexConfig {
            schema: FeatureSchema::Raw { k: 1 },
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(config, vec![TimeSeries::from([0.0, 0.0])]).unwrap();
        let (t, q) = (LinearTransform::identity(2), TimeSeries::from([3.0, 4.0]));
        let stored = Record::from(&idx.entries()[0]);
        // Exactly at the threshold: a distance is within itself.
        let at = idx.bind_query(&q, Some(5.0), &t).unwrap();
        assert_eq!(at.within(&stored, ScanMode::EarlyAbandon), Some(5.0));
        let below = f64::from_bits(5.0f64.to_bits() - 1);
        let below = idx.bind_query(&q, Some(below), &t).unwrap();
        assert_eq!(below.within(&stored, ScanMode::EarlyAbandon), None);
        // Nine samples: a block of eight, then a one-term tail whose
        // check alone decides an abandon.
        let idx = SimilarityIndex::build(config, vec![TimeSeries::new(vec![0.0; 9])]).unwrap();
        let q = TimeSeries::from([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 1.0]);
        let t = LinearTransform::identity(9);
        let refine = idx.bind_query(&q, None, &t).unwrap();
        let within = |limit| refine.sum_sq(&Record::from(&idx.entries()[0]), limit);
        assert_eq!(within(f64::INFINITY), Some(5.0));
        assert_eq!(within(5.0), Some(5.0));
        assert_eq!(within(4.5), None);
        assert_eq!(within(3.9), None, "the block's sum alone is over");
    }

    #[test]
    fn refine_takes_the_fast_path_only_for_the_exact_identity() {
        let schema = FeatureSchema::NormalForm { k: 1 };
        let qf = Features::extract(
            &TimeSeries::from([1.0, 4.0, 2.0, 8.0]),
            schema,
            &mut FftPlanner::new(),
        )
        .unwrap();
        let fast =
            |t: &LinearTransform| Refine::new(schema, t, qf.clone(), Vec::new(), 0.0).identity;
        assert!(fast(&LinearTransform::identity(4)));
        // Shifts and positive scales act on mean/std only.
        assert!(fast(&LinearTransform::shift(4, 2.0)));
        assert!(fast(&LinearTransform::scale(4, 3.0)));
        assert!(!fast(&LinearTransform::reverse(4)));
        assert!(!fast(&LinearTransform::moving_average(4, 2)));
        // Within `is_identity`'s tolerance is not the identity.
        let a = vec![Complex64::new(1.0 + 1e-13, 0.0); 4];
        let near = LinearTransform::from_parts(a, vec![ZERO; 4], "near").unwrap();
        assert!(near.is_identity(1e-12) && !fast(&near));
    }
}
