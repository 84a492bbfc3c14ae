//! Subsequence similarity search: the **ST-index** over sliding-window
//! feature trails.
//!
//! The paper's whole-sequence machinery (DFT prefix features + Lemma-1 safe
//! index traversal) extends to *subsequence* matching in the style of
//! Faloutsos–Ranganathan–Manolopoulos (FRM, SIGMOD 1994): slide a window of
//! length `w` over every stored series, map each window to its first `k`
//! unitary DFT coefficients (computed incrementally by the sliding DFT in
//! `tsq-dft`, `O(k)` per step), and index the resulting *trail* of feature
//! points in an R\*-tree. Because consecutive windows overlap in `w - 1`
//! samples, consecutive feature points lie close together; grouping runs of
//! them into a single trail MBR keeps the tree small (one entry per
//! [`SubseqConfig::trail`] windows instead of one per window) at the cost
//! of slightly looser rectangles.
//!
//! ## Why there are no false dismissals
//!
//! The unitary DFT preserves Euclidean distance (Parseval, Equation 8), so
//! the distance restricted to the first `k` coefficients is a *lower bound*
//! of the true window↔query distance. A window within `eps` of the query
//! therefore has its feature point inside the `eps`-ball around the query's
//! feature point, which is contained in the box `[c_i ± eps]` the range
//! query searches — and the trail MBR containing that point must intersect
//! the box. Candidates are verified against the raw samples (exact,
//! early-abandoning), so false hits are discarded and the final match set
//! equals the naive sliding scan's exactly. The oracle suite
//! (`tests/subseq_consistency.rs`) asserts this equality on randomized
//! relations.
//!
//! The query rectangle is widened by a tiny pad covering the sliding DFT's
//! re-anchored numerical drift, so the guarantee survives floating-point
//! rounding (same trick as the transformed-MBR padding in
//! [`crate::space`]).

use std::collections::BinaryHeap;
use std::sync::OnceLock;

use tsq_dft::dft::dft_prefix;
use tsq_dft::sliding::SlidingCursor;
use tsq_dft::Complex64;
use tsq_rtree::{RStarTree, RTreeConfig, Rect, SearchStats};
use tsq_series::distance::{distance_sq_within, limit_sq};
use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::index::check_extends;
use crate::plan::SpaceProfile;
use crate::scan::ScanMode;

/// Configuration of a [`SubseqIndex`].
#[derive(Debug, Clone, Copy)]
pub struct SubseqConfig {
    /// Sliding-window length `w` (the length of every query). Must be at
    /// least 2.
    pub window: usize,
    /// Number of leading DFT coefficients indexed per window (`2k` real
    /// dimensions). Must satisfy `1 <= k <= window`.
    pub k: usize,
    /// Number of consecutive windows grouped into one trail MBR. Must be
    /// positive; 1 stores every feature point individually.
    pub trail: usize,
    /// R\*-tree tuning.
    pub rtree: RTreeConfig,
}

impl SubseqConfig {
    /// Default layout (`k = 3` clamped to the window, trails of 8) for a
    /// given window length.
    pub fn new(window: usize) -> Self {
        let defaults = SubseqConfig::default();
        SubseqConfig {
            window,
            k: defaults.k.min(window.max(1)),
            ..defaults
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// [`Error::InvalidWindow`] when `window < 2`; [`Error::InvalidCutoff`]
    /// when `k` does not fit the window; [`Error::Unsupported`] for a zero
    /// trail size.
    pub fn validate(&self) -> Result<()> {
        if self.window < 2 {
            return Err(Error::InvalidWindow {
                window: self.window,
            });
        }
        if self.k == 0 || self.k > self.window {
            return Err(Error::InvalidCutoff {
                k: self.k,
                n: self.window,
            });
        }
        if self.trail == 0 {
            return Err(Error::Unsupported(
                "trail size must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for SubseqConfig {
    fn default() -> Self {
        SubseqConfig {
            window: 32,
            k: 3,
            trail: 8,
            rtree: RTreeConfig::default(),
        }
    }
}

/// Payload of one R\*-tree entry: a run of consecutive windows of one
/// stored series, bounded by the entry's MBR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailEntry {
    /// Stored-series id.
    pub series: usize,
    /// First window offset covered by this trail.
    pub start: usize,
    /// Number of consecutive windows covered.
    pub len: usize,
}

/// One subsequence answer: which series, at which offset, how far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubseqMatch {
    /// Stored-series id.
    pub series: usize,
    /// Window offset within the series.
    pub offset: usize,
    /// Exact time-domain Euclidean distance between the window and the
    /// query.
    pub distance: f64,
}

/// Statistics of one ST-index query.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubseqStats {
    /// Index traversal counters.
    pub index: SearchStats,
    /// Trail MBRs accepted by the traversal.
    pub trails: usize,
    /// Windows examined in post-processing (the candidate set — compare
    /// against [`SubseqIndex::windows_total`] for the scan's effort).
    pub candidates: usize,
    /// Candidates rejected by the exact check.
    pub false_hits: usize,
}

/// Counters from a sliding-scan baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubseqScanStats {
    /// Windows examined (always every window of every stored series).
    pub windows: usize,
    /// Distance computations abandoned early.
    pub abandoned: usize,
}

/// The ST-index: subsequence similarity search over a relation of (possibly
/// different-length) time series.
#[derive(Debug, Clone)]
pub struct SubseqIndex {
    config: SubseqConfig,
    tree: RStarTree<TrailEntry>,
    store: Vec<TimeSeries>,
    windows_total: usize,
    trails_total: usize,
    /// The trail tree's shape for the planner, kept from the first plan
    /// that asks until the next append (see [`SubseqIndex::profile`]).
    profile: OnceLock<SpaceProfile>,
}

impl SubseqIndex {
    /// Builds an ST-index over a relation. Unlike the whole-sequence
    /// [`crate::SimilarityIndex`], stored series may differ in length;
    /// series shorter than the window contribute no windows (and can never
    /// match).
    ///
    /// # Errors
    /// Propagates [`SubseqConfig::validate`] failures.
    pub fn build(config: SubseqConfig, relation: Vec<TimeSeries>) -> Result<Self> {
        Self::build_parallel(config, relation, 1)
    }

    /// [`SubseqIndex::build`] with the two heavy phases partitioned across
    /// up to `threads` worker threads: sliding-DFT trail extraction fans
    /// out over runs of consecutive stored series, and the STR bulk load
    /// packs levels in parallel ([`RStarTree::bulk_load_parallel`]). The
    /// index is *identical* to a sequential build for every thread count —
    /// trail order is preserved by the fan-out and STR packing is
    /// position-deterministic — so queries cannot tell how it was built.
    ///
    /// # Errors
    /// Propagates [`SubseqConfig::validate`] failures.
    pub fn build_parallel(
        config: SubseqConfig,
        relation: Vec<TimeSeries>,
        threads: usize,
    ) -> Result<Self> {
        config.validate()?;
        let threads = threads.max(1);
        // One vector of trails per run, not per series: a vector per
        // series, kept until all are flattened, leaves a hole between each
        // series' rectangles that `malloc_trim` cannot return.
        let run = relation.len().div_ceil(threads).max(1);
        let runs: Vec<(usize, &[TimeSeries])> = relation.chunks(run).enumerate().collect();
        let per_run = crate::executor::parallel_map(threads, runs, |(i, series)| {
            let mut trails = Vec::new();
            for (offset, s) in series.iter().enumerate() {
                trails.extend(trails_of(&config, i * run + offset, s.values()));
            }
            trails
        });
        let items: Vec<(Rect, TrailEntry)> = per_run.into_iter().flatten().collect();
        let mut index = SubseqIndex {
            config,
            tree: RStarTree::bulk_load_parallel(config.rtree, items, threads),
            store: Vec::new(),
            windows_total: 0,
            trails_total: 0,
            profile: OnceLock::new(),
        };
        for series in relation {
            index.count_windows(&series);
            index.store.push(series);
        }
        Ok(index)
    }

    /// Appends one series, returning its id. The new trails enter the tree
    /// through the STR-sorted batch path ([`RStarTree::bulk_extend`]).
    pub fn insert(&mut self, series: TimeSeries) -> usize {
        let id = self.store.len();
        let items = trails_of(&self.config, id, series.values());
        self.tree.bulk_extend(items);
        self.profile.take();
        self.count_windows(&series);
        self.store.push(series);
        id
    }

    /// Takes one stored series' extended value — the relation's own, whose
    /// buffer the index then shares; the value it held is its prefix — and
    /// extends the feature trail *incrementally*: the sliding-DFT
    /// recurrence is resumed from the last indexed window (no prefix
    /// recomputation — `O(k)` per appended point), the final trail MBR —
    /// if it was partial — is closed out (removed and re-emitted with its
    /// new windows), and the MBRs of the new chunks enter the tree through
    /// the STR-sorted batch path ([`RStarTree::bulk_extend`]).
    ///
    /// Trail chunk boundaries are fixed absolute offsets
    /// (`start = chunk * trail`) and the sliding DFT re-anchors on absolute
    /// offsets too, so every emitted rectangle is bit-identical to the one
    /// a from-scratch rebuild over the final data would produce: the tree
    /// holds the *same entry set* either way (its node structure may
    /// differ, so `nodes_visited` can differ while answers, candidates and
    /// trail hits cannot).
    ///
    /// Validation is atomic: on any error the index is exactly as it was.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for a bad id, [`Error::LengthMismatch`] for
    /// a value shorter than the stored one.
    pub fn extend_series(&mut self, id: usize, series: TimeSeries) -> Result<()> {
        let Some(held) = self.store.get_mut(id) else {
            return Err(Error::UnknownSeries(id));
        };
        check_extends(held, &series)?;
        let w = self.config.window;
        let trail = self.config.trail;
        let old_windows = held.len().saturating_sub(w - 1);
        let new_windows = series.len().saturating_sub(w - 1);
        *held = series;
        // Nothing can fail past this point — the mutation is committed.
        if new_windows == old_windows {
            return Ok(());
        }
        // The first chunk whose window set changes. When the last old
        // chunk was partial it is that chunk (its MBR must absorb the new
        // windows); when it was full — or there were no windows at all —
        // it is the next, brand-new chunk.
        let first_chunk = old_windows / trail;
        let mut items = chunks_of(
            &self.config,
            id,
            self.store[id].values(),
            first_chunk,
            new_windows,
        );
        if old_windows % trail != 0 {
            // Recompute the partial chunk's rectangle exactly as it was
            // emitted (the old windows read only pre-append samples, and
            // the resumed cursor is bit-identical to the original walk).
            // Its re-emitted rectangle only absorbs new window points, so
            // it *contains* the old one — the tree widens the stored
            // entry in place (`O(height)`, no structural churn) instead
            // of paying a remove + reinsert pair.
            let old_rect = chunks_of(
                &self.config,
                id,
                self.store[id].values(),
                first_chunk,
                old_windows,
            )
            .pop()
            .expect("partial chunk implies at least one window")
            .0;
            let start = first_chunk * trail;
            let (grown, entry) = items.remove(0);
            debug_assert_eq!(entry.start, start);
            let updated = self.tree.grow_entry(
                &old_rect,
                |t| t.series == id && t.start == start,
                grown,
                entry,
            );
            assert!(updated, "indexed partial trail must be present");
        }
        self.tree.bulk_extend(items);
        self.profile.take();
        self.windows_total += new_windows - old_windows;
        self.trails_total += new_windows.div_ceil(trail) - old_windows.div_ceil(trail);
        Ok(())
    }

    fn count_windows(&mut self, series: &TimeSeries) {
        let w = self.config.window;
        if series.len() >= w {
            let count = series.len() - w + 1;
            self.windows_total += count;
            self.trails_total += count.div_ceil(self.config.trail);
        }
    }

    /// Number of stored series.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no series are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The configuration.
    pub fn config(&self) -> &SubseqConfig {
        &self.config
    }

    /// Stored series by id.
    pub fn series(&self, id: usize) -> Option<&TimeSeries> {
        self.store.get(id)
    }

    /// Total number of indexed windows across the relation — the effort a
    /// sliding scan must always spend.
    pub fn windows_total(&self) -> usize {
        self.windows_total
    }

    /// Total number of trail MBRs in the tree.
    pub fn trails_total(&self) -> usize {
        self.trails_total
    }

    /// Access to the underlying R\*-tree (read-only).
    pub fn tree(&self) -> &RStarTree<TrailEntry> {
        &self.tree
    }

    /// Shape of the trail tree over the indexed windows, for the cost
    /// model. Profiling walks every tree entry, so the result is kept:
    /// computed by the first plan that asks and dropped by the next
    /// append, which is the only thing that can change it. A statement
    /// over a static relation plans without touching the tree, and an
    /// append does not pay for a walk no statement may ever need.
    pub fn profile(&self) -> &SpaceProfile {
        self.profile
            .get_or_init(|| SpaceProfile::of_tree(&self.tree, self.windows_total as u64))
    }

    fn check_query(&self, q: &TimeSeries, eps: f64) -> Result<()> {
        Error::check_threshold(eps)?;
        if q.len() != self.config.window {
            return Err(Error::LengthMismatch {
                expected: self.config.window,
                got: q.len(),
            });
        }
        Ok(())
    }

    /// Range query: every `(series, offset)` whose length-`w` window lies
    /// within `eps` of `q` in Euclidean distance. The traversal prunes on
    /// trail MBRs (no false dismissals — see the module docs); candidates
    /// are verified against raw samples with early abandoning. Results are
    /// sorted by `(series, offset)`.
    ///
    /// # Errors
    /// [`Error::NegativeThreshold`] and [`Error::LengthMismatch`] (the
    /// query must be exactly one window long).
    pub fn subseq_range(
        &self,
        q: &TimeSeries,
        eps: f64,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)> {
        self.check_query(q, eps)?;
        Ok(self.range_inner(q, eps))
    }

    /// The range kernel, run once per statement (by `subseq_range`, and
    /// by `subseq_knn`'s refine phase): `eps` sizes the search box, and a
    /// candidate window is an answer when its squared distance is within
    /// `limit_sq(eps)` — when the distance it is reported with is `<= eps`.
    fn range_inner(&self, q: &TimeSeries, eps: f64) -> (Vec<SubseqMatch>, SubseqStats) {
        let limit = limit_sq(eps);
        let qcoords = coeff_coords(&dft_prefix(q.values(), self.config.k));
        let qrect = query_rect(&qcoords, eps);
        let mut trails: Vec<TrailEntry> = Vec::new();
        let index_stats = self
            .tree
            .search_with(|r| r.intersects(&qrect), |_, &t| trails.push(t));
        let mut stats = SubseqStats {
            index: index_stats,
            trails: trails.len(),
            ..SubseqStats::default()
        };
        let mut matches = Vec::new();
        for trail in trails {
            let values = self.store[trail.series].values();
            for offset in trail.start..trail.start + trail.len {
                stats.candidates += 1;
                let window = &values[offset..offset + self.config.window];
                match distance_sq_within(window, q.values(), limit) {
                    Some(d2) => matches.push(SubseqMatch {
                        series: trail.series,
                        offset,
                        distance: d2.sqrt(),
                    }),
                    None => stats.false_hits += 1,
                }
            }
        }
        matches.sort_by_key(|a| (a.series, a.offset));
        (matches, stats)
    }

    /// K-nearest-subsequence query: the `k` windows (over all stored
    /// series and offsets) minimizing the Euclidean distance to `q`,
    /// sorted by ascending distance (ties broken by `(series, offset)`).
    ///
    /// Filter-and-refine: a best-first trail search produces `k` candidate
    /// window distances, whose k-th smallest upper-bounds the true k-th
    /// neighbor distance; a range query at that radius then retrieves the
    /// exact answer (Lemma 1 again: the range step cannot dismiss a true
    /// neighbor).
    ///
    /// # Errors
    /// [`Error::LengthMismatch`] when the query is not one window long.
    pub fn subseq_knn(&self, q: &TimeSeries, k: usize) -> Result<(Vec<SubseqMatch>, SubseqStats)> {
        self.check_query(q, 0.0)?;
        if k == 0 || self.windows_total == 0 {
            return Ok((Vec::new(), SubseqStats::default()));
        }
        let qcoords = coeff_coords(&dft_prefix(q.values(), self.config.k));
        // Phase 1: best-first over trails, keeping the `k` smallest
        // examined windows by `(d2, series, offset)` in a bounded heap — a
        // squared distance is never negative, so its bits order as its
        // value. Memory stays `O(k)` however many windows the pass visits.
        let mut kept: BinaryHeap<(u64, usize, usize)> =
            BinaryHeap::with_capacity(k.min(self.windows_total));
        let mut candidates = 0usize;
        let (trail_hits, mut index_stats) = self.tree.nearest_with(
            k,
            |rect| rect.min_dist2(&qcoords).sqrt(),
            |_, trail| {
                let values = self.store[trail.series].values();
                let mut best = f64::INFINITY;
                for offset in trail.start..trail.start + trail.len {
                    candidates += 1;
                    let window = &values[offset..offset + self.config.window];
                    let d2 = full_distance_sq(window, q.values());
                    best = best.min(d2);
                    let entry = (d2.to_bits(), trail.series, offset);
                    if kept.len() < k {
                        kept.push(entry);
                    } else if let Some(mut worst) = kept.peek_mut() {
                        if entry < *worst {
                            *worst = entry;
                        }
                    }
                }
                best.sqrt()
            },
        );
        // Ascending: the `k` smallest of every examined window, in order.
        let seen = kept.into_sorted_vec();
        if trail_hits.len() < k || self.trails_total <= k {
            // Fewer trails than neighbors requested: the best-first pass
            // visited every window, so `seen` already is the exact answer.
            let matches: Vec<SubseqMatch> = seen
                .into_iter()
                .map(|(d2, series, offset)| SubseqMatch {
                    series,
                    offset,
                    distance: f64::from_bits(d2).sqrt(),
                })
                .collect();
            let stats = SubseqStats {
                index: index_stats,
                trails: trail_hits.len(),
                candidates,
                // Every candidate passed an exact distance computation;
                // windows beyond rank k were truncated, not rejected.
                false_hits: 0,
            };
            return Ok((matches, stats));
        }
        // Phase 2: refine. `seen` holds k true window distances (each of
        // the k trails contributes at least one window), so its k-th
        // smallest is a valid search radius for the exact answer set —
        // and a distance is within itself, so the boundary window survives.
        let radius = f64::from_bits(seen[k - 1].0).sqrt();
        let (mut matches, range_stats) = self.range_inner(q, radius);
        sort_matches(&mut matches);
        matches.truncate(k);
        index_stats.absorb(&range_stats.index);
        let stats = SubseqStats {
            index: index_stats,
            trails: trail_hits.len() + range_stats.trails,
            candidates: candidates + range_stats.candidates,
            false_hits: range_stats.false_hits,
        };
        Ok((matches, stats))
    }

    /// Ground-truth baseline: a sliding scan over every window of every
    /// stored series (Table-1-style methods (a)/(b) restated for
    /// subsequences). Naive mode computes every distance in full; early
    /// abandoning stops a window as soon as it exceeds `limit_sq(eps)`.
    ///
    /// # Errors
    /// Same validation as [`SubseqIndex::subseq_range`].
    pub fn scan_subseq_range(
        &self,
        q: &TimeSeries,
        eps: f64,
        mode: ScanMode,
    ) -> Result<(Vec<SubseqMatch>, SubseqScanStats)> {
        self.check_query(q, eps)?;
        let w = self.config.window;
        let limit = limit_sq(eps);
        let abandon_at = mode.abandon_at(limit);
        let mut stats = SubseqScanStats::default();
        let mut matches = Vec::new();
        for (id, series) in self.store.iter().enumerate() {
            let values = series.values();
            if values.len() < w {
                continue;
            }
            for offset in 0..=values.len() - w {
                stats.windows += 1;
                let window = &values[offset..offset + w];
                let d2 = distance_sq_within(window, q.values(), abandon_at);
                stats.abandoned += usize::from(d2.is_none());
                if let Some(d2) = d2.filter(|d2| *d2 <= limit) {
                    matches.push(SubseqMatch {
                        series: id,
                        offset,
                        distance: d2.sqrt(),
                    });
                }
            }
        }
        Ok((matches, stats))
    }

    /// Ground-truth k-nearest-subsequence by brute force.
    ///
    /// # Errors
    /// [`Error::LengthMismatch`] when the query is not one window long.
    pub fn scan_subseq_knn(&self, q: &TimeSeries, k: usize) -> Result<Vec<SubseqMatch>> {
        self.check_query(q, 0.0)?;
        let w = self.config.window;
        let mut all = Vec::with_capacity(self.windows_total);
        for (id, series) in self.store.iter().enumerate() {
            let values = series.values();
            if values.len() < w {
                continue;
            }
            for offset in 0..=values.len() - w {
                all.push(SubseqMatch {
                    series: id,
                    offset,
                    distance: full_distance_sq(&values[offset..offset + w], q.values()).sqrt(),
                });
            }
        }
        sort_matches(&mut all);
        all.truncate(k);
        Ok(all)
    }
}

/// Sliding-DFT feature trail of one series, grouped into MBRs: every
/// chunk from the first. A free function (not a method) so trail
/// extraction can fan out across worker threads while the index is still
/// being assembled.
fn trails_of(config: &SubseqConfig, id: usize, values: &[f64]) -> Vec<(Rect, TrailEntry)> {
    let windows = values.len().saturating_sub(config.window - 1);
    chunks_of(config, id, values, 0, windows)
}

/// Trail MBRs of one series from `first_chunk` onward, computed by
/// *resuming* the sliding-DFT recurrence at that chunk's first window
/// instead of recomputing the prefix — the `O(k)`-per-point incremental
/// path behind [`SubseqIndex::extend_series`], and with `first_chunk = 0`
/// the build's. The cursor re-anchors on absolute offsets
/// ([`SlidingCursor::resume`] is bit-identical to a from-zero walk) and
/// chunk boundaries are absolute too, so a chunk's rectangle does not
/// depend on where the walk started.
///
/// Each MBR is widened by a relative `1e-9` per dimension: sliding-DFT
/// drift scales with the *stored* coefficients' magnitude (the error of
/// each `O(k)` step is rotated, not damped, until the next re-anchor),
/// so the padding absorbing it must scale with the trail's own
/// coordinates — a pad derived from the query's magnitude alone would
/// not cover large-valued data. Same recipe as the anti-rounding pad in
/// [`crate::space::SpaceKind::transform_mbr`].
///
/// A trail is folded without a rectangle per window: each window's
/// coordinates go straight from the cursor into one `lo`/`hi` pair of
/// buffers, reused across trails, under `Rect::union_assign`'s strict
/// `<`/`>` tests, so the bounds are the per-window union's bit for bit. The
/// padded rectangle is then built from two fresh bound buffers, the lower
/// one sized for both halves so `Rect::new` joins them without
/// reallocating.
fn chunks_of(
    config: &SubseqConfig,
    id: usize,
    values: &[f64],
    first_chunk: usize,
    windows: usize,
) -> Vec<(Rect, TrailEntry)> {
    let trail = config.trail;
    let mut offset = first_chunk * trail;
    if offset >= windows {
        return Vec::new();
    }
    let mut cursor = SlidingCursor::resume(values, config.window, config.k, offset);
    let dims = 2 * config.k;
    let (mut lo, mut hi) = (Vec::with_capacity(dims), Vec::with_capacity(dims));
    let mut out = Vec::with_capacity((windows - offset).div_ceil(trail));
    while offset < windows {
        let len = trail.min(windows - offset);
        lo.clear();
        lo.extend(coords(cursor.coeffs()));
        hi.clear();
        hi.extend_from_slice(&lo);
        for _ in 1..len {
            cursor.advance(values);
            for ((l, h), x) in lo.iter_mut().zip(&mut hi).zip(coords(cursor.coeffs())) {
                if x < *l {
                    *l = x;
                }
                if x > *h {
                    *h = x;
                }
            }
        }
        // The anti-drift padding.
        let mut padded_lo = Vec::with_capacity(2 * dims);
        let mut padded_hi = Vec::with_capacity(dims);
        for (&l, &h) in lo.iter().zip(&hi) {
            let pad = 1e-9 * (1.0 + l.abs().max(h.abs()));
            padded_lo.push(l - pad);
            padded_hi.push(h + pad);
        }
        out.push((
            Rect::new(padded_lo, padded_hi),
            TrailEntry {
                series: id,
                start: offset,
                len,
            },
        ));
        offset += len;
        if offset < windows {
            cursor.advance(values);
        }
    }
    out
}

/// Real index coordinates of a coefficient prefix: `[re_0, im_0, re_1, ...]`
/// (the rectangular space — an `eps`-ball maps to a box, and no
/// transformation acts on subsequence queries, so `S_rect` safety concerns
/// do not arise).
fn coords(coeffs: &[Complex64]) -> impl Iterator<Item = f64> + '_ {
    coeffs.iter().flat_map(|c| [c.re, c.im])
}

/// [`coords`] collected: a query's feature point.
fn coeff_coords(coeffs: &[Complex64]) -> Vec<f64> {
    coords(coeffs).collect()
}

/// The search box `[c_i - eps - pad, c_i + eps + pad]` around a query
/// feature point. The stored side's sliding-DFT drift is absorbed by the
/// build-time trail padding (see `chunks_of`); this query-side pad covers
/// the remaining rounding of the query's own transform and of the `c ± eps`
/// bound arithmetic, so a boundary window can never be lost.
fn query_rect(qcoords: &[f64], eps: f64) -> Rect {
    let mut lo = Vec::with_capacity(qcoords.len());
    let mut hi = Vec::with_capacity(qcoords.len());
    for &c in qcoords {
        let pad = 1e-7 * (1.0 + c.abs());
        lo.push(c - eps - pad);
        hi.push(c + eps + pad);
    }
    Rect::new(lo, hi)
}

fn sort_matches(matches: &mut [SubseqMatch]) {
    matches.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then((a.series, a.offset).cmp(&(b.series, b.offset)))
    });
}

/// The shared kernel run to the end: a window's full squared distance.
fn full_distance_sq(x: &[f64], y: &[f64]) -> f64 {
    distance_sq_within(x, y, f64::INFINITY).expect("no sum exceeds an infinite limit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_series::generate::RandomWalkGenerator;

    fn relation(seed: u64) -> Vec<TimeSeries> {
        // Varied lengths on purpose.
        let mut g = RandomWalkGenerator::new(seed);
        (0..12).map(|i| g.series(40 + 7 * (i % 5))).collect()
    }

    fn build(window: usize, seed: u64) -> SubseqIndex {
        SubseqIndex::build(SubseqConfig::new(window), relation(seed)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            SubseqConfig::new(1).validate(),
            Err(Error::InvalidWindow { window: 1 })
        ));
        assert!(matches!(
            SubseqConfig::new(0).validate(),
            Err(Error::InvalidWindow { window: 0 })
        ));
        let bad_k = SubseqConfig {
            k: 0,
            ..SubseqConfig::new(8)
        };
        assert!(matches!(bad_k.validate(), Err(Error::InvalidCutoff { .. })));
        let big_k = SubseqConfig {
            k: 9,
            ..SubseqConfig::new(8)
        };
        assert!(matches!(big_k.validate(), Err(Error::InvalidCutoff { .. })));
        let no_trail = SubseqConfig {
            trail: 0,
            ..SubseqConfig::new(8)
        };
        assert!(matches!(no_trail.validate(), Err(Error::Unsupported(_))));
        assert!(SubseqConfig::new(2).validate().is_ok());
    }

    #[test]
    fn build_counts_windows_and_trails() {
        let idx = build(16, 1);
        let expected: usize = relation(1).iter().map(|s| s.len().saturating_sub(15)).sum();
        assert_eq!(idx.windows_total(), expected);
        assert_eq!(idx.tree().len(), idx.trails_total());
        idx.tree().validate();
    }

    #[test]
    fn short_series_contribute_nothing() {
        let mut series = relation(2);
        series.push(TimeSeries::new(vec![1.0; 5])); // shorter than window
        let idx = SubseqIndex::build(SubseqConfig::new(16), series).unwrap();
        let q = idx.series(0).unwrap().values()[..16].to_vec();
        let (matches, _) = idx.subseq_range(&TimeSeries::new(q), 1e-9).unwrap();
        assert!(matches.iter().all(|m| m.series != 12));
    }

    #[test]
    fn range_matches_naive_scan() {
        let idx = build(16, 3);
        let src = idx.series(4).unwrap().clone();
        let q = TimeSeries::new(src.values()[9..25].to_vec());
        for eps in [0.0, 0.5, 2.0, 8.0] {
            let (indexed, _) = idx.subseq_range(&q, eps).unwrap();
            let (scan, _) = idx.scan_subseq_range(&q, eps, ScanMode::Naive).unwrap();
            assert_eq!(indexed, scan, "eps {eps}");
        }
        // The query window itself is always found at distance zero.
        let (hits, _) = idx.subseq_range(&q, 1e-9).unwrap();
        assert!(hits.iter().any(|m| m.series == 4 && m.offset == 9));
    }

    #[test]
    fn scan_modes_agree() {
        let idx = build(16, 4);
        let q = TimeSeries::new(idx.series(0).unwrap().values()[..16].to_vec());
        let (a, _) = idx.scan_subseq_range(&q, 3.0, ScanMode::Naive).unwrap();
        let (b, sb) = idx
            .scan_subseq_range(&q, 3.0, ScanMode::EarlyAbandon)
            .unwrap();
        assert_eq!(a, b);
        assert!(sb.abandoned > 0);
        assert_eq!(sb.windows, idx.windows_total());
    }

    #[test]
    fn index_prunes_candidates() {
        let idx = build(16, 5);
        let q = TimeSeries::new(idx.series(1).unwrap().values()[3..19].to_vec());
        let (_, stats) = idx.subseq_range(&q, 0.5).unwrap();
        assert!(
            stats.candidates < idx.windows_total(),
            "index examined {} of {} windows",
            stats.candidates,
            idx.windows_total()
        );
    }

    #[test]
    fn knn_matches_brute_force() {
        let idx = build(12, 6);
        let q = TimeSeries::new(idx.series(7).unwrap().values()[5..17].to_vec());
        for k in [1usize, 3, 10, 50] {
            let (got, _) = idx.subseq_knn(&q, k).unwrap();
            let want = idx.scan_subseq_knn(&q, k).unwrap();
            assert_eq!(got.len(), want.len(), "k {k}");
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.distance - w.distance).abs() < 1e-9,
                    "k {k}: {} vs {}",
                    g.distance,
                    w.distance
                );
            }
        }
    }

    #[test]
    fn knn_more_neighbors_than_windows() {
        let idx = SubseqIndex::build(
            SubseqConfig::new(8),
            vec![TimeSeries::new((0..12).map(|i| i as f64).collect())],
        )
        .unwrap();
        let q = TimeSeries::new((0..8).map(|i| i as f64).collect());
        let (got, _) = idx.subseq_knn(&q, 100).unwrap();
        assert_eq!(got.len(), idx.windows_total());
        assert_eq!(got[0].offset, 0);
        assert!(got[0].distance < 1e-12);
    }

    #[test]
    fn knn_ties_break_by_series_then_offset() {
        // Every window of a constant relation is the same distance from
        // the query: the answer is the first `k` windows in `(series,
        // offset)` order, both when the best-first pass visits every
        // trail and when the refine phase runs.
        let rel: Vec<TimeSeries> = (0..3).map(|_| TimeSeries::new(vec![2.5; 40])).collect();
        let idx = SubseqIndex::build(SubseqConfig::new(8), rel).unwrap();
        let q = TimeSeries::new(vec![1.0; 8]);
        for k in [1usize, 2, 5, 33, 34, 99, 200] {
            let (got, _) = idx.subseq_knn(&q, k).unwrap();
            let want = idx.scan_subseq_knn(&q, k).unwrap();
            let key = |m: &[SubseqMatch]| -> Vec<(usize, usize)> {
                m.iter().map(|m| (m.series, m.offset)).collect()
            };
            assert_eq!(key(&got), key(&want), "k {k}");
        }
    }

    #[test]
    fn query_validation() {
        let idx = build(16, 7);
        let q = TimeSeries::new(vec![0.0; 16]);
        assert!(matches!(
            idx.subseq_range(&q, -1.0),
            Err(Error::NegativeThreshold { .. })
        ));
        let short = TimeSeries::new(vec![0.0; 15]);
        assert!(matches!(
            idx.subseq_range(&short, 1.0),
            Err(Error::LengthMismatch {
                expected: 16,
                got: 15
            })
        ));
        assert!(matches!(
            idx.subseq_knn(&short, 3),
            Err(Error::LengthMismatch { .. })
        ));
        assert!(matches!(
            idx.scan_subseq_range(&short, 1.0, ScanMode::Naive),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn insert_uses_batch_path_and_stays_consistent() {
        let mut idx = build(16, 8);
        let extra = RandomWalkGenerator::new(99).series(64);
        let id = idx.insert(extra.clone());
        assert_eq!(id, 12);
        idx.tree().validate();
        assert_eq!(idx.tree().len(), idx.trails_total());
        let q = TimeSeries::new(extra.values()[10..26].to_vec());
        let (matches, _) = idx.subseq_range(&q, 1e-9).unwrap();
        assert!(matches.iter().any(|m| m.series == id && m.offset == 10));
        // Still oracle-exact after the incremental insert.
        let (indexed, _) = idx.subseq_range(&q, 4.0).unwrap();
        let (scan, _) = idx.scan_subseq_range(&q, 4.0, ScanMode::Naive).unwrap();
        assert_eq!(indexed, scan);
    }

    #[test]
    fn extend_series_matches_fresh_rebuild() {
        // The oracle invariant at the trail level: after any append
        // schedule, the tree holds the same (rect, entry) set as a fresh
        // build over the final data — so answers, candidate counts and
        // trail hits agree exactly (node layout, hence nodes_visited, may
        // differ).
        let mut g = RandomWalkGenerator::new(40);
        let mut data: Vec<Vec<f64>> = (0..6).map(|i| g.series(20 + 9 * i).into_values()).collect();
        let mut idx = SubseqIndex::build(
            SubseqConfig::new(16),
            data.iter()
                .map(|v| TimeSeries::new(v.clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // Append in uneven slices, crossing chunk boundaries and growing a
        // series from below the window length past it.
        for (round, step) in [3usize, 8, 1, 13, 24].into_iter().enumerate() {
            for (id, series) in data.iter_mut().enumerate() {
                if (id + round) % 2 == 0 {
                    series.extend(g.series(step).into_values());
                    idx.extend_series(id, TimeSeries::new(series.clone()))
                        .unwrap();
                }
            }
        }
        idx.tree().validate();
        let fresh = SubseqIndex::build(
            SubseqConfig::new(16),
            data.iter()
                .map(|v| TimeSeries::new(v.clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(idx.windows_total(), fresh.windows_total());
        assert_eq!(idx.trails_total(), fresh.trails_total());
        // Identical (rect, entry) sets.
        let key = |t: &SubseqIndex| {
            let mut v: Vec<(Vec<u64>, TrailEntry)> = t
                .tree()
                .iter()
                .map(|(r, &e)| {
                    let bits: Vec<u64> = r
                        .lo()
                        .iter()
                        .chain(r.hi().iter())
                        .map(|x| x.to_bits())
                        .collect();
                    (bits, e)
                })
                .collect();
            v.sort_by(|a, b| (&a.0, a.1.series, a.1.start).cmp(&(&b.0, b.1.series, b.1.start)));
            v
        };
        assert_eq!(key(&idx), key(&fresh));
        // Query-level agreement, candidate counters included.
        let q = TimeSeries::new(data[3][data[3].len() - 16..].to_vec());
        for eps in [0.0, 1.0, 6.0] {
            let (a, sa) = idx.subseq_range(&q, eps).unwrap();
            let (b, sb) = fresh.subseq_range(&q, eps).unwrap();
            assert_eq!(a, b, "eps {eps}");
            assert_eq!(sa.trails, sb.trails);
            assert_eq!(sa.candidates, sb.candidates);
            assert_eq!(sa.false_hits, sb.false_hits);
            let (scan, _) = idx.scan_subseq_range(&q, eps, ScanMode::Naive).unwrap();
            assert_eq!(a, scan, "oracle-exact after appends");
        }
        let (ka, _) = idx.subseq_knn(&q, 7).unwrap();
        let (kb, _) = fresh.subseq_knn(&q, 7).unwrap();
        assert_eq!(ka, kb);
    }

    #[test]
    fn extend_series_is_atomic() {
        let mut idx = build(16, 41);
        let before_windows = idx.windows_total();
        let before_series = idx.series(2).unwrap().clone();
        let short = TimeSeries::new(before_series.values()[1..].to_vec());
        assert_eq!(
            idx.extend_series(2, short),
            Err(Error::LengthMismatch {
                expected: before_series.len(),
                got: before_series.len() - 1
            })
        );
        assert_eq!(
            idx.extend_series(99, before_series.clone()),
            Err(Error::UnknownSeries(99))
        );
        assert_eq!(idx.windows_total(), before_windows);
        assert_eq!(idx.series(2).unwrap(), &before_series);
        idx.tree().validate();
        // A value of the same length is a no-op.
        idx.extend_series(2, before_series).unwrap();
        assert_eq!(idx.windows_total(), before_windows);
    }

    #[test]
    fn bulk_and_incremental_builds_agree() {
        // A build over every series, and one over the first that takes the
        // rest one `insert` (an appended label) at a time.
        let rel = relation(9);
        let bulk = SubseqIndex::build(SubseqConfig::new(16), rel.clone()).unwrap();
        let mut incr = SubseqIndex::build(SubseqConfig::new(16), rel[..1].to_vec()).unwrap();
        for series in &rel[1..] {
            incr.insert(series.clone());
        }
        incr.tree().validate();
        assert_eq!(incr.windows_total(), bulk.windows_total());
        assert_eq!(incr.trails_total(), bulk.trails_total());
        let q = TimeSeries::new(rel[2].values()[7..23].to_vec());
        let a = bulk.subseq_range(&q, 3.0).unwrap().0;
        let b = incr.subseq_range(&q, 3.0).unwrap().0;
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_build_identical_to_sequential() {
        let rel = relation(10);
        let seq = SubseqIndex::build(SubseqConfig::new(16), rel.clone()).unwrap();
        let q = TimeSeries::new(rel[3].values()[11..27].to_vec());
        let (want_range, want_stats) = seq.subseq_range(&q, 3.0).unwrap();
        let want_knn = seq.subseq_knn(&q, 7).unwrap().0;
        for threads in [1usize, 2, 4] {
            let par =
                SubseqIndex::build_parallel(SubseqConfig::new(16), rel.clone(), threads).unwrap();
            par.tree().validate();
            assert_eq!(par.windows_total(), seq.windows_total());
            assert_eq!(par.trails_total(), seq.trails_total());
            assert_eq!(
                format!("{:?}", par.tree()),
                format!("{:?}", seq.tree()),
                "threads = {threads}: the same nodes, entries and bounds"
            );
            let (got, stats) = par.subseq_range(&q, 3.0).unwrap();
            assert_eq!(got, want_range, "threads = {threads}");
            // Identical trees ⇒ identical traversal effort, not just answers.
            assert_eq!(stats.index, want_stats.index, "threads = {threads}");
            assert_eq!(par.subseq_knn(&q, 7).unwrap().0, want_knn);
        }
    }

    /// Trail rectangles as a per-window fold computed them: a point
    /// rectangle per window, unioned into the trail's, then padded.
    fn chunks_by_point_rects(
        config: &SubseqConfig,
        id: usize,
        values: &[f64],
        first_chunk: usize,
        windows: usize,
    ) -> Vec<(Rect, TrailEntry)> {
        let trail = config.trail;
        let mut offset = first_chunk * trail;
        if offset >= windows {
            return Vec::new();
        }
        let mut cursor = SlidingCursor::resume(values, config.window, config.k, offset);
        let mut out = Vec::new();
        while offset < windows {
            let len = trail.min(windows - offset);
            let mut mbr = Rect::from_point(&coeff_coords(cursor.coeffs()));
            for _ in 1..len {
                cursor.advance(values);
                mbr.union_assign(&Rect::from_point(&coeff_coords(cursor.coeffs())));
            }
            let mut lo = mbr.lo().to_vec();
            let mut hi = mbr.hi().to_vec();
            for i in 0..lo.len() {
                let pad = 1e-9 * (1.0 + lo[i].abs().max(hi[i].abs()));
                lo[i] -= pad;
                hi[i] += pad;
            }
            out.push((
                Rect::new(lo, hi),
                TrailEntry {
                    series: id,
                    start: offset,
                    len,
                },
            ));
            offset += len;
            if offset < windows {
                cursor.advance(values);
            }
        }
        out
    }

    #[test]
    fn trail_rects_are_the_per_window_fold_bit_for_bit() {
        let bits = |chunks: &[(Rect, TrailEntry)]| -> Vec<(Vec<u64>, TrailEntry)> {
            chunks
                .iter()
                .map(|(r, e)| {
                    let b = r.lo().iter().chain(r.hi()).map(|x| x.to_bits()).collect();
                    (b, *e)
                })
                .collect()
        };
        // 16 + 600 samples: 601 windows, past the re-anchors at 256 and
        // 512, with a partial last chunk at every trail size below. A
        // constant stretch ties its windows' coordinates, and a zero stretch
        // across the re-anchor at 256 zeroes them.
        let mut walk = RandomWalkGenerator::new(28).series(616).into_values();
        walk[240..300].fill(0.0);
        walk[400..440].fill(-3.5);
        let series = [
            walk.clone(),
            walk.iter().map(|v| 1e5 * v).collect::<Vec<f64>>(),
        ];
        for values in &series {
            for trail in [1usize, 3, 8] {
                for k in [1usize, 3] {
                    let config = SubseqConfig {
                        k,
                        trail,
                        ..SubseqConfig::new(16)
                    };
                    let all = values.len() - 15;
                    // Every chunk from the first, and resumed from chunks
                    // before, at and past the re-anchors; `windows` short
                    // of the series as an append's old windows are.
                    for windows in [all, all - 100, 257] {
                        for first_chunk in [0, 1, 255 / trail, 256 / trail, 513 / trail] {
                            let what = format!(
                                "trail {trail}, k {k}, windows {windows}, first chunk {first_chunk}"
                            );
                            let got = chunks_of(&config, 7, values, first_chunk, windows);
                            let want =
                                chunks_by_point_rects(&config, 7, values, first_chunk, windows);
                            assert_eq!(got.len(), want.len(), "{what}");
                            assert!(bits(&got) == bits(&want), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_index_answers_trivially() {
        let idx = SubseqIndex::build(SubseqConfig::new(8), Vec::new()).unwrap();
        let q = TimeSeries::new(vec![0.0; 8]);
        assert!(idx.subseq_range(&q, 10.0).unwrap().0.is_empty());
        assert!(idx.subseq_knn(&q, 5).unwrap().0.is_empty());
    }
}
