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
//! One index at window `w` answers every query length `L >= w` by FRM's
//! **PrefixSearch**: the tree is probed with the query's first `w` samples
//! at the query's own `eps`, and each candidate offset whose length-`L`
//! subsequence fits in its series is verified over all `L` samples.
//!
//! ## One sample store
//!
//! The index is its trails, never a copy of the data: a [`TrailIndex`]
//! holds the trail tree, its counters and one length per series, and its
//! build and every refine read samples from a source by series id. A
//! relation's source is its records ([`crate::ShardedIndex`]: a borrow in
//! memory, a pin of the owning shard's record frame when paged), so a
//! relation holds each sample once. The standalone [`SubseqIndex`] is a
//! trail index paired with its own series, and reads those. A range
//! refine sorts its accepted trails by `(series, start)` and reads each
//! series once; a k-NN's best-first pass reads once per trail it visits.
//!
//! A leaf entry is one word, `series << 32 | start`, in memory and on a
//! page alike; its window count is re-derived from the series' length
//! ([`TrailIndex::entry`]), so a trail costs its bounds and 8 bytes.
//!
//! When the source is paged, so is the trail tree: the build packs it in
//! memory, profiles it for the planner, writes it to a scratch page file
//! of its own beside the relation's node file and drops the nodes, as
//! [`crate::SimilarityIndex::attach_paged`] does for the whole-match tree.
//! The words go to the page as they are. The file joins the cache
//! the relation's node and record files are in, under the same byte
//! budget, and goes — its frames with it — when the index does. The range
//! and k-NN kernels are written once over [`NodeStore`], so a paged trail
//! tree answers with the in-memory one's rows and counters, plus its
//! handle's hits and misses.
//!
//! ## Why there are no false dismissals
//!
//! The unitary DFT preserves Euclidean distance (Parseval, Equation 8), so
//! the distance restricted to the first `k` coefficients is a *lower bound*
//! of the true window↔query distance — and a window's distance to the
//! query's first `w` samples is in turn at most the distance of the whole
//! length-`L` subsequence starting there. A subsequence within `eps` of the
//! query therefore has its first window's feature point inside the
//! `eps`-ball around the query prefix's feature point, which is contained
//! in the box `[c_i ± eps]` the range query searches — and the trail MBR
//! containing that point must intersect the box. Candidates are verified
//! against the raw samples (exact, early-abandoning), so false hits are
//! discarded and the final match set equals the naive sliding scan's
//! exactly. The oracle suite (`tests/subseq_consistency.rs`) asserts this
//! equality on randomized relations, at `L = w` and past it.
//!
//! Trail rectangles are widened by the anti-rounding pad that
//! [`crate::space`] applies to every transformed bound (one helper for
//! both), covering the sliding DFT's re-anchored numerical drift, and the
//! query rectangle by a pad of its own, so the guarantee survives
//! floating-point rounding.

use std::borrow::Borrow;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use tsq_dft::dft::dft_prefix;
use tsq_dft::sliding::SlidingCursor;
use tsq_dft::Complex64;
use tsq_rtree::knn::nearest_with_tie;
use tsq_rtree::search::search_with;
use tsq_rtree::{
    NodeStore, PageCache, PagedTree, RStarTree, RTreeConfig, Rect, RectView, SearchStats,
};
use tsq_series::distance::{distance_sq_within, limit_sq};
use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::executor::default_threads;
use crate::plan::SpaceProfile;
use crate::records::RecordIo;
use crate::scan::ScanMode;
use crate::shard::ShardedIndex;
use crate::space::padded;

/// Configuration of a [`SubseqIndex`].
#[derive(Debug, Clone, Copy)]
pub struct SubseqConfig {
    /// Sliding-window length `w`: the shortest query length the index
    /// answers (a longer query probes it with its first `w` samples). Must
    /// be at least 2.
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

    /// Windows of a series of `len` samples.
    fn windows(&self, len: usize) -> usize {
        len.saturating_sub(self.window - 1)
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

/// One trail decoded from its tree word ([`TrailIndex::entry`]): a run of
/// consecutive windows of one stored series, bounded by the entry's MBR.
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
    /// Record-pool traffic of the refine (a paged relation's only).
    pub records: RecordIo,
}

/// Counters from a sliding-scan baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubseqScanStats {
    /// Windows examined (always every window of every stored series).
    pub windows: usize,
    /// Distance computations abandoned early.
    pub abandoned: usize,
}

/// Where the ST-index kernels read samples from, by series id.
pub(crate) trait SampleSource: Sync {
    /// Every series' length, in id order, without reading a sample.
    fn lengths(&self) -> Vec<usize>;

    /// `f` over series `id`'s samples, counting record-pool traffic in
    /// `io`.
    fn read<R>(&self, id: usize, io: &mut RecordIo, f: impl FnOnce(&[f64]) -> R) -> Result<R>;

    /// Where a trail tree over these series is paged, if they are.
    fn pages(&self) -> Option<TrailPages<'_>> {
        None
    }
}

/// Where a paged source's trail tree goes: a scratch page file beside
/// `near`, joining `cache`.
pub(crate) struct TrailPages<'a> {
    near: &'a Path,
    cache: &'a Arc<PageCache>,
}

impl SampleSource for [TimeSeries] {
    fn lengths(&self) -> Vec<usize> {
        self.iter().map(TimeSeries::len).collect()
    }

    fn read<R>(&self, id: usize, _: &mut RecordIo, f: impl FnOnce(&[f64]) -> R) -> Result<R> {
        let series = self.get(id).ok_or(Error::UnknownSeries(id))?;
        Ok(f(series.values()))
    }
}

/// A relation's records by global id, read as every whole-match operator
/// reads them ([`crate::SimilarityIndex::record`]).
impl SampleSource for ShardedIndex {
    fn lengths(&self) -> Vec<usize> {
        let mut lengths = vec![0; self.len()];
        for (shard, part) in self.parts().iter().enumerate() {
            let members = self.map().members(shard).iter().zip(part.entries());
            for (&global, stored) in members {
                lengths[global] = stored.features.n();
            }
        }
        lengths
    }

    fn read<R>(&self, global: usize, io: &mut RecordIo, f: impl FnOnce(&[f64]) -> R) -> Result<R> {
        let owner = self.map().owner(global);
        let (shard, local) = owner.ok_or(Error::UnknownSeries(global))?;
        Ok(f(self.parts()[shard].record(local, io)?.samples()))
    }

    /// Beside shard 0's node file, in its cache, when every shard is
    /// paged.
    fn pages(&self) -> Option<TrailPages<'_>> {
        let tree = self.parts()[0].paged()?;
        let paged = self.parts().iter().all(crate::SimilarityIndex::is_paged);
        paged.then(|| TrailPages {
            near: tree.path(),
            cache: tree.pool().cache(),
        })
    }
}

/// The ST-index's trails over a relation's windows: the trail tree, its
/// counters and one length per series, and no sample — its build and its
/// queries read them by series id from a source (see the module docs).
/// This is what a relation holds; a paged relation's keeps its trail tree
/// in a scratch page file (see the module docs).
///
/// The trail tree is the STR packing of every trail in word order, the
/// build's input order, and an append keeps it so, as an append to
/// [`crate::SimilarityIndex`] keeps its tree: one that only widens a
/// partial trail widens its entry in place ([`RStarTree::grow_entry`]),
/// and one that adds trails sets them aside and empties the tree's cell.
/// The next reader repacks the old tree's entries with the trails set
/// aside, once, while racing readers wait for it — the tree a build over
/// the same series packs ([`TrailIndex::tree`]).
#[derive(Debug)]
pub struct TrailIndex {
    config: SubseqConfig,
    /// The packed trail tree, one word per trail ([`TrailIndex::entry`]);
    /// empty between a trail-adding append and the next reader, which
    /// repacks it from `aside` ([`TrailIndex::tree`] is the one accessor);
    /// an empty tree when it is paged.
    tree: OnceLock<RStarTree<u64>>,
    /// What the next reader packs while `tree` is empty.
    aside: Mutex<Aside>,
    /// The paged trail tree in its scratch file, shared by clones, which
    /// goes — its frames with it — when the last clone drops; when set,
    /// `tree` is empty.
    paged: Option<Arc<PagedTree>>,
    lengths: Vec<usize>,
    windows_total: usize,
    trails_total: usize,
    /// The trail tree's shape for the planner, kept from the first plan
    /// that asks until the next append (see [`TrailIndex::profile`]), and
    /// taken before a paged build drops the nodes.
    profile: OnceLock<SpaceProfile>,
}

/// An unpacked trail tree's entries: the tree it was, and the trails
/// appended since — their rectangles flat, `lo` then `hi` each, beside
/// their words.
#[derive(Debug, Default)]
struct Aside {
    tree: RStarTree<u64>,
    bounds: Vec<f64>,
    words: Vec<u64>,
}

impl Clone for TrailIndex {
    /// A copy of the packed index: a reader repacking the original while
    /// it is cloned has taken its entries, so the copy waits for the tree
    /// it packs.
    fn clone(&self) -> Self {
        TrailIndex {
            config: self.config,
            tree: OnceLock::from(self.tree().clone()),
            aside: Mutex::default(),
            paged: self.paged.clone(),
            lengths: self.lengths.clone(),
            windows_total: self.windows_total,
            trails_total: self.trails_total,
            profile: self.profile.clone(),
        }
    }
}

/// A new scratch file for a trail build beside `near`:
/// `<near stem>.<pid>-<n>.trails` ([`crate::store::sidecar_tag`]), distinct
/// for every build of every process, so two builds racing over one
/// relation never share a file.
fn scratch_path(near: &Path) -> PathBuf {
    near.with_extension(format!("{}.trails", crate::store::sidecar_tag()))
}

/// A trail as its tree stores it: `series << 32 | start`, both fitting 32
/// bits ([`check_words`]).
fn word(series: usize, start: usize) -> u64 {
    ((series as u64) << 32) | start as u64
}

/// The `(series, start)` a [`word`] names.
fn unword(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & u64::from(u32::MAX)) as usize)
}

/// A trail tree stores a trail as `series << 32 | start`: every series id,
/// and every window offset, must fit 32 bits, or a word would name another
/// trail.
///
/// # Errors
/// [`Error::Unsupported`] for `series` series, or a series of `windows`
/// windows, past either.
fn check_words(series: usize, windows: impl IntoIterator<Item = usize>) -> Result<()> {
    let fits = |n: usize| n as u64 <= 1 << 32;
    if fits(series) && windows.into_iter().all(fits) {
        return Ok(());
    }
    Err(Error::Unsupported(
        "an ST-index holds at most 2^32 series of at most 2^32 windows".to_string(),
    ))
}

impl TrailIndex {
    /// Builds the trails of every series `source` holds, with the three
    /// heavy phases partitioned across up to `threads` worker threads:
    /// sliding-DFT trail extraction fans out over runs of consecutive
    /// series, each reading its series from `source`, and the STR bulk
    /// load ([`RStarTree::bulk_load_flat`]) sorts a large level's slabs in
    /// parallel and then gathers its nodes' stored bounds over groups of
    /// nodes. The index is *identical* to a sequential build for every
    /// thread count — trail order is fixed before the fan-out and STR
    /// packing is position-deterministic — so queries cannot tell how it
    /// was built.
    ///
    /// Each run writes its trails' rectangles straight into the slots the
    /// loader hands out, which are the leaf slabs they end up in: no
    /// rectangle is allocated per trail, and no buffer holds all of them.
    ///
    /// Over a paged source the packed tree is profiled, written to a
    /// scratch page file of this build's own and dropped: the index then
    /// reads its nodes through that file's pool (see the module docs).
    ///
    /// # Errors
    /// [`SubseqConfig::validate`] failures, [`Error::Unsupported`] for
    /// series or offsets past 32 bits ([`check_words`]), and the first read
    /// `source` fails; nothing is built then. Over a paged source, also
    /// typed [`Error::Store`] failures to write or open the trail file.
    pub(crate) fn build<S: SampleSource + ?Sized>(
        config: SubseqConfig,
        source: &S,
        threads: usize,
    ) -> Result<Self> {
        config.validate()?;
        let threads = threads.max(1);
        let lengths = source.lengths();
        check_words(
            lengths.len(),
            lengths.iter().map(|&len| config.windows(len)),
        )?;
        let trail_count = |len: &usize| config.windows(*len).div_ceil(config.trail);
        let total: usize = lengths.iter().map(trail_count).sum();
        let run = lengths.len().div_ceil(threads).max(1);
        let mut read: Result<()> = Ok(());
        let dims = 2 * config.k;
        let tree = RStarTree::bulk_load_flat(config.rtree, dims, total, threads, |rects, words| {
            words.extend(all_words(&config, &lengths));
            let mut rest = rects;
            let runs: Vec<(Range<usize>, &mut [f64])> = (0..lengths.len())
                .step_by(run)
                .map(|first| {
                    let ids = first..(first + run).min(lengths.len());
                    let count: usize = lengths[ids.clone()].iter().map(trail_count).sum();
                    let (part, tail) = std::mem::take(&mut rest).split_at_mut(count * 2 * dims);
                    rest = tail;
                    (ids, part)
                })
                .collect();
            let reads = crate::executor::parallel_map(threads, runs, |(ids, part)| {
                let mut slots = part.chunks_exact_mut(2 * dims);
                // A build reads outside any statement: its traffic is
                // nobody's to report.
                let mut io = RecordIo::default();
                for id in ids {
                    source.read(id, &mut io, |values| {
                        chunks_of(&config, values, 0, config.windows(lengths[id]), |bounds| {
                            slots
                                .next()
                                .expect("a slot per trail")
                                .copy_from_slice(bounds)
                        })
                    })?;
                }
                Ok(())
            });
            read = reads.into_iter().collect();
        });
        read?;
        let mut index = TrailIndex {
            config,
            tree: OnceLock::from(tree),
            aside: Mutex::default(),
            paged: None,
            lengths: Vec::with_capacity(lengths.len()),
            windows_total: 0,
            trails_total: 0,
            profile: OnceLock::new(),
        };
        for len in lengths {
            index.push_length(len);
        }
        if let Some(pages) = source.pages() {
            index.page_out(pages)?;
        }
        Ok(index)
    }

    /// Moves the trail tree into a scratch page file, keeping its profile.
    fn page_out(&mut self, pages: TrailPages<'_>) -> Result<()> {
        self.profile();
        let path = scratch_path(pages.near);
        let file = PagedTree::create(&path, self.tree(), |&word| word, pages.cache)?;
        self.tree = OnceLock::from(RStarTree::new(self.config.rtree));
        self.paged = Some(Arc::new(file));
        Ok(())
    }

    /// An append needs the trail tree in memory.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when the tree is paged: paged relations are
    /// read-only.
    fn check_held(&self) -> Result<()> {
        match self.paged {
            None => Ok(()),
            Some(_) => Err(Error::Unsupported("append to a paged ST-index".to_string())),
        }
    }

    /// Appends a series of `values`, returning its id. Its trails are set
    /// aside for the next reader to pack ([`TrailIndex::set_aside`]).
    ///
    /// # Errors
    /// [`Error::Unsupported`] when the tree is paged, or when the series'
    /// id or windows would not fit a word ([`check_words`]); nothing
    /// changes.
    pub(crate) fn insert(&mut self, values: &[f64]) -> Result<usize> {
        let id = self.lengths.len();
        let windows = self.config.windows(values.len());
        self.check_held()?;
        check_words(id + 1, [windows])?;
        let (bounds, words) = trails(&self.config, id, values, 0, windows);
        self.set_aside(&bounds, &words);
        self.push_length(values.len());
        Ok(id)
    }

    /// Extends series `id`'s trail to `values`, its extended samples (the
    /// old ones are their prefix), *incrementally*: the sliding-DFT
    /// recurrence is resumed from the last indexed window (no prefix
    /// recomputation — `O(k)` per appended point), the final trail MBR —
    /// if it was partial — is closed out (re-emitted with its new
    /// windows and widened in place), and the MBRs of the new chunks are
    /// set aside for the next reader to pack ([`TrailIndex::set_aside`]).
    /// The series' length follows on every extend, one that adds no window
    /// included.
    ///
    /// Trail chunk boundaries are fixed absolute offsets
    /// (`start = chunk * trail`) and the sliding DFT re-anchors on absolute
    /// offsets too, so every emitted rectangle is bit-identical to the one
    /// a from-scratch rebuild over the final data would produce: the tree
    /// holds the *same entry set* either way. Once a reader follows an
    /// append that adds a trail, it is the same tree, node for node; after
    /// appends that only widen partial trails, the widened entries sit
    /// where their narrower bounds were packed, so `nodes_visited` can
    /// differ while answers, candidates and trail hits cannot.
    ///
    /// Validation is atomic: on any error the index is exactly as it was.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for a bad id, [`Error::LengthMismatch`] for
    /// samples fewer than the series holds, [`Error::Unsupported`] when
    /// the tree is paged or the series' windows would not fit a word
    /// ([`check_words`]).
    pub(crate) fn extend_series(&mut self, id: usize, values: &[f64]) -> Result<()> {
        self.check_held()?;
        let series = self.lengths.len();
        let Some(held) = self.lengths.get_mut(id) else {
            return Err(Error::UnknownSeries(id));
        };
        if values.len() < *held {
            return Err(Error::LengthMismatch {
                expected: *held,
                got: values.len(),
            });
        }
        let trail = self.config.trail;
        let old_windows = self.config.windows(*held);
        let new_windows = self.config.windows(values.len());
        check_words(series, [new_windows])?;
        *held = values.len();
        // Nothing can fail past this point — the mutation is committed.
        if new_windows == old_windows {
            return Ok(());
        }
        // The first chunk whose window set changes. When the last old
        // chunk was partial it is that chunk (its MBR must absorb the new
        // windows); when it was full — or there were no windows at all —
        // it is the next, brand-new chunk.
        let first_chunk = old_windows / trail;
        let (bounds, words) = trails(&self.config, id, values, first_chunk, new_windows);
        let mut grown = 0;
        if old_windows % trail != 0 {
            // Recompute the partial chunk's rectangle exactly as it was
            // emitted (the old windows read only pre-append samples, and
            // the resumed cursor is bit-identical to the original walk).
            // Its re-emitted rectangle only absorbs new window points, so
            // it *contains* the old one, and it is widened where it is.
            let (old, _) = trails(&self.config, id, values, first_chunk, old_windows);
            grown = old.len();
            self.grow(words[0], &old, &bounds[..grown]);
        }
        self.set_aside(&bounds[grown..], &words[usize::from(grown > 0)..]);
        self.windows_total += new_windows - old_windows;
        self.trails_total += new_windows.div_ceil(trail) - old_windows.div_ceil(trail);
        Ok(())
    }

    /// Widens the trail `word` from `old` to `grown`, which contains it,
    /// wherever it is: among the trails set aside, or in the tree (the
    /// packed one in place, `O(height)`, which stays packed).
    fn grow(&mut self, word: u64, old: &[f64], grown: &[f64]) {
        let aside = self.aside.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = aside.words.iter().rposition(|&w| w == word) {
            let w = grown.len();
            aside.bounds[i * w..(i + 1) * w].copy_from_slice(grown);
            return;
        }
        let tree = match self.tree.get_mut() {
            Some(packed) => packed,
            None => &mut aside.tree,
        };
        let (old, grown) = (RectView::new(old), RectView::new(grown));
        let updated = tree.grow_entry(old, |&w| w == word, grown, word);
        assert!(updated, "indexed partial trail must be present");
        self.profile.take();
    }

    /// Sets new trails — `bounds`, `2·2k` a trail, beside their `words` —
    /// aside for the next reader to pack, and empties the tree's cell for
    /// it: the packed tree moves aside first, so the index holds one tree
    /// either way.
    fn set_aside(&mut self, bounds: &[f64], words: &[u64]) {
        if words.is_empty() {
            return;
        }
        let aside = self.aside.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(packed) = self.tree.take() {
            aside.tree = packed;
        }
        aside.bounds.extend_from_slice(bounds);
        aside.words.extend_from_slice(words);
        self.profile.take();
    }

    /// The tree a build over the same series packs: every trail's
    /// rectangle — the old tree's stored bounds, widened, and the
    /// rectangles set aside — in the build's slot for it, word order,
    /// STR-packed on up to `threads` threads. The old tree is taken out
    /// of the index and dropped once its entries are in the loader's
    /// buffer, before anything is packed. STR keys on stored bounds
    /// (`tsq_rtree`'s bulk load), so an entry read back off the old tree
    /// packs as its rectangle first did.
    fn repack(&self, threads: usize) -> RStarTree<u64> {
        let aside = std::mem::take(&mut *self.aside.lock().unwrap_or_else(PoisonError::into_inner));
        let config = &self.config;
        let w = 4 * config.k;
        // Each series' first slot, then the slot of the trail a word names.
        let mut first = Vec::with_capacity(self.lengths.len());
        let mut total = 0;
        for &len in &self.lengths {
            first.push(total);
            total += config.windows(len).div_ceil(config.trail);
        }
        let slot = |word: u64| {
            let (series, start) = unword(word);
            let at = (first[series] + start / config.trail) * w;
            at..at + w
        };
        RStarTree::bulk_load_flat(config.rtree, w / 2, total, threads, |rects, words| {
            let Aside {
                tree: old,
                bounds,
                words: set_aside,
            } = aside;
            words.extend(all_words(config, &self.lengths));
            for (rect, &word) in old.iter() {
                let stored = rect.lo().iter().chain(rect.hi().iter());
                for (slot, bound) in rects[slot(word)].iter_mut().zip(stored) {
                    *slot = bound;
                }
            }
            drop(old);
            for (rect, &word) in bounds.chunks_exact(w).zip(&set_aside) {
                rects[slot(word)].copy_from_slice(rect);
            }
        })
    }

    fn push_length(&mut self, len: usize) {
        let windows = self.config.windows(len);
        self.windows_total += windows;
        self.trails_total += windows.div_ceil(self.config.trail);
        self.lengths.push(len);
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// True when no series are indexed.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// The configuration.
    pub fn config(&self) -> &SubseqConfig {
        &self.config
    }

    /// Length of series `id`, as the index last saw it.
    pub fn length(&self, id: usize) -> Option<usize> {
        self.lengths.get(id).copied()
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

    /// Access to the underlying R\*-tree (read-only): one word per trail,
    /// decoded by [`TrailIndex::entry`], repacked first if an append set
    /// trails aside. The first reader repacks it at
    /// [`crate::executor::default_threads`] while later readers wait.
    /// Empty when the tree is paged ([`TrailIndex::paged`]).
    pub fn tree(&self) -> &RStarTree<u64> {
        self.tree.get_or_init(|| self.repack(default_threads()))
    }

    /// True while the packed tree is held (a trail-adding append empties
    /// it).
    #[cfg(test)]
    pub(crate) fn is_packed(&self) -> bool {
        self.tree.get().is_some()
    }

    /// The trail a tree word names — `series << 32 | start`, its window
    /// count re-derived from the series' length as the build derived it —
    /// checked against the index: in memory every word passes, and a word
    /// read off a page may not.
    ///
    /// # Errors
    /// [`Error::Store`] (corrupt) for a word that names no trail of the
    /// index.
    pub fn entry(&self, word: u64) -> Result<TrailEntry> {
        let (series, start) = unword(word);
        let windows = self
            .lengths
            .get(series)
            .map(|&len| self.config.windows(len));
        match windows {
            Some(windows) if start < windows && start % self.config.trail == 0 => Ok(TrailEntry {
                series,
                start,
                len: self.config.trail.min(windows - start),
            }),
            _ => Err(Error::Store(tsq_store::StoreError::corrupt(format!(
                "trail page word {word:#x} names no trail of the index"
            )))),
        }
    }

    /// The paged trail tree, when the relation it was built over is
    /// paged: its scratch page file and the pool over it.
    pub fn paged(&self) -> Option<&PagedTree> {
        self.paged.as_deref()
    }

    /// Shape of the trail tree over the indexed windows, for the cost
    /// model. Profiling walks every tree entry, so the result is kept:
    /// computed by the first plan that asks and dropped by the next
    /// append, which is the only thing that can change it. A statement
    /// over a static relation plans without touching the tree, and an
    /// append does not pay for a walk no statement may ever need. A paged
    /// tree is profiled by its build, before its nodes leave memory.
    pub(crate) fn profile(&self) -> &SpaceProfile {
        self.profile
            .get_or_init(|| SpaceProfile::of_tree(self.tree(), self.windows_total as u64))
    }

    /// A query is at least one window long.
    fn check_query(&self, q: &TimeSeries, eps: f64) -> Result<()> {
        Error::check_threshold(eps)?;
        if q.len() < self.config.window {
            return Err(Error::LengthMismatch {
                expected: self.config.window,
                got: q.len(),
            });
        }
        Ok(())
    }

    /// The feature point of a query's first window: what PrefixSearch
    /// probes the tree with, whatever the query's length.
    fn query_coords(&self, q: &TimeSeries) -> Vec<f64> {
        let prefix = &q.values()[..self.config.window];
        coeff_coords(&dft_prefix(prefix, self.config.k))
    }

    /// The offsets of `trail` at which a subsequence of `len` samples fits
    /// in its series: every one when `len` is the window.
    fn fitting(&self, trail: &TrailEntry, len: usize) -> Range<usize> {
        let end = (self.lengths[trail.series] + 1).saturating_sub(len);
        trail.start..end.min(trail.start + trail.len)
    }

    /// [`SubseqIndex::subseq_range`] over the series `source` holds.
    pub(crate) fn range<S: SampleSource + ?Sized>(
        &self,
        source: &S,
        q: &TimeSeries,
        eps: f64,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)> {
        self.check_query(q, eps)?;
        match self.paged() {
            Some(paged) => self.range_in(paged, source, q, eps),
            None => self.range_in(self.tree(), source, q, eps),
        }
    }

    /// The range kernel over whichever node store holds the trail tree,
    /// run once per statement (by `range`, and by `knn`'s refine phase):
    /// `eps` sizes the search box, and a candidate window is an answer
    /// when its squared distance is within `limit_sq(eps)` — when the
    /// distance it is reported with is `<= eps`.
    fn range_in<N, S>(
        &self,
        store: N,
        source: &S,
        q: &TimeSeries,
        eps: f64,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)>
    where
        N: NodeStore,
        N::Item: Borrow<u64>,
        Error: From<N::Error>,
        S: SampleSource + ?Sized,
    {
        let qrect = query_rect(&self.query_coords(q), eps);
        self.refine(
            store,
            source,
            q,
            |r| r.intersects(qrect.view()),
            limit_sq(eps),
        )
    }

    /// Every subsequence of the trails whose MBR passes `filter` that lies
    /// within `limit` of `q` in squared distance, sorted by
    /// `(series, offset)`. The trails are refined in that order, so each
    /// series with a candidate window is read once.
    fn refine<N, S>(
        &self,
        store: N,
        source: &S,
        q: &TimeSeries,
        filter: impl FnMut(RectView<'_>) -> bool,
        limit: f64,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)>
    where
        N: NodeStore,
        N::Item: Borrow<u64>,
        Error: From<N::Error>,
        S: SampleSource + ?Sized,
    {
        let mut trails: Vec<TrailEntry> = Vec::new();
        let mut bad = Ok(());
        let index_stats = search_with(store, filter, |_, item: N::Item| {
            match self.entry(*item.borrow()) {
                Ok(t) => trails.push(t),
                Err(e) => bad = Err(e),
            }
        })?;
        bad?;
        // A series' trails cover disjoint offset runs, so this order is
        // the rows' order too.
        trails.sort_unstable_by_key(|t| (t.series, t.start));
        let mut stats = SubseqStats {
            index: index_stats,
            trails: trails.len(),
            ..SubseqStats::default()
        };
        let mut matches = Vec::new();
        for run in trails.chunk_by(|a, b| a.series == b.series) {
            if run.iter().all(|t| self.fitting(t, q.len()).is_empty()) {
                continue;
            }
            source.read(run[0].series, &mut stats.records, |values| {
                for trail in run {
                    for offset in self.fitting(trail, q.len()) {
                        stats.candidates += 1;
                        let window = &values[offset..offset + q.len()];
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
            })?;
        }
        Ok((matches, stats))
    }

    /// [`SubseqIndex::subseq_knn`] over the series `source` holds.
    pub(crate) fn knn<S: SampleSource + ?Sized>(
        &self,
        source: &S,
        q: &TimeSeries,
        k: usize,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)> {
        self.check_query(q, 0.0)?;
        if k == 0 || self.windows_total == 0 {
            return Ok((Vec::new(), SubseqStats::default()));
        }
        match self.paged() {
            Some(paged) => self.knn_in(paged, source, q, k),
            None => self.knn_in(self.tree(), source, q, k),
        }
    }

    /// The k-NN kernel over whichever node store holds the trail tree.
    fn knn_in<N, S>(
        &self,
        store: N,
        source: &S,
        q: &TimeSeries,
        k: usize,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)>
    where
        N: NodeStore,
        N::Item: Borrow<u64>,
        Error: From<N::Error>,
        S: SampleSource + ?Sized,
    {
        let qcoords = self.query_coords(q);
        // Phase 1: best-first over trails, keeping the `k` smallest
        // examined windows by `(d2, series, offset)` in a bounded heap — a
        // squared distance is never negative, so its bits order as its
        // value. Memory stays `O(k)` however many windows the pass visits.
        let mut kept: BinaryHeap<(u64, usize, usize)> =
            BinaryHeap::with_capacity(k.min(self.windows_total));
        let mut candidates = 0usize;
        let mut records = RecordIo::default();
        let mut read: Result<()> = Ok(());
        let (trail_hits, mut index_stats) = nearest_with_tie(
            store,
            k,
            |rect| rect.min_dist2(&qcoords).sqrt(),
            |_, item: N::Item, _| {
                if read.is_err() {
                    return Some(f64::INFINITY);
                }
                let best = self.entry(*item.borrow()).and_then(|trail| {
                    let offsets = self.fitting(&trail, q.len());
                    if offsets.is_empty() {
                        return Ok(f64::INFINITY);
                    }
                    source.read(trail.series, &mut records, |values| {
                        let mut best = f64::INFINITY;
                        for offset in offsets {
                            candidates += 1;
                            let window = &values[offset..offset + q.len()];
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
                    })
                });
                // A failed read ends the statement; the search runs out
                // on infinite distances, reading nothing more.
                Some(best.unwrap_or_else(|e| {
                    read = Err(e);
                    f64::INFINITY
                }))
            },
            // No tie key: trails tied at the `k`-th boundary are kept in
            // traversal order.
            |_| 0,
        )?;
        read?;
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
                records,
            };
            return Ok((matches, stats));
        }
        // Phase 2: refine. When `seen` holds k true distances, its k-th
        // smallest is a valid search radius for the exact answer set — and
        // a distance is within itself, so the boundary window survives. A
        // query longer than the window may leave it short: a trail near
        // its series' end can have no offset the query fits at. Then every
        // subsequence is refined, which is the exhaustive answer.
        let (mut matches, range_stats) = match seen.get(k - 1) {
            Some(&(d2, ..)) => self.range_in(store, source, q, f64::from_bits(d2).sqrt())?,
            None => self.refine(store, source, q, |_| true, f64::INFINITY)?,
        };
        sort_matches(&mut matches);
        matches.truncate(k);
        index_stats.absorb(&range_stats.index);
        records.absorb(&range_stats.records);
        let stats = SubseqStats {
            index: index_stats,
            trails: trail_hits.len() + range_stats.trails,
            candidates: candidates + range_stats.candidates,
            false_hits: range_stats.false_hits,
            records,
        };
        Ok((matches, stats))
    }
}

/// The standalone ST-index: subsequence similarity search over a relation
/// of (possibly different-length) time series it holds itself — a
/// [`TrailIndex`] paired with its series.
#[derive(Debug, Clone)]
pub struct SubseqIndex {
    trails: TrailIndex,
    store: Vec<TimeSeries>,
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

    /// [`SubseqIndex::build`] with trail extraction and the STR bulk load
    /// partitioned across up to `threads` worker threads; the index is
    /// identical to a sequential build for every thread count (see
    /// [`TrailIndex`]'s build).
    ///
    /// # Errors
    /// Propagates [`SubseqConfig::validate`] failures.
    pub fn build_parallel(
        config: SubseqConfig,
        relation: Vec<TimeSeries>,
        threads: usize,
    ) -> Result<Self> {
        let trails = TrailIndex::build(config, &relation[..], threads)?;
        Ok(SubseqIndex {
            trails,
            store: relation,
        })
    }

    /// Appends one series, returning its id. Its trails are set aside for
    /// the next reader to pack into the tree (see [`TrailIndex`]).
    ///
    /// # Panics
    /// When a trail word cannot name the series: the index holds 2^32
    /// series already, or the series has more than 2^32 windows.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, series: TimeSeries) -> usize {
        let id = self.trails.insert(series.values());
        self.store.push(series);
        id.expect("a standalone index holds its trail tree, and its words fit")
    }

    /// Takes one stored series' extended value (the value it held is its
    /// prefix) and extends its feature trail incrementally, bit-identical
    /// to a rebuild over the final data (see [`TrailIndex`]).
    ///
    /// Validation is atomic: on any error the index is exactly as it was.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for a bad id, [`Error::LengthMismatch`] for
    /// a value shorter than the stored one.
    pub fn extend_series(&mut self, id: usize, series: TimeSeries) -> Result<()> {
        self.trails.extend_series(id, series.values())?;
        self.store[id] = series;
        Ok(())
    }

    /// The trails, without the series.
    pub fn trails(&self) -> &TrailIndex {
        &self.trails
    }

    /// Stored series by id.
    #[cfg(test)]
    pub(crate) fn series(&self, id: usize) -> Option<&TimeSeries> {
        self.store.get(id)
    }

    /// Total number of indexed windows across the relation — the effort a
    /// sliding scan must always spend.
    pub fn windows_total(&self) -> usize {
        self.trails.windows_total()
    }

    /// Access to the underlying R\*-tree (read-only): one word per trail,
    /// decoded by [`TrailIndex::entry`].
    pub fn tree(&self) -> &RStarTree<u64> {
        self.trails.tree()
    }

    /// The trails and the series they read.
    pub(crate) fn split(&self) -> (&TrailIndex, &[TimeSeries]) {
        (&self.trails, &self.store)
    }

    /// Range query: every `(series, offset)` whose subsequence of
    /// `L = q.len()` samples (at least the window) lies within `eps` of `q`
    /// in Euclidean distance. This is FRM's PrefixSearch: the traversal
    /// prunes trail MBRs with the query's first window, whose distance is
    /// at most the whole subsequence's, so nothing is dismissed (see the
    /// module docs); candidates are verified over all `L` samples with
    /// early abandoning. Results are sorted by `(series, offset)`.
    ///
    /// # Errors
    /// [`Error::NegativeThreshold`] and [`Error::LengthMismatch`] (the
    /// query must be at least one window long).
    pub fn subseq_range(
        &self,
        q: &TimeSeries,
        eps: f64,
    ) -> Result<(Vec<SubseqMatch>, SubseqStats)> {
        self.trails.range(&self.store[..], q, eps)
    }

    /// K-nearest-subsequence query: the `k` subsequences of `q.len()`
    /// samples (over all stored series and offsets) minimizing the
    /// Euclidean distance to `q`, sorted by ascending distance (ties broken
    /// by `(series, offset)`).
    ///
    /// Filter-and-refine: a best-first trail search, ordered by the
    /// MINDIST of the query's first window (PrefixSearch, as for
    /// [`SubseqIndex::subseq_range`]), produces `k` candidate distances,
    /// whose k-th smallest upper-bounds the true k-th neighbor distance; a
    /// range query at that radius then retrieves the exact answer (Lemma 1
    /// again: the range step cannot dismiss a true neighbor).
    ///
    /// # Errors
    /// [`Error::LengthMismatch`] when the query is shorter than a window.
    pub fn subseq_knn(&self, q: &TimeSeries, k: usize) -> Result<(Vec<SubseqMatch>, SubseqStats)> {
        self.trails.knn(&self.store[..], q, k)
    }

    /// Ground-truth baseline: a sliding scan over every subsequence of
    /// `q.len()` samples of every stored series (Table-1-style methods
    /// (a)/(b) restated for subsequences). Naive mode computes every
    /// distance in full; early abandoning stops a subsequence as soon as it
    /// exceeds `limit_sq(eps)`.
    ///
    /// # Errors
    /// Same validation as [`SubseqIndex::subseq_range`].
    pub fn scan_subseq_range(
        &self,
        q: &TimeSeries,
        eps: f64,
        mode: ScanMode,
    ) -> Result<(Vec<SubseqMatch>, SubseqScanStats)> {
        self.trails.check_query(q, eps)?;
        let limit = limit_sq(eps);
        let abandon_at = mode.abandon_at(limit);
        let mut stats = SubseqScanStats::default();
        let mut matches = Vec::new();
        for (series, offset, window) in self.slide(q.len()) {
            stats.windows += 1;
            let d2 = distance_sq_within(window, q.values(), abandon_at);
            stats.abandoned += usize::from(d2.is_none());
            if let Some(d2) = d2.filter(|d2| *d2 <= limit) {
                matches.push(SubseqMatch {
                    series,
                    offset,
                    distance: d2.sqrt(),
                });
            }
        }
        Ok((matches, stats))
    }

    /// Ground-truth k-nearest-subsequence by brute force, keeping the `k`
    /// best in a bounded heap ordered `(distance, series, offset)`: its
    /// memory is `O(k)` however many subsequences it slides over.
    ///
    /// # Errors
    /// [`Error::LengthMismatch`] when the query is shorter than a window.
    pub fn scan_subseq_knn(&self, q: &TimeSeries, k: usize) -> Result<Vec<SubseqMatch>> {
        self.trails.check_query(q, 0.0)?;
        // A distance is never negative, so its bits order as its value.
        let mut kept: BinaryHeap<(u64, usize, usize)> =
            BinaryHeap::with_capacity(k.min(self.windows_total()));
        for (series, offset, window) in self.slide(q.len()) {
            let d = full_distance_sq(window, q.values()).sqrt();
            let entry = (d.to_bits(), series, offset);
            if kept.len() < k {
                kept.push(entry);
            } else if let Some(mut worst) = kept.peek_mut() {
                if entry < *worst {
                    *worst = entry;
                }
            }
        }
        let best = kept.into_sorted_vec().into_iter();
        let best = best.map(|(d, series, offset)| SubseqMatch {
            series,
            offset,
            distance: f64::from_bits(d),
        });
        Ok(best.collect())
    }

    /// Every subsequence of `len` samples of every stored series, as
    /// `(series, offset, samples)` in `(series, offset)` order.
    fn slide(&self, len: usize) -> impl Iterator<Item = (usize, usize, &[f64])> {
        self.store.iter().enumerate().flat_map(move |(id, series)| {
            let values = series.values();
            let offsets = 0..(values.len() + 1).saturating_sub(len);
            offsets.map(move |offset| (id, offset, &values[offset..offset + len]))
        })
    }
}

/// The trails of one series from `first_chunk` onward, over its first
/// `windows` windows: their rectangles flat, `lo` then `hi` each (see
/// [`chunks_of`]), and their words. What an insert or an append sets
/// aside.
fn trails(
    config: &SubseqConfig,
    id: usize,
    values: &[f64],
    first_chunk: usize,
    windows: usize,
) -> (Vec<f64>, Vec<u64>) {
    let words: Vec<u64> = trail_words(config, id, first_chunk, windows).collect();
    let mut bounds = Vec::with_capacity(words.len() * 4 * config.k);
    chunks_of(config, values, first_chunk, windows, |b| {
        bounds.extend_from_slice(b)
    });
    (bounds, words)
}

/// The words of one series' trails from `first_chunk` onward, over its
/// first `windows` windows: chunk `c` starts at window `c·trail` (an
/// absolute offset) and holds up to `trail` of them. The id and `windows`
/// have passed [`check_words`].
fn trail_words(
    config: &SubseqConfig,
    id: usize,
    first_chunk: usize,
    windows: usize,
) -> impl Iterator<Item = u64> {
    let starts = (first_chunk * config.trail..windows).step_by(config.trail);
    starts.map(move |start| word(id, start))
}

/// The words of every trail of series of `lengths`, in id order: the order
/// a build hands the loader its trails in.
fn all_words<'a>(config: &'a SubseqConfig, lengths: &'a [usize]) -> impl Iterator<Item = u64> + 'a {
    let series = lengths.iter().enumerate();
    series.flat_map(|(id, &len)| trail_words(config, id, 0, config.windows(len)))
}

/// The rectangles of one series' trails from `first_chunk` onward — those
/// of [`trail_words`], in order — handed to `emit` one at a time as
/// `2·dims` bounds (`lo`, then `hi`), computed by *resuming* the sliding-DFT
/// recurrence at that chunk's first window instead of recomputing the
/// prefix: the `O(k)`-per-point incremental path behind
/// [`SubseqIndex::extend_series`], and with `first_chunk = 0` the build's.
/// The cursor re-anchors on absolute offsets ([`SlidingCursor::resume`] is
/// bit-identical to a from-zero walk) and chunk boundaries are absolute
/// too, so a chunk's rectangle does not depend on where the walk started.
///
/// Each MBR is widened by a relative `1e-9` per dimension: sliding-DFT
/// drift scales with the *stored* coefficients' magnitude (the error of
/// each `O(k)` step is rotated, not damped, until the next re-anchor),
/// so the padding absorbing it must scale with the trail's own
/// coordinates — a pad derived from the query's magnitude alone would
/// not cover large-valued data. It is the anti-rounding pad of Algorithm
/// 1's transformed bounds ([`crate::space`]), from the same helper.
///
/// A trail is folded without a rectangle per window: each window's
/// coordinates go straight from the cursor into one bounds buffer, reused
/// across trails, under `Rect::union_assign`'s strict `<`/`>` tests, so the
/// bounds are the per-window union's bit for bit; the buffer is then
/// padded in place and emitted. Each test selects rather than branches
/// (whether a window extends its trail's box is a coin flip per bound).
fn chunks_of(
    config: &SubseqConfig,
    values: &[f64],
    first_chunk: usize,
    windows: usize,
    mut emit: impl FnMut(&[f64]),
) {
    let trail = config.trail;
    let mut offset = first_chunk * trail;
    if offset >= windows {
        return;
    }
    let mut cursor = SlidingCursor::resume(values, config.window, config.k, offset);
    let dims = 2 * config.k;
    let mut bounds = vec![0.0; 2 * dims];
    while offset < windows {
        let len = trail.min(windows - offset);
        let (lo, hi) = bounds.split_at_mut(dims);
        for ((l, h), x) in lo
            .iter_mut()
            .zip(hi.iter_mut())
            .zip(coords(cursor.coeffs()))
        {
            (*l, *h) = (x, x);
        }
        for _ in 1..len {
            cursor.advance(values);
            for ((l, h), x) in lo
                .iter_mut()
                .zip(hi.iter_mut())
                .zip(coords(cursor.coeffs()))
            {
                *l = if x < *l { x } else { *l };
                *h = if x > *h { x } else { *h };
            }
        }
        // The anti-drift padding.
        for (l, h) in lo.iter_mut().zip(hi) {
            (*l, *h) = padded(*l, *h);
        }
        // As `Rect::new` asserts of every rectangle it makes.
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "non-finite trail bound"
        );
        emit(&bounds);
        offset += len;
        if offset < windows {
            cursor.advance(values);
        }
    }
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
    use crate::{IndexConfig, SeriesRelation, ShardSpec};
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
        assert_eq!(idx.tree().len(), idx.trails().trails_total());
        idx.tree().validate();
    }

    #[test]
    fn short_series_contribute_nothing() {
        let mut series = relation(2);
        series.push(TimeSeries::new(vec![1.0; 5])); // shorter than window
        let mut idx = SubseqIndex::build(SubseqConfig::new(16), series).unwrap();
        let q = idx.series(0).unwrap().values()[..16].to_vec();
        let (matches, _) = idx.subseq_range(&TimeSeries::new(q), 1e-9).unwrap();
        assert!(matches.iter().all(|m| m.series != 12));
        // An extend that adds no window still moves the length; the next
        // one adds the windows past it.
        let windows = idx.windows_total();
        idx.extend_series(12, TimeSeries::new(vec![1.0; 10]))
            .unwrap();
        assert_eq!(idx.trails().length(12), Some(10));
        assert_eq!(idx.windows_total(), windows);
        idx.extend_series(12, TimeSeries::new(vec![1.0; 20]))
            .unwrap();
        assert_eq!(idx.trails().length(12), Some(20));
        assert_eq!(idx.windows_total(), windows + 5);
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
    fn knn_past_the_window_survives_trails_with_no_fitting_offset() {
        // One window per trail over series of 10: a query of 10 fits at
        // one offset of each, one of 11 at none. The best-first pass ends
        // on k trails, most or all of which hold no offset the query fits
        // at, so fewer than k distances are seen: the answer is the
        // exhaustive one.
        let config = SubseqConfig {
            trail: 1,
            ..SubseqConfig::new(8)
        };
        let mut g = RandomWalkGenerator::new(12);
        let idx = SubseqIndex::build(config, (0..5).map(|_| g.series(10)).collect()).unwrap();
        assert_eq!(idx.trails().trails_total(), 15);
        for len in [10usize, 11] {
            let q = g.series(len);
            for k in [7usize, 14] {
                let (got, stats) = idx.subseq_knn(&q, k).unwrap();
                assert_eq!(got, idx.scan_subseq_knn(&q, k).unwrap(), "L {len}, k {k}");
                assert_eq!(got.len(), if len == 10 { 5 } else { 0 });
                assert!(stats.trails >= k, "L {len}, k {k}: {} trails", stats.trails);
            }
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
        assert_eq!(idx.tree().len(), idx.trails().trails_total());
        let q = TimeSeries::new(extra.values()[10..26].to_vec());
        let (matches, _) = idx.subseq_range(&q, 1e-9).unwrap();
        assert!(matches.iter().any(|m| m.series == id && m.offset == 10));
        // Still oracle-exact after the insert.
        let (indexed, _) = idx.subseq_range(&q, 4.0).unwrap();
        let (scan, _) = idx.scan_subseq_range(&q, 4.0, ScanMode::Naive).unwrap();
        assert_eq!(indexed, scan);
    }

    #[test]
    fn extend_series_matches_fresh_rebuild() {
        // The oracle invariant at the trail level: after any append
        // schedule, the tree holds the same (rect, entry) set as a fresh
        // build over the final data — so answers, candidate counts and
        // trail hits agree exactly — and once a read follows a
        // trail-adding append, the same nodes too.
        let mut g = RandomWalkGenerator::new(40);
        let mut data: Vec<Vec<f64>> = (0..6)
            .map(|i| g.series(20 + 9 * i).values().to_vec())
            .collect();
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
                    series.extend(g.series(step).values().to_vec());
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
        assert_eq!(idx.trails().trails_total(), fresh.trails().trails_total());
        for (id, series) in data.iter().enumerate() {
            assert_eq!(idx.trails().length(id), Some(series.len()), "series {id}");
        }
        // Identical (rect, trail) sets.
        let key = |t: &SubseqIndex| {
            let mut v: Vec<(Vec<u64>, TrailEntry)> = t
                .tree()
                .iter()
                .map(|(r, &w)| {
                    let bits: Vec<u64> = r
                        .lo()
                        .iter()
                        .chain(r.hi().iter())
                        .map(|x| x.to_bits())
                        .collect();
                    (bits, t.trails().entry(w).unwrap())
                })
                .collect();
            v.sort_by(|a, b| (&a.0, a.1.series, a.1.start).cmp(&(&b.0, b.1.series, b.1.start)));
            v
        };
        assert_eq!(key(&idx), key(&fresh));
        assert_eq!(format!("{:?}", idx.tree()), format!("{:?}", fresh.tree()));
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
    fn an_append_sets_new_trails_aside_and_the_next_reader_repacks_once() {
        // Series of 40 samples: 25 windows of 16, the last trail of 8
        // holding one.
        let mut g = RandomWalkGenerator::new(61);
        let mut data: Vec<Vec<f64>> = (0..6).map(|_| g.series(40).values().to_vec()).collect();
        let series = |data: &[Vec<f64>]| -> Vec<TimeSeries> {
            data.iter().map(|v| TimeSeries::new(v.clone())).collect()
        };
        let mut idx = SubseqIndex::build(SubseqConfig::new(16), series(&data)).unwrap();
        assert!(idx.trails().is_packed(), "a build returns with its tree");
        let packed: *const RStarTree<u64> = idx.tree();
        // Three points widen series 2's partial trail where it is packed.
        data[2].extend(g.series(3).values());
        idx.extend_series(2, TimeSeries::new(data[2].clone()))
            .unwrap();
        assert!(
            idx.trails().is_packed(),
            "a grow-only append keeps the tree"
        );
        assert!(std::ptr::eq(packed, idx.tree()), "the same tree");
        // Five more close that trail and add one, and a newcomer adds
        // its own: set aside, and nothing is packed until a reader comes.
        data[2].extend(g.series(5).values());
        idx.extend_series(2, TimeSeries::new(data[2].clone()))
            .unwrap();
        assert!(!idx.trails().is_packed(), "a trail-adding append unpacks");
        let newcomer = g.series(30);
        data.push(newcomer.values().to_vec());
        idx.insert(newcomer);
        assert!(!idx.trails().is_packed());
        // Two racing readers see one tree, repacked once: a rebuild's.
        let start = std::sync::Barrier::new(2);
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let read = || {
                start.wait();
                idx.tree() as *const RStarTree<u64> as usize
            };
            let readers = [scope.spawn(read), scope.spawn(read)];
            readers.map(|r| r.join().unwrap()).to_vec()
        });
        assert_eq!(seen[0], seen[1], "repacked once");
        assert!(idx.trails().is_packed());
        let aside = idx.trails().aside.lock().unwrap();
        assert!(aside.tree.is_empty() && aside.words.is_empty() && aside.bounds.is_empty());
        let fresh = SubseqIndex::build(SubseqConfig::new(16), series(&data)).unwrap();
        assert_eq!(format!("{:?}", idx.tree()), format!("{:?}", fresh.tree()));
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
        assert_eq!(incr.trails().trails_total(), bulk.trails().trails_total());
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
            assert_eq!(par.trails().trails_total(), seq.trails().trails_total());
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
    ) -> Vec<(Rect, u64)> {
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
                mbr.union_assign(Rect::from_point(&coeff_coords(cursor.coeffs())).view());
            }
            let (lo, hi) = mbr
                .lo()
                .iter()
                .zip(mbr.hi())
                .map(|(&l, &h)| padded(l, h))
                .unzip();
            out.push((Rect::new(lo, hi), word(id, offset)));
            offset += len;
            if offset < windows {
                cursor.advance(values);
            }
        }
        out
    }

    #[test]
    fn trail_rects_are_the_per_window_fold_bit_for_bit() {
        let bits = |chunks: &[(Rect, u64)]| -> Vec<(Vec<u64>, u64)> {
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
        let mut walk = RandomWalkGenerator::new(28).series(616).values().to_vec();
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
                            let (bounds, words) = trails(&config, 7, values, first_chunk, windows);
                            let rects = bounds.chunks_exact(4 * k).map(RectView::new);
                            let got: Vec<(Rect, u64)> =
                                rects.map(RectView::to_rect).zip(words).collect();
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

    /// A relation of `count` walks of 64 samples in two hash shards, each
    /// paged in `dir` in a two-page cache of its own.
    fn paged_relation(dir: &Path, count: usize) -> ShardedIndex {
        std::fs::create_dir_all(dir).unwrap();
        let walks = RandomWalkGenerator::new(17).relation(count, 64);
        let rel = SeriesRelation::from_series("r", walks).unwrap();
        let spec = ShardSpec::hash(2).unwrap();
        let mut paged = ShardedIndex::build(IndexConfig::default(), &rel, spec).unwrap();
        for (shard, part) in paged.parts_mut().iter_mut().enumerate() {
            part.attach_paged_budget(&dir.join(format!("r_s{shard}.pages")), 2 << 12)
                .unwrap();
        }
        paged
    }

    /// The trail files in `dir`.
    fn trail_files(dir: &Path) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        entries
            .filter(|p| p.extension().is_some_and(|e| e == "trails"))
            .collect()
    }

    #[test]
    fn racing_paged_builds_write_files_of_their_own_and_remove_them() {
        let dir = std::env::temp_dir().join(format!("tsq-trail-files-{}", std::process::id()));
        let paged = paged_relation(&dir, 30);
        let config = SubseqConfig::new(16);
        let start = std::sync::Barrier::new(4);
        let built: Vec<TrailIndex> = std::thread::scope(|scope| {
            let builds: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        TrailIndex::build(config, &paged, 2).unwrap()
                    })
                })
                .collect();
            builds.into_iter().map(|b| b.join().unwrap()).collect()
        });
        let mut paths: Vec<PathBuf> = built
            .iter()
            .map(|st| st.paged().expect("paged").path().to_path_buf())
            .collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 4, "a file per build");
        let mut files = trail_files(&dir);
        files.sort();
        assert_eq!(files, paths);
        let q = TimeSeries::new(paged.series(5).unwrap().values()[7..23].to_vec());
        let want = built[0].range(&paged, &q, 2.0).unwrap().0;
        assert!(!want.is_empty());
        for st in &built[1..] {
            assert_eq!(st.range(&paged, &q, 2.0).unwrap().0, want);
        }
        // A clone shares its file, which goes with the last index over it.
        let kept = built[0].paged().unwrap().path().to_path_buf();
        let clone = built[0].clone();
        drop(built);
        assert_eq!(trail_files(&dir), vec![kept]);
        drop(clone);
        assert!(trail_files(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_trail_words_are_checked_against_the_index() {
        let dir = std::env::temp_dir().join(format!("tsq-trail-words-{}", std::process::id()));
        let paged = paged_relation(&dir, 6);
        let mut st = TrailIndex::build(SubseqConfig::new(16), &paged, 1).unwrap();
        // 64 samples: 49 windows, trails at 0, 8, …, 48; the last of one.
        let entry = st.entry(word(5, 48)).unwrap();
        assert_eq!((entry.series, entry.start, entry.len), (5, 48, 1));
        for stored in [6u64 << 32, (2 << 32) | 49, (2 << 32) | 3] {
            assert!(
                matches!(st.entry(stored), Err(Error::Store(_))),
                "{stored:#x}"
            );
        }
        assert!(matches!(st.insert(&[0.0; 64]), Err(Error::Unsupported(_))));
        assert!(matches!(
            st.extend_series(0, &[0.0; 80]),
            Err(Error::Unsupported(_))
        ));
        assert_eq!(st.length(0), Some(64));
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn words_past_32_bits_are_refused_before_anything_is_built() {
        // Counts only: a relation this large is never allocated. Every
        // build, insert and extend checks its counts so, in memory or
        // paged, before it writes a word.
        let words = 1usize << 32;
        assert!(check_words(words, [words, 0, 1]).is_ok());
        assert!(check_words(0, []).is_ok());
        for (series, windows) in [(words + 1, 1), (1, words + 1), (words, words + 1)] {
            assert!(matches!(
                check_words(series, [1, windows]),
                Err(Error::Unsupported(m)) if m.contains("2^32")
            ));
        }
        // The last series' last window fits, and decodes back.
        let last = word(words - 1, words - 1);
        assert_eq!(last, u64::MAX);
        assert_eq!(
            (last >> 32, last & u64::from(u32::MAX)),
            (words as u64 - 1, words as u64 - 1)
        );
    }

    #[test]
    fn empty_index_answers_trivially() {
        let idx = SubseqIndex::build(SubseqConfig::new(8), Vec::new()).unwrap();
        let q = TimeSeries::new(vec![0.0; 8]);
        assert!(idx.subseq_range(&q, 10.0).unwrap().0.is_empty());
        assert!(idx.subseq_knn(&q, 5).unwrap().0.is_empty());
    }
}
