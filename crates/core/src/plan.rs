//! Cost-based query planning: logical plans, the one bind step, and the
//! operator table every query runs through.
//!
//! The paper frames every similarity query as a choice among access
//! paths — sequential scan, early-abandoning scan, index
//! filter-and-refine, transformed-MBR traversal — and Table 1 / Figures
//! 10–12 show the winner flips with cardinality, length and selectivity.
//! This module makes that choice explicit and automatic:
//!
//! 1. A [`LogicalPlan`] states *what* the query asks (resolved query
//!    series, threshold or `k`, composed transformation, filter window),
//!    independent of how it will run.
//! 2. The statement is *bound* to its relation — Algorithm 2's
//!    preprocessing step, once per statement: validation in the one order
//!    every layer reports (ragged relation, then threshold, then
//!    transformation — a warp under a self-join, arity, safety — then
//!    query length), the query's FFT, and the Figure-7 search rectangle.
//!    Planning and execution consume the bound statement and validate
//!    nothing themselves; a sharded relation binds once for all shards.
//! 3. A [`Planner`] costs every [`PhysicalOp`] that implements the bound
//!    statement from catalog statistics ([`RelationStats`]), and one
//!    `choose` picks among them: the operator the statement's
//!    `WITH (force = ...)` names ([`ForceOp`], carried as one
//!    `Option<ForceOp>` from [`QueryOptions`] to here), else the cheapest.
//! 4. [`execute_plan`] runs the chosen [`PhysicalPlan`] — a dispatch on
//!    `(statement form, operator)` into the table below — and reports
//!    full [`ExecStats`].
//!
//! ## The operator table
//!
//! Each operator has one kernel, one cost function and one accounting
//! constructor; anything that changes how an operator filters, times or
//! cancels its work changes exactly one row.
//!
//! | operator | form | forced by | kernel | cost | accounting |
//! |---|---|---|---|---|---|
//! | `IndexRange` | range | `index` | [`SimilarityIndex::range_query`]'s filter + refine | `index_range_estimate` | `ExecStats::index` |
//! | `EarlyAbandonScan` | range | `scan` | [`SimilarityIndex::scan_range_features`] | `scan_estimate` | `ExecStats::scan` |
//! | `SeqScan` | range | — | [`SimilarityIndex::scan_range_features`] | `scan_estimate` | `ExecStats::scan` |
//! | `IndexKnn` | k-NN | `index` | [`SimilarityIndex::knn_query`]'s best-first search | `plan_knn` | `ExecStats::index` |
//! | `SeqScan` | k-NN | `scan` | [`SimilarityIndex::scan_knn`]'s sort | `scan_estimate` | `ExecStats::scan` |
//! | `JoinIndex` | join | `index` | [`crate::queries`]' `probe_pairs` | `plan_join` | `ExecStats::index` |
//! | `JoinScan` | join | `scan` | [`crate::queries`]' `scan_pairs`, early abandoning | `scan_estimate` (per pair) | `ExecStats::scan` |
//! | `JoinScan(full)` | join | `scanfull` | [`crate::queries`]' `scan_pairs`, full distances | `scan_estimate` (per pair) | `ExecStats::scan` |
//! | `SubseqIndexProbe` | subsequence | — | [`SubseqIndex::subseq_range`] / [`SubseqIndex::subseq_knn`] | `plan_subseq` | `ExecStats::index` |
//!
//! The join kernels are written over a probe side and a partner side; a
//! self-join is the case where both are the same index. The cross-shard
//! stage of a sharded join ([`crate::shard`]) runs the same rows over
//! pairs of shards.
//!
//! ### Membership
//!
//! On every row of the table, a row is in the answer of a `WITHIN eps`
//! statement exactly when **the distance it is reported with is
//! `<= eps`**. Each exact check is one run of the blocked loop
//! [`tsq_series::distance::sum_sq_within`] — through the statement's one
//! [`Refine`] (`(T(x̂)_t − q̂_t)²` per sample) or, for windows,
//! `distance_sq_within` — whose sum is tested `acc <= limit_sq(eps)`:
//! [`tsq_series::distance::limit_sq`], computed once where the statement
//! is bound, is the largest `f64` whose (monotone) `sqrt` is `<= eps`, so
//! that *is* the sentence above with no `sqrt` per candidate. `SeqScan`
//! and `JoinScan(full)` differ from their abandoning twins only in *when*
//! the test runs: after the full sum instead of after every block.
//!
//! ## The cost model
//!
//! Statistics come from the R\*-tree itself ([`tsq_rtree::LevelStats`]):
//! per level, the node count and the average MBR side length in every
//! dimension, plus the root bounds and the relation's cardinality and
//! series length. Node accesses are predicted with the classic R-tree
//! expectation (Kamel & Faloutsos): a node at a level with average extents
//! `s_j` intersects a query rectangle with sides `q_j` inside data bounds
//! of extents `W_j` with probability `Π_j min(1, (s_j + q_j) / W_j)`.
//! Candidates (and so refine work) follow from the same volume ratio over
//! the stored points. Selectivity for a threshold query uses the *actual*
//! search rectangle of the query's feature point (the paper's Figure-7
//! construction), clipped against the root MBR.
//!
//! The unit of cost is one simulated page read. CPU work (exact distance
//! refines, per-node MBR transformation — the Figure 8/9 overhead) is
//! converted at [`POINT_OPS_PER_PAGE`] floating-point operations per page
//! read. A transformation's user-assigned Equation-10 cost
//! ([`LinearTransform::with_cost`], the `cost.rs` machinery) is folded in
//! as a planning surcharge per transformed traversal, so a user can
//! declare a transformation expensive and steer the planner away from
//! transform-heavy paths.
//!
//! ## Accounting
//!
//! Disk accesses match the reproduction benches, and are computed in two
//! places only: a scan charges one access per stored record
//! (`ExecStats::scan`); an index plan charges one per visited node plus
//! one per record fetched for an exact check (`ExecStats::index`).

use tsq_rtree::{LevelStats, RStarTree, Rect, SearchStats};
use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::index::{Match, Refine, SimilarityIndex};
use crate::queries::{probe_pairs, scan_pairs, JoinBound, JoinPair};
use crate::scan::ScanMode;
use crate::space::{QueryWindow, SpaceKind};
use crate::subseq::{SubseqConfig, SubseqIndex, SubseqMatch};
use crate::transform::LinearTransform;

/// Floating-point operations assumed equivalent to one simulated page
/// read when converting CPU work into cost units.
pub const POINT_OPS_PER_PAGE: f64 = 4096.0;

/// Fraction of a full distance computation an early-abandoning check is
/// assumed to cost on average (the paper reports roughly an order of
/// magnitude; we stay conservative).
const EARLY_ABANDON_FACTOR: f64 = 0.25;

/// What the query asks, with every name resolved: the immutable input to
/// planning and execution. Construction is the language layer's lowering
/// step (AST → `LogicalPlan`).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Range query: all stored series within `eps` of the query under `t`.
    Range {
        /// Relation searched (for display; the catalog resolves it).
        relation: String,
        /// Resolved query series.
        query: TimeSeries,
        /// Distance threshold.
        eps: f64,
        /// Composed data-side transformation.
        transform: LinearTransform,
        /// Optional mean/std filter window.
        window: QueryWindow,
    },
    /// Nearest-neighbor query: the `k` stored series closest to the query.
    Knn {
        /// Relation searched.
        relation: String,
        /// Resolved query series.
        query: TimeSeries,
        /// Number of neighbors.
        k: usize,
        /// Composed data-side transformation.
        transform: LinearTransform,
    },
    /// All-pairs self-join within `eps` under `t`.
    Join {
        /// Relation self-joined.
        relation: String,
        /// Distance threshold.
        eps: f64,
        /// Composed transformation (applied to both sides).
        transform: LinearTransform,
    },
    /// Subsequence range query over a sliding window of length `window`.
    SubseqRange {
        /// Relation searched.
        relation: String,
        /// Resolved query series (exactly `window` samples).
        query: TimeSeries,
        /// Distance threshold.
        eps: f64,
        /// Sliding-window length.
        window: usize,
    },
    /// K-nearest-subsequence query.
    SubseqKnn {
        /// Relation searched.
        relation: String,
        /// Resolved query series (exactly `window` samples).
        query: TimeSeries,
        /// Number of neighbors.
        k: usize,
        /// Sliding-window length.
        window: usize,
    },
}

impl LogicalPlan {
    /// The relation this plan runs against.
    pub fn relation(&self) -> &str {
        match self {
            LogicalPlan::Range { relation, .. }
            | LogicalPlan::Knn { relation, .. }
            | LogicalPlan::Join { relation, .. }
            | LogicalPlan::SubseqRange { relation, .. }
            | LogicalPlan::SubseqKnn { relation, .. } => relation,
        }
    }

    /// The sliding-window length for subsequence forms.
    pub fn subseq_window(&self) -> Option<usize> {
        match self {
            LogicalPlan::SubseqRange { window, .. } | LogicalPlan::SubseqKnn { window, .. } => {
                Some(*window)
            }
            _ => None,
        }
    }

    /// Whether the statement may carry `forced`: `scanfull` is a join
    /// method (Table 1) and names no operator of any other form.
    ///
    /// # Errors
    /// [`Error::Unsupported`] for a join-only force on a non-join form.
    pub fn check_force(&self, forced: Option<ForceOp>) -> Result<()> {
        match forced {
            Some(force @ ForceOp::ScanFull) if !matches!(self, LogicalPlan::Join { .. }) => {
                Err(Error::Unsupported(format!(
                    "force = {} applies only to JOIN queries",
                    force.name()
                )))
            }
            _ => Ok(()),
        }
    }
}

/// A statement bound to a relation — the output of Algorithm 2's
/// preprocessing step: the checked threshold (as the squared limit every
/// exact check is compared against) or `k`, the checked transformation,
/// and for forms with a query series its refine — features included —
/// and search rectangle. Binding is the one place a statement is validated
/// ([`SimilarityIndex::validate`] fixes the order) and the one place its
/// query is transformed to the frequency domain; the planner and the plan
/// executor only consume the result, so a sharded relation binds once and
/// hands the same `Bound` to every shard.
#[derive(Debug, Clone)]
pub(crate) enum Bound<'a> {
    /// A bound range query.
    Range {
        /// The query's features, transformation and limit.
        refine: Refine<'a>,
        /// The Figure-7 search rectangle around the features.
        rect: Rect,
        window: &'a QueryWindow,
    },
    /// A bound k-NN query.
    Knn {
        /// The query's features and transformation (no limit).
        refine: Refine<'a>,
        k: usize,
    },
    /// A bound self-join.
    Join(JoinBound<'a>),
    /// A bound subsequence range query.
    SubseqRange {
        query: &'a TimeSeries,
        eps: f64,
        window: usize,
    },
    /// A bound k-nearest-subsequence query.
    SubseqKnn {
        query: &'a TimeSeries,
        k: usize,
        window: usize,
    },
}

impl<'a> Bound<'a> {
    /// Binds `logical` to the relation `index` stands for: the index
    /// itself, or any non-empty shard of a uniform sharded relation (shards
    /// share one configuration and one series length).
    ///
    /// # Errors
    /// Every validation failure of the statement, in the one order:
    /// ragged relation, threshold, transformation, query length.
    pub(crate) fn new(logical: &'a LogicalPlan, index: &SimilarityIndex) -> Result<Self> {
        match logical {
            LogicalPlan::Range {
                query,
                eps,
                transform,
                window,
                ..
            } => {
                let refine = index.bind_query(query, Some(*eps), transform)?;
                let rect = index.probe_rect(&refine.query, *eps, window);
                Ok(Bound::Range {
                    refine,
                    rect,
                    window,
                })
            }
            LogicalPlan::Knn {
                query,
                k,
                transform,
                ..
            } => Ok(Bound::Knn {
                refine: index.bind_query(query, None, transform)?,
                k: *k,
            }),
            LogicalPlan::Join { eps, transform, .. } => {
                Ok(Bound::Join(index.bind_join(*eps, transform)?))
            }
            LogicalPlan::SubseqRange {
                query, eps, window, ..
            } => {
                Error::check_threshold(*eps)?;
                check_window(query, *window)?;
                Ok(Bound::SubseqRange {
                    query,
                    eps: *eps,
                    window: *window,
                })
            }
            LogicalPlan::SubseqKnn {
                query, k, window, ..
            } => {
                check_window(query, *window)?;
                Ok(Bound::SubseqKnn {
                    query,
                    k: *k,
                    window: *window,
                })
            }
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Bound::Range { .. } => "Range",
            Bound::Knn { .. } => "Knn",
            Bound::Join(_) => "Join",
            Bound::SubseqRange { .. } => "SubseqRange",
            Bound::SubseqKnn { .. } => "SubseqKnn",
        }
    }
}

/// A subsequence query must be exactly one window long.
fn check_window(query: &TimeSeries, window: usize) -> Result<()> {
    if query.len() != window {
        return Err(Error::LengthMismatch {
            expected: window,
            got: query.len(),
        });
    }
    Ok(())
}

/// A physical operator: one concrete access path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhysicalOp {
    /// Sequential scan with full distance computations.
    SeqScan,
    /// Sequential scan with early-abandoning distance computations.
    EarlyAbandonScan,
    /// R\*-tree filter-and-refine range traversal (Algorithm 2).
    IndexRange,
    /// Best-first nearest-neighbor traversal with transformed MBR bounds.
    IndexKnn,
    /// All-pairs sequential scan join.
    JoinScan {
        /// Whether distance computations may abandon early.
        mode: ScanMode,
    },
    /// Index-nested-loop join: one transformed range probe per series.
    JoinIndex {
        /// Canonicalize to one row per unordered pair (planner default;
        /// `false` preserves the paper's twice-per-pair accounting for
        /// `WITH (force = index)`).
        dedup: bool,
    },
    /// ST-index trail probe (range or k-NN over sliding windows).
    SubseqIndexProbe {
        /// K-nearest form (`false` = range form).
        knn: bool,
        /// Whether the relation held the window's ST-index at planning
        /// time (a cold probe pays the trail-extraction build first).
        cached: bool,
    },
}

impl PhysicalOp {
    /// Stable display name (used by EXPLAIN and the shell).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::SeqScan => "SeqScan",
            PhysicalOp::EarlyAbandonScan => "EarlyAbandonScan",
            PhysicalOp::IndexRange => "IndexRange",
            PhysicalOp::IndexKnn => "IndexKnn",
            PhysicalOp::JoinScan {
                mode: ScanMode::Naive,
            } => "JoinScan(full)",
            PhysicalOp::JoinScan {
                mode: ScanMode::EarlyAbandon,
            } => "JoinScan",
            PhysicalOp::JoinIndex { .. } => "JoinIndex",
            PhysicalOp::SubseqIndexProbe { .. } => "SubseqIndexProbe",
        }
    }
}

/// Predicted effort of one physical operator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Predicted R\*-tree node visits (0 for scans).
    pub nodes: f64,
    /// Predicted index-level candidates (records the filter step emits).
    pub candidates: f64,
    /// Predicted exact distance computations.
    pub refines: f64,
    /// Predicted simulated disk accesses (nodes + record fetches; a scan
    /// charges one access per stored record).
    pub disk: f64,
    /// Predicted CPU cost in page-read units (see [`POINT_OPS_PER_PAGE`]).
    pub cpu: f64,
}

impl CostEstimate {
    /// Total cost in page-read units — what the planner minimizes.
    pub fn total(&self) -> f64 {
        self.disk + self.cpu
    }

    /// The estimate of a filter-and-refine operator: every candidate is
    /// fetched and refined, so disk is nodes plus candidates.
    fn filter_refine(nodes: f64, candidates: f64, cpu: f64) -> Self {
        CostEstimate {
            nodes,
            candidates,
            refines: candidates,
            disk: nodes + candidates,
            cpu,
        }
    }
}

/// The planner's decision: a chosen operator with its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The access path to run.
    pub op: PhysicalOp,
    /// Its predicted cost.
    pub estimate: CostEstimate,
    /// True when the statement's `WITH (force = ...)` picked the operator
    /// instead of the cost comparison.
    pub forced: bool,
}

/// A planning outcome: the chosen plan plus every alternative considered
/// (operator name and estimate, in enumeration order) for EXPLAIN.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// The plan the executor will run.
    pub plan: PhysicalPlan,
    /// All candidates costed, chosen one included.
    pub considered: Vec<(&'static str, CostEstimate)>,
}

/// An access path a query's `WITH (force = ...)` clause may pin. `Scan`
/// and `Index` apply to every query form; `ScanFull` is Table 1's
/// join-only method (a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceOp {
    /// Sequential-scan family (early-abandoning where possible).
    Scan,
    /// Sequential scan with full distances (joins only).
    ScanFull,
    /// Index family.
    Index,
}

impl ForceOp {
    /// The `WITH (force = ...)` spelling.
    pub fn name(self) -> &'static str {
        match self {
            ForceOp::Scan => "scan",
            ForceOp::ScanFull => "scanfull",
            ForceOp::Index => "index",
        }
    }
}

/// The unified query-override surface: one struct carries everything a
/// query may tune about its own execution — the access-path force, the worker
/// thread count, and the scatter width over a sharded relation. Parsed
/// from the language's `WITH (force = scan|index, threads = n,
/// shards = n)` clause and threaded AST → planner → wire → HTTP JSON.
///
/// `None` everywhere means "engine defaults"; [`QueryOptions::default`]
/// is exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryOptions {
    /// Pin the access path instead of costing alternatives.
    pub force: Option<ForceOp>,
    /// Worker threads: how many statements of a batch, and how many
    /// shards of one statement (the scatter width), run at once
    /// (`0`/`None` = the executor's hardware default).
    pub threads: Option<usize>,
    /// Cap on concurrently probed shards of a sharded relation (ignored
    /// on unsharded relations; `None` = probe all shards concurrently).
    pub shards: Option<usize>,
}

impl QueryOptions {
    /// True when every field is the engine default.
    pub fn is_default(&self) -> bool {
        *self == QueryOptions::default()
    }

    /// Field-wise overlay: any field set in `over` wins over `self`.
    pub fn merged(&self, over: &QueryOptions) -> QueryOptions {
        QueryOptions {
            force: over.force.or(self.force),
            threads: over.threads.or(self.threads),
            shards: over.shards.or(self.shards),
        }
    }
}

/// Shape statistics of one indexed point population: the root bounds and
/// per-level node profile the cost model consumes. Deterministic given
/// the tree structure, so a snapshot-restored index profiles identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpaceProfile {
    /// Points (whole series, or sliding windows) indexed.
    pub population: u64,
    /// Root MBR lower corner (empty when the tree is empty).
    pub bounds_lo: Vec<f64>,
    /// Root MBR upper corner.
    pub bounds_hi: Vec<f64>,
    /// Per-level node statistics, leaf level first, root last.
    pub levels: Vec<LevelStats>,
}

impl SpaceProfile {
    /// Profiles a built tree; `population` is the logical point count the
    /// caller indexes (tree items for whole-series indexes, total windows
    /// for trail-compressed ST-indexes).
    pub fn of_tree<T>(tree: &RStarTree<T>, population: u64) -> Self {
        let (bounds_lo, bounds_hi) = match tree.bounds() {
            Some(b) => (b.lo().to_vec(), b.hi().to_vec()),
            None => (Vec::new(), Vec::new()),
        };
        SpaceProfile {
            population,
            bounds_lo,
            bounds_hi,
            levels: tree.level_profile(),
        }
    }

    /// Total tree nodes.
    pub fn nodes_total(&self) -> u64 {
        self.levels.iter().map(|l| l.nodes).sum()
    }

    /// Data extent in dimension `d` (0 for an empty profile).
    fn extent(&self, d: usize) -> f64 {
        if d < self.bounds_lo.len() {
            self.bounds_hi[d] - self.bounds_lo[d]
        } else {
            0.0
        }
    }

    /// Probability that a uniformly placed box of per-dimension `sides`
    /// (`f64::INFINITY` = unconstrained; clipped to the data extent),
    /// grown by `grow(d)` in every dimension — the Minkowski sum with a
    /// node's extent — covers a point of the data bounds.
    fn overlap(&self, sides: &[f64], grow: impl Fn(usize) -> f64) -> f64 {
        let mut p = 1.0f64;
        for d in 0..self.bounds_lo.len() {
            let w = self.extent(d);
            if w <= 0.0 {
                continue;
            }
            let q = sides.get(d).copied().unwrap_or(f64::INFINITY).min(w);
            p *= ((grow(d) + q) / w).clamp(0.0, 1.0);
        }
        p
    }

    /// Expected `(node visits, point-selectivity fraction)` for a query
    /// rectangle given by per-dimension sides (Kamel & Faloutsos: a node
    /// is read when the rectangle grown by the node's average extent
    /// covers it). The root is always visited.
    pub fn visit_estimate(&self, sides: &[f64]) -> (f64, f64) {
        let Some((_root, below)) = self.levels.split_last() else {
            return (0.0, 0.0);
        };
        let nodes: f64 = below
            .iter()
            .map(|level| {
                let p = self.overlap(sides, |d| level.avg_extent.get(d).copied().unwrap_or(0.0));
                (level.nodes as f64 * p).min(level.nodes as f64)
            })
            .sum();
        (nodes + 1.0, self.overlap(sides, |_| 0.0))
    }
}

/// Per-shard statistics the planner consumes — derived with the shard's
/// whole-match tree, by the one function that packs it, whenever the index
/// is built, restored or first read after an append. They depend only on
/// the tree, which is a pure function of the series, so a restored catalog
/// plans byte-for-byte identically without persisting them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelationStats {
    /// Stored series.
    pub cardinality: usize,
    /// Length of every stored series.
    pub series_len: usize,
    /// Feature-space dimensionality of the whole-match index.
    pub dims: usize,
    /// Shape of the whole-match R\*-tree.
    pub profile: SpaceProfile,
}

impl RelationStats {
    /// The statistics of a whole-match index: a copy of the ones it holds
    /// next to its tree (packing both first if an append emptied them).
    pub fn from_index(index: &SimilarityIndex) -> Self {
        index.stats().clone()
    }

    /// Height of the profiled tree.
    pub fn height(&self) -> u32 {
        self.profile.levels.len() as u32
    }
}

/// One operator a planner costed for a statement: the operator, its
/// estimate, and the `WITH (force = ...)` value that pins it (`None`:
/// listed for `EXPLAIN`, named by no force).
type Costed = (PhysicalOp, CostEstimate, Option<ForceOp>);

/// The one place an operator is chosen: the candidate `forced` pins,
/// else the cheapest (the first listed wins a tie). A force that pins no
/// candidate — a family force on a subsequence form, which has one
/// operator — leaves the choice to cost, unforced.
fn choose(costed: Vec<Costed>, forced: Option<ForceOp>) -> PlanChoice {
    let pinned = forced.and_then(|force| costed.iter().find(|c| c.2 == Some(force)));
    let &(op, estimate, _) = pinned.unwrap_or_else(|| {
        costed
            .iter()
            .reduce(|best, c| {
                if c.1.total() < best.1.total() {
                    c
                } else {
                    best
                }
            })
            .expect("every form has an operator")
    });
    let forced = pinned.is_some();
    // A forced join keeps its method's historical answer multiplicity
    // (the index join reports each pair twice, scans once); a planned
    // one is canonicalized to one row per unordered pair, so the
    // planner's choice can never change the answer.
    let op = match op {
        PhysicalOp::JoinIndex { .. } => PhysicalOp::JoinIndex { dedup: !forced },
        other => other,
    };
    PlanChoice {
        plan: PhysicalPlan {
            op,
            estimate,
            forced,
        },
        considered: costed.iter().map(|c| (c.0.name(), c.1)).collect(),
    }
}

/// The cost-based planner: statistics plus the index whose configuration
/// (feature schema, coordinate space) shapes search rectangles.
#[derive(Debug, Clone, Copy)]
pub struct Planner<'a> {
    index: &'a SimilarityIndex,
    /// `None`: the index's own, read when an operator is first costed
    /// from them — which a subsequence form never does.
    stats: Option<&'a RelationStats>,
}

impl<'a> Planner<'a> {
    /// A planner over one relation's index and statistics.
    pub fn new(index: &'a SimilarityIndex, stats: &'a RelationStats) -> Self {
        let stats = Some(stats);
        Planner { index, stats }
    }

    /// A planner over an index and the statistics it holds itself.
    pub(crate) fn of(index: &'a SimilarityIndex) -> Self {
        Planner { index, stats: None }
    }

    fn stats(&self) -> &'a RelationStats {
        self.stats.unwrap_or_else(|| self.index.stats())
    }

    /// Picks the physical plan for `logical`: the operator `forced` names,
    /// else the cheapest. `subseq` is the window's ST-index for
    /// subsequence forms, if the relation holds one — planning never
    /// builds one (EXPLAIN must not execute anything).
    ///
    /// # Errors
    /// A join-only force on another form, then the same validation
    /// failures execution would report, in the same order: the statement
    /// is bound first, exactly as [`execute_plan`] binds it.
    pub fn plan(
        &self,
        logical: &LogicalPlan,
        forced: Option<ForceOp>,
        subseq: Option<&SubseqIndex>,
    ) -> Result<PlanChoice> {
        logical.check_force(forced)?;
        Ok(self.plan_bound(&Bound::new(logical, self.index)?, forced, subseq))
    }

    /// Costs the operators of a bound statement and chooses one.
    /// Infallible: everything that can be wrong with a statement was
    /// found when it was bound.
    pub(crate) fn plan_bound(
        &self,
        bound: &Bound<'_>,
        forced: Option<ForceOp>,
        subseq: Option<&SubseqIndex>,
    ) -> PlanChoice {
        let costed = match *bound {
            Bound::Range {
                ref refine,
                ref rect,
                ..
            } => self.plan_range(rect, refine.transform),
            Bound::Knn { ref refine, k } => self.plan_knn(k, refine.transform),
            Bound::Join(join) => self.plan_join(join.eps, join.transform),
            Bound::SubseqRange { eps, window, .. } => {
                self.plan_subseq(Some(eps), None, window, subseq)
            }
            Bound::SubseqKnn { k, window, .. } => self.plan_subseq(None, Some(k), window, subseq),
        };
        choose(costed, forced)
    }

    /// CPU cost (in page units) of `checks` exact distance computations.
    fn refine_cpu(&self, checks: f64, transformed: bool) -> f64 {
        let ops_per_check = self.stats().series_len as f64 * if transformed { 2.0 } else { 1.0 };
        checks * ops_per_check / POINT_OPS_PER_PAGE
    }

    /// CPU surcharge of transforming `nodes` MBRs on the fly (Figure 8/9's
    /// overhead) plus the transformation's user-assigned Equation-10 cost.
    fn traversal_cpu(&self, nodes: f64, t: &LinearTransform) -> f64 {
        if t.is_identity(1e-12) {
            return 0.0;
        }
        nodes * (self.stats().dims as f64 * 8.0) / POINT_OPS_PER_PAGE + t.cost()
    }

    /// A scan reads every stored record once and runs `checks` exact
    /// distance computations over them (one per record for a query, one
    /// per pair for a join).
    fn scan_estimate(&self, mode: ScanMode, checks: f64, transformed: bool) -> CostEstimate {
        let factor = match mode {
            ScanMode::Naive => 1.0,
            ScanMode::EarlyAbandon => EARLY_ABANDON_FACTOR,
        };
        CostEstimate {
            nodes: 0.0,
            candidates: checks,
            refines: checks,
            disk: self.stats().cardinality as f64,
            cpu: self.refine_cpu(checks, transformed) * factor,
        }
    }

    fn index_range_estimate(&self, sides: &[f64], t: &LinearTransform) -> CostEstimate {
        let (nodes, frac) = self.stats().profile.visit_estimate(sides);
        let candidates = self.stats().cardinality as f64 * frac;
        let cpu = self.refine_cpu(candidates, !t.is_identity(1e-12)) + self.traversal_cpu(nodes, t);
        CostEstimate::filter_refine(nodes, candidates, cpu)
    }

    fn plan_range(&self, qrect: &Rect, t: &LinearTransform) -> Vec<Costed> {
        let n = self.stats().cardinality as f64;
        let scan = |mode| self.scan_estimate(mode, n, !t.is_identity(1e-12));
        vec![
            (
                PhysicalOp::IndexRange,
                self.index_range_estimate(&rect_sides(qrect), t),
                Some(ForceOp::Index),
            ),
            (
                PhysicalOp::EarlyAbandonScan,
                scan(ScanMode::EarlyAbandon),
                Some(ForceOp::Scan),
            ),
            (PhysicalOp::SeqScan, scan(ScanMode::Naive), None),
        ]
    }

    fn plan_knn(&self, k: usize, t: &LinearTransform) -> Vec<Costed> {
        let n = self.stats().cardinality;
        let transformed = !t.is_identity(1e-12);
        // Equivalent-radius heuristic: the rectangle enclosing the k
        // nearest points covers about a k/n volume fraction of the data
        // bounds, so each side scales by (k/n)^(1/dims).
        let sides: Vec<f64> = if n == 0 {
            vec![0.0; self.stats().dims]
        } else {
            let frac = (k as f64 / n as f64).min(1.0);
            let scale = frac.powf(1.0 / self.stats().dims.max(1) as f64);
            (0..self.stats().dims)
                .map(|d| self.stats().profile.extent(d) * scale)
                .collect()
        };
        let (nodes, frac) = self.stats().profile.visit_estimate(&sides);
        // Best-first search refines a small multiple of the answer set.
        let refines = (2.0 * (k as f64).max(n as f64 * frac)).min(n as f64);
        let cpu = self.refine_cpu(refines, transformed) + self.traversal_cpu(nodes, t);
        let index_est = CostEstimate::filter_refine(nodes, refines, cpu);
        vec![
            (PhysicalOp::IndexKnn, index_est, Some(ForceOp::Index)),
            (
                PhysicalOp::SeqScan,
                self.scan_estimate(ScanMode::Naive, n as f64, transformed),
                Some(ForceOp::Scan),
            ),
        ]
    }

    fn plan_join(&self, eps: f64, t: &LinearTransform) -> Vec<Costed> {
        let n = self.stats().cardinality as f64;
        let pairs = n * (n - 1.0).max(0.0) / 2.0;
        let transformed = !t.is_identity(1e-12);
        // An average probe: the eps-ball search rectangle around a typical
        // feature point (the center of the data bounds), with the mean/std
        // filter dimensions unconstrained.
        let sides = self.eps_probe_sides(eps);
        let per_probe = self.index_range_estimate(&sides, t);
        let join_index = CostEstimate {
            nodes: n * per_probe.nodes,
            candidates: n * per_probe.candidates,
            refines: n * per_probe.refines,
            disk: n * per_probe.disk,
            cpu: n * per_probe.cpu,
        };
        let scan = |mode, force| {
            let estimate = self.scan_estimate(mode, pairs, transformed);
            (PhysicalOp::JoinScan { mode }, estimate, Some(force))
        };
        vec![
            (
                PhysicalOp::JoinIndex { dedup: true },
                join_index,
                Some(ForceOp::Index),
            ),
            scan(ScanMode::EarlyAbandon, ForceOp::Scan),
            scan(ScanMode::Naive, ForceOp::ScanFull),
        ]
    }

    /// Per-dimension sides of an average eps-ball search rectangle: the
    /// Figure-7 block around the center of the data bounds, mean/std
    /// filter dimensions unconstrained.
    fn eps_probe_sides(&self, eps: f64) -> Vec<f64> {
        let config = self.index.config();
        let aux = config.schema.aux_dims();
        let mut sides = vec![f64::INFINITY; aux];
        let mut d = aux;
        while d < self.stats().dims {
            match config.space {
                SpaceKind::Rectangular => {
                    sides.push(2.0 * eps);
                    sides.push(2.0 * eps);
                }
                SpaceKind::Polar => {
                    // Magnitude dimension, then angle dimension.
                    sides.push(2.0 * eps);
                    let lo = if d < self.stats().profile.bounds_lo.len() {
                        self.stats().profile.bounds_lo[d]
                    } else {
                        0.0
                    };
                    let mag_center = (lo + self.stats().profile.extent(d) / 2.0).max(1e-9);
                    let angle_side = if eps >= mag_center {
                        2.0 * std::f64::consts::PI
                    } else {
                        2.0 * (eps / mag_center).asin()
                    };
                    sides.push(angle_side);
                }
            }
            d += 2;
        }
        sides
    }

    /// Costs the one subsequence operator from the ST-index's own profile
    /// (or, cold, from the relation's size): the whole-match tree and its
    /// statistics are not read, so an executed subsequence statement never
    /// packs them.
    fn plan_subseq(
        &self,
        eps: Option<f64>,
        k: Option<usize>,
        window: usize,
        subseq: Option<&SubseqIndex>,
    ) -> Vec<Costed> {
        let config = match subseq {
            Some(idx) => *idx.config(),
            None => SubseqConfig::new(window),
        };
        let dims = 2 * config.k.min(window);
        let windows_per_series = (self.index.series_len() + 1).saturating_sub(window);
        let windows_total = match subseq {
            Some(idx) => idx.windows_total() as f64,
            None => (self.index.len() * windows_per_series) as f64,
        };
        let refine_cpu = |candidates: f64| candidates * window as f64 / POINT_OPS_PER_PAGE;
        let estimate = match subseq {
            Some(idx) => {
                let profile = idx.profile();
                // The ST-index query rectangle is a cube of side 2 eps in
                // the window-feature space; k-NN uses the
                // equivalent-radius heuristic.
                let sides: Vec<f64> = match (eps, k) {
                    (Some(eps), _) => vec![2.0 * eps; dims],
                    (None, k) => {
                        let frac = if windows_total > 0.0 {
                            (k.unwrap_or(0) as f64 / windows_total).min(1.0)
                        } else {
                            0.0
                        };
                        let scale = frac.powf(1.0 / dims.max(1) as f64);
                        (0..dims).map(|d| profile.extent(d) * scale).collect()
                    }
                };
                let (nodes, frac) = profile.visit_estimate(&sides);
                let candidates = windows_total * frac;
                CostEstimate::filter_refine(nodes, candidates, refine_cpu(candidates))
            }
            None => {
                // Cold probe: coarse estimate (no tree to profile yet) plus
                // the sliding-DFT build the executor will run first.
                let trails = (windows_total / config.trail as f64).ceil();
                let fanout = config.rtree.max_entries.max(2) as f64;
                let mut level_nodes = (trails / fanout).ceil().max(1.0);
                let mut nodes = 0.0;
                while level_nodes > 1.0 {
                    nodes += level_nodes;
                    level_nodes = (level_nodes / fanout).ceil();
                }
                nodes += 1.0;
                let candidates = (windows_total * 0.05).max(1.0).min(windows_total);
                let build_cpu = windows_total * window as f64 / POINT_OPS_PER_PAGE;
                CostEstimate::filter_refine(nodes, candidates, refine_cpu(candidates) + build_cpu)
            }
        };
        let op = PhysicalOp::SubseqIndexProbe {
            knn: k.is_some(),
            cached: subseq.is_some(),
        };
        vec![(op, estimate, None)]
    }
}

/// Side lengths of a search rectangle, with the unbounded filter
/// dimensions (|bound| ≥ 1e17) reported as infinite.
fn rect_sides(rect: &Rect) -> Vec<f64> {
    rect.lo()
        .iter()
        .zip(rect.hi())
        .map(|(lo, hi)| {
            if *lo <= -1e17 || *hi >= 1e17 {
                f64::INFINITY
            } else {
                hi - lo
            }
        })
        .collect()
}

/// Counters actually observed while running a plan. `disk_accesses`
/// follows the bench accounting: scans charge one access per stored
/// record, index plans one per visited node plus one per candidate fetch.
/// `pool_hits`/`pool_misses` are *measured* buffer-pool counters — real
/// page fetches, not arithmetic — and stay zero unless the relation has
/// paged storage attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Index-level candidates produced (scans: records compared).
    pub candidates: usize,
    /// Exact distance computations performed.
    pub refined: usize,
    /// Refined candidates rejected by the exact check.
    pub false_hits: usize,
    /// R\*-tree nodes visited (0 for scans).
    pub nodes_visited: u64,
    /// Simulated disk accesses of the whole plan.
    pub disk_accesses: u64,
    /// Measured buffer-pool hits (paged storage only; 0 in memory).
    pub pool_hits: u64,
    /// Measured buffer-pool misses, i.e. actual page reads (paged
    /// storage only; 0 in memory).
    pub pool_misses: u64,
}

impl ExecStats {
    /// The accounting of an index plan: one disk access per visited node
    /// plus one per record fetched for an exact check.
    pub(crate) fn index(
        search: &SearchStats,
        candidates: usize,
        refined: usize,
        false_hits: usize,
    ) -> Self {
        ExecStats {
            candidates,
            refined,
            false_hits,
            nodes_visited: search.nodes_visited,
            disk_accesses: search.nodes_visited + refined as u64,
            pool_hits: search.pool_hits,
            pool_misses: search.pool_misses,
        }
    }

    /// The accounting of a scan: one disk access per record read off the
    /// `stored` relation; each of the `compared` records is a candidate
    /// and an exact check, and all but the `rows` answers are false hits.
    pub(crate) fn scan(stored: usize, compared: usize, rows: usize) -> Self {
        ExecStats {
            candidates: compared,
            refined: compared,
            false_hits: compared - rows,
            disk_accesses: stored as u64,
            ..ExecStats::default()
        }
    }

    /// Adds every counter of `other` into `self` — the scatter-gather
    /// merge rule: the merged stats of a sharded execution are the exact
    /// sum of the per-shard counters, buffer-pool traffic included.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.candidates += other.candidates;
        self.refined += other.refined;
        self.false_hits += other.false_hits;
        self.nodes_visited += other.nodes_visited;
        self.disk_accesses += other.disk_accesses;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }

    /// Exact sum of a slice of per-shard stats.
    pub fn sum(parts: &[ExecStats]) -> ExecStats {
        let mut total = ExecStats::default();
        for p in parts {
            total.absorb(p);
        }
        total
    }
}

/// Typed answer rows of a plan execution, before the language layer
/// attaches labels.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanRows {
    /// Whole-series matches (range and k-NN forms).
    Whole(Vec<Match>),
    /// Join pairs.
    Pairs(Vec<JoinPair>),
    /// Subsequence window matches.
    Windows(Vec<SubseqMatch>),
}

impl PlanRows {
    /// Number of answer rows.
    pub fn len(&self) -> usize {
        match self {
            PlanRows::Whole(v) => v.len(),
            PlanRows::Pairs(v) => v.len(),
            PlanRows::Windows(v) => v.len(),
        }
    }

    /// True when the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Executes a physical plan — the single dispatch point between planned
/// queries and the engine. `subseq` must be provided for subsequence
/// plans (a [`crate::ShardedIndex`] builds or fetches its own).
///
/// # Errors
/// The statement's validation failures (it is bound first, exactly as
/// [`Planner::plan`] binds it), engine failures, or
/// [`Error::Unsupported`] when the plan does not fit the logical query
/// (never produced by the [`Planner`]).
pub fn execute_plan(
    logical: &LogicalPlan,
    plan: &PhysicalPlan,
    index: &SimilarityIndex,
    subseq: Option<&SubseqIndex>,
) -> Result<(PlanRows, ExecStats)> {
    execute_bound(&Bound::new(logical, index)?, plan, index, subseq)
}

/// Runs a physical plan for a bound statement against one index — a
/// relation, or one shard of the relation the statement was bound to:
/// the dispatch on `(statement form, operator)` into the operator table
/// (module docs). No query is validated or transformed to the frequency
/// domain here.
pub(crate) fn execute_bound(
    bound: &Bound<'_>,
    plan: &PhysicalPlan,
    index: &SimilarityIndex,
    subseq: Option<&SubseqIndex>,
) -> Result<(PlanRows, ExecStats)> {
    let n = index.len();
    let st_index = || {
        subseq.ok_or_else(|| {
            Error::Unsupported("subsequence plan executed without an ST-index".to_string())
        })
    };
    Ok(match (bound, plan.op) {
        (Bound::Range { refine, rect, .. }, PhysicalOp::IndexRange) => {
            let (matches, stats) = index.range_bound(refine, rect, false)?;
            let exec = ExecStats::index(
                &stats.index,
                stats.candidates,
                stats.exact_checks,
                stats.false_hits,
            );
            (PlanRows::Whole(matches), exec)
        }
        (
            Bound::Range { refine, window, .. },
            PhysicalOp::SeqScan | PhysicalOp::EarlyAbandonScan,
        ) => {
            let mode = match plan.op {
                PhysicalOp::SeqScan => ScanMode::Naive,
                _ => ScanMode::EarlyAbandon,
            };
            let (matches, stats) = index.scan_range_features(refine, window, mode);
            let exec = ExecStats::scan(n, stats.scanned, matches.len());
            (PlanRows::Whole(matches), exec)
        }
        (Bound::Knn { refine, k }, PhysicalOp::IndexKnn) => {
            let (matches, stats) = index.knn_bound(refine, *k)?;
            let exec = ExecStats::index(&stats.index, stats.candidates, stats.exact_checks, 0);
            (PlanRows::Whole(matches), exec)
        }
        (Bound::Knn { refine, k }, PhysicalOp::SeqScan) => {
            let matches = index.scan_knn_features(refine, *k);
            let exec = ExecStats::scan(n, n, matches.len());
            (PlanRows::Whole(matches), exec)
        }
        (Bound::Join(join), PhysicalOp::JoinScan { .. } | PhysicalOp::JoinIndex { .. }) => {
            let (mut pairs, exec) = run_join(plan.op, index, index, *join)?;
            if let PhysicalOp::JoinIndex { dedup: true } = plan.op {
                // Canonical answer: one row per unordered pair, `a < b`,
                // sorted — identical to the scan strategies' output keys.
                pairs.retain(|p| p.a < p.b);
                pairs.sort_by_key(|p| (p.a, p.b));
            }
            (PlanRows::Pairs(pairs), exec)
        }
        (
            Bound::SubseqRange { query, eps, .. },
            PhysicalOp::SubseqIndexProbe { knn: false, .. },
        ) => {
            let (matches, stats) = st_index()?.subseq_range(query, *eps)?;
            (PlanRows::Windows(matches), subseq_exec(&stats))
        }
        (Bound::SubseqKnn { query, k, .. }, PhysicalOp::SubseqIndexProbe { knn: true, .. }) => {
            let (matches, stats) = st_index()?.subseq_knn(query, *k)?;
            (PlanRows::Windows(matches), subseq_exec(&stats))
        }
        _ => {
            return Err(Error::Unsupported(format!(
                "physical operator {} does not implement logical form {}",
                plan.op.name(),
                bound.label()
            )))
        }
    })
}

/// The join rows of the operator table, over a probe side and a partner
/// side: a self-join when both are the same index, one ordered pair of
/// shards in a sharded relation's cross stage otherwise. Pairs are
/// `(probe id, partner id)` in the method's own multiplicity and order.
pub(crate) fn run_join(
    op: PhysicalOp,
    probe: &SimilarityIndex,
    partner: &SimilarityIndex,
    join: JoinBound<'_>,
) -> Result<(Vec<JoinPair>, ExecStats)> {
    let own = std::ptr::eq(probe, partner);
    let outcome = match op {
        PhysicalOp::JoinScan { mode } => {
            let outcome = scan_pairs(probe, partner, join, mode);
            // A self-join reads its relation once; the records a cross
            // stage compares were charged by their shards' self-joins.
            let stored = if own { probe.len() } else { 0 };
            let exec = ExecStats::scan(stored, outcome.stats.exact_checks, outcome.pairs.len());
            return Ok((outcome.pairs, exec));
        }
        PhysicalOp::JoinIndex { .. } => probe_pairs(probe, partner, join)?,
        _ => {
            return Err(Error::Unsupported(format!(
                "physical operator {} does not join two relations",
                op.name()
            )))
        }
    };
    // False hits are the refines the exact check rejected — the abandon
    // counter, not `refined - rows`: a self-join probe's own series is a
    // candidate that *passes* the check yet is never emitted as a pair.
    let exec = ExecStats::index(
        &outcome.stats.index,
        outcome.stats.candidates,
        outcome.stats.exact_checks,
        outcome.stats.abandoned,
    );
    Ok((outcome.pairs, exec))
}

fn subseq_exec(stats: &crate::subseq::SubseqStats) -> ExecStats {
    ExecStats::index(
        &stats.index,
        stats.candidates,
        stats.candidates,
        stats.false_hits,
    )
}

fn fmt_est(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v:.1}")
    }
}

/// Renders a chosen plan as the `EXPLAIN` tree: the logical form, the
/// relation's statistics line, the chosen operator with its estimates,
/// and every alternative considered. Append actual counters (the
/// `EXPLAIN ANALYZE` form) via [`render_analyze`].
pub fn render_plan(logical: &LogicalPlan, choice: &PlanChoice, stats: &RelationStats) -> String {
    let mut out = String::new();
    let header = match logical {
        LogicalPlan::Range {
            relation,
            eps,
            transform,
            window,
            ..
        } => {
            let filter = match (window.mean, window.std) {
                (None, None) => String::new(),
                (mean, std) => {
                    let mut parts = Vec::new();
                    if let Some((lo, hi)) = mean {
                        parts.push(format!("mean in [{lo}, {hi}]"));
                    }
                    if let Some((lo, hi)) = std {
                        parts.push(format!("std in [{lo}, {hi}]"));
                    }
                    format!(", where {}", parts.join(" and "))
                }
            };
            format!(
                "Range on \"{relation}\": eps={eps}, transform={}{filter}",
                transform.name()
            )
        }
        LogicalPlan::Knn {
            relation,
            k,
            transform,
            ..
        } => format!(
            "Knn on \"{relation}\": k={k}, transform={}",
            transform.name()
        ),
        LogicalPlan::Join {
            relation,
            eps,
            transform,
        } => {
            // A forced join names its method in the header.
            let using = match choice.plan.op {
                _ if !choice.plan.forced => "",
                PhysicalOp::JoinScan {
                    mode: ScanMode::Naive,
                } => ", using SCANFULL",
                PhysicalOp::JoinScan { .. } => ", using SCAN",
                PhysicalOp::JoinIndex { .. } => ", using INDEX",
                _ => "",
            };
            format!(
                "Join on \"{relation}\": eps={eps}, transform={}{using}",
                transform.name()
            )
        }
        LogicalPlan::SubseqRange {
            relation,
            eps,
            window,
            ..
        } => format!("SubseqRange on \"{relation}\": eps={eps}, window={window}"),
        LogicalPlan::SubseqKnn {
            relation,
            k,
            window,
            ..
        } => format!("SubseqKnn on \"{relation}\": k={k}, window={window}"),
    };
    out.push_str(&header);
    out.push('\n');
    out.push_str(&format!(
        "  relation: {} series x {} points; index: {}-d R*-tree, height {}, {} node(s)\n",
        stats.cardinality,
        stats.series_len,
        stats.dims,
        stats.height(),
        stats.profile.nodes_total(),
    ));
    let plan = &choice.plan;
    let mode = if plan.forced { " [forced]" } else { "" };
    let extra = match plan.op {
        PhysicalOp::SubseqIndexProbe { cached, .. } if !cached => " [cold: builds ST-index]",
        _ => "",
    };
    out.push_str(&format!(
        "  => {}{mode}{extra}  (cost {}: disk {}, cpu {}; nodes {}, candidates {}, refines {})\n",
        plan.op.name(),
        fmt_est(plan.estimate.total()),
        fmt_est(plan.estimate.disk),
        fmt_est(plan.estimate.cpu),
        fmt_est(plan.estimate.nodes),
        fmt_est(plan.estimate.candidates),
        fmt_est(plan.estimate.refines),
    ));
    let alts: Vec<String> = choice
        .considered
        .iter()
        .map(|(name, est)| format!("{name} {}", fmt_est(est.total())))
        .collect();
    out.push_str(&format!("     considered: {}\n", alts.join(" | ")));
    out
}

/// Appends the `EXPLAIN ANALYZE` actual-counter line to a rendered plan.
/// The counters are exactly the [`ExecStats`] the execution returned.
/// When the relation runs on paged storage a second line reports the
/// *measured* buffer-pool traffic next to the `disk` paper-accounting
/// estimate; in-memory plans render byte-identically to before.
pub fn render_analyze(rendered: &mut String, rows: usize, stats: &ExecStats) {
    rendered.push_str(&format!(
        "     actual: rows={rows}, nodes={}, candidates={}, refined={}, false_hits={}, disk={}\n",
        stats.nodes_visited, stats.candidates, stats.refined, stats.false_hits, stats.disk_accesses,
    ));
    if stats.pool_hits + stats.pool_misses > 0 {
        rendered.push_str(&format!(
            "     measured: pool_hits={}, pool_misses={}\n",
            stats.pool_hits, stats.pool_misses,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use tsq_series::generate::RandomWalkGenerator;

    fn index(count: usize, len: usize, seed: u64) -> SimilarityIndex {
        let rel = RandomWalkGenerator::new(seed).relation(count, len);
        SimilarityIndex::build(IndexConfig::default(), rel).unwrap()
    }

    fn idx_series(idx: &SimilarityIndex) -> Vec<TimeSeries> {
        idx.entries().iter().map(|s| s.series.clone()).collect()
    }

    fn range_logical(idx: &SimilarityIndex, qid: usize, eps: f64) -> LogicalPlan {
        LogicalPlan::Range {
            relation: "r".into(),
            query: idx.series(qid).unwrap().clone(),
            eps,
            transform: LinearTransform::identity(idx.series_len()),
            window: QueryWindow::default(),
        }
    }

    #[test]
    fn relation_stats_deterministic() {
        let idx = index(120, 64, 1);
        let a = RelationStats::from_index(&idx);
        let b = RelationStats::from_index(&idx);
        assert_eq!(a, b);
        assert_eq!(a.cardinality, 120);
        assert_eq!(a.series_len, 64);
        assert_eq!(a.dims, 6);
        assert_eq!(a.profile.population, 120);
        assert!(a.height() >= 1);
    }

    #[test]
    fn selective_query_plans_index_unselective_plans_scan() {
        let idx = index(300, 32, 2);
        let stats = RelationStats::from_index(&idx);
        let planner = Planner::new(&idx, &stats);
        let tight = planner
            .plan(&range_logical(&idx, 0, 0.05), None, None)
            .unwrap();
        assert_eq!(tight.plan.op, PhysicalOp::IndexRange);
        assert!(!tight.plan.forced);
        // eps large enough that every record qualifies: scanning must win.
        let loose = planner
            .plan(&range_logical(&idx, 0, 1e6), None, None)
            .unwrap();
        assert_eq!(loose.plan.op, PhysicalOp::EarlyAbandonScan);
        assert_eq!(loose.considered.len(), 3);
    }

    #[test]
    fn force_overrides_cost() {
        let idx = index(100, 32, 3);
        let stats = RelationStats::from_index(&idx);
        let logical = range_logical(&idx, 1, 0.1);
        let scan = Planner::new(&idx, &stats)
            .plan(&logical, Some(ForceOp::Scan), None)
            .unwrap();
        assert_eq!(scan.plan.op, PhysicalOp::EarlyAbandonScan);
        assert!(scan.plan.forced);
        let index_plan = Planner::new(&idx, &stats)
            .plan(&logical, Some(ForceOp::Index), None)
            .unwrap();
        assert_eq!(index_plan.plan.op, PhysicalOp::IndexRange);
        assert!(index_plan.plan.forced);
    }

    #[test]
    fn join_only_forces_are_rejected_on_other_forms() {
        let idx = index(20, 32, 13);
        let stats = RelationStats::from_index(&idx);
        let planner = Planner::new(&idx, &stats);
        let window = TimeSeries::new(idx.series(0).unwrap().values()[..8].to_vec());
        let others = [
            range_logical(&idx, 0, 1.0),
            LogicalPlan::Knn {
                relation: "r".into(),
                query: idx.series(0).unwrap().clone(),
                k: 2,
                transform: LinearTransform::identity(32),
            },
            LogicalPlan::SubseqRange {
                relation: "r".into(),
                query: window.clone(),
                eps: 1.0,
                window: 8,
            },
            LogicalPlan::SubseqKnn {
                relation: "r".into(),
                query: window,
                k: 2,
                window: 8,
            },
        ];
        for logical in &others {
            match planner.plan(logical, Some(ForceOp::ScanFull), None) {
                Err(Error::Unsupported(msg)) => {
                    assert_eq!(msg, "force = scanfull applies only to JOIN queries")
                }
                other => panic!("scanfull on {logical:?}: {other:?}"),
            }
            // The family forces apply everywhere; a subsequence form has
            // one operator, so there they pin nothing.
            for force in [ForceOp::Scan, ForceOp::Index] {
                let choice = planner.plan(logical, Some(force), None).unwrap();
                assert_eq!(
                    choice.plan.forced,
                    logical.subseq_window().is_none(),
                    "{force:?} on {logical:?}"
                );
            }
        }
        let join = LogicalPlan::Join {
            relation: "r".into(),
            eps: 1.0,
            transform: LinearTransform::identity(32),
        };
        for force in [ForceOp::Scan, ForceOp::ScanFull, ForceOp::Index] {
            assert!(planner.plan(&join, Some(force), None).unwrap().plan.forced);
        }
    }

    #[test]
    fn planned_range_matches_forced_plans() {
        let idx = index(150, 32, 4);
        let stats = RelationStats::from_index(&idx);
        for eps in [0.2, 1.0, 3.0, 10.0] {
            let logical = range_logical(&idx, 7, eps);
            let mut answers = Vec::new();
            for force in [None, Some(ForceOp::Scan), Some(ForceOp::Index)] {
                let choice = Planner::new(&idx, &stats)
                    .plan(&logical, force, None)
                    .unwrap();
                let (rows, exec) = execute_plan(&logical, &choice.plan, &idx, None).unwrap();
                if matches!(choice.plan.op, PhysicalOp::IndexRange) {
                    assert!(exec.nodes_visited > 0);
                } else {
                    assert_eq!(exec.nodes_visited, 0);
                    assert_eq!(exec.disk_accesses, 150);
                }
                answers.push(rows);
            }
            let PlanRows::Whole(auto) = &answers[0] else {
                panic!("range plans return whole-series rows")
            };
            for other in &answers[1..] {
                let PlanRows::Whole(o) = other else { panic!() };
                let ids: Vec<usize> = auto.iter().map(|m| m.id).collect();
                let oids: Vec<usize> = o.iter().map(|m| m.id).collect();
                assert_eq!(ids, oids, "eps={eps}");
                for (a, b) in auto.iter().zip(o) {
                    assert!((a.distance - b.distance).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn join_auto_answers_match_scan_oracle() {
        let idx = index(60, 32, 5);
        let stats = RelationStats::from_index(&idx);
        let t = LinearTransform::moving_average(32, 4);
        let logical = LogicalPlan::Join {
            relation: "r".into(),
            eps: 1.6,
            transform: t.clone(),
        };
        let oracle = idx.join_scan(1.6, &t, ScanMode::Naive).unwrap();
        let want: Vec<(usize, usize)> = oracle.pairs.iter().map(|p| (p.a, p.b)).collect();
        // Whatever the cost comparison picks is canonicalized to the scan
        // joins' one row per unordered pair.
        let auto = Planner::new(&idx, &stats)
            .plan(&logical, None, None)
            .unwrap();
        let operators: Vec<PhysicalOp> = vec![
            auto.plan.op,
            PhysicalOp::JoinIndex { dedup: true },
            PhysicalOp::JoinScan {
                mode: ScanMode::EarlyAbandon,
            },
            PhysicalOp::JoinScan {
                mode: ScanMode::Naive,
            },
        ];
        for op in operators {
            let plan = PhysicalPlan { op, ..auto.plan };
            let (rows, _) = execute_plan(&logical, &plan, &idx, None).unwrap();
            let PlanRows::Pairs(pairs) = rows else {
                panic!()
            };
            let got: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
            assert_eq!(got, want, "{op:?}");
        }
    }

    #[test]
    fn hinted_join_preserves_method_accounting() {
        let idx = index(60, 32, 6);
        let stats = RelationStats::from_index(&idx);
        let t = LinearTransform::moving_average(32, 4);
        let hinted = LogicalPlan::Join {
            relation: "r".into(),
            eps: 1.6,
            transform: t.clone(),
        };
        let choice = Planner::new(&idx, &stats)
            .plan(&hinted, Some(ForceOp::Index), None)
            .unwrap();
        assert!(choice.plan.forced);
        assert_eq!(choice.plan.op, PhysicalOp::JoinIndex { dedup: false });
        let (rows, _) = execute_plan(&hinted, &choice.plan, &idx, None).unwrap();
        let scan = idx.join_scan(1.6, &t, ScanMode::Naive).unwrap();
        // The paper's accounting: each unordered pair reported twice.
        assert_eq!(rows.len(), 2 * scan.pairs.len());
    }

    #[test]
    fn join_false_hits_exclude_self_pairs() {
        // Every index-join probe's own series is a candidate that passes
        // the exact check (distance 0) without producing a pair; it must
        // not be reported as a false hit.
        let idx = index(20, 32, 12);
        let stats = RelationStats::from_index(&idx);
        let hinted = LogicalPlan::Join {
            relation: "r".into(),
            eps: 1e-3,
            transform: LinearTransform::identity(32),
        };
        let choice = Planner::new(&idx, &stats)
            .plan(&hinted, Some(ForceOp::Index), None)
            .unwrap();
        let (rows, exec) = execute_plan(&hinted, &choice.plan, &idx, None).unwrap();
        assert!(rows.is_empty(), "1e-3 admits no distinct pairs");
        assert!(exec.refined >= 20, "each probe refines at least itself");
        assert_eq!(
            exec.false_hits, 0,
            "self-pair refines passed the exact check and are not false hits"
        );
    }

    #[test]
    fn knn_plans_execute_identically() {
        let idx = index(200, 32, 7);
        let stats = RelationStats::from_index(&idx);
        let logical = LogicalPlan::Knn {
            relation: "r".into(),
            query: idx.series(3).unwrap().clone(),
            k: 5,
            transform: LinearTransform::moving_average(32, 4),
        };
        let mut results = Vec::new();
        for force in [ForceOp::Scan, ForceOp::Index] {
            let choice = Planner::new(&idx, &stats)
                .plan(&logical, Some(force), None)
                .unwrap();
            let (rows, _) = execute_plan(&logical, &choice.plan, &idx, None).unwrap();
            let PlanRows::Whole(m) = rows else { panic!() };
            assert_eq!(m.len(), 5);
            results.push(m);
        }
        for (a, b) in results[0].iter().zip(&results[1]) {
            assert!((a.distance - b.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn window_filter_applies_on_scan_plans() {
        let idx = index(120, 32, 8);
        let stats = RelationStats::from_index(&idx);
        let m = idx.series(0).unwrap().mean();
        let window = QueryWindow {
            mean: Some((m - 0.5, m + 0.5)),
            std: None,
        };
        let logical = LogicalPlan::Range {
            relation: "r".into(),
            query: idx.series(0).unwrap().clone(),
            eps: 100.0,
            transform: LinearTransform::identity(32),
            window,
        };
        let planner = Planner::new(&idx, &stats);
        let scan = planner.plan(&logical, Some(ForceOp::Scan), None).unwrap();
        let via_index = planner.plan(&logical, Some(ForceOp::Index), None).unwrap();
        let (a, sa) = execute_plan(&logical, &scan.plan, &idx, None).unwrap();
        let (b, _) = execute_plan(&logical, &via_index.plan, &idx, None).unwrap();
        assert_eq!(a, b);
        // The filter pruned scan candidates below the relation size.
        assert!(sa.candidates < 120);
    }

    #[test]
    fn every_form_operator_pair_answers_or_is_a_typed_mismatch() {
        let idx = index(30, 32, 9);
        let st = SubseqIndex::build(SubseqConfig::new(8), idx_series(&idx)).unwrap();
        let whole = idx.series(0).unwrap().clone();
        let window = TimeSeries::new(whole.values()[..8].to_vec());
        let forms = [
            LogicalPlan::Range {
                relation: "r".into(),
                query: whole.clone(),
                eps: 2.0,
                transform: LinearTransform::identity(32),
                window: QueryWindow::default(),
            },
            LogicalPlan::Knn {
                relation: "r".into(),
                query: whole,
                k: 2,
                transform: LinearTransform::identity(32),
            },
            LogicalPlan::Join {
                relation: "r".into(),
                eps: 2.0,
                transform: LinearTransform::moving_average(32, 4),
            },
            LogicalPlan::SubseqRange {
                relation: "r".into(),
                query: window.clone(),
                eps: 2.0,
                window: 8,
            },
            LogicalPlan::SubseqKnn {
                relation: "r".into(),
                query: window,
                k: 2,
                window: 8,
            },
        ];
        // Every operator, in every variant that changes what it runs, and
        // the forms (by index into `forms`) it implements.
        let scan = |mode| PhysicalOp::JoinScan { mode };
        let probe = |knn| PhysicalOp::SubseqIndexProbe { knn, cached: true };
        let table: [(PhysicalOp, &[usize]); 10] = [
            (PhysicalOp::SeqScan, &[0, 1]),
            (PhysicalOp::EarlyAbandonScan, &[0]),
            (PhysicalOp::IndexRange, &[0]),
            (PhysicalOp::IndexKnn, &[1]),
            (scan(ScanMode::Naive), &[2]),
            (scan(ScanMode::EarlyAbandon), &[2]),
            (PhysicalOp::JoinIndex { dedup: true }, &[2]),
            (PhysicalOp::JoinIndex { dedup: false }, &[2]),
            (probe(false), &[3]),
            (probe(true), &[4]),
        ];
        for (f, logical) in forms.iter().enumerate() {
            for (op, implements) in &table {
                let forged = PhysicalPlan {
                    op: *op,
                    estimate: CostEstimate::default(),
                    forced: false,
                };
                let got = execute_plan(logical, &forged, &idx, Some(&st));
                if implements.contains(&f) {
                    let (rows, exec) = got.unwrap_or_else(|e| panic!("{op:?} on form {f}: {e}"));
                    assert!(!rows.is_empty(), "{op:?} on form {f}");
                    assert_eq!(
                        exec.disk_accesses,
                        match exec.nodes_visited {
                            0 => idx.len() as u64,
                            nodes => nodes + exec.refined as u64,
                        },
                        "{op:?} on form {f}: one of the two accounting rules"
                    );
                } else {
                    match got {
                        Err(Error::Unsupported(msg)) => assert_eq!(
                            msg,
                            format!(
                                "physical operator {} does not implement logical form {}",
                                op.name(),
                                ["Range", "Knn", "Join", "SubseqRange", "SubseqKnn"][f]
                            )
                        ),
                        other => panic!("{op:?} on form {f}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn subseq_plan_requires_index_at_execution_only() {
        let idx = index(20, 32, 10);
        let stats = RelationStats::from_index(&idx);
        let logical = LogicalPlan::SubseqRange {
            relation: "r".into(),
            query: TimeSeries::new(idx.series(0).unwrap().values()[..8].to_vec()),
            eps: 1.0,
            window: 8,
        };
        // Planning without a cached ST-index works (cold estimate)...
        let choice = Planner::new(&idx, &stats)
            .plan(&logical, None, None)
            .unwrap();
        assert_eq!(
            choice.plan.op,
            PhysicalOp::SubseqIndexProbe {
                knn: false,
                cached: false
            }
        );
        // ...but execution needs the index.
        assert!(matches!(
            execute_plan(&logical, &choice.plan, &idx, None),
            Err(Error::Unsupported(_))
        ));
        let st = SubseqIndex::build(SubseqConfig::new(8), idx_series(&idx)).unwrap();
        let cached_choice = Planner::new(&idx, &stats)
            .plan(&logical, None, Some(&st))
            .unwrap();
        assert_eq!(
            cached_choice.plan.op,
            PhysicalOp::SubseqIndexProbe {
                knn: false,
                cached: true
            }
        );
        let (rows, exec) = execute_plan(&logical, &cached_choice.plan, &idx, Some(&st)).unwrap();
        assert!(matches!(rows, PlanRows::Windows(_)));
        assert_eq!(
            exec.disk_accesses,
            exec.nodes_visited + exec.candidates as u64
        );
    }

    #[test]
    fn render_is_stable_and_complete() {
        let idx = index(80, 32, 11);
        let stats = RelationStats::from_index(&idx);
        let logical = range_logical(&idx, 2, 1.5);
        let choice = Planner::new(&idx, &stats)
            .plan(&logical, None, None)
            .unwrap();
        let a = render_plan(&logical, &choice, &stats);
        let b = render_plan(&logical, &choice, &stats);
        assert_eq!(a, b);
        assert!(a.contains("Range on \"r\""));
        assert!(a.contains("considered: IndexRange"));
        assert!(a.contains("EarlyAbandonScan"));
        let mut analyzed = a.clone();
        let exec = ExecStats {
            candidates: 3,
            refined: 3,
            false_hits: 1,
            nodes_visited: 7,
            disk_accesses: 10,
            pool_hits: 0,
            pool_misses: 0,
        };
        render_analyze(&mut analyzed, 2, &exec);
        assert!(analyzed.contains("actual: rows=2, nodes=7, candidates=3"));
        // In-memory plans never grow the measured line…
        assert!(!analyzed.contains("measured:"));
        // …and paged plans report real pool traffic next to the estimate.
        let paged_exec = ExecStats {
            pool_hits: 4,
            pool_misses: 3,
            ..exec
        };
        render_analyze(&mut analyzed, 2, &paged_exec);
        assert!(analyzed.contains("measured: pool_hits=4, pool_misses=3"));
    }
}
