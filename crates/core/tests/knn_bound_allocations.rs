//! The kNN bound allocates nothing: `SpaceKind::transformed_lower_bound`
//! walks Algorithm 1's transformed rectangle without building it, so a
//! kNN statement allocates less often than it visits tree nodes. Its
//! best-first queue is reserved once, from the tree's shape: a statement
//! grows it at most once. The subsequence kNN scan keeps its `k` best in a
//! bounded heap: its largest block does not grow with the relation. A warm
//! subsequence statement on a sharded relation allocates what it does on
//! one shard: it probes the relation's one ST-index, with no per-shard
//! rows to merge. A scan join allocates its rows' worth plus a constant,
//! at one shard and at four: it transforms each record once, into one
//! flat buffer, and runs once over the relation.
//!
//! A binary of its own, because it installs a counting global allocator.
//! The allocator counts per thread, so tests running in parallel do not
//! disturb each other's counts; every count below is of work that runs on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use tsq_core::{
    FeatureSchema, Features, ForceOp, IndexConfig, LinearTransform, LogicalPlan, SeriesRelation,
    ShardSpec, ShardedIndex, SimilarityIndex, SpaceKind, SubseqConfig, SubseqIndex,
};
use tsq_dft::FftPlanner;
use tsq_rtree::{RStarTree, RTreeConfig, Rect};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations apart,
/// each against the thread that asked for it, and keeping the largest
/// block either asked for.
struct Counting;

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>, size: usize) {
    // `try_with`: a thread being torn down may still free and allocate
    // after its counter is gone.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are const-initialized thread-local `Cell`s, which neither allocate nor
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCATIONS, new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread asked of the allocator while running something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocations: u64,
    reallocations: u64,
}

impl Counts {
    fn now() -> Self {
        Counts {
            allocations: ALLOCATIONS.with(Cell::get),
            reallocations: REALLOCATIONS.with(Cell::get),
        }
    }
}

/// `f`'s result and the allocations and reallocations this thread made
/// while running it.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = Counts::now();
    let out = f();
    let after = Counts::now();
    let counts = Counts {
        allocations: after.allocations - before.allocations,
        reallocations: after.reallocations - before.reallocations,
    };
    (out, counts)
}

/// `f`'s result and the largest block this thread asked for while
/// running it.
fn largest_allocation_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

const N: usize = 128;

#[test]
fn the_knn_bound_allocates_nothing_in_either_space() {
    let schema = FeatureSchema::NormalForm { k: 2 };
    let mut planner = FftPlanner::new();
    let mut gen = RandomWalkGenerator::new(7);
    let walks: Vec<Features> = (0..3)
        .map(|_| Features::extract(&gen.series(N), schema, &mut planner).unwrap())
        .collect();
    let transforms = [
        LinearTransform::identity(N),
        LinearTransform::moving_average(N, 8),
        LinearTransform::reverse(N),
        LinearTransform::scale(N, -2.0),
    ];
    let mut cases = 0;
    for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
        let mut rect = Rect::from_point(&space.point(&walks[0], schema));
        rect.union_assign(Rect::from_point(&space.point(&walks[1], schema)).view());
        for t in &transforms {
            // `mavg` has complex multipliers: Theorem 2 refuses it in S_rect.
            if space.check_safety(t, schema).is_err() {
                continue;
            }
            let (sum, counts) = allocations_during(|| {
                (0..1000)
                    .map(|_| {
                        space.transformed_lower_bound(black_box(rect.view()), t, schema, &walks[2])
                    })
                    .sum::<f64>()
            });
            assert!(sum.is_finite());
            assert_eq!(
                counts,
                Counts {
                    allocations: 0,
                    reallocations: 0
                },
                "{space:?} under {} over 1000 bounds",
                t.name()
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 7);
}

#[test]
fn a_knn_statement_allocates_less_often_than_it_visits_nodes() {
    let relation = RandomWalkGenerator::new(7).relation(8000, N);
    let query = RandomWalkGenerator::new(8).series(N);
    let index = SimilarityIndex::build(IndexConfig::default(), relation).unwrap();
    for t in [
        LinearTransform::identity(N),
        LinearTransform::moving_average(N, 8),
    ] {
        let ((rows, stats), counts) =
            allocations_during(|| index.knn_query(&query, 5, &t).unwrap());
        assert_eq!(rows.len(), 5);
        let nodes = stats.index.nodes_visited;
        let Counts {
            allocations,
            reallocations,
        } = counts;
        eprintln!(
            "kNN-5 under {}: {allocations} allocations, {reallocations} reallocations, \
             {nodes} node visits",
            t.name()
        );
        assert!(
            allocations + reallocations < nodes,
            "kNN-5 under {}: {allocations} allocations and {reallocations} reallocations \
             over {nodes} node visits",
            t.name()
        );
        // Nothing but the queue grows: it is reserved once and may double
        // once.
        assert!(
            reallocations <= 1,
            "kNN-5 under {}: {reallocations} reallocations",
            t.name()
        );
    }
}

#[test]
fn the_subsequence_knn_scan_keeps_k_windows_not_all_of_them() {
    // Relations of 2 000 and 20 000 windows of 64: the scan's largest block
    // is the same for both, at the window and past it.
    let mut gen = RandomWalkGenerator::new(9);
    let relation: Vec<_> = (0..100).map(|_| gen.series(263)).collect();
    let query = gen.series(96);
    let mut largest = Vec::new();
    for count in [10, 100] {
        let index = SubseqIndex::build(SubseqConfig::new(64), relation[..count].to_vec()).unwrap();
        for len in [64, 96] {
            let pattern = TimeSeries::new(query.values()[..len].to_vec());
            let (rows, bytes) =
                largest_allocation_during(|| index.scan_subseq_knn(&pattern, 5).unwrap());
            assert_eq!(rows.len(), 5);
            eprintln!("scan kNN-5 of {len} over {count} series: largest block {bytes} B");
            largest.push(bytes);
        }
    }
    assert_eq!(largest[..2], largest[2..], "largest block per (count, len)");
}

#[test]
fn a_warm_subsequence_statement_allocates_alike_at_one_and_four_shards() {
    const WINDOW: usize = 32;
    let walks = RandomWalkGenerator::new(11).relation(40, 96);
    let relation = SeriesRelation::from_series("r", walks).unwrap();
    let query = TimeSeries::new(relation.get(3).unwrap().values()[10..10 + WINDOW].to_vec());
    let statements = [
        LogicalPlan::SubseqRange {
            relation: "r".into(),
            query: query.clone(),
            eps: 4.0,
            window: WINDOW,
        },
        LogicalPlan::SubseqKnn {
            relation: "r".into(),
            query,
            k: 5,
            window: WINDOW,
        },
    ];
    let mut counted = Vec::new();
    for shards in [1, 4] {
        let spec = ShardSpec::hash(shards).unwrap();
        let sharded = ShardedIndex::build(IndexConfig::default(), &relation, spec).unwrap();
        for logical in &statements {
            // The first statement builds the ST-index; the second is warm.
            sharded.execute(logical, None, 1).unwrap();
            let (outcome, counts) =
                allocations_during(|| sharded.execute(logical, None, 1).unwrap());
            assert!(!outcome.rows.is_empty());
            eprintln!(
                "warm {} at {shards} shard(s): {counts:?}",
                outcome.plan.plan.op.name()
            );
            counted.push(counts);
        }
    }
    assert_eq!(
        counted[..2],
        counted[2..],
        "(range, kNN) at 1 and at 4 shards"
    );
}

#[test]
fn a_scan_join_allocates_its_rows_plus_a_constant_at_one_and_four_shards() {
    // Allocations a forced scan join may make besides one per row: the
    // image buffer, the answer, the plan and its alternatives per shard, and
    // the bind's transform — none of them per record.
    const BUDGET: u64 = 16;
    let stocks = StockGenerator::new(19_970_516).relation(300, N);
    let relation = SeriesRelation::from_series("pairs", stocks).unwrap();
    let join = LogicalPlan::Join {
        relation: "pairs".into(),
        eps: 0.5,
        transform: LinearTransform::moving_average(N, 8),
    };
    let mut answers = Vec::new();
    for shards in [1, 4] {
        let spec = ShardSpec::hash(shards).unwrap();
        let sharded = ShardedIndex::build(IndexConfig::default(), &relation, spec).unwrap();
        // The first statement warms the thread's transform buffer.
        sharded.execute(&join, Some(ForceOp::Scan), 1).unwrap();
        let (outcome, counts) =
            allocations_during(|| sharded.execute(&join, Some(ForceOp::Scan), 1).unwrap());
        let rows = outcome.rows.len() as u64;
        eprintln!("scan join at {shards} shard(s): {rows} rows, {counts:?}");
        assert!(rows > 0, "the join must answer");
        assert!(
            counts.allocations <= rows + BUDGET,
            "scan join at {shards} shard(s): {} allocations for {rows} rows",
            counts.allocations
        );
        answers.push(outcome.rows);
    }
    assert_eq!(answers[0], answers[1], "rows at 1 and at 4 shards");
}

/// `tree`'s node and level counts.
fn nodes_and_levels<T>(tree: &RStarTree<T>) -> (u64, u64) {
    let profile = tree.level_profile();
    (profile.iter().map(|l| l.nodes).sum(), profile.len() as u64)
}

#[test]
fn a_build_allocates_a_block_per_record_and_its_sorts_one_per_level() {
    // Blocks a bulk load may take per node (its stored slab and its
    // kids) and per level (its sizes, order, MBRs and sort scratch, the
    // permutation's marks and the level's node list), besides the load's
    // own rectangles and payloads.
    const PER_NODE: u64 = 2;
    const PER_LEVEL: u64 = 8;
    // 400 × 128 is 51 200 samples and 400 entries: below both fan-out
    // cut-offs, so the whole build runs on this thread. Its records take
    // one block each (the indexed coefficients); the rest is the planner's
    // plan and scratch, the store and the index's fixed parts.
    const FIXED: u64 = 48;
    let relation = RandomWalkGenerator::new(13).relation(400, N);
    let (index, counts) =
        allocations_during(move || SimilarityIndex::build(IndexConfig::default(), relation));
    let index = index.unwrap();
    let (nodes, levels) = nodes_and_levels(index.tree());
    let records = index.len() as u64;
    let budget = records + PER_NODE * nodes + PER_LEVEL * levels + FIXED;
    eprintln!("build of {records} records, {nodes} nodes, {levels} levels: {counts:?}");
    assert!(
        counts.allocations <= budget,
        "{} allocations over {records} records and {nodes} nodes (budget {budget})",
        counts.allocations
    );

    // A deep STR load, 3 000 6-d points at 4 entries a node: one sort
    // scratch per level, however many slabs each sorts (over 400 at the
    // leaf level).
    let mut gen = RandomWalkGenerator::new(17);
    let points: Vec<(Rect, usize)> = (0..3000)
        .map(|i| (Rect::from_point(gen.series(6).values()), i))
        .collect();
    let config = RTreeConfig::with_max_entries(4);
    let (tree, counts) = allocations_during(move || RStarTree::bulk_load(config, points));
    let (nodes, levels) = nodes_and_levels(&tree);
    let budget = PER_NODE * nodes + PER_LEVEL * levels + 2;
    eprintln!(
        "STR load of {} points, {nodes} nodes, {levels} levels: {counts:?}",
        tree.len()
    );
    assert!(
        counts.allocations <= budget,
        "{} allocations over {nodes} nodes and {levels} levels (budget {budget})",
        counts.allocations
    );
}
