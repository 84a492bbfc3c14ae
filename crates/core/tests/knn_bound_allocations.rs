//! The kNN bound allocates nothing: `SpaceKind::transformed_lower_bound`
//! walks Algorithm 1's transformed rectangle without building it, so a
//! kNN statement allocates less often than it visits tree nodes.
//!
//! A binary of its own, because it installs a counting global allocator.
//! The allocator counts per thread, so tests running in parallel do not
//! disturb each other's counts; every count below is of work that runs on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use tsq_core::{FeatureSchema, Features, IndexConfig, LinearTransform, SimilarityIndex, SpaceKind};
use tsq_dft::FftPlanner;
use tsq_rtree::Rect;
use tsq_series::generate::RandomWalkGenerator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation
/// against the thread that asked for it.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still free and allocate
    // after its counter is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a const-initialized thread-local `Cell`, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// `f`'s result and the allocations this thread made while running it.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
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
        rect.union_assign(&Rect::from_point(&space.point(&walks[1], schema)));
        for t in &transforms {
            // `mavg` has complex multipliers: Theorem 2 refuses it in S_rect.
            if space.check_safety(t, schema).is_err() {
                continue;
            }
            let (sum, allocations) = allocations_during(|| {
                (0..1000)
                    .map(|_| space.transformed_lower_bound(black_box(&rect), t, schema, &walks[2]))
                    .sum::<f64>()
            });
            assert!(sum.is_finite());
            assert_eq!(
                allocations,
                0,
                "{space:?} under {}: {allocations} allocations over 1000 bounds",
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
        let ((rows, stats), allocations) =
            allocations_during(|| index.knn_query(&query, 5, &t).unwrap());
        assert_eq!(rows.len(), 5);
        let nodes = stats.index.nodes_visited;
        eprintln!(
            "kNN-5 under {}: {allocations} allocations, {nodes} node visits",
            t.name()
        );
        assert!(
            allocations < nodes,
            "kNN-5 under {}: {allocations} allocations over {nodes} node visits",
            t.name()
        );
    }
}
