//! A whole-match build holds the same live heap whether it fans out or
//! not: its feature extraction and its bulk load fill records and node
//! slabs the calling thread allocated at their final size, and a pool
//! worker frees whatever else it allocates before the build returns.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`tsq_testkit::heap`). It holds one
//! test, so no other test allocates while it measures.

use std::sync::{Arc, Barrier};

use tsq_core::executor::{default_threads, parallel_map, pool_stats, Pool};
use tsq_core::{IndexConfig, SimilarityIndex};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;
use tsq_testkit::heap::live;

#[global_allocator]
static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;

/// The live bytes while every pool worker is parked in a task of this
/// call's own. A worker frees a task after the task has signalled its
/// fan-out done, so a count read just after a fan-out may still hold that
/// task; a worker parked here has freed everything it ran before, and what
/// this call allocates is the same every time.
fn quiet_live() -> isize {
    let pool = Pool::global();
    let arrived = Arc::new(Barrier::new(pool.workers() + 1));
    let leave = Arc::new(Barrier::new(pool.workers() + 1));
    for _ in 0..pool.workers() {
        let (arrived, leave) = (Arc::clone(&arrived), Arc::clone(&leave));
        pool.spawn(move || {
            arrived.wait();
            leave.wait();
        });
    }
    arrived.wait();
    let bytes = live();
    leave.wait();
    bytes
}

/// The live bytes a build over `walks` leaves while its index is held,
/// with the build fanned out over the pool, or run inline as pool work
/// (a fan-out nested in the pool's own work runs on its thread), and the
/// pool tasks the build ran.
fn held(walks: &[TimeSeries], fan_out: bool) -> (isize, u64) {
    let input = walks.to_vec();
    let before = quiet_live();
    let tasks = pool_stats().tasks;
    let index = match fan_out {
        true => SimilarityIndex::build(IndexConfig::default(), input).unwrap(),
        false => {
            let build = |(first, input): (bool, Vec<TimeSeries>)| {
                first.then(|| SimilarityIndex::build(IndexConfig::default(), input).unwrap())
            };
            let jobs = vec![(true, input), (false, Vec::new())];
            parallel_map(2, jobs, build)
                .into_iter()
                .flatten()
                .next()
                .unwrap()
        }
    };
    let tasks = pool_stats().tasks - tasks;
    let held = quiet_live() - before;
    assert_eq!(index.len(), walks.len());
    (held, tasks)
}

#[test]
fn a_build_holds_the_same_heap_on_one_thread_and_on_two() {
    if default_threads() < 2 {
        eprintln!("one core: every build runs on the calling thread");
        return;
    }
    // Past both fan-out sizes: 8 000 × 128 samples to extract, and 8 000
    // points to bulk-load.
    let walks = RandomWalkGenerator::new(5).relation(8000, 128);
    // Start the pool's workers and grow its queues before measuring.
    for fan_out in [true, false, true, false] {
        held(&walks, fan_out);
    }
    let (inline, _) = held(&walks, false);
    let (fanned, tasks) = held(&walks, true);
    assert!(tasks > 0, "the build fanned out");
    eprintln!(
        "an index of {} walks holds {inline} B built inline, {fanned} B fanned out",
        walks.len()
    );
    assert!(inline > 0);
    // `Tracking` counts every thread's blocks, so a few bytes another
    // thread holds while a count is read (a pool task's 16-byte box, or
    // libtest's own bookkeeping) may ride on either side. A spectrum kept
    // twice is 48 B here (three coefficients), a series or a node slab
    // over a kilobyte: each would be more than this.
    const SLACK: isize = 32;
    assert!(
        (fanned - inline).abs() <= SLACK,
        "a fanned-out build holds {fanned} B, an inline one {inline} B"
    );
}
