//! Pool oracle: the persistent work-stealing executor is an *execution
//! detail*, never a semantic change. That every query form answers
//! byte-identically at 1, 2 and 4 workers is the differential harness's,
//! pinned here to every worker count × shard count; this suite also pins
//! the pool itself:
//!
//! - a panic-isolation test proves a panicking task poisons only its
//!   own result slot — the panic resurfaces on the caller and the pool
//!   keeps serving;
//! - a nested-fan-out test runs maps inside maps on a two-worker pool,
//!   which must complete (inner maps run inline on the owning worker)
//!   and still preserve order;
//! - the process-wide pool counters are visible and monotone.

use tsq_testkit::{differential, Config, SHARDS, THREADS};

use tsq::core::executor::{self, Pool};

/// A panicking task poisons only its own result slot: the caller sees
/// the original panic payload after every item settles, and the pool's
/// workers survive to serve the next map.
#[test]
fn panicking_task_poisons_only_its_slot_and_pool_keeps_serving() {
    let pool = Pool::new(2);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.map(2, vec![0u32, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom");
            }
            i * 10
        })
    }));
    let payload = caught.expect_err("the panic must resurface on the caller");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "boom");
    // Same pool, next map: still fully operational.
    assert_eq!(pool.map(2, vec![1u32, 2, 3], |i| i + 1), vec![2, 3, 4]);
}

/// Nested fan-outs on a tiny pool must not deadlock: a worker that hits
/// an inner `map` runs it inline instead of blocking on its own queue.
#[test]
fn nested_fan_outs_complete_in_order_on_a_two_worker_pool() {
    let pool = std::sync::Arc::new(Pool::new(2));
    let inner_pool = std::sync::Arc::clone(&pool);
    let got = pool.map(4, (0..6u32).collect(), move |o| {
        inner_pool.map(4, (0..5u32).collect::<Vec<u32>>(), |i| o * 10 + i)
    });
    let want: Vec<Vec<u32>> = (0..6)
        .map(|o| (0..5).map(|i| o * 10 + i).collect())
        .collect();
    assert_eq!(got, want);
}

/// The process-wide pool counters are observable and monotone: a
/// parallel map accounts at least its helper tasks, and steals never
/// decrease.
#[test]
fn global_pool_counters_are_monotone_and_visible() {
    let before = executor::pool_stats();
    let out = executor::parallel_map(2, (0..64u64).collect::<Vec<u64>>(), |i| i * 3);
    assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<u64>>());
    let after = executor::pool_stats();
    assert!(after.tasks > before.tasks, "helper tasks must be counted");
    assert!(after.steals >= before.steals);
}

/// Every statement form at 1, 2 and 4 workers, one and three shards,
/// through `Catalog::execute_with`, answers byte-identically to the
/// sequential one-shard reference.
#[test]
fn pool_backed_execution_is_byte_identical_to_sequential() {
    let configs = THREADS.iter().flat_map(|&threads| {
        SHARDS.map(|shards| Config {
            threads,
            shards,
            ..Config::REFERENCE
        })
    });
    let configs: Vec<Config> = configs.filter(|c| *c != Config::REFERENCE).collect();
    differential::pinned(1300, 3, &configs);
}
