//! Reading the pool counters does not start the pool: the worker pool
//! promises that a process that never fans out never starts a thread, and
//! every `STATS` request and `GET /metrics` of the service reads those
//! counters.
//!
//! A binary of its own, because any other test that fans out would start
//! the pool first. It holds one test and counts this process's threads in
//! `/proc/self/task`, so it runs on Linux only.

#![cfg(target_os = "linux")]

use tsq_core::executor::{pool_stats, PoolStats};

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn reading_the_counters_starts_no_thread() {
    let before = threads();
    assert_eq!(pool_stats(), PoolStats::default());
    assert_eq!(pool_stats(), PoolStats::default());
    assert_eq!(
        threads(),
        before,
        "reading the pool counters started threads"
    );
}
