//! Fan-out primitives and thread-count policy shared by every parallel
//! path in the engine.
//!
//! The paper argues the DFT index must beat even a *good* sequential scan
//! (Section 5); at system scale the analogous bar is query *throughput*
//! under concurrency, not single-query latency — the lesson of the
//! Lernaean-Hydra evaluation of similarity-search systems.
//!
//! - [`parallel_map`] — the shared order-preserving fan-out primitive,
//!   running on the persistent work-stealing [`Pool`] (no rayon in the
//!   build image; no per-call thread spawning either). Query costs vary
//!   wildly between a selective range probe and a whole-relation KNN, so
//!   indices are claimed one at a time rather than pre-chunked. Its
//!   caller never waits on a helper that has not started, so a fan-out
//!   may run anywhere — under the catalog's locks, inside a cell other
//!   readers wait on — without waiting on pool workers that wait on it.
//!   Nested fan-outs (a sharded query inside a batch) run inline on the
//!   owning worker. Batches of statements fan out over it one layer up
//!   (`tsq_lang::Catalog::run_batch`).
//! - [`clamp_threads`] / [`default_threads`] — the one place a requested
//!   worker count becomes an actual one.
//! - [`CancelToken`] — cooperative cancellation for graceful shutdown.
//!
//! Two things fan out over it at query time — the statements of a batch,
//! and the shards of one statement ([`crate::shard`]); inside one shard a
//! query's filter and refine steps run sequentially. A large build fans
//! out too: a whole-match index's feature extraction and an ST-index's
//! trail extraction over runs of series, and the STR bulk load's sorts and
//! gather under both, whether from a registration, an `APPEND`, a `SHARD`
//! or a relation's first read after an append. Every parallel path is
//! deterministic: results are byte-identical to the sequential oracle
//! regardless of thread count, which the concurrency test suite asserts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The shared order-preserving fan-out primitive, re-exported from the
/// lowest crate that needs it (`tsq-rtree` uses it for parallel bulk
/// loading; one implementation serves the whole workspace). It fans out
/// over [`Pool::global`], the persistent work-stealing executor.
pub use tsq_rtree::par::parallel_map;

/// The persistent work-stealing executor behind [`parallel_map`],
/// re-exported so callers can size batches off [`Pool::workers`], sample
/// [`Pool::stats`], or (in tests) drive a dedicated pool of a controlled
/// width.
pub use tsq_pool::{Pool, PoolStats};

/// Samples the global pool's cumulative scheduler counters (tasks run,
/// steals) — the pair `/metrics` surfaces. These are
/// deliberately *not* part of `ExecStats`: query counters stay
/// byte-identical between sequential and parallel execution, while
/// scheduler counters inherently depend on timing. Zeros until something
/// fans out: reading the counters never starts the pool.
pub fn pool_stats() -> PoolStats {
    Pool::try_global().map(Pool::stats).unwrap_or_default()
}

/// Number of workers to use when the caller does not care: the machine's
/// available parallelism (1 if it cannot be determined), queried once
/// and cached by the pool — repeated batch statements no longer re-query
/// `available_parallelism`.
pub fn default_threads() -> usize {
    tsq_pool::default_workers()
}

/// Most OS threads any single fan-out may request, as a multiple of the
/// machine's available parallelism. Past this point extra threads only
/// add scheduler pressure and per-thread stacks — a request like
/// `.batch file 1000000` used to take this literally and spawn a million
/// OS threads.
pub(crate) const MAX_THREAD_MULTIPLIER: usize = 4;

/// Clamps a requested worker count to `[1, MAX_THREAD_MULTIPLIER ×
/// available_parallelism]`. `0` means "let the machine decide" and maps
/// to [`default_threads`]. Every thread-count knob in the workspace
/// (batch execution, the query service, the shell's `.batch`) funnels
/// through here, so no user-supplied number can translate into unbounded
/// OS-thread creation.
pub fn clamp_threads(requested: usize) -> usize {
    let cap = default_threads()
        .saturating_mul(MAX_THREAD_MULTIPLIER)
        .max(1);
    match requested {
        0 => default_threads(),
        n => n.min(cap),
    }
}

/// A cooperative cancellation flag shared between a controller and any
/// number of workers — the executor-level hook the query service uses for
/// graceful shutdown (stop admitting work, drain what is in flight).
///
/// Cancellation is one-way and idempotent: once [`CancelToken::cancel`]
/// is called every clone observes [`CancelToken::is_cancelled`] `== true`
/// forever. Workers are expected to poll between units of work; nothing
/// is interrupted mid-computation, which is what keeps every parallel
/// path byte-identical to its sequential oracle.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Signals cancellation to every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_balances() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for threads in [1usize, 2, 5, 32] {
            assert_eq!(
                parallel_map(threads, items.clone(), |i| i * i),
                want,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn thread_counts_are_clamped() {
        let cap = default_threads() * MAX_THREAD_MULTIPLIER;
        // Zero delegates to the machine.
        assert_eq!(clamp_threads(0), default_threads());
        // Sane requests pass through.
        assert_eq!(clamp_threads(1), 1);
        assert_eq!(clamp_threads(cap), cap);
        // Absurd requests hit the cap instead of spawning a million
        // OS threads.
        assert_eq!(clamp_threads(1_000_000), cap);
        assert_eq!(clamp_threads(usize::MAX), cap);
    }

    #[test]
    fn cancel_token_propagates_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        std::thread::scope(|scope| {
            scope.spawn(move || clone.cancel());
        });
        assert!(token.is_cancelled());
        // Idempotent.
        token.cancel();
        assert!(token.is_cancelled());
    }
}
