//! # tsq-pool — persistent work-stealing executor
//!
//! Every parallel path in the workspace used to pay thread-creation tax
//! on every call: `parallel_map` spawned and joined fresh OS threads per
//! invocation, so a sharded query scattering over 8 shards spawned 8
//! threads *per query* and batch throughput fell as parallelism grew.
//! This crate replaces that with one process-wide pool of long-lived
//! workers:
//!
//! - **Per-worker deques plus a shared injector.** Submissions are
//!   placed round-robin on the worker deques; a submission finding its
//!   target deque busy spills into the injector. An idle worker drains
//!   its own deque first, then the injector, then *steals* from the
//!   back of a sibling's deque — so a stalled worker never strands
//!   queued work.
//! - **Park/unpark idling.** Idle workers block on a condvar; a
//!   submission wakes exactly one. No spinning, no wakeup storms.
//! - **Lazy start.** [`Pool::global`] spawns its workers — sized by
//!   [`default_workers`], the cached `available_parallelism` — on first
//!   use; a process that never fans out never starts a thread.
//! - **Panic isolation.** A panicking closure poisons only its own
//!   result slot (the first panic is re-raised to the caller of
//!   [`Pool::map`], preserving `std::thread::scope` semantics); the
//!   worker survives and the pool keeps serving.
//! - **Clean shutdown.** Dropping a non-global pool drains its queues
//!   and joins every worker.
//!
//! [`Pool::map`] is the order-preserving fan-out primitive the rest of
//! the workspace builds on: workers claim item indices from a shared
//! atomic counter, so results land in input order and are **byte-
//! identical to a sequential map regardless of worker count** — the
//! invariant every consistency suite in the workspace asserts.
//!
//! **Nested fan-outs run inline.** A map issued from inside a pool task
//! (a sharded query inside a batch, a parallel bulk load inside a
//! scatter) executes sequentially on the owning worker instead of
//! re-entering the pool. That rules out both deadlock (no worker ever
//! blocks waiting on pool work) and oversubscription (concurrency is
//! bounded by the worker count plus the callers), and costs nothing:
//! the outer fan-out already saturates the pool.
//!
//! ## Why this crate may use `unsafe` when no other crate does
//!
//! `Pool::map` runs closures that borrow the caller's stack on workers
//! that outlive the call — exactly the lifetime erasure `rayon` and
//! `crossbeam` hide behind their own `unsafe` internals, which the
//! offline build image cannot provide. The erasure here is a single
//! documented `unsafe` block in [`Pool::map`], sound because the caller
//! blocks until every helper task has finished before the borrowed job
//! can be freed. Every other crate in the workspace keeps
//! `#![forbid(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};

/// A queued unit of pool work: one erased "runner" of a [`Pool::map`]
/// call (not one item — a runner claims items until the job is dry).
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// True while this thread is executing pool work (a worker running a
    /// task, or a `map` caller participating in its own job). Nested
    /// fan-outs consult it and run inline.
    static ENGAGED: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is already executing pool work, in which
/// case a nested fan-out must (and does) run inline rather than
/// re-entering the pool.
pub fn in_pool_work() -> bool {
    ENGAGED.with(Cell::get)
}

/// RAII guard marking the current thread as engaged in pool work.
struct EngageGuard {
    prev: bool,
}

fn engage() -> EngageGuard {
    EngageGuard {
        prev: ENGAGED.with(|f| f.replace(true)),
    }
}

impl Drop for EngageGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        ENGAGED.with(|f| f.set(prev));
    }
}

/// Mutex lock that recovers from poisoning: pool bookkeeping stays
/// usable even after a panicking task, which is what keeps one poisoned
/// job from wedging the whole executor.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The machine's available parallelism, queried **once** and cached for
/// the process lifetime (1 if it cannot be determined). Sizing decisions
/// all over the workspace (`clamp_threads`, the shell, the service) used
/// to re-query `available_parallelism` — a syscall — on every batch;
/// they now funnel through this cache.
pub fn default_workers() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Cumulative scheduler counters of a [`Pool`], cheap to sample.
///
/// These are *scheduler* observability, deliberately **not** part of
/// `ExecStats`: query counters are byte-identical between sequential and
/// parallel execution (the repo-wide invariant), while task and steal
/// counts inherently depend on scheduling. They surface through the
/// service `/metrics` endpoint instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed by pool workers since the pool started.
    pub tasks: u64,
    /// Tasks a worker stole from a sibling's deque.
    pub steals: u64,
}

/// Everything the workers share.
struct Shared {
    queues: Mutex<Queues>,
    /// Parked idle workers wait here; submissions notify it.
    work: Condvar,
    tasks: AtomicU64,
    steals: AtomicU64,
}

struct Queues {
    /// Overflow queue: submissions that found their round-robin deque
    /// busy, drained by whichever worker frees up first.
    injector: VecDeque<Task>,
    /// One deque per worker: owner pops the front, thieves the back.
    deques: Vec<VecDeque<Task>>,
    /// Round-robin placement cursor for submissions.
    rr: usize,
    shutdown: bool,
}

/// A persistent work-stealing thread pool.
///
/// One process-wide instance ([`Pool::global`]) serves every
/// `parallel_map` in the workspace; dedicated instances exist only in
/// tests, where controlled worker counts matter.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Starts a pool with `workers` long-lived worker threads (at least
    /// one).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                injector: VecDeque::new(),
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
                rr: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("tsq-pool-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            handles,
        }
    }

    /// The process-wide pool, started lazily on first use and sized by
    /// [`default_workers`]. It lives for the process lifetime; idle
    /// workers are parked, not spinning.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_workers()))
    }

    /// Number of worker threads (cached at construction — callers sizing
    /// repeated batches read this instead of re-querying the OS).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Samples the cumulative scheduler counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
        }
    }

    /// Enqueues one erased task: round-robin onto a worker deque, or
    /// into the injector when that deque is busy, then wakes one parked
    /// worker.
    fn submit(&self, task: Task) {
        let mut q = lock(&self.shared.queues);
        let slot = q.rr % self.workers;
        q.rr = q.rr.wrapping_add(1);
        if q.deques[slot].is_empty() {
            q.deques[slot].push_back(task);
        } else {
            q.injector.push_back(task);
        }
        drop(q);
        self.shared.work.notify_one();
    }

    /// Maps `f` over `items` with up to `threads`-way concurrency,
    /// preserving input order exactly.
    ///
    /// Concurrency is the calling thread plus up to `threads - 1` pool
    /// workers (never more than [`Pool::workers`]); item indices are
    /// claimed one at a time from a shared counter, so mixed cheap and
    /// expensive items stay balanced and the output is byte-identical
    /// to `items.into_iter().map(f)` at every worker count. With
    /// `threads <= 1`, a single item, or when called from inside pool
    /// work (nested fan-out), this is a plain sequential map that
    /// touches no queues at all.
    ///
    /// # Panics
    /// If one or more closure invocations panic, the panic payload of
    /// the lowest panicking index is re-raised on the caller after every
    /// item has been settled — the pool itself keeps serving.
    pub fn map<T, R, F>(&self, threads: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let threads = threads.max(1).min(n.max(1));
        if threads == 1 || in_pool_work() {
            return items.into_iter().map(f).collect();
        }
        // Helpers beyond the calling thread; >= 1 because threads >= 2
        // and workers >= 1.
        let helpers = threads.min(self.workers + 1) - 1;
        let job = Job {
            tasks: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            remaining: Mutex::new(helpers),
            done: Condvar::new(),
            f: &f,
        };
        // SAFETY (the one lifetime erasure in the workspace): `raw`
        // points at `job`, which lives on this stack frame, while the
        // submitted tasks are 'static as far as the type system knows.
        // They cannot outlive the *actual* job: every submitted task
        // decrements `job.remaining` (under its mutex) as its final
        // touch of the job, and this function does not proceed past the
        // wait loop below — let alone return or unwind — until
        // `remaining == 0`, i.e. until every submitted task has
        // finished. Nothing between the first submission and that wait
        // can unwind, and workers never drop queued tasks (shutdown
        // cannot race a live `&self` borrow of the pool), so every task
        // runs exactly once. Cross-thread access is sound because `Job`
        // is `Sync` here: `T: Send`, `R: Send`, `F: Sync`.
        let raw = RawJob {
            data: std::ptr::from_ref(&job).cast::<()>(),
            run: run_erased::<T, R, F>,
        };
        for _ in 0..helpers {
            self.submit(Box::new(move || raw.invoke()));
        }
        {
            // The caller participates in its own job; nested fan-outs
            // inside `f` run inline here too.
            let _engaged = engage();
            job.claim_loop();
        }
        let mut rem = lock(&job.remaining);
        while *rem > 0 {
            rem = wait(&job.done, rem);
        }
        drop(rem);
        // All helpers have signalled completion: the job is exclusively
        // ours again.
        let mut first_panic = None;
        let mut out = Vec::with_capacity(n);
        for slot in job.slots {
            match lock(&slot).take() {
                Some(Ok(r)) => out.push(r),
                Some(Err(payload)) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
                None => unreachable!("every claimed index stores a result"),
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queues).shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    // Workers are permanently "engaged": any fan-out reached from a task
    // they run is nested and must inline.
    ENGAGED.with(|f| f.set(true));
    loop {
        let task = {
            let mut q = lock(&shared.queues);
            loop {
                if let Some(t) = q.deques[me].pop_front() {
                    break t;
                }
                if let Some(t) = q.injector.pop_front() {
                    break t;
                }
                let n = q.deques.len();
                let stolen = (1..n).find_map(|step| q.deques[(me + step) % n].pop_back());
                if let Some(t) = stolen {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = wait(&shared.work, q);
            }
        };
        shared.tasks.fetch_add(1, Ordering::Relaxed);
        // Belt and braces: tasks already catch per-item panics; whatever
        // still unwinds must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

/// One in-flight [`Pool::map`] job: the items, their result slots, the
/// claim counter, and the helper-completion latch.
struct Job<'a, T, R, F> {
    tasks: Vec<Mutex<Option<T>>>,
    slots: Vec<Mutex<Option<thread::Result<R>>>>,
    next: AtomicUsize,
    /// Helpers still running (or queued); the caller blocks until zero.
    remaining: Mutex<usize>,
    done: Condvar,
    f: &'a F,
}

impl<T, R, F> Job<'_, T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Claims and runs items until the counter runs past the end. Every
    /// claimed index stores a result — `Ok` or the caught panic payload
    /// — so one poisoned item never strands the job.
    fn claim_loop(&self) {
        let n = self.tasks.len();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if let Some(item) = lock(&self.tasks[i]).take() {
                let r = catch_unwind(AssertUnwindSafe(|| (self.f)(item)));
                *lock(&self.slots[i]) = Some(r);
            }
        }
    }
}

impl<T, R, F> Job<'_, T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Helper-side entry: drain the claim loop, then signal completion.
    fn run_helper(&self) {
        self.claim_loop();
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            // Notify while holding the lock: the caller can only observe
            // zero (and free the job) after we release it, and past this
            // point the task never touches the job again.
            self.done.notify_all();
        }
    }
}

/// Type-erased handle to an in-flight [`Job`], the payload of a queued
/// helper task. Erasing through a data pointer plus a monomorphized shim
/// keeps the queued closure's type free of the job's generics (and their
/// lifetimes), which is what lets a non-`'static` job ride a `'static`
/// task queue.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    run: RunFn,
}

/// The monomorphized job-runner shim type. The pointee's invariants are
/// the caller's responsibility — see the SAFETY comment in [`Pool::map`].
#[allow(unsafe_code)]
type RunFn = unsafe fn(*const ());

// SAFETY: a `RawJob` only ever points at a `Job` that is `Sync` (its
// fields are mutexes, atomics, and a `&F where F: Sync`; `Pool::map`
// constructs it under exactly those bounds), so handing the pointer to a
// worker thread is sound.
#[allow(unsafe_code)]
unsafe impl Send for RawJob {}

impl RawJob {
    fn invoke(self) {
        // SAFETY: `Pool::map` keeps the pointee alive until every
        // submitted task has run this to completion; see the SAFETY
        // comment there.
        #[allow(unsafe_code)]
        unsafe {
            (self.run)(self.data)
        }
    }
}

/// Recovers the concrete [`Job`] behind a [`RawJob`] and runs it.
///
/// # Safety
/// `ptr` must point at a live `Job<'_, T, R, F>` constructed with these
/// exact type parameters — guaranteed by [`Pool::map`], the only place
/// that pairs a data pointer with this shim.
#[allow(unsafe_code)]
unsafe fn run_erased<T, R, F>(ptr: *const ())
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let job = &*ptr.cast::<Job<'_, T, R, F>>();
    job.run_helper();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_is_order_preserving_at_every_width() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..257).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 3 + 1).collect();
        for threads in [0usize, 1, 2, 3, 7, 64] {
            assert_eq!(
                pool.map(threads, items.clone(), |i| i * 3 + 1),
                want,
                "threads = {threads}"
            );
        }
        assert!(pool.map::<usize, usize, _>(4, Vec::new(), |i| i).is_empty());
    }

    #[test]
    fn pool_counts_tasks() {
        let pool = Pool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        let out = pool.map(3, (0..100).collect::<Vec<usize>>(), |i| i + 1);
        assert_eq!(out.len(), 100);
        let stats = pool.stats();
        assert!(
            stats.tasks >= 1,
            "helpers must run as pool tasks, got {stats:?}"
        );
    }

    #[test]
    fn panic_poisons_only_its_slot_and_pool_keeps_serving() {
        let pool = Pool::new(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.map(2, vec![1usize, 2, 3, 4, 5, 6], |i| {
                if i == 4 {
                    panic!("task {i} went boom");
                }
                i * 10
            })
        }));
        assert!(boom.is_err(), "the panic must reach the caller");
        // The same pool still answers, with full results.
        let out = pool.map(2, (0..50).collect::<Vec<usize>>(), |i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        // 2 workers, outer fan-out wider than the pool, each item fanning
        // out again: with per-call spawning this oversubscribes, with a
        // naive pool it deadlocks (workers waiting on work only workers
        // can run). The nested-inline rule makes it finish with exact
        // results.
        let pool = Pool::new(2);
        let outer: Vec<usize> = (0..8).collect();
        let got = pool.map(8, outer, |o| {
            let inner: Vec<usize> = (0..16).collect();
            pool.map(4, inner, |i| o * 100 + i).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8)
            .map(|o| (0..16).map(|i| o * 100 + i).sum::<usize>())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..20 {
                        let items: Vec<usize> = (0..33).collect();
                        let out = pool.map(2, items, |i| i + round);
                        assert_eq!(out[32], 32 + round);
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn steals_happen_under_load() {
        // A 4-worker pool with many overlapping jobs: round-robin
        // placement plus uneven task lengths makes back-of-deque steals
        // statistically certain over this many submissions.
        let pool = Pool::new(4);
        for _ in 0..50 {
            let items: Vec<usize> = (0..64).collect();
            let _ = pool.map(5, items, |i| {
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                i * 2
            });
        }
        let stats = pool.stats();
        assert!(stats.tasks > 0);
        // Steals are scheduling-dependent; just ensure the counter is
        // wired (it must never exceed tasks).
        assert!(stats.steals <= stats.tasks);
    }

    #[test]
    fn drop_joins_cleanly_with_work_done() {
        for _ in 0..10 {
            let pool = Pool::new(3);
            let out = pool.map(4, (0..40).collect::<Vec<usize>>(), |i| i);
            assert_eq!(out.len(), 40);
            drop(pool);
        }
    }

    #[test]
    fn global_pool_is_lazy_and_sized_by_default_workers() {
        let pool = Pool::global();
        assert_eq!(pool.workers(), default_workers());
        let out = pool.map(4, (0..10).collect::<Vec<usize>>(), |i| i + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }
}
