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
//!   [`Pool::map`], preserving `std::thread::scope` semantics); a
//!   panicking [`Pool::spawn`]ed task is dropped. Either way the worker
//!   survives and the pool keeps serving.
//! - **Clean shutdown.** Dropping a non-global pool runs every task
//!   already queued, then joins every worker. No pool is dropped by one
//!   of its own tasks: a worker cannot join itself.
//!
//! [`Pool::map`] is the order-preserving fan-out primitive the rest of
//! the workspace builds on: workers claim item indices from a shared
//! atomic counter, so results land in input order and are **byte-
//! identical to a sequential map regardless of worker count** — the
//! invariant every consistency suite in the workspace asserts.
//! [`Pool::spawn`] queues one detached task: the query service runs
//! each admitted request that way on a pool of its own.
//!
//! One rule keeps a fan-out from waiting on work that waits on it: **a
//! map's caller waits only for helpers that have started on its job.**
//! A queued helper passes its job's gate before it touches the job; once
//! the caller's own claim loop runs dry, it takes its helpers that no
//! worker has dequeued back off the queues, closes the gate and waits for
//! the helpers inside to leave. A helper dequeued in between finds the
//! gate closed and returns without touching the job. So a caller never
//! waits on a queue and leaves nothing queued behind it: when every
//! worker is busy (or blocked on a lock the caller holds), the caller
//! runs the whole job itself, and a map may be issued from any thread,
//! under any lock, from any pool's task.
//!
//! **Nesting is per pool.** A map issued from inside a task of the *same*
//! pool (a sharded query inside a batch, a parallel bulk load inside a
//! scatter) executes sequentially on the owning thread instead of queuing
//! helpers: the outer fan-out already saturates the pool, so more helpers
//! would only oversubscribe it. A map on pool A issued from a task of
//! pool B fans out over A as from any other thread.
//!
//! ## Why this crate may use `unsafe` when no other crate does
//!
//! `Pool::map` runs closures that borrow the caller's stack on workers
//! that outlive the call — exactly the lifetime erasure `rayon` and
//! `crossbeam` hide behind their own `unsafe` internals, which the
//! offline build image cannot provide. The erasure here is a single
//! documented `unsafe` block in [`Pool::map`], sound because a helper
//! touches the borrowed job only inside its gate, and the caller closes
//! the gate and waits for every helper inside to leave before the job can
//! be freed. Every other crate in the workspace keeps
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

/// A queued unit of pool work.
enum Task {
    /// One [`Pool::spawn`]ed task.
    Spawned(Box<dyn FnOnce() + Send + 'static>),
    /// One helper of a [`Pool::map`] call (not one item — a helper claims
    /// items until the job is dry), and the gate it enters the job by.
    Helper(RawJob, Arc<Gate>),
}

/// Source of pool identities; 0 means "no pool".
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

/// The process-wide pool behind [`Pool::global`].
static GLOBAL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// The pool this thread is executing work for (a worker running a
    /// task, or a `map` caller participating in its own job), or 0.
    /// Nested fan-outs over that same pool consult it and run inline.
    static ENGAGED: Cell<usize> = const { Cell::new(0) };
}

/// RAII guard marking the current thread as engaged in one pool's work.
struct EngageGuard {
    prev: usize,
}

fn engage(id: usize) -> EngageGuard {
    EngageGuard {
        prev: ENGAGED.with(|f| f.replace(id)),
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
    /// Tasks queued on the pool since it started: each spawned task and
    /// each helper a map queued, counted when queued, so a map's helpers
    /// count even when it takes them back before a worker dequeues them.
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
/// `parallel_map` in the workspace. Dedicated instances run the query
/// service's admitted requests, and in tests give controlled worker
/// counts.
pub struct Pool {
    shared: Arc<Shared>,
    /// This pool's identity in [`ENGAGED`].
    id: usize,
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
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
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
                    .spawn(move || worker_loop(&shared, id, me))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            id,
            workers,
            handles,
        }
    }

    /// The process-wide pool, started lazily on first use and sized by
    /// [`default_workers`]. It lives for the process lifetime; idle
    /// workers are parked, not spinning.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(default_workers()))
    }

    /// The process-wide pool if something has started it, without
    /// starting it: what reading its counters needs.
    pub fn try_global() -> Option<&'static Pool> {
        GLOBAL.get()
    }

    /// True when the current thread is executing work for this pool.
    fn is_engaged(&self) -> bool {
        ENGAGED.with(Cell::get) == self.id
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

    /// Enqueues one task: round-robin onto a worker deque, or
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
        self.shared.tasks.fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_one();
    }

    /// Queues `task` to run once on one of this pool's workers and
    /// returns at once. A task that panics is dropped; its worker goes
    /// on to the next one. Dropping the pool runs every task queued
    /// before the drop.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.submit(Task::Spawned(Box::new(task)));
    }

    /// Takes the helpers that no worker has dequeued off the queues, by
    /// the gate of the map that queued them.
    fn retract(&self, gate: &Arc<Gate>) {
        let others = |t: &Task| !matches!(t, Task::Helper(_, g) if Arc::ptr_eq(g, gate));
        let mut q = lock(&self.shared.queues);
        q.injector.retain(others);
        for deque in &mut q.deques {
            deque.retain(others);
        }
    }

    /// Maps `f` over `items` with up to `threads`-way concurrency,
    /// preserving input order exactly.
    ///
    /// Concurrency is the calling thread plus up to `threads - 1` pool
    /// workers (never more than [`Pool::workers`]); item indices are
    /// claimed one at a time from a shared counter, so mixed cheap and
    /// expensive items stay balanced and the output is byte-identical
    /// to `items.into_iter().map(f)` at every worker count. With
    /// `threads <= 1`, a single item, or when called from inside this
    /// pool's own work (nested fan-out), this is a plain sequential map
    /// that touches no queues at all.
    ///
    /// The caller waits only for helpers that have started on the job, so
    /// a map answers even while every worker is busy.
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
        if threads == 1 || self.is_engaged() {
            return items.into_iter().map(f).collect();
        }
        // Helpers beyond the calling thread; >= 1 because threads >= 2
        // and workers >= 1.
        let helpers = threads.min(self.workers + 1) - 1;
        let job = Job {
            tasks: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            f: &f,
        };
        let gate = Arc::new(Gate::default());
        // SAFETY (the one lifetime erasure in the workspace): `raw`
        // points at `job`, which lives on this stack frame, while the
        // submitted tasks are 'static as far as the type system knows. A
        // helper touches the job only between a successful `enter` and
        // its `leave`, and `close` below returns only after the last
        // `leave`; a helper that a worker dequeues later finds the gate
        // closed and drops `raw` unread. Nothing between the first
        // submission and `close` can unwind (every item's panic is caught
        // in the claim loop), so the job outlives every touch. Cross-thread
        // access is sound because `Job` is `Sync` here: `T: Send`,
        // `R: Send`, `F: Sync`.
        let raw = RawJob {
            data: std::ptr::from_ref(&job).cast::<()>(),
            run: run_erased::<T, R, F>,
        };
        for _ in 0..helpers {
            self.submit(Task::Helper(raw, Arc::clone(&gate)));
        }
        {
            // The caller participates in its own job; nested fan-outs
            // inside `f` run inline here too.
            let _engaged = engage(self.id);
            job.claim_loop();
        }
        // Every index is claimed. Take back the helpers no worker has
        // dequeued, and wait for those inside to finish the items they
        // hold: past this point the job is exclusively ours again.
        self.retract(&gate);
        gate.close();
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

fn worker_loop(shared: &Shared, id: usize, me: usize) {
    // Workers are permanently engaged in their own pool: any fan-out over
    // it reached from a task they run is nested and must inline.
    ENGAGED.with(|f| f.set(id));
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
        match task {
            // A helper catches per-item panics; a spawned task may not,
            // and whatever unwinds must not take the worker down with it.
            Task::Spawned(task) => {
                let _ = catch_unwind(AssertUnwindSafe(task));
            }
            Task::Helper(raw, gate) => {
                if gate.enter() {
                    raw.invoke();
                    gate.leave();
                }
            }
        }
    }
}

/// One in-flight [`Pool::map`] job: the items, their result slots and
/// the claim counter.
struct Job<'a, T, R, F> {
    tasks: Vec<Mutex<Option<T>>>,
    slots: Vec<Mutex<Option<thread::Result<R>>>>,
    next: AtomicUsize,
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

/// The door between a [`Pool::map`] caller and its queued helpers: whether
/// the caller has closed it, and how many helpers are inside the job.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, usize)>,
    /// The caller waits here for the last helper inside to leave.
    left: Condvar,
}

impl Gate {
    /// A helper's way in: false once the caller has closed the gate.
    fn enter(&self) -> bool {
        let mut state = lock(&self.state);
        state.1 += usize::from(!state.0);
        !state.0
    }

    /// A helper's way out, its last touch of the job.
    fn leave(&self) {
        let mut state = lock(&self.state);
        state.1 -= 1;
        if state.1 == 0 {
            self.left.notify_all();
        }
    }

    /// Keeps later helpers out and returns once every helper inside has
    /// left.
    fn close(&self) {
        let mut state = lock(&self.state);
        state.0 = true;
        while state.1 > 0 {
            state = wait(&self.left, state);
        }
    }
}

/// Type-erased handle to an in-flight [`Job`], the payload of a queued
/// helper task. Erasing through a data pointer plus a monomorphized shim
/// keeps the queued task's type free of the job's generics (and their
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
        // SAFETY: called only inside the job's gate, which `Pool::map`
        // keeps the pointee alive across; see the SAFETY comment there.
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
    job.claim_loop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

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
    fn a_map_answers_while_every_worker_is_busy() {
        // Both workers wait for a release that comes only after the map
        // has answered, so its helpers stay queued behind them: the
        // caller must run the whole job itself rather than wait for them.
        const DEADLINE: Duration = Duration::from_secs(5);
        let pool = Pool::new(2);
        let (arrive, arrived) = mpsc::channel();
        let mut release = Vec::new();
        for _ in 0..2 {
            let (go, held) = mpsc::channel::<()>();
            release.push(go);
            let arrive = arrive.clone();
            pool.spawn(move || {
                arrive.send(()).unwrap();
                let _ = held.recv();
            });
        }
        for _ in 0..2 {
            arrived.recv_timeout(DEADLINE).unwrap();
        }
        // The watchdog releases the workers at the deadline, so a map
        // that waits for its queued helpers fails here instead of hanging.
        let (answer, answered) = mpsc::channel::<()>();
        let watchdog = thread::spawn(move || {
            let late = answered.recv_timeout(DEADLINE).is_err();
            drop(release);
            late
        });
        let out = pool.map(3, (0..100).collect::<Vec<usize>>(), |i| i * 7 + 1);
        let _ = answer.send(());
        assert!(
            !watchdog.join().unwrap(),
            "the map waited for helpers queued behind busy workers"
        );
        assert_eq!(out, (0..100).map(|i| i * 7 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn a_closed_gate_waits_for_the_helpers_inside_and_keeps_later_ones_out() {
        let gate = Arc::new(Gate::default());
        assert!(gate.enter(), "an open gate lets a helper in");
        let (inside, left) = (Arc::clone(&gate), Arc::new(AtomicUsize::new(0)));
        let leaving = Arc::clone(&left);
        let helper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            leaving.store(1, Ordering::SeqCst);
            inside.leave();
        });
        gate.close();
        assert_eq!(left.load(Ordering::SeqCst), 1, "close returned first");
        assert!(!gate.enter(), "a closed gate lets a helper in");
        helper.join().unwrap();
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

    /// Two items that each wait, up to `timeout`, until both have
    /// started: true only when they ran on two threads at once.
    fn two_items_meet(pool: &Pool, timeout: Duration) -> bool {
        let arrived = Mutex::new(0usize);
        let all_here = Condvar::new();
        pool.map(2, vec![0, 1], |_| {
            let mut n = lock(&arrived);
            *n += 1;
            all_here.notify_all();
            let (n, _) = all_here
                .wait_timeout_while(n, timeout, |n| *n < 2)
                .unwrap_or_else(|e| e.into_inner());
            *n == 2
        })
        .into_iter()
        .all(|met| met)
    }

    #[test]
    fn spawn_runs_a_task_detached() {
        let pool = Pool::new(1);
        let (tx, rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        // The task blocks until released, so `spawn` must have returned
        // without waiting for it.
        pool.spawn(move || {
            go_rx.recv().unwrap();
            tx.send(thread::current().name().map(str::to_owned))
                .unwrap();
        });
        go_tx.send(()).unwrap();
        let name = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(name.as_deref(), Some("tsq-pool-0"));
    }

    #[test]
    fn a_panicking_spawned_task_leaves_its_worker_serving() {
        let pool = Pool::new(1);
        pool.spawn(|| panic!("spawned task went boom"));
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
        assert_eq!(pool.stats().tasks, 2);
    }

    #[test]
    fn dropping_a_pool_runs_every_queued_task() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(1);
        // The one worker is busy while the rest queue up behind it.
        pool.spawn(|| thread::sleep(Duration::from_millis(50)));
        for _ in 0..100 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_map_on_another_pool_from_a_task_fans_out() {
        let a = Arc::new(Pool::new(1));
        let b = Pool::new(1);
        let (tx, rx) = mpsc::channel();
        let on_a = Arc::clone(&a);
        b.spawn(move || {
            tx.send(two_items_meet(&on_a, Duration::from_secs(10)))
                .unwrap();
        });
        let met = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(met, "a map on pool A from pool B's task ran inline");
        drop(b);
    }

    #[test]
    fn a_map_on_its_own_pool_from_a_task_runs_inline() {
        let a = Arc::new(Pool::new(2));
        let (tx, rx) = mpsc::channel();
        let on_a = Arc::clone(&a);
        a.spawn(move || {
            let me = thread::current().id();
            let threads = on_a.map(2, (0..16).collect::<Vec<usize>>(), |_| {
                thread::current().id()
            });
            tx.send(threads.iter().all(|t| *t == me)).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(true));
        // The spawned task alone ran as a pool task: the map queued no
        // helper.
        assert_eq!(a.stats().tasks, 1);
    }

    #[test]
    fn global_pool_is_lazy_and_sized_by_default_workers() {
        let pool = Pool::global();
        assert_eq!(pool.workers(), default_workers());
        let out = pool.map(4, (0..10).collect::<Vec<usize>>(), |i| i + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }
}
