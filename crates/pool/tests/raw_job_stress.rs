//! Stress of the one lifetime erasure in the workspace: `Pool::map` hands
//! its workers a `RawJob`, a pointer to a job on the caller's stack whose
//! closure, items and result slots borrow that stack. These tests drive it
//! from many plain threads at once on a two-worker pool — the shape in
//! which a helper outliving its job, or a job freed under a helper, would
//! show: items and results own heap buffers, closures borrow the caller's
//! locals, some items panic, and some fan out again from inside the pool.
//! Every answer must be exact, every panic must reach its own caller, and
//! every run must finish within a watchdog's deadline (a deadlock fails the
//! test instead of hanging it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Once};
use std::thread;
use std::time::Duration;

use tsq_pool::Pool;

/// Plain threads calling `map` at once.
const CALLERS: usize = 8;

/// `map` calls per caller.
const ROUNDS: usize = 240;

/// Items per call: more than the pool's workers and the caller can each
/// take one at a time, so a helper that starts before the caller runs dry
/// finds items left to claim.
const ITEMS: usize = 48;

/// What a run may take before it counts as deadlocked.
const DEADLINE: Duration = Duration::from_secs(120);

/// The panics these tests raise on purpose carry this marker, and the
/// panic hook keeps them off the test output.
const PLANNED: &str = "planned panic";

fn quiet_planned_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let planned = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(PLANNED));
            if !planned {
                default(info);
            }
        }));
    });
}

/// Runs `f` on a thread of its own and fails if it does not finish by
/// [`DEADLINE`].
fn within_deadline(what: &'static str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Ok(()) => runner.join().expect("the run finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The run panicked: re-raise its panic here.
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: no answer in {DEADLINE:?}"),
    }
}

/// One caller's expected answer for item `i` of round `round`.
fn expected(caller: usize, round: usize, i: usize) -> String {
    format!("{caller}:{round}:{}", i * i)
}

#[test]
fn concurrent_callers_get_exact_answers_from_borrowed_jobs() {
    within_deadline("concurrent callers", || {
        let pool = Pool::new(2);
        thread::scope(|scope| {
            for caller in 0..CALLERS {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // The closure borrows this frame's prefix; the
                        // items and results own heap buffers.
                        let prefix = format!("{caller}:{round}:");
                        let items: Vec<Vec<usize>> =
                            (0..ITEMS).map(|i| vec![i; i % 5 + 1]).collect();
                        let out = pool.map(3, items, |v| {
                            let i = v[0];
                            format!("{prefix}{}", i * i)
                        });
                        let want: Vec<String> =
                            (0..ITEMS).map(|i| expected(caller, round, i)).collect();
                        assert_eq!(out, want, "caller {caller}, round {round}");
                    }
                });
            }
        });
    });
}

#[test]
fn panicking_items_reach_their_own_caller_and_the_pool_keeps_serving() {
    quiet_planned_panics();
    within_deadline("panicking items", || {
        let pool = Pool::new(2);
        let raised = AtomicUsize::new(0);
        thread::scope(|scope| {
            for caller in 0..CALLERS {
                let (pool, raised) = (&pool, &raised);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // Every third round panics at two items; the
                        // lowest one's payload is what the caller sees.
                        let doomed = (round % 3 == 0).then_some((caller + round) % ITEMS);
                        let items: Vec<usize> = (0..ITEMS).collect();
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            pool.map(2, items, |i| {
                                if doomed.is_some_and(|d| i == d || i == d + 7) {
                                    panic!("{PLANNED} {caller}:{round}:{i}");
                                }
                                expected(caller, round, i)
                            })
                        }));
                        match (doomed, ran) {
                            (None, Ok(out)) => {
                                assert_eq!(out.len(), ITEMS);
                                assert_eq!(out[ITEMS - 1], expected(caller, round, ITEMS - 1));
                            }
                            (Some(d), Err(payload)) => {
                                let message = payload.downcast::<String>().expect("a message");
                                assert_eq!(*message, format!("{PLANNED} {caller}:{round}:{d}"));
                                raised.fetch_add(1, Ordering::Relaxed);
                            }
                            (doomed, ran) => panic!(
                                "caller {caller}, round {round}: doomed {doomed:?}, \
                                 answered {}",
                                ran.is_ok()
                            ),
                        }
                    }
                });
            }
        });
        assert_eq!(raised.load(Ordering::Relaxed), CALLERS * ROUNDS.div_ceil(3));
        // Still whole after every panic.
        let out = pool.map(2, (0..ITEMS).collect::<Vec<usize>>(), |i| i + 1);
        assert_eq!(out, (1..=ITEMS).collect::<Vec<_>>());
    });
}

#[test]
fn nested_fan_outs_from_concurrent_callers_finish_exactly() {
    within_deadline("nested fan-outs", || {
        let pool = Pool::new(2);
        thread::scope(|scope| {
            for caller in 0..CALLERS {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..ROUNDS / 4 {
                        let weights: Vec<usize> = (0..16).map(|w| w + caller).collect();
                        let outer: Vec<usize> = (0..12).collect();
                        // Each outer item fans out again from inside the
                        // pool, borrowing the caller's weights; that map
                        // runs inline on whichever thread took the item.
                        let got = pool.map(4, outer, |o| {
                            let inner: Vec<usize> = (0..weights.len()).collect();
                            pool.map(4, inner, |i| weights[i] * (o + round))
                                .into_iter()
                                .sum::<usize>()
                        });
                        let total: usize = weights.iter().sum();
                        let want: Vec<usize> = (0..12).map(|o| total * (o + round)).collect();
                        assert_eq!(got, want, "caller {caller}, round {round}");
                    }
                });
            }
        });
    });
}

#[test]
fn pools_dropped_between_concurrent_jobs_join_cleanly() {
    within_deadline("short-lived pools", || {
        thread::scope(|scope| {
            for caller in 0..4 {
                scope.spawn(move || {
                    for round in 0..ROUNDS / 2 {
                        let pool = Pool::new(2);
                        let items: Vec<usize> = (0..ITEMS).collect();
                        let out = pool.map(3, items, |i| expected(caller, round, i));
                        assert_eq!(out[7], expected(caller, round, 7));
                        drop(pool);
                    }
                });
            }
        });
    });
}

#[test]
fn tasks_of_another_pool_get_exact_answers_from_borrowed_jobs() {
    within_deadline("another pool's tasks", || {
        let a = Arc::new(Pool::new(2));
        let b = Pool::new(2);
        let (answers, answered) = mpsc::channel();
        for caller in 0..CALLERS {
            let (a, answers) = (Arc::clone(&a), answers.clone());
            b.spawn(move || {
                for round in 0..ROUNDS / 2 {
                    // As from a plain thread: the closure borrows this
                    // task's prefix, and the items and results own heap
                    // buffers; some items fan out again over pool A.
                    let prefix = format!("{caller}:{round}:");
                    let items: Vec<Vec<usize>> = (0..ITEMS).map(|i| vec![i; i % 5 + 1]).collect();
                    let out = a.map(3, items, |v| {
                        let i = v[0];
                        let inner = if i % 8 == 0 {
                            a.map(2, (0..4).collect::<Vec<usize>>(), |j| j * i)
                                .into_iter()
                                .sum::<usize>()
                        } else {
                            6 * i
                        };
                        assert_eq!(inner, 6 * i);
                        format!("{prefix}{}", i * i)
                    });
                    let want: Vec<String> =
                        (0..ITEMS).map(|i| expected(caller, round, i)).collect();
                    assert_eq!(out, want, "caller {caller}, round {round}");
                }
                answers.send(caller).expect("the test is listening");
            });
        }
        drop(answers);
        // Dropping B runs every caller task to its end; a task that
        // panicked sends nothing.
        drop(b);
        let mut done: Vec<usize> = answered.iter().collect();
        done.sort_unstable();
        assert_eq!(done, (0..CALLERS).collect::<Vec<_>>());
    });
}

#[test]
fn maps_answer_while_both_workers_are_held_and_after_release() {
    within_deadline("held workers", || {
        let pool = Pool::new(2);
        let calls = AtomicUsize::new(0);
        // Both workers wait for a release while the callers' first maps
        // run, so those maps answer with no helper started: each runs its
        // job alone and takes its helpers back off the queues.
        let (arrive, arrived) = mpsc::channel();
        let mut release = Vec::new();
        for _ in 0..2 {
            let (go, held) = mpsc::channel::<()>();
            release.push(go);
            let arrive = arrive.clone();
            pool.spawn(move || {
                arrive.send(()).expect("the test is listening");
                let _ = held.recv();
            });
        }
        for _ in 0..2 {
            arrived.recv().expect("a worker took its hold");
        }
        // Each caller's first rounds run while both workers are held.
        const HELD: usize = 16;
        let held_done = Barrier::new(CALLERS + 1);
        thread::scope(|scope| {
            for caller in 0..CALLERS {
                let (pool, calls, held_done) = (&pool, &calls, &held_done);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        if round == HELD {
                            held_done.wait();
                        }
                        // The job, its closure's prefix and its items die
                        // with this frame: a helper left queued that
                        // touched them later would read freed memory.
                        let prefix = format!("{caller}:{round}:");
                        let items: Vec<Vec<usize>> =
                            (0..ITEMS).map(|i| vec![i; i % 5 + 1]).collect();
                        let out = pool.map(3, items, |v| {
                            calls.fetch_add(1, Ordering::Relaxed);
                            format!("{prefix}{}", v[0] * v[0])
                        });
                        let want: Vec<String> =
                            (0..ITEMS).map(|i| expected(caller, round, i)).collect();
                        assert_eq!(out, want, "caller {caller}, round {round}");
                    }
                });
            }
            // Every caller's first maps have answered: release the
            // workers while the next maps run.
            held_done.wait();
            drop(release);
        });
        assert_eq!(calls.load(Ordering::Relaxed), CALLERS * ROUNDS * ITEMS);
    });
}
