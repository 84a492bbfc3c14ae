//! Order-preserving fan-out over the persistent [`tsq_pool`] executor.
//!
//! These primitives used to spawn and join fresh OS threads through
//! `std::thread::scope` on every call — thread-creation tax on every
//! batch, every sharded scatter, every parallel bulk load. They are now
//! thin facades over [`tsq_pool::Pool::global`], the process-wide
//! work-stealing pool: submission is a queue push and a wakeup, workers
//! are long-lived and parked when idle, and a fan-out issued from inside
//! pool work runs inline on the owning worker (no deadlock, no
//! oversubscription).
//!
//! This crate is the lowest layer that fans out (STR bulk load,
//! partitioned search), so it is these helpers' single home —
//! `tsq_core::executor` re-exports [`parallel_map`].
//!
//! Both helpers preserve the sequential output order exactly, which is
//! what makes every parallel path in the workspace byte-identical to its
//! sequential oracle regardless of thread count.

/// Maps `f` over `items` with up to `threads`-way concurrency (the
/// calling thread plus pool workers), preserving order.
///
/// Workers claim indices from a shared atomic counter (work stealing), so
/// a workload mixing cheap and expensive items stays balanced. With
/// `threads <= 1`, a single item, or when already running on the pool
/// (nested fan-out) this is a plain sequential map and touches no queues.
/// A panicking item propagates its panic to the caller after the batch
/// settles, never a deadlock — and the pool keeps serving.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    tsq_pool::Pool::global().map(threads, items, f)
}

/// Runs `f` over `items` — disjoint mutable slices, or tuples of them —
/// using up to `threads`-way concurrency.
///
/// The items are distributed in contiguous groups; each group is one
/// pool item owned exclusively by whoever claims it, so no
/// synchronization is needed beyond the map itself.
pub(crate) fn par_for_each<T, F>(threads: usize, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut rest = items;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        parts.push(std::mem::replace(&mut rest, tail));
    }
    let f = &f;
    parallel_map(threads, parts, |part| {
        for item in part {
            f(item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 2).collect();
        for threads in [0usize, 1, 2, 3, 8, 200] {
            assert_eq!(
                parallel_map(threads, items.clone(), |i| i * 2),
                want,
                "threads = {threads}"
            );
        }
        assert!(parallel_map::<usize, usize, _>(4, Vec::new(), |i| i).is_empty());
    }

    #[test]
    fn slices_all_visited() {
        let mut data = vec![0u32; 90];
        for threads in [1usize, 2, 7] {
            data.fill(0);
            let slices: Vec<&mut [u32]> = data.chunks_mut(13).collect();
            par_for_each(threads, slices, |s| {
                for v in s.iter_mut() {
                    *v += 1;
                }
            });
            assert!(data.iter().all(|&v| v == 1), "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        parallel_map(2, vec![1, 2, 3, 4], |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn nested_parallel_map_runs_inline() {
        // An outer fan-out whose items fan out again must complete with
        // exact results — the inner maps inline on the owning worker.
        let outer: Vec<usize> = (0..6).collect();
        let got = parallel_map(4, outer, |o| {
            parallel_map(4, (0..10).collect::<Vec<usize>>(), |i| o * 10 + i)
                .into_iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = (0..6)
            .map(|o| (0..10).map(|i| o * 10 + i).sum::<usize>())
            .collect();
        assert_eq!(got, want);
    }
}
