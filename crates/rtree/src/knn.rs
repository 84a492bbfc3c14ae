//! Best-first nearest-neighbor search (Roussopoulos–Kelley–Vincent style
//! pruning generalized to the incremental best-first algorithm).
//!
//! Distances are pluggable: the caller supplies a *lower bound* for node
//! MBRs and an *exact* distance for leaf entries. For plain Euclidean KNN
//! these are `MINDIST` and the point distance; for the paper's transformed
//! queries (`find the k series most similar to q under T`), `tsq-core`
//! passes bounds computed on transformed rectangles, which keeps the search
//! correct with no false dismissals.
//!
//! The loop is written once over [`NodeStore`]; the in-memory and the
//! paged tree's `nearest_with_tie` methods both call it. The heap holds
//! node *references* and items, never guards, so a paged search pins one
//! page at a time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tsq_store::StoreResult;

use crate::node::{infallible, NodeStore, Slot};
use crate::paged::PagedTree;
use crate::rect::Rect;
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// One nearest-neighbor result: `&T` from an in-memory tree, the stored
/// `u64` word from a paged one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<I> {
    /// Exact distance reported by the caller's distance function.
    pub distance: f64,
    /// The item.
    pub item: I,
}

/// What waits on the heap: node *references* (never guards — a node is
/// only fetched once it is popped) and items whose distance is known.
enum Pending<S: NodeStore> {
    Node(S::Ref),
    Item(S::Item),
}

struct HeapEntry<S: NodeStore> {
    dist: f64,
    /// Push order: among equal distances the first pushed pops first.
    seq: u64,
    pending: Pending<S>,
}

impl<S: NodeStore> PartialEq for HeapEntry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<S: NodeStore> Eq for HeapEntry<S> {}
impl<S: NodeStore> PartialOrd for HeapEntry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: NodeStore> Ord for HeapEntry<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need smallest distance first.
        other
            .dist
            .total_cmp(&self.dist)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Best-first nearest-neighbor search over any [`NodeStore`] — the one
/// kNN loop in the workspace.
///
/// Returns the `k` items minimizing `exact_dist`, using `bound_dist` as
/// an admissible (never over-estimating) lower bound on node MBRs, sorted
/// by ascending distance; all items when the store holds fewer than `k`.
/// Among items at equal exact distance the ones with the smallest
/// `tie_key` win the boundary slots, and equal-distance results are
/// ordered by ascending key.
///
/// The loop only prunes when a heap distance is *strictly* greater than
/// the current `k`-th distance, so every item tied at the boundary is
/// examined — keying the insertion is enough to make the retained set
/// exactly the `k` smallest by `(distance, key)`.
///
/// `exact_dist(rect, item, bound)` may give up on an item: `bound` is the
/// largest of the `k` smallest exact distances computed so far (`+∞`
/// until `k` have been), and `None` says the item's distance is
/// *strictly* greater. Such an item is strictly farther than the final
/// `k`-th distance (which can only be smaller than `bound`), so it would
/// never have been popped: leaving it off the heap changes neither the
/// answer nor a counter.
///
/// Entries at equal distance leave the heap in the order they entered it
/// (nodes whose bounds tie — those containing the query, at 0 — are
/// visited breadth first): the visiting order, and so which pages a
/// bounded pool misses, is a function of the bounds and the tree, not of
/// the heap's layout, and an item left off the heap cannot reorder what
/// is popped before it.
///
/// A node is released before the next heap pop, so a paged search holds
/// one page at a time.
///
/// # Errors
/// The store's fetch error (none for the in-memory store).
#[allow(clippy::type_complexity)]
pub fn nearest_with_tie<S, B, E, K>(
    store: S,
    k: usize,
    mut bound_dist: B,
    mut exact_dist: E,
    mut tie_key: K,
) -> Result<(Vec<Neighbor<S::Item>>, SearchStats), S::Error>
where
    S: NodeStore,
    B: FnMut(&Rect) -> f64,
    E: FnMut(&Rect, S::Item, f64) -> Option<f64>,
    K: FnMut(S::Item) -> u64,
{
    let mut stats = SearchStats::default();
    if k == 0 || store.is_empty() {
        return Ok((Vec::new(), stats));
    }
    let mut results: Vec<(u64, Neighbor<S::Item>)> = Vec::with_capacity(k.min(store.len()));
    // The `k` smallest exact distances computed so far, ascending.
    let mut computed: Vec<f64> = Vec::with_capacity(k.min(store.len()) + 1);
    let mut heap: BinaryHeap<HeapEntry<S>> = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(HeapEntry {
        dist: 0.0,
        seq,
        pending: Pending::Node(store.root()),
    });
    while let Some(HeapEntry { dist, pending, .. }) = heap.pop() {
        if results.len() == k && dist > results[k - 1].1.distance {
            break; // nothing on the heap can beat the current k-th
        }
        match pending {
            Pending::Node(node) => {
                let node = store.fetch(node, &mut stats)?;
                stats.nodes_visited += 1;
                // One loop per level kind, as in the range visitor: each
                // reads a single entry variant.
                if S::level(&node) == 0 {
                    stats.leaves_visited += 1;
                    for entry in S::entries(&node) {
                        stats.entries_tested += 1;
                        if let Slot::Item(rect, item) = entry {
                            let bound = computed.get(k - 1).copied().unwrap_or(f64::INFINITY);
                            let Some(dist) = exact_dist(rect, item, bound) else {
                                continue;
                            };
                            let at = computed.partition_point(|d| d.total_cmp(&dist).is_le());
                            computed.insert(at, dist);
                            computed.truncate(k);
                            seq += 1;
                            heap.push(HeapEntry {
                                dist,
                                seq,
                                pending: Pending::Item(item),
                            });
                        }
                    }
                } else {
                    for entry in S::entries(&node) {
                        stats.entries_tested += 1;
                        if let Slot::Child(rect, child) = entry {
                            seq += 1;
                            heap.push(HeapEntry {
                                dist: bound_dist(rect),
                                seq,
                                pending: Pending::Node(child),
                            });
                        }
                    }
                }
            }
            Pending::Item(item) => {
                stats.candidates += 1;
                // When the k-th distance is settled, the loop's break
                // condition prunes the remaining heap.
                let key = tie_key(item);
                let pos = results
                    .binary_search_by(|(pk, p)| p.distance.total_cmp(&dist).then(pk.cmp(&key)))
                    .unwrap_or_else(|p| p);
                results.insert(
                    pos,
                    (
                        key,
                        Neighbor {
                            distance: dist,
                            item,
                        },
                    ),
                );
                if results.len() > k {
                    results.pop();
                }
            }
        }
    }
    Ok((results.into_iter().map(|(_, n)| n).collect(), stats))
}

impl<T> RStarTree<T> {
    /// [`RStarTree::nearest_with_tie`] without a tie key: items tied in
    /// distance at the `k`-th boundary are kept in traversal order.
    pub fn nearest_with<'a, B, E>(
        &'a self,
        k: usize,
        bound_dist: B,
        exact_dist: E,
    ) -> (Vec<Neighbor<&'a T>>, SearchStats)
    where
        B: FnMut(&Rect) -> f64,
        E: FnMut(&Rect, &'a T) -> f64,
    {
        // A constant tie key makes the keyed comparator degenerate to the
        // distance-only comparator, so this wrapper changes nothing.
        self.nearest_with_tie(k, bound_dist, exact_dist, |_| 0)
    }

    /// [`nearest_with_tie`] over the in-memory nodes, which cannot fail,
    /// with every exact distance computed in full.
    pub fn nearest_with_tie<'a, B, E, K>(
        &'a self,
        k: usize,
        bound_dist: B,
        mut exact_dist: E,
        tie_key: K,
    ) -> (Vec<Neighbor<&'a T>>, SearchStats)
    where
        B: FnMut(&Rect) -> f64,
        E: FnMut(&Rect, &'a T) -> f64,
        K: FnMut(&'a T) -> u64,
    {
        let exact = |rect: &Rect, item, _| Some(exact_dist(rect, item));
        infallible(nearest_with_tie(self, k, bound_dist, exact, tie_key))
    }

    /// Euclidean k-nearest-neighbors of a query point, using `MINDIST`
    /// pruning on MBRs.
    pub fn nearest_to_point(&self, k: usize, point: &[f64]) -> (Vec<Neighbor<&T>>, SearchStats) {
        self.nearest_with(
            k,
            |rect| rect.min_dist2(point).sqrt(),
            |rect, _| rect.min_dist2(point).sqrt(),
        )
    }
}

impl PagedTree {
    /// [`nearest_with_tie`] with node fetches going through the buffer
    /// pool, with every exact distance computed in full.
    ///
    /// # Errors
    /// Typed [`tsq_store::StoreError`]s when a page cannot be read or
    /// decodes as corrupt.
    pub fn nearest_with_tie<B, E, K>(
        &self,
        k: usize,
        bound_dist: B,
        mut exact_dist: E,
        tie_key: K,
    ) -> StoreResult<(Vec<Neighbor<u64>>, SearchStats)>
    where
        B: FnMut(&Rect) -> f64,
        E: FnMut(&Rect, u64) -> f64,
        K: FnMut(u64) -> u64,
    {
        let exact = |rect: &Rect, item, _| Some(exact_dist(rect, item));
        nearest_with_tie(self, k, bound_dist, exact, tie_key)
    }

    /// Euclidean k-nearest-neighbors of a query point (no tie key).
    ///
    /// # Errors
    /// Same as [`PagedTree::nearest_with_tie`].
    pub fn nearest_to_point(
        &self,
        k: usize,
        point: &[f64],
    ) -> StoreResult<(Vec<Neighbor<u64>>, SearchStats)> {
        self.nearest_with_tie(
            k,
            |rect| rect.min_dist2(point).sqrt(),
            |rect, _| rect.min_dist2(point).sqrt(),
            |_| 0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn grid_tree(n: usize) -> RStarTree<(usize, usize)> {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(8));
        for i in 0..n {
            for j in 0..n {
                t.insert_point(&[i as f64, j as f64], (i, j));
            }
        }
        t
    }

    /// Brute-force reference.
    fn brute_knn(n: usize, k: usize, q: [f64; 2]) -> Vec<f64> {
        let mut d: Vec<f64> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| {
                let dx = i as f64 - q[0];
                let dy = j as f64 - q[1];
                (dx * dx + dy * dy).sqrt()
            })
            .collect();
        d.sort_by(f64::total_cmp);
        d.truncate(k);
        d
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = grid_tree(15);
        for q in [[0.0, 0.0], [7.3, 7.9], [20.0, -3.0], [14.0, 14.0]] {
            for k in [1usize, 5, 17] {
                let (got, _) = t.nearest_to_point(k, &q);
                let want = brute_knn(15, k, q);
                assert_eq!(got.len(), k);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.distance - w).abs() < 1e-9,
                        "q={q:?} k={k}: {} vs {w}",
                        g.distance
                    );
                }
            }
        }
    }

    #[test]
    fn knn_prunes() {
        let t = grid_tree(30); // 900 points
        let (_, stats) = t.nearest_to_point(3, &[15.0, 15.0]);
        assert!(
            stats.nodes_visited < 40,
            "best-first should visit few nodes, visited {}",
            stats.nodes_visited
        );
    }

    #[test]
    fn k_larger_than_tree() {
        let t = grid_tree(3);
        let (got, _) = t.nearest_to_point(100, &[0.0, 0.0]);
        assert_eq!(got.len(), 9);
        assert_eq!(t.nearest_to_point(usize::MAX, &[0.0, 0.0]).0, got);
        // Sorted ascending.
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let t = grid_tree(3);
        assert!(t.nearest_to_point(0, &[0.0, 0.0]).0.is_empty());
        let empty: RStarTree<u8> = RStarTree::default();
        assert!(empty.nearest_to_point(5, &[0.0]).0.is_empty());
    }

    #[test]
    fn transformed_knn_via_custom_metric() {
        // Nearest under T(x) = -x (the paper's reversing transformation):
        // the item minimizing |T(p) - q| differs from the plain nearest.
        let t = grid_tree(10);
        let q = [-3.0, -7.0];
        let (got, _) = t.nearest_with(
            1,
            |rect| rect.affine(&[-1.0, -1.0], &[0.0, 0.0]).min_dist2(&q).sqrt(),
            |rect, _| {
                let c = rect.center();
                let dx = -c[0] - q[0];
                let dy = -c[1] - q[1];
                (dx * dx + dy * dy).sqrt()
            },
        );
        assert_eq!(*got[0].item, (3, 7));
        assert!(got[0].distance < 1e-12);
    }

    #[test]
    fn boundary_ties_break_by_key() {
        // Eight points at identical distance from the query; k = 3 must
        // keep exactly the three smallest payloads regardless of the
        // insertion (and therefore traversal) order.
        for perm in 0..8u64 {
            let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
            for i in 0..8u64 {
                let id = (i + perm) % 8;
                let angle = id as f64 * std::f64::consts::FRAC_PI_4;
                t.insert_point(&[angle.cos(), angle.sin()], id);
            }
            let (got, _) = t.nearest_with_tie(
                3,
                |rect| rect.min_dist2(&[0.0, 0.0]).sqrt(),
                |_, _| 1.0, // all items exactly tied
                |&id| id,
            );
            let ids: Vec<u64> = got.iter().map(|n| *n.item).collect();
            assert_eq!(ids, vec![0, 1, 2], "perm {perm}");
        }
    }

    #[test]
    fn giving_up_past_the_kth_distance_changes_nothing() {
        // An exact closure that declines every item farther than the bound
        // it is handed: same neighbours, same distances, same counters as
        // the full computation, and it does decline some.
        let t = grid_tree(20);
        for q in [[3.2, 4.9], [10.0, 10.0], [25.0, -2.0]] {
            for k in [1usize, 4, 9] {
                let dist = |rect: &Rect| rect.min_dist2(&q).sqrt();
                let full = nearest_with_tie(
                    &t,
                    k,
                    dist,
                    |r, _, _| Some(dist(r)),
                    |&(i, j)| (i * 100 + j) as u64,
                );
                let mut declined = 0;
                let bounded = nearest_with_tie(
                    &t,
                    k,
                    dist,
                    |r, _, bound| {
                        let d = dist(r);
                        declined += usize::from(d > bound);
                        (d <= bound).then_some(d)
                    },
                    |&(i, j)| (i * 100 + j) as u64,
                );
                let (full, bounded) = (infallible(full), infallible(bounded));
                assert_eq!(full.0, bounded.0, "q={q:?} k={k}");
                assert_eq!(full.1, bounded.1, "q={q:?} k={k}");
                assert!(declined > 0, "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn ties_all_returned() {
        // Four symmetric points around the query at identical distance.
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        t.insert_point(&[1.0, 0.0], 0);
        t.insert_point(&[-1.0, 0.0], 1);
        t.insert_point(&[0.0, 1.0], 2);
        t.insert_point(&[0.0, -1.0], 3);
        let (got, _) = t.nearest_to_point(4, &[0.0, 0.0]);
        assert_eq!(got.len(), 4);
        for n in &got {
            assert!((n.distance - 1.0).abs() < 1e-12);
        }
    }
}
