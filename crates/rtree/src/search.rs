//! Range search with a pluggable rectangle test — the hook that makes
//! Algorithm 1/2 of the paper possible.
//!
//! [`search_with`] hands every *stored* MBR to a caller-supplied
//! acceptance closure. `tsq-core` implements the paper's transformed search
//! by applying a safe transformation `T` to the MBR inside that closure and
//! testing the result against the (transformed-space) search rectangle:
//! the transformed index `I' = T(I)` is materialized lazily, node by node,
//! during traversal, with no extra disk overhead.
//!
//! The visitor is written once over [`NodeStore`]; the in-memory and the
//! paged tree's `search_with` methods both call it. It keeps each node's
//! guard while it visits the node's subtree, so a paged search holds the
//! pins of one root-to-leaf path at a time.

use tsq_store::StoreResult;

use crate::node::{infallible, NodeStore, Slot};
use crate::paged::PagedTree;
use crate::rect::{Rect, RectView};
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// Generic guided traversal over any [`NodeStore`] — the one range
/// visitor in the workspace.
///
/// `accept` is called on the bounding rectangle of every entry reached
/// (internal MBRs *and* leaf rectangles); subtrees whose MBR is rejected
/// are pruned. Accepted leaf entries are passed to `on_candidate`. Both
/// receive the stored rectangle as a [`RectView`] into the node, readable
/// only during the call (a paged node is released once its subtree is
/// done).
///
/// Returns per-query access statistics; one visited node models one disk
/// access, and a store that measures its fetches adds the pool counters.
///
/// # Errors
/// The store's fetch error (none for the in-memory store).
pub fn search_with<S, A, C>(
    store: S,
    mut accept: A,
    mut on_candidate: C,
) -> Result<SearchStats, S::Error>
where
    S: NodeStore,
    A: FnMut(RectView<'_>) -> bool,
    C: FnMut(RectView<'_>, S::Item),
{
    let mut stats = SearchStats::default();
    if !store.is_empty() {
        visit(
            store,
            store.root(),
            &mut accept,
            &mut on_candidate,
            &mut stats,
        )?;
    }
    Ok(stats)
}

fn visit<S, A, C>(
    store: S,
    node: S::Ref,
    accept: &mut A,
    on_candidate: &mut C,
    stats: &mut SearchStats,
) -> Result<(), S::Error>
where
    S: NodeStore,
    A: FnMut(RectView<'_>) -> bool,
    C: FnMut(RectView<'_>, S::Item),
{
    // The guard stays alive while children are visited: a paged parent
    // cannot be evicted mid-recursion.
    let node = store.fetch(node, stats)?;
    stats.nodes_visited += 1;
    // One loop per level kind: each then reads a single entry variant,
    // which is what lets the in-memory instantiation compile to the
    // direct field walk.
    if S::level(&node) == 0 {
        stats.leaves_visited += 1;
        for entry in S::entries(&node) {
            stats.entries_tested += 1;
            if let Slot::Item(rect, item) = entry {
                if accept(rect) {
                    stats.candidates += 1;
                    on_candidate(rect, item);
                }
            }
        }
    } else {
        for entry in S::entries(&node) {
            stats.entries_tested += 1;
            if let Slot::Child(rect, child) = entry {
                if accept(rect) {
                    visit(store, child, accept, on_candidate, stats)?;
                }
            }
        }
    }
    Ok(())
}

impl<T> RStarTree<T> {
    /// [`search_with`] over the in-memory nodes, which cannot fail.
    pub fn search_with<'a, A, C>(&'a self, accept: A, on_candidate: C) -> SearchStats
    where
        A: FnMut(RectView<'_>) -> bool,
        C: FnMut(RectView<'_>, &'a T),
    {
        infallible(search_with(self, accept, on_candidate))
    }

    /// Classic window query: all items whose stored rectangle intersects
    /// `query`.
    pub fn search<'a, C>(&'a self, query: &Rect, on_candidate: C) -> SearchStats
    where
        C: FnMut(RectView<'_>, &'a T),
    {
        self.search_with(|r| r.intersects(query.view()), on_candidate)
    }

    /// Window query collecting matches into a vector.
    pub fn search_collect(&self, query: &Rect) -> (Vec<&T>, SearchStats) {
        let mut out = Vec::new();
        let stats = self.search(query, |_, item| out.push(item));
        (out, stats)
    }
}

impl PagedTree {
    /// [`search_with`] with every node fetch going through the buffer
    /// pool: the stats carry measured `pool_hits`/`pool_misses` next to
    /// the traversal counters.
    ///
    /// # Errors
    /// Typed [`tsq_store::StoreError`]s when a page cannot be read or
    /// decodes as corrupt.
    pub fn search_with<A, C>(&self, accept: A, on_candidate: C) -> StoreResult<SearchStats>
    where
        A: FnMut(RectView<'_>) -> bool,
        C: FnMut(RectView<'_>, u64),
    {
        search_with(self, accept, on_candidate)
    }

    /// Plain window query.
    ///
    /// # Errors
    /// Same as [`PagedTree::search_with`].
    pub fn search<C>(&self, query: &Rect, on_candidate: C) -> StoreResult<SearchStats>
    where
        C: FnMut(RectView<'_>, u64),
    {
        self.search_with(|r| r.intersects(query.view()), on_candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn grid_tree(n: usize, fanout: usize) -> RStarTree<(usize, usize)> {
        let cells = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        let items = cells.map(|(i, j)| (Rect::from_point(&[i as f64, j as f64]), (i, j)));
        RStarTree::bulk_load(RTreeConfig::with_max_entries(fanout), items.collect())
    }

    #[test]
    fn window_query_matches_filter() {
        let t = grid_tree(20, 8);
        let q = Rect::new(vec![3.5, 3.5], vec![7.0, 10.0]);
        let (mut got, stats) = t.search_collect(&q);
        got.sort_unstable();
        let mut want = Vec::new();
        for i in 4..=7 {
            for j in 4..=10 {
                want.push((i, j));
            }
        }
        let got: Vec<(usize, usize)> = got.into_iter().copied().collect();
        assert_eq!(got, want);
        assert!(stats.nodes_visited > 0);
        assert!(stats.nodes_visited < 400, "should prune most of the tree");
    }

    #[test]
    fn empty_query_region() {
        let t = grid_tree(10, 6);
        let q = Rect::new(vec![100.0, 100.0], vec![101.0, 101.0]);
        let (got, _) = t.search_collect(&q);
        assert!(got.is_empty());
    }

    #[test]
    fn whole_space_query_returns_everything() {
        let t = grid_tree(12, 6);
        let q = Rect::new(vec![-1.0, -1.0], vec![12.0, 12.0]);
        let (got, stats) = t.search_collect(&q);
        assert_eq!(got.len(), 144);
        // Every node must be touched.
        assert_eq!(stats.candidates, 144);
    }

    #[test]
    fn search_on_empty_tree() {
        let t: RStarTree<u8> = RStarTree::default();
        let q = Rect::new(vec![0.0], vec![1.0]);
        let (got, stats) = t.search_collect(&q);
        assert!(got.is_empty());
        assert_eq!(stats.nodes_visited, 0);
    }

    #[test]
    fn search_with_affine_transform_hook() {
        // Emulates Algorithm 2: the tree stores original points; the query
        // is posed against the *transformed* data T(x) = 2x + 1, by
        // transforming every stored MBR during traversal.
        let t = grid_tree(10, 6);
        let a = [2.0, 2.0];
        let b = [1.0, 1.0];
        // Query window in transformed space: transformed points land on
        // odd coordinates 1,3,..,19.
        let q = Rect::new(vec![4.5, 4.5], vec![9.5, 9.5]);
        let mut got: Vec<(usize, usize)> = Vec::new();
        t.search_with(
            |r| r.affine(&a, &b).view().intersects(q.view()),
            |_, &item| got.push(item),
        );
        got.sort_unstable();
        // 2i+1 in [4.5, 9.5] -> i in {2, 3, 4}
        let mut want = Vec::new();
        for i in 2..=4 {
            for j in 2..=4 {
                want.push((i, j));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn transformed_search_same_accesses_as_plain_for_identity() {
        // The paper's Figure 8/9 claim: with the identity transformation the
        // number of disk accesses equals the plain query's.
        let t = grid_tree(16, 8);
        let q = Rect::new(vec![2.2, 2.2], vec![8.8, 8.8]);
        let plain = t.search(&q, |_, _| {});
        let identity = t.search_with(
            |r| {
                r.affine(&[1.0, 1.0], &[0.0, 0.0])
                    .view()
                    .intersects(q.view())
            },
            |_, _| {},
        );
        assert_eq!(plain.nodes_visited, identity.nodes_visited);
        assert_eq!(plain.candidates, identity.candidates);
    }
}
