//! Spatial joins.
//!
//! The paper processes all-pairs queries "as a spatial join using the index"
//! where "we transform all objects used in the join predicate before we
//! compute the predicate" (Section 4). Two strategies are provided:
//!
//! - [`join_with`] — synchronized tree↔tree traversal pruning pairs of
//!   subtrees whose (transformed) MBRs are farther apart than the distance
//!   threshold, written once over [`NodeStore`]; [`spatial_join`] /
//!   [`spatial_join_with`] (two in-memory trees) and
//!   [`PagedTree::self_join_with`] call it;
//! - index-nested-loop joins are composed by callers from
//!   [`RStarTree::search_with`], which is what the paper's Table 1 methods
//!   (c) and (d) do.

use tsq_store::StoreResult;

use crate::node::{infallible, EntryId, NodeStore, Slot};
use crate::paged::PagedTree;
use crate::rect::Rect;
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// Synchronized join of two [`NodeStore`]s — the one join recursion in
/// the workspace — with a caller-supplied **lower bound** on the distance
/// between the objects inside two stored rectangles.
///
/// `pair_bound(ida, ra, idb, rb)` receives *stored* rectangles from either
/// side and must return a value that never exceeds the true distance
/// between any object in `ra` and any object in `rb` (after whatever
/// transformation the caller applies inside the closure). Pairs with
/// `pair_bound > eps` are pruned; every surviving leaf pair is passed to
/// `out`. The [`EntryId`]s name the rectangles within their own store:
/// the join revisits each node MBR once per pairing, so a caller whose
/// bound is expensive memoizes per id.
///
/// This generalization matters for the paper's polar coordinate space,
/// where coordinate-wise rectangle distance is *not* a valid bound of the
/// complex-plane distance (angles wrap), and an annular-sector bound must
/// be used instead.
///
/// When both arguments are the *same* store, identical entries (`a` is the
/// very same slot as `b`) are skipped, but each unordered pair is still
/// reported twice — once in each order — matching the paper's Table 1
/// accounting, where the transformed self-join answer of 12 pairs is listed
/// as `12 x 2 = 24`.
///
/// Both nodes of a pair stay fetched across the recursion below them;
/// visiting the pair `(p, p)` of a paged store pins the same page twice,
/// which the pool counts as one miss and one hit (or two hits) — the
/// honest I/O accounting.
///
/// # Errors
/// The stores' fetch error (none for in-memory stores).
///
/// # Panics
/// If `eps` is negative.
pub fn join_with<A, B, PB, OUT>(
    a: A,
    b: B,
    mut pair_bound: PB,
    eps: f64,
    mut out: OUT,
) -> Result<SearchStats, A::Error>
where
    A: NodeStore,
    B: NodeStore<Error = A::Error>,
    PB: FnMut(EntryId, &Rect, EntryId, &Rect) -> f64,
    OUT: FnMut(&Rect, A::Item, &Rect, B::Item),
{
    assert!(eps >= 0.0, "join distance must be non-negative");
    let mut stats = SearchStats::default();
    if !a.is_empty() && !b.is_empty() {
        let mut join = Join {
            a,
            b,
            same_store: a.store_id() == b.store_id(),
            pair_bound: &mut pair_bound,
            eps,
            out: &mut out,
            stats: &mut stats,
        };
        join.pair(a.root(), b.root())?;
    }
    Ok(stats)
}

/// What stays fixed across one join's recursion.
struct Join<'j, A, B, PB, OUT> {
    a: A,
    b: B,
    same_store: bool,
    pair_bound: &'j mut PB,
    eps: f64,
    out: &'j mut OUT,
    stats: &'j mut SearchStats,
}

impl<A, B, PB, OUT> Join<'_, A, B, PB, OUT>
where
    A: NodeStore,
    B: NodeStore<Error = A::Error>,
    PB: FnMut(EntryId, &Rect, EntryId, &Rect) -> f64,
    OUT: FnMut(&Rect, A::Item, &Rect, B::Item),
{
    /// One bound test: true when the pair survives pruning.
    fn close(&mut self, ida: EntryId, ra: &Rect, idb: EntryId, rb: &Rect) -> bool {
        self.stats.entries_tested += 1;
        (self.pair_bound)(ida, ra, idb, rb) <= self.eps
    }

    fn pair(&mut self, ra: A::Ref, rb: B::Ref) -> Result<(), A::Error> {
        let na = self.a.fetch(ra, self.stats)?;
        let nb = self.b.fetch(rb, self.stats)?;
        self.stats.nodes_visited += 1;
        match (A::level(&na) == 0, B::level(&nb) == 0) {
            (true, true) => {
                self.stats.leaves_visited += 1;
                let same_node = self.same_store && A::node_id(ra) == B::node_id(rb);
                for (ai, entry_a) in A::entries(&na).enumerate() {
                    let Slot::Item(rect_a, item_a) = entry_a else {
                        unreachable!("child entry in leaf");
                    };
                    for (bi, entry_b) in B::entries(&nb).enumerate() {
                        let Slot::Item(rect_b, item_b) = entry_b else {
                            unreachable!("child entry in leaf");
                        };
                        // Skip the literally-same entry in a self-join.
                        if same_node && ai == bi {
                            continue;
                        }
                        if self.close(A::entry_id(ra, ai), rect_a, B::entry_id(rb, bi), rect_b) {
                            self.stats.candidates += 1;
                            (self.out)(rect_a, item_a, rect_b, item_b);
                        }
                    }
                }
            }
            (false, true) => {
                let mbr_b = mbr::<B>(&nb);
                for (ai, entry_a) in A::entries(&na).enumerate() {
                    let Slot::Child(rect_a, child_a) = entry_a else {
                        unreachable!("leaf entry in internal node");
                    };
                    if self.close(A::entry_id(ra, ai), rect_a, B::node_id(rb), &mbr_b) {
                        self.pair(child_a, rb)?;
                    }
                }
            }
            (true, false) => {
                let mbr_a = mbr::<A>(&na);
                for (bi, entry_b) in B::entries(&nb).enumerate() {
                    let Slot::Child(rect_b, child_b) = entry_b else {
                        unreachable!("leaf entry in internal node");
                    };
                    if self.close(A::node_id(ra), &mbr_a, B::entry_id(rb, bi), rect_b) {
                        self.pair(ra, child_b)?;
                    }
                }
            }
            (false, false) => {
                for (ai, entry_a) in A::entries(&na).enumerate() {
                    let Slot::Child(rect_a, child_a) = entry_a else {
                        unreachable!("leaf entry in internal node");
                    };
                    for (bi, entry_b) in B::entries(&nb).enumerate() {
                        let Slot::Child(rect_b, child_b) = entry_b else {
                            unreachable!("leaf entry in internal node");
                        };
                        if self.close(A::entry_id(ra, ai), rect_a, B::entry_id(rb, bi), rect_b) {
                            self.pair(child_a, child_b)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Bounding rectangle of a fetched node's entries.
fn mbr<S: NodeStore>(node: &S::Guard) -> Rect {
    let mut entries = S::entries(node);
    let first = entries
        .next()
        .expect("a populated store holds no empty node");
    let mut mbr = first.rect().clone();
    for entry in entries {
        mbr.union_assign(entry.rect());
    }
    mbr
}

/// [`join_with`] over two in-memory trees, which cannot fail, for a bound
/// that needs no memo.
pub fn spatial_join_with<'a, T, U, B, OUT>(
    a: &'a RStarTree<T>,
    b: &'a RStarTree<U>,
    mut pair_bound: B,
    eps: f64,
    out: OUT,
) -> SearchStats
where
    B: FnMut(&Rect, &Rect) -> f64,
    OUT: FnMut(&Rect, &'a T, &Rect, &'a U),
{
    infallible(join_with(a, b, |_, ra, _, rb| pair_bound(ra, rb), eps, out))
}

/// Plain Euclidean-space join: invokes `out` for every pair of leaf entries
/// `(a, b)` whose transformed rectangles `ta(ra)`, `tb(rb)` lie within
/// Euclidean distance `eps` of each other (MBR-to-MBR distance; exact
/// point-level filtering is the caller's post-processing step, mirroring
/// Algorithm 2's structure).
pub fn spatial_join<'a, T, U, FA, FB, OUT>(
    a: &'a RStarTree<T>,
    b: &'a RStarTree<U>,
    mut ta: FA,
    mut tb: FB,
    eps: f64,
    out: OUT,
) -> SearchStats
where
    FA: FnMut(&Rect) -> Rect,
    FB: FnMut(&Rect) -> Rect,
    OUT: FnMut(&Rect, &'a T, &Rect, &'a U),
{
    spatial_join_with(
        a,
        b,
        move |ra, rb| ta(ra).rect_min_dist2(&tb(rb)).sqrt(),
        eps,
        out,
    )
}

impl PagedTree {
    /// [`join_with`] of this tree with itself (the only join shape the
    /// engine ever runs — every `JOIN` is a single-relation self-join),
    /// for a bound that needs no memo.
    ///
    /// # Errors
    /// Typed [`tsq_store::StoreError`]s when a page cannot be read or
    /// decodes as corrupt.
    ///
    /// # Panics
    /// If `eps` is negative, like the in-memory join.
    pub fn self_join_with<B, OUT>(
        &self,
        mut pair_bound: B,
        eps: f64,
        out: OUT,
    ) -> StoreResult<SearchStats>
    where
        B: FnMut(&Rect, &Rect) -> f64,
        OUT: FnMut(&Rect, u64, &Rect, u64),
    {
        join_with(self, self, |_, ra, _, rb| pair_bound(ra, rb), eps, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn tree_from(points: &[[f64; 2]]) -> RStarTree<usize> {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(5));
        for (i, p) in points.iter().enumerate() {
            t.insert_point(p, i);
        }
        t
    }

    fn id(r: &Rect) -> Rect {
        r.clone()
    }

    #[test]
    fn join_finds_close_pairs() {
        let a = tree_from(&[[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]]);
        let b = tree_from(&[[0.5, 0.0], [15.0, 15.0]]);
        let mut pairs = Vec::new();
        spatial_join(&a, &b, id, id, 1.0, |_, &x, _, &y| pairs.push((x, y)));
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn join_matches_brute_force() {
        // Deterministic pseudo-random point clouds.
        let pts_a: Vec<[f64; 2]> = (0..80)
            .map(|i| [((i * 37) % 101) as f64, ((i * 53) % 97) as f64])
            .collect();
        let pts_b: Vec<[f64; 2]> = (0..60)
            .map(|i| [((i * 71) % 103) as f64, ((i * 29) % 89) as f64])
            .collect();
        let a = tree_from(&pts_a);
        let b = tree_from(&pts_b);
        let eps = 7.5;
        let mut got = Vec::new();
        spatial_join(&a, &b, id, id, eps, |_, &x, _, &y| got.push((x, y)));
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, pa) in pts_a.iter().enumerate() {
            for (j, pb) in pts_b.iter().enumerate() {
                let d2 = (pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2);
                if d2 <= eps * eps {
                    want.push((i, j));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn self_join_reports_each_pair_twice() {
        let pts: Vec<[f64; 2]> = vec![[0.0, 0.0], [0.5, 0.0], [100.0, 100.0]];
        let t = tree_from(&pts);
        let mut pairs = Vec::new();
        spatial_join(&t, &t, id, id, 1.0, |_, &x, _, &y| pairs.push((x, y)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn transformed_join() {
        // Side b is reflected through the origin before matching: pairs are
        // (p, q) with |p + q| <= eps — the paper's T_rev hedging query.
        let a = tree_from(&[[1.0, 2.0], [5.0, 5.0]]);
        let b = tree_from(&[[-1.0, -2.0], [4.0, 4.0]]);
        let mut pairs = Vec::new();
        spatial_join(
            &a,
            &b,
            id,
            |r| r.affine(&[-1.0, -1.0], &[0.0, 0.0]),
            0.1,
            |_, &x, _, &y| pairs.push((x, y)),
        );
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn join_with_empty_tree() {
        let a = tree_from(&[[0.0, 0.0]]);
        let b: RStarTree<usize> = RStarTree::default();
        let mut called = false;
        spatial_join(&a, &b, id, id, 10.0, |_, _, _, _| called = true);
        assert!(!called);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_eps_panics() {
        let a = tree_from(&[[0.0, 0.0]]);
        spatial_join(&a, &a, id, id, -1.0, |_, _, _, _| {});
    }

    #[test]
    fn join_prunes_subtrees() {
        // Two distant clusters: the cross-cluster subtree pairs must be
        // pruned, so entry tests stay far below the n*m worst case.
        let pts_a: Vec<[f64; 2]> = (0..100)
            .map(|i| [i as f64 % 10.0, (i / 10) as f64])
            .collect();
        let pts_b: Vec<[f64; 2]> = pts_a
            .iter()
            .map(|p| [p[0] + 1000.0, p[1] + 1000.0])
            .collect();
        let mut both = pts_a.clone();
        both.extend_from_slice(&pts_b);
        let t = tree_from(&both);
        let stats = spatial_join(&t, &t, id, id, 2.0, |_, _, _, _| {});
        assert!(
            stats.entries_tested < 200 * 200 / 4,
            "join should prune: {} tests",
            stats.entries_tested
        );
    }

    #[test]
    fn custom_bound_join() {
        // A bound of zero disables pruning: every cross pair is reported.
        let a = tree_from(&[[0.0, 0.0], [5.0, 5.0]]);
        let b = tree_from(&[[100.0, 100.0]]);
        let mut n = 0;
        spatial_join_with(&a, &b, |_, _| 0.0, 0.5, |_, _, _, _| n += 1);
        assert_eq!(n, 2);
    }
}
