//! Property-based tests for the R*-tree: structural invariants hold and
//! queries agree with brute force under arbitrary insert workloads.

use proptest::prelude::*;
use tsq_rtree::{RStarTree, RTreeConfig, Rect};

fn pt(xy: (f64, f64)) -> Vec<f64> {
    vec![xy.0, xy.1]
}

fn points_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every inserted item is found by a window query covering it, and
    /// invariants hold after each insertion batch.
    #[test]
    fn insert_then_query_exact(points in points_strategy(300), fanout in 4usize..16) {
        let mut tree = RStarTree::new(RTreeConfig::with_max_entries(fanout));
        for (i, &p) in points.iter().enumerate() {
            tree.insert_point(&pt(p), i);
        }
        tree.validate();
        prop_assert_eq!(tree.len(), points.len());
        // Window query equals brute-force filtering.
        let q = Rect::new(vec![-250.0, -250.0], vec![400.0, 300.0]);
        let (mut got, _) = tree.search_collect(&q);
        let mut got: Vec<usize> = got.drain(..).copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.view().contains_point(&[x, y]))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// KNN agrees with a brute-force scan for arbitrary data and queries.
    #[test]
    fn knn_matches_brute(points in points_strategy(200),
                         q in (-1e3f64..1e3, -1e3f64..1e3),
                         k in 1usize..20) {
        let mut tree = RStarTree::new(RTreeConfig::with_max_entries(8));
        for (i, &p) in points.iter().enumerate() {
            tree.insert_point(&pt(p), i);
        }
        let (got, _) = tree.nearest_to_point(k, &pt(q));
        // The brute force reads what the tree stores: each point's box,
        // its bounds rounded outward to `f32`, which contains the point.
        let mut dists: Vec<f64> = tree
            .iter()
            .map(|(rect, &i)| {
                assert!(rect.contains_point(&pt(points[i])));
                rect.min_dist2(&pt(q)).sqrt()
            })
            .collect();
        dists.sort_by(f64::total_cmp);
        dists.truncate(k);
        prop_assert_eq!(got.len(), dists.len());
        for (g, w) in got.iter().zip(&dists) {
            prop_assert!((g.distance - w).abs() < 1e-6);
        }
    }

    /// Bulk load produces a valid tree answering queries identically to
    /// incremental insertion.
    #[test]
    fn bulk_equals_incremental(points in points_strategy(400),
                               window in (-1e3f64..0.0, -1e3f64..0.0, 0.0f64..1e3, 0.0f64..1e3)) {
        let items: Vec<(Rect, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| (Rect::from_point(&pt(p)), i))
            .collect();
        let bulk = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), items.clone());
        bulk.validate();
        let mut incr = RStarTree::new(RTreeConfig::with_max_entries(8));
        for (r, i) in items {
            incr.insert(r, i);
        }
        let q = Rect::new(vec![window.0, window.1], vec![window.2, window.3]);
        let (mut a, _) = bulk.search_collect(&q);
        let (mut b, _) = incr.search_collect(&q);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
