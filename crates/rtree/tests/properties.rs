//! Property-based tests for the R*-tree: structural invariants hold and
//! queries agree with brute force over arbitrary STR-packed point sets.

use tsq_rtree::{RStarTree, RTreeConfig, Rect};
use tsq_testkit::{property, Rng};

/// Cases per property.
const CASES: u32 = 48;

fn pt(xy: (f64, f64)) -> Vec<f64> {
    vec![xy.0, xy.1]
}

fn point(rng: &mut Rng) -> (f64, f64) {
    (rng.float(-1e3..1e3), rng.float(-1e3..1e3))
}

fn points(rng: &mut Rng, max: usize) -> Vec<(f64, f64)> {
    rng.list(1..=max, point)
}

/// The tree over `points` at `fanout`, point `i` stored under payload `i`.
fn packed(points: &[(f64, f64)], fanout: usize) -> RStarTree<usize> {
    let items = points.iter().enumerate();
    let items = items.map(|(i, &p)| (Rect::from_point(&pt(p)), i)).collect();
    RStarTree::bulk_load(RTreeConfig::with_max_entries(fanout), items)
}

/// Every loaded item is found by a window query covering it, and the
/// packed tree's invariants hold.
#[test]
fn insert_then_query_exact() {
    let draw = |rng: &mut Rng| (points(rng, 300), rng.range(4, 15));
    property("insert_then_query_exact", CASES, draw, |points, &fanout| {
        let tree = packed(points, fanout);
        tree.validate();
        assert_eq!(tree.len(), points.len());
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
        assert_eq!(got, want);
    });
}

/// KNN agrees with a brute-force scan for arbitrary data and queries.
#[test]
fn knn_matches_brute() {
    let draw = |rng: &mut Rng| (points(rng, 200), (point(rng), rng.range(1, 19)));
    property("knn_matches_brute", CASES, draw, |points, &(q, k)| {
        let tree = packed(points, 8);
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
        assert_eq!(got.len(), dists.len());
        for (g, w) in got.iter().zip(&dists) {
            assert!((g.distance - w).abs() < 1e-6);
        }
    });
}
