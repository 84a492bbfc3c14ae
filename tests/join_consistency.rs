//! Table 1 consistency: the four join methods agree on the answer set,
//! with the paper's double-counting semantics for index-based methods.

use tsq_core::{IndexConfig, LinearTransform, ScanMode, SimilarityIndex};
use tsq_series::generate::StockGenerator;

fn stock_index(count: usize, seed: u64) -> SimilarityIndex {
    let rel = StockGenerator::new(seed).relation(count, 128);
    SimilarityIndex::build(IndexConfig::default(), rel).unwrap()
}

fn undirected(pairs: &[tsq_core::JoinPair]) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a.min(p.b), p.a.max(p.b))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn all_methods_agree_under_mavg20() {
    let idx = stock_index(120, 3001);
    let t = LinearTransform::moving_average(128, 20);
    let eps = 1.5;
    let a = idx.join_scan(eps, &t, ScanMode::Naive).unwrap();
    let b = idx.join_scan(eps, &t, ScanMode::EarlyAbandon).unwrap();
    let d = idx.join_index(eps, &t).unwrap();

    // (a) == (b), reported once per pair.
    assert_eq!(a.pairs.len(), b.pairs.len());
    let once: Vec<(usize, usize)> = a.pairs.iter().map(|p| (p.a, p.b)).collect();
    // (d) reports each pair twice.
    assert_eq!(d.pairs.len(), 2 * a.pairs.len());
    assert_eq!(undirected(&d.pairs), once);
}

#[test]
fn method_c_differs_from_method_d() {
    // Method (c) omits the transformation; on stock-like data the smoothed
    // join (d) admits at least as many pairs, usually more.
    let idx = stock_index(150, 3002);
    let eps = 1.5;
    let c = idx
        .join_index(eps, &LinearTransform::identity(128))
        .unwrap();
    let d = idx
        .join_index(eps, &LinearTransform::moving_average(128, 20))
        .unwrap();
    assert!(d.pairs.len() >= c.pairs.len());
}

#[test]
fn reverse_join_finds_planted_opposites() {
    // A join between r and T_rev(r): pairs of opposite movers (Example
    // 2.2). The generator plants inverse-loading stocks, so with a sane
    // threshold the answer is non-empty — and every reported pair is
    // negatively correlated.
    let mut gen = StockGenerator::new(3003);
    gen.inverse_fraction = 0.3;
    gen.twin_fraction = 0.0; // isolate the planted-opposites property
    let rel = gen.relation(100, 128);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
    // Applying reverse to the data side of a range query per series i is
    // the join r x T_rev(r).
    let rev = LinearTransform::reverse(128);
    let mut opposite_pairs = 0usize;
    for i in 0..idx.len() {
        let q = idx.series(i).unwrap().clone();
        let (matches, _) = idx
            .range_query(&q, 6.0, &rev, &tsq_core::QueryWindow::default())
            .unwrap();
        for m in matches {
            if m.id != i {
                opposite_pairs += 1;
                let corr = tsq_series::stats::pearson(
                    tsq_series::normal::normal_form(&rel[i]).values(),
                    tsq_series::normal::normal_form(&rel[m.id]).values(),
                );
                assert!(corr < 0.0, "pair ({i}, {}) corr {corr}", m.id);
            }
        }
    }
    assert!(opposite_pairs > 0, "planted opposite movers must be found");
}

#[test]
fn join_stats_reflect_strategy() {
    let idx = stock_index(80, 3004);
    let t = LinearTransform::moving_average(128, 20);
    let scan = idx.join_scan(1.0, &t, ScanMode::EarlyAbandon).unwrap();
    let index_join = idx.join_index(1.0, &t).unwrap();
    // Scan does exactly n*(n-1)/2 exact checks.
    assert_eq!(scan.stats.exact_checks, 80 * 79 / 2);
    // The index join does far fewer exact checks than the scan.
    assert!(
        index_join.stats.exact_checks < scan.stats.exact_checks,
        "{} !< {}",
        index_join.stats.exact_checks,
        scan.stats.exact_checks
    );
    // And it reports its node accesses.
    assert!(index_join.stats.index.nodes_visited > 0);
}

#[test]
fn table_1_shape_on_stand_in_relation() {
    // The paper's Table 1 relation: 1067 stocks, length 128, T_mavg20.
    // We reproduce the *shape* on the synthetic stand-in with a smaller
    // population for test speed: `paper_shapes.rs` pins the full-size
    // run. Answer sizes: method d = 2x method a; method c typically
    // smaller than d (3 vs 12 in the paper).
    let mut gen = StockGenerator::new(3005);
    gen.inverse_fraction = 0.05;
    let rel = gen.relation(200, 128);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let t = LinearTransform::moving_average(128, 20);
    let eps = 1.0;
    let a = idx.join_scan(eps, &t, ScanMode::Naive).unwrap();
    let d = idx.join_index(eps, &t).unwrap();
    let c = idx
        .join_index(eps, &LinearTransform::identity(128))
        .unwrap();
    assert_eq!(d.pairs.len(), 2 * a.pairs.len());
    assert!(c.pairs.len() <= d.pairs.len());
}
