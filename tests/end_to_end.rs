//! End-to-end Lemma-1 verification: the transformed-index query pipeline
//! returns exactly the answer set of a sequential scan, for every
//! transformation kind, both coordinate spaces, and both feature schemas.

use tsq_core::{
    FeatureSchema, IndexConfig, LinearTransform, QueryWindow, ScanMode, SimilarityIndex, SpaceKind,
};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

fn polar_transforms(n: usize) -> Vec<LinearTransform> {
    vec![
        LinearTransform::identity(n),
        LinearTransform::moving_average(n, 3),
        LinearTransform::moving_average(n, 20),
        LinearTransform::weighted_moving_average(n, &[0.5, 0.3, 0.2]),
        LinearTransform::reverse(n),
        LinearTransform::scale(n, -1.5),
        LinearTransform::shift(n, 4.0),
        LinearTransform::moving_average(n, 5)
            .then(&LinearTransform::reverse(n))
            .unwrap(),
    ]
}

fn rect_transforms(n: usize) -> Vec<LinearTransform> {
    vec![
        LinearTransform::identity(n),
        LinearTransform::reverse(n),
        LinearTransform::scale(n, 2.0),
        LinearTransform::shift(n, -3.0),
    ]
}

#[test]
fn no_false_dismissals_polar_normal_form() {
    let rel = RandomWalkGenerator::new(1001).relation(300, 64);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    for t in polar_transforms(64) {
        for (qid, eps) in [(0usize, 0.5), (42, 1.5), (123, 3.0)] {
            let q = idx.series(qid).unwrap().clone();
            let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
            let (indexed, stats) = idx
                .range_query(&q, eps, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(scan, indexed, "transform {} qid {qid} eps {eps}", t.name());
            // The index must actually prune (not degenerate to a scan).
            assert!(
                stats.index.entries_tested < 2 * idx.len() as u64,
                "no pruning for {}",
                t.name()
            );
        }
    }
}

#[test]
fn no_false_dismissals_rectangular() {
    let rel = RandomWalkGenerator::new(1002).relation(250, 32);
    let cfg = IndexConfig {
        space: SpaceKind::Rectangular,
        ..IndexConfig::default()
    };
    let idx = SimilarityIndex::build(cfg, rel).unwrap();
    for t in rect_transforms(32) {
        let q = idx.series(7).unwrap().clone();
        for eps in [0.4, 1.2, 4.0] {
            let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
            let (indexed, _) = idx
                .range_query(&q, eps, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(scan, indexed, "transform {} eps {eps}", t.name());
        }
    }
}

#[test]
fn no_false_dismissals_raw_schema() {
    let rel = RandomWalkGenerator::new(1003).relation(200, 32);
    for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
        let cfg = IndexConfig {
            schema: FeatureSchema::Raw { k: 3 },
            space,
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let transforms = match space {
            SpaceKind::Polar => vec![
                LinearTransform::identity(32),
                LinearTransform::moving_average(32, 4),
                LinearTransform::scale_raw(32, -2.0),
            ],
            SpaceKind::Rectangular => vec![
                LinearTransform::identity(32),
                LinearTransform::shift_raw(32, 5.0),
                LinearTransform::scale_raw(32, 0.5),
            ],
        };
        for t in transforms {
            let q = idx.series(11).unwrap().clone();
            for eps in [1.0, 10.0, 60.0] {
                let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
                let (indexed, _) = idx
                    .range_query(&q, eps, &t, &QueryWindow::default())
                    .unwrap();
                assert_eq!(
                    scan,
                    indexed,
                    "space {space:?} transform {} eps {eps}",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn varying_k_never_loses_answers() {
    // Larger k prunes more, but the answer set is invariant (Lemma 1).
    let rel = StockGenerator::new(1004).relation(200, 128);
    let t = LinearTransform::moving_average(128, 20);
    let q = rel[5].clone();
    let mut reference: Option<Vec<tsq_core::Match>> = None;
    for k in 1..=5 {
        let cfg = IndexConfig {
            schema: FeatureSchema::NormalForm { k },
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let (matches, _) = idx
            .range_query(&q, 2.0, &t, &QueryWindow::default())
            .unwrap();
        match &reference {
            None => reference = Some(matches),
            Some(r) => assert_eq!(r, &matches, "k = {k}"),
        }
    }
}

#[test]
fn candidate_counts_shrink_with_k() {
    // More coefficients -> tighter filter -> fewer false hits (the
    // monotonicity that motivates the paper's cut-off discussion).
    let rel = RandomWalkGenerator::new(1005).relation(600, 64);
    let q = rel[3].clone();
    let t = LinearTransform::identity(64);
    let mut last = u64::MAX;
    for k in [1usize, 2, 4] {
        let cfg = IndexConfig {
            schema: FeatureSchema::NormalForm { k },
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let (_, stats) = idx
            .range_query(&q, 1.0, &t, &QueryWindow::default())
            .unwrap();
        let cand = stats.candidates as u64;
        assert!(
            cand <= last,
            "candidates should not grow with k: {cand} after {last}"
        );
        last = cand;
    }
}

#[test]
fn parallel_scan_and_index_join_cross_check() {
    let rel = StockGenerator::new(1006).relation(150, 64);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let t = LinearTransform::moving_average(64, 10);
    let q = idx.series(0).unwrap().clone();
    let (scan, _) = idx.scan_range(&q, 3.0, &t, ScanMode::EarlyAbandon).unwrap();
    let (indexed, _) = idx
        .range_query(&q, 3.0, &t, &QueryWindow::default())
        .unwrap();
    assert_eq!(scan, indexed);

    let a = idx.join_index(1.0, &t).unwrap();
    let b = idx.join_scan(1.0, &t, ScanMode::EarlyAbandon).unwrap();
    let mut ka: Vec<_> = a
        .pairs
        .iter()
        .filter(|p| p.a < p.b)
        .map(|p| (p.a, p.b))
        .collect();
    let kb: Vec<_> = b.pairs.iter().map(|p| (p.a, p.b)).collect();
    ka.sort_unstable();
    assert_eq!(a.pairs.len(), 2 * kb.len());
    assert_eq!(ka, kb);
}
