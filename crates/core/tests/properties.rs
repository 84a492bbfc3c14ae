//! Property-based tests of the query engine's central guarantees.

use proptest::prelude::*;
use tsq_core::{
    FeatureSchema, IndexConfig, LinearTransform, QueryWindow, ScanMode, SimilarityIndex, SpaceKind,
    SubseqConfig, SubseqIndex,
};
use tsq_series::TimeSeries;

/// A relation of bounded random series plus a query index.
fn relation_strategy() -> impl Strategy<Value = (Vec<TimeSeries>, usize)> {
    (4usize..40, 8usize..33).prop_flat_map(|(count, len)| {
        (
            prop::collection::vec(
                prop::collection::vec(-100.0f64..100.0, len..=len).prop_map(TimeSeries::new),
                count..=count,
            ),
            0..count,
        )
    })
}

/// An arbitrary polar-safe transformation for length `n`.
fn polar_transform(n: usize, pick: u8, param: usize, scale: f64) -> LinearTransform {
    match pick % 6 {
        0 => LinearTransform::identity(n),
        1 => LinearTransform::moving_average(n, 1 + param % (n / 2).max(1)),
        2 => LinearTransform::reverse(n),
        3 => LinearTransform::scale(n, scale),
        4 => LinearTransform::difference(n),
        _ => LinearTransform::moving_average(n, 1 + param % (n / 2).max(1))
            .then(&LinearTransform::reverse(n))
            .unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lemma 1 end-to-end: indexed answers equal scan answers for random
    /// data, random transformations and random thresholds (polar space).
    #[test]
    fn no_false_dismissals_polar((rel, qid) in relation_strategy(),
                                 pick in 0u8..6,
                                 param in 0usize..32,
                                 scale in -3.0f64..3.0,
                                 eps in 0.0f64..50.0) {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let t = polar_transform(n, pick, param, scale);
        let q = rel[qid].clone();
        let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
        let (indexed, _) = idx.range_query(&q, eps, &t, &QueryWindow::default()).unwrap();
        prop_assert_eq!(scan, indexed);
    }

    /// Same property in the rectangular space with rect-safe transforms.
    #[test]
    fn no_false_dismissals_rect((rel, qid) in relation_strategy(),
                                pick in 0u8..3,
                                c in -3.0f64..3.0,
                                eps in 0.0f64..50.0) {
        let n = rel[0].len();
        let cfg = IndexConfig { space: SpaceKind::Rectangular, ..IndexConfig::default() };
        let idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let t = match pick % 3 {
            0 => LinearTransform::identity(n),
            1 => LinearTransform::reverse(n),
            _ => LinearTransform::scale(n, c),
        };
        let q = rel[qid].clone();
        let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
        let (indexed, _) = idx.range_query(&q, eps, &t, &QueryWindow::default()).unwrap();
        prop_assert_eq!(scan, indexed);
    }

    /// KNN distances equal brute-force distances under random transforms.
    #[test]
    fn knn_equals_scan((rel, qid) in relation_strategy(),
                       pick in 0u8..6,
                       param in 0usize..32,
                       k in 1usize..10) {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let t = polar_transform(n, pick, param, 1.5);
        let q = rel[qid].clone();
        let (got, _) = idx.knn_query(&q, k, &t).unwrap();
        let want = idx.scan_knn(&q, k, &t).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.distance - w.distance).abs() < 1e-6);
        }
    }

    /// Raw schema: prefix distances are true lower bounds, so indexed
    /// queries match scans there too.
    #[test]
    fn no_false_dismissals_raw_schema((rel, qid) in relation_strategy(),
                                      eps in 0.0f64..100.0) {
        let n = rel[0].len();
        let cfg = IndexConfig {
            schema: FeatureSchema::Raw { k: 3.min(n) },
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let t = LinearTransform::identity(n);
        let q = rel[qid].clone();
        let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
        let (indexed, _) = idx.range_query(&q, eps, &t, &QueryWindow::default()).unwrap();
        prop_assert_eq!(scan, indexed);
    }

    /// Join symmetry: the index join reports (i, j) iff it reports (j, i),
    /// and the undirected pair set equals the scan join's.
    #[test]
    fn join_symmetry((rel, _) in relation_strategy(),
                     param in 0usize..16,
                     eps in 0.0f64..10.0) {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
        let t = LinearTransform::moving_average(n, 1 + param % (n / 2).max(1));
        let via_index = idx.join_index(eps, &t).unwrap();
        let mut directed: Vec<(usize, usize)> =
            via_index.pairs.iter().map(|p| (p.a, p.b)).collect();
        directed.sort_unstable();
        for &(a, b) in &directed {
            prop_assert!(directed.binary_search(&(b, a)).is_ok(),
                "pair ({a},{b}) present but ({b},{a}) missing");
        }
        let scan = idx.join_scan(eps, &t, ScanMode::EarlyAbandon).unwrap();
        let mut undirected: Vec<(usize, usize)> = directed
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        undirected.sort_unstable();
        undirected.dedup();
        let mut want: Vec<(usize, usize)> = scan.pairs.iter().map(|p| (p.a, p.b)).collect();
        want.sort_unstable();
        prop_assert_eq!(undirected, want);
    }

    /// Transform composition is associative in its action on spectra.
    #[test]
    fn composition_associative(xs in prop::collection::vec(-50.0f64..50.0, 8..24),
                               w1 in 1usize..4, w2 in 1usize..4) {
        let n = xs.len();
        let t1 = LinearTransform::moving_average(n, w1.min(n));
        let t2 = LinearTransform::reverse(n);
        let t3 = LinearTransform::moving_average(n, w2.min(n));
        let left = t1.then(&t2).unwrap().then(&t3).unwrap();
        let right = t1.then(&t2.then(&t3).unwrap()).unwrap();
        let mut planner = tsq_dft::FftPlanner::new();
        let spec = planner.dft_real(&xs);
        let a = left.apply_spectrum(&spec);
        let b = right.apply_spectrum(&spec);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((*x - *y).abs() < 1e-8);
        }
    }

    /// Every constructor's time-domain action, and every composition's, is
    /// the spectrum route — transform the spectrum, invert — at
    /// power-of-two and Bluestein lengths; and under both schemas the
    /// engine's distance, summed over time, is the definition's sum over
    /// all `n` coefficients within 1e-12 relative.
    #[test]
    fn time_domain_action_equals_the_spectrum_route(
        (xs, ys) in (0usize..10).prop_flat_map(|pick| {
            let n = [8usize, 16, 32, 64, 9, 15, 17, 31, 40, 100][pick];
            (
                prop::collection::vec(-50.0f64..50.0, n..=n),
                prop::collection::vec(-50.0f64..50.0, n..=n),
            )
        }),
        w in 1usize..8,
        c in 0.25f64..4.0,
    ) {
        let n = xs.len();
        let weights: Vec<f64> = (1..=w).map(|i| i as f64 / (w * (w + 1) / 2) as f64).collect();
        let mavg = LinearTransform::moving_average(n, w);
        let wmavg = LinearTransform::weighted_moving_average(n, &weights);
        let diff = LinearTransform::difference(n);
        let reverse = LinearTransform::reverse(n);
        // Parts: mavg's multipliers and a mirrored translation of a
        // coefficient neither schema indexes at k = 2.
        let mut b = vec![tsq_dft::Complex64::new(0.0, 0.0); n];
        b[3] = tsq_dft::Complex64::new(c, -0.5);
        b[n - 3] = b[3].conj();
        let parts = LinearTransform::from_parts(mavg.a().to_vec(), b, "parts").unwrap();
        let transforms = vec![
            LinearTransform::identity(n),
            LinearTransform::time_warp(n, 1),
            LinearTransform::shift(n, c),
            LinearTransform::scale(n, c),
            LinearTransform::scale(n, -c),
            LinearTransform::shift_raw(n, c),
            LinearTransform::scale_raw(n, -c),
            mavg.then(&reverse).unwrap(),
            diff.then(&LinearTransform::scale_raw(n, c)).unwrap(),
            wmavg.then(&mavg).unwrap().then(&LinearTransform::shift(n, -c)).unwrap(),
            diff.then(&wmavg).unwrap().then(&diff).unwrap(),
            reverse.then(&LinearTransform::shift_raw(n, c)).unwrap(),
            parts.then(&diff).unwrap(),
            parts,
            mavg,
            wmavg,
            diff,
            reverse,
        ];
        let (x, y) = (TimeSeries::new(xs), TimeSeries::new(ys));
        let mut planner = tsq_dft::FftPlanner::new();
        for schema in [FeatureSchema::NormalForm { k: 2 }, FeatureSchema::Raw { k: 2 }] {
            let repr = |s: &TimeSeries| match schema {
                FeatureSchema::NormalForm { .. } => tsq_series::normal::normal_form(s),
                FeatureSchema::Raw { .. } => s.clone(),
            };
            let (rx, ry) = (repr(&x), repr(&y));
            let (sx, sy) = (planner.dft_real(rx.values()), planner.dft_real(ry.values()));
            for t in &transforms {
                let what = format!("{}, {schema:?}, n = {n}", t.name());
                prop_assert!(t.is_conjugate_symmetric(), "{}", what);
                let route = planner.idft_real(&t.apply_spectrum(&sx));
                let action = t.apply_time_domain(rx.values()).unwrap();
                let scale = 1.0 + route.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (a, r) in action.iter().zip(&route) {
                    prop_assert!((a - r).abs() <= 1e-12 * scale, "{}: {} vs {}", what, a, r);
                }
                // Multipliers off the real axis are safe in S_pol only,
                // translations of indexed coefficients in S_rect only.
                let polar = SpaceKind::Polar.check_safety(t, schema).is_ok();
                let space = if polar { SpaceKind::Polar } else { SpaceKind::Rectangular };
                let config = IndexConfig { schema, space, ..IndexConfig::default() };
                let idx = SimilarityIndex::build(config, vec![x.clone()]).unwrap();
                let definition = tsq_dft::energy::euclidean_complex(&t.apply_spectrum(&sx), &sy);
                // The query bound from its series, and from its features.
                let bound = idx.knn_query(&y, 1, t).unwrap().0[0].distance;
                let refine = idx.refine(idx.query_features(&y, t).unwrap(), None, t).unwrap();
                let inverted = refine.distance(&idx.entries()[0]);
                for engine in [bound, inverted] {
                    prop_assert!(
                        (engine - definition).abs() <= 1e-12 * definition,
                        "{}: {} vs {}", what, engine, definition
                    );
                }
            }
        }
        // A warp's action is the literal stretch.
        let warp = LinearTransform::time_warp(n, 3);
        let stretched = tsq_series::warp::stretch(&x, 3);
        prop_assert_eq!(warp.apply_time_domain(x.values()).unwrap(), stretched.values().to_vec());
    }

    /// The exact engine distance under a transformation agrees with the
    /// literal definition: transform in the frequency domain, invert,
    /// measure in the time domain.
    #[test]
    fn engine_distance_matches_definition((rel, qid) in relation_strategy(),
                                          param in 0usize..16) {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let t = LinearTransform::moving_average(n, 1 + param % (n / 2).max(1));
        let q = rel[qid].clone();
        let refine = idx.refine(idx.query_features(&q, &t).unwrap(), None, &t).unwrap();
        let mut planner = tsq_dft::FftPlanner::new();
        for id in 0..idx.len().min(5) {
            let engine = refine.distance(&idx.entries()[id]);
            // Definition: circular moving average of the normal form of x,
            // compared to the normal form of q, in the time domain.
            let nf_x = tsq_series::normal::normal_form(idx.series(id).unwrap());
            let nf_q = tsq_series::normal::normal_form(&q);
            let spectrum = t.apply_spectrum(&planner.dft_real(nf_x.values()));
            let smoothed = planner.idft_real(&spectrum);
            let d: f64 = smoothed
                .iter()
                .zip(nf_q.values())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            prop_assert!((engine - d).abs() < 1e-6, "id {id}: {engine} vs {d}");
        }
    }

    /// Time warp (Appendix A) is refined in the time domain: the stored
    /// normal form, stretched, against the query's, both normalized as
    /// `(v − mean)·(1/std)`. Range and k-NN answers — ids and distance
    /// bits — equal that oracle's, on the index path and the scans alike.
    #[test]
    fn warp_answers_match_time_domain_oracle((rel, qid) in relation_strategy(),
                                             m in 2usize..4,
                                             k in 1usize..6,
                                             nudge in -2.0f64..2.0) {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let t = LinearTransform::time_warp(n, m);
        let stretched = tsq_series::warp::stretch(&rel[qid], m);
        let q = TimeSeries::new(
            stretched
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| v + nudge * (i % 5) as f64)
                .collect(),
        );
        let normal = |s: &TimeSeries| -> Vec<f64> {
            let (mean, inv_std) = (s.mean(), 1.0 / s.std());
            s.values().iter().map(|v| (v - mean) * inv_std).collect()
        };
        let q_repr = normal(&q);
        let mut oracle: Vec<(f64, usize)> = rel
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let repr = normal(s);
                let mut acc = 0.0;
                for (i, qv) in q_repr.iter().enumerate() {
                    let d = repr[i / m] - qv;
                    acc += d * d;
                }
                (acc.sqrt(), id)
            })
            .collect();
        oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let bits = |ms: &[tsq_core::Match]| -> Vec<(usize, u64)> {
            ms.iter().map(|m| (m.id, m.distance.to_bits())).collect()
        };
        let want_knn: Vec<(usize, u64)> =
            oracle.iter().take(k).map(|(d, id)| (*id, d.to_bits())).collect();
        prop_assert_eq!(bits(&idx.knn_query(&q, k, &t).unwrap().0), want_knn.clone());
        prop_assert_eq!(bits(&idx.scan_knn(&q, k, &t).unwrap()), want_knn);
        // A threshold halfway between two neighbours' distances.
        let cut = k.min(oracle.len() - 1);
        let eps = 0.5 * (oracle[cut - 1].0 + oracle[cut].0);
        let mut want_range: Vec<(usize, u64)> = oracle
            .iter()
            .filter(|(d, _)| *d <= eps)
            .map(|(d, id)| (*id, d.to_bits()))
            .collect();
        want_range.sort_unstable();
        let indexed = idx.range_query(&q, eps, &t, &QueryWindow::default()).unwrap().0;
        prop_assert_eq!(bits(&indexed), want_range.clone());
        for mode in [ScanMode::Naive, ScanMode::EarlyAbandon] {
            prop_assert_eq!(bits(&idx.scan_range(&q, eps, &t, mode).unwrap().0), want_range.clone());
        }
    }

    /// Negative thresholds are rejected with the typed error — never a
    /// silently empty result — across both the whole-sequence and the
    /// subsequence query paths.
    #[test]
    fn negative_threshold_is_typed_error((rel, qid) in relation_strategy(),
                                         eps in -100.0f64..-1e-9) {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let t = LinearTransform::identity(n);
        let q = rel[qid].clone();
        prop_assert!(matches!(
            idx.range_query(&q, eps, &t, &QueryWindow::default()),
            Err(tsq_core::Error::NegativeThreshold { .. })
        ));
        let w = (n / 2).max(2);
        let sub = SubseqIndex::build(SubseqConfig::new(w), rel.clone()).unwrap();
        let sq = TimeSeries::new(q.values()[..w].to_vec());
        prop_assert!(matches!(
            sub.subseq_range(&sq, eps),
            Err(tsq_core::Error::NegativeThreshold { .. })
        ));
        prop_assert!(matches!(
            sub.scan_subseq_range(&sq, eps, ScanMode::Naive),
            Err(tsq_core::Error::NegativeThreshold { .. })
        ));
    }

    /// Degenerate windows are rejected at construction with the typed
    /// error, for every window below 2.
    #[test]
    fn degenerate_window_is_typed_error((rel, _) in relation_strategy(),
                                        window in 0usize..2) {
        prop_assert!(matches!(
            SubseqIndex::build(SubseqConfig::new(window), rel),
            Err(tsq_core::Error::InvalidWindow { .. })
        ));
    }

    /// Lemma 1 for subsequences: the ST-index range answer equals the
    /// naive sliding scan's on random relations and thresholds.
    #[test]
    fn subseq_no_false_dismissals((rel, qid) in relation_strategy(),
                                  offset in 0usize..16,
                                  eps in 0.0f64..80.0) {
        let n = rel[0].len();
        let w = (n / 2).max(2);
        let idx = SubseqIndex::build(SubseqConfig::new(w), rel.clone()).unwrap();
        let start = offset.min(n - w);
        let q = TimeSeries::new(rel[qid].values()[start..start + w].to_vec());
        let (indexed, _) = idx.subseq_range(&q, eps).unwrap();
        let (scan, _) = idx.scan_subseq_range(&q, eps, ScanMode::Naive).unwrap();
        prop_assert_eq!(indexed, scan);
    }
}
