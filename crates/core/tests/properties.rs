//! Property-based tests of the query engine's central guarantees.

use tsq_core::{
    FeatureSchema, IndexConfig, LinearTransform, QueryWindow, ScanMode, SimilarityIndex, SpaceKind,
    SubseqConfig, SubseqIndex,
};
use tsq_series::TimeSeries;
use tsq_testkit::{property, Rng};

/// Cases per property.
const CASES: u32 = 40;

/// A relation of 4 to 39 bounded random series of one length in 8 to 32,
/// plus a query index.
fn relation(rng: &mut Rng) -> (Vec<TimeSeries>, usize) {
    let (count, len) = (rng.range(4, 39), rng.range(8, 32));
    let series =
        |rng: &mut Rng| TimeSeries::new((0..len).map(|_| rng.float(-100.0..100.0)).collect());
    let rel: Vec<TimeSeries> = (0..count).map(|_| series(rng)).collect();
    (rel, rng.range(0, count - 1))
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

/// Lemma 1 end-to-end: indexed answers equal scan answers for random
/// data, random transformations and random thresholds (polar space).
#[test]
fn no_false_dismissals_polar() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        let (pick, param) = (rng.range(0, 5) as u8, rng.range(0, 31));
        (
            rel,
            (qid, pick, param, rng.float(-3.0..3.0), rng.float(0.0..50.0)),
        )
    };
    let name = "no_false_dismissals_polar";
    property(name, CASES, draw, |rel, &(qid, pick, param, scale, eps)| {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
        let t = polar_transform(n, pick, param, scale);
        let q = rel[qid].clone();
        let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
        let (indexed, _) = idx
            .range_query(&q, eps, &t, &QueryWindow::default())
            .unwrap();
        assert_eq!(scan, indexed);
    });
}

/// Same property in the rectangular space with rect-safe transforms.
#[test]
fn no_false_dismissals_rect() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        let pick = rng.range(0, 2) as u8;
        (rel, (qid, pick, rng.float(-3.0..3.0), rng.float(0.0..50.0)))
    };
    property(
        "no_false_dismissals_rect",
        CASES,
        draw,
        |rel, &(qid, pick, c, eps)| {
            let n = rel[0].len();
            let cfg = IndexConfig {
                space: SpaceKind::Rectangular,
                ..IndexConfig::default()
            };
            let idx = SimilarityIndex::build(cfg, rel.to_vec()).unwrap();
            let t = match pick % 3 {
                0 => LinearTransform::identity(n),
                1 => LinearTransform::reverse(n),
                _ => LinearTransform::scale(n, c),
            };
            let q = rel[qid].clone();
            let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
            let (indexed, _) = idx
                .range_query(&q, eps, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(scan, indexed);
        },
    );
}

/// KNN distances equal brute-force distances under random transforms.
#[test]
fn knn_equals_scan() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        let (pick, param) = (rng.range(0, 5) as u8, rng.range(0, 31));
        (rel, (qid, pick, param, rng.range(1, 9)))
    };
    property(
        "knn_equals_scan",
        CASES,
        draw,
        |rel, &(qid, pick, param, k)| {
            let n = rel[0].len();
            let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
            let t = polar_transform(n, pick, param, 1.5);
            let q = rel[qid].clone();
            let (got, _) = idx.knn_query(&q, k, &t).unwrap();
            let want = idx.scan_knn(&q, k, &t).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.distance - w.distance).abs() < 1e-6);
            }
        },
    );
}

/// Raw schema: prefix distances are true lower bounds, so indexed
/// queries match scans there too.
#[test]
fn no_false_dismissals_raw_schema() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        (rel, (qid, rng.float(0.0..100.0)))
    };
    property(
        "no_false_dismissals_raw_schema",
        CASES,
        draw,
        |rel, &(qid, eps)| {
            let n = rel[0].len();
            let cfg = IndexConfig {
                schema: FeatureSchema::Raw { k: 3.min(n) },
                ..IndexConfig::default()
            };
            let idx = SimilarityIndex::build(cfg, rel.to_vec()).unwrap();
            let t = LinearTransform::identity(n);
            let q = rel[qid].clone();
            let (scan, _) = idx.scan_range(&q, eps, &t, ScanMode::Naive).unwrap();
            let (indexed, _) = idx
                .range_query(&q, eps, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(scan, indexed);
        },
    );
}

/// Join symmetry: the index join reports (i, j) iff it reports (j, i),
/// and the undirected pair set equals the scan join's.
#[test]
fn join_symmetry() {
    let draw = |rng: &mut Rng| {
        let (rel, _) = relation(rng);
        (rel, (rng.range(0, 15), rng.float(0.0..10.0)))
    };
    property("join_symmetry", CASES, draw, |rel, &(param, eps)| {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
        let t = LinearTransform::moving_average(n, 1 + param % (n / 2).max(1));
        let via_index = idx.join_index(eps, &t).unwrap();
        let mut directed: Vec<(usize, usize)> =
            via_index.pairs.iter().map(|p| (p.a, p.b)).collect();
        directed.sort_unstable();
        for &(a, b) in &directed {
            assert!(
                directed.binary_search(&(b, a)).is_ok(),
                "pair ({a},{b}) present but ({b},{a}) missing"
            );
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
        assert_eq!(undirected, want);
    });
}

/// Transform composition is associative in its action on spectra.
#[test]
fn composition_associative() {
    let draw = |rng: &mut Rng| {
        let xs = rng.list(8..=23, |rng| rng.float(-50.0..50.0));
        (xs, (rng.range(1, 3), rng.range(1, 3)))
    };
    property("composition_associative", CASES, draw, |xs, &(w1, w2)| {
        let n = xs.len();
        let t1 = LinearTransform::moving_average(n, w1.min(n));
        let t2 = LinearTransform::reverse(n);
        let t3 = LinearTransform::moving_average(n, w2.min(n));
        let left = t1.then(&t2).unwrap().then(&t3).unwrap();
        let right = t1.then(&t2.then(&t3).unwrap()).unwrap();
        let mut planner = tsq_dft::FftPlanner::new();
        let spec = planner.dft_real(xs);
        let a = left.apply_spectrum(&spec);
        let b = right.apply_spectrum(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-8);
        }
    });
}

/// Every constructor's time-domain action, and every composition's, is
/// the spectrum route — transform the spectrum, invert — at
/// power-of-two and Bluestein lengths; and under both schemas the
/// engine's distance, summed over time, is the definition's sum over
/// all `n` coefficients within 1e-12 relative.
#[test]
fn time_domain_action_equals_the_spectrum_route() {
    let draw = |rng: &mut Rng| {
        let n = [8usize, 16, 32, 64, 9, 15, 17, 31, 40, 100][rng.range(0, 9)];
        let xy: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.float(-50.0..50.0), rng.float(-50.0..50.0)))
            .collect();
        (xy, (rng.range(1, 7), rng.float(0.25..4.0)))
    };
    let name = "time_domain_action_equals_the_spectrum_route";
    property(name, CASES, draw, |xy, &(w, c)| {
        let (xs, ys): (Vec<f64>, Vec<f64>) = xy.iter().copied().unzip();
        let n = xs.len();
        let weights: Vec<f64> = (1..=w)
            .map(|i| i as f64 / (w * (w + 1) / 2) as f64)
            .collect();
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
            wmavg
                .then(&mavg)
                .unwrap()
                .then(&LinearTransform::shift(n, -c))
                .unwrap(),
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
        for schema in [
            FeatureSchema::NormalForm { k: 2 },
            FeatureSchema::Raw { k: 2 },
        ] {
            let repr = |s: &TimeSeries| match schema {
                FeatureSchema::NormalForm { .. } => tsq_series::normal::normal_form(s),
                FeatureSchema::Raw { .. } => s.clone(),
            };
            let (rx, ry) = (repr(&x), repr(&y));
            let (sx, sy) = (planner.dft_real(rx.values()), planner.dft_real(ry.values()));
            for t in &transforms {
                let what = format!("{}, {schema:?}, n = {n}", t.name());
                assert!(t.is_conjugate_symmetric(), "{what}");
                let route = planner.idft_real(&t.apply_spectrum(&sx));
                let action = t.apply_time_domain(rx.values()).unwrap();
                let scale = 1.0 + route.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (a, r) in action.iter().zip(&route) {
                    assert!((a - r).abs() <= 1e-12 * scale, "{what}: {a} vs {r}");
                }
                // Multipliers off the real axis are safe in S_pol only,
                // translations of indexed coefficients in S_rect only.
                let polar = SpaceKind::Polar.check_safety(t, schema).is_ok();
                let space = if polar {
                    SpaceKind::Polar
                } else {
                    SpaceKind::Rectangular
                };
                let config = IndexConfig {
                    schema,
                    space,
                    ..IndexConfig::default()
                };
                let idx = SimilarityIndex::build(config, vec![x.clone()]).unwrap();
                let definition =
                    tsq_testkit::energy::euclidean_complex(&t.apply_spectrum(&sx), &sy);
                // The query bound from its series, and from its features.
                let bound = idx.knn_query(&y, 1, t).unwrap().0[0].distance;
                let refine = idx
                    .refine(idx.query_features(&y, t).unwrap(), None, t)
                    .unwrap();
                let inverted = refine.distance(&idx.record(0, &mut Default::default()).unwrap());
                for engine in [bound, inverted] {
                    assert!(
                        (engine - definition).abs() <= 1e-12 * definition,
                        "{what}: {engine} vs {definition}"
                    );
                }
            }
        }
        // A warp's action is the literal stretch.
        let warp = LinearTransform::time_warp(n, 3);
        let stretched = tsq_series::warp::stretch(&x, 3);
        assert_eq!(
            warp.apply_time_domain(x.values()).unwrap(),
            stretched.values().to_vec()
        );
    });
}

/// The exact engine distance under a transformation agrees with the
/// literal definition: transform in the frequency domain, invert,
/// measure in the time domain.
#[test]
fn engine_distance_matches_definition() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        (rel, (qid, rng.range(0, 15)))
    };
    property(
        "engine_distance_matches_definition",
        CASES,
        draw,
        |rel, &(qid, param)| {
            let n = rel[0].len();
            let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
            let t = LinearTransform::moving_average(n, 1 + param % (n / 2).max(1));
            let q = rel[qid].clone();
            let refine = idx
                .refine(idx.query_features(&q, &t).unwrap(), None, &t)
                .unwrap();
            let mut planner = tsq_dft::FftPlanner::new();
            for id in 0..idx.len().min(5) {
                let engine = refine.distance(&idx.record(id, &mut Default::default()).unwrap());
                // Definition: circular moving average of the normal form of x,
                // compared to the normal form of q, in the time domain.
                let nf_x = tsq_series::normal::normal_form(&idx.series(id).unwrap());
                let nf_q = tsq_series::normal::normal_form(&q);
                let spectrum = t.apply_spectrum(&planner.dft_real(nf_x.values()));
                let smoothed = planner.idft_real(&spectrum);
                let d: f64 = smoothed
                    .iter()
                    .zip(nf_q.values())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                assert!((engine - d).abs() < 1e-6, "id {id}: {engine} vs {d}");
            }
        },
    );
}

/// Time warp (Appendix A) is refined in the time domain: the stored
/// normal form, stretched, against the query's, both normalized as
/// `(v − mean)·(1/std)`. Range and k-NN answers — ids and distance
/// bits — equal that oracle's, on the index path and the scans alike.
#[test]
fn warp_answers_match_time_domain_oracle() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        let (m, k) = (rng.range(2, 3), rng.range(1, 5));
        (rel, (qid, m, k, rng.float(-2.0..2.0)))
    };
    let name = "warp_answers_match_time_domain_oracle";
    property(name, CASES, draw, |rel, &(qid, m, k, nudge)| {
        let n = rel[0].len();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
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
        let want_knn: Vec<(usize, u64)> = oracle
            .iter()
            .take(k)
            .map(|(d, id)| (*id, d.to_bits()))
            .collect();
        assert_eq!(bits(&idx.knn_query(&q, k, &t).unwrap().0), want_knn.clone());
        assert_eq!(bits(&idx.scan_knn(&q, k, &t).unwrap()), want_knn);
        // A threshold halfway between two neighbours' distances.
        let cut = k.min(oracle.len() - 1);
        let eps = 0.5 * (oracle[cut - 1].0 + oracle[cut].0);
        let mut want_range: Vec<(usize, u64)> = oracle
            .iter()
            .filter(|(d, _)| *d <= eps)
            .map(|(d, id)| (*id, d.to_bits()))
            .collect();
        want_range.sort_unstable();
        let indexed = idx
            .range_query(&q, eps, &t, &QueryWindow::default())
            .unwrap()
            .0;
        assert_eq!(bits(&indexed), want_range.clone());
        for mode in [ScanMode::Naive, ScanMode::EarlyAbandon] {
            assert_eq!(
                bits(&idx.scan_range(&q, eps, &t, mode).unwrap().0),
                want_range.clone()
            );
        }
    });
}

/// Negative thresholds are rejected with the typed error — never a
/// silently empty result — across both the whole-sequence and the
/// subsequence query paths.
#[test]
fn negative_threshold_is_typed_error() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        (rel, (qid, rng.float(-100.0..-1e-9)))
    };
    property(
        "negative_threshold_is_typed_error",
        CASES,
        draw,
        |rel, &(qid, eps)| {
            let n = rel[0].len();
            let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
            let t = LinearTransform::identity(n);
            let q = rel[qid].clone();
            assert!(matches!(
                idx.range_query(&q, eps, &t, &QueryWindow::default()),
                Err(tsq_core::Error::NegativeThreshold { .. })
            ));
            let w = (n / 2).max(2);
            let sub = SubseqIndex::build(SubseqConfig::new(w), rel.to_vec()).unwrap();
            let sq = TimeSeries::new(q.values()[..w].to_vec());
            assert!(matches!(
                sub.subseq_range(&sq, eps),
                Err(tsq_core::Error::NegativeThreshold { .. })
            ));
            assert!(matches!(
                sub.scan_subseq_range(&sq, eps, ScanMode::Naive),
                Err(tsq_core::Error::NegativeThreshold { .. })
            ));
        },
    );
}

/// Degenerate windows are rejected at construction with the typed
/// error, for every window below 2.
#[test]
fn degenerate_window_is_typed_error() {
    let draw = |rng: &mut Rng| (relation(rng).0, rng.range(0, 1));
    property(
        "degenerate_window_is_typed_error",
        CASES,
        draw,
        |rel, &window| {
            assert!(matches!(
                SubseqIndex::build(SubseqConfig::new(window), rel.to_vec()),
                Err(tsq_core::Error::InvalidWindow { .. })
            ));
        },
    );
}

/// Lemma 1 for subsequences: the ST-index range answer equals the
/// naive sliding scan's on random relations and thresholds.
#[test]
fn subseq_no_false_dismissals() {
    let draw = |rng: &mut Rng| {
        let (rel, qid) = relation(rng);
        (rel, (qid, rng.range(0, 15), rng.float(0.0..80.0)))
    };
    property(
        "subseq_no_false_dismissals",
        CASES,
        draw,
        |rel, &(qid, offset, eps)| {
            let n = rel[0].len();
            let w = (n / 2).max(2);
            let idx = SubseqIndex::build(SubseqConfig::new(w), rel.to_vec()).unwrap();
            let start = offset.min(n - w);
            let q = TimeSeries::new(rel[qid].values()[start..start + w].to_vec());
            let (indexed, _) = idx.subseq_range(&q, eps).unwrap();
            let (scan, _) = idx.scan_subseq_range(&q, eps, ScanMode::Naive).unwrap();
            assert_eq!(indexed, scan);
        },
    );
}
