//! The paper's worked examples, reproduced exactly where the paper prints
//! the data, and shape-wise where it relies on unavailable stock data.
//! Section 5's figures and Table 1 are judged in `paper_shapes.rs`.

use tsq_core::geometry::AnnularSector;
use tsq_core::{
    FeatureSchema, IndexConfig, LinearTransform, QueryWindow, SimilarityIndex, SpaceKind,
};
use tsq_dft::Complex64;
use tsq_dft::FftPlanner;
use tsq_series::distance::euclidean;
use tsq_series::moving_average::circular_moving_average;
use tsq_series::warp::stretch;
use tsq_series::TimeSeries;
use tsq_testkit::cost::{transformation_distance, CostBudget};

fn s1() -> TimeSeries {
    TimeSeries::from([
        36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0, 37.0, 38.0, 39.0, 38.0, 40.0, 38.0, 37.0,
    ])
}

fn s2() -> TimeSeries {
    TimeSeries::from([
        40.0, 37.0, 37.0, 42.0, 41.0, 35.0, 40.0, 35.0, 34.0, 42.0, 38.0, 35.0, 45.0, 36.0, 34.0,
    ])
}

#[test]
fn example_1_1_distances() {
    // "the high Euclidean distance D(s1, s2) = 11.92"
    assert!((euclidean(&s1(), &s2()) - 11.92).abs() < 0.005);
    // "The Euclidean distance between the three-day moving averages of two
    //  sequences is 0.47."
    let d = euclidean(
        &circular_moving_average(&s1(), 3),
        &circular_moving_average(&s2(), 3),
    );
    assert!((d - 0.47).abs() < 0.005, "got {d}");
}

#[test]
fn example_1_1_in_frequency_domain() {
    // The same result computed the paper's way: T_mavg3 applied to the
    // Fourier representation (Section 3.2).
    let mut planner = FftPlanner::new();
    let t = LinearTransform::moving_average(15, 3);
    let f1 = t.apply_spectrum(&planner.dft_real(s1().values()));
    let f2 = t.apply_spectrum(&planner.dft_real(s2().values()));
    let d = tsq_testkit::energy::euclidean_complex(&f1, &f2);
    assert!((d - 0.4714).abs() < 0.001, "got {d}");
}

#[test]
fn equation_10_cost_bounded_dissimilarity() {
    // Section 2's relation to Jagadish, Mendelzon & Milo: the distance is
    // minimized over transformations applied to either side, each at a
    // cost, under a bound on the total cost. Example 1.1 is the paper's
    // instance: smoothing *both* series with the three-day moving average
    // (one unit of cost each) brings them from 11.92 to 2 + 0.47.
    let mavg3 = [LinearTransform::moving_average(15, 3).with_cost(1.0)];
    let allowed = CostBudget {
        max_cost: 2.0,
        max_depth: 2,
    };
    let d = transformation_distance(&s1(), &s2(), &mavg3, allowed).unwrap();
    assert!((d.value - 2.4714).abs() < 0.001, "got {}", d.value);
    assert_eq!(d.applied_x, ["mavg(3)"]);
    assert_eq!(d.applied_y, ["mavg(3)"]);
    // A budget below one application forbids it: the plain D0 answers.
    let forbidden = CostBudget {
        max_cost: 0.5,
        max_depth: 2,
    };
    let d = transformation_distance(&s1(), &s2(), &mavg3, forbidden).unwrap();
    assert!((d.value - euclidean(&s1(), &s2())).abs() < 1e-9);
    assert!(d.applied_x.is_empty() && d.applied_y.is_empty());
}

#[test]
fn example_1_2_time_warp() {
    let p = TimeSeries::from([20.0, 21.0, 20.0, 23.0]);
    let s = TimeSeries::from([20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0]);
    assert_eq!(stretch(&p, 2), s);
    // Equation 18 holds coefficient-wise.
    let mut planner = FftPlanner::new();
    let t = LinearTransform::time_warp(4, 2);
    let sp = planner.dft_real(p.values());
    let ss = planner.dft_real(s.values());
    for f in 0..4 {
        assert!((t.apply_coeff(f, sp[f]) - ss[f]).abs() < 1e-9, "f = {f}");
    }
}

#[test]
fn theorem_2_counterexample() {
    // "if we multiply the complex numbers representing the three points by
    //  s = 2-3j, the transformed rectangle built on points p*s = -25+5j and
    //  q*s = 25-5j does not have point r*s = 2+10j inside!"
    let p = Complex64::new(-5.0, -5.0);
    let q = Complex64::new(5.0, 5.0);
    let r = Complex64::new(-2.0, 2.0);
    let s = Complex64::new(2.0, -3.0);
    let (tp, tq, tr) = (p * s, q * s, r * s);
    assert_eq!(tp, Complex64::new(-25.0, 5.0));
    assert_eq!(tq, Complex64::new(25.0, -5.0));
    assert_eq!(tr, Complex64::new(2.0, 10.0));
    // r was inside the rectangle spanned by p and q ...
    assert!(r.re >= p.re && r.re <= q.re && r.im >= p.im && r.im <= q.im);
    // ... but r*s is outside the rectangle spanned by p*s and q*s.
    let (lo_im, hi_im) = (tq.im.min(tp.im), tq.im.max(tp.im));
    assert!(tr.im < lo_im || tr.im > hi_im, "counterexample must escape");
    // And the engine rejects exactly this situation: complex multipliers
    // are unsafe in S_rect (Theorem 2)...
    let t =
        LinearTransform::from_parts(vec![s; 8], vec![tsq_dft::complex::ZERO; 8], "complex-scale")
            .unwrap();
    let schema = FeatureSchema::NormalForm { k: 2 };
    assert!(SpaceKind::Rectangular.check_safety(&t, schema).is_err());
    // ... while the same transformation is safe in S_pol (Theorem 3).
    assert!(SpaceKind::Polar.check_safety(&t, schema).is_ok());
}

#[test]
fn figure_7_search_rectangle() {
    // Magnitude range [m - eps, m + eps]; angle range alpha +- asin(eps/m).
    let c = Complex64::cis(0.5).scale(2.0);
    let (lo, hi) = SpaceKind::Polar.ball_block(c, 0.6);
    assert!((lo[0] - 1.4).abs() < 1e-12);
    assert!((hi[0] - 2.6).abs() < 1e-12);
    let da = (0.3f64).asin();
    assert!((lo[1] - (0.5 - da)).abs() < 1e-12);
    assert!((hi[1] - (0.5 + da)).abs() < 1e-12);
    // The sector denoted by the block contains the entire eps-disk.
    let sector = AnnularSector::new(lo[0], hi[0], lo[1], hi[1]);
    for i in 0..256 {
        let th = i as f64 / 256.0 * std::f64::consts::TAU;
        assert!(sector.contains(c + Complex64::cis(th).scale(0.599)));
    }
}

#[test]
fn lemma_1_superset_before_postprocessing() {
    // The candidate set (index level) is a superset of the true answer set.
    let rel = tsq_series::generate::RandomWalkGenerator::new(2020).relation(150, 64);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let t = LinearTransform::moving_average(64, 8);
    let q = idx.series(9).unwrap().clone();
    let eps = 1.5;
    let (matches, stats) = idx
        .range_query(&q, eps, &t, &QueryWindow::default())
        .unwrap();
    assert!(stats.candidates >= matches.len());
    assert_eq!(stats.candidates, matches.len() + stats.false_hits);
}
