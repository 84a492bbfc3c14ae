//! Lemma 1 under the cast: a tree stores every bound as an `f32` rounded
//! outward, so the box it stores contains the `f64` box it was given —
//! the filter can only widen, never dismiss — and the kernels read a
//! stored angle that rounding pushed past ±π as the angle it bounds.
//!
//! The cases are constructive (the property-test shim cannot shrink): the
//! edges of `f32` — ±0, subnormals and values below them, `f32`-exact
//! values, `f32::MAX` and values past it — paired every way, then a seeded
//! sweep of random bit patterns; a failure names its bounds.

use std::f64::consts::PI;

use tsq_core::{FeatureSchema, Features, LinearTransform, SpaceKind};
use tsq_dft::FftPlanner;
use tsq_rtree::{RStarTree, RTreeConfig, Rect};
use tsq_series::TimeSeries;

/// Values at the edges of `f32`'s range and precision.
const EDGES: [f64; 26] = [
    0.0,
    -0.0,
    1.401_298_464_324_817e-45, // the least f32 subnormal
    -1.401_298_464_324_817e-45,
    1e-46, // below it
    -1e-46,
    1e-40, // an f32 subnormal's neighbourhood
    -1e-40,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    1.175_494_350_822_287_5e-38, // f32::MIN_POSITIVE
    0.1,
    -1.0 / 3.0,
    0.5,
    PI,
    -PI,
    16_777_217.0,               // 2^24 + 1: the least integer f32 cannot hold
    3.402_823_466_385_288_6e38, // f32::MAX
    -3.402_823_466_385_288_6e38,
    3.402_823_5e38, // just past f32::MAX
    1e39,
    -1e39,
    1e300,
    -1e300,
    f64::MAX,
    -f64::MAX,
];

/// The `f32` just above `v` (`v` finite or −∞).
fn f32_above(v: f32) -> f32 {
    if v == f32::NEG_INFINITY {
        -f32::MAX
    } else if v == 0.0 {
        f32::from_bits(1)
    } else if v > 0.0 {
        f32::from_bits(v.to_bits() + 1)
    } else {
        f32::from_bits(v.to_bits() - 1)
    }
}

/// The box a tree stores for `[lo, hi]` (one dimension), read back
/// through its public iterator.
fn stored(lo: f64, hi: f64) -> (f64, f64) {
    let tree = RStarTree::bulk_load(RTreeConfig::default(), vec![(rect(lo, hi), 0u8)]);
    let (view, _) = tree.iter().next().expect("one entry");
    (view.lo().at(0), view.hi().at(0))
}

fn rect(lo: f64, hi: f64) -> Rect {
    Rect::new(vec![lo], vec![hi])
}

/// The stored box contains `[lo, hi]`, each bound the nearest `f32`
/// outward, and a bound `f32` holds exactly — sign of zero included — is
/// stored as it is.
fn check(lo: f64, hi: f64) {
    let (slo, shi) = stored(lo, hi);
    let what = format!("[{lo:e}, {hi:e}] stored as [{slo:e}, {shi:e}]");
    assert!(slo <= lo && hi <= shi, "{what}: the box shrank");
    assert!(
        f64::from(slo as f32) == slo && f64::from(shi as f32) == shi,
        "{what}"
    );
    assert!(slo != f64::INFINITY && shi != f64::NEG_INFINITY, "{what}");
    if slo != f64::NEG_INFINITY {
        assert!(
            f64::from(f32_above(slo as f32)) > lo,
            "{what}: lo not the nearest"
        );
    }
    if shi != f64::INFINITY {
        assert!(
            f64::from(-f32_above(-shi as f32)) < hi,
            "{what}: hi not the nearest"
        );
    }
    for (v, s) in [(lo, slo), (hi, shi)] {
        if f64::from(v as f32) == v {
            assert_eq!(s.to_bits(), v.to_bits(), "{what}: an f32-exact bound moved");
        }
    }
}

#[test]
fn stored_boxes_contain_their_f64_boxes() {
    for &a in &EDGES {
        for &b in &EDGES {
            if a <= b {
                check(a, b);
            }
        }
    }
    // Random bit patterns: every exponent, both signs.
    let seed = 0x5eed_f32b_0a11_u64;
    let mut state = seed;
    let mut draw = || loop {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = f64::from_bits(state);
        if v.is_finite() {
            return v;
        }
    };
    for case in 0..20_000 {
        let (a, b) = (draw(), draw());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let outcome = std::panic::catch_unwind(|| check(lo, hi));
        assert!(outcome.is_ok(), "seed {seed:#x}, case {case}");
    }
}

/// A stored point at angle π: `f32(π) > π`, so its box's upper angle bound
/// lies past π. The kernel reads it clamped to π — a narrow interval, not
/// a wrap to the full circle — so the kNN bound to a query coefficient at
/// angle 0 is the distance across the origin, not 0; and the box still
/// meets a query box around the point itself.
#[test]
fn a_stored_angle_at_pi_is_not_read_as_a_wrap() {
    let schema = FeatureSchema::NormalForm { k: 2 };
    let n = 16;
    let cosine = (0..n)
        .map(|t| (2.0 * PI * t as f64 / n as f64).cos())
        .collect();
    let query =
        Features::extract(&TimeSeries::new(cosine), schema, &mut FftPlanner::new()).unwrap();
    let space = SpaceKind::Polar;
    let mut point = space.point(&query, schema);
    let magnitude = point[2];
    assert!(
        point[3].abs() < 1e-12,
        "the query's first coefficient is at angle 0"
    );
    point[3] = PI;
    let tree = RStarTree::bulk_load(
        RTreeConfig::default(),
        vec![(Rect::from_point(&point), 0u8)],
    );
    let (view, _) = tree.iter().next().expect("one entry");
    assert!(view.hi().at(3) > PI, "the rounding this test is about");
    // A scale moves the normal form's mean and std, not its spectrum: the
    // stored coefficient stays at `m·e^{iπ}`, `2m` from the query's.
    for t in [LinearTransform::identity(n), LinearTransform::scale(n, 2.0)] {
        let bound = space.transformed_lower_bound(view, &t, schema, &query);
        let across = 2.0 * magnitude;
        assert!(
            bound > 0.999 * across && bound <= across,
            "{}: bound {bound}, the distance across the origin {across}",
            t.name()
        );
    }
    let at_point = Rect::from_point(&point).expanded(1e-6);
    let identity = LinearTransform::identity(n);
    assert!(space.transformed_intersects(view, &identity, schema, &at_point));
}
