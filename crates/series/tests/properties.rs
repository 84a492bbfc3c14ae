//! Property-based tests for the series substrate: metric axioms of the
//! distances, conservation laws of the moving averages, time-warp
//! round-trips, and the value semantics of [`TimeSeries`].

use tsq_series::distance::{chebyshev, city_block, distance_sq_within, euclidean, limit_sq};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::moving_average::{
    circular_moving_average, moving_average, weighted_circular_moving_average,
};
use tsq_series::warp::{compress_exact, downsample, stretch};
use tsq_series::TimeSeries;
use tsq_testkit::{property, Rng};

/// Cases per property.
const CASES: u32 = 96;

fn value(rng: &mut Rng) -> f64 {
    rng.float(-1e3..1e3)
}

/// The values of one bounded random series, 1 to `max_len` of them.
fn series(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    rng.list(1..=max_len, value)
}

/// The values of two equal-length random series, pointwise.
fn series_pair(rng: &mut Rng, max_len: usize) -> Vec<(f64, f64)> {
    rng.list(1..=max_len, |rng| (value(rng), value(rng)))
}

/// The values of three equal-length random series, pointwise.
fn series_triple(rng: &mut Rng, max_len: usize) -> Vec<(f64, f64, f64)> {
    rng.list(1..=max_len, |rng| (value(rng), value(rng), value(rng)))
}

/// A series' values together with a window in `1..=len`.
fn series_and_window(rng: &mut Rng, max_len: usize) -> (Vec<f64>, usize) {
    let values = series(rng, max_len);
    let window = rng.range(1, values.len());
    (values, window)
}

fn ts(values: &[f64]) -> TimeSeries {
    TimeSeries::new(values.to_vec())
}

/// The two series of pointwise pairs.
fn unzip(pairs: &[(f64, f64)]) -> (TimeSeries, TimeSeries) {
    let (x, y): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    (TimeSeries::new(x), TimeSeries::new(y))
}

// ---- distance: metric axioms ----------------------------------------------

/// All three distances are symmetric.
#[test]
fn distances_symmetric() {
    let draw = |rng: &mut Rng| (series_pair(rng, 64), ());
    property("distances_symmetric", CASES, draw, |xy, _| {
        let (x, y) = unzip(xy);
        assert!((euclidean(&x, &y) - euclidean(&y, &x)).abs() < 1e-9);
        assert!((city_block(&x, &y) - city_block(&y, &x)).abs() < 1e-9);
        assert!((chebyshev(&x, &y) - chebyshev(&y, &x)).abs() < 1e-9);
    });
}

/// Identity of indiscernibles, the easy half: d(x, x) = 0 exactly.
#[test]
fn distance_identity() {
    let draw = |rng: &mut Rng| (series(rng, 64), ());
    property("distance_identity", CASES, draw, |x, _| {
        let x = ts(x);
        assert_eq!(euclidean(&x, &x), 0.0);
        assert_eq!(city_block(&x, &x), 0.0);
        assert_eq!(chebyshev(&x, &x), 0.0);
    });
}

/// Non-negativity, plus the norm ordering
/// `chebyshev <= euclidean <= city_block`.
#[test]
fn distance_norm_ordering() {
    let draw = |rng: &mut Rng| (series_pair(rng, 64), ());
    property("distance_norm_ordering", CASES, draw, |xy, _| {
        let (x, y) = unzip(xy);
        let e = euclidean(&x, &y);
        let c = city_block(&x, &y);
        let m = chebyshev(&x, &y);
        assert!(e >= 0.0 && c >= 0.0 && m >= 0.0);
        assert!(m <= e + 1e-9);
        assert!(e <= c + 1e-9);
    });
}

/// The triangle inequality (the "triangle-ish bound": exact up to
/// floating-point slack scaled to the magnitudes involved).
#[test]
fn distance_triangle() {
    let draw = |rng: &mut Rng| (series_triple(rng, 48), ());
    property("distance_triangle", CASES, draw, |xyz, _| {
        let (x, yz): (Vec<f64>, Vec<(f64, f64)>) = xyz.iter().map(|&(x, y, z)| (x, (y, z))).unzip();
        let (x, (y, z)) = (TimeSeries::new(x), unzip(&yz));
        let slack = 1e-9 * (1.0 + euclidean(&x, &y) + euclidean(&y, &z));
        assert!(euclidean(&x, &z) <= euclidean(&x, &y) + euclidean(&y, &z) + slack);
        assert!(city_block(&x, &z) <= city_block(&x, &y) + city_block(&y, &z) + slack);
        assert!(chebyshev(&x, &z) <= chebyshev(&x, &y) + chebyshev(&y, &z) + slack);
    });
}

/// Early abandoning is sound: the kernel returns the reference
/// distance (bit for bit) for every threshold from the distance itself
/// up, and abandons below it.
#[test]
fn early_abandon_consistent() {
    let draw = |rng: &mut Rng| (series_pair(rng, 64), ());
    property("early_abandon_consistent", CASES, draw, |xy, _| {
        let (x, y) = unzip(xy);
        let d = euclidean(&x, &y);
        let within = |eps| distance_sq_within(x.values(), y.values(), limit_sq(eps));
        assert_eq!(within(d + 1.0).map(f64::sqrt), Some(d));
        assert_eq!(within(d).map(f64::sqrt), Some(d));
        if d > 1e-6 {
            assert_eq!(within(d * 0.5), None);
        }
    });
}

// ---- moving averages: conservation laws ------------------------------------

/// The circular moving average preserves both length and mean (every
/// value enters exactly `window` windows with weight `1/window`).
#[test]
fn circular_ma_preserves_length_and_mean() {
    let draw = |rng: &mut Rng| series_and_window(rng, 64);
    property(
        "circular_ma_preserves_length_and_mean",
        CASES,
        draw,
        |s, &w| {
            let s = ts(s);
            let ma = circular_moving_average(&s, w);
            assert_eq!(ma.len(), s.len());
            assert!((ma.mean() - s.mean()).abs() < 1e-9 * (1.0 + s.mean().abs()));
        },
    );
}

/// Smoothing never increases variability.
#[test]
fn circular_ma_contracts_std() {
    let draw = |rng: &mut Rng| series_and_window(rng, 64);
    property("circular_ma_contracts_std", CASES, draw, |s, &w| {
        let s = ts(s);
        assert!(circular_moving_average(&s, w).std() <= s.std() + 1e-9);
    });
}

/// The classical moving average produces `n - window + 1` values, and a
/// window of 1 is the identity for both variants (the circular variant
/// exactly; the classical one up to its sliding-accumulator rounding).
#[test]
fn classical_ma_length() {
    let draw = |rng: &mut Rng| series_and_window(rng, 64);
    property("classical_ma_length", CASES, draw, |s, &w| {
        let s = ts(s);
        assert_eq!(moving_average(&s, w).len(), s.len() - w + 1);
        assert_eq!(circular_moving_average(&s, 1), s.clone());
        for (a, b) in moving_average(&s, 1).iter().zip(s.iter()) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    });
}

/// Equal weights reduce the weighted variant to the unweighted one.
#[test]
fn weighted_ma_equal_weights() {
    let draw = |rng: &mut Rng| series_and_window(rng, 48);
    property("weighted_ma_equal_weights", CASES, draw, |s, &w| {
        let s = ts(s);
        let a = circular_moving_average(&s, w);
        let b = weighted_circular_moving_average(&s, &vec![1.0 / w as f64; w]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    });
}

// ---- warp: round-trips ------------------------------------------------------

/// `compress_exact` inverts `stretch` exactly (values are copied, so
/// equality is bitwise).
#[test]
fn warp_roundtrip() {
    let draw = |rng: &mut Rng| (series(rng, 48), rng.range(1, 5));
    property("warp_roundtrip", CASES, draw, |s, &m| {
        let s = ts(s);
        let stretched = stretch(&s, m);
        assert_eq!(stretched.len(), s.len() * m);
        assert_eq!(compress_exact(&stretched, m), Some(s));
    });
}

/// Downsampling a stretched series recovers the original as well.
#[test]
fn downsample_inverts_stretch() {
    let draw = |rng: &mut Rng| (series(rng, 48), rng.range(1, 5));
    property("downsample_inverts_stretch", CASES, draw, |s, &m| {
        let s = ts(s);
        assert_eq!(downsample(&stretch(&s, m), m), s);
    });
}

/// Stretching preserves the mean and leaves pairwise Euclidean
/// distances scaled by exactly `sqrt(m)`.
#[test]
fn stretch_preserves_mean_and_scales_distance() {
    let draw = |rng: &mut Rng| (series_pair(rng, 48), rng.range(1, 5));
    property(
        "stretch_preserves_mean_and_scales_distance",
        CASES,
        draw,
        |xy, &m| {
            let (x, y) = unzip(xy);
            let sx = stretch(&x, m);
            assert!((sx.mean() - x.mean()).abs() < 1e-9 * (1.0 + x.mean().abs()));
            let base = euclidean(&x, &y);
            let warped = euclidean(&sx, &stretch(&y, m));
            assert!((warped - (m as f64).sqrt() * base).abs() < 1e-6 * (1.0 + base));
        },
    );
}

/// A non-constant block makes `compress_exact` reject, while plain
/// `downsample` still succeeds.
#[test]
fn compress_rejects_tampered() {
    let draw = |rng: &mut Rng| (series(rng, 32), rng.range(2, 4));
    property("compress_rejects_tampered", CASES, draw, |s, &m| {
        let s = ts(s);
        let mut vals = stretch(&s, m).into_values();
        vals[0] += 1.0; // break constancy of the first block
        let tampered = TimeSeries::new(vals);
        assert_eq!(compress_exact(&tampered, m), None);
        assert_eq!(downsample(&tampered, m).len(), s.len());
    });
}

// ---- value semantics: a shared immutable buffer -----------------------------
// Cases are built from a seed, which every failure message carries.

/// `clone()` hands over the same buffer, and extending a value leaves
/// every earlier clone bit-identical, at its old length, where it was.
#[test]
fn extension_never_touches_an_earlier_clone() {
    let draw = |rng: &mut Rng| {
        (
            Vec::<()>::new(),
            (rng.range(0, (1 << 32) - 1), rng.range(0, 63)),
        )
    };
    property(
        "extension_never_touches_an_earlier_clone",
        CASES,
        draw,
        |_, &(seed, len)| {
            let mut g = RandomWalkGenerator::new(seed as u64);
            let mut live = g.series(len);
            let mut history: Vec<(TimeSeries, Vec<u64>, *const f64)> = Vec::new();
            for step in 0..5 {
                let at = format!("seed {seed}, length {len}, step {step}");
                let clone = live.clone();
                assert_eq!(clone.values().as_ptr(), live.values().as_ptr(), "{at}");
                let bits = live.iter().map(|v| v.to_bits()).collect();
                history.push((clone, bits, live.values().as_ptr()));
                let tail = g.series(1 + 3 * step).into_values();
                live.try_extend(&tail).unwrap();
                let (last, ..) = history.last().unwrap();
                assert_eq!(&live.values()[..last.len()], last.values(), "{at}");
                assert_eq!(&live.values()[last.len()..], &tail[..], "{at}");
                for (earlier, bits, ptr) in &history {
                    assert_eq!(earlier.values().as_ptr(), *ptr, "{at}");
                    let now: Vec<u64> = earlier.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(&now, bits, "{at}");
                }
            }
        },
    );
}

/// A tail with NaN or ±∞ anywhere in it is rejected at its absolute
/// position, and the value, its length and its buffer stay put.
#[test]
fn rejected_extension_leaves_value_length_and_buffer() {
    let draw = |rng: &mut Rng| {
        let (seed, len) = (rng.range(0, (1 << 32) - 1), rng.range(0, 63));
        let (tail_len, pick) = (rng.range(1, 15), rng.range(0, 47));
        (Vec::<()>::new(), (seed, len, tail_len, pick))
    };
    let name = "rejected_extension_leaves_value_length_and_buffer";
    property(name, CASES, draw, |_, &(seed, len, tail_len, pick)| {
        let at = format!("seed {seed}, length {len}, tail {tail_len}, pick {pick}");
        let mut g = RandomWalkGenerator::new(seed as u64);
        let mut series = g.series(len);
        let (before, ptr) = (series.clone(), series.values().as_ptr());
        let mut tail = g.series(tail_len).into_values();
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick % 3];
        tail[pick % tail_len] = bad;
        let err = series.try_extend(&tail).unwrap_err();
        assert_eq!(err.index, len + pick % tail_len, "{at}");
        assert_eq!(err.value.to_bits(), bad.to_bits(), "{at}");
        assert_eq!(series.len(), len, "{at}");
        assert_eq!(series.values().as_ptr(), ptr, "{at}");
        assert_eq!(&series, &before, "{at}");
    });
}
