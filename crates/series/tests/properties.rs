//! Property-based tests for the series substrate: metric axioms of the
//! distances, conservation laws of the moving averages, time-warp
//! round-trips, and the value semantics of [`TimeSeries`].

use proptest::prelude::*;
use tsq_series::distance::{chebyshev, city_block, distance_sq_within, euclidean, limit_sq};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::moving_average::{
    circular_moving_average, moving_average, weighted_circular_moving_average,
};
use tsq_series::warp::{compress_exact, downsample, stretch};
use tsq_series::TimeSeries;

/// One bounded random series.
fn series(max_len: usize) -> impl Strategy<Value = TimeSeries> {
    prop::collection::vec(-1e3f64..1e3, 1..=max_len).prop_map(TimeSeries::new)
}

/// A pair of equal-length random series.
fn series_pair(max_len: usize) -> impl Strategy<Value = (TimeSeries, TimeSeries)> {
    (1usize..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(TimeSeries::new),
            prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(TimeSeries::new),
        )
    })
}

/// A triple of equal-length random series.
fn series_triple(max_len: usize) -> impl Strategy<Value = (TimeSeries, TimeSeries, TimeSeries)> {
    (1usize..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(TimeSeries::new),
            prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(TimeSeries::new),
            prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(TimeSeries::new),
        )
    })
}

/// A series together with a window in `1..=len`.
fn series_and_window(max_len: usize) -> impl Strategy<Value = (TimeSeries, usize)> {
    (1usize..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(TimeSeries::new),
            1..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // ---- distance: metric axioms ----------------------------------------

    /// All three distances are symmetric.
    #[test]
    fn distances_symmetric((x, y) in series_pair(64)) {
        prop_assert!((euclidean(&x, &y) - euclidean(&y, &x)).abs() < 1e-9);
        prop_assert!((city_block(&x, &y) - city_block(&y, &x)).abs() < 1e-9);
        prop_assert!((chebyshev(&x, &y) - chebyshev(&y, &x)).abs() < 1e-9);
    }

    /// Identity of indiscernibles, the easy half: d(x, x) = 0 exactly.
    #[test]
    fn distance_identity(x in series(64)) {
        prop_assert_eq!(euclidean(&x, &x), 0.0);
        prop_assert_eq!(city_block(&x, &x), 0.0);
        prop_assert_eq!(chebyshev(&x, &x), 0.0);
    }

    /// Non-negativity, plus the norm ordering
    /// `chebyshev <= euclidean <= city_block`.
    #[test]
    fn distance_norm_ordering((x, y) in series_pair(64)) {
        let e = euclidean(&x, &y);
        let c = city_block(&x, &y);
        let m = chebyshev(&x, &y);
        prop_assert!(e >= 0.0 && c >= 0.0 && m >= 0.0);
        prop_assert!(m <= e + 1e-9);
        prop_assert!(e <= c + 1e-9);
    }

    /// The triangle inequality (the "triangle-ish bound": exact up to
    /// floating-point slack scaled to the magnitudes involved).
    #[test]
    fn distance_triangle((x, y, z) in series_triple(48)) {
        let slack = 1e-9 * (1.0 + euclidean(&x, &y) + euclidean(&y, &z));
        prop_assert!(euclidean(&x, &z) <= euclidean(&x, &y) + euclidean(&y, &z) + slack);
        prop_assert!(city_block(&x, &z) <= city_block(&x, &y) + city_block(&y, &z) + slack);
        prop_assert!(chebyshev(&x, &z) <= chebyshev(&x, &y) + chebyshev(&y, &z) + slack);
    }

    /// Early abandoning is sound: the kernel returns the reference
    /// distance (bit for bit) for every threshold from the distance itself
    /// up, and abandons below it.
    #[test]
    fn early_abandon_consistent((x, y) in series_pair(64)) {
        let d = euclidean(&x, &y);
        let within = |eps| distance_sq_within(x.values(), y.values(), limit_sq(eps));
        prop_assert_eq!(within(d + 1.0).map(f64::sqrt), Some(d));
        prop_assert_eq!(within(d).map(f64::sqrt), Some(d));
        if d > 1e-6 {
            prop_assert_eq!(within(d * 0.5), None);
        }
    }

    // ---- moving averages: conservation laws ------------------------------

    /// The circular moving average preserves both length and mean (every
    /// value enters exactly `window` windows with weight `1/window`).
    #[test]
    fn circular_ma_preserves_length_and_mean((s, w) in series_and_window(64)) {
        let ma = circular_moving_average(&s, w);
        prop_assert_eq!(ma.len(), s.len());
        prop_assert!((ma.mean() - s.mean()).abs() < 1e-9 * (1.0 + s.mean().abs()));
    }

    /// Smoothing never increases variability.
    #[test]
    fn circular_ma_contracts_std((s, w) in series_and_window(64)) {
        prop_assert!(circular_moving_average(&s, w).std() <= s.std() + 1e-9);
    }

    /// The classical moving average produces `n - window + 1` values, and a
    /// window of 1 is the identity for both variants (the circular variant
    /// exactly; the classical one up to its sliding-accumulator rounding).
    #[test]
    fn classical_ma_length((s, w) in series_and_window(64)) {
        prop_assert_eq!(moving_average(&s, w).len(), s.len() - w + 1);
        prop_assert_eq!(circular_moving_average(&s, 1), s.clone());
        for (a, b) in moving_average(&s, 1).iter().zip(s.iter()) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Equal weights reduce the weighted variant to the unweighted one.
    #[test]
    fn weighted_ma_equal_weights((s, w) in series_and_window(48)) {
        let a = circular_moving_average(&s, w);
        let b = weighted_circular_moving_average(&s, &vec![1.0 / w as f64; w]);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    // ---- warp: round-trips ------------------------------------------------

    /// `compress_exact` inverts `stretch` exactly (values are copied, so
    /// equality is bitwise).
    #[test]
    fn warp_roundtrip(s in series(48), m in 1usize..6) {
        let stretched = stretch(&s, m);
        prop_assert_eq!(stretched.len(), s.len() * m);
        prop_assert_eq!(compress_exact(&stretched, m), Some(s));
    }

    /// Downsampling a stretched series recovers the original as well.
    #[test]
    fn downsample_inverts_stretch(s in series(48), m in 1usize..6) {
        prop_assert_eq!(downsample(&stretch(&s, m), m), s);
    }

    /// Stretching preserves the mean and leaves pairwise Euclidean
    /// distances scaled by exactly `sqrt(m)`.
    #[test]
    fn stretch_preserves_mean_and_scales_distance((x, y) in series_pair(48), m in 1usize..6) {
        let sx = stretch(&x, m);
        prop_assert!((sx.mean() - x.mean()).abs() < 1e-9 * (1.0 + x.mean().abs()));
        let base = euclidean(&x, &y);
        let warped = euclidean(&sx, &stretch(&y, m));
        prop_assert!((warped - (m as f64).sqrt() * base).abs() < 1e-6 * (1.0 + base));
    }

    /// A non-constant block makes `compress_exact` reject, while plain
    /// `downsample` still succeeds.
    #[test]
    fn compress_rejects_tampered(s in series(32), m in 2usize..5) {
        let mut vals = stretch(&s, m).into_values();
        vals[0] += 1.0; // break constancy of the first block
        let tampered = TimeSeries::new(vals);
        prop_assert_eq!(compress_exact(&tampered, m), None);
        prop_assert_eq!(downsample(&tampered, m).len(), s.len());
    }

    // ---- value semantics: a shared immutable buffer -------------------------
    // Cases are built from a seed, which every failure message carries.

    /// `clone()` hands over the same buffer, and extending a value leaves
    /// every earlier clone bit-identical, at its old length, where it was.
    #[test]
    fn extension_never_touches_an_earlier_clone(seed in 0u64..1 << 32, len in 0usize..64) {
        let mut g = RandomWalkGenerator::new(seed);
        let mut live = g.series(len);
        let mut history: Vec<(TimeSeries, Vec<u64>, *const f64)> = Vec::new();
        for step in 0..5 {
            let at = format!("seed {seed}, length {len}, step {step}");
            let clone = live.clone();
            prop_assert_eq!(clone.values().as_ptr(), live.values().as_ptr(), "{}", at);
            let bits = live.iter().map(|v| v.to_bits()).collect();
            history.push((clone, bits, live.values().as_ptr()));
            let tail = g.series(1 + 3 * step).into_values();
            live.try_extend(&tail).unwrap();
            let (last, ..) = history.last().unwrap();
            prop_assert_eq!(&live.values()[..last.len()], last.values(), "{}", at);
            prop_assert_eq!(&live.values()[last.len()..], &tail[..], "{}", at);
            for (earlier, bits, ptr) in &history {
                prop_assert_eq!(earlier.values().as_ptr(), *ptr, "{}", at);
                let now: Vec<u64> = earlier.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&now, bits, "{}", at);
            }
        }
    }

    /// A tail with NaN or ±∞ anywhere in it is rejected at its absolute
    /// position, and the value, its length and its buffer stay put.
    #[test]
    fn rejected_extension_leaves_value_length_and_buffer(
        seed in 0u64..1 << 32,
        len in 0usize..64,
        tail_len in 1usize..16,
        pick in 0usize..48,
    ) {
        let at = format!("seed {seed}, length {len}, tail {tail_len}, pick {pick}");
        let mut g = RandomWalkGenerator::new(seed);
        let mut series = g.series(len);
        let (before, ptr) = (series.clone(), series.values().as_ptr());
        let mut tail = g.series(tail_len).into_values();
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick % 3];
        tail[pick % tail_len] = bad;
        let err = series.try_extend(&tail).unwrap_err();
        prop_assert_eq!(err.index, len + pick % tail_len, "{}", at);
        prop_assert_eq!(err.value.to_bits(), bad.to_bits(), "{}", at);
        prop_assert_eq!(series.len(), len, "{}", at);
        prop_assert_eq!(series.values().as_ptr(), ptr, "{}", at);
        prop_assert_eq!(&series, &before, "{}", at);
    }
}
