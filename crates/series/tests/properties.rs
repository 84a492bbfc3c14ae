//! Property-based tests for the series substrate: metric axioms of the
//! distances, conservation laws of the moving averages, and time-warp
//! round-trips.

use proptest::prelude::*;
use tsq_series::distance::{chebyshev, city_block, distance_sq_within, euclidean, limit_sq};
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
}
