//! Moving averages.
//!
//! The paper uses a *circular* l-day moving average (Example 1.1): the
//! averaging window wraps around the end of the sequence, producing an
//! output of the same length `n`, so that the operation equals a circular
//! convolution with the kernel `(1/l, ..., 1/l, 0, ..., 0)` and is therefore
//! expressible as a frequency-domain transformation (Section 3.2). The
//! classical `n - l + 1`-length moving average is also provided; the two
//! "are almost the same" when `l << n`, which a test quantifies.

use crate::series::TimeSeries;

/// Circular `window`-point moving average: output value `i` is the mean of
/// the `window` values *ending* at position `i`, wrapping around the start
/// of the sequence. Output length equals input length, matching
/// `conv(s, m_l)` with the paper's kernel (Equation 11 with equal weights).
///
/// # Panics
/// Panics if `window` is zero or exceeds the sequence length.
pub fn circular_moving_average(s: &TimeSeries, window: usize) -> TimeSeries {
    weighted_circular_moving_average(s, &vec![1.0 / window as f64; window])
}

/// Circular weighted moving average with arbitrary kernel weights
/// `w_1..w_m` (Equation 11): output value `i` is
/// `sum_j w_{j+1} * s_{(i - j) mod n}`.
///
/// Trend-prediction kernels weight recent days more; smoothing kernels
/// weight the center (both discussed in Section 3.2).
///
/// # Panics
/// Panics if the kernel is empty or longer than the sequence.
pub fn weighted_circular_moving_average(s: &TimeSeries, weights: &[f64]) -> TimeSeries {
    let n = s.len();
    let m = weights.len();
    assert!(m > 0, "kernel must be non-empty");
    assert!(m <= n, "kernel longer than sequence ({m} > {n})");
    let v = s.values();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut acc = 0.0;
        for (j, &w) in weights.iter().enumerate() {
            let idx = (i + n - j) % n;
            acc += w * v[idx];
        }
        out.push(acc);
    }
    TimeSeries::new(out)
}

/// Classical moving average: means over every in-bounds window, producing
/// `n - window + 1` values.
///
/// # Panics
/// Panics if `window` is zero or exceeds the sequence length.
pub fn moving_average(s: &TimeSeries, window: usize) -> TimeSeries {
    let n = s.len();
    assert!(window > 0, "window must be positive");
    assert!(window <= n, "window longer than sequence ({window} > {n})");
    let v = s.values();
    let inv = 1.0 / window as f64;
    let mut acc: f64 = v[..window].iter().sum();
    let mut out = Vec::with_capacity(n - window + 1);
    out.push(acc * inv);
    for i in window..n {
        acc += v[i] - v[i - window];
        out.push(acc * inv);
    }
    TimeSeries::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;

    /// The frequency-domain kernel of the `window`-point circular moving
    /// average as a length-`n` time-domain vector (the paper's `m_l`):
    /// `(1/l, ..., 1/l, 0, ..., 0)`.
    fn kernel(n: usize, window: usize) -> Vec<f64> {
        let mut k = vec![0.0; n];
        k[..window].fill(1.0 / window as f64);
        k
    }

    /// Direct circular convolution (Equation 4):
    /// `out_i = sum_k x_k * y_{(i - k) mod n}`.
    fn conv_real(x: &[f64], y: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| (0..n).map(|k| x[k] * y[(i + n - k) % n]).sum())
            .collect()
    }

    #[test]
    fn circular_ma_small_example() {
        // s = (1, 2, 3, 4), window 2:
        // out_0 = (s_0 + s_3)/2 = 2.5 (wraps), out_1 = 1.5, out_2 = 2.5, out_3 = 3.5
        let s = TimeSeries::from([1.0, 2.0, 3.0, 4.0]);
        let ma = circular_moving_average(&s, 2);
        assert_eq!(ma.values(), &[2.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn circular_ma_equals_convolution() {
        let s = TimeSeries::from([36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0]);
        let k = kernel(7, 3);
        let conv = conv_real(s.values(), &k);
        let ma = circular_moving_average(&s, 3);
        for (a, b) in conv.iter().zip(ma.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn window_one_is_identity() {
        let s = TimeSeries::from([5.0, 1.0, 7.0]);
        assert_eq!(circular_moving_average(&s, 1).values(), s.values());
        assert_eq!(moving_average(&s, 1).values(), s.values());
    }

    #[test]
    fn full_window_is_global_mean() {
        let s = TimeSeries::from([1.0, 2.0, 3.0, 6.0]);
        let ma = circular_moving_average(&s, 4);
        for v in ma.iter() {
            assert!((v - 3.0).abs() < 1e-12);
        }
        let cls = moving_average(&s, 4);
        assert_eq!(cls.len(), 1);
        assert!((cls[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn classical_ma_length() {
        let s = TimeSeries::from([1.0, 2.0, 3.0, 4.0, 5.0]);
        let ma = moving_average(&s, 3);
        assert_eq!(ma.values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn weighted_ma_reduces_to_equal_weights() {
        let s = TimeSeries::from([3.0, -1.0, 4.0, 1.0, 5.0, 9.0]);
        let a = circular_moving_average(&s, 3);
        let b = weighted_circular_moving_average(&s, &[1.0 / 3.0; 3]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_ma_trend_kernel() {
        // Heavier weight on the most recent day.
        let s = TimeSeries::from([1.0, 2.0, 4.0]);
        let ma = weighted_circular_moving_average(&s, &[0.7, 0.3]);
        // out_0 = 0.7*s0 + 0.3*s2 = 0.7 + 1.2 = 1.9
        assert!((ma[0] - 1.9).abs() < 1e-12);
        assert!((ma[1] - (0.7 * 2.0 + 0.3 * 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window longer")]
    fn oversized_window_panics() {
        let s = TimeSeries::from([1.0, 2.0]);
        let _ = moving_average(&s, 3);
    }

    #[test]
    fn circular_and_classical_agree_when_window_small() {
        // "when the length of the window is small enough compared to the
        // length of the sequence ... both averages are almost the same"
        // (Example 1.1): away from the wrap-around region they coincide
        // exactly.
        let vals: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.17).sin() * 10.0 + 50.0)
            .collect();
        let s = TimeSeries::new(vals);
        let w = 5;
        let circ = circular_moving_average(&s, w);
        let cls = moving_average(&s, w);
        // circ[i] for i >= w-1 equals cls[i + 1 - w].
        for i in (w - 1)..s.len() {
            // The classical MA uses a sliding accumulator, so allow for its
            // accumulated rounding relative to the direct per-window sums.
            assert!((circ[i] - cls[i + 1 - w]).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_ma_smooths_towards_flat() {
        // Example 2.3's discussion: iterating the moving average keeps
        // reducing variability.
        let vals: Vec<f64> = (0..64).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut s = TimeSeries::new(vals);
        let mut prev_std = s.std();
        for _ in 0..3 {
            s = circular_moving_average(&s, 8);
            let cur = s.std();
            assert!(cur <= prev_std + 1e-12);
            prev_std = cur;
        }
    }

    #[test]
    fn ma_brings_similar_series_closer() {
        // Smoothing reduces distance contributed by uncorrelated noise.
        let a: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin() * 5.0).collect();
        let noise: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let b: Vec<f64> = a.iter().zip(&noise).map(|(x, e)| x + e).collect();
        let sa = TimeSeries::new(a);
        let sb = TimeSeries::new(b);
        let before = euclidean(&sa, &sb);
        let after = euclidean(
            &circular_moving_average(&sa, 4),
            &circular_moving_average(&sb, 4),
        );
        assert!(after < before * 0.5, "MA should suppress alternating noise");
    }
}
