//! Incremental **sliding DFT**: maintain the first `k` unitary DFT
//! coefficients of a length-`w` window as it slides over a longer sequence,
//! in `O(k)` work per step instead of an `O(w log w)` transform per window.
//!
//! With the unitary convention (Equation 1), the coefficients of the window
//! starting at `t` are
//!
//! ```text
//! X_f(t) = 1/sqrt(w) * sum_{j=0}^{w-1} x_{t+j} e^{-i 2 pi j f / w}
//! ```
//!
//! and advancing the window by one sample satisfies the recurrence
//!
//! ```text
//! X_f(t+1) = e^{+i 2 pi f / w} * (X_f(t) + (x_{t+w} - x_t) / sqrt(w))
//! ```
//!
//! because `e^{-i 2 pi w f / w} = 1`: the outgoing sample is removed, the
//! incoming one enters with the same phase, and the whole spectrum is
//! rotated one bin. This is the feature-extraction engine of the
//! subsequence ST-index (`tsq-core::subseq`), where every stored series
//! contributes `n - w + 1` overlapping windows and recomputing a full FFT
//! per window would dominate index construction.
//!
//! ## Numerical drift
//!
//! Each step multiplies by a unit-magnitude twiddle factor, so rounding
//! error grows (slowly, and only additively) with the number of steps. The
//! driver [`sliding_prefix`] therefore re-anchors the recurrence with an
//! exact prefix transform every [`REFRESH_INTERVAL`] steps, keeping the
//! worst-case deviation from an independently recomputed DFT far below the
//! `1e-9` the property suite demands.

use crate::complex::Complex64;
use crate::dft::dft_prefix;

/// Steps between exact re-anchorings in [`sliding_prefix`]. At ~1 ulp of
/// accumulated phase error per step this bounds drift near `1e-12` for
/// typical magnitudes, with a refresh cost amortized to `O(w*k / 256)` per
/// step — negligible against the `O(k)` update itself.
pub const REFRESH_INTERVAL: usize = 256;

/// Incremental sliding-window DFT over the first `k` coefficients.
///
/// Low-level interface: the caller feeds outgoing/incoming sample pairs via
/// [`SlidingDft::slide`]. No re-anchoring is performed here (the struct
/// never sees the full window); use [`sliding_prefix`] to walk a whole
/// series with periodic exact refreshes.
#[derive(Debug, Clone)]
pub struct SlidingDft {
    window: usize,
    scale: f64,
    /// `e^{+i 2 pi f / w}` for `f = 0..k`.
    twiddles: Vec<Complex64>,
    coeffs: Vec<Complex64>,
}

impl SlidingDft {
    /// Initializes the recurrence from the first window of a sequence.
    ///
    /// # Panics
    /// Panics when `initial.len() != window`, `window == 0`, or `k == 0`.
    pub fn new(window: usize, k: usize, initial: &[f64]) -> Self {
        assert!(window > 0, "sliding DFT window must be non-empty");
        assert!(k > 0, "sliding DFT needs at least one coefficient");
        assert_eq!(initial.len(), window, "initial window length mismatch");
        let k = k.min(window);
        let step = std::f64::consts::TAU / window as f64;
        let twiddles = (0..k).map(|f| Complex64::cis(step * f as f64)).collect();
        SlidingDft {
            window,
            scale: 1.0 / (window as f64).sqrt(),
            twiddles,
            coeffs: dft_prefix(initial, k),
        }
    }

    /// Window length `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of maintained coefficients.
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// Current coefficients `X_0..X_{k-1}` of the window.
    pub fn coeffs(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// Advances the window one step: `outgoing` is the sample leaving the
    /// window (`x_t`), `incoming` the one entering (`x_{t+w}`). `O(k)`.
    #[inline]
    pub fn slide(&mut self, outgoing: f64, incoming: f64) {
        let delta = (incoming - outgoing) * self.scale;
        for (c, &tw) in self.coeffs.iter_mut().zip(&self.twiddles) {
            *c = (*c + Complex64::from_real(delta)) * tw;
        }
    }

    /// Replaces the maintained coefficients with an exactly recomputed
    /// prefix transform of `window` (re-anchoring the recurrence).
    ///
    /// # Panics
    /// Panics when `window.len() != self.window()`.
    pub fn refresh(&mut self, window: &[f64]) {
        assert_eq!(window.len(), self.window, "refresh window length mismatch");
        self.coeffs = dft_prefix(window, self.coeffs.len());
    }
}

/// A resumable walk over the window offsets of one sequence: the
/// [`SlidingDft`] recurrence plus the *absolute* offset it is anchored at,
/// with re-anchoring on the fixed [`REFRESH_INTERVAL`] schedule.
///
/// Because the refresh schedule is keyed on absolute offsets (`t %
/// REFRESH_INTERVAL == 0`) and both the initial window and every refresh
/// go through the same exact prefix transform, a cursor resumed at offset
/// `t` via [`SlidingCursor::resume`] holds coefficients **bit-identical**
/// to a cursor that walked there from offset 0. This is what lets a
/// streaming append continue a series' trail extraction exactly where the
/// original build left off instead of recomputing the prefix.
#[derive(Debug, Clone)]
pub struct SlidingCursor {
    sdft: SlidingDft,
    offset: usize,
}

impl SlidingCursor {
    /// Positions a cursor at window offset 0 of `x`.
    ///
    /// # Panics
    /// Panics when `x.len() < window`, `window == 0`, or `k == 0`.
    pub fn new(x: &[f64], window: usize, k: usize) -> Self {
        SlidingCursor {
            sdft: SlidingDft::new(window, k, &x[..window]),
            offset: 0,
        }
    }

    /// Positions a cursor at window offset `offset` of `x`, replaying from
    /// the nearest anchor at or before `offset` (at most
    /// `REFRESH_INTERVAL - 1` slides), so the state is bit-identical to a
    /// cursor advanced there from offset 0.
    ///
    /// # Panics
    /// Panics when `offset + window > x.len()`, `window == 0`, or `k == 0`.
    pub fn resume(x: &[f64], window: usize, k: usize, offset: usize) -> Self {
        assert!(
            offset + window <= x.len(),
            "resume offset {offset} puts the window past the sequence"
        );
        let anchor = (offset / REFRESH_INTERVAL) * REFRESH_INTERVAL;
        let mut cursor = SlidingCursor {
            sdft: SlidingDft::new(window, k, &x[anchor..anchor + window]),
            offset: anchor,
        };
        while cursor.offset < offset {
            cursor.advance(x);
        }
        cursor
    }

    /// The window offset the coefficients currently describe.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Coefficients `X_0..X_{k-1}` of the window at [`SlidingCursor::offset`].
    pub fn coeffs(&self) -> &[Complex64] {
        self.sdft.coeffs()
    }

    /// Steps to the next window offset, refreshing exactly when the new
    /// offset lands on the [`REFRESH_INTERVAL`] schedule.
    ///
    /// # Panics
    /// Panics when the next window would run past the end of `x`.
    pub fn advance(&mut self, x: &[f64]) {
        let w = self.sdft.window();
        let t = self.offset + 1;
        assert!(t + w <= x.len(), "advance past the last window of x");
        if t % REFRESH_INTERVAL == 0 {
            self.sdft.refresh(&x[t..t + w]);
        } else {
            self.sdft.slide(x[t - 1], x[t + w - 1]);
        }
        self.offset = t;
    }
}

/// First `k` unitary DFT coefficients of **every** length-`window` window of
/// `x`, computed incrementally with periodic exact re-anchoring.
///
/// Returns one coefficient vector per window offset (`x.len() - window + 1`
/// of them), or an empty vector when `x` is shorter than the window.
/// The property suite pins it against an independent full transform per
/// window. It is implemented over [`SlidingCursor`] — the walk the
/// ST-index builds and extends its trails with, without materialising a
/// vector per window — so the two agree bit for bit.
pub fn sliding_prefix(x: &[f64], window: usize, k: usize) -> Vec<Vec<Complex64>> {
    assert!(window > 0, "sliding DFT window must be non-empty");
    if x.len() < window {
        return Vec::new();
    }
    let count = x.len() - window + 1;
    let mut out = Vec::with_capacity(count);
    let mut cursor = SlidingCursor::new(x, window, k);
    out.push(cursor.coeffs().to_vec());
    for _ in 1..count {
        cursor.advance(x);
        out.push(cursor.coeffs().to_vec());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn agrees_with_direct_prefix_power_of_two() {
        let x: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 0.01 * i as f64)
            .collect();
        let w = 16;
        let k = 4;
        let windows = sliding_prefix(&x, w, k);
        assert_eq!(windows.len(), x.len() - w + 1);
        for (t, got) in windows.iter().enumerate() {
            let want = dft_prefix(&x[t..t + w], k);
            assert!(max_err(got, &want) < 1e-10, "offset {t}");
        }
    }

    #[test]
    fn agrees_with_direct_prefix_odd_window() {
        // Window length 15 (the paper's Example-length, not a power of two).
        let x: Vec<f64> = (0..123).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let windows = sliding_prefix(&x, 15, 5);
        for (t, got) in windows.iter().enumerate() {
            let want = dft_prefix(&x[t..t + 15], 5);
            assert!(max_err(got, &want) < 1e-10, "offset {t}");
        }
    }

    #[test]
    fn k_clamped_to_window() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = SlidingDft::new(3, 10, &x[..3]);
        assert_eq!(s.k(), 3);
    }

    #[test]
    fn short_input_yields_no_windows() {
        assert!(sliding_prefix(&[1.0, 2.0], 5, 2).is_empty());
    }

    #[test]
    fn single_window_input() {
        let x = [3.0, -1.0, 4.0, -1.0];
        let windows = sliding_prefix(&x, 4, 2);
        assert_eq!(windows.len(), 1);
        let want = dft_prefix(&x, 2);
        assert!(max_err(&windows[0], &want) < 1e-12);
    }

    #[test]
    fn drift_stays_bounded_over_long_slides() {
        // 5,000 steps without hitting pathological cancellation: the
        // re-anchoring keeps the error far below the suite's 1e-9 budget.
        let x: Vec<f64> = (0..5_064)
            .map(|i| (i as f64 * 0.11).sin() * 1e3 + (i as f64 * 0.013).cos() * 200.0)
            .collect();
        let w = 64;
        let k = 3;
        let windows = sliding_prefix(&x, w, k);
        let mut worst = 0.0f64;
        for (t, got) in windows.iter().enumerate().step_by(97) {
            let want = dft_prefix(&x[t..t + w], k);
            worst = worst.max(max_err(got, &want));
        }
        assert!(worst < 1e-9, "worst drift {worst}");
    }

    #[test]
    fn resumed_cursor_is_bit_identical_to_walked_cursor() {
        // Long enough to cross several refresh anchors.
        let x: Vec<f64> = (0..900)
            .map(|i| (i as f64 * 0.21).sin() * 7.0 - 0.002 * i as f64)
            .collect();
        let w = 32;
        let k = 3;
        let all = sliding_prefix(&x, w, k);
        for offset in [0, 1, 7, 255, 256, 257, 511, 512, 700, all.len() - 1] {
            let cursor = SlidingCursor::resume(&x, w, k, offset);
            assert_eq!(cursor.offset(), offset);
            // Bit-identical, not merely close: streaming extension relies
            // on reproducing the original walk exactly.
            assert_eq!(cursor.coeffs(), &all[offset][..], "offset {offset}");
        }
        // A resumed cursor continues the walk bit-identically too.
        let mut cursor = SlidingCursor::resume(&x, w, k, 300);
        for (t, expected) in all.iter().enumerate().skip(301) {
            cursor.advance(&x);
            assert_eq!(cursor.coeffs(), &expected[..], "offset {t}");
        }
    }

    #[test]
    fn cursor_sees_appends_as_a_continuation() {
        // Walking the prefix then appending must equal walking the final
        // sequence from scratch, bit for bit.
        let full: Vec<f64> = (0..640).map(|i| ((i * 31 % 97) as f64) * 0.5).collect();
        let (w, k) = (16, 4);
        for split in [16, 100, 256, 500] {
            let prefix = &full[..split];
            let mut cursor = SlidingCursor::resume(prefix, w, k, split - w);
            let all = sliding_prefix(&full, w, k);
            for (t, expected) in all.iter().enumerate().skip(split - w + 1) {
                cursor.advance(&full);
                assert_eq!(cursor.coeffs(), &expected[..], "split {split} offset {t}");
            }
        }
    }

    #[test]
    fn manual_slide_matches_convenience_driver() {
        let x: Vec<f64> = (0..40).map(|i| (i as f64).cos() * 2.0).collect();
        let w = 8;
        let k = 3;
        let mut sdft = SlidingDft::new(w, k, &x[..w]);
        let all = sliding_prefix(&x, w, k);
        assert!(max_err(sdft.coeffs(), &all[0]) < 1e-12);
        for t in 1..all.len() {
            sdft.slide(x[t - 1], x[t + w - 1]);
            assert!(max_err(sdft.coeffs(), &all[t]) < 1e-9, "offset {t}");
        }
    }
}
