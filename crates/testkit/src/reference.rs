//! The unitary DFT of a real series by the defining sums (Equation 1,
//! `tsq_dft::dft`) and the coefficients of every window: the references
//! the Fourier property suites compare the planner and the sliding cursor
//! against.

use tsq_dft::dft::dft;
use tsq_dft::{Complex64, SlidingCursor};

/// The unitary DFT of a real sequence: all `n` coefficients.
pub fn dft_real(x: &[f64]) -> Vec<Complex64> {
    let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
    dft(&cx)
}

/// The first `k` coefficients of every length-`window` window of `x`, one
/// vector per offset (none when `x` is shorter than the window), walked
/// by [`SlidingCursor`] as the ST-index walks a series.
pub fn sliding_prefix(x: &[f64], window: usize, k: usize) -> Vec<Vec<Complex64>> {
    assert!(window > 0, "sliding DFT window must be non-empty");
    if x.len() < window {
        return Vec::new();
    }
    let mut cursor = SlidingCursor::new(x, window, k);
    let mut out = vec![cursor.coeffs().to_vec()];
    for _ in window..x.len() {
        cursor.advance(x);
        out.push(cursor.coeffs().to_vec());
    }
    out
}
