//! Reference discrete Fourier transform (naive `O(n^2)` evaluation).
//!
//! The definitions follow Section 1.1 of the paper exactly, including the
//! *unitary* `1/sqrt(n)` factor in **both** directions (Equations 1 and 2):
//!
//! ```text
//! X_f = 1/sqrt(n) * sum_t x_t e^{-j 2 pi t f / n}
//! x_t = 1/sqrt(n) * sum_f X_f e^{+j 2 pi t f / n}
//! ```
//!
//! With this convention the transform is unitary, so energy and Euclidean
//! distance are preserved (Parseval, Equations 7–8). The fast implementations
//! in `crate::fft` and `crate::bluestein` are verified against this
//! module in tests.

use crate::complex::{Complex64, ZERO};

/// Computes the unitary DFT of a complex sequence (Equation 1).
pub fn dft(x: &[Complex64]) -> Vec<Complex64> {
    transform(x, -1.0)
}

/// Computes the unitary inverse DFT (Equation 2).
pub fn idft(x: &[Complex64]) -> Vec<Complex64> {
    transform(x, 1.0)
}

/// Shared kernel: `sign = -1` forward, `+1` inverse, both scaled by
/// `1/sqrt(n)`.
fn transform(x: &[Complex64], sign: f64) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (n as f64).sqrt();
    let step = sign * std::f64::consts::TAU / n as f64;
    let mut out = Vec::with_capacity(n);
    for f in 0..n {
        let mut acc = ZERO;
        for (t, &xt) in x.iter().enumerate() {
            // Reduce t*f modulo n before computing the phase so the angle
            // stays small and sin/cos remain accurate for long sequences.
            let k = (t * f) % n;
            acc += xt * Complex64::cis(step * k as f64);
        }
        out.push(acc * scale);
    }
    out
}

/// Extracts the first `k` unitary DFT coefficients of a real sequence.
///
/// This is the feature-extraction primitive of AFS93-style indexing: for
/// most "brown noise"-like sequences the energy concentrates in the first few
/// coefficients, so the prefix is a faithful low-dimensional signature.
pub fn dft_prefix(x: &[f64], k: usize) -> Vec<Complex64> {
    let n = x.len();
    let k = k.min(n);
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (n as f64).sqrt();
    let step = -std::f64::consts::TAU / n as f64;
    let mut out = Vec::with_capacity(k);
    for f in 0..k {
        let mut acc = ZERO;
        for (t, &xt) in x.iter().enumerate() {
            let kk = (t * f) % n;
            acc += Complex64::from_real(xt) * Complex64::cis(step * kk as f64);
        }
        out.push(acc * scale);
    }
    out
}

/// Computes the unitary DFT of a real-valued sequence (Equation 1): all
/// `n` coefficients, `O(n^2)`.
#[cfg(test)]
pub(crate) fn dft_real(x: &[f64]) -> Vec<Complex64> {
    let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
    dft(&cx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn empty_input() {
        assert!(dft(&[]).is_empty());
        assert!(idft(&[]).is_empty());
        assert!(dft_real(&[]).is_empty());
    }

    #[test]
    fn single_element_is_identity() {
        let x = [Complex64::new(3.5, -1.0)];
        assert_close(&dft(&x), &x, 1e-12);
        assert_close(&idft(&x), &x, 1e-12);
    }

    #[test]
    fn constant_sequence_concentrates_in_dc() {
        // DFT of a constant c over n points = [c*sqrt(n), 0, 0, ...].
        let x = vec![2.0; 16];
        let spec = dft_real(&x);
        assert!((spec[0].re - 2.0 * 4.0).abs() < 1e-12);
        for c in &spec[1..] {
            assert!(c.abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_inverse() {
        let x: Vec<Complex64> = (0..13)
            .map(|i| Complex64::new((i as f64).sin() * 3.0, (i as f64 * 0.7).cos()))
            .collect();
        let back = idft(&dft(&x));
        assert_close(&back, &x, 1e-10);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<f64> = (0..31).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let spec = dft_real(&x);
        let e_time: f64 = x.iter().map(|v| v * v).sum();
        let e_freq: f64 = spec.iter().map(|c| c.norm_sqr()).sum();
        assert!((e_time - e_freq).abs() < 1e-9 * e_time.max(1.0));
    }

    #[test]
    fn linearity() {
        let x: Vec<Complex64> = (0..10)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let y: Vec<Complex64> = (0..10)
            .map(|i| Complex64::new((i as f64).cos(), 0.3))
            .collect();
        let a = Complex64::new(2.0, 0.0);
        let b = Complex64::new(-1.0, 0.5);
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(&xi, &yi)| a * xi + b * yi).collect();
        let lhs = dft(&combo);
        let dx = dft(&x);
        let dy = dft(&y);
        let rhs: Vec<Complex64> = dx
            .iter()
            .zip(&dy)
            .map(|(&xi, &yi)| a * xi + b * yi)
            .collect();
        assert_close(&lhs, &rhs, 1e-10);
    }

    #[test]
    fn prefix_matches_full() {
        let x: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.3).sin() + 0.1 * i as f64)
            .collect();
        let full = dft_real(&x);
        let pre = dft_prefix(&x, 5);
        assert_close(&pre, &full[..5], 1e-10);
    }

    #[test]
    fn prefix_clamps_k() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(dft_prefix(&x, 10).len(), 3);
        assert_eq!(dft_prefix(&x, 0).len(), 0);
    }

    #[test]
    fn normal_form_first_coefficient_is_zero() {
        // A zero-mean sequence has X_0 = 0; the paper drops that coefficient.
        let x = [1.0, -2.0, 3.0, -2.0];
        let spec = dft_real(&x);
        assert!(spec[0].abs() < 1e-12);
    }
}
