//! Circular convolution (Equation 4) and the convolution–multiplication
//! property (Equation 6).
//!
//! The paper defines `Conv(x, y)_i = sum_k x_k * y_{i-k}` with indices modulo
//! `n` ("circular convolution"). Under the paper's unitary DFT convention the
//! frequency-domain identity carries a `sqrt(n)` factor:
//!
//! ```text
//! DFT(conv(x, y)) = sqrt(n) * (X .* Y)
//! ```
//!
//! (The paper's Equation 6 elides the constant; tests here pin down the exact
//! relationship, and the transformation constructors in `tsq-core` account
//! for it so that e.g. the moving-average transformation applied in the
//! frequency domain matches the time-domain moving average exactly.)

use tsq_dft::complex::ZERO;
use tsq_dft::{Complex64, FftPlanner};

/// Direct `O(n^2)` circular convolution of two equal-length real sequences.
///
/// # Panics
/// Panics if the inputs differ in length.
pub fn conv_real(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len(),
        y.len(),
        "circular convolution requires equal lengths"
    );
    let n = x.len();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &xk) in x.iter().enumerate() {
            // y index (i - k) mod n
            let idx = (i + n - k % n) % n;
            acc += xk * y[idx];
        }
        *o = acc;
    }
    out
}

/// Direct `O(n^2)` circular convolution of two equal-length complex
/// sequences.
///
/// # Panics
/// Panics if the inputs differ in length.
pub fn conv(x: &[Complex64], y: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(
        x.len(),
        y.len(),
        "circular convolution requires equal lengths"
    );
    let n = x.len();
    let mut out = vec![ZERO; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = ZERO;
        for (k, &xk) in x.iter().enumerate() {
            let idx = (i + n - k % n) % n;
            acc += xk * y[idx];
        }
        *o = acc;
    }
    out
}

/// `O(n log n)` circular convolution via the frequency domain:
/// `conv(x, y) = sqrt(n) * IDFT(DFT(x) .* DFT(y))`.
///
/// # Panics
/// Panics if the inputs differ in length.
pub fn conv_fft(planner: &mut FftPlanner, x: &[Complex64], y: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(
        x.len(),
        y.len(),
        "circular convolution requires equal lengths"
    );
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let fx = planner.dft(x);
    let fy = planner.dft(y);
    let prod: Vec<Complex64> = fx.iter().zip(&fy).map(|(&a, &b)| a * b).collect();
    let s = (n as f64).sqrt();
    planner
        .idft(&prod)
        .into_iter()
        .map(|v| v.scale(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft_real;
    use tsq_dft::dft::dft;

    #[test]
    fn tiny_example_by_hand() {
        // x = [1, 2], y = [3, 4]:
        // out_0 = x0*y0 + x1*y_{-1 mod 2}=y1 -> 1*3 + 2*4 = 11
        // out_1 = x0*y1 + x1*y0 -> 1*4 + 2*3 = 10
        let out = conv_real(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(out, vec![11.0, 10.0]);
    }

    #[test]
    fn identity_kernel() {
        // Convolving with the unit impulse leaves the signal unchanged.
        let x = [5.0, -1.0, 2.0, 7.0];
        let delta = [1.0, 0.0, 0.0, 0.0];
        assert_eq!(conv_real(&x, &delta), x.to_vec());
    }

    #[test]
    fn shift_kernel_rotates() {
        // Convolving with a shifted impulse rotates the signal.
        let x = [1.0, 2.0, 3.0, 4.0];
        let shift1 = [0.0, 1.0, 0.0, 0.0];
        assert_eq!(conv_real(&x, &shift1), vec![4.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn commutative() {
        let x = [1.0, -2.0, 0.5, 3.0, 1.0];
        let y = [0.2, 0.0, -1.0, 2.0, 0.7];
        let a = conv_real(&x, &y);
        let b = conv_real(&y, &x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_multiplication_identity() {
        // DFT(conv(x,y)) == sqrt(n) * DFT(x) .* DFT(y)
        let x = [1.0, 2.0, 0.0, -1.0, 0.5, 3.0];
        let y = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0];
        let n = x.len() as f64;
        let lhs = dft_real(&conv_real(&x, &y));
        let fx = dft_real(&x);
        let fy = dft_real(&y);
        for (i, l) in lhs.iter().enumerate() {
            let r = (fx[i] * fy[i]).scale(n.sqrt());
            assert!((*l - r).abs() < 1e-10, "coef {i}: {l} vs {r}");
        }
    }

    #[test]
    fn fft_conv_matches_direct() {
        let mut planner = FftPlanner::new();
        for n in [1usize, 2, 5, 15, 16, 33] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let y: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(0.1 * i as f64, -(i as f64 * 0.2).sin()))
                .collect();
            let direct = conv(&x, &y);
            let fast = conv_fft(&mut planner, &x, &y);
            for (d, f) in direct.iter().zip(&fast) {
                assert!((*d - *f).abs() < 1e-8 * (n as f64).max(1.0), "n={n}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(conv_real(&[], &[]).is_empty());
        let mut planner = FftPlanner::new();
        assert!(conv_fft(&mut planner, &[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn length_mismatch_panics() {
        let _ = conv_real(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn complex_conv_matches_real_on_real_input() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        let cr = conv_real(&x, &y);
        let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let cy: Vec<Complex64> = y.iter().map(|&v| Complex64::from_real(v)).collect();
        let cc = conv(&cx, &cy);
        for (r, c) in cr.iter().zip(&cc) {
            assert!((r - c.re).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn frequency_identity_with_complex_input() {
        let x: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new(i as f64, -0.3 * i as f64))
            .collect();
        let y: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new((i as f64).cos(), 0.1))
            .collect();
        let lhs = dft(&conv(&x, &y));
        let fx = dft(&x);
        let fy = dft(&y);
        for (i, l) in lhs.iter().enumerate() {
            let r = (fx[i] * fy[i]).scale((8f64).sqrt());
            assert!((*l - r).abs() < 1e-9);
        }
    }
}
