//! Bluestein (chirp-z) FFT for arbitrary transform lengths.
//!
//! The paper's motivating sequences are not power-of-two sized (Example 1.1
//! uses length 15; the stock relation has 1067 series), so the library needs
//! a fast transform for any `n`. Bluestein re-expresses a length-`n` DFT as a
//! circular convolution of length `m >= 2n - 1` (with `m` a power of two),
//! giving `O(n log n)` for every `n`.
//!
//! Identity used: `t*f = (t^2 + f^2 - (f - t)^2) / 2`, so
//!
//! ```text
//! X_f = w^{f^2/2} * sum_t (x_t w^{t^2/2}) * w^{-(f-t)^2/2},   w = e^{-j 2 pi / n}
//! ```
//!
//! Phases are computed as `pi * (k^2 mod 2n) / n`, keeping the argument to
//! `sin`/`cos` small for excellent accuracy even at large `n`.

use crate::complex::{Complex64, ZERO};
use crate::fft::Radix2Tables;

/// Precomputed state for a Bluestein transform of fixed size `n`.
#[derive(Debug, Clone)]
pub(crate) struct Bluestein {
    n: usize,
    /// Chirp `w^{k^2/2} = e^{-j pi k^2 / n}` for `k in 0..n` (forward).
    chirp: Box<[Complex64]>,
    /// Forward FFT (size `m`) of the zero-padded conjugate-chirp kernel,
    /// left unscaled (raw butterflies).
    kernel_fft: Box<[Complex64]>,
    /// Inner power-of-two FFT.
    inner: Radix2Tables,
}

impl Bluestein {
    /// Builds a Bluestein plan for length `n > 0`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "Bluestein size must be positive");
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2Tables::new(m);

        let two_n = 2 * n;
        let chirp: Box<[Complex64]> = (0..n)
            .map(|k| {
                let sq = (k * k) % two_n;
                Complex64::cis(-std::f64::consts::PI * sq as f64 / n as f64)
            })
            .collect();

        // Kernel b_k = conj(chirp_|k|) arranged circularly over length m.
        let mut kernel = vec![ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            let v = chirp[k].conj();
            kernel[k] = v;
            kernel[m - k] = v;
        }
        inner.forward_raw(&mut kernel);

        Self {
            n,
            chirp,
            kernel_fft: kernel.into_boxed_slice(),
            inner,
        }
    }

    /// In-place forward unitary DFT (matches [`crate::dft::dft`]).
    pub(crate) fn forward(&self, data: &mut [Complex64]) {
        self.run(data, false);
    }

    /// In-place inverse unitary DFT (matches [`crate::dft::idft`]).
    ///
    /// Implemented via the conjugation identity
    /// `idft(x) = conj(dft(conj(x)))` (valid because both directions share
    /// the `1/sqrt(n)` factor).
    pub(crate) fn inverse(&self, data: &mut [Complex64]) {
        self.run(data, true);
    }

    fn run(&self, data: &mut [Complex64], inverse: bool) {
        let n = self.n;
        assert_eq!(
            data.len(),
            n,
            "Bluestein size mismatch: planned {n}, got {}",
            data.len()
        );
        if inverse {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
        let m = self.inner.len();
        let mut buf = vec![ZERO; m];
        for (k, (&x, &c)) in data.iter().zip(self.chirp.iter()).enumerate() {
            buf[k] = x * c;
        }
        self.inner.forward_raw(&mut buf);
        for (v, &kf) in buf.iter_mut().zip(self.kernel_fft.iter()) {
            *v *= kf;
        }
        self.inner.inverse_raw(&mut buf);
        let scale = 1.0 / (n as f64).sqrt();
        for (k, out) in data.iter_mut().enumerate() {
            *out = (buf[k] * self.chirp[k]).scale(scale);
        }
        if inverse {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y}");
        }
    }

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin() * 3.0, (i as f64 * 1.3).cos() * 0.5))
            .collect()
    }

    #[test]
    fn matches_reference_for_awkward_sizes() {
        for &n in &[1usize, 2, 3, 5, 7, 12, 15, 17, 100, 101, 128, 1067] {
            let x = sample(n);
            let plan = Bluestein::new(n);
            let mut got = x.clone();
            plan.forward(&mut got);
            let want = dft(&x);
            assert_close(&got, &want, 1e-8 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn inverse_matches_reference() {
        for &n in &[3usize, 15, 31, 100] {
            let x = sample(n);
            let plan = Bluestein::new(n);
            let mut got = x.clone();
            plan.inverse(&mut got);
            let want = idft(&x);
            assert_close(&got, &want, 1e-8 * (n as f64));
        }
    }

    #[test]
    fn roundtrip() {
        let n = 1067; // the paper's stock-relation cardinality; prime-ish
        let x = sample(n);
        let plan = Bluestein::new(n);
        let mut data = x.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &x, 1e-8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = Bluestein::new(0);
    }

    #[test]
    fn power_of_two_agrees_with_radix2() {
        let n = 64;
        let x = sample(n);
        let plan = Bluestein::new(n);
        let tables = crate::fft::Radix2Tables::new(n);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.forward(&mut a);
        tables.forward(&mut b);
        assert_close(&a, &b, 1e-9);
    }
}
