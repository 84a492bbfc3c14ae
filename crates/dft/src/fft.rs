//! Iterative radix-2 Cooley–Tukey FFT for power-of-two lengths.
//!
//! The public entry point is [`crate::planner::FftPlanner`], which caches the
//! twiddle-factor and bit-reversal tables built here and falls back to the
//! Bluestein algorithm for non-power-of-two lengths.
//!
//! The scaling convention matches [`crate::dft`]: both directions carry a
//! `1/sqrt(n)` factor so the transform is unitary.

use crate::complex::Complex64;

/// Precomputed tables for a power-of-two FFT of a fixed size.
#[derive(Debug, Clone)]
pub(crate) struct Radix2Tables {
    n: usize,
    /// Twiddles `e^{-j 2 pi k / n}` for `k in 0..n/2` (forward direction).
    twiddles: Box<[Complex64]>,
    /// Bit-reversal permutation.
    rev: Box<[u32]>,
}

impl Radix2Tables {
    /// Builds tables for size `n`, which must be a power of two (and fit the
    /// `u32` permutation index, i.e. `n <= 2^32`).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "radix-2 FFT requires power-of-two size, got {n}"
        );
        assert!(n <= u32::MAX as usize, "FFT size too large");
        let half = n / 2;
        let step = -std::f64::consts::TAU / n as f64;
        let twiddles: Box<[Complex64]> =
            (0..half).map(|k| Complex64::cis(step * k as f64)).collect();
        let bits = n.trailing_zeros();
        let rev: Box<[u32]> = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Self { n, twiddles, rev }
    }

    /// The transform size these tables serve.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT with unitary scaling.
    pub(crate) fn forward(&self, data: &mut [Complex64]) {
        self.run(data, Direction::Forward);
        scale(data, 1.0 / (self.n as f64).sqrt());
    }

    /// In-place inverse FFT with unitary scaling.
    pub(crate) fn inverse(&self, data: &mut [Complex64]) {
        self.run(data, Direction::Inverse);
        scale(data, 1.0 / (self.n as f64).sqrt());
    }

    /// In-place forward FFT **without** any scaling (raw butterflies).
    /// Useful as a building block (e.g. Bluestein) where scaling is applied
    /// once at the end.
    pub(crate) fn forward_raw(&self, data: &mut [Complex64]) {
        self.run(data, Direction::Forward);
    }

    /// In-place inverse FFT scaled by `1/n` (so that
    /// `inverse_raw(forward_raw(x)) == x`).
    pub(crate) fn inverse_raw(&self, data: &mut [Complex64]) {
        self.run(data, Direction::Inverse);
        scale(data, 1.0 / self.n as f64);
    }

    fn run(&self, data: &mut [Complex64], dir: Direction) {
        let n = self.n;
        assert_eq!(
            data.len(),
            n,
            "FFT size mismatch: planned {n}, got {}",
            data.len()
        );
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies. Twiddle stride for a block of size `len`
        // is n/len, indexing into the length-n/2 forward table.
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if matches!(dir, Direction::Inverse) {
                        w = w.conj();
                    }
                    let t = w * hi[k];
                    let u = lo[k];
                    lo[k] = u + t;
                    hi[k] = u - t;
                }
            }
            len <<= 1;
        }
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Inverse,
}

#[inline]
fn scale(data: &mut [Complex64], k: f64) {
    for v in data {
        *v = v.scale(k);
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
            .map(|i| {
                Complex64::new(
                    (i as f64 * 0.37).sin() * 2.0 + i as f64 * 0.01,
                    (i as f64 * 0.11).cos(),
                )
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        let _ = Radix2Tables::new(12);
    }

    #[test]
    fn matches_reference_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let x = sample(n);
            let tables = Radix2Tables::new(n);
            let mut got = x.clone();
            tables.forward(&mut got);
            let want = dft(&x);
            assert_close(&got, &want, 1e-9 * (n as f64));
        }
    }

    #[test]
    fn inverse_matches_reference() {
        for &n in &[2usize, 8, 32, 128] {
            let x = sample(n);
            let tables = Radix2Tables::new(n);
            let mut got = x.clone();
            tables.inverse(&mut got);
            let want = idft(&x);
            assert_close(&got, &want, 1e-9 * (n as f64));
        }
    }

    #[test]
    fn roundtrip_unit_scaling() {
        let n = 512;
        let x = sample(n);
        let tables = Radix2Tables::new(n);
        let mut data = x.clone();
        tables.forward(&mut data);
        tables.inverse(&mut data);
        assert_close(&data, &x, 1e-9);
    }

    #[test]
    fn raw_roundtrip() {
        let n = 64;
        let x = sample(n);
        let tables = Radix2Tables::new(n);
        let mut data = x.clone();
        tables.forward_raw(&mut data);
        tables.inverse_raw(&mut data);
        assert_close(&data, &x, 1e-9);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let tables = Radix2Tables::new(8);
        let mut data = sample(4);
        tables.forward(&mut data);
    }

    #[test]
    fn size_one_is_identity() {
        let tables = Radix2Tables::new(1);
        let mut data = vec![Complex64::new(4.2, -1.0)];
        tables.forward(&mut data);
        assert_close(&data, &[Complex64::new(4.2, -1.0)], 1e-12);
    }
}
