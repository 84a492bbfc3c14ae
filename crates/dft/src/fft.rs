//! Iterative radix-2 Cooley–Tukey FFT for power-of-two lengths.
//!
//! The public entry point is [`crate::planner::FftPlanner`], which caches the
//! twiddle-factor and bit-reversal tables built here and falls back to the
//! Bluestein algorithm for non-power-of-two lengths.
//!
//! The scaling convention matches [`crate::dft`]: both directions carry a
//! `1/sqrt(n)` factor so the transform is unitary.
//!
//! One stage loop serves every transform. Given a count `kept` it runs
//! only the butterflies that outputs `0..kept` read: a feature extraction
//! keeping three coefficients of 128 runs about half of the butterflies,
//! with the same arithmetic on each, so the kept outputs have the whole
//! transform's bits.

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
        self.run::<false>(data);
        scale(data, 1.0 / (self.n as f64).sqrt());
    }

    /// In-place inverse FFT with unitary scaling.
    pub(crate) fn inverse(&self, data: &mut [Complex64]) {
        self.run::<true>(data);
        scale(data, 1.0 / (self.n as f64).sqrt());
    }

    /// In-place forward FFT **without** any scaling (raw butterflies).
    /// Useful as a building block (e.g. Bluestein) where scaling is applied
    /// once at the end.
    pub(crate) fn forward_raw(&self, data: &mut [Complex64]) {
        self.run::<false>(data);
    }

    /// In-place inverse FFT scaled by `1/n` (so that
    /// `inverse_raw(forward_raw(x)) == x`).
    pub(crate) fn inverse_raw(&self, data: &mut [Complex64]) {
        self.run::<true>(data);
        scale(data, 1.0 / self.n as f64);
    }

    /// The first `out.len()` coefficients of the unitary forward FFT of the
    /// real sequence `samples` (`n` of them), bit for bit those of
    /// [`Radix2Tables::forward`]: each sample is loaded into `scratch` at
    /// its bit-reversed place, only the butterflies those coefficients
    /// read are run, and only they are scaled.
    pub(crate) fn forward_real_prefix(
        &self,
        samples: impl Iterator<Item = f64>,
        scratch: &mut [Complex64],
        out: &mut [Complex64],
    ) {
        let n = self.n;
        assert_eq!(
            scratch.len(),
            n,
            "FFT size mismatch: planned {n}, got {}",
            scratch.len()
        );
        assert!(out.len() <= n, "{} coefficients of {n}", out.len());
        let mut loaded = 0;
        for (&j, v) in self.rev.iter().zip(samples) {
            scratch[j as usize] = Complex64::from_real(v);
            loaded += 1;
        }
        assert_eq!(loaded, n, "FFT size mismatch: planned {n}, got {loaded}");
        self.butterflies::<false>(scratch, out.len());
        let k = 1.0 / (n as f64).sqrt();
        for (o, v) in out.iter_mut().zip(scratch.iter()) {
            *o = v.scale(k);
        }
    }

    /// Bit-reverses `data` in place, then runs every butterfly.
    fn run<const INVERSE: bool>(&self, data: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(
            data.len(),
            n,
            "FFT size mismatch: planned {n}, got {}",
            data.len()
        );
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        self.butterflies::<INVERSE>(data, n);
    }

    /// The butterflies over `data`, in bit-reversed order, that outputs
    /// `0..kept` read. Position `p` of a block of `2h` reads positions
    /// `p mod h` of its two halves, so outputs `0..kept` read positions
    /// `0..min(kept, 2h)` of every block at each stage: a pair `k` writes
    /// both positions while `k + h < kept`, its low one alone while
    /// `k < kept`, and nothing after. `kept = n` is the whole transform.
    /// Each pair `k` reads its stage's twiddle, entry `k·n/2h` of the
    /// table, once and runs down every block with it, so a stage of many
    /// small blocks costs no set-up per block.
    fn butterflies<const INVERSE: bool>(&self, data: &mut [Complex64], kept: usize) {
        let n = self.n;
        // The inverse direction's twiddle is the forward one's conjugate.
        let turn = |w: Complex64| if INVERSE { w.conj() } else { w };
        let mut half = 1;
        while half < n {
            let len = 2 * half;
            let mut twiddles = self.twiddles.iter().step_by(n / len);
            let both = kept.saturating_sub(half).min(half);
            let lows = kept.min(half) - both;
            for (k, &w) in twiddles.by_ref().take(both).enumerate() {
                let w = turn(w);
                for i in (k..n).step_by(len) {
                    let t = w * data[i + half];
                    let u = data[i];
                    data[i] = u + t;
                    data[i + half] = u - t;
                }
            }
            for (k, &w) in (both..).zip(twiddles.take(lows)) {
                let w = turn(w);
                for i in (k..n).step_by(len) {
                    let t = w * data[i + half];
                    data[i] += t;
                }
            }
            half = len;
        }
    }
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
