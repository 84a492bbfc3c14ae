//! FFT planning and plan caching.
//!
//! [`FftPlanner`] picks the right algorithm per size (radix-2 for powers of
//! two, Bluestein otherwise, the naive reference below a small cutoff) and
//! caches the precomputed tables so repeated transforms of the same length —
//! the common case when indexing a relation of equal-length sequences — pay
//! the setup cost once.

use std::collections::HashMap;
use std::rc::Rc;

use crate::bluestein::Bluestein;
use crate::complex::Complex64;
use crate::dft;
use crate::fft::Radix2Tables;

/// Sizes at or below this use the naive reference transform; the `O(n^2)`
/// kernel with tiny constants beats FFT setup for very short sequences.
const NAIVE_CUTOFF: usize = 8;

/// A ready-to-run transform plan for one fixed length.
#[derive(Debug, Clone)]
pub(crate) enum FftPlan {
    /// Direct evaluation of the defining sums.
    Naive(usize),
    /// Power-of-two Cooley–Tukey.
    Radix2(Rc<Radix2Tables>),
    /// Arbitrary-length chirp-z.
    Bluestein(Rc<Bluestein>),
}

impl FftPlan {
    /// In-place unitary forward DFT.
    pub(crate) fn forward(&self, data: &mut [Complex64]) {
        match self {
            FftPlan::Naive(n) => {
                assert_eq!(data.len(), *n, "plan size mismatch");
                let out = dft::dft(data);
                data.copy_from_slice(&out);
            }
            FftPlan::Radix2(t) => t.forward(data),
            FftPlan::Bluestein(b) => b.forward(data),
        }
    }

    /// In-place unitary inverse DFT.
    pub(crate) fn inverse(&self, data: &mut [Complex64]) {
        match self {
            FftPlan::Naive(n) => {
                assert_eq!(data.len(), *n, "plan size mismatch");
                let out = dft::idft(data);
                data.copy_from_slice(&out);
            }
            FftPlan::Radix2(t) => t.inverse(data),
            FftPlan::Bluestein(b) => b.inverse(data),
        }
    }
}

/// Caches transform plans per size, and one transform's worth of scratch.
///
/// Not thread-safe by design (plans are cheap `Rc`s); create one planner per
/// thread, or share immutable `FftPlan`s after planning.
#[derive(Debug, Default)]
pub struct FftPlanner {
    radix2: HashMap<usize, Rc<Radix2Tables>>,
    bluestein: HashMap<usize, Rc<Bluestein>>,
    /// The working buffer of [`FftPlanner::dft_real_prefix`], kept at the
    /// last length it served.
    scratch: Vec<Complex64>,
}

impl FftPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a plan for transforms of length `n`.
    pub(crate) fn plan(&mut self, n: usize) -> FftPlan {
        if n <= NAIVE_CUTOFF {
            return FftPlan::Naive(n);
        }
        if n.is_power_of_two() {
            let t = self
                .radix2
                .entry(n)
                .or_insert_with(|| Rc::new(Radix2Tables::new(n)))
                .clone();
            FftPlan::Radix2(t)
        } else {
            let b = self
                .bluestein
                .entry(n)
                .or_insert_with(|| Rc::new(Bluestein::new(n)))
                .clone();
            FftPlan::Bluestein(b)
        }
    }

    /// Convenience: unitary forward DFT of a real sequence, allocating the
    /// output.
    pub fn dft_real(&mut self, x: &[f64]) -> Vec<Complex64> {
        let mut data: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        self.plan(x.len()).forward(&mut data);
        data
    }

    /// The first `out.len()` coefficients of the unitary forward DFT of the
    /// real sequence `samples`, written to `out`: bit for bit the prefix of
    /// [`FftPlanner::dft_real`]'s. A power-of-two length runs only the
    /// butterflies those coefficients read; another runs the whole
    /// transform. The samples are read once, into the planner's scratch,
    /// so nothing is allocated once this length's plan and scratch exist.
    ///
    /// # Panics
    /// Panics if `out` is longer than `samples`.
    pub fn dft_real_prefix(
        &mut self,
        samples: impl ExactSizeIterator<Item = f64>,
        out: &mut [Complex64],
    ) {
        let n = samples.len();
        assert!(out.len() <= n, "{} coefficients of {n} samples", out.len());
        let plan = self.plan(n);
        self.scratch.resize(n, Complex64::default());
        let scratch = &mut self.scratch[..];
        if let FftPlan::Radix2(t) = plan {
            return t.forward_real_prefix(samples, scratch, out);
        }
        for (slot, v) in scratch.iter_mut().zip(samples) {
            *slot = Complex64::from_real(v);
        }
        plan.forward(scratch);
        out.copy_from_slice(&scratch[..out.len()]);
    }

    /// Convenience: unitary forward DFT of a complex sequence.
    pub fn dft(&mut self, x: &[Complex64]) -> Vec<Complex64> {
        let mut data = x.to_vec();
        self.plan(x.len()).forward(&mut data);
        data
    }

    /// Convenience: unitary inverse DFT.
    pub fn idft(&mut self, x: &[Complex64]) -> Vec<Complex64> {
        let mut data = x.to_vec();
        self.plan(x.len()).inverse(&mut data);
        data
    }

    /// Inverse DFT returning only real parts — the natural output when the
    /// spectrum is (numerically) conjugate-symmetric, e.g. after transforming
    /// features of a real time series back to the time domain.
    pub fn idft_real(&mut self, x: &[Complex64]) -> Vec<f64> {
        self.idft(x).into_iter().map(|c| c.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_real;

    #[test]
    fn planner_matches_reference_across_sizes() {
        let mut planner = FftPlanner::new();
        for n in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 100, 128, 200] {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.9).sin() + 0.05 * i as f64)
                .collect();
            let got = planner.dft_real(&x);
            let want = dft_real(&x);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (*g - *w).abs() < 1e-8 * (n as f64).max(1.0),
                    "n={n}: {g} vs {w}"
                );
            }
        }
    }

    /// Inputs whose rounding and special values a pruned or reordered
    /// butterfly would show: a wave, signed zeros, a constant, subnormals
    /// of both signs and values whose sums overflow.
    fn awkward_inputs(n: usize) -> Vec<Vec<f64>> {
        let tiny = f64::from_bits(1);
        vec![
            (0..n)
                .map(|i| (i as f64 * 0.9).sin() + 0.05 * i as f64)
                .collect(),
            vec![0.0; n],
            (0..n).map(|i| [-0.0, 0.0, -0.0][i % 3]).collect(),
            vec![7.25; n],
            (0..n)
                .map(|i| tiny * [3.0, -1.0, 0.0, 2.0][i % 4])
                .collect(),
            (0..n).map(|i| 1e300 * [1.0, 0.75, -1.0][i % 3]).collect(),
        ]
    }

    fn bits(c: &[Complex64]) -> Vec<(u64, u64)> {
        c.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    #[test]
    fn prefix_is_the_full_transform_bit_for_bit() {
        let mut planner = FftPlanner::new();
        let naive = 1..=NAIVE_CUTOFF;
        let radix2 = (4..=12).map(|b| 1usize << b);
        let bluestein = [9usize, 100, 513];
        for n in naive.chain(radix2).chain(bluestein) {
            for x in awkward_inputs(n) {
                let full = planner.dft_real(&x);
                for kept in [1, 2, 3, n / 4, n / 2, n / 2 + 1, n] {
                    if kept == 0 || kept > n {
                        continue;
                    }
                    let mut got = vec![Complex64::new(f64::NAN, f64::NAN); kept];
                    planner.dft_real_prefix(x.iter().copied(), &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&full[..kept]),
                        "n = {n}, kept = {kept}, {x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn plans_are_cached() {
        let mut planner = FftPlanner::new();
        let a = planner.plan(1024);
        let b = planner.plan(1024);
        match (&a, &b) {
            (FftPlan::Radix2(x), FftPlan::Radix2(y)) => assert!(Rc::ptr_eq(x, y)),
            _ => panic!("expected radix-2 plans"),
        }
        let c = planner.plan(1067);
        let d = planner.plan(1067);
        match (&c, &d) {
            (FftPlan::Bluestein(x), FftPlan::Bluestein(y)) => assert!(Rc::ptr_eq(x, y)),
            _ => panic!("expected Bluestein plans"),
        }
    }

    #[test]
    fn roundtrip_real() {
        let mut planner = FftPlanner::new();
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.31).cos() * 4.0).collect();
        let spec = planner.dft_real(&x);
        let back = planner.idft_real(&spec);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn small_sizes_use_naive() {
        let mut planner = FftPlanner::new();
        assert!(matches!(planner.plan(4), FftPlan::Naive(4)));
        assert!(matches!(planner.plan(8), FftPlan::Naive(8)));
        assert!(matches!(planner.plan(9), FftPlan::Bluestein(_)));
        assert!(matches!(planner.plan(16), FftPlan::Radix2(_)));
    }
}
