//! Property-based tests for the Fourier substrate.

use tsq_dft::complex::Complex64;
use tsq_dft::dft::{dft, idft};
use tsq_dft::FftPlanner;
use tsq_testkit::convolution::{conv, conv_fft};
use tsq_testkit::energy::{energy_complex, euclidean_complex, euclidean_real};
use tsq_testkit::reference::{dft_real, sliding_prefix};
use tsq_testkit::{property, Rng};

/// Cases per property.
const CASES: u32 = 64;

fn complex_vec(rng: &mut Rng, max_len: usize) -> Vec<Complex64> {
    rng.list(1..=max_len, |rng| {
        Complex64::new(rng.float(-1e3..1e3), rng.float(-1e3..1e3))
    })
}

fn real_vec(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    rng.list(1..=max_len, |rng| rng.float(-1e3..1e3))
}

/// Two equal-length real series of 1 to 63 values in `-1e3..1e3`,
/// pointwise.
fn real_pair(rng: &mut Rng) -> Vec<(f64, f64)> {
    rng.list(1..=63, |rng| (rng.float(-1e3..1e3), rng.float(-1e3..1e3)))
}

/// `idft(dft(x)) == x` for arbitrary lengths (exercises naive, radix-2
/// and Bluestein paths through the planner).
#[test]
fn planner_roundtrip() {
    let draw = |rng: &mut Rng| (complex_vec(rng, 200), ());
    property("planner_roundtrip", CASES, draw, |x, _| {
        let mut planner = FftPlanner::new();
        let spec = planner.dft(x);
        let back = planner.idft(&spec);
        for (a, b) in x.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-6);
        }
    });
}

/// The planner agrees with the defining sums.
#[test]
fn planner_matches_reference() {
    let draw = |rng: &mut Rng| (complex_vec(rng, 64), ());
    property("planner_matches_reference", CASES, draw, |x, _| {
        let mut planner = FftPlanner::new();
        let fast = planner.dft(x);
        let slow = dft(x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-6);
        }
    });
}

/// Parseval: energy is invariant under the unitary DFT.
#[test]
fn parseval() {
    let draw = |rng: &mut Rng| (complex_vec(rng, 128), ());
    property("parseval", CASES, draw, |x, _| {
        let spec = dft(x);
        let et = energy_complex(x);
        let ef = energy_complex(&spec);
        assert!((et - ef).abs() <= 1e-6 * et.max(1.0));
    });
}

/// Distance is invariant under the unitary DFT (Equation 8).
#[test]
fn distance_invariance() {
    let draw = |rng: &mut Rng| (real_pair(rng), ());
    property("distance_invariance", CASES, draw, |xy, _| {
        let (x, y): (Vec<f64>, Vec<f64>) = xy.iter().copied().unzip();
        let dt = euclidean_real(&x, &y);
        let fx: Vec<Complex64> = dft_real(&x);
        let fy: Vec<Complex64> = dft_real(&y);
        let df = euclidean_complex(&fx, &fy);
        assert!((dt - df).abs() <= 1e-6 * dt.max(1.0));
    });
}

/// Prefix distances are monotone lower bounds of the full distance
/// (Equation 13 — the heart of Lemma 1).
#[test]
fn prefix_lower_bound() {
    let draw = |rng: &mut Rng| (real_pair(rng), ());
    property("prefix_lower_bound", CASES, draw, |xy, _| {
        let (x, y): (Vec<f64>, Vec<f64>) = xy.iter().copied().unzip();
        let fx = dft_real(&x);
        let fy = dft_real(&y);
        let full = euclidean_complex(&fx, &fy);
        let mut prev = 0.0;
        for k in 0..=fx.len() {
            let d = euclidean_complex(&fx[..k], &fy[..k]);
            assert!(d + 1e-9 >= prev, "prefix distance must be monotone");
            assert!(d <= full + 1e-6);
            prev = d;
        }
    });
}

/// The FFT-based convolution agrees with the direct sum.
#[test]
fn conv_fft_matches_direct() {
    let draw = |rng: &mut Rng| {
        let value = |rng: &mut Rng| Complex64::new(rng.float(-1e2..1e2), rng.float(-1e2..1e2));
        (rng.list(1..=47, |rng| (value(rng), value(rng))), ())
    };
    property("conv_fft_matches_direct", CASES, draw, |xy, _| {
        let (x, y): (Vec<Complex64>, Vec<Complex64>) = xy.iter().copied().unzip();
        let mut planner = FftPlanner::new();
        let direct = conv(&x, &y);
        let fast = conv_fft(&mut planner, &x, &y);
        let scale: f64 = direct.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for (d, f) in direct.iter().zip(&fast) {
            assert!((*d - *f).abs() < 1e-7 * scale);
        }
    });
}

/// Real input spectra are conjugate-symmetric: X_{n-f} = conj(X_f).
#[test]
fn real_input_conjugate_symmetry() {
    let draw = |rng: &mut Rng| (real_vec(rng, 64), ());
    property("real_input_conjugate_symmetry", CASES, draw, |x, _| {
        let spec = dft_real(x);
        let n = spec.len();
        for f in 1..n {
            let a = spec[f];
            let b = spec[n - f].conj();
            assert!((a - b).abs() < 1e-6);
        }
    });
}

/// Time-domain circular shift only changes coefficient phases, not
/// magnitudes.
#[test]
fn shift_preserves_magnitudes() {
    let draw = |rng: &mut Rng| (real_vec(rng, 48), rng.range(0, 47));
    property("shift_preserves_magnitudes", CASES, draw, |x, &s| {
        let n = x.len();
        let shift = s % n;
        let shifted: Vec<f64> = (0..n).map(|i| x[(i + shift) % n]).collect();
        let fa = dft_real(x);
        let fb = dft_real(&shifted);
        for (a, b) in fa.iter().zip(&fb) {
            assert!((a.abs() - b.abs()).abs() < 1e-6 * a.abs().max(1.0));
        }
    });
}

/// idft is the left inverse of dft for the reference implementation too.
#[test]
fn reference_roundtrip() {
    let draw = |rng: &mut Rng| (complex_vec(rng, 48), ());
    property("reference_roundtrip", CASES, draw, |x, _| {
        let back = idft(&dft(x));
        for (a, b) in x.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-6);
        }
    });
}

/// The sliding DFT agrees with an independently recomputed full DFT at
/// every window offset, within 1e-9, across random series, window
/// lengths and coefficient counts. Window lengths are drawn from the
/// full range, so non-powers-of-two (the planner's Bluestein path for
/// the recomputed reference) are exercised constantly.
#[test]
fn sliding_dft_matches_full_recomputation() {
    let draw = |rng: &mut Rng| {
        let w = rng.range(2, 47);
        let x = rng.list(w..=w + 219, |rng| rng.float(-1e3..1e3));
        // Carry the window length alongside the series.
        (x, (rng.range(1, 8), w))
    };
    property(
        "sliding_dft_matches_full_recomputation",
        CASES,
        draw,
        |x, &(k, w)| {
            let k = k.min(w);
            let windows = sliding_prefix(x, w, k);
            assert_eq!(windows.len(), x.len() - w + 1);
            let mut planner = FftPlanner::new();
            for (t, got) in windows.iter().enumerate() {
                // Independent reference: a *full* transform of the window via
                // the planner (radix-2 or Bluestein), truncated to k.
                let full = planner.dft_real(&x[t..t + w]);
                for (g, want) in got.iter().zip(&full) {
                    assert!(
                        (*g - *want).abs() < 1e-9,
                        "offset {t}, w {w}, k {k}: {g} vs {want}"
                    );
                }
            }
        },
    );
}

/// Sliding coefficients inherit Lemma 1: the prefix distance between
/// two windows never exceeds their time-domain Euclidean distance.
#[test]
fn sliding_prefix_is_lower_bound() {
    let draw = |rng: &mut Rng| {
        let w = rng.range(2, 31);
        let x = rng.list(w + 10..=w + 119, |rng| rng.float(-1e2..1e2));
        let q: Vec<f64> = (0..w).map(|_| rng.float(-1e2..1e2)).collect();
        (x, (q, rng.range(1, 6), w))
    };
    property(
        "sliding_prefix_is_lower_bound",
        CASES,
        draw,
        |x, (q, k, w)| {
            let (k, w) = ((*k).min(*w), *w);
            let fq = tsq_dft::dft::dft_prefix(q, k);
            for (t, fw) in sliding_prefix(x, w, k).iter().enumerate() {
                let prefix = euclidean_complex(fw, &fq);
                let full = euclidean_real(&x[t..t + w], q);
                assert!(prefix <= full + 1e-6, "offset {t}: {prefix} > {full}");
            }
        },
    );
}
