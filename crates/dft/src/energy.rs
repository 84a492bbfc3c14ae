//! Signal energy, Parseval's relation and frequency-domain distances
//! (Equations 3, 7, 8 of the paper).
//!
//! [`euclidean_real`] and [`euclidean_complex`] are *references*:
//! Equation 8 as the paper writes it, for tests and examples to compare
//! against. No statement reaches them — every exact check a query runs is
//! the blocked loop `tsq_series::distance::sum_sq_within`, which sums the
//! same terms in the same order (so the two agree bit for bit).

use crate::complex::Complex64;

/// Energy of a real signal: `E(x) = sum |x_t|^2` (Equation 3).
#[inline]
pub fn energy_real(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum()
}

/// Energy of a complex signal.
#[inline]
pub fn energy_complex(x: &[Complex64]) -> f64 {
    x.iter().map(|c| c.norm_sqr()).sum()
}

/// Euclidean distance between two real signals:
/// `D(x, y) = sqrt(E(x - y))` (Equation 8, time domain).
///
/// # Panics
/// Panics if the lengths differ.
pub fn euclidean_real(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "distance requires equal lengths");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| {
            let d = a - b;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Euclidean distance between two complex spectra:
/// `D(X, Y) = sqrt(E(X - Y))` (Equation 8, frequency domain).
///
/// By Parseval this equals the time-domain distance of the underlying
/// signals when all coefficients are kept; restricted to a prefix of
/// coefficients it is a *lower bound* — the basis of Lemma 1's
/// no-false-dismissal guarantee.
///
/// # Panics
/// Panics if the lengths differ.
pub fn euclidean_complex(x: &[Complex64], y: &[Complex64]) -> f64 {
    assert_eq!(x.len(), y.len(), "distance requires equal lengths");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b).norm_sqr())
        .sum::<f64>()
        .sqrt()
}

/// Fraction of total signal energy captured by the first `k` DFT
/// coefficients (and, by conjugate symmetry of real signals, their mirror
/// images). Used to choose the index cut-off `k` and reported by the
/// ablation benchmarks.
pub fn prefix_energy_ratio(spectrum: &[Complex64], k: usize) -> f64 {
    let total = energy_complex(spectrum);
    if total == 0.0 {
        return 1.0;
    }
    let n = spectrum.len();
    let k = k.min(n);
    let mut captured = energy_complex(&spectrum[..k]);
    // Mirror coefficients X_{n-f} = conj(X_f) for real signals carry the
    // same energy as X_f (f = 1..k-1).
    for f in 1..k {
        if n - f >= k {
            captured += spectrum[n - f].norm_sqr();
        }
    }
    (captured / total).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_real;

    #[test]
    fn energy_matches_by_hand() {
        assert_eq!(energy_real(&[3.0, 4.0]), 25.0);
        assert_eq!(energy_real(&[]), 0.0);
    }

    #[test]
    fn parseval_distance_preserved() {
        // Equation 8: D(x, y) == D(X, Y).
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin() * 3.0).collect();
        let y: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.23).cos() * 2.0 + 0.5)
            .collect();
        let dt = euclidean_real(&x, &y);
        let fx = dft_real(&x);
        let fy = dft_real(&y);
        let df = euclidean_complex(&fx, &fy);
        assert!((dt - df).abs() < 1e-9 * dt.max(1.0));
    }

    #[test]
    fn prefix_distance_is_lower_bound() {
        // Equation 13: distance over the first k coefficients never exceeds
        // the full distance.
        let x: Vec<f64> = (0..32).map(|i| (i as f64).sqrt()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64).ln_1p() * 2.0).collect();
        let fx = dft_real(&x);
        let fy = dft_real(&y);
        let full = euclidean_complex(&fx, &fy);
        for k in 0..=32 {
            let partial = euclidean_complex(&fx[..k], &fy[..k]);
            assert!(partial <= full + 1e-9, "k={k}: {partial} > {full}");
        }
    }

    #[test]
    fn energy_concentration_for_random_walk() {
        // The paper's premise: for random-walk-like sequences the first few
        // coefficients dominate. A deterministic pseudo-walk suffices here.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut v = 50.0;
        let x: Vec<f64> = (0..128)
            .map(|_| {
                // xorshift steps in [-4, 4], mimicking the paper's generator.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v += (state % 9) as f64 - 4.0;
                v
            })
            .collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let centered: Vec<f64> = x.iter().map(|&a| a - mean).collect();
        let spec = dft_real(&centered);
        let ratio = prefix_energy_ratio(&spec, 4);
        assert!(ratio > 0.8, "expected energy concentration, got {ratio}");
    }

    #[test]
    fn prefix_ratio_bounds() {
        let spec = dft_real(&[1.0, 2.0, 3.0, 4.0]);
        assert!(prefix_energy_ratio(&spec, 0) >= 0.0);
        assert!((prefix_energy_ratio(&spec, 4) - 1.0).abs() < 1e-12);
        assert_eq!(prefix_energy_ratio(&[], 3), 1.0);
    }
}
