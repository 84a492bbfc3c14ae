//! The paper's transformation language: linear transformations
//! `T = (a, b)` over Fourier-series representations (Section 3).
//!
//! A transformation maps a spectrum `X` to `a .* X + b` (element-wise
//! complex multiply plus translate). Constructors are provided for every
//! operation the paper formulates in this language:
//!
//! - [`LinearTransform::moving_average`] — `T_mavg` (Section 3.2, Eq. 11),
//!   with the `sqrt(n)` convolution-theorem factor handled exactly so the
//!   frequency-domain action matches the time-domain circular moving
//!   average;
//! - [`LinearTransform::reverse`] — `T_rev` (`a = -1`, Example 2.2);
//! - [`LinearTransform::shift`] / [`LinearTransform::scale`] — the
//!   Goldin–Kanellakis operations, generalized to negative scales;
//! - [`LinearTransform::time_warp`] — Appendix A (Eq. 19), stretching the
//!   time dimension by an integer factor;
//! - [`LinearTransform::identity`] — `T_i = (1, 0)`, used by the paper's
//!   Figure 8/9 experiments to isolate transformation overhead.
//!
//! A transformation also carries affine actions on the two auxiliary index
//! dimensions of the paper's Section-5 layout (mean and standard deviation
//! of the original series) and a cost for the Eq. 10 dissimilarity.
//!
//! ## Conjugate symmetry
//!
//! A transformation that maps real series to real series has
//! `a_{n−f} = conj(a_f)` and `b_{n−f} = conj(b_f)` (indices mod `n`), and
//! maps conjugate-symmetric spectra to conjugate-symmetric spectra — the
//! premise of the symmetry lemma in [`crate::features`]. Every
//! transformation records at construction whether it is so *exactly*
//! ([`LinearTransform::is_conjugate_symmetric`]), and the same-length
//! constructors all are: real constant multipliers (`identity`, `reverse`,
//! `shift`, `scale`, `scale_raw`) and a translation of the real DC term
//! alone (`shift_raw`) trivially; the circular convolutions
//! (`moving_average`, `weighted_moving_average`, `difference`) because the
//! multiplier of a real kernel is its DFT, computed here for `f <= n/2`
//! and mirrored above; a composition because the conjugate of a product
//! (and of a sum) is the product (sum) of the conjugates, in floating
//! point too. [`LinearTransform::time_warp`] relates spectra of different
//! lengths and is checked in the time domain. What
//! [`LinearTransform::from_parts`] is given is simply compared.

use std::fmt;

use tsq_dft::complex::{Complex64, ONE, ZERO};
use tsq_dft::FftPlanner;

use crate::error::{Error, Result};
use crate::features::Features;

/// A linear transformation `(a, b)` on length-`n` spectra, together with
/// affine maps for the mean/std index dimensions, an optional time-warp
/// factor, and a cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTransform {
    a: Vec<Complex64>,
    /// Cached polar decomposition of `a` — (magnitude, angle) per
    /// coefficient. Computed once at construction; the transformed-MBR
    /// overlap test in `S_pol` reads it on every rectangle, so caching it
    /// removes a hypot+atan2 pair from the hottest loop of Algorithm 2.
    a_polar: Vec<(f64, f64)>,
    b: Vec<Complex64>,
    /// `a_{n−f} == conj(a_f)` and `b_{n−f} == conj(b_f)` for every `f`,
    /// exactly (see the module docs).
    conjugate_symmetric: bool,
    mean_map: (f64, f64),
    std_map: (f64, f64),
    warp: usize,
    cost: f64,
    name: String,
}

impl LinearTransform {
    fn assemble(
        a: Vec<Complex64>,
        b: Vec<Complex64>,
        mean_map: (f64, f64),
        std_map: (f64, f64),
        warp: usize,
        cost: f64,
        name: String,
    ) -> Self {
        let a_polar = a.iter().map(|c| (c.abs(), c.angle())).collect();
        let n = a.len();
        let mirrors = |v: &[Complex64]| (0..n).all(|f| v[(n - f) % n] == v[f].conj());
        LinearTransform {
            conjugate_symmetric: mirrors(&a) && mirrors(&b),
            a,
            a_polar,
            b,
            mean_map,
            std_map,
            warp,
            cost,
            name,
        }
    }

    /// Multipliers of a circular convolution with a real kernel, whose DFT
    /// at `f` is `lower(f)`: evaluated for `f <= n/2` and mirrored above, so
    /// that `a_{n−f} = conj(a_f)` holds exactly rather than to rounding (the
    /// Nyquist multiplier, its own mirror, is real).
    fn kernel_multipliers(n: usize, lower: impl Fn(usize) -> Complex64) -> Vec<Complex64> {
        let mut a: Vec<Complex64> = (0..=n / 2).take(n).map(lower).collect();
        if n % 2 == 0 {
            if let Some(nyquist) = a.last_mut() {
                nyquist.im = 0.0;
            }
        }
        for f in a.len()..n {
            a.push(a[n - f].conj());
        }
        a
    }

    /// Builds a transformation from raw coefficient vectors.
    ///
    /// # Errors
    /// Returns [`Error::TransformArity`] if `a` and `b` differ in length.
    pub fn from_parts(
        a: Vec<Complex64>,
        b: Vec<Complex64>,
        name: impl Into<String>,
    ) -> Result<Self> {
        if a.len() != b.len() {
            return Err(Error::TransformArity {
                expected: a.len(),
                got: b.len(),
            });
        }
        Ok(Self::assemble(
            a,
            b,
            (1.0, 0.0),
            (1.0, 0.0),
            1,
            0.0,
            name.into(),
        ))
    }

    /// The identity transformation `T_i = (I, 0)` over length-`n` spectra.
    pub fn identity(n: usize) -> Self {
        Self::assemble(
            vec![ONE; n],
            vec![ZERO; n],
            (1.0, 0.0),
            (1.0, 0.0),
            1,
            0.0,
            "identity".to_string(),
        )
    }

    /// The `window`-day circular moving average `T_mavg` for length-`n`
    /// series: `a_f = sum_{t<window} (1/window) e^{-j 2 pi t f / n}`, which
    /// is the *unnormalized* DFT of the kernel `m_l` — exactly the
    /// multiplier that makes `a .* X` the unitary spectrum of
    /// `conv(x, m_l)`. (The paper's Eq. 6 elides the `sqrt(n)`; see
    /// `tsq_dft::convolution`.)
    pub fn moving_average(n: usize, window: usize) -> Self {
        let w = vec![1.0 / window as f64; window];
        Self::weighted_moving_average(n, &w)
    }

    /// Weighted circular moving average (Eq. 11 with arbitrary weights
    /// `w_1..w_m`).
    ///
    /// # Panics
    /// Panics if the kernel is empty or longer than `n`.
    pub fn weighted_moving_average(n: usize, weights: &[f64]) -> Self {
        assert!(!weights.is_empty() && weights.len() <= n, "invalid kernel");
        let step = -std::f64::consts::TAU / n as f64;
        let a = Self::kernel_multipliers(n, |f| {
            let mut acc = ZERO;
            for (t, &w) in weights.iter().enumerate() {
                acc += Complex64::cis(step * ((t * f) % n) as f64).scale(w);
            }
            acc
        });
        // Smoothing shrinks dispersion by a data-dependent factor; the
        // std dimension is left unchanged (it describes the *original*
        // series, as in the paper's Section-5 index layout).
        Self::assemble(
            a,
            vec![ZERO; n],
            (1.0, 0.0),
            (1.0, 0.0),
            1,
            0.0,
            format!("mavg({})", weights.len()),
        )
    }

    /// The reversing transformation `T_rev = (-1, 0)` of Example 2.2:
    /// every value multiplied by −1 (finds series with opposite price
    /// movements).
    pub fn reverse(n: usize) -> Self {
        Self::assemble(
            vec![-ONE; n],
            vec![ZERO; n],
            (-1.0, 0.0),
            (1.0, 0.0),
            1,
            0.0,
            "reverse".to_string(),
        )
    }

    /// Shift of the *original* series by `c` (adds `c` to every value).
    ///
    /// Under the paper's Section-5 layout the indexed spectrum belongs to
    /// the normal form, which a shift leaves untouched; only the mean
    /// dimension moves. (For an index over raw spectra use
    /// [`LinearTransform::shift_raw`].)
    pub fn shift(n: usize, c: f64) -> Self {
        Self::assemble(
            vec![ONE; n],
            vec![ZERO; n],
            (1.0, c),
            (1.0, 0.0),
            1,
            0.0,
            format!("shift({c})"),
        )
    }

    /// Scale of the *original* series by `c` (may be negative — the paper
    /// drops GK95's positive-scale restriction). The normal form flips sign
    /// when `c < 0`; mean scales by `c`, std by `|c|`.
    pub fn scale(n: usize, c: f64) -> Self {
        let sign = if c < 0.0 { -ONE } else { ONE };
        Self::assemble(
            vec![sign; n],
            vec![ZERO; n],
            (c, 0.0),
            (c.abs(), 0.0),
            1,
            0.0,
            format!("scale({c})"),
        )
    }

    /// Shift acting on a *raw* (unnormalized) spectrum: only the DC
    /// coefficient moves, by `c * sqrt(n)`.
    pub fn shift_raw(n: usize, c: f64) -> Self {
        let mut b = vec![ZERO; n];
        if n > 0 {
            b[0] = Complex64::from_real(c * (n as f64).sqrt());
        }
        Self::assemble(
            vec![ONE; n],
            b,
            (1.0, c),
            (1.0, 0.0),
            1,
            0.0,
            format!("shift_raw({c})"),
        )
    }

    /// Scale acting on a raw spectrum: every coefficient multiplied by `c`.
    pub fn scale_raw(n: usize, c: f64) -> Self {
        Self::assemble(
            vec![Complex64::from_real(c); n],
            vec![ZERO; n],
            (c, 0.0),
            (c.abs(), 0.0),
            1,
            0.0,
            format!("scale_raw({c})"),
        )
    }

    /// First difference (circular): `y_i = x_i - x_{i-1 mod n}` — the
    /// day-over-day *change* of a series, a standard de-trending step in
    /// stock analysis. Like the moving average it is a circular convolution
    /// (kernel `(1, -1, 0, ..., 0)`), hence expressible in the paper's
    /// transformation language with `a_f = 1 - e^{-j 2 pi f / n}`.
    pub fn difference(n: usize) -> Self {
        assert!(n >= 2, "difference needs at least two points");
        let step = -std::f64::consts::TAU / n as f64;
        let a = Self::kernel_multipliers(n, |f| ONE - Complex64::cis(step * f as f64));
        Self::assemble(
            a,
            vec![ZERO; n],
            (0.0, 0.0), // differencing removes the level entirely
            (1.0, 0.0),
            1,
            0.0,
            "diff".to_string(),
        )
    }

    /// Time warping by integer factor `m` (Appendix A): maps the spectrum
    /// of a length-`n` series to the first `n` coefficients of the
    /// length-`m*n` series obtained by repeating every value `m` times.
    ///
    /// With the unitary DFT convention the coefficients are
    /// `a_f = (1/sqrt(m)) * sum_{t<m} e^{-j 2 pi t f / (m n)}` (Eq. 19
    /// carries no `1/sqrt(m)` because the paper keeps `1/sqrt(n)` on both
    /// sides; see the module docs of `tsq_dft::dft`).
    pub fn time_warp(n: usize, m: usize) -> Self {
        assert!(m >= 1, "warp factor must be at least 1");
        let mn = m * n;
        let a: Vec<Complex64> = (0..n)
            .map(|f| {
                let mut acc = ZERO;
                for t in 0..m {
                    let k = (t * f) % mn;
                    acc += Complex64::cis(-std::f64::consts::TAU * k as f64 / mn as f64);
                }
                acc.scale(1.0 / (m as f64).sqrt())
            })
            .collect();
        // Stretching repeats values, so the std dimension is unchanged.
        Self::assemble(
            a,
            vec![ZERO; n],
            (1.0, 0.0),
            (1.0, 0.0),
            m,
            0.0,
            format!("warp({m})"),
        )
    }

    /// Sets the cost used by the Eq. 10 dissimilarity.
    pub fn with_cost(mut self, cost: f64) -> Self {
        assert!(cost >= 0.0, "cost must be non-negative");
        self.cost = cost;
        self
    }

    /// Spectrum length `n` this transformation acts on.
    pub fn n(&self) -> usize {
        self.a.len()
    }

    /// Multipliers `a`.
    pub fn a(&self) -> &[Complex64] {
        &self.a
    }

    /// Translations `b`.
    pub fn b(&self) -> &[Complex64] {
        &self.b
    }

    /// Cached polar decomposition of the multipliers: `(|a_f|, angle(a_f))`
    /// per coefficient.
    #[inline]
    pub fn a_polar(&self) -> &[(f64, f64)] {
        &self.a_polar
    }

    /// Affine map `(scale, offset)` on the mean dimension.
    pub fn mean_map(&self) -> (f64, f64) {
        self.mean_map
    }

    /// Affine map `(scale, offset)` on the std dimension.
    pub fn std_map(&self) -> (f64, f64) {
        self.std_map
    }

    /// Time-warp factor (1 = none).
    pub fn warp(&self) -> usize {
        self.warp
    }

    /// Cost for the Eq. 10 dissimilarity.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Transformation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when this is (numerically) the identity.
    pub fn is_identity(&self, tol: f64) -> bool {
        self.warp == 1
            && self.a.iter().all(|c| (*c - ONE).abs() <= tol)
            && self.b.iter().all(|c| c.abs() <= tol)
            && (self.mean_map.0 - 1.0).abs() <= tol
            && self.mean_map.1.abs() <= tol
            && (self.std_map.0 - 1.0).abs() <= tol
            && self.std_map.1.abs() <= tol
    }

    /// True when `a_{n−f} == conj(a_f)` and `b_{n−f} == conj(b_f)` hold
    /// exactly for every `f` (indices mod `n`): the transformation maps
    /// real series to real series, and conjugate-symmetric spectra to
    /// conjugate-symmetric spectra (see the module docs).
    pub fn is_conjugate_symmetric(&self) -> bool {
        self.conjugate_symmetric
    }

    /// `a = 1` and `b = 0` exactly: spectra pass through as stored
    /// (shifts and positive scales, which act on mean and std only,
    /// included). Stricter than [`LinearTransform::is_identity`], which
    /// tolerates rounding.
    pub(crate) fn leaves_spectra_unchanged(&self) -> bool {
        self.a.iter().all(|a| *a == ONE) && self.b.iter().all(|b| *b == ZERO)
    }

    /// Applies the transformation to a full spectrum.
    ///
    /// # Panics
    /// Panics if the spectrum length differs from `n`.
    pub fn apply_spectrum(&self, spectrum: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(spectrum.len(), self.a.len(), "spectrum length mismatch");
        self.apply_prefix(spectrum)
    }

    /// Applies the transformation to the leading coefficients of a
    /// spectrum — to the stored half of a conjugate-symmetric one, giving
    /// the stored half of its (conjugate-symmetric) image when the
    /// transformation is [conjugate-symmetric] itself.
    ///
    /// [conjugate-symmetric]: LinearTransform::is_conjugate_symmetric
    pub(crate) fn apply_prefix(&self, prefix: &[Complex64]) -> Vec<Complex64> {
        assert!(prefix.len() <= self.a.len(), "spectrum length mismatch");
        prefix
            .iter()
            .zip(self.a.iter().zip(&self.b))
            .map(|(&x, (&a, &b))| a * x + b)
            .collect()
    }

    /// The image of a stored (conjugate-symmetric, half-kept) spectrum:
    /// its stored coefficients transformed when the transformation is
    /// [conjugate-symmetric] — the image then mirrors the same way — and
    /// all `n` coefficients of the image otherwise, which nothing shorter
    /// determines.
    ///
    /// [conjugate-symmetric]: LinearTransform::is_conjugate_symmetric
    pub(crate) fn apply_stored(&self, stored: &Features) -> Vec<Complex64> {
        if self.conjugate_symmetric {
            self.apply_prefix(&stored.spectrum)
        } else {
            self.apply_spectrum(&stored.full_spectrum())
        }
    }

    /// Applies the transformation to a single coefficient by index.
    #[inline]
    pub fn apply_coeff(&self, f: usize, x: Complex64) -> Complex64 {
        self.a[f] * x + self.b[f]
    }

    /// Applies the transformation in the *time domain*: transforms the
    /// spectrum of `x` and inverts. For warping transformations this is the
    /// literal stretch (each value repeated `m` times).
    pub fn apply_time_domain(&self, planner: &mut FftPlanner, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n(), "series length mismatch");
        if self.warp > 1 {
            let mut out = Vec::with_capacity(x.len() * self.warp);
            for &v in x {
                for _ in 0..self.warp {
                    out.push(v);
                }
            }
            return out;
        }
        let spec = planner.dft_real(x);
        let transformed = self.apply_spectrum(&spec);
        planner.idft_real(&transformed)
    }

    /// Functional composition `other ∘ self` (apply `self` first):
    /// `a = a2 .* a1`, `b = a2 .* b1 + b2`; costs add.
    ///
    /// # Errors
    /// Returns [`Error::Unsupported`] when either side warps time (warps
    /// change the series length and do not compose with same-length
    /// transformations), and [`Error::TransformArity`] on length mismatch.
    pub fn then(&self, other: &LinearTransform) -> Result<LinearTransform> {
        if self.warp != 1 || other.warp != 1 {
            return Err(Error::Unsupported(
                "composition involving time warps".to_string(),
            ));
        }
        if self.n() != other.n() {
            return Err(Error::TransformArity {
                expected: self.n(),
                got: other.n(),
            });
        }
        let a: Vec<Complex64> = self
            .a
            .iter()
            .zip(&other.a)
            .map(|(&a1, &a2)| a2 * a1)
            .collect();
        let b: Vec<Complex64> = self
            .b
            .iter()
            .zip(other.a.iter().zip(&other.b))
            .map(|(&b1, (&a2, &b2))| a2 * b1 + b2)
            .collect();
        Ok(Self::assemble(
            a,
            b,
            (
                other.mean_map.0 * self.mean_map.0,
                other.mean_map.0 * self.mean_map.1 + other.mean_map.1,
            ),
            (
                other.std_map.0 * self.std_map.0,
                other.std_map.0 * self.std_map.1 + other.std_map.1,
            ),
            1,
            self.cost + other.cost,
            format!("{} . {}", other.name, self.name),
        ))
    }

    /// True when every multiplier is (numerically) real — the Theorem 2
    /// precondition for safety in `S_rect`.
    pub fn is_safe_rect(&self, tol: f64) -> bool {
        self.a.iter().all(|c| c.is_real(tol))
    }

    /// True when every translation is (numerically) zero — the Theorem 3
    /// precondition for safety in `S_pol`.
    pub fn is_safe_polar(&self, tol: f64) -> bool {
        self.b.iter().all(|c| c.abs() <= tol)
    }
}

impl fmt::Display for LinearTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_series::moving_average::circular_moving_average;
    use tsq_series::warp::stretch;
    use tsq_series::TimeSeries;

    fn close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_is_identity() {
        let t = LinearTransform::identity(8);
        assert!(t.is_identity(1e-12));
        let mut planner = FftPlanner::new();
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        close(&t.apply_time_domain(&mut planner, &x), &x, 1e-9);
    }

    #[test]
    fn moving_average_matches_time_domain() {
        // The central claim of Section 3.2: T_mavg applied in the frequency
        // domain equals the circular moving average in the time domain.
        let s = TimeSeries::from([
            36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0, 37.0, 38.0, 39.0, 38.0, 40.0, 38.0,
            37.0,
        ]);
        let t = LinearTransform::moving_average(15, 3);
        let mut planner = FftPlanner::new();
        let freq_way = t.apply_time_domain(&mut planner, s.values());
        let time_way = circular_moving_average(&s, 3);
        close(&freq_way, time_way.values(), 1e-9);
    }

    #[test]
    fn weighted_moving_average_matches_time_domain() {
        let s = TimeSeries::from([1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 7.0]);
        let w = [0.5, 0.3, 0.2];
        let t = LinearTransform::weighted_moving_average(8, &w);
        let mut planner = FftPlanner::new();
        let freq_way = t.apply_time_domain(&mut planner, s.values());
        let time_way = tsq_series::moving_average::weighted_circular_moving_average(&s, &w);
        close(&freq_way, time_way.values(), 1e-9);
    }

    #[test]
    fn reverse_negates() {
        let t = LinearTransform::reverse(6);
        let mut planner = FftPlanner::new();
        let x = [1.0, -2.0, 3.0, 0.0, 5.0, -1.0];
        let y = t.apply_time_domain(&mut planner, &x);
        close(&y, &[-1.0, 2.0, -3.0, 0.0, -5.0, 1.0], 1e-9);
        assert_eq!(t.mean_map(), (-1.0, 0.0));
    }

    #[test]
    fn shift_raw_adds_constant() {
        let t = LinearTransform::shift_raw(5, 2.5);
        let mut planner = FftPlanner::new();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = t.apply_time_domain(&mut planner, &x);
        close(&y, &[3.5, 4.5, 5.5, 6.5, 7.5], 1e-9);
    }

    #[test]
    fn scale_raw_multiplies() {
        let t = LinearTransform::scale_raw(4, -3.0);
        let mut planner = FftPlanner::new();
        let y = t.apply_time_domain(&mut planner, &[1.0, 2.0, 0.0, -1.0]);
        close(&y, &[-3.0, -6.0, 0.0, 3.0], 1e-9);
        assert_eq!(t.std_map(), (3.0, 0.0));
    }

    #[test]
    fn difference_matches_time_domain() {
        let t = LinearTransform::difference(6);
        let mut planner = FftPlanner::new();
        let x = [5.0, 7.0, 4.0, 4.0, 9.0, 1.0];
        let y = t.apply_time_domain(&mut planner, &x);
        // Circular first difference: y_0 = x_0 - x_5.
        let want = [4.0, 2.0, -3.0, 0.0, 5.0, -8.0];
        close(&y, &want, 1e-9);
    }

    #[test]
    fn difference_is_polar_safe_only() {
        let t = LinearTransform::difference(8);
        assert!(t.is_safe_polar(1e-9));
        assert!(!t.is_safe_rect(1e-9), "difference multipliers are complex");
    }

    #[test]
    fn warp_coefficients_satisfy_appendix_a() {
        // Equation 18: a_f * S_f = S'_f where s' repeats each value m times,
        // both spectra unitary.
        let mut planner = FftPlanner::new();
        let s = TimeSeries::from([20.0, 21.0, 20.0, 23.0]);
        for m in [1usize, 2, 3] {
            let t = LinearTransform::time_warp(4, m);
            let spec = planner.dft_real(s.values());
            let warped = stretch(&s, m);
            let warped_spec = planner.dft_real(warped.values());
            for f in 0..4 {
                let lhs = t.apply_coeff(f, spec[f]);
                let rhs = warped_spec[f];
                assert!((lhs - rhs).abs() < 1e-9, "m={m} f={f}: {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn warp_example_1_2_matches_exactly() {
        // Stretching p by 2 must reproduce s of Example 1.2 exactly — the
        // first k coefficients of T_warp2(P) equal those of S.
        let mut planner = FftPlanner::new();
        let p = TimeSeries::from([20.0, 21.0, 20.0, 23.0]);
        let s = TimeSeries::from([20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0]);
        let t = LinearTransform::time_warp(4, 2);
        let p_spec = planner.dft_real(p.values());
        let s_spec = planner.dft_real(s.values());
        for f in 0..4 {
            let lhs = t.apply_coeff(f, p_spec[f]);
            assert!((lhs - s_spec[f]).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn composition_matches_sequential_application() {
        let t1 = LinearTransform::moving_average(12, 3);
        let t2 = LinearTransform::reverse(12);
        let both = t1.then(&t2).unwrap();
        let mut planner = FftPlanner::new();
        let x: Vec<f64> = (0..12).map(|i| ((i * 7) % 5) as f64).collect();
        let spec = planner.dft_real(&x);
        let seq = t2.apply_spectrum(&t1.apply_spectrum(&spec));
        let fused = both.apply_spectrum(&spec);
        for (a, b) in seq.iter().zip(&fused) {
            assert!((*a - *b).abs() < 1e-10);
        }
        assert_eq!(both.name(), "reverse . mavg(3)");
    }

    #[test]
    fn warp_composition_rejected() {
        let w = LinearTransform::time_warp(4, 2);
        let i = LinearTransform::identity(4);
        assert!(matches!(w.then(&i), Err(Error::Unsupported(_))));
        assert!(matches!(i.then(&w), Err(Error::Unsupported(_))));
    }

    #[test]
    fn safety_predicates() {
        let mavg = LinearTransform::moving_average(16, 4);
        assert!(!mavg.is_safe_rect(1e-9), "MA multipliers are complex");
        assert!(mavg.is_safe_polar(1e-9), "MA has zero translation");
        let shift = LinearTransform::shift_raw(16, 1.0);
        assert!(shift.is_safe_rect(1e-9));
        assert!(!shift.is_safe_polar(1e-9));
        let rev = LinearTransform::reverse(16);
        assert!(rev.is_safe_rect(1e-9) && rev.is_safe_polar(1e-9));
    }

    #[test]
    fn costs_accumulate() {
        let t1 = LinearTransform::identity(4).with_cost(2.0);
        let t2 = LinearTransform::reverse(4).with_cost(3.5);
        assert_eq!(t1.then(&t2).unwrap().cost(), 5.5);
    }

    #[test]
    fn conjugate_symmetry_is_recorded_exactly() {
        for n in [1usize, 2, 7, 8, 33] {
            let mavg = LinearTransform::moving_average(n, n.min(3));
            assert!(mavg.is_conjugate_symmetric(), "n = {n}");
            for f in 1..n {
                assert_eq!(mavg.a()[n - f], mavg.a()[f].conj(), "n = {n}, f = {f}");
            }
            // What `from_parts` is handed is compared, not trusted.
            let copy = LinearTransform::from_parts(mavg.a().to_vec(), mavg.b().to_vec(), "copy");
            assert!(copy.unwrap().is_conjugate_symmetric(), "n = {n}");
        }
        let parts = |a: Vec<Complex64>, b: Vec<Complex64>| {
            LinearTransform::from_parts(a, b, "parts").unwrap()
        };
        // A complex scale rotates every coefficient the same way; a real
        // series' spectrum needs the mirrored ones rotated back.
        let rotation = parts(vec![Complex64::new(0.0, 1.0); 4], vec![ZERO; 4]);
        assert!(!rotation.is_conjugate_symmetric());
        // A translation of coefficient 1 alone, and with its mirror.
        let mut b = vec![ZERO; 4];
        b[1] = Complex64::new(1.0, 2.0);
        assert!(!parts(vec![ONE; 4], b.clone()).is_conjugate_symmetric());
        b[3] = Complex64::new(1.0, -2.0);
        assert!(parts(vec![ONE; 4], b).is_conjugate_symmetric());
        // Warping relates spectra of different lengths.
        assert!(!LinearTransform::time_warp(8, 2).is_conjugate_symmetric());
    }

    #[test]
    fn from_parts_checks_arity() {
        let a = vec![ONE; 4];
        let b = vec![ZERO; 3];
        assert!(matches!(
            LinearTransform::from_parts(a, b, "bad"),
            Err(Error::TransformArity { .. })
        ));
    }
}
