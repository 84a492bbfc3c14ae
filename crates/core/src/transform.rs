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
//! premise of the symmetry lemma in [`crate::features`]. The same-length
//! constructors all are so *exactly*
//! ([`LinearTransform::is_conjugate_symmetric`]): real constant multipliers (`identity`, `reverse`,
//! `shift`, `scale`, `scale_raw`) and a translation of the real DC term
//! alone (`shift_raw`) trivially; the circular convolutions
//! (`moving_average`, `weighted_moving_average`, `difference`) because the
//! multiplier of a real kernel is its DFT, computed here for `f <= n/2`
//! and mirrored above; a composition because the conjugate of a product
//! (and of a sum) is the product (sum) of the conjugates, in floating
//! point too. [`LinearTransform::time_warp`] relates spectra of different
//! lengths and is checked in the time domain. What
//! [`LinearTransform::from_parts`] is given is compared, once: parts that
//! mirror get a time-domain action, others none.
//!
//! ## The time-domain action
//!
//! The exact check runs over samples, so every transformation carries,
//! from construction, what it does to a real series `x` sample by sample
//! ([`LinearTransform::apply_time_domain`]): `y = h ⊛ x + o`, a circular
//! convolution with a real kernel `h` (taps `h_0..h_{w−1}`,
//! `y_t = Σ_s h_s·x_{(t−s) mod n}`) plus an offset `o`, or, for a warp,
//! `y_i = x_{⌊i/m⌋}`. Its spectrum is `a .* X + b` for
//! `a_f = Σ_s h_s·e^{−j2πsf/n}` and `b = DFT(o)`. Per constructor:
//!
//! | constructor | kernel `h` | offset `o` |
//! |---|---|---|
//! | `identity`, `shift` (moves the mean only) | `[1]` | — |
//! | `reverse`, `scale(c)` | `[sign c]` | — |
//! | `scale_raw(c)` | `[c]` | — |
//! | `shift_raw(c)` | `[1]` | `c` at every sample |
//! | `moving_average(w)` | `w` taps of `1/w` | — |
//! | `weighted_moving_average(w_1..w_m)` | `[w_1, …, w_m]` | — |
//! | `difference` | `[1, −1]` | — |
//! | `time_warp(m)` | `y_i = x_{⌊i/m⌋}` (`[1]` for `m = 1`) | — |
//! | `t1.then(t2)` | `h2 ⊛ h1` | `h2 ⊛ o1 + o2` |
//! | `from_parts(a, b)`, conjugate-symmetric | `IDFT(a)/√n` | `IDFT(b)` |
//!
//! A moving average is `w` equal taps, summed and then scaled once, rather
//! than a running sum: each tap is one pass over the samples that
//! vectorizes, where a running sum is one serial chain of adds (slower at
//! `w = 8`, `n = 128`). `from_parts` gets kernel and offset from one
//! inverse FFT of
//! `a/√n + j·b` (both inverses are real, so the kernel is the real part and
//! the offset the imaginary one). Parts that are not conjugate-symmetric
//! map a real series to a complex one and have no such action; an index
//! refuses them ([`crate::SimilarityIndex`]'s validation).

use std::cell::RefCell;
use std::fmt;

use tsq_dft::complex::{Complex64, ONE, ZERO};
use tsq_dft::FftPlanner;
use tsq_series::distance::ABANDON_BLOCK;

use crate::error::{Error, Result};
use crate::features::Normalize;

/// What a transformation does to a real series in the time domain (the
/// module docs' table).
#[derive(Debug, Clone, PartialEq)]
enum TimeAction {
    /// `y = h ⊛ x + o`: the taps of `h` (at most `n`), and `o` — empty
    /// for none, else one value per sample.
    Convolve { taps: Vec<f64>, offset: Vec<f64> },
    /// `y_i = x_{⌊i/m⌋}` for a warp by `m > 1`.
    Stretch(usize),
}

impl TimeAction {
    /// Convolution with `taps` and no offset.
    fn kernel(taps: Vec<f64>) -> TimeAction {
        TimeAction::Convolve {
            taps,
            offset: Vec::new(),
        }
    }
}

/// `h ⊛ v` for a kernel `h` and `v` of at most `n` values, wrapped at `n`:
/// `min(|h| + |v| − 1, n)` values, each summed in `(i, j)` order.
fn circular(h: &[f64], v: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; (h.len() + v.len()).saturating_sub(1).min(n)];
    for (i, &hi) in h.iter().enumerate() {
        for (j, &vj) in v.iter().enumerate() {
            out[(i + j) % n] += hi * vj;
        }
    }
    out
}

thread_local! {
    /// `x̂` of the series an [`Image`] is read from: one buffer per thread,
    /// reused, so a candidate costs no allocation.
    static NORMAL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `T(x̂)` of one series, read one output or [`ABANDON_BLOCK`] outputs at a
/// time — the two agree to the bit: every output sums its taps in order
/// (equal taps with weight 1, then scaled once), then adds the offset.
pub(crate) struct Image<'a> {
    action: &'a TimeAction,
    /// `x̂`, for a kernel of `w` taps preceded by its last `w − 1` values
    /// (the wrap): output `t` reads `normal[t + w − 1 − s]` for tap `s`.
    normal: &'a [f64],
    /// Equal taps: each weighs 1, and the sum is scaled by the tap.
    equal: bool,
    len: usize,
}

impl Image<'_> {
    /// Number of outputs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Output `t`.
    #[inline]
    pub(crate) fn at(&self, t: usize) -> f64 {
        let (taps, offset) = match self.action {
            TimeAction::Stretch(m) => return self.normal[t / m],
            TimeAction::Convolve { taps, offset } => (taps, offset),
        };
        let top = t + taps.len() - 1;
        let mut y = self.weight(taps[0]) * self.normal[top];
        for (s, &h) in taps.iter().enumerate().skip(1) {
            y += self.weight(h) * self.normal[top - s];
        }
        if self.equal {
            y *= taps[0];
        }
        offset.get(t).map_or(y, |o| y + o)
    }

    /// Outputs `t..t + ABANDON_BLOCK`, bit for bit [`Image::at`]'s: the
    /// taps run outermost over the block, which vectorizes.
    #[inline]
    pub(crate) fn block(&self, t: usize) -> [f64; ABANDON_BLOCK] {
        let (taps, offset) = match self.action {
            TimeAction::Stretch(_) => return std::array::from_fn(|j| self.at(t + j)),
            TimeAction::Convolve { taps, offset } => (taps, offset),
        };
        let top = t + taps.len() - 1;
        let tap = |s: usize| -> &[f64; ABANDON_BLOCK] {
            let from = &self.normal[top - s..][..ABANDON_BLOCK];
            from.try_into().expect("a whole block")
        };
        let (h0, x) = (self.weight(taps[0]), tap(0));
        let mut y: [f64; ABANDON_BLOCK] = std::array::from_fn(|j| h0 * x[j]);
        for (s, &h) in taps.iter().enumerate().skip(1) {
            let (h, x) = (self.weight(h), tap(s));
            for (y, x) in y.iter_mut().zip(x) {
                *y += h * x;
            }
        }
        if self.equal {
            y = y.map(|y| y * taps[0]);
        }
        if let Some(offset) = offset.get(t..t + ABANDON_BLOCK) {
            for (y, o) in y.iter_mut().zip(offset) {
                *y += o;
            }
        }
        y
    }

    /// A tap's weight: 1 for equal taps, whose sum is scaled once.
    #[inline]
    fn weight(&self, h: f64) -> f64 {
        if self.equal {
            1.0
        } else {
            h
        }
    }
}

/// A linear transformation `(a, b)` on length-`n` spectra, together with
/// its time-domain action, affine maps for the mean/std index dimensions,
/// an optional time-warp factor, and a cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTransform {
    a: Vec<Complex64>,
    /// Cached polar decomposition of `a` — (magnitude, angle) per
    /// coefficient. Computed once at construction; the transformed-MBR
    /// overlap test in `S_pol` reads it on every rectangle, so caching it
    /// removes a hypot+atan2 pair from the hottest loop of Algorithm 2.
    a_polar: Vec<(f64, f64)>,
    b: Vec<Complex64>,
    /// The time-domain action — a warp's included; `None` for parts that
    /// map real series to complex ones.
    action: Option<TimeAction>,
    mean_map: (f64, f64),
    std_map: (f64, f64),
    cost: f64,
    name: String,
}

/// `v_{n−f} == conj(v_f)` for every `f` (indices mod `n`), exactly.
fn mirrors(v: &[Complex64]) -> bool {
    let n = v.len();
    (0..n).all(|f| v[(n - f) % n] == v[f].conj())
}

impl LinearTransform {
    fn assemble(
        a: Vec<Complex64>,
        b: Vec<Complex64>,
        action: Option<TimeAction>,
        mean_map: (f64, f64),
        std_map: (f64, f64),
        cost: f64,
        name: String,
    ) -> Self {
        let a_polar = a.iter().map(|c| (c.abs(), c.angle())).collect();
        LinearTransform {
            a,
            a_polar,
            b,
            action,
            mean_map,
            std_map,
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

    /// Builds a transformation from raw coefficient vectors. Parts that are
    /// conjugate-symmetric get their real kernel and offset from one
    /// inverse FFT (module docs); others map real series to complex ones,
    /// have no time-domain action, and are refused by an index's
    /// validation — what [`crate::space::SpaceKind::check_safety`] says of
    /// them still holds.
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
        let action = (mirrors(&a) && mirrors(&b)).then(|| {
            let root = (a.len() as f64).sqrt();
            let both: Vec<Complex64> = a
                .iter()
                .zip(&b)
                .map(|(a, b)| Complex64::new(a.re / root - b.im, a.im / root + b.re))
                .collect();
            let inverse = FftPlanner::new().idft(&both);
            let offset = match b.iter().all(|b| *b == ZERO) {
                true => Vec::new(),
                false => inverse.iter().map(|c| c.im).collect(),
            };
            TimeAction::Convolve {
                taps: inverse.iter().map(|c| c.re).collect(),
                offset,
            }
        });
        Ok(Self::assemble(
            a,
            b,
            action,
            (1.0, 0.0),
            (1.0, 0.0),
            0.0,
            name.into(),
        ))
    }

    /// The identity transformation `T_i = (I, 0)` over length-`n` spectra.
    pub fn identity(n: usize) -> Self {
        Self::assemble(
            vec![ONE; n],
            vec![ZERO; n],
            Some(TimeAction::kernel(vec![1.0])),
            (1.0, 0.0),
            (1.0, 0.0),
            0.0,
            "identity".to_string(),
        )
    }

    /// The `window`-day circular moving average `T_mavg` for length-`n`
    /// series: `a_f = sum_{t<window} (1/window) e^{-j 2 pi t f / n}`, which
    /// is the *unnormalized* DFT of the kernel `m_l` — exactly the
    /// multiplier that makes `a .* X` the unitary spectrum of
    /// `conv(x, m_l)`. (The paper's Eq. 6 elides the `sqrt(n)`; see
    /// `tsq_testkit::convolution`.)
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
            Some(TimeAction::kernel(weights.to_vec())),
            (1.0, 0.0),
            (1.0, 0.0),
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
            Some(TimeAction::kernel(vec![-1.0])),
            (-1.0, 0.0),
            (1.0, 0.0),
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
            Some(TimeAction::kernel(vec![1.0])),
            (1.0, c),
            (1.0, 0.0),
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
            Some(TimeAction::kernel(vec![sign.re])),
            (c, 0.0),
            (c.abs(), 0.0),
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
        let action = TimeAction::Convolve {
            taps: vec![1.0],
            offset: vec![c; n],
        };
        Self::assemble(
            vec![ONE; n],
            b,
            Some(action),
            (1.0, c),
            (1.0, 0.0),
            0.0,
            format!("shift_raw({c})"),
        )
    }

    /// Scale acting on a raw spectrum: every coefficient multiplied by `c`.
    pub fn scale_raw(n: usize, c: f64) -> Self {
        Self::assemble(
            vec![Complex64::from_real(c); n],
            vec![ZERO; n],
            Some(TimeAction::kernel(vec![c])),
            (c, 0.0),
            (c.abs(), 0.0),
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
            Some(TimeAction::kernel(vec![1.0, -1.0])),
            (0.0, 0.0), // differencing removes the level entirely
            (1.0, 0.0),
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
        let action = match m {
            1 => TimeAction::kernel(vec![1.0]),
            m => TimeAction::Stretch(m),
        };
        Self::assemble(
            a,
            vec![ZERO; n],
            Some(action),
            (1.0, 0.0),
            (1.0, 0.0),
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
    pub(crate) fn b(&self) -> &[Complex64] {
        &self.b
    }

    /// Cached polar decomposition of the multipliers: `(|a_f|, angle(a_f))`
    /// per coefficient.
    #[inline]
    pub(crate) fn a_polar(&self) -> &[(f64, f64)] {
        &self.a_polar
    }

    /// Affine map `(scale, offset)` on the mean dimension.
    pub(crate) fn mean_map(&self) -> (f64, f64) {
        self.mean_map
    }

    /// Affine map `(scale, offset)` on the std dimension.
    pub(crate) fn std_map(&self) -> (f64, f64) {
        self.std_map
    }

    /// Time-warp factor (1 = none).
    pub fn warp(&self) -> usize {
        match self.action {
            Some(TimeAction::Stretch(m)) => m,
            _ => 1,
        }
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
    pub(crate) fn is_identity(&self, tol: f64) -> bool {
        self.warp() == 1
            && self.a.iter().all(|c| (*c - ONE).abs() <= tol)
            && self.b.iter().all(|c| c.abs() <= tol)
            && (self.mean_map.0 - 1.0).abs() <= tol
            && self.mean_map.1.abs() <= tol
            && (self.std_map.0 - 1.0).abs() <= tol
            && self.std_map.1.abs() <= tol
    }

    /// True when `a_{n−f} == conj(a_f)` and `b_{n−f} == conj(b_f)` hold
    /// exactly for every `f` (indices mod `n`): the transformation maps
    /// real series to real series of the same length, and
    /// conjugate-symmetric spectra to conjugate-symmetric spectra. Every
    /// same-length constructor and composition is so by construction,
    /// parts are compared ([`LinearTransform::from_parts`]), a warp is not
    /// (see the module docs).
    pub fn is_conjugate_symmetric(&self) -> bool {
        self.warp() == 1 && self.maps_real_series()
    }

    /// True when the transformation maps real series to real series, i.e.
    /// has a time-domain action: every constructor does, and parts given
    /// to [`LinearTransform::from_parts`] that are conjugate-symmetric.
    pub fn maps_real_series(&self) -> bool {
        self.action.is_some()
    }

    /// The kernel `[1]` without an offset: samples pass through as they
    /// are (shifts and positive scales, which act on mean and std only,
    /// included). Stricter than [`LinearTransform::is_identity`], which
    /// tolerates rounding.
    pub(crate) fn leaves_samples_unchanged(&self) -> bool {
        matches!(
            &self.action,
            Some(TimeAction::Convolve { taps, offset }) if taps[..] == [1.0] && offset.is_empty()
        )
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
    /// spectrum — to the kept coefficients of a conjugate-symmetric one,
    /// giving those of its (conjugate-symmetric) image when the
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

    /// Applies the transformation to a single coefficient by index.
    #[inline]
    pub fn apply_coeff(&self, f: usize, x: Complex64) -> Complex64 {
        self.a[f] * x + self.b[f]
    }

    /// Applies the transformation in the *time domain*, by its action
    /// (module docs): for a warp the literal stretch (each value repeated
    /// `m` times). `None` for parts that map real series to complex ones.
    ///
    /// # Panics
    /// Panics if `x` is not `n` samples long.
    pub fn apply_time_domain(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.maps_real_series()
            .then(|| self.act(x, Normalize::NONE))
    }

    /// Runs `read` on `T(x̂)` for `x̂` the samples `x` through `norm` (one
    /// multiply per sample, into a buffer the thread reuses): the one
    /// definition of a transformed series every exact check reads, so the
    /// stored and the probe side of a join agree to the bit.
    ///
    /// # Panics
    /// Panics if `x` is not `n` samples long, or the transformation has no
    /// time-domain action (an index refuses it first).
    pub(crate) fn with_image<R>(
        &self,
        x: &[f64],
        norm: Normalize,
        read: impl FnOnce(&Image<'_>) -> R,
    ) -> R {
        let n = x.len();
        assert_eq!(n, self.n(), "series length mismatch");
        let action = self
            .action
            .as_ref()
            .expect("maps real series to real series");
        let (wrap, equal, len) = match action {
            TimeAction::Stretch(m) => (0, false, n * m),
            TimeAction::Convolve { taps, .. } => {
                let equal = taps.iter().all(|&h| h == taps[0]);
                (taps.len().saturating_sub(1), equal, n)
            }
        };
        NORMAL.with(|normal| {
            let normal = &mut *normal.borrow_mut();
            normal.clear();
            normal.reserve(wrap + n);
            normal.extend(x[n - wrap..].iter().map(|&v| norm.at(v)));
            normal.extend(x.iter().map(|&v| norm.at(v)));
            read(&Image {
                action,
                normal,
                equal,
                len,
            })
        })
    }

    /// `T(x̂)` written out ([`LinearTransform::with_image`]).
    pub(crate) fn act(&self, x: &[f64], norm: Normalize) -> Vec<f64> {
        self.with_image(x, norm, |image| {
            (0..image.len()).map(|t| image.at(t)).collect()
        })
    }

    /// Functional composition `other ∘ self` (apply `self` first):
    /// `a = a2 .* a1`, `b = a2 .* b1 + b2`; costs add.
    ///
    /// # Errors
    /// Returns [`Error::Unsupported`] when either side warps time (warps
    /// change the series length and do not compose with same-length
    /// transformations), and [`Error::TransformArity`] on length mismatch.
    pub fn then(&self, other: &LinearTransform) -> Result<LinearTransform> {
        if self.warp() != 1 || other.warp() != 1 {
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
        // `other ∘ self` in time: `h2 ⊛ (h1 ⊛ x + o1) + o2`.
        let action = match (&self.action, &other.action) {
            (
                Some(TimeAction::Convolve {
                    taps: h1,
                    offset: o1,
                }),
                Some(TimeAction::Convolve {
                    taps: h2,
                    offset: o2,
                }),
            ) => {
                let mut offset = match o1.is_empty() {
                    true => Vec::new(),
                    false => circular(h2, o1, self.n()),
                };
                if offset.is_empty() {
                    offset.clone_from(o2);
                } else {
                    for (o, add) in offset.iter_mut().zip(o2) {
                        *o += add;
                    }
                }
                Some(TimeAction::Convolve {
                    taps: circular(h2, h1, self.n()),
                    offset,
                })
            }
            _ => None,
        };
        Ok(Self::assemble(
            a,
            b,
            action,
            (
                other.mean_map.0 * self.mean_map.0,
                other.mean_map.0 * self.mean_map.1 + other.mean_map.1,
            ),
            (
                other.std_map.0 * self.std_map.0,
                other.std_map.0 * self.std_map.1 + other.std_map.1,
            ),
            self.cost + other.cost,
            format!("{} . {}", other.name, self.name),
        ))
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
    use crate::features::FeatureSchema;
    use crate::space::SpaceKind;
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
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        close(&t.apply_time_domain(&x).unwrap(), &x, 1e-9);
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
        let spec = t.apply_spectrum(&planner.dft_real(s.values()));
        let freq_way = planner.idft_real(&spec);
        let time_way = circular_moving_average(&s, 3);
        close(&freq_way, time_way.values(), 1e-9);
        // The action the refine runs is the same circular average.
        let action = t.apply_time_domain(s.values()).unwrap();
        close(&action, time_way.values(), 1e-9);
    }

    #[test]
    fn weighted_moving_average_matches_time_domain() {
        let s = TimeSeries::from([1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 7.0]);
        let w = [0.5, 0.3, 0.2];
        let t = LinearTransform::weighted_moving_average(8, &w);
        let freq_way = t.apply_time_domain(s.values()).unwrap();
        let time_way = tsq_series::moving_average::weighted_circular_moving_average(&s, &w);
        close(&freq_way, time_way.values(), 1e-9);
    }

    #[test]
    fn reverse_negates() {
        let t = LinearTransform::reverse(6);
        let x = [1.0, -2.0, 3.0, 0.0, 5.0, -1.0];
        let y = t.apply_time_domain(&x).unwrap();
        close(&y, &[-1.0, 2.0, -3.0, 0.0, -5.0, 1.0], 1e-9);
        assert_eq!(t.mean_map(), (-1.0, 0.0));
    }

    #[test]
    fn shift_raw_adds_constant() {
        let t = LinearTransform::shift_raw(5, 2.5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = t.apply_time_domain(&x).unwrap();
        close(&y, &[3.5, 4.5, 5.5, 6.5, 7.5], 1e-9);
    }

    #[test]
    fn scale_raw_multiplies() {
        let t = LinearTransform::scale_raw(4, -3.0);
        let y = t.apply_time_domain(&[1.0, 2.0, 0.0, -1.0]).unwrap();
        close(&y, &[-3.0, -6.0, 0.0, 3.0], 1e-9);
        assert_eq!(t.std_map(), (3.0, 0.0));
    }

    #[test]
    fn difference_matches_time_domain() {
        let t = LinearTransform::difference(6);
        let x = [5.0, 7.0, 4.0, 4.0, 9.0, 1.0];
        let y = t.apply_time_domain(&x).unwrap();
        // Circular first difference: y_0 = x_0 - x_5.
        let want = [4.0, 2.0, -3.0, 0.0, 5.0, -8.0];
        close(&y, &want, 1e-9);
    }

    /// Which spaces Theorems 2–3 ([`SpaceKind::check_safety`]) allow `t`
    /// in, over a raw schema indexing DC and the first coefficient:
    /// `[S_rect, S_pol]`.
    fn safe_in(t: &LinearTransform) -> [bool; 2] {
        let raw2 = FeatureSchema::Raw { k: 2 };
        [SpaceKind::Rectangular, SpaceKind::Polar].map(|s| s.check_safety(t, raw2).is_ok())
    }

    #[test]
    fn difference_is_polar_safe_only() {
        let t = LinearTransform::difference(8);
        assert_eq!(
            safe_in(&t),
            [false, true],
            "difference multipliers are complex"
        );
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
        assert_eq!(safe_in(&mavg), [false, true], "MA multipliers are complex");
        let shift = LinearTransform::shift_raw(16, 1.0);
        assert_eq!(safe_in(&shift), [true, false], "a raw shift translates DC");
        assert_eq!(safe_in(&LinearTransform::reverse(16)), [true, true]);
        assert_eq!(safe_in(&LinearTransform::scale(16, -2.0)), [true, true]);
        assert_eq!(safe_in(&LinearTransform::time_warp(16, 2)), [false, true]);
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
    fn parts_get_a_real_kernel_or_no_action() {
        let mut planner = FftPlanner::new();
        let x = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0, 5.0];
        let n = x.len();
        // A mirrored translation of coefficient 2 on top of a moving
        // average: kernel and offset from the one inverse FFT.
        let mavg = LinearTransform::moving_average(n, 3);
        let mut b = vec![ZERO; n];
        b[2] = Complex64::new(0.5, -1.5);
        b[n - 2] = b[2].conj();
        let parts = LinearTransform::from_parts(mavg.a().to_vec(), b, "parts").unwrap();
        assert!(parts.maps_real_series());
        let spectrum = parts.apply_spectrum(&planner.dft_real(&x));
        let spectrum_route = planner.idft_real(&spectrum);
        close(
            &parts.apply_time_domain(&x).unwrap(),
            &spectrum_route,
            1e-12,
        );
        // Not mirrored: a real series has a complex image, no action.
        let mut one_sided = vec![ZERO; n];
        one_sided[1] = ONE;
        for t in [
            LinearTransform::from_parts(vec![Complex64::new(0.6, 0.8); n], vec![ZERO; n], "rot"),
            LinearTransform::from_parts(vec![ONE; n], one_sided, "b1"),
        ] {
            let t = t.unwrap();
            assert!(!t.maps_real_series(), "{}", t.name());
            assert_eq!(t.apply_time_domain(&x), None, "{}", t.name());
            assert!(!t.then(&mavg).unwrap().maps_real_series(), "{}", t.name());
        }
        assert!(LinearTransform::time_warp(n, 2).maps_real_series());
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
