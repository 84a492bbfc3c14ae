//! Coordinate spaces over the feature vector: `S_rect` and `S_pol`
//! (Section 3.1), search-rectangle construction (Figure 7), and the action
//! of a safe transformation on minimum bounding rectangles (Algorithm 1).
//!
//! ## Algorithm 1, once
//!
//! One private kernel, `SpaceKind::transformed_dims`, is Algorithm 1's
//! implementation: it applies `T` to a stored rectangle dimension by
//! dimension, in index order, and hands each transformed, padded bound
//! pair to its caller, which may stop early. The range filter
//! ([`SpaceKind::transformed_intersects`]) stops at the first disjoint
//! dimension; kNN's MINDIST ([`SpaceKind::transformed_lower_bound`]) sums
//! per-coefficient distances from the pairs. Neither builds `T(rect)` nor
//! allocates. The anti-rounding pad `1e-9·(1 + max(|lo|, |hi|))` lives in
//! one helper, `padded`, which the ST-index's trail rectangles
//! ([`crate::subseq`]) call too.
//!
//! ## Lemma 1 in floating point
//!
//! The filter's bound and the refine's sum come from two computations: the
//! bound from the FFT's coefficients of the indexed representation (in
//! polar coordinates under `S_pol`), the sum from the samples in time
//! ([`crate::index::Refine`]). No false dismissal needs, for every record
//! the refine admits,
//!
//! ```text
//! computed bound  ≤  computed time-domain sum
//! |T(c_f) − q_f|  ≤  √S                       (each indexed f; kNN: the
//!                                               root of Σ_f |T(c_f) − q_f|²)
//! ```
//!
//! with `c_f`, `q_f` the stored and the query's computed coefficients and
//! `S` the refine's computed sum (the row is in iff `S <= limit_sq(eps)`).
//! With `X_f`, `Q_f`, `D` their exact counterparts, `|T(X_f) − Q_f| ≤ D/√w_f`
//! by the symmetry lemma ([`crate::features`]; `w_f = 2` for a coefficient
//! with a mirror, `1` for DC and Nyquist), so the inequality holds when
//!
//! ```text
//! e_fft + e_polar  ≤  (1 − 1/√w_f)·√S − e_sum/√w_f
//! ```
//!
//! - `e_fft ≤ |a_f|·(ε_x + ε_q)`: the coefficients' error, `ε ≈ 5·log2(n)·u·‖x̂‖`
//!   for the radix-2 FFT (a few times that for Bluestein lengths), `u = 2^−53`;
//! - `e_sum ≈ (n + w)·u·√S + w·u·‖x̂‖`: the time-domain sum's rounding,
//!   `w` the kernel's taps, `‖x̂‖ = √n` for a normal form;
//! - `e_polar`: the block's own arithmetic — `m ± eps`, `α ± asin(eps/m)`
//!   and the stored point's `abs`/`atan2` — which [`SpaceKind::ball_block`]
//!   rounds outward: each magnitude bound one ulp, the angle half-width by
//!   [`ANGLE_PAD`] and each angle bound one more ulp. The kNN bound
//!   ([`SpaceKind::transformed_lower_bound`]) moves one ulp down.
//!
//! Under the default schema every indexed coefficient has a mirror, so the
//! right-hand side is `(1 − 1/√2)·√S − e_sum/√2`: the inequality holds for
//! every record at a distance above ~`1e-12·√n` — and at distance 0 too,
//! where a bitwise-equal series gives bitwise-equal coefficients and sum.
//! DC (indexed only by [`FeatureSchema::Raw`]) and Nyquist (`k ≥ n/2`)
//! have no mirror: there the outward rounding covers `e_polar` alone, and
//! `e_fft + e_sum` is what
//! `tests/planner_consistency.rs::lemma_1_holds_within_four_ulps_of_the_threshold`
//! walks.

use std::f64::consts::PI;
use std::ops::ControlFlow;

use tsq_dft::Complex64;
use tsq_rtree::Rect;

use crate::error::{Error, Result};
use crate::features::{FeatureSchema, Features};
use crate::geometry::{normalize_angle, AnnularSector};
use crate::transform::LinearTransform;

/// Stand-in for an unbounded coordinate in search rectangles (the mean/std
/// filter dimensions are unconstrained unless the query says otherwise).
pub const UNBOUNDED: f64 = 1e300;

/// Relative widening of a polar block's angle half-width `asin(eps/m)`: it
/// covers the rounding of `eps/m` (half an ulp), of `asin` (within an ulp
/// in the platform's libm) and their product's, with room to spare.
pub const ANGLE_PAD: f64 = 8.0 * f64::EPSILON;

/// The neighbouring `f64` toward `+∞` of a finite `v`, and a non-finite
/// `v` itself (`f64::next_up` is past the MSRV; a finite value's
/// neighbours are its bit pattern's).
fn ulp_up(v: f64) -> f64 {
    if !v.is_finite() {
        v
    } else if v == 0.0 {
        f64::from_bits(1)
    } else if v > 0.0 {
        f64::from_bits(v.to_bits() + 1)
    } else {
        f64::from_bits(v.to_bits() - 1)
    }
}

/// The neighbouring `f64` toward `−∞` of a finite `v`, and a non-finite
/// `v` itself.
fn ulp_down(v: f64) -> f64 {
    -ulp_up(-v)
}

/// How complex coefficients are laid out as real index dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpaceKind {
    /// Real/imaginary components (`S_rect`): translations are safe
    /// (Theorem 2), complex multipliers are not.
    Rectangular,
    /// Magnitude/phase-angle components (`S_pol`): complex multipliers are
    /// safe (Theorem 3), translations are not. The paper's experiments use
    /// this space "because vector multiplication for time series data seemed
    /// to be more important than vector addition".
    #[default]
    Polar,
}

impl SpaceKind {
    /// Coordinates of one complex coefficient in this space.
    #[inline]
    pub fn coeff_coords(&self, c: Complex64) -> [f64; 2] {
        match self {
            SpaceKind::Rectangular => [c.re, c.im],
            SpaceKind::Polar => [c.abs(), c.angle()],
        }
    }

    /// Full coordinate vector of a feature point under `schema`.
    pub fn point(&self, features: &Features, schema: FeatureSchema) -> Vec<f64> {
        let mut coords = Vec::with_capacity(schema.dims());
        if schema.aux_dims() == 2 {
            coords.push(features.mean);
            coords.push(features.std);
        }
        for &c in features.indexed_coeffs(schema) {
            let [a, b] = self.coeff_coords(c);
            coords.push(a);
            coords.push(b);
        }
        coords
    }

    /// Verifies that `t` satisfies the safety condition (Definition 1) for
    /// this space, over the coefficients the schema actually indexes.
    ///
    /// # Errors
    /// [`Error::UnsafeTransform`] citing the violated theorem.
    pub fn check_safety(&self, t: &LinearTransform, schema: FeatureSchema) -> Result<()> {
        const TOL: f64 = 1e-9;
        let range = schema.coeff_indices();
        match self {
            SpaceKind::Rectangular => {
                for f in range {
                    if !t.a()[f].is_real(TOL) {
                        return Err(Error::UnsafeTransform {
                            reason: format!(
                                "multiplier a_{f} = {} is complex; Theorem 2 requires real \
                                 multipliers in S_rect",
                                t.a()[f]
                            ),
                        });
                    }
                }
                Ok(())
            }
            SpaceKind::Polar => {
                for f in range {
                    if t.b()[f].abs() > TOL {
                        return Err(Error::UnsafeTransform {
                            reason: format!(
                                "translation b_{f} = {} is non-zero; Theorem 3 requires b = 0 \
                                 in S_pol",
                                t.b()[f]
                            ),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// Builds the search rectangle around a query's feature point for a
    /// Euclidean threshold `eps` (Section 3.1 / Figure 7).
    ///
    /// The mean/std dimensions (NormalForm schema) are bounded only by the
    /// optional `window`.
    pub fn search_rect(
        &self,
        query: &Features,
        schema: FeatureSchema,
        eps: f64,
        window: &QueryWindow,
    ) -> Rect {
        assert!(eps >= 0.0, "threshold must be non-negative");
        let mut lo = Vec::with_capacity(schema.dims());
        let mut hi = Vec::with_capacity(schema.dims());
        if schema.aux_dims() == 2 {
            let (ml, mh) = window.mean.unwrap_or((-UNBOUNDED, UNBOUNDED));
            let (sl, sh) = window.std.unwrap_or((-UNBOUNDED, UNBOUNDED));
            lo.push(ml);
            hi.push(mh);
            lo.push(sl);
            hi.push(sh);
        }
        for &c in query.indexed_coeffs(schema) {
            let (block_lo, block_hi) = self.ball_block(c, eps);
            lo.extend_from_slice(&block_lo);
            hi.extend_from_slice(&block_hi);
        }
        Rect::new(lo, hi)
    }

    /// The 2-d bounding block of the disk of radius `eps` around complex
    /// point `c`, in this space's coordinates.
    ///
    /// Rectangular: `[re ± eps] x [im ± eps]`. Polar (Figure 7): magnitude
    /// `[m - eps, m + eps]`, angle `[α ± asin(eps/m)]`; when `eps >= m` the
    /// disk contains the origin, so the magnitude range is `[0, m + eps]`
    /// and *every* angle is possible. An angle interval crossing ±π is
    /// widened to the full circle (stored angle coordinates are normalized,
    /// so the widened rectangle still contains every qualifying point —
    /// conservative, never lossy).
    ///
    /// Every bound is rounded outward (the module docs' `e_polar`): each
    /// `± eps` one ulp, the angle half-width by [`ANGLE_PAD`] and each
    /// angle bound one more ulp.
    pub fn ball_block(&self, c: Complex64, eps: f64) -> ([f64; 2], [f64; 2]) {
        let below = |v: f64| ulp_down(v - eps);
        let above = |v: f64| ulp_up(v + eps);
        match self {
            SpaceKind::Rectangular => ([below(c.re), below(c.im)], [above(c.re), above(c.im)]),
            SpaceKind::Polar => {
                let m = c.abs();
                if eps >= m {
                    ([0.0, -PI], [above(m), PI])
                } else {
                    let alpha = c.angle();
                    let da = (eps / m).asin() * (1.0 + ANGLE_PAD);
                    let lo = ulp_down(alpha - da);
                    let hi = ulp_up(alpha + da);
                    if lo < -PI || hi > PI {
                        // Crosses the angular cut: widen.
                        ([below(m), -PI], [above(m), PI])
                    } else {
                        ([below(m), lo], [above(m), hi])
                    }
                }
            }
        }
    }

    /// Lower bound on the distance between the (transformed) objects inside
    /// a stored MBR and a query point, measured over the indexed
    /// coefficients only. Admissible for KNN: it never exceeds the true
    /// spectral distance (and hence, by Parseval, the true series
    /// distance), and the computed root moves one ulp down (the module
    /// docs' inequality).
    pub fn transformed_lower_bound(
        &self,
        rect: &Rect,
        t: &LinearTransform,
        schema: FeatureSchema,
        query: &Features,
    ) -> f64 {
        let aux = schema.aux_dims();
        let coeffs = query.indexed_coeffs(schema);
        let mut first = (0.0, 0.0);
        let mut acc = 0.0;
        let _ = self.transformed_dims(rect, t, schema, |d, lo, hi| {
            if d < aux {
                return ControlFlow::Continue(());
            }
            if (d - aux) % 2 == 0 {
                first = (lo, hi);
                return ControlFlow::Continue(());
            }
            let ((alo, ahi), (blo, bhi)) = (first, (lo, hi));
            let q = coeffs[(d - aux) / 2];
            let dist = match self {
                SpaceKind::Rectangular => {
                    let dx = axis_dist(q.re, alo, ahi);
                    let dy = axis_dist(q.im, blo, bhi);
                    (dx * dx + dy * dy).sqrt()
                }
                SpaceKind::Polar => {
                    let sector = if bhi - blo >= 2.0 * PI - 1e-12 {
                        AnnularSector::annulus(alo.max(0.0), ahi.max(0.0))
                    } else {
                        AnnularSector::new(alo.max(0.0), ahi.max(0.0), blo, bhi)
                    };
                    sector.min_dist(q)
                }
            };
            acc += dist * dist;
            ControlFlow::Continue(())
        });
        match acc > 0.0 {
            true => ulp_down(acc.sqrt()),
            false => 0.0,
        }
    }

    /// Whether the transformed stored rectangle `T(rect)` meets the query
    /// rectangle: the filter of Algorithm 2, deciding at the first
    /// disjoint dimension without building `T(rect)`.
    pub fn transformed_intersects(
        &self,
        rect: &Rect,
        t: &LinearTransform,
        schema: FeatureSchema,
        query: &Rect,
    ) -> bool {
        let (qlo, qhi) = (query.lo(), query.hi());
        self.transformed_dims(rect, t, schema, |d, lo, hi| {
            match lo <= qhi[d] && qlo[d] <= hi {
                true => ControlFlow::Continue(()),
                false => ControlFlow::Break(()),
            }
        })
        .is_continue()
    }

    /// Algorithm 1 on one stored rectangle: the node-wise construction of
    /// the transformed index `I' = T(I)`. Hands `visit` each dimension `d`
    /// of `T(rect)` in index order as its bounds `(lo, hi)`, each widened
    /// by [`padded`], and stops at the first dimension `visit` breaks on.
    ///
    /// Mean and std go through `T`'s affine maps; each indexed coefficient's
    /// two coordinates through the real affine map `a_f·x + b_f` in `S_rect`
    /// (Theorem 2), or through the magnitude scale `|a_f|` and the angle
    /// shift `arg a_f` in `S_pol` (Theorem 3). A shifted angle interval
    /// that wraps past ±π, or one under a zero scale (everything collapses
    /// to the origin), is the full circle — conservative, never lossy,
    /// since stored angles are normalized.
    ///
    /// The caller must have verified safety via
    /// [`SpaceKind::check_safety`]; debug assertions re-check.
    #[inline]
    fn transformed_dims(
        &self,
        rect: &Rect,
        t: &LinearTransform,
        schema: FeatureSchema,
        mut visit: impl FnMut(usize, f64, f64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        debug_assert_eq!(rect.dims(), schema.dims());
        let (lo, hi) = (rect.lo(), rect.hi());
        let mut emit = |d: usize, (l, h): (f64, f64)| {
            let (l, h) = padded(l, h);
            visit(d, l, h)
        };
        let mut d = 0;
        if schema.aux_dims() == 2 {
            emit(0, affine(lo[0], hi[0], t.mean_map()))?;
            emit(1, affine(lo[1], hi[1], t.std_map()))?;
            d = 2;
        }
        for f in schema.coeff_indices() {
            match self {
                SpaceKind::Rectangular => {
                    let (a, b) = (t.a()[f], t.b()[f]);
                    debug_assert!(a.is_real(1e-6), "unsafe multiplier in S_rect");
                    emit(d, affine(lo[d], hi[d], (a.re, b.re)))?;
                    emit(d + 1, affine(lo[d + 1], hi[d + 1], (a.re, b.im)))?;
                }
                SpaceKind::Polar => {
                    debug_assert!(t.b()[f].abs() <= 1e-6, "unsafe translation in S_pol");
                    let (scale, delta) = t.a_polar()[f];
                    emit(d, (lo[d] * scale, hi[d] * scale))?;
                    emit(d + 1, shifted_angle(lo[d + 1], hi[d + 1], scale, delta))?;
                }
            }
            d += 2;
        }
        ControlFlow::Continue(())
    }
}

/// The anti-rounding pad of a transformed or trail bound: `[lo, hi]`
/// widened by `1e-9·(1 + max(|lo|, |hi|))` on each side. The point-wise
/// transformation (complex multiply, `atan2`) and the rectangle-wise one
/// (affine on bounds, angle shift) round differently in the last ulps, and
/// the sliding DFT drifts in proportion to the stored coefficients; the
/// relative pad keeps every transformed member point, and every window of
/// a trail, inside its rectangle without affecting pruning power
/// measurably.
#[inline]
pub(crate) fn padded(lo: f64, hi: f64) -> (f64, f64) {
    let pad = 1e-9 * (1.0 + lo.abs().max(hi.abs()));
    (lo - pad, hi + pad)
}

/// The image of `[l, h]` under `x -> a·x + b`, ordered.
#[inline]
fn affine(l: f64, h: f64, (a, b): (f64, f64)) -> (f64, f64) {
    let x = a * l + b;
    let y = a * h + b;
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// The angle interval `[blo, bhi]` under a multiplier of magnitude `scale`
/// and angle `delta`: shifted by `delta` and normalized, or the full circle
/// `[−π, π]` when the scale is zero, the interval already spans the circle,
/// or the shifted interval wraps past ±π.
#[inline]
fn shifted_angle(blo: f64, bhi: f64, scale: f64, delta: f64) -> (f64, f64) {
    const FULL: (f64, f64) = (-PI, PI);
    let span = bhi - blo;
    if scale == 0.0 || span >= 2.0 * PI - 1e-12 {
        return FULL;
    }
    let nl = normalize_angle(blo + delta);
    let nh = normalize_angle(bhi + delta);
    if nl <= nh && (nh - nl) - span <= 1e-9 {
        (nl, nh)
    } else {
        FULL
    }
}

/// Optional constraints on the mean/std filter dimensions of a query
/// (NormalForm schema only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryWindow {
    /// Bounds on the original-series mean.
    pub mean: Option<(f64, f64)>,
    /// Bounds on the original-series standard deviation.
    pub std: Option<(f64, f64)>,
}

impl QueryWindow {
    /// Whether a stored series' mean and standard deviation lie inside
    /// the window.
    pub fn admits(&self, features: &Features) -> bool {
        let inside = |bounds: Option<(f64, f64)>, v: f64| match bounds {
            Some((lo, hi)) => !(v < lo || v > hi),
            None => true,
        };
        inside(self.mean, features.mean) && inside(self.std, features.std)
    }
}

#[inline]
fn axis_dist(v: f64, lo: f64, hi: f64) -> f64 {
    if v < lo {
        lo - v
    } else if v > hi {
        v - hi
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_dft::FftPlanner;
    use tsq_series::TimeSeries;

    fn feats(vals: &[f64], schema: FeatureSchema) -> Features {
        let mut planner = FftPlanner::new();
        Features::extract(&TimeSeries::new(vals.to_vec()), schema, &mut planner).unwrap()
    }

    const NF2: FeatureSchema = FeatureSchema::NormalForm { k: 2 };

    #[test]
    fn point_layout_matches_paper() {
        // 6 dims: mean, std, |X1|, angle(X1), |X2|, angle(X2).
        let f = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        let p = SpaceKind::Polar.point(&f, NF2);
        assert_eq!(p.len(), 6);
        assert!((p[0] - f.mean).abs() < 1e-12);
        assert!((p[1] - f.std).abs() < 1e-12);
        assert!((p[2] - f.spectrum[1].abs()).abs() < 1e-12);
        assert!((p[3] - f.spectrum[1].angle()).abs() < 1e-12);
        let r = SpaceKind::Rectangular.point(&f, NF2);
        assert!((r[2] - f.spectrum[1].re).abs() < 1e-12);
        assert!((r[3] - f.spectrum[1].im).abs() < 1e-12);
    }

    #[test]
    fn outward_rounding_moves_one_ulp() {
        for v in [1.0, -1.0, 0.3, -2.5e-300, 1e300, f64::MIN_POSITIVE] {
            assert!(ulp_down(v) < v && v < ulp_up(v), "{v:e}");
            assert_eq!(ulp_down(ulp_up(v)), v, "{v:e}");
        }
        assert_eq!(ulp_up(0.0), f64::from_bits(1));
        assert_eq!(ulp_down(0.0), -f64::from_bits(1));
        assert_eq!(ulp_up(f64::MAX), f64::INFINITY);
        assert_eq!(ulp_up(f64::INFINITY), f64::INFINITY);
        assert_eq!(ulp_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(ulp_up(f64::NAN).is_nan());
        // A polar block's bounds sit strictly outside the rounded ones.
        let c = Complex64::from_polar(2.0, 0.5);
        let (lo, hi) = SpaceKind::Polar.ball_block(c, 0.6);
        let da = (0.6f64 / c.abs()).asin();
        assert!(lo[0] < c.abs() - 0.6 && hi[0] > c.abs() + 0.6);
        assert!(lo[1] < c.angle() - da && hi[1] > c.angle() + da);
    }

    #[test]
    fn rect_ball_block() {
        let (lo, hi) = SpaceKind::Rectangular.ball_block(Complex64::new(1.0, -2.0), 0.5);
        // `± eps`, then one ulp outward.
        assert_eq!(lo, [ulp_down(0.5), ulp_down(-2.5)]);
        assert_eq!(hi, [ulp_up(1.5), ulp_up(-1.5)]);
        assert!(lo[0] < 0.5 && lo[1] < -2.5 && hi[0] > 1.5 && hi[1] > -1.5);
    }

    #[test]
    fn polar_ball_block_figure7() {
        // m = 2, eps = 1: magnitude [1, 3], angle alpha ± asin(1/2).
        let c = Complex64::from_polar(2.0, 0.3);
        let (lo, hi) = SpaceKind::Polar.ball_block(c, 1.0);
        assert!((lo[0] - 1.0).abs() < 1e-12);
        assert!((hi[0] - 3.0).abs() < 1e-12);
        let da = (0.5f64).asin();
        assert!((lo[1] - (0.3 - da)).abs() < 1e-12);
        assert!((hi[1] - (0.3 + da)).abs() < 1e-12);
    }

    #[test]
    fn polar_ball_block_large_eps() {
        // eps >= m: full annulus of radius m + eps around the origin.
        let c = Complex64::from_polar(0.5, 1.0);
        let (lo, hi) = SpaceKind::Polar.ball_block(c, 1.0);
        assert_eq!(lo[0], 0.0);
        assert!((hi[0] - 1.5).abs() < 1e-12);
        assert_eq!(lo[1], -PI);
        assert_eq!(hi[1], PI);
    }

    #[test]
    fn polar_ball_block_contains_disk_boundary() {
        // Every point within eps of c must fall inside the block.
        let c = Complex64::from_polar(3.0, 2.0);
        let eps = 0.8;
        let (lo, hi) = SpaceKind::Polar.ball_block(c, eps);
        for i in 0..64 {
            let th = i as f64 / 64.0 * 2.0 * PI;
            let p = c + Complex64::from_polar(eps * 0.999, th);
            let m = p.abs();
            let a = p.angle();
            assert!(m >= lo[0] - 1e-9 && m <= hi[0] + 1e-9, "magnitude {m}");
            assert!(a >= lo[1] - 1e-9 && a <= hi[1] + 1e-9, "angle {a}");
        }
    }

    #[test]
    fn polar_ball_block_wraparound_widens() {
        // Query angle near pi: the asin interval crosses the cut.
        let c = Complex64::from_polar(2.0, PI - 0.01);
        let (lo, hi) = SpaceKind::Polar.ball_block(c, 0.5);
        assert_eq!(lo[1], -PI);
        assert_eq!(hi[1], PI);
    }

    #[test]
    fn safety_check_matches_theorems() {
        let mavg = LinearTransform::moving_average(8, 3);
        assert!(SpaceKind::Polar.check_safety(&mavg, NF2).is_ok());
        assert!(SpaceKind::Rectangular.check_safety(&mavg, NF2).is_err());
        let shift = LinearTransform::shift_raw(8, 1.0);
        let raw2 = FeatureSchema::Raw { k: 2 };
        assert!(SpaceKind::Rectangular.check_safety(&shift, raw2).is_ok());
        assert!(SpaceKind::Polar.check_safety(&shift, raw2).is_err());
        // The NF schema does not index coefficient 0, so shift_raw is
        // polar-safe there (b_0 is outside the indexed range).
        assert!(SpaceKind::Polar.check_safety(&shift, NF2).is_ok());
    }

    /// `T(rect)` as the kernel hands it over, collected (Algorithm 1's
    /// transformed rectangle).
    fn transform_mbr(space: SpaceKind, rect: &Rect, t: &LinearTransform) -> Rect {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        let _ = space.transformed_dims(rect, t, NF2, |_, l, h| {
            lo.push(l);
            hi.push(h);
            ControlFlow::Continue(())
        });
        Rect::new(lo, hi)
    }

    /// Length of the series behind the kernel's edge cases.
    const N: usize = 16;

    /// The kernel's edge cases: an all-zero multiplier above DC (exactly,
    /// and as `mavg(n)` computes it), an angle shift of π that wraps a
    /// stored interval straddling 0 past ±π (`reverse`), a negative mean
    /// scale, a translated mean, a warp and a composition.
    fn edge_cases() -> Vec<LinearTransform> {
        let mut zero = vec![tsq_dft::complex::ZERO; N];
        zero[0] = tsq_dft::complex::ONE;
        vec![
            LinearTransform::identity(N),
            LinearTransform::moving_average(N, N),
            LinearTransform::from_parts(zero, vec![tsq_dft::complex::ZERO; N], "zero").unwrap(),
            LinearTransform::reverse(N),
            LinearTransform::scale(N, -2.0),
            LinearTransform::shift(N, 3.5),
            LinearTransform::time_warp(N, 2),
            LinearTransform::moving_average(N, 3)
                .then(&LinearTransform::reverse(N))
                .unwrap(),
        ]
    }

    /// Seeded members, a query and query boxes for one edge case: the
    /// `(space, transformation)` pairs the theorems allow, each with an
    /// MBR of three random walks, their features, and a fourth walk's.
    fn edge_case_fixtures(seed: u64) -> Vec<(SpaceKind, LinearTransform, Rect, Vec<Features>)> {
        let mut gen = tsq_series::generate::RandomWalkGenerator::new(seed);
        let walks: Vec<Features> = (0..4).map(|_| feats(gen.series(N).values(), NF2)).collect();
        let mut out = Vec::new();
        for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
            for t in edge_cases() {
                if space.check_safety(&t, NF2).is_err() {
                    continue;
                }
                let mut mbr = Rect::from_point(&space.point(&walks[0], NF2));
                for w in &walks[1..3] {
                    mbr.union_assign(&Rect::from_point(&space.point(w, NF2)));
                }
                out.push((space, t, mbr, walks.clone()));
            }
        }
        out
    }

    #[test]
    fn transform_mbr_identity_is_noop() {
        let f = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
            let p = space.point(&f, NF2);
            let r = Rect::from_point(&p);
            let t = LinearTransform::identity(8);
            let tr = transform_mbr(space, &r, &t);
            for i in 0..6 {
                // Within the conservative anti-rounding padding.
                assert!((tr.lo()[i] - p[i]).abs() < 1e-6);
                assert!(tr.contains_point(&p));
            }
        }
    }

    #[test]
    fn transform_mbr_contains_transformed_points() {
        // Definition 1: every member point of a stored MBR, transformed,
        // lies inside the transformed MBR — on every edge case, in both
        // spaces.
        for seed in 0..40 {
            for (space, t, mbr, walks) in edge_case_fixtures(seed) {
                let tmbr = transform_mbr(space, &mbr, &t);
                for f in &walks[..3] {
                    let tp = space.point(&f.image(&t), NF2);
                    assert!(
                        tmbr.contains_point(&tp),
                        "seed {seed}, {space:?}, {}: transformed point {tp:?} escaped {tmbr}",
                        t.name()
                    );
                }
            }
        }
        // A polar angle interval straddling 0, shifted by π, wraps past ±π:
        // the full circle, padded.
        let f = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        let p = SpaceKind::Polar.point(&f, NF2);
        let (mut lo, mut hi) = (p.clone(), p.clone());
        (lo[3], hi[3]) = (-0.1, 0.1);
        let tmbr = transform_mbr(
            SpaceKind::Polar,
            &Rect::new(lo, hi),
            &LinearTransform::reverse(8),
        );
        assert_eq!((tmbr.lo()[3], tmbr.hi()[3]), padded(-PI, PI));
        assert!(tmbr
            .contains_point(&SpaceKind::Polar.point(&f.image(&LinearTransform::reverse(8)), NF2)));
        // A zero multiplier collapses magnitudes to 0 and the angle to the
        // full circle.
        let zero = &edge_cases()[2];
        let tmbr = transform_mbr(SpaceKind::Polar, &Rect::from_point(&p), zero);
        assert_eq!((tmbr.lo()[2], tmbr.hi()[2]), padded(0.0, 0.0));
        assert_eq!((tmbr.lo()[3], tmbr.hi()[3]), padded(-PI, PI));
    }

    #[test]
    fn transformed_intersects_agrees_with_the_collected_rect() {
        // Query boxes around the transformed MBR (inside, straddling and
        // outside each dimension), and Figure-7 search rectangles around
        // the fourth walk's transformed point.
        let (mut meets, mut misses) = (0, 0);
        for seed in 0..40u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut unit = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for (space, t, mbr, walks) in edge_case_fixtures(seed) {
                let tmbr = transform_mbr(space, &mbr, &t);
                let mut boxes = Vec::new();
                for _ in 0..8 {
                    let (mut lo, mut hi) = (Vec::new(), Vec::new());
                    for d in 0..tmbr.dims() {
                        let (l, h) = (tmbr.lo()[d], tmbr.hi()[d]);
                        let c = l + (3.0 * unit() - 1.0) * (h - l + 1.0);
                        let r = 0.5 * unit() * (h - l + 1.0);
                        lo.push(c - r);
                        hi.push(c + r);
                    }
                    boxes.push(Rect::new(lo, hi));
                }
                let q = walks[3].image(&t);
                for eps in [0.1, 1.0, 4.0] {
                    boxes.push(space.search_rect(&q, NF2, eps, &QueryWindow::default()));
                }
                for b in &boxes {
                    let want = tmbr.intersects(b);
                    assert_eq!(
                        space.transformed_intersects(&mbr, &t, NF2, b),
                        want,
                        "seed {seed}, {space:?}, {}: query box {b} against {tmbr}",
                        t.name()
                    );
                    (meets, misses) = (meets + usize::from(want), misses + usize::from(!want));
                }
            }
        }
        assert!(meets > 100 && misses > 100, "{meets} meet, {misses} miss");
    }

    #[test]
    fn lower_bound_is_admissible() {
        // The reported bound never exceeds the distance between any
        // transformed member of the stored MBR and the query, measured on
        // indexed coefficients.
        for seed in 0..40 {
            for (space, t, mbr, walks) in edge_case_fixtures(seed) {
                let query = &walks[3];
                let bound = space.transformed_lower_bound(&mbr, &t, NF2, query);
                for stored in &walks[..3] {
                    let true_d2: f64 = NF2
                        .coeff_indices()
                        .map(|f| {
                            (t.apply_coeff(f, stored.spectrum[f]) - query.spectrum[f]).norm_sqr()
                        })
                        .sum();
                    let true_d = true_d2.sqrt();
                    assert!(
                        bound <= true_d,
                        "seed {seed}, {space:?}, {}: bound {bound} > true {true_d}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn search_rect_dims_and_window() {
        let q = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        let w = QueryWindow {
            mean: Some((2.0, 4.0)),
            std: None,
        };
        let r = SpaceKind::Polar.search_rect(&q, NF2, 0.5, &w);
        assert_eq!(r.dims(), 6);
        assert_eq!(r.lo()[0], 2.0);
        assert_eq!(r.hi()[0], 4.0);
        assert_eq!(r.lo()[1], -UNBOUNDED);
        assert_eq!(r.hi()[1], UNBOUNDED);
    }

    #[test]
    fn negative_scale_swaps_mean_bounds() {
        let f = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        let space = SpaceKind::Polar;
        let p = space.point(&f, NF2);
        let mut rect = Rect::from_point(&p);
        let mut hi_p = p.clone();
        hi_p[0] += 1.0; // widen the mean dimension
        rect.union_assign(&Rect::from_point(&hi_p));
        let t = LinearTransform::scale(8, -2.0);
        let tr = transform_mbr(space, &rect, &t);
        assert!(tr.lo()[0] <= tr.hi()[0]);
        assert!((tr.lo()[0] - (-2.0 * (p[0] + 1.0))).abs() < 1e-6);
    }
}
