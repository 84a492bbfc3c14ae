//! Coordinate spaces over the feature vector: `S_rect` and `S_pol`
//! (Section 3.1), search-rectangle construction (Figure 7), and the action
//! of a safe transformation on minimum bounding rectangles (Algorithm 1).
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

    /// Applies a safe transformation to a stored MBR (Algorithm 1: the
    /// node-wise construction of the transformed index `I' = T(I)`).
    ///
    /// The caller must have verified safety via
    /// [`SpaceKind::check_safety`]; debug assertions re-check.
    pub fn transform_mbr(&self, rect: &Rect, t: &LinearTransform, schema: FeatureSchema) -> Rect {
        let dims = schema.dims();
        debug_assert_eq!(rect.dims(), dims);
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        let mut d = 0;
        if schema.aux_dims() == 2 {
            let (ma, mb) = t.mean_map();
            push_affine(&mut lo, &mut hi, rect.lo()[0], rect.hi()[0], ma, mb);
            let (sa, sb) = t.std_map();
            push_affine(&mut lo, &mut hi, rect.lo()[1], rect.hi()[1], sa, sb);
            d = 2;
        }
        for f in schema.coeff_indices() {
            let (alo, ahi) = (rect.lo()[d], rect.hi()[d]);
            let (blo, bhi) = (rect.lo()[d + 1], rect.hi()[d + 1]);
            match self {
                SpaceKind::Rectangular => {
                    let a = t.a()[f];
                    debug_assert!(a.is_real(1e-6), "unsafe multiplier in S_rect");
                    let b = t.b()[f];
                    push_affine(&mut lo, &mut hi, alo, ahi, a.re, b.re);
                    push_affine(&mut lo, &mut hi, blo, bhi, a.re, b.im);
                }
                SpaceKind::Polar => {
                    debug_assert!(t.b()[f].abs() <= 1e-6, "unsafe translation in S_pol");
                    let (scale, delta) = t.a_polar()[f];
                    lo.push(alo * scale);
                    hi.push(ahi * scale);
                    if scale == 0.0 {
                        // Everything collapses to the origin: angle is
                        // meaningless, keep the full range.
                        lo.push(-PI);
                        hi.push(PI);
                    } else {
                        let span = bhi - blo;
                        if span >= 2.0 * PI - 1e-12 {
                            lo.push(-PI);
                            hi.push(PI);
                        } else {
                            let nl = normalize_angle(blo + delta);
                            let nh = normalize_angle(bhi + delta);
                            if nl <= nh && (nh - nl) - span <= 1e-9 {
                                lo.push(nl);
                                hi.push(nh);
                            } else {
                                // The shifted interval crosses ±π: widen to
                                // the full circle (conservative; preserves
                                // the no-false-dismissal guarantee).
                                lo.push(-PI);
                                hi.push(PI);
                            }
                        }
                    }
                }
            }
            d += 2;
        }
        // Conservative padding: the point-wise transformation (complex
        // multiply, atan2) and the rectangle-wise transformation (affine on
        // bounds, angle shift) round differently in the last ulps. Widening
        // every dimension by a relative 1e-9 keeps the transformed MBR a
        // strict superset of every transformed member point, preserving the
        // Lemma-1 guarantee without affecting pruning power measurably.
        for i in 0..lo.len() {
            let pad = 1e-9 * (1.0 + lo[i].abs().max(hi[i].abs()));
            lo[i] -= pad;
            hi[i] += pad;
        }
        Rect::new(lo, hi)
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
        let trect = self.transform_mbr(rect, t, schema);
        let mut acc = 0.0;
        let mut d = schema.aux_dims();
        for &q in query.indexed_coeffs(schema) {
            let (alo, ahi) = (trect.lo()[d], trect.hi()[d]);
            let (blo, bhi) = (trect.lo()[d + 1], trect.hi()[d + 1]);
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
            d += 2;
        }
        match acc > 0.0 {
            true => ulp_down(acc.sqrt()),
            false => 0.0,
        }
    }
}

impl SpaceKind {
    /// Allocation-free variant of "transform the MBR, test overlap": the
    /// transformed bounds of each dimension are computed in turn and tested
    /// against the query rectangle immediately, so a disjoint dimension
    /// aborts the remaining work. Semantically identical to
    /// `transform_mbr(rect, t, schema).intersects(query)` (including the
    /// conservative anti-rounding padding); this is the hot path of
    /// Algorithm 2.
    pub fn transformed_intersects(
        &self,
        rect: &Rect,
        t: &LinearTransform,
        schema: FeatureSchema,
        query: &Rect,
    ) -> bool {
        #[inline]
        fn overlap(lo: f64, hi: f64, qlo: f64, qhi: f64) -> bool {
            let pad = 1e-9 * (1.0 + lo.abs().max(hi.abs()));
            lo - pad <= qhi && qlo <= hi + pad
        }
        #[inline]
        fn affine_overlap(l: f64, h: f64, a: f64, b: f64, qlo: f64, qhi: f64) -> bool {
            let x = a * l + b;
            let y = a * h + b;
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            overlap(lo, hi, qlo, qhi)
        }
        let mut d = 0;
        if schema.aux_dims() == 2 {
            let (ma, mb) = t.mean_map();
            if !affine_overlap(
                rect.lo()[0],
                rect.hi()[0],
                ma,
                mb,
                query.lo()[0],
                query.hi()[0],
            ) {
                return false;
            }
            let (sa, sb) = t.std_map();
            if !affine_overlap(
                rect.lo()[1],
                rect.hi()[1],
                sa,
                sb,
                query.lo()[1],
                query.hi()[1],
            ) {
                return false;
            }
            d = 2;
        }
        for f in schema.coeff_indices() {
            let (alo, ahi) = (rect.lo()[d], rect.hi()[d]);
            let (blo, bhi) = (rect.lo()[d + 1], rect.hi()[d + 1]);
            match self {
                SpaceKind::Rectangular => {
                    let a = t.a()[f];
                    let b = t.b()[f];
                    if !affine_overlap(alo, ahi, a.re, b.re, query.lo()[d], query.hi()[d]) {
                        return false;
                    }
                    if !affine_overlap(blo, bhi, a.re, b.im, query.lo()[d + 1], query.hi()[d + 1]) {
                        return false;
                    }
                }
                SpaceKind::Polar => {
                    let (scale, delta) = t.a_polar()[f];
                    if !overlap(alo * scale, ahi * scale, query.lo()[d], query.hi()[d]) {
                        return false;
                    }
                    if scale != 0.0 {
                        let span = bhi - blo;
                        if span < 2.0 * PI - 1e-12 {
                            let nl = normalize_angle(blo + delta);
                            let nh = normalize_angle(bhi + delta);
                            // A wrapped interval (nl > nh) widens to the full
                            // circle, which overlaps every query interval.
                            if nl <= nh
                                && (nh - nl) - span <= 1e-9
                                && !overlap(nl, nh, query.lo()[d + 1], query.hi()[d + 1])
                            {
                                return false;
                            }
                        }
                    }
                }
            }
            d += 2;
        }
        true
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
fn push_affine(lo: &mut Vec<f64>, hi: &mut Vec<f64>, l: f64, h: f64, a: f64, b: f64) {
    let x = a * l + b;
    let y = a * h + b;
    if x <= y {
        lo.push(x);
        hi.push(y);
    } else {
        lo.push(y);
        hi.push(x);
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

    #[test]
    fn transform_mbr_identity_is_noop() {
        let f = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
            let p = space.point(&f, NF2);
            let r = Rect::from_point(&p);
            let t = LinearTransform::identity(8);
            let tr = space.transform_mbr(&r, &t, NF2);
            for i in 0..6 {
                // Within the conservative anti-rounding padding.
                assert!((tr.lo()[i] - p[i]).abs() < 1e-6);
                assert!(tr.contains_point(&p));
            }
        }
    }

    #[test]
    fn transform_mbr_contains_transformed_points() {
        // Safety in action: take an MBR of two feature points, transform
        // MBR and points, check containment (Definition 1).
        let f1 = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        let f2 = feats(&[7.0, 2.0, 8.0, 1.0, 0.0, 4.0, 3.0, 5.0], NF2);
        let t = LinearTransform::moving_average(8, 3);
        let space = SpaceKind::Polar;
        let p1 = space.point(&f1, NF2);
        let p2 = space.point(&f2, NF2);
        let mut mbr = Rect::from_point(&p1);
        mbr.union_assign(&Rect::from_point(&p2));
        let tmbr = space.transform_mbr(&mbr, &t, NF2);
        for f in [&f1, &f2] {
            let tp = space.point(&f.image(&t), NF2);
            assert!(
                tmbr.contains_point(&tp),
                "transformed point {tp:?} escaped transformed MBR {tmbr}"
            );
        }
    }

    #[test]
    fn lower_bound_is_admissible() {
        // The reported bound never exceeds the true distance between the
        // transformed stored point and the query, measured on indexed
        // coefficients.
        let stored = feats(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], NF2);
        let query = feats(&[2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0], NF2);
        for t in [
            LinearTransform::identity(8),
            LinearTransform::moving_average(8, 3),
            LinearTransform::reverse(8),
        ] {
            for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
                if space.check_safety(&t, NF2).is_err() {
                    continue;
                }
                let p = space.point(&stored, NF2);
                let rect = Rect::from_point(&p);
                let bound = space.transformed_lower_bound(&rect, &t, NF2, &query);
                // True distance over indexed coefficients.
                let mut true_d2 = 0.0;
                for f in NF2.coeff_indices() {
                    let tx = t.apply_coeff(f, stored.spectrum[f]);
                    true_d2 += (tx - query.spectrum[f]).norm_sqr();
                }
                let true_d = true_d2.sqrt();
                assert!(
                    bound <= true_d + 1e-9,
                    "space {space:?}, t {}: bound {bound} > true {true_d}",
                    t.name()
                );
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
        let tr = space.transform_mbr(&rect, &t, NF2);
        assert!(tr.lo()[0] <= tr.hi()[0]);
        assert!((tr.lo()[0] - (-2.0 * (p[0] + 1.0))).abs() < 1e-6);
    }
}
