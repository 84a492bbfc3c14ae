//! Axis-aligned rectangles of dynamic dimensionality.
//!
//! The index stores feature points in a `2k+2`-dimensional space whose
//! dimensionality is chosen at runtime (it depends on the number of Fourier
//! coefficients kept), so rectangles carry their bounds in boxed slices
//! rather than const-generic arrays.

use std::fmt;

/// An axis-aligned (hyper-)rectangle: per-dimension closed intervals
/// `[lo_i, hi_i]`.
///
/// Degenerate rectangles (points, `lo == hi`) are fully supported — leaf
/// entries of the similarity index are points.
///
/// Both bound arrays live in **one** contiguous allocation (`lo` in the
/// first half, `hi` in the second): rectangles are constructed in bulk on
/// every hot path — trail extraction, on-the-fly transformed traversals,
/// snapshot restores — and one allocation per rectangle instead of two
/// measurably cuts both build and restore latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    bounds: Box<[f64]>,
}

impl Rect {
    /// Creates a rectangle from per-dimension bounds.
    ///
    /// # Panics
    /// Panics if lengths differ, if any `lo_i > hi_i`, or if any bound is
    /// not finite.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound arrays must have equal length");
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            assert!(
                l.is_finite() && h.is_finite(),
                "non-finite bound in dim {i}"
            );
            assert!(l <= h, "inverted bounds in dim {i}: {l} > {h}");
        }
        let mut bounds = lo;
        bounds.extend_from_slice(&hi);
        Self {
            bounds: bounds.into_boxed_slice(),
        }
    }

    /// Crate-internal constructor from an already-validated contiguous
    /// bounds buffer (`lo` in the first half, `hi` in the second) — the
    /// snapshot decoder's hot path, which validates while parsing and
    /// must not pay for a second validation pass or extra copies.
    pub(crate) fn from_validated_bounds(bounds: Vec<f64>) -> Self {
        debug_assert!(bounds.len() % 2 == 0);
        debug_assert!({
            let d = bounds.len() / 2;
            (0..d).all(|i| bounds[i].is_finite() && bounds[i] <= bounds[d + i])
        });
        Self {
            bounds: bounds.into_boxed_slice(),
        }
    }

    /// Creates a degenerate rectangle containing a single point.
    pub fn from_point(p: &[f64]) -> Self {
        let mut bounds = Vec::with_capacity(2 * p.len());
        bounds.extend_from_slice(p);
        bounds.extend_from_slice(p);
        Self {
            bounds: bounds.into_boxed_slice(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds.len() / 2
    }

    /// Lower bounds.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.bounds[..self.bounds.len() / 2]
    }

    /// Upper bounds.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.bounds[self.bounds.len() / 2..]
    }

    /// The center point.
    pub fn center(&self) -> Vec<f64> {
        self.lo()
            .iter()
            .zip(self.hi())
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }

    /// Volume (product of extents). Zero for degenerate rectangles.
    pub fn area(&self) -> f64 {
        self.lo()
            .iter()
            .zip(self.hi())
            .map(|(&l, &h)| h - l)
            .product()
    }

    /// Margin (sum of extents) — the R\*-tree split heuristic minimizes the
    /// sum of margins over candidate distributions.
    pub fn margin(&self) -> f64 {
        self.lo().iter().zip(self.hi()).map(|(&l, &h)| h - l).sum()
    }

    /// True when `self` and `other` intersect (closed intervals: touching
    /// counts).
    ///
    /// # Panics
    /// Debug-asserts equal dimensionality.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo().iter().zip(other.hi()).all(|(&l, &h)| l <= h)
            && other.lo().iter().zip(self.hi()).all(|(&l, &h)| l <= h)
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo().iter().zip(other.lo()).all(|(&a, &b)| a <= b)
            && self.hi().iter().zip(other.hi()).all(|(&a, &b)| a >= b)
    }

    /// True when the point lies inside `self` (boundary included).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dims(), p.len());
        self.lo().iter().zip(p).all(|(&l, &v)| l <= v)
            && self.hi().iter().zip(p).all(|(&h, &v)| v <= h)
    }

    /// Volume of the intersection; zero when disjoint.
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let (slo, shi) = (self.lo(), self.hi());
        let (olo, ohi) = (other.lo(), other.hi());
        let mut area = 1.0;
        for i in 0..self.dims() {
            let l = slo[i].max(olo[i]);
            let h = shi[i].min(ohi[i]);
            if l >= h {
                return 0.0;
            }
            area *= h - l;
        }
        area
    }

    /// Smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dims(), other.dims());
        let mut out = self.clone();
        out.union_assign(other);
        out
    }

    /// Grows `self` in place to cover `other`.
    pub fn union_assign(&mut self, other: &Rect) {
        debug_assert_eq!(self.dims(), other.dims());
        let d = self.dims();
        for i in 0..d {
            if other.bounds[i] < self.bounds[i] {
                self.bounds[i] = other.bounds[i];
            }
            if other.bounds[d + i] > self.bounds[d + i] {
                self.bounds[d + i] = other.bounds[d + i];
            }
        }
    }

    /// Area increase required for `self` to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared minimum Euclidean distance from a point to this rectangle
    /// (`MINDIST` of Roussopoulos et al. 1995). Zero when the point is
    /// inside.
    pub fn min_dist2(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(self.dims(), p.len());
        let (lo, hi) = (self.lo(), self.hi());
        let mut acc = 0.0;
        for (i, &v) in p.iter().enumerate() {
            let d = if v < lo[i] {
                lo[i] - v
            } else if v > hi[i] {
                v - hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Returns a copy grown by `pad >= 0` in every direction.
    pub fn expanded(&self, pad: f64) -> Rect {
        assert!(pad >= 0.0, "padding must be non-negative");
        let d = self.dims();
        let mut bounds = self.bounds.clone();
        for i in 0..d {
            bounds[i] -= pad;
            bounds[d + i] += pad;
        }
        Rect { bounds }
    }

    /// Applies a per-dimension affine map `x -> a_i * x + b_i`, swapping
    /// bounds where `a_i < 0` so the result is a valid rectangle. This is
    /// precisely how a *safe* transformation (Definition 1 / Theorem 1 of the
    /// paper) acts on an MBR; Algorithm 1's on-the-fly index transformation
    /// applies the same map bound by bound, without building the rectangle.
    ///
    /// # Panics
    /// Panics if `a`/`b` lengths differ from the dimensionality.
    pub fn affine(&self, a: &[f64], b: &[f64]) -> Rect {
        let d = self.dims();
        assert_eq!(a.len(), d, "affine scale length mismatch");
        assert_eq!(b.len(), d, "affine shift length mismatch");
        let mut bounds = vec![0.0; 2 * d];
        for i in 0..d {
            let x = a[i] * self.bounds[i] + b[i];
            let y = a[i] * self.bounds[d + i] + b[i];
            let (l, h) = if x <= y { (x, y) } else { (y, x) };
            bounds[i] = l;
            bounds[d + i] = h;
        }
        Rect {
            bounds: bounds.into_boxed_slice(),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let (lo, hi) = (self.lo(), self.hi());
        for i in 0..self.dims() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}..{}", lo[i], hi[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lo: [f64; 2], hi: [f64; 2]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn basics() {
        let r = r2([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(r.dims(), 2);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
        assert_eq!(r.center(), vec![1.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bounds_panic() {
        let _ = r2([1.0, 0.0], [0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_bounds_panic() {
        let _ = Rect::new(vec![f64::NAN], vec![1.0]);
    }

    #[test]
    fn intersection_logic() {
        let a = r2([0.0, 0.0], [2.0, 2.0]);
        let b = r2([1.0, 1.0], [3.0, 3.0]);
        let c = r2([2.0, 2.0], [4.0, 4.0]); // touches a at a corner
        let d = r2([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(a.intersects(&c), "touching rectangles intersect");
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection_area(&b), 1.0);
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([2.0, 2.0], [3.0, 3.0]);
        let u = a.union(&b);
        assert_eq!(u, r2([0.0, 0.0], [3.0, 3.0]));
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
        let mut c = a.clone();
        c.union_assign(&b);
        assert_eq!(c, u);
    }

    #[test]
    fn containment() {
        let a = r2([0.0, 0.0], [4.0, 4.0]);
        let b = r2([1.0, 1.0], [2.0, 2.0]);
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
        assert!(a.contains_point(&[0.0, 4.0]));
        assert!(!a.contains_point(&[-0.1, 2.0]));
    }

    #[test]
    fn mindist_cases() {
        let r = r2([1.0, 1.0], [3.0, 3.0]);
        assert_eq!(r.min_dist2(&[2.0, 2.0]), 0.0); // inside
        assert_eq!(r.min_dist2(&[0.0, 2.0]), 1.0); // left of
        assert_eq!(r.min_dist2(&[0.0, 0.0]), 2.0); // corner
        assert_eq!(r.min_dist2(&[4.0, 5.0]), 1.0 + 4.0);
    }

    #[test]
    fn affine_with_negative_scale_swaps_bounds() {
        // The paper drops GK95's positive-scale restriction; reversing a
        // series multiplies by -1, which must still yield a rectangle.
        let r = r2([1.0, 2.0], [3.0, 5.0]);
        let t = r.affine(&[-1.0, 2.0], &[0.0, 1.0]);
        assert_eq!(t, r2([-3.0, 5.0], [-1.0, 11.0]));
    }

    #[test]
    fn affine_identity() {
        let r = r2([1.0, 2.0], [3.0, 5.0]);
        assert_eq!(r.affine(&[1.0, 1.0], &[0.0, 0.0]), r);
    }

    #[test]
    fn affine_safety_preserves_membership() {
        // Definition 1: interior stays interior, exterior stays exterior.
        let r = r2([-5.0, -5.0], [5.0, 5.0]);
        let inside = [-2.0, 2.0];
        let outside = [7.0, 0.0];
        let a = [2.0, -3.0];
        let b = [1.0, 4.0];
        let t = r.affine(&a, &b);
        let map = |p: &[f64; 2]| [a[0] * p[0] + b[0], a[1] * p[1] + b[1]];
        assert!(t.contains_point(&map(&inside)));
        assert!(!t.contains_point(&map(&outside)));
    }

    #[test]
    fn expanded_pads_all_dims() {
        let r = r2([0.0, 1.0], [1.0, 2.0]);
        assert_eq!(r.expanded(0.5), r2([-0.5, 0.5], [1.5, 2.5]));
    }

    #[test]
    fn display_renders() {
        let r = r2([0.0, 1.0], [1.0, 2.0]);
        assert_eq!(r.to_string(), "[0..1, 1..2]");
    }
}
