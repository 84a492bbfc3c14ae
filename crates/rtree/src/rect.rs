//! Axis-aligned rectangles of dynamic dimensionality, owned ([`Rect`]) and
//! borrowed ([`RectView`]).
//!
//! The index stores feature points in a `2k+2`-dimensional space whose
//! dimensionality is chosen at runtime (it depends on the number of Fourier
//! coefficients kept), so a rectangle is a run of `2·dims` bounds rather
//! than a const-generic array: `lo` in the first half, `hi` in the second.
//! A [`Rect`] owns its run as `f64`s in one allocation, for query
//! rectangles and for what is built one rectangle at a time.
//!
//! ## Stored bounds are `f32`, rounded outward
//!
//! A tree node keeps its entries' runs back to back in one coordinate slab
//! of `f32`s and hands traversals a [`RectView`] into it. A stored
//! rectangle only has to *contain* what it covers (Lemma 1 asks no more of
//! the filter), so each `f64` bound is rounded outward when it is stored:
//! `lo` toward −∞, `hi` toward +∞. A bound whose cast is exact is stored as
//! it is (0, ±0 and every `f32`-exact value stay exact); one past
//! `f32::MAX` becomes `f32::MAX` on its inner side and ±∞ on its outer
//! one. The union of stored bounds is exact in `f32`, and rounding outward
//! is monotone, so a parent's stored rectangle is both the union of its
//! children's and the outward rounding of their `f64` union.
//!
//! A bulk load rounds every leaf bound outward before it orders them
//! ([`round_outward`]) and folds every entry into its node's MBR, so both
//! kernels are branch-free: whether a cast landed past its bound, or an
//! entry's bound lies beyond its node's, is a coin flip per bound, and a
//! branch on it mispredicts about half the time. The
//! rounding steps the cast's bits by arithmetic on the compare's result;
//! the fold selects, keeping its strict `<`/`>` tests, so `±0` and ties
//! keep their bits.
//!
//! Every geometric test lives on the view and runs in `f64`: a stored bound
//! widens to `f64` exactly when it is read ([`Coord::widen`], [`Side`]), so
//! the same code reads a node's `f32` slab and a [`Rect`]'s `f64` run
//! ([`Rect::view`]).

use std::fmt;
use std::iter::Map;
use std::slice;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A type a rectangle's bounds are held in: `f64` in a [`Rect`], `f32` in
/// a tree node's slab. Sealed; read through [`Coord::widen`].
pub trait Coord: Copy + PartialOrd + fmt::Debug + sealed::Sealed {
    /// The bound as an `f64` (exact for both types).
    fn widen(self) -> f64;
}

impl Coord for f64 {
    #[inline]
    fn widen(self) -> f64 {
        self
    }
}

impl Coord for f32 {
    #[inline]
    fn widen(self) -> f64 {
        f64::from(self)
    }
}

/// The largest `f32` at or below `v` (`−∞` below `−f32::MAX`).
#[inline]
fn round_down(v: f64) -> f32 {
    let f = v as f32;
    step_past(f, f64::from(f) > v, true)
}

/// The smallest `f32` at or above `v` (`+∞` above `f32::MAX`).
#[inline]
fn round_up(v: f64) -> f32 {
    let f = v as f32;
    step_past(f, f64::from(f) < v, false)
}

/// `f`, a cast, moved one `f32` toward `−∞` (`down`) or `+∞` when it is
/// `past` the value it was cast from, by arithmetic on its bits rather
/// than a branch (the module docs say why).
///
/// An `f32`'s neighbour is its bit pattern's: `+1` on the bits steps away
/// from zero, `−1` toward it. A cast keeps its value's sign, so a cast
/// that lands on zero past its value is the zero of the step's direction
/// (`+0` past a tiny positive, `−0` past a tiny negative), and `+1` takes
/// it to the least subnormal of that sign; `±∞` steps to `±f32::MAX`.
#[inline]
fn step_past(f: f32, past: bool, down: bool) -> f32 {
    let bits = f.to_bits();
    let past = u32::from(past);
    // 1 when the step moves toward zero: a positive value down, a
    // negative one up.
    let inward = (bits >> 31) ^ u32::from(down);
    f32::from_bits(bits.wrapping_add(past).wrapping_sub((past & inward) << 1))
}

/// The stored form of a rectangle's bounds (`lo` then `hi`): each `lo`
/// rounded down, each `hi` rounded up.
pub(crate) fn stored<C: Coord>(bounds: &[C]) -> Vec<f32> {
    let d = bounds.len() / 2;
    let (lo, hi) = bounds.split_at(d);
    let lo = lo.iter().map(|b| round_down(b.widen()));
    lo.chain(hi.iter().map(|b| round_up(b.widen()))).collect()
}

/// Rounds a rectangle's `f64` bounds (`lo` then `hi`) outward in place:
/// each becomes the `f32` [`stored`] would store for it, widened back, so
/// its cast to `f32` is exact.
#[inline]
pub(crate) fn round_outward(bounds: &mut [f64]) {
    let d = bounds.len() / 2;
    for i in 0..d {
        bounds[i] = f64::from(round_down(bounds[i]));
        bounds[d + i] = f64::from(round_up(bounds[d + i]));
    }
}

/// An axis-aligned (hyper-)rectangle that owns its bounds: per-dimension
/// closed intervals `[lo_i, hi_i]`.
///
/// Degenerate rectangles (points, `lo == hi`) are fully supported — leaf
/// entries of the similarity index are points.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    bounds: Box<[f64]>,
}

/// A borrowed rectangle: `2·dims` bounds stored elsewhere, `lo` then `hi`
/// — `f32`s in a tree node's coordinate slab (the default), or a
/// [`Rect`]'s `f64`s. What every traversal hands its callbacks; `Copy`, so
/// it is passed by value. Every bound it reads widens to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectView<'a, C = f32> {
    bounds: &'a [C],
}

/// One side of a [`RectView`]: its `lo` bounds or its `hi` bounds, each
/// widened to `f64` when read.
#[derive(Debug, Clone, Copy)]
pub struct Side<'a, C = f32> {
    bounds: &'a [C],
}

/// A [`Side`]'s bounds in order, as `f64`s.
pub(crate) type SideIter<'a, C> = Map<slice::Iter<'a, C>, fn(&C) -> f64>;

impl<'a, C: Coord> Side<'a, C> {
    /// Bound `i`, widened.
    #[inline]
    pub fn at(self, i: usize) -> f64 {
        self.bounds[i].widen()
    }

    /// The bounds in order, widened.
    #[inline]
    pub fn iter(self) -> SideIter<'a, C> {
        self.bounds.iter().map(|b| b.widen())
    }
}

impl<'a, C: Coord> IntoIterator for Side<'a, C> {
    type Item = f64;
    type IntoIter = SideIter<'a, C>;

    #[inline]
    fn into_iter(self) -> SideIter<'a, C> {
        self.iter()
    }
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

    /// Creates a degenerate rectangle containing a single point.
    pub fn from_point(p: &[f64]) -> Self {
        let mut bounds = Vec::with_capacity(2 * p.len());
        bounds.extend_from_slice(p);
        bounds.extend_from_slice(p);
        Self {
            bounds: bounds.into_boxed_slice(),
        }
    }

    /// A rectangle over already-validated bounds (`lo` then `hi`).
    pub(crate) fn from_bounds(bounds: Vec<f64>) -> Self {
        debug_assert!(bounds.len() % 2 == 0);
        Self {
            bounds: bounds.into_boxed_slice(),
        }
    }

    /// This rectangle as a borrowed view.
    #[inline]
    pub fn view(&self) -> RectView<'_, f64> {
        RectView {
            bounds: &self.bounds,
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
        &self.bounds[..self.dims()]
    }

    /// Upper bounds.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.bounds[self.dims()..]
    }

    /// [`RectView::min_dist2`].
    #[cfg(test)]
    pub(crate) fn min_dist2(&self, p: &[f64]) -> f64 {
        self.view().min_dist2(p)
    }

    /// Grows `self` in place to cover `other`.
    pub fn union_assign<C: Coord>(&mut self, other: RectView<'_, C>) {
        debug_assert_eq!(self.bounds.len(), other.bounds.len());
        let d = self.dims();
        for (i, (acc, b)) in self.bounds.iter_mut().zip(other.bounds).enumerate() {
            let b = b.widen();
            if (i < d && b < *acc) || (i >= d && b > *acc) {
                *acc = b;
            }
        }
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
}

impl<'a, C: Coord> RectView<'a, C> {
    /// A view of `2·dims` bounds, `lo` then `hi` (not validated: a view
    /// reads bounds, it does not vouch for them).
    ///
    /// # Panics
    /// Panics on an odd number of bounds.
    #[inline]
    pub fn new(bounds: &'a [C]) -> Self {
        assert!(bounds.len() % 2 == 0, "a rectangle's bounds come in pairs");
        RectView { bounds }
    }

    /// The bounds as stored: `lo` then `hi`.
    #[inline]
    pub(crate) fn bounds(self) -> &'a [C] {
        self.bounds
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(self) -> usize {
        self.bounds.len() / 2
    }

    /// Lower bounds, widened when read.
    #[inline]
    pub fn lo(self) -> Side<'a, C> {
        Side {
            bounds: &self.bounds[..self.dims()],
        }
    }

    /// Upper bounds, widened when read.
    #[inline]
    pub fn hi(self) -> Side<'a, C> {
        Side {
            bounds: &self.bounds[self.dims()..],
        }
    }

    /// Dimension `i`'s bounds `(lo, hi)`, widened.
    #[inline]
    pub(crate) fn interval(self, i: usize) -> (f64, f64) {
        (self.bounds[i].widen(), self.bounds[self.dims() + i].widen())
    }

    /// An owned copy, widened to `f64`.
    pub fn to_rect(self) -> Rect {
        Rect::from_bounds(self.bounds.iter().map(|b| b.widen()).collect())
    }

    /// True when `self` and `other` intersect (closed intervals: touching
    /// counts).
    ///
    /// # Panics
    /// Debug-asserts equal dimensionality.
    #[inline]
    pub fn intersects<D: Coord>(self, other: RectView<'_, D>) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo().iter().zip(other.hi()).all(|(l, h)| l <= h)
            && other.lo().iter().zip(self.hi()).all(|(l, h)| l <= h)
    }

    /// True when `other` lies entirely inside `self`.
    pub(crate) fn contains_rect<D: Coord>(self, other: RectView<'_, D>) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo().iter().zip(other.lo()).all(|(a, b)| a <= b)
            && self.hi().iter().zip(other.hi()).all(|(a, b)| a >= b)
    }

    /// True when the point lies inside `self` (boundary included).
    pub fn contains_point(self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dims(), p.len());
        self.lo().iter().zip(p).all(|(l, &v)| l <= v)
            && self.hi().iter().zip(p).all(|(h, &v)| v <= h)
    }

    /// Squared minimum Euclidean distance from a point to this rectangle
    /// (`MINDIST` of Roussopoulos et al. 1995). Zero when the point is
    /// inside.
    pub fn min_dist2(self, p: &[f64]) -> f64 {
        debug_assert_eq!(self.dims(), p.len());
        let mut acc = 0.0;
        for (i, &v) in p.iter().enumerate() {
            let (lo, hi) = self.interval(i);
            let d = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Applies a per-dimension affine map `x -> a_i * x + b_i`, swapping
    /// bounds where `a_i < 0` so the result is a valid rectangle. This is
    /// precisely how a *safe* transformation (Definition 1 / Theorem 1 of the
    /// paper) acts on an MBR; Algorithm 1's on-the-fly index transformation
    /// applies the same map bound by bound, without building the rectangle.
    ///
    /// # Panics
    /// Panics if `a`/`b` lengths differ from the dimensionality.
    #[cfg(test)]
    pub(crate) fn affine(self, a: &[f64], b: &[f64]) -> Rect {
        let d = self.dims();
        assert_eq!(a.len(), d, "affine scale length mismatch");
        assert_eq!(b.len(), d, "affine shift length mismatch");
        let mut bounds = vec![0.0; 2 * d];
        for i in 0..d {
            let (lo, hi) = self.interval(i);
            let x = a[i] * lo + b[i];
            let y = a[i] * hi + b[i];
            let (l, h) = if x <= y { (x, y) } else { (y, x) };
            bounds[i] = l;
            bounds[d + i] = h;
        }
        Rect {
            bounds: bounds.into_boxed_slice(),
        }
    }
}

/// Grows the run `acc` to cover the run `other` (both `lo` then `hi`). A
/// bound moves only when the other's is strictly beyond it, so of two
/// equal bounds (`-0.0` and `+0.0` included) the one already held stays.
/// Every bound is written through a select, not a branch (the module docs
/// say why).
#[inline]
pub(crate) fn union_into<C: Coord>(acc: &mut [C], other: &[C]) {
    debug_assert_eq!(acc.len(), other.len());
    let d = acc.len() / 2;
    for i in 0..d {
        acc[i] = if other[i] < acc[i] { other[i] } else { acc[i] };
        acc[d + i] = if other[d + i] > acc[d + i] {
            other[d + i]
        } else {
            acc[d + i]
        };
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
        assert_eq!(r.view().bounds(), &[0.0, 0.0, 2.0, 3.0]);
        assert_eq!(r.view().to_rect(), r);
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
        assert!(a.view().intersects(b.view()));
        assert!(
            a.view().intersects(c.view()),
            "touching rectangles intersect"
        );
        assert!(!a.view().intersects(d.view()));
    }

    #[test]
    fn union_and_enlargement() {
        let a = r2([0.0, 0.0], [1.0, 1.0]);
        let b = r2([2.0, 2.0], [3.0, 3.0]);
        let mut c = a.clone();
        c.union_assign(b.view());
        assert_eq!(c, r2([0.0, 0.0], [3.0, 3.0]));
        // Covering what it covers already leaves it as it is.
        c.union_assign(a.view());
        assert_eq!(c, r2([0.0, 0.0], [3.0, 3.0]));
    }

    #[test]
    fn containment() {
        let a = r2([0.0, 0.0], [4.0, 4.0]);
        let b = r2([1.0, 1.0], [2.0, 2.0]);
        assert!(a.view().contains_rect(b.view()));
        assert!(!b.view().contains_rect(a.view()));
        assert!(a.view().contains_point(&[0.0, 4.0]));
        assert!(!a.view().contains_point(&[-0.1, 2.0]));
    }

    #[test]
    fn mindist_cases() {
        let r = r2([1.0, 1.0], [3.0, 3.0]);
        assert_eq!(r.min_dist2(&[2.0, 2.0]), 0.0); // inside
        assert_eq!(r.min_dist2(&[0.0, 2.0]), 1.0); // left of
        assert_eq!(r.min_dist2(&[0.0, 0.0]), 2.0); // corner
        assert_eq!(r.view().min_dist2(&[4.0, 5.0]), 1.0 + 4.0);
    }

    #[test]
    fn affine_with_negative_scale_swaps_bounds() {
        // The paper drops GK95's positive-scale restriction; reversing a
        // series multiplies by -1, which must still yield a rectangle.
        let r = r2([1.0, 2.0], [3.0, 5.0]);
        let t = r.view().affine(&[-1.0, 2.0], &[0.0, 1.0]);
        assert_eq!(t, r2([-3.0, 5.0], [-1.0, 11.0]));
    }

    #[test]
    fn affine_identity() {
        let r = r2([1.0, 2.0], [3.0, 5.0]);
        assert_eq!(r.view().affine(&[1.0, 1.0], &[0.0, 0.0]), r);
    }

    #[test]
    fn affine_safety_preserves_membership() {
        // Definition 1: interior stays interior, exterior stays exterior.
        let r = r2([-5.0, -5.0], [5.0, 5.0]);
        let inside = [-2.0, 2.0];
        let outside = [7.0, 0.0];
        let a = [2.0, -3.0];
        let b = [1.0, 4.0];
        let t = r.view().affine(&a, &b);
        let map = |p: &[f64; 2]| [a[0] * p[0] + b[0], a[1] * p[1] + b[1]];
        assert!(t.view().contains_point(&map(&inside)));
        assert!(!t.view().contains_point(&map(&outside)));
    }

    #[test]
    fn expanded_pads_all_dims() {
        let r = r2([0.0, 1.0], [1.0, 2.0]);
        assert_eq!(r.expanded(0.5), r2([-0.5, 0.5], [1.5, 2.5]));
    }

    /// The neighbouring `f32` toward `+∞` of `v`; `+∞` and NaN themselves.
    fn f32_up(v: f32) -> f32 {
        if v.is_nan() || v == f32::INFINITY {
            v
        } else if v == 0.0 {
            f32::from_bits(1)
        } else if v > 0.0 {
            f32::from_bits(v.to_bits() + 1)
        } else {
            f32::from_bits(v.to_bits() - 1)
        }
    }

    /// The rounding as first written, a branch on the side of `v` the cast
    /// landed: the reference the branch-free one is held to.
    fn branchy_round_down(v: f64) -> f32 {
        let f = v as f32;
        match f64::from(f) > v {
            true => -f32_up(-f),
            false => f,
        }
    }

    /// [`branchy_round_down`]'s upward twin.
    fn branchy_round_up(v: f64) -> f32 {
        let f = v as f32;
        match f64::from(f) < v {
            true => f32_up(f),
            false => f,
        }
    }

    /// The edges of `f32`'s range and precision that the core crate's
    /// `stored_bounds` suite pairs every way.
    const EDGES: [f64; 26] = [
        0.0,
        -0.0,
        1.401_298_464_324_817e-45,
        -1.401_298_464_324_817e-45,
        1e-46,
        -1e-46,
        1e-40,
        -1e-40,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        1.175_494_350_822_287_5e-38,
        0.1,
        -1.0 / 3.0,
        0.5,
        std::f64::consts::PI,
        -std::f64::consts::PI,
        16_777_217.0,
        3.402_823_466_385_288_6e38,
        -3.402_823_466_385_288_6e38,
        3.402_823_5e38,
        1e39,
        -1e39,
        1e300,
        -1e300,
        f64::MAX,
        -f64::MAX,
    ];

    /// `stored` and `round_outward` of the run `[lo.., hi..]` against the
    /// branchy rounding of each bound, compared bit for bit.
    fn check_stored(lo: &[f64], hi: &[f64]) {
        let bounds: Vec<f64> = lo.iter().chain(hi).copied().collect();
        let slab = stored(&bounds);
        let mut rounded = bounds.clone();
        round_outward(&mut rounded);
        let want = lo
            .iter()
            .map(|&v| branchy_round_down(v))
            .chain(hi.iter().map(|&v| branchy_round_up(v)));
        for (((got, widened), want), v) in slab.iter().zip(&rounded).zip(want).zip(&bounds) {
            let what = format!("bound {v:e} ({:#x})", v.to_bits());
            assert_eq!(got.to_bits(), want.to_bits(), "{what}");
            assert_eq!(
                (*widened as f32).to_bits(),
                want.to_bits(),
                "{what} in place"
            );
        }
    }

    #[test]
    fn branch_free_rounding_is_the_branchy_rounding_bit_for_bit() {
        for &a in &EDGES {
            for &b in &EDGES {
                check_stored(&[a], &[b]);
            }
        }
        // Seeded random bit patterns (every exponent, both signs, NaNs
        // included), each with the f32-exact values beside it and their
        // f64 neighbours: the casts that land exactly, just inside and
        // just outside.
        let mut state = 0x0b0a_d5f3_2b17_u64;
        let mut values = Vec::new();
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = f64::from_bits(state);
            let f = v as f32;
            values.clear();
            values.push(v);
            for g in [f, f32_up(f), -f32_up(-f)] {
                let e = f64::from(g).to_bits();
                values.extend([e, e.wrapping_add(1), e.wrapping_sub(1)].map(f64::from_bits));
            }
            check_stored(&values, &values);
        }
    }

    #[test]
    fn display_renders() {
        let r = r2([0.0, 1.0], [1.0, 2.0]);
        assert_eq!(r.to_string(), "[0..1, 1..2]");
    }
}
