//! Double-precision complex numbers.
//!
//! A small, dependency-free complex type sufficient for Fourier analysis:
//! arithmetic, conjugation, polar decomposition and exponentials. Fourier
//! coefficients in the paper are complex numbers manipulated either in
//! rectangular (`re`, `im`) or polar (`abs`, `angle`) form, so both views are
//! first-class here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// The naming of the accessors (`re`, `im`, `abs`, `angle`) mirrors the
/// notation `Re(x)`, `Im(x)`, `Abs(x)`, `Angle(x)` used in Section 3.1 of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

/// Complex zero.
pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };

/// Complex one.
pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

impl Complex64 {
    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar components: `abs * e^{j*angle}`.
    #[inline]
    pub(crate) fn from_polar(abs: f64, angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self::new(abs * c, abs * s)
    }

    /// `e^{j*angle}`: the unit complex number at the given phase angle.
    #[inline]
    pub fn cis(angle: f64) -> Self {
        Self::from_polar(1.0, angle)
    }

    /// Magnitude (`Abs(x)` in the paper).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude; cheaper than [`Complex64::abs`] when comparing.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in `(-pi, pi]` (`Angle(x)` in the paper).
    #[inline]
    pub fn angle(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Multiplicative inverse. Returns infinities if `self` is zero, matching
    /// IEEE division semantics.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// True when the imaginary part is within `tol` of zero, i.e. the value
    /// is (numerically) a real number. Safety of transformations in the
    /// rectangular space requires real multipliers (Theorem 2).
    #[inline]
    pub fn is_real(self, tol: f64) -> bool {
        self.im.abs() <= tol
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w^{-1}
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |acc, x| acc + x)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn arithmetic_basics() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert_eq!(a + b, Complex64::new(4.0, -2.0));
        assert_eq!(a - b, Complex64::new(-2.0, 6.0));
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
        assert!(close(a / b * b, a));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::new(-3.0, 4.0);
        let back = Complex64::from_polar(z.abs(), z.angle());
        assert!(close(z, back));
        assert!((z.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let z = Complex64::cis(k as f64 * 0.5);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn conjugate_and_inverse() {
        let z = Complex64::new(2.0, -3.0);
        assert_eq!(z.conj(), Complex64::new(2.0, 3.0));
        assert!(close(z * z.inv(), ONE));
        assert!((z.norm_sqr() - 13.0).abs() < EPS);
    }

    #[test]
    fn angle_range() {
        assert!((Complex64::new(-1.0, 0.0).angle() - std::f64::consts::PI).abs() < EPS);
        assert!((Complex64::new(0.0, -1.0).angle() + std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn is_real_tolerance() {
        assert!(Complex64::new(5.0, 1e-13).is_real(1e-12));
        assert!(!Complex64::new(5.0, 1e-3).is_real(1e-12));
    }

    #[test]
    fn paper_counterexample_values() {
        // The multiplier from the Theorem 2 counterexample: s = 2 - 3j.
        let p = Complex64::new(-5.0, -5.0);
        let q = Complex64::new(5.0, 5.0);
        let r = Complex64::new(-2.0, 2.0);
        let s = Complex64::new(2.0, -3.0);
        assert_eq!(p * s, Complex64::new(-25.0, 5.0));
        assert_eq!(q * s, Complex64::new(25.0, -5.0));
        assert_eq!(r * s, Complex64::new(2.0, 10.0));
    }

    #[test]
    fn sum_folds() {
        let zs = [Complex64::new(1.0, 1.0), Complex64::new(2.0, -1.0)];
        let s: Complex64 = zs.iter().copied().sum();
        assert_eq!(s, Complex64::new(3.0, 0.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
    }
}
