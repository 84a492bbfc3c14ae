//! Geometry of the polar coordinate space `S_pol`.
//!
//! A rectangle `[m_lo, m_hi] x [a_lo, a_hi]` in polar *coordinates* denotes
//! an **annular sector** in the complex plane. Two primitives are needed:
//!
//! - the minimum Euclidean (complex-plane) distance from a point to such a
//!   sector — the per-coefficient lower bound driving nearest-neighbor
//!   search in `S_pol` (the analogue of MINDIST in `S_rect`);
//! - angle-interval handling with wrap-around at ±π.

use std::f64::consts::PI;
use tsq_dft::Complex64;

/// Normalizes an angle to `(-pi, pi]`.
pub fn normalize_angle(a: f64) -> f64 {
    let mut x = a.rem_euclid(2.0 * PI); // [0, 2pi)
    if x > PI {
        x -= 2.0 * PI;
    }
    x
}

/// An annular sector: magnitudes in `[m_lo, m_hi]`, angles in the arc from
/// `a_lo` to `a_hi`. `full_angle` marks the degenerate "whole annulus" case
/// (produced e.g. by the Figure-7 construction when `eps >= m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnularSector {
    /// Minimum magnitude (>= 0).
    pub m_lo: f64,
    /// Maximum magnitude.
    pub m_hi: f64,
    /// Arc start angle, normalized.
    pub a_lo: f64,
    /// Arc end angle, normalized; the arc runs counter-clockwise from
    /// `a_lo` to `a_hi` (possibly crossing ±pi).
    pub a_hi: f64,
    /// When set, the sector covers all angles and `a_lo`/`a_hi` are ignored.
    pub full_angle: bool,
}

impl AnnularSector {
    /// A full annulus.
    pub fn annulus(m_lo: f64, m_hi: f64) -> Self {
        assert!(m_lo >= 0.0 && m_hi >= m_lo, "invalid magnitudes");
        AnnularSector {
            m_lo,
            m_hi,
            a_lo: -PI,
            a_hi: PI,
            full_angle: true,
        }
    }

    /// A sector from `a_lo` to `a_hi` (angles normalized internally). If
    /// the span reaches `2*pi` the sector becomes a full annulus.
    pub fn new(m_lo: f64, m_hi: f64, a_lo: f64, a_hi: f64) -> Self {
        assert!(m_lo >= 0.0 && m_hi >= m_lo, "invalid magnitudes");
        assert!(a_hi >= a_lo, "angle interval must be ordered");
        if a_hi - a_lo >= 2.0 * PI {
            return Self::annulus(m_lo, m_hi);
        }
        AnnularSector {
            m_lo,
            m_hi,
            a_lo: normalize_angle(a_lo),
            a_hi: normalize_angle(a_hi),
            full_angle: false,
        }
    }

    /// True if the (normalized) angle lies on the arc.
    pub fn contains_angle(&self, angle: f64) -> bool {
        if self.full_angle {
            return true;
        }
        let a = normalize_angle(angle);
        if self.a_lo <= self.a_hi {
            self.a_lo <= a && a <= self.a_hi
        } else {
            // Arc crosses the ±pi cut.
            a >= self.a_lo || a <= self.a_hi
        }
    }

    /// True if the complex point lies inside the sector.
    pub fn contains(&self, p: Complex64) -> bool {
        let m = p.abs();
        m >= self.m_lo - 1e-12
            && m <= self.m_hi + 1e-12
            && (m == 0.0 || self.contains_angle(p.angle()))
    }

    /// Exact minimum Euclidean distance from `p` to the sector (0 when `p`
    /// lies inside).
    pub fn min_dist(&self, p: Complex64) -> f64 {
        let m = p.abs();
        if self.full_angle {
            // Pure radial clamping.
            return if m < self.m_lo {
                self.m_lo - m
            } else if m > self.m_hi {
                m - self.m_hi
            } else {
                0.0
            };
        }
        if self.contains_angle(p.angle()) || m == 0.0 {
            // Radially aligned with the arc (the origin sees every angle).
            return if m < self.m_lo {
                self.m_lo - m
            } else if m > self.m_hi {
                m - self.m_hi
            } else if m == 0.0 && self.m_lo > 0.0 {
                self.m_lo
            } else {
                0.0
            };
        }
        // Closest point lies on one of the two straight radial edges.
        let d1 = dist_to_radial_segment(p, self.a_lo, self.m_lo, self.m_hi);
        let d2 = dist_to_radial_segment(p, self.a_hi, self.m_lo, self.m_hi);
        d1.min(d2)
    }
}

/// Distance from `p` to the segment {t * e^{j*angle} : t in [m_lo, m_hi]}.
fn dist_to_radial_segment(p: Complex64, angle: f64, m_lo: f64, m_hi: f64) -> f64 {
    let dir = Complex64::cis(angle);
    // Projection of p onto the ray direction.
    let t = p.re * dir.re + p.im * dir.im;
    let t_clamped = t.clamp(m_lo, m_hi);
    let closest = dir.scale(t_clamped);
    (p - closest).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(m: f64, a: f64) -> Complex64 {
        Complex64::from_polar(m, a)
    }

    #[test]
    fn normalize_angle_cases() {
        assert!((normalize_angle(0.0)).abs() < 1e-12);
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!(
            (normalize_angle(-PI) - PI).abs() < 1e-12,
            "(-pi maps to +pi]"
        );
        assert!((normalize_angle(2.0 * PI)).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let s = AnnularSector::new(1.0, 2.0, -0.5, 0.5);
        assert!(s.contains(cp(1.5, 0.0)));
        assert!(s.contains(cp(1.0, 0.5)));
        assert!(!s.contains(cp(0.5, 0.0)), "too small a magnitude");
        assert!(!s.contains(cp(1.5, 1.0)), "outside the arc");
    }

    #[test]
    fn wraparound_arc() {
        // Arc from 170 degrees to -170 degrees, crossing the cut.
        let lo = 17.0 * PI / 18.0;
        let s = AnnularSector {
            m_lo: 1.0,
            m_hi: 2.0,
            a_lo: lo,
            a_hi: -lo,
            full_angle: false,
        };
        assert!(s.contains_angle(PI));
        assert!(s.contains_angle(-PI));
        assert!(!s.contains_angle(0.0));
        assert!(s.contains(cp(1.5, PI)));
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let s = AnnularSector::new(1.0, 2.0, 0.0, 1.0);
        assert_eq!(s.min_dist(cp(1.5, 0.5)), 0.0);
    }

    #[test]
    fn min_dist_radial() {
        let s = AnnularSector::new(2.0, 3.0, -0.2, 0.2);
        assert!((s.min_dist(cp(1.0, 0.0)) - 1.0).abs() < 1e-12);
        assert!((s.min_dist(cp(5.0, 0.1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_dist_angular_edge() {
        // Point at angle pi/2, sector arc [0, 0.3]: nearest point is on the
        // a_hi radial edge.
        let s = AnnularSector::new(1.0, 2.0, 0.0, 0.3);
        let p = cp(1.5, PI / 2.0);
        let d = s.min_dist(p);
        // Distance to the segment along angle 0.3 of radii [1,2].
        let expect = dist_to_radial_segment(p, 0.3, 1.0, 2.0);
        assert!((d - expect).abs() < 1e-12);
        assert!(d > 0.0);
    }

    #[test]
    fn min_dist_origin() {
        let s = AnnularSector::new(1.0, 2.0, 0.0, 0.1);
        assert!((s.min_dist(Complex64::new(0.0, 0.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn annulus_distance_ignores_angle() {
        let s = AnnularSector::annulus(1.0, 2.0);
        for a in [0.0, 1.0, -2.0, PI] {
            assert!((s.min_dist(cp(0.25, a)) - 0.75).abs() < 1e-12);
            assert_eq!(s.min_dist(cp(1.5, a)), 0.0);
        }
    }

    #[test]
    fn min_dist_is_true_minimum_by_sampling() {
        // Brute-force check: sample the sector densely; no sampled point may
        // be closer than the reported minimum (up to sampling slack), and at
        // least one sampled point must be nearly that close.
        let sectors = [
            AnnularSector::new(0.5, 2.0, -1.0, 0.25),
            AnnularSector::new(0.0, 1.0, 2.8, 3.4), // crosses the cut once normalized
            AnnularSector::annulus(1.0, 1.5),
        ];
        let points = [
            cp(3.0, 2.0),
            cp(0.1, -2.0),
            Complex64::new(-1.0, -1.0),
            Complex64::new(0.0, 0.0),
            cp(1.2, 1.5),
        ];
        for s in &sectors {
            for &p in &points {
                let d = s.min_dist(p);
                let mut best = f64::INFINITY;
                let steps = 400;
                for i in 0..=steps {
                    let m = s.m_lo + (s.m_hi - s.m_lo) * i as f64 / steps as f64;
                    // Sample the arc; full circle for annuli.
                    let (alo, span) = if s.full_angle {
                        (-PI, 2.0 * PI)
                    } else {
                        let span = normalize_angle(s.a_hi - s.a_lo).rem_euclid(2.0 * PI);
                        let span = if span == 0.0 && s.a_lo != s.a_hi {
                            2.0 * PI
                        } else {
                            span
                        };
                        (s.a_lo, span)
                    };
                    for j in 0..=steps {
                        let a = alo + span * j as f64 / steps as f64;
                        let q = cp(m, a);
                        best = best.min((p - q).abs());
                    }
                }
                assert!(
                    d <= best + 1e-9,
                    "reported min {d} exceeds sampled min {best} for {s:?} / {p}"
                );
                assert!(
                    best <= d + 0.02,
                    "sampled min {best} much smaller than reported {d} for {s:?} / {p}"
                );
            }
        }
    }
}
