//! Minimal double-precision complex number type.
//!
//! The stitching computation works exclusively on `f64` complex values
//! (the paper's transforms are "2-D Fourier transforms on double complex
//! numbers", §III Table I), so a single concrete type keeps the hot loops
//! monomorphic and lets the compiler vectorize them.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor for [`C64`].
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = c64(0.0, 0.0);
    /// One (multiplicative identity).
    pub const ONE: C64 = c64(1.0, 0.0);
    /// The imaginary unit.
    pub const I: C64 = c64(0.0, 1.0);

    /// Builds a complex number from polar coordinates.
    #[inline]
    fn from_polar(r: f64, theta: f64) -> C64 {
        let (s, c) = theta.sin_cos();
        c64(r * c, r * s)
    }

    /// `e^{i theta}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> C64 {
        C64::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> C64 {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns NaN components for zero input.
    #[inline]
    pub fn inv(self) -> C64 {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Multiplies by `i` (90° rotation) without a full complex multiply.
    #[inline(always)]
    pub fn mul_i(self) -> C64 {
        c64(-self.im, self.re)
    }

    /// Multiplies by `-i` (-90° rotation).
    #[inline(always)]
    pub fn mul_neg_i(self) -> C64 {
        c64(self.im, -self.re)
    }

    /// Scales both components by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> C64 {
        c64(self.re * s, self.im * s)
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, o: C64) -> C64 {
        c64(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, o: C64) -> C64 {
        c64(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, o: C64) -> C64 {
        c64(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w computed as z·w⁻¹
    fn div(self, o: C64) -> C64 {
        self * o.inv()
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, s: f64) -> C64 {
        self.scale(s)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn div(self, s: f64) -> C64 {
        self.scale(1.0 / s)
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline(always)]
    fn neg(self) -> C64 {
        c64(-self.re, -self.im)
    }
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, o: C64) {
        *self = *self + o;
    }
}

impl SubAssign for C64 {
    #[inline(always)]
    fn sub_assign(&mut self, o: C64) {
        *self = *self - o;
    }
}

impl MulAssign for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, o: C64) {
        *self = *self * o;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, o: C64) {
        *self = *self / o;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> C64 {
        c64(re, 0.0)
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = c64(3.0, -4.0);
        assert!(close(z + C64::ZERO, z));
        assert!(close(z * C64::ONE, z));
        assert!(close(z - z, C64::ZERO));
        assert!(close(z * z.inv(), C64::ONE));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = c64(3.0, -4.0);
        assert_eq!(z.conj(), c64(3.0, 4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        // z * conj(z) is real and equals |z|^2
        let p = z * z.conj();
        assert!(close(p, c64(25.0, 0.0)));
    }

    #[test]
    fn mul_i_matches_full_multiply() {
        let z = c64(1.5, -2.5);
        assert!(close(z.mul_i(), z * C64::I));
        assert!(close(z.mul_neg_i(), z * c64(0.0, -1.0)));
    }

    #[test]
    fn polar_round_trip() {
        let z = C64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_unit_circle() {
        for k in 0..8 {
            let t = k as f64 * std::f64::consts::FRAC_PI_4;
            assert!((C64::cis(t).abs() - 1.0).abs() < 1e-12);
        }
        assert!(close(C64::cis(0.0), C64::ONE));
        assert!(close(C64::cis(std::f64::consts::FRAC_PI_2), C64::I));
    }

    #[test]
    fn division() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![c64(1.0, 1.0); 10];
        let s: C64 = v.into_iter().sum();
        assert!(close(s, c64(10.0, 10.0)));
    }
}
