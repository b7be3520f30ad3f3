//! Double-precision complex numbers, one or several side by side.
//!
//! The stitching computation works exclusively on `f64` complex values
//! (the paper's transforms are "2-D Fourier transforms on double complex
//! numbers", §III Table I). [`C64`] is that value; it is the one-lane
//! instance of [`Cx`], whose parts are [`Lane`]s — `f64`, or `[f64; 4]`
//! for four independent transforms advancing in lock step. The parts
//! are kept apart (all real parts, then all imaginary parts), so every
//! complex operation is a handful of vertical lane operations and no
//! shuffle, and every lane sees exactly the arithmetic a lone `f64`
//! would: the FFT engine is written once over `Cx<L>`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::thread::LocalKey;

use crate::scratch::{ScratchPool, POOL_1, POOL_4};

/// A fixed number of `f64` values operated on element by element.
/// Every operation is the plain IEEE-754 one in each lane — no fused
/// multiply-add, no re-association — so lane `l` of a result depends on
/// lane `l` of the operands only, bit for bit.
pub trait Lane: Copy + Default + 'static {
    /// Number of `f64` values side by side.
    const N: usize;
    /// `x` in every lane.
    fn splat(x: f64) -> Self;
    /// Lane `l` is `f(l)`.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// The value in lane `l`.
    fn get(self, l: usize) -> f64;
    /// Lane-wise sum.
    fn add(self, o: Self) -> Self;
    /// Lane-wise difference.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise product.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise negation.
    fn neg(self) -> Self;
    /// This thread's scratch buffers of this lane type.
    fn scratch_pool() -> &'static LocalKey<ScratchPool<Self>>;
}

impl Lane for f64 {
    const N: usize = 1;
    #[inline(always)]
    fn splat(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> f64 {
        f(0)
    }
    #[inline(always)]
    fn get(self, _: usize) -> f64 {
        self
    }
    #[inline(always)]
    fn add(self, o: f64) -> f64 {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: f64) -> f64 {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: f64) -> f64 {
        self * o
    }
    #[inline(always)]
    fn neg(self) -> f64 {
        -self
    }
    fn scratch_pool() -> &'static LocalKey<ScratchPool<f64>> {
        &POOL_1
    }
}

impl Lane for [f64; 4] {
    const N: usize = 4;
    #[inline(always)]
    fn splat(x: f64) -> [f64; 4] {
        [x; 4]
    }
    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> [f64; 4] {
        std::array::from_fn(f)
    }
    #[inline(always)]
    fn get(self, l: usize) -> f64 {
        self[l]
    }
    #[inline(always)]
    fn add(self, o: [f64; 4]) -> [f64; 4] {
        std::array::from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    fn sub(self, o: [f64; 4]) -> [f64; 4] {
        std::array::from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    fn mul(self, o: [f64; 4]) -> [f64; 4] {
        std::array::from_fn(|l| self[l] * o[l])
    }
    #[inline(always)]
    fn neg(self) -> [f64; 4] {
        std::array::from_fn(|l| -self[l])
    }
    fn scratch_pool() -> &'static LocalKey<ScratchPool<[f64; 4]>> {
        &POOL_4
    }
}

/// [`Lane::N`] complex numbers: real parts in `re`, imaginary in `im`.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cx<L> {
    /// Real part.
    pub re: L,
    /// Imaginary part.
    pub im: L,
}

/// A complex number with `f64` components.
pub type C64 = Cx<f64>;

impl<L: Lane> Cx<L> {
    /// Lane `l` is `f(l)`.
    #[inline(always)]
    pub fn from_fn(f: impl Fn(usize) -> C64) -> Cx<L> {
        Cx {
            re: L::from_fn(|l| f(l).re),
            im: L::from_fn(|l| f(l).im),
        }
    }

    /// The complex number in lane `l`.
    #[inline(always)]
    pub fn lane(self, l: usize) -> C64 {
        c64(self.re.get(l), self.im.get(l))
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Cx<L> {
        Cx {
            re: self.re,
            im: self.im.neg(),
        }
    }

    /// Multiplies by `i` (90° rotation) without a full complex multiply.
    #[inline(always)]
    pub fn mul_i(self) -> Cx<L> {
        Cx {
            re: self.im.neg(),
            im: self.re,
        }
    }

    /// Multiplies by `-i` (-90° rotation).
    #[inline(always)]
    pub fn mul_neg_i(self) -> Cx<L> {
        Cx {
            re: self.im,
            im: self.re.neg(),
        }
    }

    /// Scales both components by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Cx<L> {
        let s = L::splat(s);
        Cx {
            re: self.re.mul(s),
            im: self.im.mul(s),
        }
    }
}

impl<L: Lane> Add for Cx<L> {
    type Output = Cx<L>;
    #[inline(always)]
    fn add(self, o: Cx<L>) -> Cx<L> {
        Cx {
            re: self.re.add(o.re),
            im: self.im.add(o.im),
        }
    }
}

impl<L: Lane> Sub for Cx<L> {
    type Output = Cx<L>;
    #[inline(always)]
    fn sub(self, o: Cx<L>) -> Cx<L> {
        Cx {
            re: self.re.sub(o.re),
            im: self.im.sub(o.im),
        }
    }
}

/// Every lane times the one complex number `w` (a twiddle factor):
/// four vertical multiplies, one subtraction, one addition.
impl<L: Lane> Mul<C64> for Cx<L> {
    type Output = Cx<L>;
    #[inline(always)]
    fn mul(self, w: C64) -> Cx<L> {
        let (wr, wi) = (L::splat(w.re), L::splat(w.im));
        Cx {
            re: self.re.mul(wr).sub(self.im.mul(wi)),
            im: self.re.mul(wi).add(self.im.mul(wr)),
        }
    }
}

impl<L: Lane> Neg for Cx<L> {
    type Output = Cx<L>;
    #[inline(always)]
    fn neg(self) -> Cx<L> {
        Cx {
            re: self.re.neg(),
            im: self.im.neg(),
        }
    }
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

    /// `len` zeros as one zeroed allocation. `vec![C64::ZERO; len]` writes
    /// every element; a zeroed block from the allocator does not, and a
    /// large one comes straight from the kernel's zero pages — a spectrum
    /// buffer costs nothing until its first write.
    pub fn zeroed_vec(len: usize) -> Vec<C64> {
        if len == 0 {
            return Vec::new();
        }
        let layout = std::alloc::Layout::array::<C64>(len).expect("buffer size overflows");
        // SAFETY: `layout` has non-zero size. `Cx` is `#[repr(C)]` over two
        // `f64`s and all-zero bits are `0.0 + 0.0i`, so the zeroed block
        // holds `len` initialised `C64::ZERO`s. It comes from the global
        // allocator with the size and alignment `Vec<C64>` frees it with,
        // and a null return never reaches `from_raw_parts`.
        unsafe {
            let ptr = std::alloc::alloc_zeroed(layout).cast::<C64>();
            if ptr.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            Vec::from_raw_parts(ptr, len, len)
        }
    }

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

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
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
