//! Complex numbers at either precision, one or several side by side.
//!
//! [`C64`] (`f64` parts) is the reference precision: the tests, the
//! complex [`crate::Fft2d`] and the paper's own "2-D Fourier transforms on
//! double complex numbers" (§III Table I). [`C32`] (`f32` parts) is the
//! precision the product's spectra are stored and transformed in — half
//! the bytes per pass of a memory-bound transform (DESIGN.md §
//! "Precision"). Both are one-lane instances of [`Cx`], whose parts are
//! [`Lane`]s: a [`Float`], or one register's worth of them (`[f64; 4]`,
//! `[f32; 8]`) for several independent transforms advancing in lock step.
//! The parts are kept apart (all real parts, then all imaginary parts), so
//! every complex operation is a handful of vertical lane operations and no
//! shuffle, and every lane sees exactly the arithmetic a lone scalar
//! would: the FFT engine is written once over `Cx<L>`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};
use std::thread::LocalKey;

use crate::scratch::{ScratchPool, POOL_F32, POOL_F32X8, POOL_F64, POOL_F64X4};

/// A fixed number of scalars operated on element by element. Every
/// operation is the plain IEEE-754 one in each lane — no fused
/// multiply-add, no re-association — so lane `l` of a result depends on
/// lane `l` of the operands only, bit for bit.
pub trait Lane: Copy + Default + 'static {
    /// The scalar in each lane.
    type Scalar: Float;
    /// Number of scalars side by side.
    const N: usize;
    /// `x` in every lane.
    fn splat(x: Self::Scalar) -> Self;
    /// Lane `l` is `f(l)`.
    fn from_fn(f: impl FnMut(usize) -> Self::Scalar) -> Self;
    /// The value in lane `l`.
    fn get(self, l: usize) -> Self::Scalar;
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

/// A precision the FFT engine runs at: `f64` (the reference) or `f32`
/// (the product's spectra). Plan-time tables are computed in `f64` and
/// rounded to it once.
pub trait Float:
    Lane<Scalar = Self>
    + PartialEq
    + PartialOrd
    + fmt::Display
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
{
    /// One 256-bit register of these: the lanes of the wide engine.
    type Wide: Lane<Scalar = Self>;
    /// Zero.
    const ZERO: Self;
    /// `x`, rounded to this precision.
    fn from_f64(x: f64) -> Self;
    /// `self`, exactly.
    fn to_f64(self) -> f64;
}

impl Float for f64 {
    type Wide = [f64; 4];
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Float for f32 {
    type Wide = [f32; 8];
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

/// [`Lane`] for a scalar type and for an array of `$n` of it.
macro_rules! lanes {
    ($t:ty, $pool:ident, $n:literal, $wide_pool:ident) => {
        impl Lane for $t {
            type Scalar = $t;
            const N: usize = 1;
            #[inline(always)]
            fn splat(x: $t) -> $t {
                x
            }
            #[inline(always)]
            fn from_fn(mut f: impl FnMut(usize) -> $t) -> $t {
                f(0)
            }
            #[inline(always)]
            fn get(self, _: usize) -> $t {
                self
            }
            #[inline(always)]
            fn add(self, o: $t) -> $t {
                self + o
            }
            #[inline(always)]
            fn sub(self, o: $t) -> $t {
                self - o
            }
            #[inline(always)]
            fn mul(self, o: $t) -> $t {
                self * o
            }
            #[inline(always)]
            fn neg(self) -> $t {
                -self
            }
            fn scratch_pool() -> &'static LocalKey<ScratchPool<$t>> {
                &$pool
            }
        }

        impl Lane for [$t; $n] {
            type Scalar = $t;
            const N: usize = $n;
            #[inline(always)]
            fn splat(x: $t) -> Self {
                [x; $n]
            }
            #[inline(always)]
            fn from_fn(f: impl FnMut(usize) -> $t) -> Self {
                std::array::from_fn(f)
            }
            #[inline(always)]
            fn get(self, l: usize) -> $t {
                self[l]
            }
            #[inline(always)]
            fn add(self, o: Self) -> Self {
                std::array::from_fn(|l| self[l] + o[l])
            }
            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                std::array::from_fn(|l| self[l] - o[l])
            }
            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                std::array::from_fn(|l| self[l] * o[l])
            }
            #[inline(always)]
            fn neg(self) -> Self {
                std::array::from_fn(|l| -self[l])
            }
            fn scratch_pool() -> &'static LocalKey<ScratchPool<Self>> {
                &$wide_pool
            }
        }
    };
}

lanes!(f64, POOL_F64, 4, POOL_F64X4);
lanes!(f32, POOL_F32, 8, POOL_F32X8);

/// [`Lane::N`] complex numbers: real parts in `re`, imaginary in `im`.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cx<L> {
    /// Real part.
    pub re: L,
    /// Imaginary part.
    pub im: L,
}

/// A complex number with `f64` components: the reference precision.
pub type C64 = Cx<f64>;

/// A complex number with `f32` components: the product's spectrum bin.
pub type C32 = Cx<f32>;

impl<L: Lane> Cx<L> {
    /// Lane `l` is `f(l)`.
    #[inline(always)]
    pub fn from_fn(f: impl Fn(usize) -> Cx<L::Scalar>) -> Cx<L> {
        Cx {
            re: L::from_fn(|l| f(l).re),
            im: L::from_fn(|l| f(l).im),
        }
    }

    /// The complex number in lane `l`.
    #[inline(always)]
    pub fn lane(self, l: usize) -> Cx<L::Scalar> {
        Cx {
            re: self.re.get(l),
            im: self.im.get(l),
        }
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
    pub fn scale(self, s: L::Scalar) -> Cx<L> {
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
impl<L: Lane> Mul<Cx<L::Scalar>> for Cx<L> {
    type Output = Cx<L>;
    #[inline(always)]
    fn mul(self, w: Cx<L::Scalar>) -> Cx<L> {
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

impl<T: Float> Cx<T> {
    /// Zero.
    pub const ZERO: Cx<T> = Cx {
        re: T::ZERO,
        im: T::ZERO,
    };

    /// `z` rounded to this precision, part by part.
    #[inline(always)]
    pub fn from_c64(z: C64) -> Cx<T> {
        Cx {
            re: T::from_f64(z.re),
            im: T::from_f64(z.im),
        }
    }

    /// `self` at `f64`, exactly.
    #[inline(always)]
    pub fn to_c64(self) -> C64 {
        c64(self.re.to_f64(), self.im.to_f64())
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.to_f64().is_finite() && self.im.to_f64().is_finite()
    }
}

impl C64 {
    /// One (multiplicative identity).
    pub const ONE: C64 = c64(1.0, 0.0);

    /// `e^{i theta}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> C64 {
        let (s, c) = theta.sin_cos();
        c64(c, s)
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
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, o: C64) {
        *self = *self + o;
    }
}

impl<T: Float> fmt::Debug for Cx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= T::ZERO {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl<T: Float> fmt::Display for Cx<T> {
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
        assert!(close(-z + z, C64::ZERO));
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
        assert!(close(z.mul_i(), z * c64(0.0, 1.0)));
        assert!(close(z.mul_neg_i(), z * c64(0.0, -1.0)));
    }

    #[test]
    fn cis_unit_circle() {
        for k in 0..8 {
            let t = k as f64 * std::f64::consts::FRAC_PI_4;
            assert!((C64::cis(t).abs() - 1.0).abs() < 1e-12);
        }
        assert!(close(C64::cis(0.0), C64::ONE));
        assert!(close(C64::cis(std::f64::consts::FRAC_PI_2), c64(0.0, 1.0)));
    }

    #[test]
    fn single_precision_rounds_once_and_widens_exactly() {
        let z = c64(0.1, -1e300);
        let s = C32::from_c64(z);
        assert_eq!((s.re, s.im), (0.1f32, f32::NEG_INFINITY));
        assert!(!s.is_finite() && C32::from_c64(c64(0.1, 2.0)).is_finite());
        assert_eq!(s.to_c64().re, f64::from(0.1f32));
    }
}
