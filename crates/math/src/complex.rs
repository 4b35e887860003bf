//! Double-precision complex numbers.
//!
//! The workspace deliberately avoids external linear-algebra crates, so this
//! module provides the small, fully-owned complex scalar type used by every
//! matrix type in [`crate`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use nsb_math::Complex64;
///
/// let i = Complex64::I;
/// assert!((i * i + Complex64::ONE).abs() < 1e-15);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Complex64 { re: 0.0, im }
    }

    /// Returns `exp(i * theta)`, a point on the unit circle.
    ///
    /// # Examples
    ///
    /// ```
    /// use nsb_math::Complex64;
    /// let z = Complex64::cis(std::f64::consts::FRAC_PI_2).scale(2.0);
    /// assert!((z - Complex64::new(0.0, 2.0)).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude; cheaper than [`Complex64::abs`] when only ordering
    /// or sums of squares are needed.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `self` is exactly zero.
    #[inline]
    pub fn inv(self) -> Self {
        let n = self.norm_sqr();
        debug_assert!(n > 0.0, "inverse of zero complex number");
        Complex64::new(self.re / n, -self.im / n)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Returns true when `self` and `other` differ by at most `tol` in
    /// magnitude.
    #[inline]
    pub fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        (self - other).abs() <= tol
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
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
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w^-1
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(1.5, -2.5);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert!((z * z.inv() - Complex64::ONE).abs() < 1e-15);
        assert_eq!(-(-z), z);
    }

    #[test]
    fn conjugation_and_modulus() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!((z * z.conj()).re, 25.0);
        assert!((z * z.conj()).im.abs() < 1e-15);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::new(-0.3, 0.8);
        let w = Complex64::cis(z.arg()).scale(z.abs());
        assert!(z.approx_eq(w, 1e-14));
    }

    #[test]
    fn exp_of_imaginary_is_rotation() {
        let theta = 0.731;
        let z = Complex64::cis(theta);
        assert!((z.abs() - 1.0).abs() < 1e-15);
        assert!((z.arg() - theta).abs() < 1e-15);
    }

    #[test]
    fn division() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 0.25);
        let q = a / b;
        assert!((q * b).approx_eq(a, 1e-12));
    }

    #[test]
    fn sum_iterator() {
        let total: Complex64 = (0..10).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(45.0, 10.0));
    }
}
