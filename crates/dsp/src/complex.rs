//! Complex arithmetic in `f64`.
//!
//! The workspace is not allowed to pull in `num-complex`, so this module
//! provides the small, fully-tested subset of complex arithmetic the rest of
//! the system needs. The representation is a plain `{ re, im }` pair and all
//! operations are `#[inline]` value semantics, so the optimizer treats it
//! like a pair of scalars.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// Additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// Multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `j` (electrical-engineering spelling of `i`).
    pub const J: Complex64 = c64(0.0, 1.0);

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a complex number from polar form: `r * e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// `e^{jθ}` — a unit phasor at angle `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Multiplicative inverse `1/z`. Returns NaN components when `z == 0`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }

    /// Returns `true` if either component is NaN or infinite.
    #[inline]
    pub fn is_bad(self) -> bool {
        !(self.re.is_finite() && self.im.is_finite())
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
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

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    // Division by multiplication with the precomputed inverse is the
    // intended formula here, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        c64(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        c64(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + *b)
    }
}

/// Inner product `⟨a, b⟩ = Σ aᵢ* · bᵢ` (conjugate-linear in the first slot,
/// matching the paper's Eq. 14 convention).
pub fn inner(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

/// Squared Euclidean norm `Σ |xᵢ|²`.
pub fn norm_sqr(x: &[Complex64]) -> f64 {
    x.iter().map(|v| v.norm_sqr()).sum()
}

/// Euclidean norm `‖x‖`.
pub fn norm(x: &[Complex64]) -> f64 {
    norm_sqr(x).sqrt()
}

/// Scales a vector in place so that `‖x‖ = 1`. No-op on the zero vector.
pub fn normalize_in_place(x: &mut [Complex64]) {
    let n = norm(x);
    if n > 0.0 {
        let inv = 1.0 / n;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_accessors() {
        let z = c64(3.0, -4.0);
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
        assert!(close(z.conj().im, 4.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), 0.7));
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!(close(Complex64::cis(theta).abs(), 1.0));
        }
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = c64(1.0, 2.0);
        let b = c64(-0.5, 3.0);
        let c = c64(4.0, -1.0);
        // distributivity
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        assert!(close(lhs.re, rhs.re) && close(lhs.im, rhs.im));
        // multiplicative inverse
        let p = a * a.inv();
        assert!(close(p.re, 1.0) && close(p.im, 0.0));
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = c64(5.0, -2.0);
        let b = c64(1.0, 1.0);
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let z = (Complex64::J * std::f64::consts::PI).exp();
        assert!(close(z.re, -1.0));
        assert!(z.im.abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        let z = c64(-3.0, 4.0);
        let r = z.sqrt();
        let sq = r * r;
        assert!(close(sq.re, z.re) && close(sq.im, z.im));
    }

    #[test]
    fn inner_product_conjugate_linear() {
        let a = [c64(0.0, 1.0), c64(1.0, 0.0)];
        let b = [c64(0.0, 1.0), c64(1.0, 0.0)];
        let ip = inner(&a, &b);
        assert!(close(ip.re, 2.0) && close(ip.im, 0.0));
    }

    #[test]
    fn norm_and_normalize() {
        let mut v = vec![c64(3.0, 0.0), c64(0.0, 4.0)];
        assert!(close(norm(&v), 5.0));
        normalize_in_place(&mut v);
        assert!(close(norm(&v), 1.0));
        // zero vector stays zero
        let mut z = vec![Complex64::ZERO; 4];
        normalize_in_place(&mut z);
        assert!(norm(&z) == 0.0);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1+2j");
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2j");
    }

    #[test]
    fn sum_iterator() {
        let v = [c64(1.0, 1.0); 10];
        let s: Complex64 = v.iter().sum();
        assert!(close(s.re, 10.0) && close(s.im, 10.0));
    }

    #[test]
    fn is_bad_detects_nan_and_inf() {
        assert!(c64(f64::NAN, 0.0).is_bad());
        assert!(c64(0.0, f64::INFINITY).is_bad());
        assert!(!c64(1.0, -1.0).is_bad());
    }
}
