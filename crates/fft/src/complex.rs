//! A minimal complex number type (the sanctioned dependency set has no
//! numerics crate, so we carry our own).

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number: `re` then `im`, two `f64`s with no
/// padding (`#[repr(C)]`), so a complex buffer is a buffer of reals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    #[cfg(test)]
    pub(crate) const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    #[cfg(test)]
    const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real value.
    #[inline]
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, o: Complex) -> Complex {
        let d = o.norm_sqr();
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        *self = *self + o;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, o: Complex) {
        *self = *self - o;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, o: Complex) {
        *self = *self * o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z - z, Complex::ZERO));
        assert!(close(z / z, Complex::ONE));
        assert!(close(-z + z, Complex::ZERO));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex::I * Complex::I, -Complex::ONE));
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!(close(z * z.conj(), Complex::from_real(25.0)));
    }

    #[test]
    fn cis_on_unit_circle() {
        let z = Complex::cis(std::f64::consts::PI / 2.0);
        assert!(close(z, Complex::I));
        assert!((Complex::cis(1.234).abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex::new(1.0, 1.0);
        z += Complex::new(1.0, 0.0);
        z -= Complex::new(0.0, 1.0);
        z *= Complex::new(2.0, 0.0);
        assert!(close(z, Complex::new(4.0, 0.0)));
        assert!(close(z.scale(0.5), Complex::new(2.0, 0.0)));
    }
}
