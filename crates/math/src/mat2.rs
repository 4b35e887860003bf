//! Fixed-size 2x2 complex matrices and standard single-qubit gates.

use crate::complex::Complex64;
use crate::smat::SMat;

/// A dense 2x2 complex matrix.
///
/// Used throughout the workspace for single-qubit (1Q) unitaries and for the
/// small "environment" tensors that appear in gate synthesis.
///
/// # Examples
///
/// ```
/// use nsb_math::Mat2;
/// let h = Mat2::h();
/// assert!((h * h).approx_eq(&Mat2::identity(), 1e-15));
/// ```
pub type Mat2 = SMat<2>;

impl Mat2 {
    /// Pauli X.
    pub fn x() -> Self {
        Mat2::from_rows([
            [Complex64::ZERO, Complex64::ONE],
            [Complex64::ONE, Complex64::ZERO],
        ])
    }

    /// Pauli Y.
    pub fn y() -> Self {
        Mat2::from_rows([
            [Complex64::ZERO, -Complex64::I],
            [Complex64::I, Complex64::ZERO],
        ])
    }

    /// Pauli Z.
    pub fn z() -> Self {
        Mat2::from_rows([
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, -Complex64::ONE],
        ])
    }

    /// Hadamard gate.
    pub fn h() -> Self {
        let s = Complex64::real(std::f64::consts::FRAC_1_SQRT_2);
        Mat2::from_rows([[s, s], [s, -s]])
    }

    /// Phase gate S = diag(1, i).
    pub fn s() -> Self {
        Mat2::from_rows([
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, Complex64::I],
        ])
    }

    /// T gate = diag(1, e^{i pi/4}).
    pub fn t() -> Self {
        Mat2::from_rows([
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, Complex64::cis(std::f64::consts::FRAC_PI_4)],
        ])
    }

    /// Sqrt-X gate.
    pub fn sx() -> Self {
        let p = Complex64::new(0.5, 0.5);
        let m = Complex64::new(0.5, -0.5);
        Mat2::from_rows([[p, m], [m, p]])
    }

    /// Rotation about X: `exp(-i theta X / 2)`.
    pub fn rx(theta: f64) -> Self {
        let c = Complex64::real((theta / 2.0).cos());
        let s = Complex64::imag(-(theta / 2.0).sin());
        Mat2::from_rows([[c, s], [s, c]])
    }

    /// Rotation about Y: `exp(-i theta Y / 2)`.
    pub fn ry(theta: f64) -> Self {
        let c = Complex64::real((theta / 2.0).cos());
        let s = Complex64::real((theta / 2.0).sin());
        Mat2::from_rows([[c, -s], [s, c]])
    }

    /// Rotation about Z: `exp(-i theta Z / 2)`.
    pub fn rz(theta: f64) -> Self {
        Mat2::from_rows([
            [Complex64::cis(-theta / 2.0), Complex64::ZERO],
            [Complex64::ZERO, Complex64::cis(theta / 2.0)],
        ])
    }

    /// Phase gate `diag(1, e^{i lambda})`.
    pub fn phase(lambda: f64) -> Self {
        Mat2::from_rows([
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, Complex64::cis(lambda)],
        ])
    }

    /// The generic single-qubit gate
    /// `U3(theta, phi, lambda)` in the OpenQASM convention.
    pub fn u3(theta: f64, phi: f64, lambda: f64) -> Self {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        Mat2::from_rows([
            [Complex64::real(c), -Complex64::cis(lambda) * s],
            [Complex64::cis(phi) * s, Complex64::cis(phi + lambda) * c],
        ])
    }

    /// Determinant.
    pub fn det(&self) -> Complex64 {
        self.e[0][0] * self.e[1][1] - self.e[0][1] * self.e[1][0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (Mat2::x(), Mat2::y(), Mat2::z());
        assert!((x * x).approx_eq(&Mat2::identity(), 1e-15));
        assert!((y * y).approx_eq(&Mat2::identity(), 1e-15));
        assert!((z * z).approx_eq(&Mat2::identity(), 1e-15));
        // XY = iZ
        assert!((x * y).approx_eq(&z.scale(Complex64::I), 1e-15));
    }

    #[test]
    fn standard_gates_unitary() {
        for g in [
            Mat2::x(),
            Mat2::y(),
            Mat2::z(),
            Mat2::h(),
            Mat2::s(),
            Mat2::t(),
            Mat2::sx(),
            Mat2::rx(0.3),
            Mat2::ry(-1.2),
            Mat2::rz(2.7),
            Mat2::u3(0.4, 1.1, -0.6),
        ] {
            assert!(g.is_unitary(1e-12), "{g}");
        }
    }

    #[test]
    fn rotations_compose() {
        let a = Mat2::rz(0.4) * Mat2::rz(0.6);
        assert!(a.approx_eq(&Mat2::rz(1.0), 1e-12));
    }

    #[test]
    fn u3_special_cases() {
        // U3(pi/2, 0, pi) is the Hadamard up to nothing (exact).
        assert!(Mat2::u3(PI / 2.0, 0.0, PI).approx_eq(&Mat2::h(), 1e-12));
    }

    #[test]
    fn det_and_trace() {
        let u = Mat2::u3(0.7, 0.1, -0.4);
        assert!((u.det().abs() - 1.0).abs() < 1e-12);
    }
}
