//! Fixed-size `N x N` complex matrices on the stack.
//!
//! [`SMat`] holds every operation that does not depend on the size once;
//! [`Mat2`](crate::Mat2) and [`Mat4`](crate::Mat4) are its 2x2 and 4x4
//! instances and add only their named gates and size-specific algebra.

use crate::complex::Complex64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense `N x N` complex matrix stored on the stack, row-major.
///
/// Every gate the workspace calibrates, classifies or synthesizes is a
/// single-qubit ([`Mat2`](crate::Mat2), `N = 2`) or two-qubit
/// ([`Mat4`](crate::Mat4), `N = 4`) unitary; larger operators use the
/// heap-backed [`DMat`](crate::DMat).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SMat<const N: usize> {
    pub(crate) e: [[Complex64; N]; N],
}

impl<const N: usize> SMat<N> {
    /// Builds a matrix from a row-major array of entries.
    #[inline]
    pub const fn from_rows(e: [[Complex64; N]; N]) -> Self {
        SMat { e }
    }

    /// The zero matrix.
    #[inline]
    pub const fn zero() -> Self {
        SMat {
            e: [[Complex64::ZERO; N]; N],
        }
    }

    /// The identity matrix.
    pub const fn identity() -> Self {
        let mut e = [[Complex64::ZERO; N]; N];
        let mut i = 0;
        while i < N {
            e[i][i] = Complex64::ONE;
            i += 1;
        }
        SMat { e }
    }

    /// Entry accessor used in hot loops.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> Complex64 {
        self.e[r][c]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut m = Self::zero();
        for r in 0..N {
            for c in 0..N {
                m.e[c][r] = self.e[r][c];
            }
        }
        m
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut m = Self::zero();
        for r in 0..N {
            for c in 0..N {
                m.e[c][r] = self.e[r][c].conj();
            }
        }
        m
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Self {
        let mut m = *self;
        for z in m.e.iter_mut().flatten() {
            *z = z.conj();
        }
        m
    }

    /// Matrix trace, summed from the first diagonal entry (so a trace of
    /// `-0.0` entries stays `-0.0`).
    pub fn trace(&self) -> Complex64 {
        let mut acc = self.e[0][0];
        for i in 1..N {
            acc += self.e[i][i];
        }
        acc
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> Self {
        let mut out = *self;
        for z in out.e.iter_mut().flatten() {
            *z *= k;
        }
        out
    }

    /// Squared Frobenius norm.
    pub(crate) fn norm_sqr(&self) -> f64 {
        self.e.iter().flatten().map(|z| z.norm_sqr()).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns true when `self` is unitary within `tol` (Frobenius norm of
    /// `U U^dagger - I`).
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint() - Self::identity()).norm() <= tol
    }

    /// Entry-wise comparison within `tol` (Frobenius norm of difference).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (*self - *other).norm() <= tol
    }

    /// Comparison up to a global phase: minimizes the Frobenius distance
    /// over `e^{i phi}` and compares with `tol`.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        self.phase_distance(other) <= tol
    }

    /// Frobenius distance minimized over a global phase.
    pub fn phase_distance(&self, other: &Self) -> f64 {
        let t = (self.adjoint() * *other).trace().abs();
        let d2 = self.norm().powi(2) + other.norm().powi(2) - 2.0 * t;
        d2.max(0.0).sqrt()
    }

    /// The polar (nearest) unitary factor of a nearly unitary matrix, by
    /// Newton–Schulz steps `X <- X (3I - X^dag X) / 2`.
    ///
    /// Each step squares the deviation `X^dag X - I`, so two take `1e-3`
    /// below `1e-12`; the third reaches rounding. Unlike
    /// [`polar_unitary4`](crate::polar_unitary4) this stays on the stack and
    /// cannot panic, but it converges only for inputs near the unitary
    /// group (singular values well inside `(0, sqrt 3)`).
    pub fn nearest_unitary(&self) -> Self {
        let three = Self::identity().scale(Complex64::real(3.0));
        let mut x = *self;
        for _ in 0..3 {
            x = (x * (three - x.adjoint() * x)).scale(Complex64::real(0.5));
        }
        x
    }
}

impl<const N: usize> Index<(usize, usize)> for SMat<N> {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.e[r][c]
    }
}

impl<const N: usize> IndexMut<(usize, usize)> for SMat<N> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.e[r][c]
    }
}

impl<const N: usize> Add for SMat<N> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut out = Self::zero();
        for r in 0..N {
            for c in 0..N {
                out.e[r][c] = self.e[r][c] + rhs.e[r][c];
            }
        }
        out
    }
}

impl<const N: usize> Sub for SMat<N> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut out = Self::zero();
        for r in 0..N {
            for c in 0..N {
                out.e[r][c] = self.e[r][c] - rhs.e[r][c];
            }
        }
        out
    }
}

impl<const N: usize> Neg for SMat<N> {
    type Output = Self;
    fn neg(self) -> Self {
        self.scale(-Complex64::ONE)
    }
}

impl<const N: usize> Mul for SMat<N> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = Self::zero();
        for r in 0..N {
            for c in 0..N {
                let mut acc = Complex64::ZERO;
                for k in 0..N {
                    acc += self.e[r][k] * rhs.e[k][c];
                }
                out.e[r][c] = acc;
            }
        }
        out
    }
}

impl<const N: usize> fmt::Display for SMat<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.e {
            let cells: Vec<String> = row.iter().map(Complex64::to_string).collect();
            writeln!(f, "[{}]", cells.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{complex_normal, haar_su2, haar_u4};
    use crate::svd::{max_trace_unitary, polar_unitary4};
    use crate::Mat2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deviations from unitary the projection must handle: `kak_vector`'s
    /// rounding-level inputs up to the `1e-3` factors the verifier's
    /// `kron_factor(1e-4)` split admits.
    const DEVIATIONS: [f64; 6] = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3];

    /// `u` plus a complex Gaussian perturbation of Frobenius norm `dev`.
    fn perturbed<const N: usize>(u: SMat<N>, dev: f64, rng: &mut StdRng) -> SMat<N> {
        let mut g = SMat::<N>::zero();
        for z in g.e.iter_mut().flatten() {
            *z = complex_normal(rng);
        }
        u + g.scale(Complex64::real(dev / g.norm()))
    }

    #[test]
    fn nearest_unitary_2_matches_closed_form_polar_factor() {
        let mut rng = StdRng::seed_from_u64(33);
        for dev in DEVIATIONS {
            for _ in 0..200 {
                let m = perturbed(haar_su2(&mut rng), dev, &mut rng);
                let oracle = max_trace_unitary(&m).adjoint();
                let p = m.nearest_unitary();
                assert!(p.approx_eq(&oracle, 1e-14), "dev {dev:e}: {p} vs {oracle}");
            }
        }
    }

    #[test]
    fn nearest_unitary_4_matches_eigh_polar_factor() {
        let mut rng = StdRng::seed_from_u64(34);
        for dev in DEVIATIONS {
            for _ in 0..50 {
                let m = perturbed(haar_u4(&mut rng), dev, &mut rng);
                let oracle = polar_unitary4(&m);
                let p = m.nearest_unitary();
                assert!(p.approx_eq(&oracle, 1e-13), "dev {dev:e}: {p} vs {oracle}");
            }
        }
    }

    #[test]
    fn trace_keeps_a_negative_zero() {
        let z = Complex64::new(-0.0, -0.0);
        let m = Mat2::from_rows([[z, Complex64::ONE], [Complex64::ONE, z]]);
        let t = m.trace();
        assert!(t.re.is_sign_negative() && t.im.is_sign_negative());
    }

    #[test]
    fn display_prints_one_bracketed_row_per_line() {
        let (o, z) = (Complex64::ONE, Complex64::ZERO);
        assert_eq!(
            Mat2::identity().to_string(),
            format!("[{o} {z}]\n[{z} {o}]\n")
        );
    }
}
