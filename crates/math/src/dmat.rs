//! Heap-allocated dense complex matrices of arbitrary size.
//!
//! These back the pulse-level Hamiltonian simulator (the 10 unit-cell
//! states with at most two excitations) and the Hermitian eigensolver with
//! the matrix functions built on it.

use crate::complex::Complex64;
use crate::mat4::Mat4;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix with runtime dimensions.
///
/// # Examples
///
/// ```
/// use nsb_math::DMat;
/// let i = DMat::identity(3);
/// assert_eq!(i.clone() * i.clone(), i);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl DMat {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates an identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major vector of entries.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        DMat { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given entries.
    pub(crate) fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = DMat::zeros(n, n);
        for (i, d) in diag.iter().enumerate() {
            m[(i, i)] = *d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data slice.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> DMat {
        let mut m = DMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m[(c, r)] = self[(r, c)].conj();
            }
        }
        m
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> DMat {
        let mut m = DMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m[(c, r)] = self[(r, c)];
            }
        }
        m
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert_eq!(self.rows, self.cols);
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> DMat {
        let mut m = self.clone();
        for z in &mut m.data {
            *z *= k;
        }
        m
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Returns true when the matrix is Hermitian within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in r..self.cols {
                if (self[(r, c)] - self[(c, r)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns true when `self` is unitary within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let p = self * &self.adjoint();
        (&p - &DMat::identity(self.rows)).norm() <= tol
    }

    /// Entry-wise comparison within `tol` (Frobenius norm of difference).
    #[cfg(test)]
    pub(crate) fn approx_eq(&self, other: &DMat, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        (self - other).norm() <= tol
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols);
        let mut out = vec![Complex64::ZERO; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter().zip(v) {
                acc += *a * *b;
            }
            *slot = acc;
        }
        out
    }

    /// Writes `self * rhs` into `out` without allocating.
    ///
    /// `out` is fully overwritten; its previous contents only matter for
    /// shape. The loop is bit-identical to `&self * &rhs`, so hot paths can
    /// ping-pong between two scratch matrices and still reproduce the
    /// allocating product exactly.
    ///
    /// # Panics
    ///
    /// Panics when dimensions are incompatible or `out` has the wrong shape.
    pub fn mul_into(&self, rhs: &DMat, out: &mut DMat) {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matmul");
        assert_eq!(out.rows, self.rows, "output row mismatch in mul_into");
        assert_eq!(out.cols, rhs.cols, "output col mismatch in mul_into");
        out.data.fill(Complex64::ZERO);
        // ikj loop order for cache friendliness (matches `Mul for &DMat`).
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex64::ZERO {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, b) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * *b;
                }
            }
        }
    }

    /// Extracts a 4x4 [`Mat4`] from the top-left corner or a full 4x4.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is smaller than 4x4.
    pub(crate) fn to_mat4(&self) -> Mat4 {
        assert!(self.rows >= 4 && self.cols >= 4);
        let mut m = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                m[(r, c)] = self[(r, c)];
            }
        }
        m
    }

    /// Embeds a [`Mat4`] as a 4x4 dynamic matrix.
    pub fn from_mat4(m: &Mat4) -> DMat {
        let mut d = DMat::zeros(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                d[(r, c)] = m.at(r, c);
            }
        }
        d
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &DMat {
    type Output = DMat;
    fn add(self, rhs: &DMat) -> DMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut m = self.clone();
        for (a, b) in m.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
        m
    }
}

impl Sub for &DMat {
    type Output = DMat;
    fn sub(self, rhs: &DMat) -> DMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut m = self.clone();
        for (a, b) in m.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
        m
    }
}

impl Mul for &DMat {
    type Output = DMat;
    fn mul(self, rhs: &DMat) -> DMat {
        let mut out = DMat::zeros(self.rows, rhs.cols);
        self.mul_into(rhs, &mut out);
        out
    }
}

impl Mul for DMat {
    type Output = DMat;
    fn mul(self, rhs: DMat) -> DMat {
        &self * &rhs
    }
}

impl fmt::Display for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let mut a = DMat::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                a[(r, c)] = Complex64::new((r + 3 * c) as f64, (r as f64) - (c as f64));
            }
        }
        let i = DMat::identity(3);
        assert!((&a * &i).approx_eq(&a, 1e-15));
        assert!((&i * &a).approx_eq(&a, 1e-15));
    }

    #[test]
    fn hermitian_detection() {
        let mut h = DMat::zeros(2, 2);
        h[(0, 0)] = Complex64::real(1.0);
        h[(1, 1)] = Complex64::real(-2.0);
        h[(0, 1)] = Complex64::new(0.5, 0.25);
        h[(1, 0)] = Complex64::new(0.5, -0.25);
        assert!(h.is_hermitian(1e-15));
        h[(1, 0)] = Complex64::new(0.5, 0.25);
        assert!(!h.is_hermitian(1e-15));
    }

    #[test]
    fn mat4_round_trip() {
        let m = Mat4::cnot();
        let d = DMat::from_mat4(&m);
        assert!(d.to_mat4().approx_eq(&m, 1e-15));
        assert!(d.is_unitary(1e-12));
    }

    #[test]
    fn mul_vec_matches_mat_mul() {
        let a = DMat::from_vec(
            2,
            2,
            vec![
                Complex64::new(1.0, 1.0),
                Complex64::real(2.0),
                Complex64::imag(3.0),
                Complex64::real(4.0),
            ],
        );
        let v = vec![Complex64::real(1.0), Complex64::new(0.0, -1.0)];
        let got = a.mul_vec(&v);
        assert!(got[0].approx_eq(Complex64::new(1.0, -1.0), 1e-14));
        assert!(got[1].approx_eq(Complex64::new(0.0, -1.0), 1e-14));
    }

    #[test]
    fn mul_into_is_bit_identical_to_mul_and_reuses_storage() {
        let a = DMat::from_vec(
            2,
            3,
            (0..6)
                .map(|k| Complex64::new(k as f64 * 0.3, 1.0 - k as f64))
                .collect(),
        );
        let b = DMat::from_vec(
            3,
            2,
            (0..6)
                .map(|k| Complex64::new((k as f64).sin(), 0.25 * k as f64))
                .collect(),
        );
        let expected = &a * &b;
        // Pre-fill out with garbage to prove it is fully overwritten.
        let mut out = DMat::from_vec(2, 2, vec![Complex64::real(9.0); 4]);
        a.mul_into(&b, &mut out);
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}
