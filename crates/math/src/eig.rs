//! Eigendecomposition of complex Hermitian matrices via the cyclic Jacobi
//! method with complex plane rotations, and the functions of a Hermitian
//! matrix built on it.
//!
//! Sizes in this workspace are small (dimension <= 64), where Jacobi is both
//! simple and numerically excellent (eigenvectors orthogonal to machine
//! precision). Every function of a Hermitian matrix the workspace needs —
//! the time-evolution operator [`expm_i_h_t`], the polar factor and the
//! dressed frame — is `V f(D) V^dagger` over this one eigensolver. For a
//! Hermitian generator that is exact up to rounding and well conditioned,
//! because the eigenvectors are orthonormal.

use crate::complex::Complex64;
use crate::dmat::DMat;

/// Result of a Hermitian eigendecomposition: `a = V diag(values) V^dagger`.
#[derive(Clone, Debug)]
pub struct HermitianEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: DMat,
}

impl HermitianEig {
    /// Reconstructs the original matrix: the tests' oracle for [`eigh`].
    #[cfg(test)]
    pub(crate) fn reconstruct(&self) -> DMat {
        let d = DMat::from_diag(
            &self
                .values
                .iter()
                .map(|&v| Complex64::real(v))
                .collect::<Vec<_>>(),
        );
        &(&self.vectors * &d) * &self.vectors.adjoint()
    }

    /// Applies `f` to the eigenvalues and reassembles `V f(D) V^dagger`.
    ///
    /// This is the workspace's one way to compute a function of a
    /// Hermitian matrix: `exp(-i H t)` ([`expm_i_h_t`]) and `H^{-1/2}`
    /// (the polar factor) both go through it. An entry between two
    /// invariant blocks of the matrix comes out exactly `0.0`, since every
    /// eigenvector lives in one block.
    pub(crate) fn map(&self, mut f: impl FnMut(f64) -> Complex64) -> DMat {
        let d = DMat::from_diag(&self.values.iter().map(|&v| f(v)).collect::<Vec<_>>());
        &(&self.vectors * &d) * &self.vectors.adjoint()
    }
}

/// Computes the eigendecomposition of a Hermitian matrix.
///
/// # Panics
///
/// Panics when `a` is not square or not Hermitian within `1e-8` of its norm.
///
/// # Examples
///
/// ```
/// use nsb_math::{eigh, Complex64, DMat};
/// let mut h = DMat::zeros(2, 2);
/// h[(0, 1)] = Complex64::ONE;
/// h[(1, 0)] = Complex64::ONE;
/// let e = eigh(&h);
/// assert!((e.values[0] + 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigh(a: &DMat) -> HermitianEig {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eigh requires a square matrix");
    let scale = a.norm().max(1.0);
    assert!(
        a.is_hermitian(1e-8 * scale),
        "eigh requires a Hermitian matrix"
    );
    let mut m = a.clone();
    // Symmetrize exactly to wash out tiny asymmetries.
    for r in 0..n {
        for c in (r + 1)..n {
            let avg = (m[(r, c)] + m[(c, r)].conj()).scale(0.5);
            m[(r, c)] = avg;
            m[(c, r)] = avg.conj();
        }
        m[(r, r)] = Complex64::real(m[(r, r)].re);
    }
    let mut v = DMat::identity(n);
    let tol = 1e-14 * scale;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)].norm_sqr();
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let abs_apq = apq.abs();
                if abs_apq <= tol / (n as f64) {
                    continue;
                }
                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                let phi = apq.arg();
                // cot(2 theta) = (app - aqq) / (2 |apq|)
                let tau = (app - aqq) / (2.0 * abs_apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let eip = Complex64::cis(phi);
                let eim = Complex64::cis(-phi);
                // R is identity except R[p][p]=c, R[p][q]=-s e^{i phi},
                // R[q][p]=s e^{-i phi}, R[q][q]=c. Apply m <- R^dag m R.
                // Columns update (m <- m R):
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = mkp.scale(c) + mkq * eim.scale(s);
                    m[(k, q)] = mkq.scale(c) - mkp * eip.scale(s);
                }
                // Rows update (m <- R^dag m):
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = mpk.scale(c) + mqk * eip.scale(s);
                    m[(q, k)] = mqk.scale(c) - mpk * eim.scale(s);
                }
                // Eigenvector accumulation (v <- v R):
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = vkp.scale(c) + vkq * eim.scale(s);
                    v[(k, q)] = vkq.scale(c) - vkp * eip.scale(s);
                }
                // Clean the zeroed element and enforce real diagonal.
                m[(p, q)] = Complex64::ZERO;
                m[(q, p)] = Complex64::ZERO;
                m[(p, p)] = Complex64::real(m[(p, p)].re);
                m[(q, q)] = Complex64::real(m[(q, q)].re);
            }
        }
    }
    // Collect and sort ascending.
    let mut idx: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    idx.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
    let mut values = Vec::with_capacity(n);
    let mut vectors = DMat::zeros(n, n);
    for (new_c, &old_c) in idx.iter().enumerate() {
        values.push(vals[old_c]);
        for r in 0..n {
            vectors[(r, new_c)] = v[(r, old_c)];
        }
    }
    HermitianEig { values, vectors }
}

/// Computes `exp(-i h t)` for a Hermitian generator `h`, the time-evolution
/// operator of the pulse simulator, as `V diag(e^{-i λ t}) V^dagger` over
/// [`eigh`]. The result is unitary up to rounding.
///
/// # Panics
///
/// Panics when `h` is not square or not Hermitian, like [`eigh`].
///
/// # Examples
///
/// ```
/// use nsb_math::{expm_i_h_t, DMat};
/// let u = expm_i_h_t(&DMat::zeros(3, 3), 1.0);
/// assert!((&u - &DMat::identity(3)).norm() < 1e-14);
/// ```
pub fn expm_i_h_t(h: &DMat, t: f64) -> DMat {
    eigh(h).map(|lam| Complex64::cis(-lam * t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(n: usize) -> DMat {
        let mut h = DMat::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let re = ((r * 13 + c * 7) % 17) as f64 / 17.0;
                let im = if r == c {
                    0.0
                } else {
                    ((r * 5 + c * 11) % 13) as f64 / 13.0
                };
                h[(r, c)] = Complex64::new(re, im);
            }
        }
        // Hermitize.
        let ha = h.adjoint();
        (&h + &ha).scale(Complex64::real(0.5))
    }

    #[test]
    fn reconstruction_small() {
        for n in [2usize, 3, 5, 8] {
            let h = test_matrix(n);
            let e = eigh(&h);
            assert!(
                e.reconstruct().approx_eq(&h, 1e-10),
                "reconstruction failed at n={n}"
            );
            assert!(e.vectors.is_unitary(1e-10));
        }
    }

    #[test]
    fn eigenvalues_sorted_and_real_diag() {
        let h = test_matrix(12);
        let e = eigh(&h);
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Trace preserved.
        let tr: f64 = e.values.iter().sum();
        assert!((tr - h.trace().re).abs() < 1e-9);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let d = DMat::from_diag(&[
            Complex64::real(3.0),
            Complex64::real(-1.0),
            Complex64::real(0.5),
        ]);
        let e = eigh(&d);
        assert!((e.values[0] + 1.0).abs() < 1e-14);
        assert!((e.values[1] - 0.5).abs() < 1e-14);
        assert!((e.values[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn map_computes_matrix_functions() {
        let h = test_matrix(6);
        let e = eigh(&h);
        // exp(i*0) = identity
        let u = e.map(|_| Complex64::ONE);
        assert!(u.approx_eq(&DMat::identity(6), 1e-10));
        // exp(-iHt) is unitary.
        let t = 0.37;
        let u = e.map(|lam| Complex64::cis(-lam * t));
        assert!(u.is_unitary(1e-10));
    }

    /// `exp(-i h t)` from its Taylor series, sharing nothing with [`eigh`]:
    /// scale `-i h t` to Frobenius norm at most 1/2, sum 40 terms of the
    /// series (the last is below `2^-39 / 39!`), then square back.
    fn taylor_expm_i_h_t(h: &DMat, t: f64) -> DMat {
        let g = h.scale(Complex64::new(0.0, -t));
        let squarings = (g.norm() / 0.5).log2().ceil().max(0.0) as i32;
        let a = g.scale(Complex64::real(0.5f64.powi(squarings)));
        let n = h.rows();
        let mut sum = DMat::identity(n);
        let mut term = DMat::identity(n);
        for k in 1..40 {
            term = (&term * &a).scale(Complex64::real(1.0 / k as f64));
            sum = &sum + &term;
        }
        for _ in 0..squarings {
            sum = &sum * &sum;
        }
        sum
    }

    #[test]
    fn exponential_matches_taylor_series() {
        let h = test_matrix(10);
        for t in [0.05, 0.77, 2.3] {
            let u = expm_i_h_t(&h, t);
            let reference = taylor_expm_i_h_t(&h, t);
            let err = (&u - &reference).norm();
            assert!(err < 1e-12, "t = {t}: {err:e}");
        }
    }

    #[test]
    fn exponential_is_unitary() {
        let h = test_matrix(5).scale(Complex64::real(3.0));
        assert!(expm_i_h_t(&h, 0.77).is_unitary(1e-11));
    }

    #[test]
    fn pauli_exponential_has_closed_form() {
        // exp(-i theta n.sigma) = cos(theta) I - i sin(theta) n.sigma.
        let (nx, ny, nz) = (1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0);
        let n_sigma = DMat::from_vec(
            2,
            2,
            vec![
                Complex64::real(nz),
                Complex64::new(nx, -ny),
                Complex64::new(nx, ny),
                Complex64::real(-nz),
            ],
        );
        for theta in [0.3, 1.9, -4.2] {
            let u = expm_i_h_t(&n_sigma, theta);
            let closed = &DMat::identity(2).scale(Complex64::real(theta.cos()))
                + &n_sigma.scale(Complex64::imag(-theta.sin()));
            assert!(u.approx_eq(&closed, 1e-14), "theta = {theta}");
        }
    }

    #[test]
    fn exponentials_compose() {
        // U(s) U(t) = U(s + t) on a dense generator.
        let h = test_matrix(6);
        let (s, t) = (0.4, 0.9);
        let product = &expm_i_h_t(&h, s) * &expm_i_h_t(&h, t);
        assert!(product.approx_eq(&expm_i_h_t(&h, s + t), 1e-13));
    }

    #[test]
    fn large_norm_diagonal_exponential_is_exact() {
        // A large-norm diagonal generator: its exponentials compose, and
        // each diagonal entry is the exact phase.
        let large = DMat::from_diag(&[Complex64::real(40.0), Complex64::real(-35.0)]);
        let (s, t) = (0.4, 0.9);
        let product = &expm_i_h_t(&large, s) * &expm_i_h_t(&large, t);
        assert!(product.approx_eq(&expm_i_h_t(&large, s + t), 1e-13));
        let u = expm_i_h_t(&large, 1.0);
        assert!((u[(0, 0)] - Complex64::cis(-40.0)).abs() < 1e-14);
        assert!((u[(1, 1)] - Complex64::cis(35.0)).abs() < 1e-14);
    }

    #[test]
    fn block_diagonal_generator_keeps_exact_zeros() {
        // Blocks {0, 3}, {1} and {2, 4, 5}, interleaved like the pulse
        // simulator's excitation sectors; the stepper stores only nonzero
        // entries, so a cross-block entry must be exactly zero.
        let block = [0, 1, 2, 0, 2, 2];
        let dense = test_matrix(6);
        let mut h = DMat::zeros(6, 6);
        for r in 0..6 {
            for c in 0..6 {
                if block[r] == block[c] {
                    h[(r, c)] = dense[(r, c)];
                }
            }
        }
        let u = expm_i_h_t(&h, 1.7);
        assert!(u.is_unitary(1e-12));
        for r in 0..6 {
            for c in 0..6 {
                if block[r] != block[c] {
                    assert_eq!(u[(r, c)], Complex64::ZERO, "entry ({r}, {c})");
                } else {
                    assert!(u[(r, c)] != Complex64::ZERO, "entry ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn large_dimension_27() {
        let h = test_matrix(27);
        let e = eigh(&h);
        assert!(e.reconstruct().approx_eq(&h, 1e-8));
    }
}
