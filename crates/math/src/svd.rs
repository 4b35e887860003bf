//! Polar projections onto the unitary group.
//!
//! Gate synthesis needs the closed-form 2x2 polar factor (for the local
//! "environment" update), and calibration and simulation need a polar
//! projection of 4x4 and dynamic matrices that may be far from unitary
//! (for extracting gates from noisy tomography or simulation data). Inputs
//! that are unitary up to a small error use
//! [`SMat::nearest_unitary`](crate::SMat::nearest_unitary) instead.

use crate::complex::Complex64;
use crate::dmat::DMat;
use crate::eig::eigh;
use crate::mat2::Mat2;
use crate::mat4::Mat4;

/// Returns the unitary `w` maximizing `Re tr(w e)`: the adjoint of the
/// polar factor of `e`, which is `v u^dagger` for the SVD `e = u s v^dagger`.
/// The achieved maximum is `s[0] + s[1]`.
///
/// For 2x2 matrices the polar factor has a closed form. With
/// `det e = |det e| e^{i phi}`,
/// `w = (e^dagger + e^{-i phi} adj e) / sqrt(||e||_F^2 + 2 |det e|)`,
/// where `adj e` is the adjugate and the denominator is `s[0] + s[1]`. When
/// `det e` vanishes (or its square underflows) `e` is rank one to working
/// precision and every unit phase gives a maximizer, so phase 1 is used.
/// The identity is returned for `e = 0`. Inputs far from unit scale are
/// rescaled first, so the phase is only dropped when `e` is near rank one.
///
/// This is the core update of the alternating gate-synthesis optimizer.
pub fn max_trace_unitary(e: &Mat2) -> Mat2 {
    let norm_sqr = e.norm_sqr();
    if (1e-100..=1e100).contains(&norm_sqr) {
        return polar_adjoint2(e, norm_sqr);
    }
    // The polar factor is scale invariant: bring the largest entry to 1.
    let largest = e.e.iter().flatten().fold(0.0f64, |m, z| m.max(z.abs()));
    if largest == 0.0 {
        return Mat2::identity();
    }
    let unit = e.scale(Complex64::real(1.0 / largest));
    polar_adjoint2(&unit, unit.norm_sqr())
}

/// The closed-form `w` of [`max_trace_unitary`] for a nonzero `e` with
/// squared Frobenius norm `norm_sqr` near unit scale.
fn polar_adjoint2(e: &Mat2, norm_sqr: f64) -> Mat2 {
    let det = e.det();
    let det_sqr = det.norm_sqr();
    let (det_abs, phase) = if det_sqr >= f64::MIN_POSITIVE {
        let det_abs = det_sqr.sqrt();
        (det_abs, det.conj().scale(1.0 / det_abs))
    } else {
        (0.0, Complex64::ONE)
    };
    let inv = 1.0 / (norm_sqr + 2.0 * det_abs).sqrt();
    let (a, b, c, d) = (e.at(0, 0), e.at(0, 1), e.at(1, 0), e.at(1, 1));
    Mat2::from_rows([
        [
            (a.conj() + phase * d).scale(inv),
            (c.conj() - phase * b).scale(inv),
        ],
        [
            (b.conj() - phase * c).scale(inv),
            (d.conj() + phase * a).scale(inv),
        ],
    ])
}

/// Projects a full-rank matrix onto the nearest unitary (polar factor),
/// using `u = a (a^dagger a)^{-1/2}` via a Hermitian eigendecomposition.
///
/// # Panics
///
/// Panics when `a` is not square or is rank-deficient to working precision.
pub(crate) fn polar_unitary(a: &DMat) -> DMat {
    let n = a.rows();
    assert_eq!(n, a.cols(), "polar projection requires a square matrix");
    let h = &a.adjoint() * a;
    let e = eigh(&h);
    let inv_sqrt = e.map(|lam| {
        assert!(
            lam > 1e-20,
            "polar projection of a rank-deficient matrix (eigenvalue {lam})"
        );
        Complex64::real(1.0 / lam.sqrt())
    });
    a * &inv_sqrt
}

/// Polar projection specialized to 4x4 matrices (two-qubit gates).
pub fn polar_unitary4(a: &Mat4) -> Mat4 {
    polar_unitary(&DMat::from_mat4(a)).to_mat4()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{complex_normal, haar_su2, standard_normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The outer product `x y^T`.
    fn rank_one(x: [Complex64; 2], y: [Complex64; 2]) -> Mat2 {
        Mat2::from_rows([[x[0] * y[0], x[0] * y[1]], [x[1] * y[0], x[1] * y[1]]])
    }

    #[test]
    fn max_trace_unitary_beats_random_rotations() {
        let e = Mat2::from_rows([
            [Complex64::new(0.3, -0.4), Complex64::new(1.2, 0.0)],
            [Complex64::new(-0.7, 0.2), Complex64::new(0.1, 0.9)],
        ]);
        let w = max_trace_unitary(&e);
        assert!(w.is_unitary(1e-10));
        let best = (w * e).trace().re;
        for k in 0..32 {
            let theta = k as f64 * 0.2;
            let cand = Mat2::u3(theta, 0.3 * k as f64, -0.1 * k as f64);
            let val = (cand * e).trace().re;
            assert!(val <= best + 1e-9);
        }
        check_max_trace(&e);
    }

    /// `w` is unitary to 1e-12 and `w e` is Hermitian positive semidefinite
    /// within `1e-12 ||e||_F`. For the SVD `e = u s v^dagger` that holds
    /// exactly when `w e = v s v^dagger`, i.e. `w = v u^dagger` on the range
    /// of `e`, which characterizes the maximizers of `Re tr(w e)`.
    fn check_max_trace(e: &Mat2) {
        let w = max_trace_unitary(e);
        assert!(w.is_unitary(1e-12), "w not unitary for {e}");
        let h = w * *e;
        let tol = 1e-12 * e.norm();
        let skew = (h - h.adjoint()).norm();
        assert!(skew <= tol, "w e is not Hermitian ({skew:e}) for {e}");
        let (a, d, b) = (h.at(0, 0).re, h.at(1, 1).re, h.at(0, 1));
        let smallest = (a + d - ((a - d) * (a - d) + 4.0 * b.norm_sqr()).sqrt()) / 2.0;
        assert!(smallest >= -tol, "w e has eigenvalue {smallest:e} for {e}");
    }

    #[test]
    fn max_trace_unitary_matches_svd_on_gaussian_matrices() {
        let mut rng = StdRng::seed_from_u64(25);
        for i in 0..10_000 {
            let e = Mat2::from_rows([
                [complex_normal(&mut rng), complex_normal(&mut rng)],
                [complex_normal(&mut rng), complex_normal(&mut rng)],
            ]);
            check_max_trace(&e);
            // Far from unit scale the input is rescaled first; the polar
            // factor does not depend on the scale.
            if i % 100 == 0 {
                let w = max_trace_unitary(&e);
                for k in [1e-120, 1e120] {
                    let scaled = max_trace_unitary(&e.scale(Complex64::real(k)));
                    assert!(scaled.approx_eq(&w, 1e-12), "scale {k:e} moved w for {e}");
                }
            }
        }
    }

    #[test]
    fn max_trace_unitary_of_rank_one_and_zero() {
        // det is exactly zero.
        check_max_trace(&Mat2::from_rows([
            [Complex64::new(1.0, 1.0), Complex64::new(2.0, 2.0)],
            [Complex64::new(0.5, 0.5), Complex64::new(1.0, 1.0)],
        ]));
        check_max_trace(&Mat2::from_rows([
            [Complex64::ZERO, Complex64::new(0.0, -2.0)],
            [Complex64::ZERO, Complex64::ZERO],
        ]));
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..100 {
            let x = [complex_normal(&mut rng), complex_normal(&mut rng)];
            let y = [complex_normal(&mut rng), complex_normal(&mut rng)];
            check_max_trace(&rank_one(x, y));
        }
        let w = max_trace_unitary(&Mat2::zero());
        assert!(w.approx_eq(&Mat2::identity(), 0.0));
    }

    #[test]
    fn max_trace_unitary_of_nearly_singular_matrices() {
        // |det e| / ||e||^2 from 1e-10 down to 1e-300: below about 1e-154
        // the determinant's squared magnitude underflows.
        let mut rng = StdRng::seed_from_u64(27);
        for t in [1e-10, 1e-100, 1e-155, 1e-160, 1e-200, 1e-250, 1e-300] {
            let (x, y) = (
                Complex64::cis(standard_normal(&mut rng)),
                Complex64::cis(standard_normal(&mut rng)),
            );
            let small = y.scale(t);
            let z = Complex64::ZERO;
            check_max_trace(&Mat2::from_rows([[x, z], [z, small]]));
            check_max_trace(&Mat2::from_rows([[z, small], [x, z]]));
            let rotated = haar_su2(&mut rng) * Mat2::from_rows([[x, z], [z, small]]);
            check_max_trace(&(rotated * haar_su2(&mut rng)));
        }
    }

    #[test]
    fn polar_of_unitary_is_identity_map() {
        let u = DMat::from_mat4(&Mat4::cnot());
        assert!(polar_unitary(&u).approx_eq(&u, 1e-10));
    }

    #[test]
    fn polar_projects_scaled_unitary() {
        let u = Mat4::sqrt_iswap();
        let scaled = u.scale(Complex64::real(0.9));
        let p = polar_unitary4(&scaled);
        assert!(p.approx_eq(&u, 1e-9));
    }

    #[test]
    fn polar_of_perturbed_unitary_is_unitary() {
        let mut a = DMat::from_mat4(&Mat4::iswap());
        a[(0, 1)] += Complex64::new(0.01, -0.02);
        a[(2, 3)] += Complex64::new(-0.015, 0.01);
        let p = polar_unitary(&a);
        assert!(p.is_unitary(1e-10));
        assert!((&p - &a).norm() < 0.1);
    }
}
