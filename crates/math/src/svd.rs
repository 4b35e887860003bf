//! Small singular value decompositions and polar projections.
//!
//! Gate synthesis only ever needs the closed-form 2x2 polar factor (for the
//! local "environment" update), the closed-form 2x2 SVD, and a polar
//! projection onto the unitary group for 4x4 and dynamic matrices (for
//! extracting gates from noisy tomography or simulation data).

use crate::complex::Complex64;
use crate::dmat::DMat;
use crate::eig::eigh;
use crate::mat2::Mat2;
use crate::mat4::Mat4;

/// Closed-form singular value decomposition of a 2x2 complex matrix:
/// `a = u * diag(s) * v^dagger` with `s[0] >= s[1] >= 0` and unitary `u`, `v`.
///
/// # Examples
///
/// ```
/// use nsb_math::{svd2, Mat2};
/// let a = Mat2::h();
/// let (u, s, v) = svd2(&a);
/// assert!((s[0] - 1.0).abs() < 1e-12 && (s[1] - 1.0).abs() < 1e-12);
/// assert!(u.is_unitary(1e-12) && v.is_unitary(1e-12));
/// ```
pub fn svd2(a: &Mat2) -> (Mat2, [f64; 2], Mat2) {
    // Eigendecompose the 2x2 Hermitian PSD matrix h = a^dag a.
    let h = a.adjoint() * *a;
    let h11 = h.at(0, 0).re;
    let h22 = h.at(1, 1).re;
    let h12 = h.at(0, 1);
    let tr = h11 + h22;
    let gap = ((h11 - h22) * (h11 - h22) + 4.0 * h12.norm_sqr()).sqrt();
    let l1 = ((tr + gap) / 2.0).max(0.0);
    // Eigenvector for l1.
    let v1 = if h12.abs() > 1e-300 {
        normalize2([h12, Complex64::real(l1 - h11)])
    } else if h11 >= h22 {
        [Complex64::ONE, Complex64::ZERO]
    } else {
        [Complex64::ZERO, Complex64::ONE]
    };
    // v2 orthogonal to v1.
    let v2 = [-v1[1].conj(), v1[0].conj()];
    let v = Mat2::from_rows([[v1[0], v2[0]], [v1[1], v2[1]]]);
    let s1 = l1.sqrt();
    // The small singular value from |det a| = s1 s2: the eigenvalue
    // (tr - gap) / 2 cancels to an absolute error of about eps * tr, which
    // its square root would amplify to sqrt(eps) * s1.
    let s2 = if s1 > 0.0 {
        (a.det().abs() / s1).min(s1)
    } else {
        0.0
    };
    // u columns: u_i = a v_i / s_i, completed orthogonally when s_i ~ 0.
    let av1 = mul_vec2(a, v1);
    let av2 = mul_vec2(a, v2);
    let u1 = if s1 > 1e-150 {
        [av1[0] / s1, av1[1] / s1]
    } else {
        [Complex64::ONE, Complex64::ZERO]
    };
    let u2 = if s2 > s1 * 1e-13 && s2 > 1e-150 {
        [av2[0] / s2, av2[1] / s2]
    } else {
        // Orthogonal completion of u1.
        [-u1[1].conj(), u1[0].conj()]
    };
    let u = Mat2::from_rows([[u1[0], u2[0]], [u1[1], u2[1]]]);
    (u, [s1, s2], v)
}

fn normalize2(v: [Complex64; 2]) -> [Complex64; 2] {
    let n = (v[0].norm_sqr() + v[1].norm_sqr()).sqrt();
    [v[0] / n, v[1] / n]
}

fn mul_vec2(a: &Mat2, v: [Complex64; 2]) -> [Complex64; 2] {
    [
        a.at(0, 0) * v[0] + a.at(0, 1) * v[1],
        a.at(1, 0) * v[0] + a.at(1, 1) * v[1],
    ]
}

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
    let norm_sqr = frobenius_sqr(e);
    if (1e-100..=1e100).contains(&norm_sqr) {
        return polar_adjoint2(e, norm_sqr);
    }
    // The polar factor is scale invariant: bring the largest entry to 1.
    let mut largest = 0.0f64;
    for r in 0..2 {
        for c in 0..2 {
            largest = largest.max(e.at(r, c).abs());
        }
    }
    if largest == 0.0 {
        return Mat2::identity();
    }
    let unit = e.scale(Complex64::real(1.0 / largest));
    polar_adjoint2(&unit, frobenius_sqr(&unit))
}

/// `||e||_F^2`.
fn frobenius_sqr(e: &Mat2) -> f64 {
    let mut acc = 0.0;
    for r in 0..2 {
        for c in 0..2 {
            acc += e.at(r, c).norm_sqr();
        }
    }
    acc
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

    fn check_svd(a: &Mat2) {
        let (u, s, v) = svd2(a);
        assert!(u.is_unitary(1e-10), "u not unitary for {a}");
        assert!(v.is_unitary(1e-10), "v not unitary for {a}");
        assert!(s[0] >= s[1] && s[1] >= -1e-12);
        let sig = Mat2::from_rows([
            [Complex64::real(s[0]), Complex64::ZERO],
            [Complex64::ZERO, Complex64::real(s[1])],
        ]);
        let back = u * sig * v.adjoint();
        assert!(back.approx_eq(a, 1e-10), "reconstruction failed for {a}");
    }

    /// The outer product `x y^T`.
    fn rank_one(x: [Complex64; 2], y: [Complex64; 2]) -> Mat2 {
        Mat2::from_rows([[x[0] * y[0], x[0] * y[1]], [x[1] * y[0], x[1] * y[1]]])
    }

    #[test]
    fn svd_of_assorted_matrices() {
        let cases = [
            Mat2::identity(),
            Mat2::h(),
            Mat2::from_rows([
                [Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.3)],
                [Complex64::new(0.0, -1.0), Complex64::new(2.0, 0.1)],
            ]),
            Mat2::from_rows([
                [Complex64::real(3.0), Complex64::ZERO],
                [Complex64::ZERO, Complex64::ZERO],
            ]),
            // Rank-1 matrix.
            Mat2::from_rows([
                [Complex64::new(1.0, 1.0), Complex64::new(2.0, 2.0)],
                [Complex64::new(0.5, 0.5), Complex64::new(1.0, 1.0)],
            ]),
            Mat2::zero(),
        ];
        for a in &cases {
            check_svd(a);
        }
        // Rank 1 up to rounding: the small singular value is of order eps,
        // not sqrt(eps), or the second column of u is not a unit vector.
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..20 {
            let x = [complex_normal(&mut rng), complex_normal(&mut rng)];
            let y = [complex_normal(&mut rng), complex_normal(&mut rng)];
            let a = rank_one(x, y);
            check_svd(&a);
            let (_, s, _) = svd2(&a);
            assert!(s[1] <= 1e-14 * s[0], "small singular value {:e}", s[1]);
        }
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
        // Optimum equals the nuclear norm.
        let (_, s, _) = svd2(&e);
        assert!((best - (s[0] + s[1])).abs() < 1e-9);
    }

    /// `w` is unitary to 1e-12 and reaches the SVD's `s[0] + s[1]` within
    /// `1e-12 ||e||_F`.
    fn check_max_trace(e: &Mat2) {
        let w = max_trace_unitary(e);
        assert!(w.is_unitary(1e-12), "w not unitary for {e}");
        let (_, s, _) = svd2(e);
        let gap = ((w * *e).trace().re - (s[0] + s[1])).abs();
        assert!(gap <= 1e-12 * e.norm(), "trace gap {gap:e} for {e}");
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
