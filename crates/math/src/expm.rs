//! Matrix exponential via Pade approximation with scaling and squaring.
//!
//! This follows the classic Higham degree-13 scheme used by SciPy/Expokit,
//! restricted to the modest matrix sizes this workspace needs (the
//! 27-dimensional transmon-coupler-transmon Hilbert space).
//!
//! Two implementations share the coefficients: the generic heap-backed
//! `expm_generic` for arbitrary dimensions, and the stack-allocated
//! `expm_mat4` specialized to [`Mat4`] for the two-qubit hot paths (no
//! heap traffic at all — every intermediate lives on the stack).
//! [`expm_i_h_t`] dispatches 4x4 generators to the specialized kernel.

use crate::complex::Complex64;
use crate::dmat::DMat;
use crate::mat4::Mat4;

/// Degree-13 Pade coefficients.
const B13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// 1-norm threshold above which scaling is applied for degree 13.
const THETA13: f64 = 5.371920351148152;

/// The generic heap-backed Pade path for any square matrix, without the
/// 4x4 fast-path dispatch; also the tests' independent reference for
/// [`expm_mat4`].
///
/// # Panics
///
/// Panics when `a` is not square, or (in the astronomically unlikely event)
/// the internal Pade solve encounters a singular system.
fn expm_generic(a: &DMat) -> DMat {
    let n = a.rows();
    assert_eq!(n, a.cols(), "expm requires a square matrix");
    let norm = a.one_norm();
    let s = if norm > THETA13 {
        (norm / THETA13).log2().ceil() as u32
    } else {
        0
    };
    let scaled = a.scale(Complex64::real(0.5f64.powi(s as i32)));
    let mut result = pade13(&scaled);
    for _ in 0..s {
        result = &result * &result;
    }
    result
}

/// Stack-allocated matrix exponential `exp(a)` for 4x4 matrices: the same
/// Higham degree-13 Pade scheme with scaling and squaring as
/// [`expm_generic`], but
/// every intermediate is a [`Mat4`] on the stack — no heap allocation at
/// any point. This is the kernel behind every 4x4 `expm` call on the
/// simulation and synthesis hot paths.
pub(crate) fn expm_mat4(a: &Mat4) -> Mat4 {
    let norm = a.one_norm();
    let s = if norm > THETA13 {
        (norm / THETA13).log2().ceil() as u32
    } else {
        0
    };
    let scaled = a.scale(Complex64::real(0.5f64.powi(s as i32)));
    let mut result = pade13_mat4(&scaled);
    for _ in 0..s {
        result = result * result;
    }
    result
}

/// Computes `exp(-i h t)` for a Hermitian generator `h`; convenience wrapper
/// used by the time-evolution code. Produces a unitary by construction of
/// the Pade approximant up to rounding. 4x4 generators route through the
/// allocation-free stack kernel (`expm_mat4`).
///
/// # Examples
///
/// ```
/// use nsb_math::{expm_i_h_t, DMat};
/// let u = expm_i_h_t(&DMat::zeros(3, 3), 1.0);
/// assert!((&u - &DMat::identity(3)).norm() < 1e-14);
/// ```
pub fn expm_i_h_t(h: &DMat, t: f64) -> DMat {
    if h.rows() == 4 && h.cols() == 4 {
        return DMat::from_mat4(&expm_i_h_t_mat4(&h.to_mat4(), t));
    }
    let g = h.scale(Complex64::new(0.0, -t));
    expm_generic(&g)
}

/// `exp(-i h t)` for a Hermitian 4x4 generator, entirely on the stack.
pub(crate) fn expm_i_h_t_mat4(h: &Mat4, t: f64) -> Mat4 {
    expm_mat4(&h.scale(Complex64::new(0.0, -t)))
}

#[expect(
    clippy::expect_used,
    reason = "Pade denominator of a scaled matrix is provably nonsingular"
)]
fn pade13(a: &DMat) -> DMat {
    let n = a.rows();
    let ident = DMat::identity(n);
    let a2 = a * a;
    let a4 = &a2 * &a2;
    let a6 = &a2 * &a4;
    // U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I)
    let inner_u = &(&a6.scale(Complex64::real(B13[13])) + &a4.scale(Complex64::real(B13[11])))
        + &a2.scale(Complex64::real(B13[9]));
    let u_poly = &(&(&(&a6 * &inner_u) + &a6.scale(Complex64::real(B13[7])))
        + &a4.scale(Complex64::real(B13[5])))
        + &(&a2.scale(Complex64::real(B13[3])) + &ident.scale(Complex64::real(B13[1])));
    let u = a * &u_poly;
    // V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
    let inner_v = &(&a6.scale(Complex64::real(B13[12])) + &a4.scale(Complex64::real(B13[10])))
        + &a2.scale(Complex64::real(B13[8]));
    let v = &(&(&(&a6 * &inner_v) + &a6.scale(Complex64::real(B13[6])))
        + &a4.scale(Complex64::real(B13[4])))
        + &(&a2.scale(Complex64::real(B13[2])) + &ident.scale(Complex64::real(B13[0])));
    // expm = (V - U)^{-1} (V + U)
    let lhs = &v - &u;
    let rhs = &v + &u;
    lhs.solve(&rhs).expect("Pade denominator is nonsingular")
}

/// Degree-13 Pade approximant specialized to [`Mat4`]: identical polynomial
/// and solve as [`pade13`], with all intermediates on the stack.
fn pade13_mat4(a: &Mat4) -> Mat4 {
    let b = |i: usize| Complex64::real(B13[i]);
    let ident = Mat4::identity();
    let a2 = *a * *a;
    let a4 = a2 * a2;
    let a6 = a2 * a4;
    // U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I)
    let inner_u = a6.scale(b(13)) + a4.scale(b(11)) + a2.scale(b(9));
    let u_poly =
        a6 * inner_u + a6.scale(b(7)) + a4.scale(b(5)) + (a2.scale(b(3)) + ident.scale(b(1)));
    let u = *a * u_poly;
    // V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
    let inner_v = a6.scale(b(12)) + a4.scale(b(10)) + a2.scale(b(8));
    let v = a6 * inner_v + a6.scale(b(6)) + a4.scale(b(4)) + (a2.scale(b(2)) + ident.scale(b(0)));
    // expm = (V - U)^{-1} (V + U)
    solve4(v - u, v + u)
}

/// Solves the 4x4 system `a X = rhs` by Gaussian elimination with partial
/// pivoting, mirroring [`DMat::solve`] on stack storage. The only caller
/// passes a Pade denominator, which is provably nonsingular, so a pivot
/// underflow falls back to the identity only to keep the function total
/// (it cannot happen for the inputs this module produces).
fn solve4(a: Mat4, rhs: Mat4) -> Mat4 {
    let mut a = a;
    let mut x = rhs;
    for col in 0..4 {
        // Partial pivot.
        let mut piv = col;
        let mut best = a.at(col, col).abs();
        for r in (col + 1)..4 {
            let v = a.at(r, col).abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-300 {
            return Mat4::identity(); // unreachable for Pade denominators
        }
        if piv != col {
            for c in 0..4 {
                let t = a.at(col, c);
                a[(col, c)] = a.at(piv, c);
                a[(piv, c)] = t;
                let t = x.at(col, c);
                x[(col, c)] = x.at(piv, c);
                x[(piv, c)] = t;
            }
        }
        let inv = a.at(col, col).inv();
        for r in (col + 1)..4 {
            let f = a.at(r, col) * inv;
            if f == Complex64::ZERO {
                continue;
            }
            for c in col..4 {
                let v = a.at(col, c);
                a[(r, c)] -= f * v;
            }
            for c in 0..4 {
                let v = x.at(col, c);
                x[(r, c)] -= f * v;
            }
        }
    }
    // Back substitution.
    for col in (0..4).rev() {
        let inv = a.at(col, col).inv();
        for c in 0..4 {
            let mut acc = x.at(col, c);
            for k in (col + 1)..4 {
                acc -= a.at(col, k) * x.at(k, c);
            }
            x[(col, c)] = acc * inv;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigh;

    /// `exp(a)` for any square matrix: 4x4 inputs go through the stack
    /// kernel, every other size through the generic path.
    fn expm(a: &DMat) -> DMat {
        if a.rows() == 4 {
            return DMat::from_mat4(&expm_mat4(&a.to_mat4()));
        }
        expm_generic(a)
    }

    #[test]
    fn exp_zero_is_identity() {
        assert!(expm(&DMat::zeros(4, 4)).approx_eq(&DMat::identity(4), 1e-13));
    }

    #[test]
    fn exp_diagonal() {
        let d = DMat::from_diag(&[
            Complex64::real(1.0),
            Complex64::real(-2.0),
            Complex64::imag(0.5),
        ]);
        let e = expm(&d);
        assert!((e[(0, 0)] - Complex64::real(1f64.exp())).abs() < 1e-12);
        assert!((e[(1, 1)] - Complex64::real((-2f64).exp())).abs() < 1e-12);
        assert!((e[(2, 2)] - Complex64::cis(0.5)).abs() < 1e-12);
    }

    #[test]
    fn exp_of_anti_hermitian_is_unitary() {
        let mut h = DMat::zeros(5, 5);
        for r in 0..5 {
            for c in 0..5 {
                let re = ((r * 3 + c) % 7) as f64;
                let im = if r == c {
                    0.0
                } else {
                    ((r + 2 * c) % 5) as f64
                };
                h[(r, c)] = Complex64::new(re, im);
            }
        }
        let ha = h.adjoint();
        let herm = (&h + &ha).scale(Complex64::real(0.5));
        let u = expm_i_h_t(&herm, 0.77);
        assert!(u.is_unitary(1e-11));
    }

    #[test]
    fn matches_eig_based_exponential() {
        let mut h = DMat::zeros(6, 6);
        for r in 0..6 {
            for c in 0..6 {
                let re = ((r * 5 + c * 3) % 11) as f64 / 3.0;
                let im = if r == c {
                    0.0
                } else {
                    ((r * 2 + c) % 7) as f64 / 4.0
                };
                h[(r, c)] = Complex64::new(re, im);
            }
        }
        let ha = h.adjoint();
        let herm = (&h + &ha).scale(Complex64::real(0.5));
        let t = 1.3;
        let via_pade = expm_i_h_t(&herm, t);
        let via_eig = eigh(&herm).map(|lam| Complex64::cis(-lam * t));
        assert!(via_pade.approx_eq(&via_eig, 1e-9));
    }

    #[test]
    fn large_norm_triggers_scaling() {
        // Norm >> theta13 exercises the squaring branch.
        let h = DMat::from_diag(&[Complex64::real(40.0), Complex64::real(-35.0)]);
        let e = expm(&h.scale(Complex64::imag(-1.0)));
        assert!((e[(0, 0)] - Complex64::cis(-40.0)).abs() < 1e-9);
        assert!((e[(1, 1)] - Complex64::cis(35.0)).abs() < 1e-9);
    }

    #[test]
    fn additivity_for_commuting() {
        let d1 = DMat::from_diag(&[Complex64::imag(0.4), Complex64::imag(-0.9)]);
        let d2 = DMat::from_diag(&[Complex64::imag(1.1), Complex64::imag(0.3)]);
        let sum = &d1 + &d2;
        let lhs = expm(&sum);
        let rhs = &expm(&d1) * &expm(&d2);
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn mat4_kernel_exp_zero_is_identity() {
        assert!(expm_mat4(&Mat4::zero()).approx_eq(&Mat4::identity(), 1e-14));
    }

    #[test]
    fn mat4_kernel_is_unitary_for_anti_hermitian() {
        let mut h = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                let re = ((r * 3 + c) % 7) as f64 / 2.0;
                let im = if r == c {
                    0.0
                } else {
                    ((r + 2 * c) % 5) as f64 / 3.0
                };
                h[(r, c)] = Complex64::new(re, im);
            }
        }
        let herm = (h + h.adjoint()).scale(Complex64::real(0.5));
        let u = expm_i_h_t_mat4(&herm, 0.77);
        assert!(u.is_unitary(1e-12));
        // The dispatching DMat entry points agree with the kernel.
        let d = DMat::from_mat4(&herm);
        assert!(expm_i_h_t(&d, 0.77).to_mat4().approx_eq(&u, 1e-13));
    }

    #[test]
    fn mat4_kernel_squaring_branch_matches_generic() {
        // Norm >> theta13 exercises scaling-and-squaring in both paths.
        let mut h = Mat4::zero();
        for i in 0..4 {
            h[(i, i)] =
                Complex64::real(25.0 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let g = h.scale(Complex64::imag(-1.0));
        let via_mat4 = expm_mat4(&g);
        let via_generic = expm_generic(&DMat::from_mat4(&g));
        assert!(via_generic.to_mat4().approx_eq(&via_mat4, 1e-9));
        assert!((via_mat4.at(0, 0) - Complex64::cis(-25.0)).abs() < 1e-9);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        /// A random anti-Hermitian 4x4 built from 16 uniform draws:
        /// real diagonal made purely imaginary, off-diagonals paired as
        /// `a_ij = -conj(a_ji)`.
        fn anti_hermitian(seed: [f64; 16], scale: f64) -> Mat4 {
            let mut m = Mat4::zero();
            for i in 0..4 {
                m[(i, i)] = Complex64::imag(scale * seed[i]);
            }
            let mut idx = 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let z = Complex64::new(scale * seed[idx], scale * seed[(idx + 5) % 16]);
                    m[(i, j)] = z;
                    m[(j, i)] = -z.conj();
                    idx += 1;
                }
            }
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn expm_mat4_matches_generic_on_anti_hermitian(
                a in -1.0f64..1.0, b in -1.0f64..1.0, c in -1.0f64..1.0, d in -1.0f64..1.0,
            ) {
                // Expand four uniform draws into 16 deterministic values.
                let mut seed = [0.0f64; 16];
                for (k, s) in seed.iter_mut().enumerate() {
                    let base = [a, b, c, d][k % 4];
                    *s = (base * (k as f64 + 1.0) * 0.37).sin();
                }
                // Cover both the direct and the scaling-and-squaring branch.
                for scale in [0.8, 9.5] {
                    let m = anti_hermitian(seed, scale);
                    let fast = expm_mat4(&m);
                    let reference = expm_generic(&DMat::from_mat4(&m)).to_mat4();
                    let dist = (fast - reference).norm();
                    prop_assert!(
                        dist < 1e-12,
                        "expm_mat4 deviates from generic expm by {dist:.3e} at scale {scale}"
                    );
                    prop_assert!(fast.is_unitary(1e-11));
                }
            }
        }
    }
}
