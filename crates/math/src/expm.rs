//! Matrix exponential via Pade approximation with scaling and squaring.
//!
//! This follows the classic Higham degree-13 scheme used by SciPy/Expokit,
//! restricted to the modest matrix sizes this workspace needs (the 10
//! transmon-coupler-transmon states with at most two excitations, or 7
//! for two-level models).
//!
//! One heap-backed implementation serves every dimension. Its only
//! production caller is the pulse stepper's constructor, so no `exp` runs
//! per time step.

use crate::complex::Complex64;
use crate::dmat::DMat;

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

/// `exp(a)` for any square matrix.
///
/// # Panics
///
/// Panics when `a` is not square, or (in the astronomically unlikely event)
/// the internal Pade solve encounters a singular system.
fn expm(a: &DMat) -> DMat {
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

/// Computes `exp(-i h t)` for a Hermitian generator `h`; convenience wrapper
/// used by the time-evolution code. Produces a unitary by construction of
/// the Pade approximant up to rounding.
///
/// # Examples
///
/// ```
/// use nsb_math::{expm_i_h_t, DMat};
/// let u = expm_i_h_t(&DMat::zeros(3, 3), 1.0);
/// assert!((&u - &DMat::identity(3)).norm() < 1e-14);
/// ```
pub fn expm_i_h_t(h: &DMat, t: f64) -> DMat {
    let g = h.scale(Complex64::new(0.0, -t));
    expm(&g)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigh;

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
}
