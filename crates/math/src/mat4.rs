//! Fixed-size 4x4 complex matrices and standard two-qubit gates.

use crate::complex::Complex64;
use crate::mat2::Mat2;
use crate::smat::SMat;

/// A dense 4x4 complex matrix, the workhorse type for two-qubit (2Q) gates.
///
/// Basis ordering is `|q1 q0>` little-endian-free: the row index is
/// `2 * a + b` for qubit states `|a b>`, matching the usual textbook
/// convention where `kron(A, B)` acts with `A` on the first qubit.
///
/// # Examples
///
/// ```
/// use nsb_math::Mat4;
/// let swap = Mat4::swap();
/// assert!((swap * swap).approx_eq(&Mat4::identity(), 1e-15));
/// ```
pub type Mat4 = SMat<4>;

impl Mat4 {
    /// Kronecker product of two single-qubit operators: `a` acts on the
    /// first qubit, `b` on the second.
    pub fn kron(a: &Mat2, b: &Mat2) -> Mat4 {
        let mut m = Mat4::zero();
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        m.e[2 * i + k][2 * j + l] = a.at(i, j) * b.at(k, l);
                    }
                }
            }
        }
        m
    }

    /// CNOT with the first qubit as control.
    pub fn cnot() -> Mat4 {
        let mut m = Mat4::identity();
        m.e[2][2] = Complex64::ZERO;
        m.e[3][3] = Complex64::ZERO;
        m.e[2][3] = Complex64::ONE;
        m.e[3][2] = Complex64::ONE;
        m
    }

    /// Controlled-Z.
    pub fn cz() -> Mat4 {
        let mut m = Mat4::identity();
        m.e[3][3] = -Complex64::ONE;
        m
    }

    /// SWAP gate.
    pub fn swap() -> Mat4 {
        let mut m = Mat4::zero();
        m.e[0][0] = Complex64::ONE;
        m.e[1][2] = Complex64::ONE;
        m.e[2][1] = Complex64::ONE;
        m.e[3][3] = Complex64::ONE;
        m
    }

    /// iSWAP gate.
    pub fn iswap() -> Mat4 {
        let mut m = Mat4::zero();
        m.e[0][0] = Complex64::ONE;
        m.e[1][2] = Complex64::I;
        m.e[2][1] = Complex64::I;
        m.e[3][3] = Complex64::ONE;
        m
    }

    /// Square root of iSWAP.
    pub fn sqrt_iswap() -> Mat4 {
        let s = Complex64::real(std::f64::consts::FRAC_1_SQRT_2);
        let is = Complex64::imag(std::f64::consts::FRAC_1_SQRT_2);
        let mut m = Mat4::zero();
        m.e[0][0] = Complex64::ONE;
        m.e[1][1] = s;
        m.e[2][2] = s;
        m.e[1][2] = is;
        m.e[2][1] = is;
        m.e[3][3] = Complex64::ONE;
        m
    }

    /// Square root of SWAP.
    pub fn sqrt_swap() -> Mat4 {
        let p = Complex64::new(0.5, 0.5);
        let q = Complex64::new(0.5, -0.5);
        let mut m = Mat4::zero();
        m.e[0][0] = Complex64::ONE;
        m.e[1][1] = p;
        m.e[2][2] = p;
        m.e[1][2] = q;
        m.e[2][1] = q;
        m.e[3][3] = Complex64::ONE;
        m
    }

    /// Controlled phase gate `diag(1, 1, 1, e^{i lambda})`.
    pub fn cphase(lambda: f64) -> Mat4 {
        let mut m = Mat4::identity();
        m.e[3][3] = Complex64::cis(lambda);
        m
    }

    /// `exp(-i theta/2 Z (x) Z)` two-qubit ZZ rotation.
    pub fn rzz(theta: f64) -> Mat4 {
        let m = Complex64::cis(-theta / 2.0);
        let p = Complex64::cis(theta / 2.0);
        let mut out = Mat4::zero();
        out.e[0][0] = m;
        out.e[1][1] = p;
        out.e[2][2] = p;
        out.e[3][3] = m;
        out
    }

    /// The B gate, `canonical(1/2, 1/4, 0)`: synthesizes any 2Q gate in two
    /// layers (Zhang et al., PRL 93, 020502).
    pub fn b_gate() -> Mat4 {
        Mat4::canonical(0.5, 0.25, 0.0)
    }

    /// The canonical gate
    /// `exp(-i pi/2 (tx X(x)X + ty Y(x)Y + tz Z(x)Z))`
    /// whose Cartan coordinates are `(tx, ty, tz)`.
    ///
    /// The three terms commute, so the result is the product of three
    /// closed-form exponentials.
    pub fn canonical(tx: f64, ty: f64, tz: f64) -> Mat4 {
        let xx = Mat4::kron(&Mat2::x(), &Mat2::x());
        let yy = Mat4::kron(&Mat2::y(), &Mat2::y());
        let zz = Mat4::kron(&Mat2::z(), &Mat2::z());
        let term = |p: &Mat4, t: f64| -> Mat4 {
            let a = std::f64::consts::FRAC_PI_2 * t;
            let c = Complex64::real(a.cos());
            let s = Complex64::imag(-a.sin());
            Mat4::identity().scale(c) + p.scale(s)
        };
        term(&xx, tx) * term(&yy, ty) * term(&zz, tz)
    }

    /// Determinant by cofactor expansion (exact for 4x4).
    pub fn det(&self) -> Complex64 {
        let m = &self.e;
        let det3 = |r: [usize; 3], c: [usize; 3]| -> Complex64 {
            m[r[0]][c[0]] * (m[r[1]][c[1]] * m[r[2]][c[2]] - m[r[1]][c[2]] * m[r[2]][c[1]])
                - m[r[0]][c[1]] * (m[r[1]][c[0]] * m[r[2]][c[2]] - m[r[1]][c[2]] * m[r[2]][c[0]])
                + m[r[0]][c[2]] * (m[r[1]][c[0]] * m[r[2]][c[1]] - m[r[1]][c[1]] * m[r[2]][c[0]])
        };
        let rows = [1, 2, 3];
        let cols = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]];
        let mut acc = Complex64::ZERO;
        let mut sign = 1.0;
        for (j, c) in cols.iter().enumerate() {
            acc += m[0][j] * det3(rows, *c) * sign;
            sign = -sign;
        }
        acc
    }

    /// Rescales a near-unitary matrix into SU(4) and returns the removed
    /// global phase `alpha` such that `self = e^{i alpha} su4`.
    pub fn to_su4(&self) -> (Mat4, f64) {
        let alpha = self.det().arg() / 4.0;
        (self.scale(Complex64::cis(-alpha)), alpha)
    }

    /// Attempts to factor `self` as `kron(a, b)` with unitary `a`, `b`.
    ///
    /// Returns `None` when `self` is not a tensor product within `tol`.
    /// Useful for splitting local (1Q (x) 1Q) operators produced by KAK
    /// decompositions.
    pub fn kron_factor(&self, tol: f64) -> Option<(Mat2, Mat2)> {
        // Find the largest block to pivot on.
        let (mut bi, mut bj, mut best) = (0usize, 0usize, -1.0f64);
        for i in 0..2 {
            for j in 0..2 {
                let mut blk = 0.0;
                for k in 0..2 {
                    for l in 0..2 {
                        blk += self.e[2 * i + k][2 * j + l].norm_sqr();
                    }
                }
                if blk > best {
                    best = blk;
                    bi = i;
                    bj = j;
                }
            }
        }
        if best <= tol * tol {
            return None;
        }
        // b is proportional to the pivot block; rescale it to Frobenius
        // norm sqrt(2), the norm of a 2x2 unitary. The leftover phase is
        // absorbed into `a` by the overlap formula below.
        let mut b = Mat2::zero();
        for k in 0..2 {
            for l in 0..2 {
                b[(k, l)] = self.e[2 * bi + k][2 * bj + l];
            }
        }
        let b = b.scale(Complex64::real(std::f64::consts::SQRT_2 / b.norm()));
        // a from overlaps with b.
        let mut a = Mat2::zero();
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = Complex64::ZERO;
                for k in 0..2 {
                    for l in 0..2 {
                        acc += self.e[2 * i + k][2 * j + l] * b.at(k, l).conj();
                    }
                }
                a[(i, j)] = acc / 2.0;
            }
        }
        // Normalize a to be unitary-scaled correctly: rescale pair so that
        // kron(a, b) == self.
        let approx = Mat4::kron(&a, &b);
        if !approx.approx_eq(self, tol) {
            return None;
        }
        if !a.is_unitary(tol * 10.0) || !b.is_unitary(tol * 10.0) {
            return None;
        }
        Some((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_gates_unitary() {
        for g in [
            Mat4::cnot(),
            Mat4::cz(),
            Mat4::swap(),
            Mat4::iswap(),
            Mat4::sqrt_iswap(),
            Mat4::sqrt_swap(),
            Mat4::b_gate(),
            Mat4::cphase(0.7),
            Mat4::rzz(-1.3),
            Mat4::canonical(0.3, 0.2, 0.1),
        ] {
            assert!(g.is_unitary(1e-12), "{g}");
        }
    }

    #[test]
    fn sqrt_gates_square_back() {
        assert!((Mat4::sqrt_iswap() * Mat4::sqrt_iswap()).approx_eq(&Mat4::iswap(), 1e-12));
        assert!((Mat4::sqrt_swap() * Mat4::sqrt_swap()).approx_eq(&Mat4::swap(), 1e-12));
    }

    #[test]
    fn kron_matches_direct() {
        let a = Mat2::u3(0.3, 0.8, -0.2);
        let b = Mat2::u3(1.1, -0.5, 0.9);
        let k = Mat4::kron(&a, &b);
        assert!(k.is_unitary(1e-12));
        // (a (x) b)(c (x) d) = (ac (x) bd)
        let c = Mat2::rx(0.4);
        let d = Mat2::ry(0.6);
        let lhs = k * Mat4::kron(&c, &d);
        let rhs = Mat4::kron(&(a * c), &(b * d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn kron_factor_round_trip() {
        let a = Mat2::u3(0.3, 0.8, -0.2);
        let b = Mat2::u3(2.1, -0.5, 0.9);
        let k = Mat4::kron(&a, &b);
        let (fa, fb) = k.kron_factor(1e-9).expect("factorable");
        assert!(Mat4::kron(&fa, &fb).approx_eq(&k, 1e-9));
    }

    #[test]
    fn kron_factor_rejects_entangling() {
        assert!(Mat4::cnot().kron_factor(1e-9).is_none());
    }

    #[test]
    fn canonical_special_points() {
        // canonical(0,0,0) = I.
        assert!(Mat4::canonical(0.0, 0.0, 0.0).approx_eq(&Mat4::identity(), 1e-12));
        // canonical(1/2,1/2,1/2) is SWAP up to global phase.
        // Note: phase_distance is sqrt-amplified near zero, so tolerances
        // here are 1e-7 (machine epsilon under the square root).
        let c = Mat4::canonical(0.5, 0.5, 0.5);
        assert!(c.approx_eq_up_to_phase(&Mat4::swap(), 1e-7));
        // canonical(1/2,1/2,0) = exp(-i pi/4 (XX+YY)) equals iSWAP^dagger up
        // to a global phase (our canonical gate uses the -i sign convention;
        // iSWAP and its adjoint share the Weyl chamber point (1/2,1/2,0)).
        let i = Mat4::canonical(0.5, 0.5, 0.0);
        assert!(i.approx_eq_up_to_phase(&Mat4::iswap().adjoint(), 1e-7));
    }

    #[test]
    fn det_of_known() {
        assert!((Mat4::cnot().det() + Complex64::ONE).abs() < 1e-12); // det = -1
        assert!((Mat4::swap().det() + Complex64::ONE).abs() < 1e-12);
        let u = Mat4::canonical(0.2, 0.1, 0.05);
        assert!((u.det().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_distance_invariance() {
        let u = Mat4::canonical(0.3, 0.2, 0.1);
        let v = u.scale(Complex64::cis(1.234));
        assert!(u.phase_distance(&v) < 1e-12);
        assert!(u.approx_eq_up_to_phase(&v, 1e-10));
    }
}
