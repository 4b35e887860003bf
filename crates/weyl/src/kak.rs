//! Cartan coordinate extraction (the "KAK vector") and Makhlin local
//! invariants.
//!
//! The algorithm works in the magic (Bell) basis, where local gates become
//! real orthogonal matrices and the canonical gate becomes diagonal. For
//! `U = k1 A(x,y,z) k2` in SU(4), the matrix `m = M^T M` with
//! `M = B^dag U B` has spectrum `{exp(-i pi (x,y,z) . d_j)}` for four fixed
//! sign patterns `d_j` that sum to zero. The coordinates follow in closed
//! form (Cross et al., arXiv:1811.12926, appendix; Tucci,
//! arXiv:quant-ph/0507171): remove the multiple of 2 pi by which the
//! eigenphases sum from one phase, then `t = -sum_j phi_j d_j / 4 pi`. The
//! unknown pairing of phases with sign patterns permutes the `d_j`, which
//! moves `t` by a permutation with pair sign flips; each phase's 2 pi
//! branch moves it by an integer vector. [`WeylCoord::canonicalize`]
//! removes both.

use crate::coord::WeylCoord;
use nsb_math::{eigh, Complex64, DMat, Mat4};
use std::f64::consts::{PI, TAU};

/// The magic-basis change matrix `B` (columns are phased Bell states).
pub(crate) fn magic_basis() -> Mat4 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let r = Complex64::real(s);
    let i = Complex64::imag(s);
    let o = Complex64::ZERO;
    Mat4::from_rows([[r, o, o, i], [o, i, r, o], [o, i, -r, o], [r, o, o, -i]])
}

/// Sign patterns of XX, YY, ZZ on the magic-basis diagonal: row `j` is
/// `(d_x[j], d_y[j], d_z[j])`.
const D: [[f64; 3]; 4] = [
    [1.0, -1.0, 1.0],
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
    [-1.0, 1.0, 1.0],
];

/// Makhlin-style local invariants `(g1, g2, g3)` of a two-qubit gate.
///
/// Two gates are locally equivalent iff their invariant triples agree.
/// `g1 + i g2 = tr^2(m) / (16 det U)` and
/// `g3 = (tr^2(m) - tr(m^2)) / (4 det U)` with `m = M^T M` in the magic
/// basis.
///
/// # Examples
///
/// ```
/// use nsb_weyl::local_invariants;
/// use nsb_math::Mat4;
/// let (g1, g2, g3) = local_invariants(&Mat4::cnot());
/// assert!((g1 - 0.0).abs() < 1e-12 && g2.abs() < 1e-12 && (g3 - 1.0).abs() < 1e-12);
/// ```
pub fn local_invariants(u: &Mat4) -> (f64, f64, f64) {
    let b = magic_basis();
    let m_big = b.adjoint() * *u * b;
    let m = m_big.transpose() * m_big;
    let det = u.det();
    let tr = m.trace();
    let tr2 = tr * tr;
    let m2 = m * m;
    let g12 = tr2 * det.inv() / 16.0;
    let g3 = (tr2 - m2.trace()) * det.inv() / 4.0;
    (g12.re, g12.im, g3.re)
}

/// Tests local equivalence of two gates by comparing invariants: the
/// tests' oracle for [`kak_vector`] and [`canonical_gate`].
#[cfg(test)]
pub(crate) fn locally_equivalent(u: &Mat4, v: &Mat4, tol: f64) -> bool {
    let a = local_invariants(u);
    let b = local_invariants(v);
    (a.0 - b.0).abs() <= tol && (a.1 - b.1).abs() <= tol && (a.2 - b.2).abs() <= tol
}

/// Computes the canonical Cartan coordinates of a two-qubit unitary.
///
/// The result lies inside the Weyl chamber (see [`WeylCoord`]). `u` must
/// be unitary within `1e-6` (Frobenius norm of `u u† − I`); the
/// coordinates are those of its nearest unitary, so such an input never
/// panics. Outside that domain the result is unspecified.
///
/// # Examples
///
/// ```
/// use nsb_weyl::{kak_vector, WeylCoord};
/// use nsb_math::Mat4;
/// let c = kak_vector(&Mat4::cnot());
/// assert!(c.dist(WeylCoord::CNOT) < 1e-9);
/// ```
pub fn kak_vector(u: &Mat4) -> WeylCoord {
    let mut phis = magic_eigenphases(u);
    // The sign patterns sum to zero, so the phases of an SU(4) gate sum
    // to a multiple of 2 pi; removing it from one phase fixes the branch.
    let turns = (phis.iter().sum::<f64>() / TAU).round();
    phis[0] -= turns * TAU;
    // Columns of D are orthogonal with norm^2 = 4 and orthogonal to
    // (1, 1, 1, 1), so this solves phi_j = -pi (t . d_j) for all four j.
    let mut t = [0.0f64; 3];
    for (k, tk) in t.iter_mut().enumerate() {
        let acc: f64 = (0..4).map(|j| phis[j] * D[j][k]).sum();
        *tk = -acc / (4.0 * PI);
    }
    WeylCoord::new(t[0], t[1], t[2]).canonicalize()
}

/// The four eigenphases of `m = M^T M`, `M = B^dag U B`, where `U` is the
/// SU(4) projection of `u` (its nearest unitary with the determinant's
/// phase divided out), in no particular order.
///
/// Phase `phi_j` is `-pi (x, y, z) . d_j` modulo 2 pi for an assignment of
/// the phases to the sign patterns `d_j` that is unknown here; both
/// [`kak_vector`] and the verifier's independent recomputation start from
/// these phases.
pub fn magic_eigenphases(u: &Mat4) -> [f64; 4] {
    let (su, _alpha) = u.nearest_unitary().to_su4();
    let b = magic_basis();
    let m_big = b.adjoint() * su * b;
    let m = m_big.transpose() * m_big;
    symmetric_unitary_eigenvalues(&m).map(|l| l.arg())
}

/// Eigenvalues of a complex *symmetric unitary* 4x4 matrix.
///
/// Such a matrix satisfies `m = R + iS` with commuting real symmetric `R`,
/// `S`; a generic real combination `R + mu S` shares an orthogonal
/// eigenbasis, which also diagonalizes `m`.
///
/// A probe `mu = tan(theta)` fails only for two distinct eigenvalues whose
/// half-angle sum `(phi_j + phi_k) / 2` is `theta` modulo pi. For `det m = 1`
/// those sums come in three pairs `±h`, and no two of the probes (all
/// positive) are such a pair, so at most three of the five can fail. The
/// probe whose eigenbasis leaves the smallest off-diagonal part of `m`
/// gives the eigenvalues.
fn symmetric_unitary_eigenvalues(m: &Mat4) -> [Complex64; 4] {
    // Arbitrary generic probe values; 0.318309 happens to approximate
    // 1/pi, which is irrelevant here but trips clippy::approx_constant.
    #[allow(clippy::approx_constant)]
    let mus = [0.739085, 1.246979, 0.318309, 2.071723, 0.577215];
    let md = DMat::from_mat4(m);
    let mut best = (f64::INFINITY, [Complex64::ZERO; 4]);
    for &mu in &mus {
        let mut k = DMat::zeros(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                let z = m.at(r, c);
                k[(r, c)] = Complex64::real(z.re + mu * z.im);
            }
        }
        // Symmetrize tiny asymmetries and diagonalize.
        let ka = k.adjoint();
        let ks = (&k + &ka).scale(Complex64::real(0.5));
        let e = eigh(&ks);
        // Check how well the eigenbasis diagonalizes m itself.
        let q = &e.vectors;
        let diag = &(&q.adjoint() * &md) * q;
        let mut off = 0.0f64;
        for r in 0..4 {
            for c in 0..4 {
                if r != c {
                    off = off.max(diag[(r, c)].abs());
                }
            }
        }
        if off < best.0 || best.0.is_infinite() {
            best = (
                off,
                [diag[(0, 0)], diag[(1, 1)], diag[(2, 2)], diag[(3, 3)]],
            );
        }
        if off < 1e-8 {
            break;
        }
    }
    best.1
}

/// Returns the canonical gate representative of a coordinate triple,
/// `exp(-i pi/2 (x XX + y YY + z ZZ))`.
pub fn canonical_gate(c: WeylCoord) -> Mat4 {
    Mat4::canonical(c.x, c.y, c.z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::{haar_su2, haar_u4, Mat2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn magic_basis_is_unitary() {
        assert!(magic_basis().is_unitary(1e-12));
    }

    #[test]
    fn magic_basis_diagonalizes_pauli_products() {
        let b = magic_basis();
        let pairs = [
            (Mat2::x(), [1.0, 1.0, -1.0, -1.0]),
            (Mat2::y(), [-1.0, 1.0, -1.0, 1.0]),
            (Mat2::z(), [1.0, -1.0, -1.0, 1.0]),
        ];
        for (p, expected) in pairs {
            let pp = Mat4::kron(&p, &p);
            let d = b.adjoint() * pp * b;
            for (r, &want) in expected.iter().enumerate() {
                for c in 0..4 {
                    if r == c {
                        assert!(
                            (d.at(r, c) - Complex64::real(want)).abs() < 1e-12,
                            "diag mismatch {r}"
                        );
                    } else {
                        assert!(d.at(r, c).abs() < 1e-12, "off-diag at ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn locals_are_orthogonal_in_magic_basis() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = magic_basis();
        for _ in 0..10 {
            let l = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
            let o = b.adjoint() * l * b;
            // Real orthogonal: o * o^T = I and entries are real up to phase.
            let prod = o * o.transpose();
            assert!(prod.approx_eq_up_to_phase(&Mat4::identity(), 1e-7));
        }
    }

    #[test]
    fn kak_vector_of_named_gates() {
        let cases = [
            (Mat4::identity(), WeylCoord::IDENTITY),
            (Mat4::cnot(), WeylCoord::CNOT),
            (Mat4::cz(), WeylCoord::CNOT),
            (Mat4::iswap(), WeylCoord::ISWAP),
            (Mat4::swap(), WeylCoord::SWAP),
            (Mat4::sqrt_iswap(), WeylCoord::SQRT_ISWAP),
            (Mat4::sqrt_swap(), WeylCoord::SQRT_SWAP),
            (Mat4::b_gate(), WeylCoord::B_GATE),
            (Mat4::cphase(std::f64::consts::PI), WeylCoord::CNOT),
        ];
        for (u, expected) in cases {
            let c = kak_vector(&u);
            assert!(c.dist(expected) < 1e-7, "got {c}, expected {expected}");
        }
    }

    #[test]
    fn kak_vector_invariant_under_locals() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let u = haar_u4(&mut rng);
            let c0 = kak_vector(&u);
            let l1 = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
            let l2 = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
            let c1 = kak_vector(&(l1 * u * l2));
            assert!(c0.dist(c1) < 1e-6, "{c0} vs {c1}");
        }
    }

    #[test]
    fn kak_vector_round_trip_from_canonical() {
        let mut rng = StdRng::seed_from_u64(6);
        use rand::Rng;
        for _ in 0..40 {
            // Sample a random point and canonicalize it first.
            let p = WeylCoord::new(
                rng.gen::<f64>(),
                rng.gen::<f64>() * 0.5,
                rng.gen::<f64>() * 0.5,
            )
            .canonicalize();
            let u = canonical_gate(p);
            let c = kak_vector(&u);
            assert!(c.dist(p) < 1e-6, "expected {p}, got {c}");
        }
    }

    #[test]
    fn kak_vector_is_total_on_noisy_unitaries() {
        // Uniform entry noise of 1e-7 used to defeat every eigensolver
        // probe of the unprojected input, and the search then panicked.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2000 {
            let u = haar_u4(&mut rng);
            let mut noisy = u;
            for r in 0..4 {
                for c in 0..4 {
                    let re = 1e-7 * (2.0 * rng.gen::<f64>() - 1.0);
                    let im = 1e-7 * (2.0 * rng.gen::<f64>() - 1.0);
                    noisy[(r, c)] += Complex64::new(re, im);
                }
            }
            assert!(noisy.is_unitary(1e-6), "noise stays inside the domain");
            let (clean, off) = (kak_vector(&u), kak_vector(&noisy));
            assert!(clean.class_dist(off) <= 1e-6, "{clean} vs {off}");
        }
    }

    #[test]
    fn invariant_anchors() {
        let id = local_invariants(&Mat4::identity());
        assert!((id.0 - 1.0).abs() < 1e-12 && id.1.abs() < 1e-12 && (id.2 - 3.0).abs() < 1e-12);
        let sw = local_invariants(&Mat4::swap());
        assert!((sw.0 + 1.0).abs() < 1e-12 && sw.1.abs() < 1e-12 && (sw.2 + 3.0).abs() < 1e-12);
        let isw = local_invariants(&Mat4::iswap());
        assert!(isw.0.abs() < 1e-12 && isw.1.abs() < 1e-12 && (isw.2 + 1.0).abs() < 1e-12);
    }

    #[test]
    fn invariants_detect_local_equivalence() {
        let mut rng = StdRng::seed_from_u64(7);
        let u = haar_u4(&mut rng);
        let l1 = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let l2 = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        assert!(locally_equivalent(&u, &(l1 * u * l2), 1e-8));
        assert!(!locally_equivalent(&Mat4::cnot(), &Mat4::swap(), 1e-8));
    }

    #[test]
    fn canonical_gate_matches_coordinates() {
        let p = WeylCoord::new(0.31, 0.17, 0.05);
        let u = canonical_gate(p);
        assert!(locally_equivalent(
            &u,
            &canonical_gate(p.canonicalize()),
            1e-8
        ));
    }
}
