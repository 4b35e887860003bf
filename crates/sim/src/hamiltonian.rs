//! Construction of the three-mode Hamiltonian of Appendix A:
//!
//! ```text
//! H(t) = H_a + H_b + H_c(t) + H_g
//! H_x  = omega_x x^dag x + alpha_x/2 x^dag x^dag x x
//! H_g  = -( g_ab a^dag b + g_bc b^dag c + g_ca c^dag a + h.c. )
//! H_c(t) has omega_c(t) = omega_c + delta sin(omega_d t)
//! ```
//!
//! Mode ordering is `(a, b, c)` with basis index `(n_a * L + n_b) * L + n_c`
//! for `L` levels per mode.

use crate::params::UnitCellParams;
use nsb_math::{Complex64, DMat};

/// Pre-assembled operator pieces of the unit-cell Hamiltonian, so the
/// time-dependent part is a cheap diagonal update.
#[derive(Clone, Debug)]
pub(crate) struct UnitCellHamiltonian {
    /// The static Hamiltonian at the DC bias point (drive off).
    pub(crate) h_static: DMat,
    /// Coupler number operator `c^dag c` (diagonal), the operator the
    /// drive modulates.
    pub(crate) n_c: DMat,
    /// Hilbert-space dimension.
    pub(crate) dim: usize,
    levels: usize,
}

/// The terms of the static Hamiltonian that do not depend on the coupler
/// bias `omega_c`, assembled once so a bias scan adds only the coupler
/// term per trial bias.
#[derive(Clone, Debug)]
pub(crate) struct CellTerms {
    /// `H_a + H_b`.
    qubits: DMat,
    /// Coupler number operator `c^dag c`.
    n_c: DMat,
    /// `c^dag c^dag c c`, the coupler anharmonicity operator.
    n2_c: DMat,
    /// The three exchange couplings `ab`, `bc`, `ca`, in summation order.
    couplings: [DMat; 3],
    alpha_c: f64,
    levels: usize,
}

impl CellTerms {
    /// Assembles every term except the coupler's frequency.
    pub(crate) fn new(params: &UnitCellParams) -> Self {
        let l = params.levels;
        let a = destroy(l);
        let ident = DMat::identity(l);
        // Mode embeddings: a (x) 1 (x) 1, 1 (x) b (x) 1, 1 (x) 1 (x) c.
        let op_a = a.kron(&ident).kron(&ident);
        let op_b = ident.kron(&a).kron(&ident);
        let op_c = ident.kron(&ident).kron(&a);
        let number = |op: &DMat| &op.adjoint() * op;
        let pairs = |op: &DMat| &(&op.adjoint() * &op.adjoint()) * &(op * op);
        let mode_h = |op: &DMat, omega: f64, alpha: f64| -> DMat {
            &number(op).scale(Complex64::real(omega))
                + &pairs(op).scale(Complex64::real(alpha / 2.0))
        };
        let qubits = &mode_h(&op_a, params.omega_a, params.alpha_a)
            + &mode_h(&op_b, params.omega_b, params.alpha_b);
        let couple = |x: &DMat, y: &DMat, g: f64| -> DMat {
            let xy = &x.adjoint() * y;
            let yx = &y.adjoint() * x;
            (&xy + &yx).scale(Complex64::real(-g))
        };
        CellTerms {
            qubits,
            n_c: number(&op_c),
            n2_c: pairs(&op_c),
            couplings: [
                couple(&op_a, &op_b, params.g_ab),
                couple(&op_b, &op_c, params.g_bc),
                couple(&op_c, &op_a, params.g_ca),
            ],
            alpha_c: params.alpha_c,
            levels: l,
        }
    }

    /// The Hamiltonian with the coupler biased at `omega_c`, summed
    /// `((H_a + H_b) + H_c) + H_g` term by term in a fixed order, so every
    /// bias gets the bits a from-scratch assembly would.
    pub(crate) fn at_bias(&self, omega_c: f64) -> UnitCellHamiltonian {
        let coupler = &self.n_c.scale(Complex64::real(omega_c))
            + &self.n2_c.scale(Complex64::real(self.alpha_c / 2.0));
        let mut h = &self.qubits + &coupler;
        for g in &self.couplings {
            h = &h + g;
        }
        UnitCellHamiltonian {
            h_static: h,
            n_c: self.n_c.clone(),
            dim: self.levels.pow(3),
            levels: self.levels,
        }
    }
}

impl UnitCellHamiltonian {
    /// Assembles the Hamiltonian pieces for the given parameters.
    pub(crate) fn new(params: &UnitCellParams) -> Self {
        CellTerms::new(params).at_bias(params.omega_c)
    }

    /// Index of the bare product state `|n_a, n_b, n_c>`.
    ///
    /// # Panics
    ///
    /// Panics when any occupation is out of range.
    pub(crate) fn bare_index(&self, n_a: usize, n_b: usize, n_c: usize) -> usize {
        assert!(n_a < self.levels && n_b < self.levels && n_c < self.levels);
        (n_a * self.levels + n_b) * self.levels + n_c
    }

    /// The Hamiltonian at time `t` under a drive, `H_static + delta
    /// sin(omega_d t) n_c`: the tests' reference for the split-step
    /// propagator.
    #[cfg(test)]
    pub(crate) fn at_time(&self, delta: f64, omega_d: f64, t: f64) -> DMat {
        let s = delta * (omega_d * t).sin();
        &self.h_static + &self.n_c.scale(Complex64::real(s))
    }
}

/// Bosonic annihilation operator truncated to `levels` levels.
pub(crate) fn destroy(levels: usize) -> DMat {
    let mut m = DMat::zeros(levels, levels);
    for n in 1..levels {
        m[(n - 1, n)] = Complex64::real((n as f64).sqrt());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ghz;

    #[test]
    fn destroy_operator_algebra() {
        let a = destroy(3);
        let n = &a.adjoint() * &a;
        // n|1> = 1|1>, n|2> = 2|2>
        assert!((n[(1, 1)].re - 1.0).abs() < 1e-15);
        assert!((n[(2, 2)].re - 2.0).abs() < 1e-15);
        // [a, a^dag] = 1 on the non-truncated block.
        let comm = &(&a * &a.adjoint()) - &(&a.adjoint() * &a);
        assert!((comm[(0, 0)].re - 1.0).abs() < 1e-15);
        assert!((comm[(1, 1)].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        assert!(h.h_static.is_hermitian(1e-9));
        assert_eq!(h.h_static.rows(), 27);
        assert!(h.at_time(ghz(0.05), ghz(2.0), 0.37).is_hermitian(1e-9));
    }

    #[test]
    fn bare_energies_roughly_match_diagonal() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        let i100 = h.bare_index(1, 0, 0);
        let e = h.h_static[(i100, i100)].re;
        assert!((e - p.omega_a).abs() < 1e-9);
        let i010 = h.bare_index(0, 1, 0);
        assert!((h.h_static[(i010, i010)].re - p.omega_b).abs() < 1e-9);
        // Second excited state of a picks up the anharmonicity.
        let i200 = h.bare_index(2, 0, 0);
        assert!((h.h_static[(i200, i200)].re - (2.0 * p.omega_a + p.alpha_a)).abs() < 1e-9);
    }

    #[test]
    fn two_level_truncation_works() {
        let p = UnitCellParams {
            levels: 2,
            ..UnitCellParams::default()
        };
        let h = UnitCellHamiltonian::new(&p);
        assert_eq!(h.dim, 8);
        assert!(h.h_static.is_hermitian(1e-9));
    }
}
