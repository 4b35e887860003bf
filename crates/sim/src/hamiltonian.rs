//! Construction of the three-mode Hamiltonian of Appendix A:
//!
//! ```text
//! H(t) = H_a + H_b + H_c(t) + H_g
//! H_x  = omega_x x^dag x + alpha_x/2 x^dag x^dag x x
//! H_g  = -( g_ab a^dag b + g_bc b^dag c + g_ca c^dag a + h.c. )
//! H_c(t) has omega_c(t) = omega_c + delta sin(omega_d t)
//! ```
//!
//! Every term conserves the total excitation number `n_a + n_b + n_c`
//! (the couplings trade one excitation between two modes, and the drive
//! modulates the diagonal `c^dag c`), so the computational states `|00>,
//! |01>, |10>, |11>` never leave the states with at most two excitations.
//! The cell is simulated on exactly those states: every `|n_a, n_b, n_c>`
//! with each `n < L` levels and `n_a + n_b + n_c <= 2`, in lexicographic
//! order (10 states at three levels per mode, 7 at two). Each mode's
//! annihilation operator is built directly on that table, and no product
//! in the Hamiltonian passes through a state with more excitations, so
//! every entry is the one the full `L^3` product space would give.

use crate::params::UnitCellParams;
use nsb_math::{Complex64, DMat};

/// Most excitations a simulated state holds: enough for the dressed `|11>`.
const MAX_EXCITATIONS: usize = 2;

/// Pre-assembled operator pieces of the unit-cell Hamiltonian, so the
/// time-dependent part is a cheap diagonal update.
#[derive(Clone, Debug)]
pub(crate) struct UnitCellHamiltonian {
    /// The static Hamiltonian at the DC bias point (drive off).
    pub(crate) h_static: DMat,
    /// Coupler number operator `c^dag c` (diagonal), the operator the
    /// drive modulates.
    pub(crate) n_c: DMat,
    /// The bare state `[n_a, n_b, n_c]` of each basis index.
    pub(crate) states: Vec<[usize; 3]>,
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
    states: Vec<[usize; 3]>,
}

impl CellTerms {
    /// Assembles every term except the coupler's frequency, on the states
    /// with at most two excitations.
    pub(crate) fn new(params: &UnitCellParams) -> Self {
        CellTerms::on(params, bare_states(params.levels, MAX_EXCITATIONS))
    }

    /// The same terms on the whole `L^3` product space: the tests'
    /// reference for the excitation-number truncation.
    #[cfg(test)]
    pub(crate) fn full_space(params: &UnitCellParams) -> Self {
        CellTerms::on(params, bare_states(params.levels, usize::MAX))
    }

    fn on(params: &UnitCellParams, states: Vec<[usize; 3]>) -> Self {
        let [op_a, op_b, op_c] = [0, 1, 2].map(|mode| annihilator(&states, mode));
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
            states,
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
            states: self.states.clone(),
        }
    }
}

impl UnitCellHamiltonian {
    /// Assembles the Hamiltonian pieces for the given parameters.
    #[cfg(test)]
    pub(crate) fn new(params: &UnitCellParams) -> Self {
        CellTerms::new(params).at_bias(params.omega_c)
    }

    /// Number of basis states.
    pub(crate) fn dim(&self) -> usize {
        self.states.len()
    }

    /// Index of the bare product state `|n_a, n_b, n_c>`, or `None` when
    /// it is not simulated (an occupation of `levels` or more, or more than
    /// two excitations).
    pub(crate) fn bare_index(&self, n_a: usize, n_b: usize, n_c: usize) -> Option<usize> {
        self.states.iter().position(|s| *s == [n_a, n_b, n_c])
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

/// Every `[n_a, n_b, n_c]` with each occupation below `levels` and at most
/// `max_excitations` in total, in lexicographic order: the index order of
/// the full product space, `(n_a * L + n_b) * L + n_c`, with the other
/// states left out.
fn bare_states(levels: usize, max_excitations: usize) -> Vec<[usize; 3]> {
    let mut states = Vec::new();
    for n_a in 0..levels {
        for n_b in 0..levels {
            for n_c in 0..levels {
                if n_a + n_b + n_c <= max_excitations {
                    states.push([n_a, n_b, n_c]);
                }
            }
        }
    }
    states
}

/// The annihilation operator of `mode` on `states`: `sqrt(n)` from each
/// state with `n` quanta in that mode to the state with one fewer.
fn annihilator(states: &[[usize; 3]], mode: usize) -> DMat {
    let mut m = DMat::zeros(states.len(), states.len());
    for (j, s) in states.iter().enumerate() {
        if s[mode] == 0 {
            continue;
        }
        let mut lower = *s;
        lower[mode] -= 1;
        if let Some(i) = states.iter().position(|t| *t == lower) {
            m[(i, j)] = Complex64::real((s[mode] as f64).sqrt());
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ghz;

    #[test]
    fn hamiltonian_is_hermitian() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        assert!(h.h_static.is_hermitian(1e-9));
        assert_eq!(h.h_static.rows(), 10);
        assert!(h.at_time(ghz(0.05), ghz(2.0), 0.37).is_hermitian(1e-9));
    }

    #[test]
    fn bare_energies_roughly_match_diagonal() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        let i100 = h.bare_index(1, 0, 0).unwrap();
        let e = h.h_static[(i100, i100)].re;
        assert!((e - p.omega_a).abs() < 1e-9);
        let i010 = h.bare_index(0, 1, 0).unwrap();
        assert!((h.h_static[(i010, i010)].re - p.omega_b).abs() < 1e-9);
        // Second excited state of a picks up the anharmonicity.
        let i200 = h.bare_index(2, 0, 0).unwrap();
        assert!((h.h_static[(i200, i200)].re - (2.0 * p.omega_a + p.alpha_a)).abs() < 1e-9);
    }

    #[test]
    fn two_level_truncation_works() {
        let p = UnitCellParams {
            levels: 2,
            ..UnitCellParams::default()
        };
        let h = UnitCellHamiltonian::new(&p);
        assert_eq!(h.dim(), 7);
        assert!(h.h_static.is_hermitian(1e-9));
    }
}
