//! A dense statevector simulator, used to verify circuit identities and
//! compiled-circuit equivalence on small registers.

use crate::circuit::Circuit;
use crate::gate::Operation;
use nsb_math::Complex64;

/// A pure state of `n` qubits as a dense amplitude vector.
///
/// Qubit 0 is the most significant bit of the basis index (big-endian),
/// matching the `kron(first, second)` convention of `nsb-math`.
#[derive(Clone, Debug)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros computational basis state.
    pub fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits <= 24, "statevector limited to 24 qubits");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        StateVector { n_qubits, amps }
    }

    /// A computational basis state given by `bits` (bit of qubit 0 first).
    pub fn basis(n_qubits: usize, index: usize) -> Self {
        let mut s = StateVector::zero(n_qubits);
        s.amps[0] = Complex64::ZERO;
        s.amps[index] = Complex64::ONE;
        s
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Amplitude slice.
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Applies a whole circuit in order.
    ///
    /// # Panics
    ///
    /// Panics when the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert!(c.n_qubits() <= self.n_qubits);
        for op in c.ops() {
            self.apply(op);
        }
    }

    /// Applies a single operation.
    pub(crate) fn apply(&mut self, op: &Operation) {
        match op.qubits.len() {
            1 => self.apply_1q(op),
            2 => self.apply_2q(op),
            _ => unreachable!("operations are 1 or 2 qubits"),
        }
    }

    fn apply_1q(&mut self, op: &Operation) {
        let m = op.gate.mat2();
        let q = op.qubits[0];
        let bit = 1usize << (self.n_qubits - 1 - q);
        let n = self.amps.len();
        let mut i = 0;
        while i < n {
            if i & bit == 0 {
                let j = i | bit;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = m.at(0, 0) * a0 + m.at(0, 1) * a1;
                self.amps[j] = m.at(1, 0) * a0 + m.at(1, 1) * a1;
            }
            i += 1;
        }
    }

    fn apply_2q(&mut self, op: &Operation) {
        let m = op.gate.mat4();
        let (q0, q1) = (op.qubits[0], op.qubits[1]);
        let b0 = 1usize << (self.n_qubits - 1 - q0);
        let b1 = 1usize << (self.n_qubits - 1 - q1);
        let n = self.amps.len();
        for i in 0..n {
            if i & b0 == 0 && i & b1 == 0 {
                let idx = [i, i | b1, i | b0, i | b0 | b1];
                let old = [
                    self.amps[idx[0]],
                    self.amps[idx[1]],
                    self.amps[idx[2]],
                    self.amps[idx[3]],
                ];
                for (r, &dst) in idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &amp) in old.iter().enumerate() {
                        acc += m.at(r, c) * amp;
                    }
                    self.amps[dst] = acc;
                }
            }
        }
    }

    /// Probability of measuring basis state `index`.
    #[cfg(test)]
    pub(crate) fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Index of the most probable basis state.
    pub fn most_probable(&self) -> usize {
        let mut best = (0usize, -1.0f64);
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > best.1 {
                best = (i, p);
            }
        }
        best.0
    }

    /// Fidelity `|<self|other>|^2` between two states.
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.amps.len(), other.amps.len());
        let ov: Complex64 = self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum();
        ov.norm_sqr()
    }

    /// Overlap `|<self|other>|` ignoring a global phase, robust comparison
    /// for circuit equivalence tests.
    pub fn overlap(&self, other: &StateVector) -> f64 {
        self.fidelity(other).sqrt()
    }

    /// L2 norm of the state (should be 1 for unitary circuits).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }
}

/// Checks that two circuits implement the same unitary up to global phase,
/// by comparing their action on a deterministic set of random-ish product
/// states plus a handful of basis states: the tests' oracle for circuit
/// rewrites.
#[cfg(test)]
pub(crate) fn circuits_equivalent(a: &Circuit, b: &Circuit, tol: f64) -> bool {
    assert_eq!(a.n_qubits(), b.n_qubits());
    let n = a.n_qubits();
    // Basis states probe the permutation structure; superposition states
    // probe relative phases.
    let mut indices: Vec<usize> = (0..(1usize << n).min(4)).collect();
    indices.push((1 << n) - 1);
    for &idx in &indices {
        let mut sa = StateVector::basis(n, idx);
        let mut sb = StateVector::basis(n, idx);
        sa.apply_circuit(a);
        sb.apply_circuit(b);
        // Compare up to a per-state phase is not enough (global phase must
        // be consistent across states), so compare overlap per state and
        // cross-check one superposition below.
        if (sa.overlap(&sb) - 1.0).abs() > tol {
            return false;
        }
    }
    // Superposition probe: H on every qubit first.
    let mut sa = StateVector::zero(n);
    let mut sb = StateVector::zero(n);
    let mut h_all = Circuit::new(n);
    for q in 0..n {
        h_all.push(crate::gate::Gate::H, &[q]);
    }
    sa.apply_circuit(&h_all);
    sb.apply_circuit(&h_all);
    sa.apply_circuit(a);
    sb.apply_circuit(b);
    (sa.overlap(&sb) - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        let mut s = StateVector::zero(2);
        s.apply_circuit(&c);
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_gate_swaps() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap, &[0, 1]);
        let mut s = StateVector::basis(2, 0b10); // qubit0 = 1
        s.apply_circuit(&c);
        assert!((s.probability(0b01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cx_direction_matters() {
        let mut c01 = Circuit::new(2);
        c01.push(Gate::Cx, &[0, 1]);
        let mut s = StateVector::basis(2, 0b10);
        s.apply_circuit(&c01);
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
        let mut c10 = Circuit::new(2);
        c10.push(Gate::Cx, &[1, 0]);
        let mut s = StateVector::basis(2, 0b10);
        s.apply_circuit(&c10);
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equivalence_checker_accepts_cz_symmetry() {
        let mut a = Circuit::new(2);
        a.push(Gate::Cz, &[0, 1]);
        let mut b = Circuit::new(2);
        b.push(Gate::Cz, &[1, 0]);
        assert!(circuits_equivalent(&a, &b, 1e-9));
    }

    #[test]
    fn equivalence_checker_rejects_different() {
        let mut a = Circuit::new(2);
        a.push(Gate::Cx, &[0, 1]);
        let mut b = Circuit::new(2);
        b.push(Gate::Cx, &[1, 0]);
        assert!(!circuits_equivalent(&a, &b, 1e-9));
    }

    #[test]
    fn ccx_expansion_is_toffoli() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        for (input, expect) in [
            (0b000, 0b000),
            (0b010, 0b010),
            (0b100, 0b100),
            (0b110, 0b111),
            (0b111, 0b110),
        ] {
            let mut s = StateVector::basis(3, input);
            s.apply_circuit(&c);
            assert!(
                (s.probability(expect) - 1.0).abs() < 1e-9,
                "input {input:03b} gave {:03b}",
                s.most_probable()
            );
        }
    }
}
