//! The circuit container and common construction helpers.

use crate::gate::{Gate, Operation};
use std::fmt;

/// A quantum circuit: an ordered list of operations on `n` qubits.
///
/// # Examples
///
/// ```
/// use nsb_circuit::{Circuit, Gate};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.two_qubit_count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns true when the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics when a qubit index is out of range or arity mismatches.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        self.ops.push(Operation::new(gate, qubits.to_vec()));
        self
    }

    /// Appends all operations of another circuit (qubit counts must match).
    ///
    /// # Panics
    ///
    /// Panics when the other circuit uses more qubits.
    pub(crate) fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert!(other.n_qubits <= self.n_qubits, "qubit count mismatch");
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    /// Appends a Toffoli (CCX) expanded into the standard 6-CNOT network.
    pub(crate) fn ccx(&mut self, a: usize, b: usize, t: usize) -> &mut Self {
        self.push(Gate::H, &[t]);
        self.push(Gate::Cx, &[b, t]);
        self.push(Gate::Tdg, &[t]);
        self.push(Gate::Cx, &[a, t]);
        self.push(Gate::T, &[t]);
        self.push(Gate::Cx, &[b, t]);
        self.push(Gate::Tdg, &[t]);
        self.push(Gate::Cx, &[a, t]);
        self.push(Gate::T, &[b]);
        self.push(Gate::T, &[t]);
        self.push(Gate::H, &[t]);
        self.push(Gate::Cx, &[a, b]);
        self.push(Gate::T, &[a]);
        self.push(Gate::Tdg, &[b]);
        self.push(Gate::Cx, &[a, b]);
        self
    }

    /// Number of two-qubit operations.
    pub fn two_qubit_count(&self) -> usize {
        self.ops.iter().filter(|o| o.gate.arity() == 2).count()
    }

    /// Count of operations by display name.
    #[cfg(test)]
    pub(crate) fn count_by_name(&self, name: &str) -> usize {
        self.ops
            .iter()
            .filter(|o| o.gate.to_string().starts_with(name))
            .count()
    }

    /// Returns a copy with qubits relabeled through `map` (old -> new), on
    /// a register of `new_n` qubits.
    ///
    /// # Panics
    ///
    /// Panics when the map is too short or targets are out of range.
    pub fn remapped(&self, map: &[usize], new_n: usize) -> Circuit {
        let mut out = Circuit::new(new_n);
        for op in &self.ops {
            let qubits: Vec<usize> = op.qubits.iter().map(|&q| map[q]).collect();
            for &q in &qubits {
                assert!(q < new_n, "remap target {q} out of range");
            }
            out.ops.push(Operation::new(op.gate.clone(), qubits));
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.n_qubits)?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_permutes_operands() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let r = c.remapped(&[5, 2], 6);
        assert_eq!(r.ops()[0].qubits, vec![5, 2]);
        assert_eq!(r.n_qubits(), 6);
    }

    #[test]
    fn ccx_expansion_counts() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_eq!(c.two_qubit_count(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut c = Circuit::new(1);
        c.push(Gate::H, &[3]);
    }
}
