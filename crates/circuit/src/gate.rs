//! The gate set of the circuit IR.

use nsb_math::{Mat2, Mat4};
use std::fmt;

/// A quantum gate. One- and two-qubit gates only; multi-qubit primitives
/// (e.g. Toffoli) are expanded by the benchmark generators.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate S.
    S,
    /// S dagger.
    Sdg,
    /// T gate.
    T,
    /// T dagger.
    Tdg,
    /// Sqrt-X.
    Sx,
    /// X rotation.
    Rx(f64),
    /// Y rotation.
    Ry(f64),
    /// Z rotation.
    Rz(f64),
    /// Phase gate `diag(1, e^{i lambda})`.
    Phase(f64),
    /// Generic single-qubit gate (OpenQASM U3 convention).
    U3(f64, f64, f64),
    /// Arbitrary single-qubit unitary.
    Unitary1(Mat2),
    /// CNOT (control is the first qubit).
    Cx,
    /// Controlled-Z.
    Cz,
    /// SWAP.
    Swap,
    /// iSWAP.
    ISwap,
    /// Controlled phase.
    CPhase(f64),
    /// ZZ rotation `exp(-i theta/2 ZZ)`.
    Rzz(f64),
    /// Arbitrary two-qubit unitary.
    Unitary2(Box<Mat4>),
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U3(..)
            | Gate::Unitary1(_) => 1,
            _ => 2,
        }
    }

    /// The 2x2 matrix of a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics when called on a two-qubit gate.
    pub fn mat2(&self) -> Mat2 {
        match self {
            Gate::H => Mat2::h(),
            Gate::X => Mat2::x(),
            Gate::Y => Mat2::y(),
            Gate::Z => Mat2::z(),
            Gate::S => Mat2::s(),
            Gate::Sdg => Mat2::s().adjoint(),
            Gate::T => Mat2::t(),
            Gate::Tdg => Mat2::t().adjoint(),
            Gate::Sx => Mat2::sx(),
            Gate::Rx(t) => Mat2::rx(*t),
            Gate::Ry(t) => Mat2::ry(*t),
            Gate::Rz(t) => Mat2::rz(*t),
            Gate::Phase(l) => Mat2::phase(*l),
            Gate::U3(t, p, l) => Mat2::u3(*t, *p, *l),
            Gate::Unitary1(m) => *m,
            #[expect(clippy::panic, reason = "documented arity contract")]
            other => panic!("mat2 called on two-qubit gate {other}"),
        }
    }

    /// The 4x4 matrix of a two-qubit gate (first qubit = high bit).
    ///
    /// # Panics
    ///
    /// Panics when called on a single-qubit gate.
    pub fn mat4(&self) -> Mat4 {
        match self {
            Gate::Cx => Mat4::cnot(),
            Gate::Cz => Mat4::cz(),
            Gate::Swap => Mat4::swap(),
            Gate::ISwap => Mat4::iswap(),
            Gate::CPhase(l) => Mat4::cphase(*l),
            Gate::Rzz(t) => Mat4::rzz(*t),
            Gate::Unitary2(m) => *m.clone(),
            #[expect(clippy::panic, reason = "documented arity contract")]
            other => panic!("mat4 called on single-qubit gate {other}"),
        }
    }

    /// Returns true when the gate is symmetric under qubit exchange (so the
    /// router may flip its operands freely).
    pub fn is_symmetric(&self) -> bool {
        matches!(
            self,
            Gate::Cz | Gate::Swap | Gate::ISwap | Gate::CPhase(_) | Gate::Rzz(_)
        )
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::H => write!(f, "h"),
            Gate::X => write!(f, "x"),
            Gate::Y => write!(f, "y"),
            Gate::Z => write!(f, "z"),
            Gate::S => write!(f, "s"),
            Gate::Sdg => write!(f, "sdg"),
            Gate::T => write!(f, "t"),
            Gate::Tdg => write!(f, "tdg"),
            Gate::Sx => write!(f, "sx"),
            Gate::Rx(t) => write!(f, "rx({t:.4})"),
            Gate::Ry(t) => write!(f, "ry({t:.4})"),
            Gate::Rz(t) => write!(f, "rz({t:.4})"),
            Gate::Phase(l) => write!(f, "p({l:.4})"),
            Gate::U3(t, p, l) => write!(f, "u3({t:.4},{p:.4},{l:.4})"),
            Gate::Unitary1(_) => write!(f, "u1q"),
            Gate::Cx => write!(f, "cx"),
            Gate::Cz => write!(f, "cz"),
            Gate::Swap => write!(f, "swap"),
            Gate::ISwap => write!(f, "iswap"),
            Gate::CPhase(l) => write!(f, "cp({l:.4})"),
            Gate::Rzz(t) => write!(f, "rzz({t:.4})"),
            Gate::Unitary2(_) => write!(f, "u2q"),
        }
    }
}

/// A gate applied to specific qubits.
#[derive(Clone, Debug, PartialEq)]
pub struct Operation {
    /// The gate.
    pub gate: Gate,
    /// Operand qubits; length matches `gate.arity()`.
    pub qubits: Vec<usize>,
}

impl Operation {
    /// Creates an operation, validating arity.
    ///
    /// # Panics
    ///
    /// Panics when the qubit count does not match the gate arity or when
    /// a two-qubit gate addresses the same qubit twice.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        assert_eq!(gate.arity(), qubits.len(), "gate arity mismatch");
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate on a single qubit");
        }
        Operation { gate, qubits }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.gate)?;
        let strs: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
        write!(f, "{}", strs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Rz(0.3).arity(), 1);
        assert_eq!(Gate::Cx.arity(), 2);
        assert_eq!(Gate::CPhase(0.1).arity(), 2);
    }

    #[test]
    fn matrices_are_unitary() {
        let ones = [
            Gate::H,
            Gate::X,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Rx(0.3),
            Gate::U3(0.1, 0.2, 0.3),
        ];
        for g in ones {
            assert!(g.mat2().is_unitary(1e-12), "{g}");
        }
        let twos = [Gate::Cx, Gate::Cz, Gate::Swap, Gate::ISwap, Gate::Rzz(1.0)];
        for g in twos {
            assert!(g.mat4().is_unitary(1e-12), "{g}");
        }
    }

    #[test]
    fn sdg_is_s_inverse() {
        let p = Gate::S.mat2() * Gate::Sdg.mat2();
        assert!(p.approx_eq(&Mat2::identity(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_validation() {
        let _ = Operation::new(Gate::Cx, vec![0]);
    }

    #[test]
    #[should_panic(expected = "single qubit")]
    fn distinct_qubits_validation() {
        let _ = Operation::new(Gate::Cx, vec![1, 1]);
    }
}
