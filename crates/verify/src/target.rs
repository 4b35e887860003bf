//! The verifier's view of a compiled program.
//!
//! `nsb-verify` deliberately does not depend on `nsb-compiler`: it defines
//! its own minimal operation view ([`VerifyOp`]) and schedule summary
//! ([`ScheduleFacts`]) so the checks re-derive every property from first
//! principles instead of trusting compiler internals. The compiler converts
//! its lowered IR into this view at the verification boundary.

use nsb_circuit::Circuit;
use nsb_device::{BasisStrategy, Device};
use nsb_math::{Mat2, Mat4};
use nsb_weyl::WeylCoord;

/// One hardware-level operation as seen by the verifier.
// The Mat4 payload dominates the size, but these ops are built in bulk at
// the verification boundary and iterated once — boxing would trade one
// predictable inline copy for a per-op allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum VerifyOp {
    /// A merged single-qubit gate.
    Local {
        /// Physical qubit.
        qubit: usize,
        /// The gate's unitary.
        unitary: Mat2,
    },
    /// A native two-qubit (basis-gate) application.
    TwoQubit {
        /// Physical qubits in the calibrated tensor order of the edge.
        qubits: (usize, usize),
        /// Entangling pulse duration (ns).
        duration: f64,
        /// The applied unitary.
        unitary: Mat4,
        /// The Cartan coordinate the producer claims for this block, if it
        /// tracked one; checked against the canonical chamber and against
        /// the coordinate recomputed from `unitary`.
        coord: Option<WeylCoord>,
    },
}

impl VerifyOp {
    /// Qubits the operation acts on.
    pub(crate) fn qubits(&self) -> Vec<usize> {
        match self {
            VerifyOp::Local { qubit, .. } => vec![*qubit],
            VerifyOp::TwoQubit { qubits, .. } => vec![qubits.0, qubits.1],
        }
    }

    /// Duration of the operation given the device's local-gate time.
    pub(crate) fn duration(&self, t_1q: f64) -> f64 {
        match self {
            VerifyOp::Local { .. } => t_1q,
            VerifyOp::TwoQubit { duration, .. } => *duration,
        }
    }
}

/// Claimed schedule properties of a compiled program, to be validated
/// against an independent recomputation from the operation list.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleFacts {
    /// Total circuit duration (ns).
    pub duration: f64,
    /// Per-qubit active windows `(t_i, t_f)`; `None` for idle qubits.
    pub windows: Vec<Option<(f64, f64)>>,
    /// Per-qubit total busy time (ns).
    pub busy: Vec<f64>,
    /// Number of two-qubit (entangler) applications.
    pub entangler_count: usize,
    /// Number of merged local gates.
    pub local_count: usize,
}

/// Everything a check may inspect.
pub struct VerifyTarget<'a> {
    /// The calibrated device the program claims to run on.
    pub(crate) device: &'a Device,
    /// The basis-gate strategy the program was lowered for.
    pub(crate) strategy: BasisStrategy,
    /// The hardware-level operation list.
    pub(crate) ops: Vec<VerifyOp>,
    /// The routed (physical-register) source circuit the ops should be
    /// unitarily equivalent to, when available.
    pub(crate) source: Option<&'a Circuit>,
    /// The schedule the producer claims for the ops, when available.
    pub(crate) schedule: Option<ScheduleFacts>,
}

impl<'a> VerifyTarget<'a> {
    /// A target with no source circuit and no claimed schedule; checks that
    /// need them are skipped (and say so in the report).
    pub fn new(device: &'a Device, strategy: BasisStrategy, ops: Vec<VerifyOp>) -> Self {
        VerifyTarget {
            device,
            strategy,
            ops,
            source: None,
            schedule: None,
        }
    }

    /// Attaches the routed source circuit, enabling the unitary-equivalence
    /// check.
    pub fn with_source(mut self, source: &'a Circuit) -> Self {
        self.source = Some(source);
        self
    }

    /// Attaches the producer's claimed schedule, enabling the
    /// schedule-consistency half of the schedule-sanity check.
    pub fn with_schedule(mut self, schedule: ScheduleFacts) -> Self {
        self.schedule = Some(schedule);
        self
    }
}
