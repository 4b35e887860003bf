//! Hand-built bad circuits, one per check: each is rejected with exactly
//! the violation kind the check documents, and the corresponding good
//! circuit passes the same check.

use nsb_circuit::{generators, Circuit, Gate};
use nsb_compiler::{to_schedule_facts, to_verify_ops, Transpiler, VerifyLevel};
use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_math::Mat2;
use nsb_verify::{
    ScheduleFacts, ScheduleSanity, VerifierSuite, VerifyConfig, VerifyOp, VerifyTarget,
    ViolationKind,
};
use nsb_weyl::WeylCoord;
use std::sync::OnceLock;

const STRATEGY: BasisStrategy = BasisStrategy::Criterion2;

fn device() -> &'static Device {
    static DEVICE: OnceLock<Device> = OnceLock::new();
    DEVICE.get_or_init(|| Device::build(3, 2, DeviceConfig::fast_test()).expect("test device"))
}

/// A two-qubit op applying exactly the calibrated basis gate of edge 0.
fn legal_op() -> VerifyOp {
    let cal = &device().edges()[0];
    let basis = cal.basis(STRATEGY);
    VerifyOp::TwoQubit {
        qubits: cal.gate_order,
        duration: basis.duration,
        unitary: *basis.gate,
        coord: Some(basis.coord),
    }
}

/// Some pair of distinct qubits that is NOT coupled on the grid.
fn uncoupled_pair() -> (usize, usize) {
    let topo = device().topology();
    let n = topo.n_qubits();
    for a in 0..n {
        for b in (a + 1)..n {
            if !topo.are_adjacent(a, b) {
                return (a, b);
            }
        }
    }
    panic!("3x2 grid must contain a non-adjacent pair");
}

fn run_structural(ops: Vec<VerifyOp>) -> nsb_verify::VerifyReport {
    VerifierSuite::structural().run(&VerifyTarget::new(device(), STRATEGY, ops))
}

// ---- basis legality ------------------------------------------------------

#[test]
fn legal_basis_op_passes() {
    let report = run_structural(vec![legal_op()]);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn wrong_gate_on_edge_is_rejected() {
    let VerifyOp::TwoQubit {
        qubits, duration, ..
    } = legal_op()
    else {
        unreachable!()
    };
    // CNOT is not any edge's calibrated (nonstandard) basis gate.
    let op = VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary: nsb_math::Mat4::cnot(),
        coord: None,
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::IllegalBasisGate), "{report}");
}

#[test]
fn wrong_duration_is_rejected() {
    let VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary,
        coord,
    } = legal_op()
    else {
        unreachable!()
    };
    let op = VerifyOp::TwoQubit {
        qubits,
        duration: duration + 5.0,
        unitary,
        coord,
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::IllegalBasisGate), "{report}");
}

#[test]
fn reversed_operand_order_is_rejected() {
    let VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary,
        coord,
    } = legal_op()
    else {
        unreachable!()
    };
    let op = VerifyOp::TwoQubit {
        qubits: (qubits.1, qubits.0),
        duration,
        unitary,
        coord,
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::IllegalBasisGate), "{report}");
}

#[test]
fn non_unitary_local_is_rejected() {
    let op = VerifyOp::Local {
        qubit: 0,
        unitary: Mat2::h().scale(nsb_math::Complex64::real(0.5)),
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::IllegalBasisGate), "{report}");
}

// ---- connectivity --------------------------------------------------------

#[test]
fn uncoupled_pair_in_ops_is_rejected() {
    let (a, b) = uncoupled_pair();
    let op = VerifyOp::TwoQubit {
        qubits: (a, b),
        duration: 10.0,
        unitary: nsb_math::Mat4::cnot(),
        coord: None,
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::UncoupledPair), "{report}");
}

#[test]
fn uncoupled_pair_in_source_circuit_is_rejected() {
    // The post-routing checkpoint: a "routed" circuit that still holds a
    // two-qubit gate on an uncoupled pair must be caught before lowering.
    let (a, b) = uncoupled_pair();
    let n = device().topology().n_qubits();
    let mut source = Circuit::new(n);
    source.push(Gate::Cx, &[a, b]);
    let target = VerifyTarget::new(device(), STRATEGY, Vec::new()).with_source(&source);
    let report = VerifierSuite::structural().run(&target);
    assert!(report.has(ViolationKind::UncoupledPair), "{report}");
}

#[test]
fn out_of_range_qubit_is_rejected() {
    let op = VerifyOp::Local {
        qubit: device().topology().n_qubits() + 7,
        unitary: Mat2::h(),
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::QubitOutOfRange), "{report}");
}

// ---- Weyl canonicality ----------------------------------------------------

#[test]
fn claimed_coord_outside_chamber_is_rejected() {
    let VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary,
        ..
    } = legal_op()
    else {
        unreachable!()
    };
    // y > x violates the chamber ordering; no canonical point looks like
    // this, so the producer's bookkeeping must be broken.
    let bad = WeylCoord::new(0.1, 0.3, 0.05);
    assert!(!bad.in_chamber(1e-9));
    let op = VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary,
        coord: Some(bad),
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::NonCanonicalWeyl), "{report}");
}

#[test]
fn claimed_coord_of_wrong_class_is_rejected() {
    let VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary,
        ..
    } = legal_op()
    else {
        unreachable!()
    };
    // Canonical (in-chamber) but the wrong class: the basis gate of an
    // edge is entangling, so it is never the identity.
    let op = VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary,
        coord: Some(WeylCoord::IDENTITY),
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::NonCanonicalWeyl), "{report}");
}

#[test]
fn block_class_differing_from_edge_basis_is_rejected() {
    let VerifyOp::TwoQubit {
        qubits, duration, ..
    } = legal_op()
    else {
        unreachable!()
    };
    // A SWAP block can never be one application of a supremacy-style
    // basis gate (calibration rejects SWAP-class bases).
    let op = VerifyOp::TwoQubit {
        qubits,
        duration,
        unitary: nsb_math::Mat4::swap(),
        coord: None,
    };
    let report = run_structural(vec![op]);
    assert!(report.has(ViolationKind::NonCanonicalWeyl), "{report}");
}

// ---- schedule sanity -------------------------------------------------------

#[test]
fn consistent_schedule_passes() {
    let ops = vec![legal_op(), legal_op()];
    let n = device().topology().n_qubits();
    let facts = ScheduleSanity::recompute(&ops, n, device().config().t_1q);
    let target = VerifyTarget::new(device(), STRATEGY, ops).with_schedule(facts);
    let report = VerifierSuite::structural().run(&target);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn overlapping_schedule_is_rejected() {
    // Two serial applications on the same edge claimed to run
    // concurrently: the claimed duration/windows say both start at t=0,
    // the recomputation proves they cannot.
    let ops = vec![legal_op(), legal_op()];
    let n = device().topology().n_qubits();
    let honest = ScheduleSanity::recompute(&ops, n, device().config().t_1q);
    let one_gate = honest.duration / 2.0;
    let mut windows = vec![None; n];
    let mut busy = vec![0.0; n];
    let cal_order = device().edges()[0].gate_order;
    for q in [cal_order.0, cal_order.1] {
        windows[q] = Some((0.0, one_gate));
        busy[q] = honest.busy[q];
    }
    let overlapping = ScheduleFacts {
        duration: one_gate,
        windows,
        busy,
        entangler_count: 2,
        local_count: 0,
    };
    let target = VerifyTarget::new(device(), STRATEGY, ops).with_schedule(overlapping);
    let report = VerifierSuite::structural().run(&target);
    assert!(report.has(ViolationKind::ScheduleInconsistent), "{report}");
}

#[test]
fn wrong_op_counts_are_rejected() {
    let ops = vec![legal_op()];
    let n = device().topology().n_qubits();
    let mut facts = ScheduleSanity::recompute(&ops, n, device().config().t_1q);
    facts.entangler_count = 3;
    let target = VerifyTarget::new(device(), STRATEGY, ops).with_schedule(facts);
    let report = VerifierSuite::structural().run(&target);
    assert!(report.has(ViolationKind::ScheduleInconsistent), "{report}");
}

#[test]
fn coherence_budget_violation_is_rejected() {
    let config = VerifyConfig {
        // One basis-gate application already exceeds this budget.
        coherence_budget: 1e-9,
        ..VerifyConfig::default()
    };
    let report = VerifierSuite::structural()
        .with_config(config)
        .run(&VerifyTarget::new(device(), STRATEGY, vec![legal_op()]));
    assert!(report.has(ViolationKind::CoherenceExceeded), "{report}");
}

// ---- unitary equivalence ----------------------------------------------------

#[test]
fn equivalent_program_passes_and_perturbed_program_fails() {
    let n = device().topology().n_qubits();
    let cal = &device().edges()[0];
    let basis = cal.basis(STRATEGY);

    // Source: exactly the basis gate, on the physical register.
    let mut source = Circuit::new(n);
    source.push(
        Gate::Unitary2(Box::new(*basis.gate)),
        &[cal.gate_order.0, cal.gate_order.1],
    );

    let target = VerifyTarget::new(device(), STRATEGY, vec![legal_op()]).with_source(&source);
    let report = VerifierSuite::standard().run(&target);
    assert!(report.is_clean(), "{report}");

    // Perturbed: same program plus one stray (perfectly legal) X gate —
    // every structural check still passes, only equivalence can catch it.
    let perturbed_ops = vec![
        legal_op(),
        VerifyOp::Local {
            qubit: 0,
            unitary: Mat2::x(),
        },
    ];
    let target = VerifyTarget::new(device(), STRATEGY, perturbed_ops).with_source(&source);
    let report = VerifierSuite::standard().run(&target);
    assert!(report.has(ViolationKind::UnitaryMismatch), "{report}");
    assert_eq!(report.violations.len(), 1, "{report}");
}

#[test]
fn equivalence_skips_without_source_and_records_it() {
    let report =
        VerifierSuite::standard().run(&VerifyTarget::new(device(), STRATEGY, vec![legal_op()]));
    assert!(report.is_clean(), "{report}");
    assert!(
        report
            .skipped
            .iter()
            .any(|(name, _)| *name == "unitary-equivalence"),
        "{report}"
    );
}

// ---- whole-pipeline integration ---------------------------------------------

#[test]
fn transpiler_output_passes_full_verification() {
    for strategy in BasisStrategy::ALL {
        let compiled = Transpiler::new(device(), strategy)
            .with_verification(VerifyLevel::Full)
            .compile(&generators::qft(4, true))
            .expect("verified compile");
        // Re-verify the compiled artifact from outside the pipeline.
        let ops = to_verify_ops(&compiled.ops, device(), strategy);
        let target = VerifyTarget::new(device(), strategy, ops)
            .with_schedule(to_schedule_facts(&compiled.schedule));
        let report = VerifierSuite::standard().run(&target);
        assert!(report.is_clean(), "{strategy}: {report}");
    }
}
