//! The unitary-equivalence check reduces the miter of a program against
//! its source and the Weyl check memoizes recomputed classes. These tests
//! pin both to what they replace: the reduced overlap equals a gate-by-gate
//! simulation within the reported bound, lowered Table II jobs reduce to
//! locals (which needs the device's syntheses converged well below the
//! split tolerance), mutated programs get the gate-by-gate verdict, the shapes fusion
//! rewrites still catch wrong programs, and the memo reports every bad
//! block where it is.

use nsb_circuit::{Circuit, Gate, StateVector};
use nsb_compiler::{default_mode, sabre_route, to_verify_ops, Lowerer, SabreConfig};
use nsb_core::experiments::table2_suite;
use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_math::{haar_su2, haar_u4, Mat2, Mat4};
use nsb_verify::{
    Miter, UnitaryEquivalence, VerifierSuite, VerifyOp, VerifyReport, VerifyTarget, ViolationKind,
    WeylCanonicality,
};
use nsb_weyl::kak_vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const STRATEGY: BasisStrategy = BasisStrategy::Criterion2;

/// The 3x2 device of the negative tests.
fn small_device() -> &'static Device {
    static DEVICE: OnceLock<Device> = OnceLock::new();
    DEVICE.get_or_init(|| Device::build(3, 2, DeviceConfig::fast_test()).expect("test device"))
}

/// The 4x3 device: 12 qubits, the default simulation limit.
fn grid_device() -> &'static Device {
    static DEVICE: OnceLock<Device> = OnceLock::new();
    DEVICE.get_or_init(|| Device::build(4, 3, DeviceConfig::fast_test()).expect("grid device"))
}

/// The probe overlap computed the straightforward way: every gate of both
/// programs applied to the state one at a time.
fn op_by_op_min_overlap(ops: &[VerifyOp], source: &Circuit) -> f64 {
    let n = source.n_qubits();
    let mut compiled = Circuit::new(n);
    for op in ops {
        match op {
            VerifyOp::Local { qubit, unitary } => {
                compiled.push(Gate::Unitary1(*unitary), &[*qubit]);
            }
            VerifyOp::TwoQubit {
                qubits, unitary, ..
            } => {
                compiled.push(Gate::Unitary2(Box::new(*unitary)), &[qubits.0, qubits.1]);
            }
        }
    }
    UnitaryEquivalence::probe_circuits(n)
        .iter()
        .map(|probe| {
            let mut expected = StateVector::zero(n);
            expected.apply_circuit(probe);
            expected.apply_circuit(source);
            let mut actual = StateVector::zero(n);
            actual.apply_circuit(probe);
            actual.apply_circuit(&compiled);
            expected.overlap(&actual)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Asserts the reduced overlap is within its bound of the gate-by-gate
/// one, and returns the reduced miter with its overlap.
fn assert_fusion_matches(ops: &[VerifyOp], source: &Circuit, what: &str) -> (Miter, f64) {
    let miter = Miter::new(ops, source);
    let fused = miter.min_overlap();
    let reference = op_by_op_min_overlap(ops, source);
    assert!(
        (fused - reference).abs() <= 1e-12 + miter.bound(),
        "{what}: reduced overlap {fused} (bound {:e}) vs gate-by-gate {reference}",
        miter.bound()
    );
    (miter, fused)
}

fn random_pair(n: usize, rng: &mut StdRng) -> (usize, usize) {
    let a = (rng.gen::<u64>() % n as u64) as usize;
    let b = (a + 1 + (rng.gen::<u64>() % (n as u64 - 1)) as usize) % n;
    (a, b)
}

/// A random circuit mixing named and arbitrary gates, in both operand
/// orders; on few qubits the same pair recurs often, so fusion merges.
fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let angle = rng.gen_range_f64(-3.0, 3.0);
        if rng.gen_bool(0.5) {
            let q = (rng.gen::<u64>() % n as u64) as usize;
            let gate = match rng.gen::<u64>() % 6 {
                0 => Gate::H,
                1 => Gate::T,
                2 => Gate::Rx(angle),
                3 => Gate::Rz(angle),
                4 => Gate::U3(angle, 0.5 * angle, 0.3),
                _ => Gate::Unitary1(haar_su2(rng)),
            };
            c.push(gate, &[q]);
        } else {
            let (a, b) = random_pair(n, rng);
            let gate = match rng.gen::<u64>() % 6 {
                0 => Gate::Cx,
                1 => Gate::Cz,
                2 => Gate::ISwap,
                3 => Gate::CPhase(angle),
                4 => Gate::Rzz(angle),
                _ => Gate::Unitary2(Box::new(haar_u4(rng))),
            };
            c.push(gate, &[a, b]);
        }
    }
    c
}

/// The circuit's gates as a verifier op list.
fn as_verify_ops(c: &Circuit) -> Vec<VerifyOp> {
    c.ops()
        .iter()
        .map(|op| match op.qubits[..] {
            [qubit] => VerifyOp::Local {
                qubit,
                unitary: op.gate.mat2(),
            },
            _ => VerifyOp::TwoQubit {
                qubits: (op.qubits[0], op.qubits[1]),
                duration: 0.0,
                unitary: op.gate.mat4(),
                coord: None,
            },
        })
        .collect()
}

// ---- (a) differential: fused vs gate-by-gate ---------------------------------

#[test]
fn fused_overlap_matches_gate_by_gate_on_random_circuits() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..60 {
        let n = 2 + case % 5;
        let len = 10 + (rng.gen::<u64>() % 40) as usize;
        let source = random_circuit(n, len, &mut rng);
        // The source against itself (overlap 1), against a copy with one
        // gate changed, and against an unrelated program.
        let same = as_verify_ops(&source);
        let (_, overlap) = assert_fusion_matches(&same, &source, &format!("case {case} same"));
        assert!(overlap > 1.0 - 1e-9, "case {case}: {overlap}");
        let mut changed = same.clone();
        let k = (rng.gen::<u64>() % changed.len() as u64) as usize;
        changed[k] = match &changed[k] {
            VerifyOp::Local { qubit, .. } => VerifyOp::Local {
                qubit: *qubit,
                unitary: haar_su2(&mut rng),
            },
            VerifyOp::TwoQubit { qubits, .. } => VerifyOp::TwoQubit {
                qubits: *qubits,
                duration: 0.0,
                unitary: haar_u4(&mut rng),
                coord: None,
            },
        };
        assert_fusion_matches(&changed, &source, &format!("case {case} changed"));
        let other = as_verify_ops(&random_circuit(n, len, &mut rng));
        assert_fusion_matches(&other, &source, &format!("case {case} other"));
    }
}

/// The Table II rows that fit `device`, routed and lowered under
/// `strategy`, as `(name, routed source, ops)`.
fn lowered_rows(
    device: &Device,
    strategy: BasisStrategy,
    names: &[&str],
) -> Vec<(String, Circuit, Vec<VerifyOp>)> {
    let n = device.topology().n_qubits();
    table2_suite(7)
        .into_iter()
        .filter(|b| b.circuit.n_qubits() <= n && (names.is_empty() || names.contains(&&*b.name)))
        .map(|bench| {
            let routed = sabre_route(&bench.circuit, device.topology(), &SabreConfig::default())
                .expect("route");
            let lowered = Lowerer::new(device, strategy, default_mode(strategy))
                .lower(&routed.circuit)
                .expect("lower");
            let ops = to_verify_ops(&lowered, device, strategy);
            (format!("{} / {strategy}", bench.name), routed.circuit, ops)
        })
        .collect()
}

#[test]
fn fused_overlap_matches_gate_by_gate_on_compiled_table2_jobs() {
    let device = grid_device();
    let mut jobs = 0;
    for strategy in BasisStrategy::ALL {
        for (what, source, ops) in lowered_rows(device, strategy, &[]) {
            let (miter, overlap) = assert_fusion_matches(&ops, &source, &what);
            // A correct lowering cancels its source gate by gate.
            assert!(
                miter.residual_qubits().is_empty(),
                "{what}: miter did not reduce"
            );
            assert!(miter.bound() <= 1e-3, "{what}: bound {:e}", miter.bound());
            assert!(overlap > 0.99, "{what}: {overlap}");
            jobs += 1;
        }
    }
    assert!(
        jobs >= 18,
        "Table II rows x strategies that fit 12 qubits: {jobs}"
    );
}

/// The miter cancels a lowered block against its source gate only when the
/// block's synthesis rebuilds the gate to well within the split
/// tolerance, so the synthesis search must stop on strict convergence,
/// not on the decomposition-error acceptance threshold. The Haar target
/// is one whose polish on edge (4, 8) stops short of convergence but
/// inside that threshold.
#[test]
fn device_syntheses_converge_tightly_enough_for_the_miter() {
    let device = grid_device();
    let haar = haar_u4(&mut StdRng::seed_from_u64(99));
    for edge in device.edges() {
        for strategy in BasisStrategy::ALL {
            let basis = edge.basis(strategy);
            let haar_synthesis = basis.decomposer.decompose(&haar).expect("haar target");
            for (name, target, s) in [
                ("swap", Mat4::swap(), &basis.swap.circuit),
                ("cnot", Mat4::cnot(), &basis.cnot.circuit),
                ("haar", haar, &haar_synthesis),
            ] {
                let what = format!("edge {:?} {strategy} {name}", edge.qubits);
                let rebuilt = s.unitary_with_phase(&vec![*basis.gate; s.layers]);
                let err = (rebuilt - target).norm();
                assert!(err <= 1e-5, "{what}: reconstruction error {err:e}");
                if name != "haar" {
                    let min = basis.decomposer.min_layers(kak_vector(&target));
                    assert_eq!(s.layers, min, "{what}: layers");
                }
            }
        }
    }
    let mut jobs = 0;
    for strategy in [BasisStrategy::Criterion1, BasisStrategy::Criterion2] {
        for (what, source, ops) in lowered_rows(device, strategy, &[]) {
            let residual = Miter::new(&ops, &source).residual_qubits();
            assert!(residual.is_empty(), "{what}: residual qubits {residual:?}");
            jobs += 1;
        }
    }
    assert_eq!(
        jobs, 12,
        "Table II rows of at most 12 qubits x 2 strategies"
    );
}

/// `op` with its local multiplied by `error` (applied first), if a local.
fn mutated(op: &VerifyOp, error: Mat2) -> Option<VerifyOp> {
    match op {
        VerifyOp::Local { qubit, unitary } => Some(VerifyOp::Local {
            qubit: *qubit,
            unitary: *unitary * error,
        }),
        VerifyOp::TwoQubit { .. } => None,
    }
}

#[test]
fn mutated_locals_get_the_gate_by_gate_verdict() {
    let device = grid_device();
    let floor = 1.0 - UnitaryEquivalence::OVERLAP_TOL;
    let (mut passed, mut failed) = (0, 0);
    for (what, source, ops) in lowered_rows(device, STRATEGY, &["qft 10", "cuccaro 10"]) {
        let locals: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i], VerifyOp::Local { .. }))
            .collect();
        // Rotations around the floor: Rx(0.3) on |0> keeps overlap 0.989.
        let errors = [
            Mat2::rz(0.1),
            Mat2::rx(0.2),
            Mat2::rz(0.3),
            Mat2::rx(0.3),
            Mat2::rx(1.0),
            Mat2::rz(2.0),
        ];
        for (k, &i) in locals.iter().step_by(locals.len() / 12).enumerate() {
            let mut wrong = ops.clone();
            wrong[i] = mutated(&ops[i], errors[k % errors.len()]).expect("a local");
            let what = format!("{what}, op {i} x error {}", k % errors.len());
            let report = VerifierSuite::standard()
                .run(&VerifyTarget::new(device, STRATEGY, wrong.clone()).with_source(&source));
            assert!(report.skipped.is_empty(), "{what}: {report}");
            let reference = op_by_op_min_overlap(&wrong, &source);
            let bound = Miter::new(&wrong, &source).bound();
            if reference >= floor - 1e-12 && reference < floor + 2.0 * bound + 1e-12 {
                continue; // the band where the bound may flip the verdict
            }
            let rejected = report.has(ViolationKind::UnitaryMismatch);
            assert_eq!(
                rejected,
                reference < floor,
                "{what}: gate-by-gate overlap {reference}, bound {bound:e}\n{report}"
            );
            if rejected {
                failed += 1;
            } else {
                passed += 1;
            }
        }
    }
    assert!(
        passed >= 4 && failed >= 4,
        "{passed} passed, {failed} failed"
    );
}

/// The 6x4 device: 24 qubits, twice the default simulation limit.
fn wide_device() -> &'static Device {
    static DEVICE: OnceLock<Device> = OnceLock::new();
    DEVICE.get_or_init(|| Device::build(6, 4, DeviceConfig::fast_test()).expect("wide device"))
}

#[test]
fn reducing_miters_check_equivalence_beyond_the_simulation_limit() {
    let device = wide_device();
    let rows = lowered_rows(device, STRATEGY, &["qft 20", "cuccaro 20"]);
    assert_eq!(rows.len(), 2);
    for (what, source, ops) in rows {
        let run = |ops: Vec<VerifyOp>| {
            let mut report = VerifyReport::default();
            let target = VerifyTarget::new(device, STRATEGY, ops).with_source(&source);
            UnitaryEquivalence::check(&target, &mut report);
            report
        };
        let report = run(ops.clone());
        assert!(
            report.is_clean() && report.skipped.is_empty(),
            "{what}: {report}"
        );

        // A wrong first local reduces to a wrong local on its qubit.
        let first = ops
            .iter()
            .position(|op| matches!(op, VerifyOp::Local { .. }))
            .expect("a local");
        let mut wrong = ops;
        wrong[first] = mutated(&wrong[first], Mat2::rx(1.0)).expect("a local");
        let report = run(wrong);
        assert!(report.skipped.is_empty(), "{what}: {report}");
        assert!(
            report.has(ViolationKind::UnitaryMismatch),
            "{what}: {report}"
        );
    }
}

// ---- (b), (c) shapes fusion rewrites ------------------------------------------

/// Applications of edge `edge`'s calibrated basis gate, as op and as the
/// matching source gate.
fn basis_op(edge: usize) -> (VerifyOp, Gate, (usize, usize)) {
    let cal = &small_device().edges()[edge];
    let basis = cal.basis(STRATEGY);
    let op = VerifyOp::TwoQubit {
        qubits: cal.gate_order,
        duration: basis.duration,
        unitary: *basis.gate,
        coord: Some(basis.coord),
    };
    (op, Gate::Unitary2(Box::new(*basis.gate)), cal.gate_order)
}

fn run_standard(ops: Vec<VerifyOp>, source: &Circuit) -> nsb_verify::VerifyReport {
    VerifierSuite::standard()
        .run(&VerifyTarget::new(small_device(), STRATEGY, ops).with_source(source))
}

#[test]
fn wrong_local_between_entanglers_on_one_edge_is_caught() {
    let n = small_device().topology().n_qubits();
    let (op, gate, (a, b)) = basis_op(0);
    let mut source = Circuit::new(n);
    source.push(gate.clone(), &[a, b]);
    source.push(gate, &[a, b]);

    let report = run_standard(vec![op.clone(), op.clone()], &source);
    assert!(report.is_clean(), "{report}");

    // Fusion folds the local into the second entangler and merges both
    // entanglers into one block: the stray local must still show.
    let stray = VerifyOp::Local {
        qubit: a,
        unitary: Mat2::u3(0.9, 0.4, -0.7),
    };
    let report = run_standard(vec![op.clone(), stray, op], &source);
    assert!(report.has(ViolationKind::UnitaryMismatch), "{report}");
    assert_eq!(report.violations.len(), 1, "{report}");
}

/// Two edges sharing one qubit.
fn neighbouring_edges() -> (usize, usize) {
    let edges = small_device().edges();
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            let (p, q) = (edges[i].gate_order, edges[j].gate_order);
            if [p.0, p.1].iter().any(|x| *x == q.0 || *x == q.1) {
                return (i, j);
            }
        }
    }
    panic!("a 3x2 grid has neighbouring edges");
}

#[test]
fn block_on_a_neighbouring_edge_is_not_reordered() {
    let n = small_device().topology().n_qubits();
    let (e0, e1) = neighbouring_edges();
    let (op0, gate0, pair0) = basis_op(e0);
    let (op1, gate1, pair1) = basis_op(e1);
    let ops = vec![op0.clone(), op1.clone(), op0.clone()];

    let mut source = Circuit::new(n);
    source.push(gate0.clone(), &[pair0.0, pair0.1]);
    source.push(gate1.clone(), &[pair1.0, pair1.1]);
    source.push(gate0.clone(), &[pair0.0, pair0.1]);
    let report = run_standard(ops.clone(), &source);
    assert!(report.is_clean(), "{report}");

    // The same edge-`e0` block written in reverse operand order merges
    // through a SWAP conjugation and is still equivalent.
    let mut reversed = Circuit::new(n);
    reversed.push(gate0.clone(), &[pair0.0, pair0.1]);
    reversed.push(gate1.clone(), &[pair1.0, pair1.1]);
    reversed.push(
        Gate::Unitary2(Box::new(Mat4::swap() * gate0.mat4() * Mat4::swap())),
        &[pair0.1, pair0.0],
    );
    let report = run_standard(ops.clone(), &reversed);
    assert!(report.is_clean(), "{report}");

    // Merging the two `e0` blocks across the `e1` block is exactly this
    // reordering; the blocks do not commute, so it must not pass.
    let mut reordered = Circuit::new(n);
    reordered.push(gate0.clone(), &[pair0.0, pair0.1]);
    reordered.push(gate0, &[pair0.0, pair0.1]);
    reordered.push(gate1, &[pair1.0, pair1.1]);
    let report = run_standard(ops, &reordered);
    assert!(report.has(ViolationKind::UnitaryMismatch), "{report}");

    // A wrong middle block (the right one dressed with an X) is caught.
    let mut wrong_middle = op1;
    if let VerifyOp::TwoQubit { unitary, .. } = &mut wrong_middle {
        *unitary = *unitary * Mat4::kron(&Mat2::x(), &Mat2::identity());
    }
    let report = run_standard(vec![op0.clone(), wrong_middle, op0], &source);
    assert!(report.has(ViolationKind::UnitaryMismatch), "{report}");
}

// ---- (d) the memoized Weyl check ----------------------------------------------

#[test]
fn memoized_weyl_check_reports_the_one_off_class_block() {
    let (op, _, pair) = basis_op(0);
    let VerifyOp::TwoQubit { duration, .. } = op else {
        unreachable!()
    };
    let mut ops = vec![op; 10];
    // SWAP is never the class of a calibrated basis gate.
    ops.push(VerifyOp::TwoQubit {
        qubits: pair,
        duration,
        unitary: Mat4::swap(),
        coord: None,
    });
    let mut report = VerifyReport::default();
    WeylCanonicality::check(
        &VerifyTarget::new(small_device(), STRATEGY, ops),
        &mut report,
    );
    let weyl: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::NonCanonicalWeyl)
        .collect();
    assert_eq!(weyl.len(), 1, "{report}");
    assert_eq!(weyl[0].op_index, Some(10), "{report}");
}
