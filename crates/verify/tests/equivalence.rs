//! The unitary-equivalence check simulates fused two-qubit blocks and the
//! Weyl check memoizes recomputed classes. These tests pin both to what
//! they replace: the fused overlap equals a gate-by-gate simulation, the
//! shapes fusion rewrites still catch wrong programs, and the memo reports
//! every bad block where it is.

use nsb_circuit::{Circuit, Gate, StateVector};
use nsb_compiler::{default_mode, sabre_route, to_verify_ops, Lowerer, SabreConfig};
use nsb_core::experiments::table2_suite;
use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_math::{haar_su2, haar_u4, Mat2, Mat4};
use nsb_verify::{
    UnitaryEquivalence, VerifierSuite, VerifyOp, VerifyTarget, ViolationKind, WeylCanonicality,
};
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

fn assert_fusion_matches(ops: &[VerifyOp], source: &Circuit, what: &str) -> f64 {
    let fused = UnitaryEquivalence::min_overlap(ops, source);
    let reference = op_by_op_min_overlap(ops, source);
    assert!(
        (fused - reference).abs() < 1e-12,
        "{what}: fused overlap {fused} vs gate-by-gate {reference}"
    );
    fused
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
        let overlap = assert_fusion_matches(&same, &source, &format!("case {case} same"));
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

#[test]
fn fused_overlap_matches_gate_by_gate_on_compiled_table2_jobs() {
    let device = grid_device();
    let n = device.topology().n_qubits();
    let rows: Vec<_> = table2_suite(7)
        .into_iter()
        .filter(|b| b.circuit.n_qubits() <= n)
        .collect();
    assert!(rows.len() >= 6, "Table II rows that fit {n} qubits");
    for bench in &rows {
        for strategy in [BasisStrategy::Criterion1, BasisStrategy::Criterion2] {
            let routed = sabre_route(&bench.circuit, device.topology(), &SabreConfig::default())
                .expect("route");
            let lowered = Lowerer::new(device, strategy, default_mode(strategy))
                .lower(&routed.circuit)
                .expect("lower");
            let ops = to_verify_ops(&lowered, device, strategy);
            let what = format!("{} / {strategy}", bench.name);
            let overlap = assert_fusion_matches(&ops, &routed.circuit, &what);
            assert!(overlap > 0.99, "{what}: {overlap}");
        }
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
    let mut suite = VerifierSuite::empty();
    suite.push(WeylCanonicality);
    let report = suite.run(&VerifyTarget::new(small_device(), STRATEGY, ops));
    let weyl: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::NonCanonicalWeyl)
        .collect();
    assert_eq!(weyl.len(), 1, "{report}");
    assert_eq!(weyl[0].op_index, Some(10), "{report}");
}
