//! The two costly verifier checks on one compiled Table II job (`qft 10`
//! under Criterion 2 on the 4x3 test device): unitary equivalence by miter
//! reduction and the memoized Weyl-canonicality check. A second target
//! with one wrong local keeps the equivalence check's residual simulation
//! timed.

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::compiler::{default_mode, sabre_route, to_verify_ops, Lowerer, SabreConfig};
use nsb_core::prelude::*;
use nsb_core::verify::{UnitaryEquivalence, VerifyOp, VerifyTarget, WeylCanonicality};

/// One check's entry point, as the suites call it.
type Check = fn(&VerifyTarget, &mut VerifyReport);

fn bench_checks(c: &mut Criterion) {
    let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("bench device");
    let strategy = BasisStrategy::Criterion2;
    let qft = table2_suite(7)
        .into_iter()
        .find(|b| b.name == "qft 10")
        .expect("Table II has a `qft 10` row");
    let routed =
        sabre_route(&qft.circuit, device.topology(), &SabreConfig::default()).expect("route");
    let lowered = Lowerer::new(&device, strategy, default_mode(strategy))
        .lower(&routed.circuit)
        .expect("lower");
    let ops = to_verify_ops(&lowered, &device, strategy);
    // A wrong local mid-program: the blocks before it on the qubits it
    // reaches cannot cancel, so the check simulates that residual.
    let mut wrong = ops.clone();
    let middle = (ops.len() / 2..ops.len())
        .find(|&i| matches!(ops[i], VerifyOp::Local { .. }))
        .expect("a local in the second half");
    if let VerifyOp::Local { unitary, .. } = &mut wrong[middle] {
        *unitary = *unitary * Mat2::rx(1.0);
    }
    let target = VerifyTarget::new(&device, strategy, ops).with_source(&routed.circuit);
    let wrong_target = VerifyTarget::new(&device, strategy, wrong).with_source(&routed.circuit);

    let mut group = c.benchmark_group("verify/qft10_criterion2");
    group.sample_size(20);
    let checks: [(&str, Check); 2] = [
        ("unitary_equivalence", UnitaryEquivalence::check),
        ("weyl_canonicality", WeylCanonicality::check),
    ];
    for (name, check) in checks {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut report = VerifyReport::default();
                check(&target, &mut report);
                assert!(report.is_clean(), "{report}");
            })
        });
    }
    group.bench_function("unitary_equivalence_wrong_local", |b| {
        b.iter(|| {
            let mut report = VerifyReport::default();
            UnitaryEquivalence::check(&wrong_target, &mut report);
            assert!(!report.is_clean(), "a wrong local passed: {report}");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_checks);
criterion_main!(benches);
