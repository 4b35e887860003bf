//! Concurrency stress test with verification enabled: a seeded workload
//! submitted from multiple threads, every job requesting a *verified*
//! compilation. All jobs must pass the verifier (zero violations), and
//! every result must be bit-identical to a serial compile of the same
//! job — verification must not perturb outputs, and concurrent verified
//! jobs must not interfere.

use nsb_circuit::{generators, Circuit, Gate};
use nsb_compiler::{CompiledCircuit, Transpiler, VerifyLevel};
use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_service::{CompileService, JobSpec, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Deterministic pseudo-random circuit: layers of rotations and CX/CPhase
/// on a seeded RNG, so every run stresses the same workload.
fn random_circuit(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            let angle = rng.gen_range_f64(-3.0, 3.0);
            match rng.gen::<u64>() % 3 {
                0 => c.push(Gate::Rx(angle), &[q]),
                1 => c.push(Gate::Ry(angle), &[q]),
                _ => c.push(Gate::Rz(angle), &[q]),
            };
        }
        for _ in 0..n / 2 {
            let a = rng.gen::<u64>() as usize % n;
            let b = rng.gen::<u64>() as usize % n;
            if a != b {
                if rng.gen_bool(0.5) {
                    c.push(Gate::Cx, &[a, b]);
                } else {
                    c.push(Gate::CPhase(rng.gen_range_f64(0.1, 3.0)), &[a, b]);
                }
            }
        }
    }
    c
}

fn workload() -> Vec<(BasisStrategy, Circuit)> {
    let mut jobs = vec![
        (BasisStrategy::Baseline, generators::ghz(4)),
        (BasisStrategy::Criterion1, generators::qft(4, true)),
        (BasisStrategy::Criterion2, generators::bv_all_ones(5)),
    ];
    for (i, strategy) in BasisStrategy::ALL.into_iter().enumerate() {
        jobs.push((strategy, random_circuit(4, 2, 0x5eed + i as u64)));
    }
    jobs
}

/// Everything a compile produces that must match bit for bit: the ops
/// (Debug output round-trips every f64 bit pattern), both layouts, the
/// SWAP count and the fidelity's bits.
fn fingerprint(c: &CompiledCircuit) -> String {
    format!(
        "{:?} {:?} {:?} {} {}",
        c.ops,
        c.initial_layout,
        c.final_layout,
        c.swaps_inserted,
        c.fidelity.to_bits()
    )
}

#[test]
fn verified_concurrent_results_match_serial_and_stay_clean() {
    let device = Device::build(3, 2, DeviceConfig::fast_test()).expect("device");
    let jobs = workload();

    // Serial reference: the plain transpiler with full verification.
    let serial: Vec<String> = jobs
        .iter()
        .map(|(strategy, circuit)| {
            let compiled = Transpiler::new(&device, *strategy)
                .with_verification(VerifyLevel::Full)
                .compile(circuit)
                .expect("serial verified compile");
            fingerprint(&compiled)
        })
        .collect();

    let service = Arc::new(
        CompileService::new(
            device,
            ServiceConfig {
                workers: 4,
                queue_capacity: 4 * jobs.len(),
                cache_capacity: 1024,
            },
        )
        .expect("start service"),
    );

    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let service = service.clone();
            let jobs = jobs.clone();
            std::thread::spawn(move || {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|(strategy, circuit)| {
                        service
                            .submit(
                                JobSpec::new(circuit, strategy)
                                    .with_verification(VerifyLevel::Full),
                            )
                            .expect("submit")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| fingerprint(&h.wait().expect("verified compile")))
                    .collect::<Vec<String>>()
            })
        })
        .collect();

    for submitter in submitters {
        let got = submitter.join().expect("submitter thread");
        assert_eq!(got, serial, "verified results diverged from serial");
    }

    let metrics = service.metrics();
    let verified = metrics.jobs_verified.load(Ordering::Relaxed);
    let violations = metrics.verification_violations.load(Ordering::Relaxed);
    assert_eq!(verified, 4 * jobs.len() as u64, "all jobs must verify");
    assert_eq!(violations, 0, "no verified job may report a violation");
    assert!(metrics.report().contains("0 violations"));
}
