//! Concurrency smoke test: many threads submitting many circuits must
//! produce exactly the fidelities of a serial compilation of the same
//! jobs — shared-cache hits are bit-identical to fresh syntheses, so
//! neither scheduling order nor cache state may leak into results, also
//! when a one-entry cache evicts on every store.

use nsb_circuit::{generators, Circuit};
use nsb_compiler::Transpiler;
use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_service::{CacheStats, CompileService, JobSpec, ServiceConfig};
use std::sync::Arc;

fn workload() -> Vec<(BasisStrategy, Circuit)> {
    let circuits = [
        generators::ghz(4),
        generators::qft(4, true),
        generators::qft(5, true),
        generators::bv_all_ones(5),
    ];
    circuits
        .iter()
        .flat_map(|c| {
            [
                BasisStrategy::Baseline,
                BasisStrategy::Criterion1,
                BasisStrategy::Criterion2,
            ]
            .into_iter()
            .map(move |s| (s, c.clone()))
        })
        .collect()
}

/// Runs the workload from four submitter threads on a service with the
/// given cache capacity, checks every output against `serial`, and
/// returns the cache's final stats.
fn compile_concurrently(
    device: Device,
    jobs: &[(BasisStrategy, Circuit)],
    cache_capacity: usize,
    serial: &[u64],
) -> CacheStats {
    let service = Arc::new(
        CompileService::new(
            device,
            ServiceConfig {
                workers: 4,
                queue_capacity: 4 * jobs.len(),
                cache_capacity,
            },
        )
        .expect("start service"),
    );

    // N submitter threads, each enqueueing the full M-job workload.
    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let service = service.clone();
            let jobs = jobs.to_vec();
            std::thread::spawn(move || {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|(strategy, circuit)| {
                        service
                            .submit(JobSpec::new(circuit, strategy))
                            .expect("submit")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.wait().expect("compile").fidelity.to_bits())
                    .collect::<Vec<u64>>()
            })
        })
        .collect();

    for submitter in submitters {
        let got = submitter.join().expect("submitter thread");
        assert_eq!(
            got, serial,
            "concurrent fidelities diverged from serial (cache capacity {cache_capacity})"
        );
    }
    service.cache().stats()
}

#[test]
fn concurrent_results_match_serial_exactly() {
    let device = Device::build(3, 2, DeviceConfig::fast_test()).expect("device");
    let jobs = workload();

    let serial: Vec<u64> = jobs
        .iter()
        .map(|(strategy, circuit)| {
            Transpiler::new(&device, *strategy)
                .compile(circuit)
                .expect("serial compile")
                .fidelity
                .to_bits()
        })
        .collect();

    let stats = compile_concurrently(device.clone(), &jobs, 1024, &serial);
    assert!(
        stats.hits > 0,
        "repeated workloads must hit the shared cache"
    );

    // The minimum-capacity cache evicts on every store; results must not
    // move either.
    let stats = compile_concurrently(device, &jobs, 1, &serial);
    assert!(
        stats.entries <= 1,
        "{} entries in a 1-entry cache",
        stats.entries
    );
}
