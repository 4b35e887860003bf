//! Batch-compilation throughput: the concurrent service (worker pool +
//! shared synthesis cache) versus one-at-a-time serial compilation of
//! the same jobs, then a warm-started service preloaded from a
//! persisted cache snapshot.
//!
//! Run with: `cargo run --release --example service_throughput`
//! (pass `--full` for the 10x10 device and the full Table II suite).

use nsb_core::prelude::*;
use std::time::Instant;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (cols, rows) = if full { (10, 10) } else { (4, 3) };
    println!("calibrating a {cols}x{rows} device...");
    let device = Device::build(cols, rows, DeviceConfig::fast_test()).expect("device");
    let capacity = device.topology().n_qubits();

    // The Table II benchmarks that fit the device, two rounds each under
    // two strategies — repetition across jobs is exactly what the shared
    // cache exploits.
    let suite: Vec<_> = table2_suite(7)
        .into_iter()
        .filter(|b| b.circuit.n_qubits() <= capacity)
        .collect();
    let mut jobs = Vec::new();
    for _round in 0..2 {
        for b in &suite {
            for strategy in [BasisStrategy::Baseline, BasisStrategy::Criterion2] {
                jobs.push((b.name.clone(), strategy, b.circuit.clone()));
            }
        }
    }
    println!(
        "{} jobs ({} benchmarks x 2 strategies x 2 rounds)\n",
        jobs.len(),
        suite.len()
    );

    // Serial baseline: a fresh transpiler per job, no shared state.
    let started = Instant::now();
    let mut serial_fidelities = Vec::new();
    for (_, strategy, circuit) in &jobs {
        let compiled = Transpiler::new(&device, *strategy)
            .compile(circuit)
            .expect("serial compile");
        serial_fidelities.push(compiled.fidelity);
    }
    let serial = started.elapsed();
    println!(
        "serial:  {} jobs in {:.2} s",
        jobs.len(),
        serial.as_secs_f64()
    );

    // Concurrent service: >= 2 workers sharing one synthesis cache.
    let workers = ServiceConfig::default().workers.max(2);
    let service = CompileService::new(
        device,
        ServiceConfig {
            workers,
            queue_capacity: jobs.len().max(1),
            ..ServiceConfig::default()
        },
    )
    .expect("start service");
    let started = Instant::now();
    let handles: Vec<_> = jobs
        .iter()
        .map(|(_, strategy, circuit)| {
            service
                .submit(JobSpec::new(circuit.clone(), *strategy))
                .expect("submit")
        })
        .collect();
    let service_fidelities: Vec<f64> = handles
        .into_iter()
        .map(|h| h.wait().expect("service compile").fidelity)
        .collect();
    let concurrent = started.elapsed();
    println!(
        "service: {} jobs in {:.2} s on {workers} workers",
        jobs.len(),
        concurrent.as_secs_f64()
    );
    println!(
        "speedup: {:.2}x\n",
        serial.as_secs_f64() / concurrent.as_secs_f64()
    );

    // The cache serves bit-identical decompositions, so results agree
    // exactly with the serial run.
    let identical = serial_fidelities
        .iter()
        .zip(&service_fidelities)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!("fidelities bit-identical to serial: {identical}");

    println!("\n{}", service.report());
    let stats = service.cache().stats();
    assert!(
        stats.hits > 0,
        "expected shared-cache hits across repeated jobs"
    );
    let cold_rate = stats.hit_rate();

    // Warm start: persist the cache, preload a fresh service from the
    // snapshot and rerun the whole batch. Every synthesis is already on
    // disk, so the warm run's hit rate must beat the cold run's.
    let store_dir =
        std::env::temp_dir().join(format!("nsb-throughput-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).expect("open store");
    let saved = service.drain_to(&store).expect("persist cache");
    let device = service.device().clone();
    service.shutdown();
    println!(
        "\npersisted {} cache entries ({} bytes); warm-starting a fresh service...",
        saved.entries, saved.bytes
    );

    let warm = CompileService::new(
        device,
        ServiceConfig {
            workers,
            queue_capacity: jobs.len().max(1),
            ..ServiceConfig::default()
        },
    )
    .expect("start warm service");
    let report = warm.warm_start_from(&store).expect("warm start");
    println!(
        "warm start: {} entries loaded, {} skipped",
        report.loaded, report.skipped
    );
    let started = Instant::now();
    let handles: Vec<_> = jobs
        .iter()
        .map(|(_, strategy, circuit)| {
            warm.submit(JobSpec::new(circuit.clone(), *strategy))
                .expect("submit")
        })
        .collect();
    let warm_fidelities: Vec<f64> = handles
        .into_iter()
        .map(|h| h.wait().expect("warm compile").fidelity)
        .collect();
    let warm_elapsed = started.elapsed();
    let warm_rate = warm.cache().stats().hit_rate();
    println!(
        "warm:    {} jobs in {:.2} s ({:.1}% hit rate vs {:.1}% cold)",
        jobs.len(),
        warm_elapsed.as_secs_f64(),
        100.0 * warm_rate,
        100.0 * cold_rate,
    );
    let warm_identical = serial_fidelities
        .iter()
        .zip(&warm_fidelities)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!("warm fidelities bit-identical to serial: {warm_identical}");
    assert!(warm_identical, "warm-started results diverged");
    assert!(
        warm_rate > cold_rate,
        "warm-started hit rate ({warm_rate:.3}) must beat the cold run ({cold_rate:.3})"
    );
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}
