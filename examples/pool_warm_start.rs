//! A sharded service pool across two device calibrations, with a
//! persistent synthesis-cache store.
//!
//! Run with: `cargo run --release --example pool_warm_start`
//!
//! The first run is cold: every shard's snapshot is missing, jobs pay
//! full synthesis cost, and the pool drains its caches to the store on
//! shutdown. Rerun it with the same `NSB_STORE_DIR` and every shard
//! warm-starts — the run prints (and asserts) a strictly higher
//! aggregate cache hit rate while producing bit-identical circuits.
//!
//! Environment:
//! * `NSB_STORE_DIR` — snapshot directory (default: a per-user dir under
//!   the system temp dir, so back-to-back runs see each other).

use nsb_core::prelude::*;
use nsb_core::service::ServiceError;
use std::path::PathBuf;
use std::time::Duration;

fn store_dir() -> PathBuf {
    match std::env::var_os("NSB_STORE_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join("nsb-pool-warm-start"),
    }
}

fn main() {
    let dir = store_dir();
    println!("snapshot store: {}", dir.display());

    // Two distinct calibrations: the default fast-test device and a
    // re-seeded variant (different trajectories => different per-edge
    // basis gates => a different calibration hash and snapshot).
    let device_a = Device::build(3, 2, DeviceConfig::fast_test()).expect("device a");
    let mut cfg_b = DeviceConfig::fast_test();
    cfg_b.seed = 7;
    let device_b = Device::build(3, 2, cfg_b).expect("device b");
    let calibrations = [device_a.calibration_hash(), device_b.calibration_hash()];

    let pool = ServicePool::new(
        vec![device_a.clone(), device_b.clone()],
        PoolConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 128,
                cache_capacity: 2048,
            },
            store_dir: Some(dir.clone()),
            flush_interval: Some(Duration::from_millis(250)),
        },
    )
    .expect("pool");

    let warm = pool.warm_reports().iter().any(|(_, r)| r.found);
    for (calibration, report) in pool.warm_reports() {
        println!(
            "cal {calibration:#018x} warm start: found={} loaded={} skipped={}",
            report.found, report.loaded, report.skipped
        );
    }

    // The same circuit batch for both shards, routed by calibration hash.
    let circuits = [
        generators::ghz(4),
        generators::qft(4, true),
        generators::bv_all_ones(5),
    ];
    let mut handles = Vec::new();
    for circuit in &circuits {
        for strategy in [BasisStrategy::Baseline, BasisStrategy::Criterion2] {
            for (device, calibration) in [&device_a, &device_b].into_iter().zip(calibrations) {
                let handle = pool
                    .submit(calibration, JobSpec::new(circuit.clone(), strategy))
                    .expect("submit");
                handles.push((device, strategy, circuit.clone(), handle));
            }
        }
    }
    // A calibration no shard has is refused: a program lowered for one
    // calibration is not valid on another.
    let unknown = calibrations[0] ^ calibrations[1];
    assert!(!calibrations.contains(&unknown));
    assert!(matches!(
        pool.submit(
            unknown,
            JobSpec::new(generators::ghz(3), BasisStrategy::Criterion1)
        ),
        Err(ServiceError::NoMatchingShard { calibration }) if calibration == unknown
    ));

    // Serial references prove routed results are bit-identical to a
    // plain per-device transpiler, warm or cold.
    let mut mismatches = 0;
    for (device, strategy, circuit, handle) in handles {
        let compiled = handle.wait().expect("pool compile");
        let reference = Transpiler::new(device, strategy)
            .compile(&circuit)
            .expect("serial compile");
        if compiled.fidelity.to_bits() != reference.fidelity.to_bits() {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "pool output diverged from serial reference");
    println!("\nall routed jobs bit-identical to serial per-device compilation");

    println!("\n{}", pool.report());
    let rate = pool.cache_stats().hit_rate();

    // Two-phase contract: the cold run records its hit rate next to the
    // snapshots; a warm run must strictly beat it.
    let marker = dir.join("cold-hit-rate.txt");
    if warm {
        let cold_rate: f64 = std::fs::read_to_string(&marker)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .expect("cold run must have recorded its hit rate");
        println!(
            "warm aggregate hit rate {:.1}% vs cold {:.1}%",
            100.0 * rate,
            100.0 * cold_rate
        );
        assert!(
            rate > cold_rate,
            "warm hit rate ({rate:.3}) must beat the cold run ({cold_rate:.3})"
        );
    } else {
        std::fs::write(&marker, format!("{rate}\n")).expect("record cold hit rate");
        println!("cold aggregate hit rate {:.1}% recorded", 100.0 * rate);
    }

    let saved = pool.shutdown().expect("drain to store");
    for (calibration, report) in saved {
        println!(
            "cal {calibration:#018x} drained: {} entries, {} bytes",
            report.entries, report.bytes
        );
    }
}
