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
    println!(
        "shard `alpha` calibration {:#018x}\nshard `beta`  calibration {:#018x}",
        device_a.calibration_hash(),
        device_b.calibration_hash()
    );

    let shard_config = ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        cache_capacity: 2048,
    };
    let pool = ServicePool::new(
        vec![
            ShardSpec::new("alpha", device_a.clone()).with_config(shard_config),
            ShardSpec::new("beta", device_b.clone()).with_config(shard_config),
        ],
        PoolConfig {
            fallback: FallbackPolicy::LeastLoaded,
            store_dir: Some(dir.clone()),
            flush_interval: Some(Duration::from_millis(250)),
        },
    )
    .expect("pool");

    let warm = pool.warm_reports().iter().any(|(_, r)| r.found);
    for (name, report) in pool.warm_reports() {
        println!(
            "shard `{name}` warm start: found={} loaded={} skipped={}",
            report.found, report.loaded, report.skipped
        );
    }

    // The same circuit batch for both shards, routed by shard name.
    let circuits = [
        generators::ghz(4),
        generators::qft(4, true),
        generators::bv_all_ones(5),
    ];
    let mut handles = Vec::new();
    for circuit in &circuits {
        for strategy in [BasisStrategy::Baseline, BasisStrategy::Criterion2] {
            for shard in ["alpha", "beta"] {
                let handle = pool
                    .submit(
                        &JobRoute::Name(shard.into()),
                        JobSpec::new(circuit.clone(), strategy),
                    )
                    .expect("submit");
                handles.push((shard, strategy, circuit.clone(), handle));
            }
        }
    }
    // One job routed by calibration hash, and one to a shard that does
    // not exist — the LeastLoaded policy compiles it anyway and counts
    // it as fallback-routed.
    pool.submit(
        &JobRoute::Calibration(device_b.calibration_hash()),
        JobSpec::new(generators::ghz(3), BasisStrategy::Criterion1),
    )
    .expect("submit by calibration")
    .wait()
    .expect("compile by calibration");
    pool.submit(
        &JobRoute::Name("gamma".into()),
        JobSpec::new(generators::ghz(3), BasisStrategy::Criterion1),
    )
    .expect("fallback submit")
    .wait()
    .expect("fallback compile");

    // Serial references prove routed results are bit-identical to a
    // plain per-device transpiler, warm or cold.
    let mut mismatches = 0;
    for (shard, strategy, circuit, handle) in handles {
        let compiled = handle.wait().expect("pool compile");
        let device = if shard == "alpha" {
            &device_a
        } else {
            &device_b
        };
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
    assert_eq!(pool.fallback_routed(), 1);

    let metrics = pool.shard_metrics();
    let (hits, lookups) = metrics.iter().fold((0, 0), |(h, l), m| {
        (h + m.cache.hits, l + m.cache.hits + m.cache.misses)
    });
    let rate = hits as f64 / lookups.max(1) as f64;

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
    for (name, report) in saved {
        println!(
            "shard `{name}` drained: {} entries, {} bytes",
            report.entries, report.bytes
        );
    }
}
