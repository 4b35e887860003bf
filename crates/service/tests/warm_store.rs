//! Persistence integration tests: warm-started services must be
//! bit-identical to cold ones, and flushing must be safe while the
//! service is actively compiling.

use nsb_circuit::{generators, Circuit};
use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_service::{CompileService, JobSpec, PoolConfig, ServiceConfig, ServicePool};
use nsb_store::{PeriodicFlusher, SnapshotStore, StoredEntry};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nsb-warm-it-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn device() -> Device {
    Device::build(3, 2, DeviceConfig::fast_test()).expect("device")
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 1024,
    }
}

fn workload() -> Vec<(BasisStrategy, Circuit)> {
    [
        generators::ghz(4),
        generators::qft(4, true),
        generators::bv_all_ones(5),
    ]
    .iter()
    .flat_map(|c| {
        [BasisStrategy::Baseline, BasisStrategy::Criterion2]
            .into_iter()
            .map(move |s| (s, c.clone()))
    })
    .collect()
}

fn run_workload(service: &CompileService) -> Vec<u64> {
    workload()
        .into_iter()
        .map(|(strategy, circuit)| {
            service
                .submit(JobSpec::new(circuit, strategy))
                .expect("submit")
                .wait()
                .expect("compile")
                .fidelity
                .to_bits()
        })
        .collect()
}

/// The core warm-start guarantee: a service preloaded from a snapshot a
/// previous service drained produces bit-identical compiled output, with
/// a strictly better cache hit rate.
#[test]
fn warm_started_service_is_bit_identical_and_hits_more() {
    let dir = temp_dir("bitident");
    let store = SnapshotStore::open(&dir).expect("open store");

    let cold = CompileService::new(device(), config()).expect("cold service");
    let cold_bits = run_workload(&cold);
    let cold_stats = cold.cache().stats();
    let saved = cold.drain_to(&store).expect("drain");
    assert_eq!(saved.entries, cold_stats.entries);
    assert!(saved.entries > 0, "workload must populate the cache");
    cold.shutdown();

    let warm = CompileService::new(device(), config()).expect("warm service");
    let report = warm.warm_start_from(&store).expect("warm start");
    assert_eq!(report.loaded, saved.entries);
    assert_eq!(report.skipped, 0);
    let warm_bits = run_workload(&warm);
    assert_eq!(
        warm_bits, cold_bits,
        "warm-started compilation diverged from cold"
    );

    let warm_stats = warm.cache().stats();
    let cold_rate = cold_stats.hits as f64 / (cold_stats.hits + cold_stats.misses) as f64;
    let warm_rate = warm_stats.hits as f64 / (warm_stats.hits + warm_stats.misses) as f64;
    assert!(
        warm_rate > cold_rate,
        "warm hit rate {warm_rate:.3} must beat cold {cold_rate:.3}"
    );
    warm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A background flusher snapshotting the live cache while worker threads
/// are compiling must never corrupt the store: every intermediate
/// snapshot loads cleanly, and the final state round-trips.
#[test]
fn concurrent_flush_while_serving_keeps_snapshots_loadable() {
    let dir = temp_dir("flushserve");
    let store = SnapshotStore::open(&dir).expect("open store");

    let service = Arc::new(CompileService::new(device(), config()).expect("service"));
    let calibration = service.calibration_hash();
    let cache = service.cache().clone();
    let flush_store = store.clone();
    let flusher = PeriodicFlusher::spawn(Duration::from_millis(2), move || {
        let entries: Vec<StoredEntry> = cache
            .export_entries()
            .into_iter()
            .map(|(key, target_fp, value)| StoredEntry {
                key,
                target_fp,
                value,
            })
            .collect();
        let _ = flush_store.save(calibration, &entries);
    })
    .expect("spawn flusher");

    // Hammer the service from several threads while the flusher runs,
    // loading the evolving snapshot concurrently from this thread.
    let submitters: Vec<_> = (0..3)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || {
                for (strategy, circuit) in workload() {
                    service
                        .submit(JobSpec::new(circuit, strategy))
                        .expect("submit")
                        .wait()
                        .expect("compile");
                }
            })
        })
        .collect();
    for _ in 0..20 {
        let outcome = store.load(calibration).expect("load mid-flight");
        assert_eq!(
            outcome.report.skipped, 0,
            "a flushed snapshot must never contain corrupt records"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for s in submitters {
        s.join().expect("submitter");
    }
    flusher.stop();

    let final_outcome = store.load(calibration).expect("final load");
    assert!(final_outcome.report.found);
    assert_eq!(final_outcome.report.skipped, 0);
    assert_eq!(
        final_outcome.report.loaded,
        service.cache().stats().entries,
        "final flush must capture the full cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pool-level round trip across two calibrations: routed jobs compile on
/// their own shard, and a second pool warm-starts both shards from the
/// first pool's drained snapshots.
#[test]
fn pool_round_trips_two_calibrations_through_one_store() {
    let dir = temp_dir("pool");
    let mut cfg = DeviceConfig::fast_test();
    cfg.seed = 11;
    let devices = vec![device(), Device::build(3, 2, cfg).expect("device b")];
    let calibrations: Vec<u64> = devices.iter().map(Device::calibration_hash).collect();
    let make_pool = || {
        ServicePool::new(
            devices.clone(),
            PoolConfig {
                service: config(),
                store_dir: Some(dir.clone()),
                flush_interval: None,
            },
        )
        .expect("pool")
    };

    let cold = make_pool();
    for &calibration in &calibrations {
        cold.submit(
            calibration,
            JobSpec::new(generators::qft(4, true), BasisStrategy::Baseline),
        )
        .expect("submit")
        .wait()
        .expect("compile");
    }
    let saved = cold.shutdown().expect("drain");
    assert_eq!(saved.len(), 2);
    assert!(saved.iter().all(|(_, r)| r.entries > 0));

    let warm = make_pool();
    for (i, (calibration, report)) in warm.warm_reports().iter().enumerate() {
        assert_eq!(*calibration, calibrations[i]);
        assert!(
            report.found,
            "shard {calibration:#018x} must find its snapshot"
        );
        assert_eq!(report.loaded, saved[i].1.entries);
        assert_eq!(report.skipped, 0);
    }
    warm.shutdown().expect("second drain");
    let _ = std::fs::remove_dir_all(&dir);
}
