//! Batch compilation throughput: cached-parallel service versus serial
//! one-at-a-time transpilation over the Table II benchmarks that fit a
//! small device. The service derives each job's synthesis fan-out from
//! the cores its workers leave idle; `one_worker` is the case where that
//! fan-out is widest.

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::prelude::*;
use std::sync::OnceLock;

fn device() -> &'static Device {
    static DEVICE: OnceLock<Device> = OnceLock::new();
    DEVICE.get_or_init(|| Device::build(4, 3, DeviceConfig::fast_test()).expect("bench device"))
}

/// The batch both sides compile: small Table II entries, two strategies.
fn batch() -> Vec<(BasisStrategy, Circuit)> {
    let capacity = device().topology().n_qubits();
    table2_suite(7)
        .into_iter()
        .filter(|b| b.circuit.n_qubits() <= capacity)
        .flat_map(|b| {
            [BasisStrategy::Baseline, BasisStrategy::Criterion2]
                .into_iter()
                .map(move |s| (s, b.circuit.clone()))
        })
        .collect()
}

fn bench_batch_compilation(c: &mut Criterion) {
    let jobs = batch();
    let mut group = c.benchmark_group("service/table2_batch");
    group.sample_size(10);

    group.bench_function("serial", |b| {
        b.iter(|| {
            for (strategy, circuit) in &jobs {
                Transpiler::new(device(), *strategy)
                    .compile(circuit)
                    .expect("serial compile");
            }
        })
    });

    group.bench_function("cached_parallel", |b| {
        b.iter(|| {
            let service = CompileService::new(
                device().clone(),
                ServiceConfig {
                    queue_capacity: jobs.len().max(1),
                    ..ServiceConfig::default()
                },
            )
            .expect("start service");
            let handles: Vec<_> = jobs
                .iter()
                .map(|(strategy, circuit)| {
                    service
                        .submit(JobSpec::new(circuit.clone(), *strategy))
                        .expect("submit")
                })
                .collect();
            for h in handles {
                h.wait().expect("service compile");
            }
            service.shutdown();
        })
    });

    // A single worker leaves the machine's other cores idle, so the
    // service gives each job `available_parallelism` synthesis threads.
    // Compare against `cached_parallel` (one worker per core, one
    // synthesis thread each) to see what that fan-out buys.
    group.bench_function("one_worker", |b| {
        b.iter(|| {
            let service = CompileService::new(
                device().clone(),
                ServiceConfig {
                    workers: 1,
                    queue_capacity: jobs.len().max(1),
                    ..ServiceConfig::default()
                },
            )
            .expect("start service");
            let handles: Vec<_> = jobs
                .iter()
                .map(|(strategy, circuit)| {
                    service
                        .submit(JobSpec::new(circuit.clone(), *strategy))
                        .expect("submit")
                })
                .collect();
            for h in handles {
                h.wait().expect("service compile");
            }
            service.shutdown();
        })
    });

    // Warm-started variant: each iteration builds a fresh service but
    // preloads its cache from a snapshot persisted once up front, so the
    // measured delta versus `cached_parallel` is what warm starts save.
    let store_dir =
        std::env::temp_dir().join(format!("nsb-bench-warm-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).expect("open store");
    {
        let seed = CompileService::new(
            device().clone(),
            ServiceConfig {
                queue_capacity: jobs.len().max(1),
                ..ServiceConfig::default()
            },
        )
        .expect("seed service");
        for (strategy, circuit) in &jobs {
            seed.submit(JobSpec::new(circuit.clone(), *strategy))
                .expect("submit")
                .wait()
                .expect("seed compile");
        }
        seed.drain_to(&store).expect("persist seed cache");
        seed.shutdown();
    }
    group.bench_function("warm_started_parallel", |b| {
        b.iter(|| {
            let service = CompileService::new(
                device().clone(),
                ServiceConfig {
                    queue_capacity: jobs.len().max(1),
                    ..ServiceConfig::default()
                },
            )
            .expect("start service");
            service.warm_start_from(&store).expect("warm start");
            let handles: Vec<_> = jobs
                .iter()
                .map(|(strategy, circuit)| {
                    service
                        .submit(JobSpec::new(circuit.clone(), *strategy))
                        .expect("submit")
                })
                .collect();
            for h in handles {
                h.wait().expect("service compile");
            }
            service.shutdown();
        })
    });
    let _ = std::fs::remove_dir_all(&store_dir);

    group.finish();
}

criterion_group!(benches, bench_batch_compilation);
criterion_main!(benches);
