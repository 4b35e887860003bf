//! The concurrent compilation service: a worker pool around the
//! transpiler's staged pipeline, and graceful shutdown.

use crate::bounded::{BoundedQueue, PushError};
use crate::cache::SharedSynthCache;
use crate::error::ServiceError;
use crate::job::{Job, JobHandle, JobSpec};
use crate::metrics::ServiceMetrics;
use nsb_compiler::{CompileError, CompiledCircuit, Transpiler};
use nsb_device::Device;
use nsb_store::{LoadReport, SaveReport, SnapshotStore, StoreError};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Service sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads compiling jobs. Defaults to the machine's
    /// available parallelism, capped at 8.
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it fail with
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Shared synthesis-cache capacity in entries (at least one); past
    /// it the least recently used entry is evicted.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 256,
            cache_capacity: 4096,
        }
    }
}

/// A concurrent compilation service over one device.
///
/// Jobs are submitted with [`submit`](CompileService::submit) and run on
/// a fixed worker pool; all workers share one [`SharedSynthCache`], so a
/// two-qubit target any job has decomposed before is reused by every
/// later job (bit-identically — compiled output never depends on cache
/// state). Dropping the service shuts it down gracefully: queued jobs
/// still run, then workers exit.
pub struct CompileService {
    device: Arc<Device>,
    queue: Arc<BoundedQueue<Job>>,
    cache: Arc<SharedSynthCache>,
    metrics: Arc<ServiceMetrics>,
    accepting: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// Starts the worker pool for `device`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerSpawn`] when the operating system refuses to
    /// start a worker thread; any workers already started are joined
    /// before returning.
    pub fn new(device: Device, config: ServiceConfig) -> Result<Self, ServiceError> {
        let n_workers = config.workers.max(1);
        let device = Arc::new(device);
        let metrics = Arc::new(ServiceMetrics::default());
        let cache = Arc::new(SharedSynthCache::new(config.cache_capacity));
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity.max(1)));
        let accepting = Arc::new(AtomicBool::new(true));
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let device = device.clone();
            let queue_for_worker = queue.clone();
            let cache = cache.clone();
            let metrics = metrics.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("nsb-service-worker-{i}"))
                .spawn(move || worker_loop(&device, &queue_for_worker, &cache, &metrics));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    queue.close();
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(ServiceError::WorkerSpawn {
                        reason: e.to_string(),
                    });
                }
            }
        }
        Ok(CompileService {
            device,
            queue,
            cache,
            metrics,
            accepting,
            workers,
        })
    }

    /// The device jobs compile onto.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Live service counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The shared synthesis cache (e.g. for
    /// [`stats`](SharedSynthCache::stats)).
    pub fn cache(&self) -> &Arc<SharedSynthCache> {
        &self.cache
    }

    /// The [metrics report](ServiceMetrics::report) plus a cache line
    /// read from the cache's own [`stats`](SharedSynthCache::stats).
    pub fn report(&self) -> String {
        let cache = self.cache.stats();
        format!(
            "{}\n  cache: {} hits, {} misses ({:.1}% hit rate), {} coalesced, {} entries",
            self.metrics.report(),
            cache.hits,
            cache.misses,
            100.0 * cache.hit_rate(),
            cache.coalesced,
            cache.entries,
        )
    }

    /// Stable fingerprint of this service's device calibration — the key
    /// under which snapshots are persisted (see
    /// [`SnapshotStore::path_for`]).
    pub fn calibration_hash(&self) -> u64 {
        self.device.calibration_hash()
    }

    /// Preloads the shared cache from the store's snapshot for this
    /// device's calibration. A missing snapshot is not an error (the
    /// report simply says zero entries found); corrupted records are
    /// skipped and counted in the report.
    ///
    /// # Errors
    ///
    /// [`StoreError`] only for I/O failures reading an existing snapshot.
    pub fn warm_start_from(&self, store: &SnapshotStore) -> Result<LoadReport, StoreError> {
        let outcome = store.load(self.calibration_hash())?;
        self.cache.preload(
            outcome
                .entries
                .into_iter()
                .map(|e| (e.key, e.target_fp, e.value)),
        );
        Ok(outcome.report)
    }

    /// Writes the shared cache's current entries to the store as this
    /// device's snapshot (atomically replacing any previous one).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any I/O failure; the previous snapshot (if any)
    /// is left untouched in that case.
    pub fn drain_to(&self, store: &SnapshotStore) -> Result<SaveReport, StoreError> {
        store.save(self.calibration_hash(), &self.cache.stored_entries())
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when the bounded queue is at
    /// capacity, [`ServiceError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, ServiceError> {
        if !self.accepting.load(Ordering::Relaxed) {
            return Err(ServiceError::ShuttingDown);
        }
        let (result_tx, result_rx) = mpsc::channel();
        let job = Job { spec, result_tx };
        // Count the job before a worker can see it: a worker idle in `pop`
        // takes it the moment it is pushed, and its decrement must not run
        // first (the depth would wrap to 2^64 - 1).
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        let rejected = match self.queue.try_push(job) {
            Ok(()) => return Ok(JobHandle { result_rx }),
            Err(PushError::Full(_)) => ServiceError::QueueFull {
                capacity: self.queue.capacity(),
            },
            Err(PushError::Closed(_)) => ServiceError::ShuttingDown,
        };
        self.metrics.jobs_submitted.fetch_sub(1, Ordering::Relaxed);
        self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        Err(rejected)
    }

    /// Stops accepting jobs, lets the workers drain everything already
    /// queued, and joins them. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.accepting.store(false, Ordering::Relaxed);
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One worker: pop, compile, report. Exits when the queue is closed and
/// drained.
fn worker_loop(
    device: &Device,
    queue: &BoundedQueue<Job>,
    cache: &Arc<SharedSynthCache>,
    metrics: &ServiceMetrics,
) {
    while let Some(job) = queue.pop() {
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // A panic leaves nothing half-updated that a later job reads: the
        // device is read-only, the metrics are atomic, and the cache
        // releases an abandoned flight and recovers poisoned locks.
        let outcome = catching(|| run_job(device, cache, metrics, &job.spec));
        let counter = match outcome {
            Ok(_) => &metrics.jobs_completed,
            Err(_) => &metrics.jobs_failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // The caller may have dropped its handle; that is fine.
        let _ = job.result_tx.send(outcome);
    }
}

/// Runs `job`, turning a panic into [`ServiceError::Internal`]. This is
/// a backstop: the transpiler rejects malformed input with an error, so
/// no job input is known to panic.
fn catching<T>(job: impl FnOnce() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
    panic::catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        Err(ServiceError::Internal {
            reason: panic_message(payload.as_ref()),
        })
    })
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "panic with a non-text payload".to_string(),
    }
}

/// Compiles one job with [`Transpiler::compile_staged`], whose stage
/// hook records stage latencies. The job's verification level goes to
/// the transpiler unchanged, so the service verifies exactly what the
/// transpiler would.
fn run_job(
    device: &Device,
    cache: &Arc<SharedSynthCache>,
    metrics: &ServiceMetrics,
    spec: &JobSpec,
) -> Result<CompiledCircuit, ServiceError> {
    let outcome = Transpiler::new(device, spec.strategy)
        .with_shared_cache(cache.clone())
        .with_verification(spec.verify)
        .compile_staged(&spec.circuit, |stage, elapsed| {
            metrics.record_stage(stage, elapsed)
        });
    let violations = match &outcome {
        Ok(_) if spec.verify.is_enabled() => Some(0),
        Err(CompileError::Verification { report, .. }) => Some(report.violations.len()),
        _ => None,
    };
    if let Some(violations) = violations {
        metrics.jobs_verified.fetch_add(1, Ordering::Relaxed);
        metrics
            .verification_violations
            .fetch_add(violations as u64, Ordering::Relaxed);
    }
    outcome.map_err(ServiceError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_circuit::{generators, Circuit, Gate};
    use nsb_compiler::VerifyLevel;
    use nsb_device::{BasisStrategy, DeviceConfig};

    fn test_device() -> Device {
        Device::build(3, 2, DeviceConfig::fast_test()).expect("test device")
    }

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 256,
        }
    }

    fn one_worker() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            ..small_config()
        }
    }

    #[test]
    fn a_circuit_wider_than_the_device_fails_and_the_worker_goes_on() {
        let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("4x3 device");
        let service = CompileService::new(device, one_worker()).expect("service");
        let wide = service
            .submit(JobSpec::new(generators::ghz(13), BasisStrategy::Criterion2))
            .expect("submit");
        let err = wide.wait().expect_err("13 qubits on 12");
        assert!(
            matches!(err, ServiceError::Compile(CompileError::TooWide { .. })),
            "{err}"
        );
        let clean = service
            .submit(JobSpec::new(generators::ghz(4), BasisStrategy::Criterion2))
            .expect("submit");
        clean.wait().expect("the worker takes the next job");
    }

    #[test]
    fn an_invalid_gate_fails_its_job_and_the_worker_goes_on() {
        // An Rzz with a NaN angle has no Cartan coordinate; the transpiler
        // rejects it with `InvalidGate` before any kernel sees it, so the
        // job fails without a panic and the worker takes the next job.
        let mut bad = Circuit::new(2);
        bad.push(Gate::Rzz(f64::NAN), &[0, 1]);
        let service = CompileService::new(test_device(), one_worker()).expect("service");
        for _ in 0..2 {
            let handle = service
                .submit(JobSpec::new(bad.clone(), BasisStrategy::Baseline))
                .expect("submit");
            let err = handle.wait().expect_err("NaN angle");
            assert!(
                matches!(
                    err,
                    ServiceError::Compile(CompileError::InvalidGate { op: 0, .. })
                ),
                "{err}"
            );
        }
        let clean = service
            .submit(JobSpec::new(generators::ghz(4), BasisStrategy::Baseline))
            .expect("submit");
        clean.wait().expect("the worker takes the next job");
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panic_becomes_an_internal_error() {
        let err = catching::<()>(|| panic!("boom {}", 7)).expect_err("panicked");
        match err {
            ServiceError::Internal { reason } => assert_eq!(reason, "boom 7"),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(catching(|| Ok(3)).expect("no panic"), 3);
    }

    #[test]
    fn compiles_like_the_plain_transpiler() {
        let device = test_device();
        let logical = generators::qft(4, true);
        let expected = nsb_compiler::Transpiler::new(&device, BasisStrategy::Criterion2)
            .compile(&logical)
            .expect("direct compile");
        let service = CompileService::new(device, small_config()).expect("service");
        let handle = service
            .submit(JobSpec::new(logical, BasisStrategy::Criterion2))
            .expect("submit");
        let compiled = handle.wait().expect("service compile");
        // Debug output round-trips f64 bit patterns, so string equality
        // is bit-identity of the compiled ops.
        assert_eq!(format!("{:?}", compiled.ops), format!("{:?}", expected.ops));
        assert_eq!(compiled.initial_layout, expected.initial_layout);
        assert_eq!(compiled.final_layout, expected.final_layout);
        assert_eq!(compiled.swaps_inserted, expected.swaps_inserted);
        assert_eq!(compiled.fidelity.to_bits(), expected.fidelity.to_bits());
        assert_eq!(service.metrics().jobs_completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn queue_depth_stays_within_capacity_while_jobs_flow() {
        // One job at a time, so a worker is always idle in `pop` when the
        // next one is pushed.
        const JOBS: usize = 300;
        let config = ServiceConfig {
            queue_capacity: JOBS,
            ..small_config()
        };
        let service = CompileService::new(test_device(), config).expect("service");
        let mut circuit = nsb_circuit::Circuit::new(1);
        circuit.push(nsb_circuit::Gate::H, &[0]);
        let done = AtomicBool::new(false);
        let worst = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut worst = 0;
                while !done.load(Ordering::Relaxed) {
                    worst = worst.max(service.metrics().queue_depth.load(Ordering::Relaxed));
                }
                worst
            });
            for _ in 0..JOBS {
                let spec = JobSpec::new(circuit.clone(), BasisStrategy::Baseline);
                service
                    .submit(spec)
                    .expect("submit")
                    .wait()
                    .expect("compile");
            }
            done.store(true, Ordering::Relaxed);
            sampler.join().expect("sampler")
        });
        assert!(worst <= JOBS as u64, "queue depth sampled at {worst}");
        assert_eq!(service.metrics().queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn queue_full_is_reported() {
        let service = CompileService::new(
            test_device(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                cache_capacity: 16,
            },
        )
        .expect("service");
        // Saturate: keep submitting until the bounded queue rejects one.
        let mut handles = Vec::new();
        let mut saw_full = false;
        for _ in 0..64 {
            match service.submit(JobSpec::new(
                generators::qft(5, true),
                BasisStrategy::Baseline,
            )) {
                Ok(h) => handles.push(h),
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_full = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_full, "queue never filled");
        for h in handles {
            h.wait().expect("queued jobs still complete");
        }
    }

    #[test]
    fn shutdown_drains_inflight_jobs() {
        let service = CompileService::new(
            test_device(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 256,
            },
        )
        .expect("service");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                service
                    .submit(JobSpec::new(generators::ghz(4), BasisStrategy::Criterion2))
                    .expect("submit")
            })
            .collect();
        service.shutdown();
        for h in handles {
            h.wait().expect("accepted job must finish across shutdown");
        }
    }

    #[test]
    fn rejects_after_shutdown() {
        let device = test_device();
        let service = CompileService::new(device.clone(), small_config()).expect("service");
        service.accepting.store(false, Ordering::Relaxed);
        match service.submit(JobSpec::new(generators::ghz(3), BasisStrategy::Baseline)) {
            Err(ServiceError::ShuttingDown) => {}
            Err(other) => panic!("expected shutting-down, got {other:?}"),
            Ok(_) => panic!("expected shutting-down, the job was accepted"),
        }
    }

    #[test]
    fn verified_jobs_are_counted() {
        let service = CompileService::new(test_device(), small_config()).expect("service");
        for level in [VerifyLevel::Full, VerifyLevel::Off] {
            service
                .submit(
                    JobSpec::new(generators::ghz(4), BasisStrategy::Criterion2)
                        .with_verification(level),
                )
                .expect("submit")
                .wait()
                .expect("compile");
        }
        let m = service.metrics();
        assert_eq!(m.jobs_verified.load(Ordering::Relaxed), 1);
        assert_eq!(m.verification_violations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn warm_start_and_drain_round_trip_through_a_store() {
        use nsb_store::SnapshotStore;
        let dir =
            std::env::temp_dir().join(format!("nsb-service-warm-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).expect("open store");

        let cold = CompileService::new(test_device(), small_config()).expect("cold service");
        cold.submit(JobSpec::new(
            generators::qft(4, true),
            BasisStrategy::Baseline,
        ))
        .expect("submit")
        .wait()
        .expect("cold compile");
        let exported = cold.cache().stats().entries;
        assert!(exported > 0, "cold run must populate the cache");
        let saved = cold.drain_to(&store).expect("drain");
        assert_eq!(saved.entries, exported);
        cold.shutdown();

        let warm = CompileService::new(test_device(), small_config()).expect("warm service");
        assert_eq!(warm.calibration_hash(), {
            let d = test_device();
            d.calibration_hash()
        });
        let report = warm.warm_start_from(&store).expect("warm start");
        assert_eq!(report.loaded, exported);
        assert_eq!(report.skipped, 0);
        assert!(report.found);
        assert_eq!(warm.cache().stats().entries, exported);
        // The warmed service compiles with cache hits from the snapshot.
        warm.submit(JobSpec::new(
            generators::qft(4, true),
            BasisStrategy::Baseline,
        ))
        .expect("submit")
        .wait()
        .expect("warm compile");
        assert!(warm.cache().stats().hits > 0, "warm run must hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_cache_fills_and_hits_across_jobs() {
        let service = CompileService::new(
            test_device(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 256,
            },
        )
        .expect("service");
        // Baseline strategy lowers CPhase gates by direct decomposition,
        // which is what the shared cache accelerates.
        let spec = JobSpec::new(generators::qft(4, true), BasisStrategy::Baseline);
        service.submit(spec.clone()).unwrap().wait().unwrap();
        let after_first = service.cache().stats();
        assert!(after_first.entries > 0, "first job must populate the cache");
        service.submit(spec).unwrap().wait().unwrap();
        let after_second = service.cache().stats();
        assert!(
            after_second.hits > after_first.hits,
            "second identical job must hit the shared cache"
        );
        assert!(after_second.hit_rate() > 0.0);
        assert!(
            service
                .report()
                .contains(&format!("{} hits", after_second.hits)),
            "the report's cache line reads the cache's own counters"
        );
    }
}
