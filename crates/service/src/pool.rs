//! The multi-device service pool: one [`CompileService`] per device
//! calibration, with routing, warm start and background persistence.
//!
//! A [`ServicePool`] owns N shards, each a full compile service for one
//! [`Device`]. Jobs carry a [`JobRoute`] naming the shard (or the device
//! calibration) they must compile on; what happens when no shard matches
//! is the pool's [`FallbackPolicy`]. When the pool is given a snapshot
//! store directory, every shard warm-starts its synthesis cache from the
//! store on construction and drains it back on shutdown — and optionally
//! keeps flushing in the background on a fixed interval, so even a crash
//! loses at most one interval's worth of new syntheses.

use crate::cache::{CacheStats, SharedSynthCache};
use crate::error::ServiceError;
use crate::job::{JobHandle, JobSpec};
use crate::metrics::ServiceMetrics;
use crate::service::{CompileService, ServiceConfig};
use nsb_device::Device;
use nsb_store::{LoadReport, PeriodicFlusher, SaveReport, SnapshotStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One shard's definition: a display name, the device it compiles onto,
/// and its service sizing.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Human-readable shard name, used by [`JobRoute::Name`] and in
    /// reports. Names should be unique; routing picks the first match.
    pub name: String,
    /// The device this shard compiles onto.
    pub device: Device,
    /// Sizing knobs for the shard's service.
    pub config: ServiceConfig,
}

impl ShardSpec {
    /// A shard with the default [`ServiceConfig`].
    pub fn new(name: impl Into<String>, device: Device) -> Self {
        ShardSpec {
            name: name.into(),
            device,
            config: ServiceConfig::default(),
        }
    }

    /// Overrides the shard's service configuration.
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }
}

/// What the pool does with a job whose route matches no shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Fail the submission with [`ServiceError::NoMatchingShard`].
    #[default]
    Reject,
    /// Compile on the shard with the shallowest queue instead. The job
    /// still compiles correctly — every shard runs the full pipeline —
    /// but against a different calibration than requested; the pool
    /// counts these in [`ServicePool::fallback_routed`].
    LeastLoaded,
}

/// Pool-level configuration.
#[derive(Clone, Debug, Default)]
pub struct PoolConfig {
    /// Policy for jobs whose route matches no shard.
    pub fallback: FallbackPolicy,
    /// Directory of cache snapshots. When set, every shard warm-starts
    /// from `store_dir` on construction and drains back on
    /// [`shutdown`](ServicePool::shutdown).
    pub store_dir: Option<PathBuf>,
    /// When set (together with `store_dir`), a background thread also
    /// flushes every shard's cache to the store on this interval.
    pub flush_interval: Option<Duration>,
}

/// Where a job should compile.
#[derive(Clone, Debug)]
pub enum JobRoute {
    /// The shard with this [`ShardSpec::name`].
    Name(String),
    /// The shard whose device has this calibration hash (see
    /// `Device::calibration_hash`).
    Calibration(u64),
    /// No affinity: always the least-loaded shard. Never counts as a
    /// fallback.
    Any,
}

/// A point-in-time snapshot of one shard's counters, for per-shard
/// reporting without handing out the live atomics.
#[derive(Clone, Debug)]
pub struct ShardMetrics {
    /// The shard's name.
    pub name: String,
    /// The shard device's calibration hash.
    pub calibration_hash: u64,
    /// Jobs accepted by this shard.
    pub jobs_submitted: u64,
    /// Jobs that produced a compiled circuit.
    pub jobs_completed: u64,
    /// Jobs that failed (compile or verification errors).
    pub jobs_failed: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// The shard cache's counters.
    pub cache: CacheStats,
}

struct Shard {
    name: String,
    calibration: u64,
    service: CompileService,
}

/// N compile services for distinct device calibrations behind one
/// routing front end. With a snapshot store, each shard warm-starts its
/// synthesis cache from the store on construction and drains it back on
/// shutdown, optionally flushing in the background as well.
pub struct ServicePool {
    shards: Vec<Shard>,
    store: Option<SnapshotStore>,
    flusher: Option<PeriodicFlusher>,
    fallback: FallbackPolicy,
    fallback_routed: AtomicU64,
    warm_reports: Vec<(String, LoadReport)>,
}

impl ServicePool {
    /// Builds one service per spec, warm-starting each shard's cache
    /// from the store when [`PoolConfig::store_dir`] is set (missing or
    /// partially corrupted snapshots degrade to a colder start, never an
    /// error), and starts the background flusher when
    /// [`PoolConfig::flush_interval`] is also set.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerSpawn`] when a shard's workers cannot start;
    /// [`ServiceError::Store`] when the store directory cannot be
    /// created/read or the flusher thread cannot spawn. Shards already
    /// built are shut down gracefully before the error returns.
    pub fn new(specs: Vec<ShardSpec>, config: PoolConfig) -> Result<Self, ServiceError> {
        let store = match &config.store_dir {
            Some(dir) => Some(SnapshotStore::open(dir)?),
            None => None,
        };
        let mut shards = Vec::with_capacity(specs.len());
        let mut warm_reports = Vec::new();
        for spec in specs {
            let service = CompileService::new(spec.device, spec.config)?;
            if let Some(store) = &store {
                let report = service.warm_start_from(store)?;
                warm_reports.push((spec.name.clone(), report));
            }
            shards.push(Shard {
                name: spec.name,
                calibration: service.calibration_hash(),
                service,
            });
        }
        let flusher = match (&store, config.flush_interval) {
            (Some(store), Some(interval)) => {
                let store = store.clone();
                let caches: Vec<(u64, Arc<SharedSynthCache>)> = shards
                    .iter()
                    .map(|s| (s.calibration, s.service.cache().clone()))
                    .collect();
                // Background flushes are best-effort: an I/O failure here
                // must not take down serving, and the final authoritative
                // drain happens in `shutdown`.
                Some(PeriodicFlusher::spawn(interval, move || {
                    for (calibration, cache) in &caches {
                        let _ = store.save(*calibration, &cache.stored_entries());
                    }
                })?)
            }
            _ => None,
        };
        Ok(ServicePool {
            shards,
            store,
            flusher,
            fallback: config.fallback,
            fallback_routed: AtomicU64::new(0),
            warm_reports,
        })
    }

    /// Per-shard warm-start reports from construction, in shard order
    /// (empty when the pool has no store).
    pub fn warm_reports(&self) -> &[(String, LoadReport)] {
        &self.warm_reports
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the pool has no shards (every submission then fails with
    /// [`ServiceError::NoMatchingShard`]).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard named `name`, if any.
    pub fn shard(&self, name: &str) -> Option<&CompileService> {
        self.shards
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.service)
    }

    /// Iterates `(name, service)` over all shards in construction order.
    pub fn shards(&self) -> impl Iterator<Item = (&str, &CompileService)> {
        self.shards.iter().map(|s| (s.name.as_str(), &s.service))
    }

    /// Jobs that compiled on a substitute shard because their route
    /// matched nothing (only possible under
    /// [`FallbackPolicy::LeastLoaded`]).
    pub fn fallback_routed(&self) -> u64 {
        self.fallback_routed.load(Ordering::Relaxed)
    }

    /// Routes and submits a job.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoMatchingShard`] when the route matches nothing
    /// and the policy is [`FallbackPolicy::Reject`] (or the pool is
    /// empty); otherwise whatever the chosen shard's
    /// [`submit`](CompileService::submit) returns.
    pub fn submit(&self, route: &JobRoute, spec: JobSpec) -> Result<JobHandle, ServiceError> {
        let matched = match route {
            JobRoute::Name(name) => self.shards.iter().find(|s| s.name == *name),
            JobRoute::Calibration(hash) => self.shards.iter().find(|s| s.calibration == *hash),
            JobRoute::Any => self.least_loaded(),
        };
        let shard = match matched {
            Some(shard) => shard,
            None => match (route, self.fallback) {
                // `Any` already means least-loaded; reaching here means
                // the pool is empty, which no policy can save.
                (JobRoute::Any, _) | (_, FallbackPolicy::Reject) => {
                    return Err(ServiceError::NoMatchingShard {
                        requested: describe(route),
                    });
                }
                (_, FallbackPolicy::LeastLoaded) => {
                    let shard =
                        self.least_loaded()
                            .ok_or_else(|| ServiceError::NoMatchingShard {
                                requested: describe(route),
                            })?;
                    self.fallback_routed.fetch_add(1, Ordering::Relaxed);
                    shard
                }
            },
        };
        shard.service.submit(spec)
    }

    /// Point-in-time per-shard counter snapshots, in shard order.
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        self.shards
            .iter()
            .map(|s| {
                let m: &ServiceMetrics = s.service.metrics();
                ShardMetrics {
                    name: s.name.clone(),
                    calibration_hash: s.calibration,
                    jobs_submitted: load(&m.jobs_submitted),
                    jobs_completed: load(&m.jobs_completed),
                    jobs_failed: load(&m.jobs_failed),
                    queue_depth: load(&m.queue_depth),
                    cache: s.service.cache().stats(),
                }
            })
            .collect()
    }

    /// A human-readable report: one line per shard plus aggregate totals
    /// and the fallback count.
    pub fn report(&self) -> String {
        let mut out = String::from("service pool\n");
        let shards = self.shard_metrics();
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut cache = CacheStats::default();
        for m in &shards {
            submitted += m.jobs_submitted;
            completed += m.jobs_completed;
            failed += m.jobs_failed;
            cache.hits += m.cache.hits;
            cache.misses += m.cache.misses;
            out.push_str(&format!(
                "  shard `{}` (cal {:#018x}): {} submitted, {} completed, {} failed, \
                 cache {}/{} ({:.1}% hit rate)\n",
                m.name,
                m.calibration_hash,
                m.jobs_submitted,
                m.jobs_completed,
                m.jobs_failed,
                m.cache.hits,
                m.cache.hits + m.cache.misses,
                100.0 * m.cache.hit_rate(),
            ));
        }
        out.push_str(&format!(
            "  aggregate: {} shards, {} submitted, {} completed, {} failed, \
             cache {}/{} ({:.1}% hit rate), {} fallback-routed",
            shards.len(),
            submitted,
            completed,
            failed,
            cache.hits,
            cache.hits + cache.misses,
            100.0 * cache.hit_rate(),
            self.fallback_routed(),
        ));
        out
    }

    /// Stops the background flusher, shuts every shard down (queued jobs
    /// drain first), and — when the pool has a store — saves each
    /// shard's final cache contents as that calibration's snapshot.
    /// Returns the per-shard save reports, in shard order (empty without
    /// a store).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on the first failed save; shards not yet
    /// drained are still shut down gracefully (by drop), only their
    /// final snapshots are not written.
    pub fn shutdown(mut self) -> Result<Vec<(String, SaveReport)>, ServiceError> {
        if let Some(flusher) = self.flusher.take() {
            flusher.stop();
        }
        let mut reports = Vec::new();
        let store = self.store.take();
        for shard in self.shards.drain(..) {
            // Keep the cache alive past the service so the post-drain
            // state (including syntheses from jobs that completed during
            // shutdown) is what gets persisted.
            let cache = shard.service.cache().clone();
            shard.service.shutdown();
            if let Some(store) = &store {
                let report = store.save(shard.calibration, &cache.stored_entries())?;
                reports.push((shard.name, report));
            }
        }
        Ok(reports)
    }

    fn least_loaded(&self) -> Option<&Shard> {
        self.shards
            .iter()
            .min_by_key(|s| s.service.metrics().queue_depth.load(Ordering::Relaxed))
    }
}

fn describe(route: &JobRoute) -> String {
    match route {
        JobRoute::Name(name) => format!("name `{name}`"),
        JobRoute::Calibration(hash) => format!("calibration {hash:#018x}"),
        JobRoute::Any => "any".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_circuit::generators;
    use nsb_device::{BasisStrategy, DeviceConfig};

    fn two_devices() -> (Device, Device) {
        let a = Device::build(3, 2, DeviceConfig::fast_test()).expect("device a");
        let mut cfg = DeviceConfig::fast_test();
        cfg.seed = 7;
        let b = Device::build(3, 2, cfg).expect("device b");
        (a, b)
    }

    fn small() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 128,
            ..ServiceConfig::default()
        }
    }

    fn two_shard_pool(config: PoolConfig) -> ServicePool {
        let (a, b) = two_devices();
        ServicePool::new(
            vec![
                ShardSpec::new("alpha", a).with_config(small()),
                ShardSpec::new("beta", b).with_config(small()),
            ],
            config,
        )
        .expect("pool")
    }

    #[test]
    fn routes_by_name_and_calibration() {
        let pool = two_shard_pool(PoolConfig::default());
        assert_eq!(pool.len(), 2);
        let beta_cal = pool.shard("beta").expect("beta").calibration_hash();
        pool.submit(
            &JobRoute::Name("alpha".into()),
            JobSpec::new(generators::ghz(3), BasisStrategy::Criterion1),
        )
        .expect("submit alpha")
        .wait()
        .expect("compile alpha");
        pool.submit(
            &JobRoute::Calibration(beta_cal),
            JobSpec::new(generators::ghz(3), BasisStrategy::Criterion1),
        )
        .expect("submit beta")
        .wait()
        .expect("compile beta");
        let metrics = pool.shard_metrics();
        assert_eq!(metrics[0].jobs_completed, 1);
        assert_eq!(metrics[1].jobs_completed, 1);
        assert_eq!(pool.fallback_routed(), 0);
        let report = pool.report();
        assert!(report.contains("shard `alpha`"));
        assert!(report.contains("2 shards"));
    }

    #[test]
    fn reject_policy_fails_unknown_routes() {
        let pool = two_shard_pool(PoolConfig::default());
        let err = pool
            .submit(
                &JobRoute::Name("gamma".into()),
                JobSpec::new(generators::ghz(3), BasisStrategy::Baseline),
            )
            .err()
            .expect("must reject");
        match err {
            ServiceError::NoMatchingShard { requested } => {
                assert!(requested.contains("gamma"));
            }
            other => panic!("expected NoMatchingShard, got {other:?}"),
        }
    }

    #[test]
    fn least_loaded_fallback_compiles_anyway() {
        let pool = two_shard_pool(PoolConfig {
            fallback: FallbackPolicy::LeastLoaded,
            ..PoolConfig::default()
        });
        pool.submit(
            &JobRoute::Name("gamma".into()),
            JobSpec::new(generators::ghz(3), BasisStrategy::Baseline),
        )
        .expect("fallback submit")
        .wait()
        .expect("fallback compile");
        assert_eq!(pool.fallback_routed(), 1);
        // `Any` routes without counting as a fallback.
        pool.submit(
            &JobRoute::Any,
            JobSpec::new(generators::ghz(3), BasisStrategy::Baseline),
        )
        .expect("any submit")
        .wait()
        .expect("any compile");
        assert_eq!(pool.fallback_routed(), 1);
    }

    #[test]
    fn empty_pool_rejects_everything() {
        let pool = ServicePool::new(
            Vec::new(),
            PoolConfig {
                fallback: FallbackPolicy::LeastLoaded,
                ..PoolConfig::default()
            },
        )
        .expect("empty pool");
        assert!(pool.is_empty());
        for route in [JobRoute::Any, JobRoute::Name("x".into())] {
            assert!(matches!(
                pool.submit(
                    &route,
                    JobSpec::new(generators::ghz(3), BasisStrategy::Baseline)
                ),
                Err(ServiceError::NoMatchingShard { .. })
            ));
        }
    }

    #[test]
    fn shutdown_persists_and_next_pool_warm_starts() {
        let dir = std::env::temp_dir().join(format!("nsb-pool-warm-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PoolConfig {
            fallback: FallbackPolicy::Reject,
            store_dir: Some(dir.clone()),
            flush_interval: None,
        };

        let cold = two_shard_pool(config.clone());
        for (_, report) in cold.warm_reports() {
            assert!(!report.found, "no snapshot exists yet");
        }
        cold.submit(
            &JobRoute::Name("alpha".into()),
            JobSpec::new(generators::qft(4, true), BasisStrategy::Baseline),
        )
        .expect("submit")
        .wait()
        .expect("compile");
        let saved = cold.shutdown().expect("drain");
        assert_eq!(saved.len(), 2);
        let alpha_saved = saved[0].1.entries;
        assert!(alpha_saved > 0, "alpha compiled, so it must persist");

        let warm = two_shard_pool(config);
        let alpha_report = &warm.warm_reports()[0].1;
        assert!(alpha_report.found);
        assert_eq!(alpha_report.loaded, alpha_saved);
        assert_eq!(alpha_report.skipped, 0);
        assert_eq!(
            warm.shard("alpha").expect("alpha").cache().stats().entries,
            alpha_saved
        );
        warm.shutdown().expect("second drain");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_flusher_writes_snapshots_while_serving() {
        let dir = std::env::temp_dir().join(format!("nsb-pool-flush-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = two_shard_pool(PoolConfig {
            fallback: FallbackPolicy::Reject,
            store_dir: Some(dir.clone()),
            flush_interval: Some(Duration::from_millis(5)),
        });
        pool.submit(
            &JobRoute::Name("alpha".into()),
            JobSpec::new(generators::qft(4, true), BasisStrategy::Baseline),
        )
        .expect("submit")
        .wait()
        .expect("compile");
        // Wait for at least one flush after the compile.
        let store = SnapshotStore::open(&dir).expect("open");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let alpha_cal = pool.shard("alpha").expect("alpha").calibration_hash();
        loop {
            let outcome = store.load(alpha_cal).expect("load");
            if outcome.report.found && outcome.report.loaded > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "flusher never persisted the warm cache"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        pool.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a shutdown racing the flusher's first wait used to stall
    /// for a full `flush_interval`.
    #[test]
    fn shutdown_right_after_start_does_not_wait_for_flush_interval() {
        let dir = std::env::temp_dir().join(format!("nsb-pool-stop-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = two_shard_pool(PoolConfig {
            fallback: FallbackPolicy::Reject,
            store_dir: Some(dir.clone()),
            flush_interval: Some(Duration::from_secs(3600)),
        });
        let start = std::time::Instant::now();
        let saved = pool.shutdown().expect("shutdown");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            start.elapsed()
        );
        assert_eq!(saved.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
