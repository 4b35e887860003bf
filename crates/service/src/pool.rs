//! The multi-device service pool: one [`CompileService`] per device
//! calibration, with routing, warm start and background persistence.
//!
//! A [`ServicePool`] owns N shards, each a full compile service for one
//! [`Device`]. A shard's only identity is its device's calibration hash
//! (`Device::calibration_hash`), the same key its store snapshot is
//! saved under: jobs name the calibration they were lowered for, and a
//! hash no shard has fails with [`ServiceError::NoMatchingShard`]. When
//! the pool is given a snapshot store directory, every shard warm-starts
//! its synthesis cache from the store on construction and drains it back
//! on shutdown — and optionally keeps flushing in the background on a
//! fixed interval, so even a crash loses at most one interval's worth of
//! new syntheses.

use crate::error::ServiceError;
use crate::job::{JobHandle, JobSpec};
use crate::service::{stored_entries, CompileService, ServiceConfig};
use nsb_device::Device;
use nsb_store::{LoadReport, PeriodicFlusher, SaveReport, SnapshotStore, StoreError};
use nsb_synth::{CacheStats, SharedSynthCache};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Pool-level configuration.
#[derive(Clone, Debug, Default)]
pub struct PoolConfig {
    /// Sizing of every shard's service.
    pub service: ServiceConfig,
    /// Directory of cache snapshots. When set, every shard warm-starts
    /// from `store_dir` on construction and drains back on
    /// [`shutdown`](ServicePool::shutdown).
    pub store_dir: Option<PathBuf>,
    /// When set (together with `store_dir`), a background thread also
    /// flushes every shard's cache to the store on this interval.
    pub flush_interval: Option<Duration>,
}

struct Shard {
    calibration: u64,
    service: CompileService,
}

/// N compile services for distinct device calibrations behind one
/// front end that routes each job by calibration hash. With a snapshot
/// store, each shard warm-starts its synthesis cache from the store on
/// construction and drains it back on shutdown, optionally flushing in
/// the background as well.
pub struct ServicePool {
    shards: Vec<Shard>,
    store: Option<SnapshotStore>,
    flusher: Option<PeriodicFlusher>,
    warm_reports: Vec<(u64, LoadReport)>,
}

impl ServicePool {
    /// Builds one service per device, warm-starting each shard's cache
    /// from the store when [`PoolConfig::store_dir`] is set (missing,
    /// partially corrupted or other-version snapshots degrade to a colder
    /// start, never an error), and starts the background flusher when
    /// [`PoolConfig::flush_interval`] is also set.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateShard`] when two devices share a
    /// calibration hash (checked before anything starts);
    /// [`ServiceError::WorkerSpawn`] when a shard's workers cannot start;
    /// [`ServiceError::Store`] when the store directory cannot be
    /// created/read or the flusher thread cannot spawn. Shards already
    /// built are shut down gracefully before the error returns.
    pub fn new(devices: Vec<Device>, config: PoolConfig) -> Result<Self, ServiceError> {
        let calibrations: Vec<u64> = devices.iter().map(Device::calibration_hash).collect();
        for (i, calibration) in calibrations.iter().enumerate() {
            if calibrations[..i].contains(calibration) {
                return Err(ServiceError::DuplicateShard {
                    calibration: *calibration,
                });
            }
        }
        let store = match &config.store_dir {
            Some(dir) => Some(SnapshotStore::open(dir)?),
            None => None,
        };
        let mut shards = Vec::with_capacity(devices.len());
        let mut warm_reports = Vec::new();
        for (device, calibration) in devices.into_iter().zip(calibrations) {
            let service = CompileService::new(device, config.service)?;
            if let Some(store) = &store {
                let report = match service.warm_start_from(store) {
                    // A snapshot of another format version holds stale
                    // syntheses: start cold, as if it were absent; the
                    // next drain replaces it under the current version.
                    Err(StoreError::UnsupportedVersion { .. }) => LoadReport::default(),
                    other => other?,
                };
                warm_reports.push((calibration, report));
            }
            shards.push(Shard {
                calibration,
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
                        let _ = store.save(*calibration, &stored_entries(cache));
                    }
                })?)
            }
            _ => None,
        };
        Ok(ServicePool {
            shards,
            store,
            flusher,
            warm_reports,
        })
    }

    /// Per-shard warm-start reports from construction, keyed by
    /// calibration hash, in shard order (empty when the pool has no
    /// store).
    pub fn warm_reports(&self) -> &[(u64, LoadReport)] {
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

    /// The shard compiling for `calibration`, if any.
    fn shard(&self, calibration: u64) -> Option<&CompileService> {
        self.shards
            .iter()
            .find(|s| s.calibration == calibration)
            .map(|s| &s.service)
    }

    /// Submits a job to the shard whose device has this calibration hash.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoMatchingShard`] when no shard has `calibration`;
    /// otherwise whatever that shard's
    /// [`submit`](CompileService::submit) returns.
    pub fn submit(&self, calibration: u64, spec: JobSpec) -> Result<JobHandle, ServiceError> {
        self.shard(calibration)
            .ok_or(ServiceError::NoMatchingShard { calibration })?
            .submit(spec)
    }

    /// Every shard's cache counters, summed.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let stats = s.service.cache().stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.coalesced += stats.coalesced;
            total.entries += stats.entries;
        }
        total
    }

    /// A human-readable report: one line per shard, keyed by calibration
    /// hash, plus aggregate totals.
    pub fn report(&self) -> String {
        let mut out = String::from("service pool\n");
        let mut totals = [0u64; 3];
        for s in &self.shards {
            let m = s.service.metrics();
            let counts = [&m.jobs_submitted, &m.jobs_completed, &m.jobs_failed]
                .map(|c| c.load(Ordering::Relaxed));
            for (total, count) in totals.iter_mut().zip(counts) {
                *total += count;
            }
            let line = summary(counts, &s.service.cache().stats());
            out.push_str(&format!("  cal {:#018x}: {line}\n", s.calibration));
        }
        out.push_str(&format!(
            "  aggregate: {} shards, {}",
            self.shards.len(),
            summary(totals, &self.cache_stats())
        ));
        out
    }

    /// Stops the background flusher, shuts every shard down (queued jobs
    /// drain first), and — when the pool has a store — saves each
    /// shard's final cache contents as that calibration's snapshot.
    /// Returns the save reports keyed by calibration hash, in shard order
    /// (empty without a store).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on the first failed save; shards not yet
    /// drained are still shut down gracefully (by drop), only their
    /// final snapshots are not written.
    pub fn shutdown(mut self) -> Result<Vec<(u64, SaveReport)>, ServiceError> {
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
                let report = store.save(shard.calibration, &stored_entries(&cache))?;
                reports.push((shard.calibration, report));
            }
        }
        Ok(reports)
    }
}

/// One report line's counters: jobs submitted, completed and failed,
/// then the cache's hit rate.
fn summary([submitted, completed, failed]: [u64; 3], cache: &CacheStats) -> String {
    format!(
        "{submitted} submitted, {completed} completed, {failed} failed, \
         cache {}/{} ({:.1}% hit rate)",
        cache.hits,
        cache.hits + cache.misses,
        100.0 * cache.hit_rate(),
    )
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

    fn small(store_dir: Option<PathBuf>, flush_interval: Option<Duration>) -> PoolConfig {
        PoolConfig {
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 128,
            },
            store_dir,
            flush_interval,
        }
    }

    /// A pool over [`two_devices`], with its two shards' calibration
    /// hashes.
    fn two_shard_pool(config: PoolConfig) -> (ServicePool, u64, u64) {
        let (a, b) = two_devices();
        let (alpha, beta) = (a.calibration_hash(), b.calibration_hash());
        let pool = ServicePool::new(vec![a, b], config).expect("pool");
        (pool, alpha, beta)
    }

    #[test]
    fn routes_by_calibration() {
        let (pool, alpha, beta) = two_shard_pool(small(None, None));
        assert_eq!(pool.len(), 2);
        for calibration in [alpha, beta] {
            pool.submit(
                calibration,
                JobSpec::new(generators::ghz(3), BasisStrategy::Criterion1),
            )
            .expect("submit")
            .wait()
            .expect("compile");
            let shard = pool.shard(calibration).expect("shard");
            assert_eq!(shard.calibration_hash(), calibration);
            assert_eq!(shard.metrics().jobs_completed.load(Ordering::Relaxed), 1);
        }
        let report = pool.report();
        assert!(report.contains(&format!("cal {alpha:#018x}")));
        assert!(report.contains(&format!("cal {beta:#018x}")));
        assert!(report.contains("2 shards"));
    }

    #[test]
    fn unknown_calibration_is_refused() {
        let (pool, alpha, beta) = two_shard_pool(small(None, None));
        let unknown = alpha.wrapping_add(1);
        assert_ne!(unknown, beta);
        let err = pool
            .submit(
                unknown,
                JobSpec::new(generators::ghz(3), BasisStrategy::Baseline),
            )
            .err()
            .expect("must refuse");
        match err {
            ServiceError::NoMatchingShard { calibration } => assert_eq!(calibration, unknown),
            other => panic!("expected NoMatchingShard, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_calibrations_are_rejected() {
        let (a, b) = two_devices();
        let alpha = a.calibration_hash();
        let err = ServicePool::new(vec![a.clone(), b, a], small(None, None))
            .err()
            .expect("must reject");
        match err {
            ServiceError::DuplicateShard { calibration } => assert_eq!(calibration, alpha),
            other => panic!("expected DuplicateShard, got {other:?}"),
        }
    }

    #[test]
    fn empty_pool_rejects_everything() {
        let pool = ServicePool::new(Vec::new(), PoolConfig::default()).expect("empty pool");
        assert!(pool.is_empty());
        for calibration in [0, u64::MAX] {
            assert!(matches!(
                pool.submit(
                    calibration,
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
        let config = small(Some(dir.clone()), None);

        let (cold, alpha, _) = two_shard_pool(config.clone());
        for (_, report) in cold.warm_reports() {
            assert!(!report.found, "no snapshot exists yet");
        }
        cold.submit(
            alpha,
            JobSpec::new(generators::qft(4, true), BasisStrategy::Baseline),
        )
        .expect("submit")
        .wait()
        .expect("compile");
        let saved = cold.shutdown().expect("drain");
        assert_eq!(saved.len(), 2);
        assert_eq!(saved[0].0, alpha);
        let alpha_saved = saved[0].1.entries;
        assert!(alpha_saved > 0, "alpha compiled, so it must persist");

        let (warm, _, _) = two_shard_pool(config.clone());
        let (warm_cal, alpha_report) = &warm.warm_reports()[0];
        assert_eq!(*warm_cal, alpha);
        assert!(alpha_report.found);
        assert_eq!(alpha_report.loaded, alpha_saved);
        assert_eq!(alpha_report.skipped, 0);
        assert_eq!(
            warm.shard(alpha).expect("alpha").cache().stats().entries,
            alpha_saved
        );
        warm.shutdown().expect("second drain");

        // A snapshot of another format version starts the shard cold (this
        // used to fail the pool with `UnsupportedVersion`), and the drain
        // replaces it under the current version.
        let store = SnapshotStore::open(&dir).expect("store");
        let mut bytes = std::fs::read(store.path_for(alpha)).expect("snapshot");
        bytes[8..12].copy_from_slice(&(nsb_store::FORMAT_VERSION - 1).to_le_bytes());
        std::fs::write(store.path_for(alpha), bytes).expect("rewrite");
        let (stale, _, _) = two_shard_pool(config);
        assert_eq!(stale.warm_reports()[0].1, LoadReport::default());
        stale.shutdown().expect("third drain");
        assert!(store.load(alpha).expect("current version").report.found);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_flusher_writes_snapshots_while_serving() {
        let dir = std::env::temp_dir().join(format!("nsb-pool-flush-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (pool, alpha, _) =
            two_shard_pool(small(Some(dir.clone()), Some(Duration::from_millis(5))));
        pool.submit(
            alpha,
            JobSpec::new(generators::qft(4, true), BasisStrategy::Baseline),
        )
        .expect("submit")
        .wait()
        .expect("compile");
        // Wait for at least one flush after the compile.
        let store = SnapshotStore::open(&dir).expect("open");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let outcome = store.load(alpha).expect("load");
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
        let (pool, _, _) =
            two_shard_pool(small(Some(dir.clone()), Some(Duration::from_secs(3600))));
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
