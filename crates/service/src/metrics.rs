//! Lock-free service counters and the text report.

use nsb_compiler::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters the service updates on every job; all atomic, so they can be
/// read at any time from any thread without stalling workers.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub(crate) jobs_submitted: AtomicU64,
    /// Jobs that produced a compiled circuit.
    pub(crate) jobs_completed: AtomicU64,
    /// Jobs that failed (a compilation or verification error).
    pub(crate) jobs_failed: AtomicU64,
    /// Jobs currently sitting in the queue.
    pub(crate) queue_depth: AtomicU64,
    /// Total nanoseconds spent in SABRE routing.
    pub route_nanos: AtomicU64,
    /// Total nanoseconds spent lowering (includes synthesis).
    pub lower_nanos: AtomicU64,
    /// Total nanoseconds spent scheduling and fidelity evaluation.
    pub schedule_nanos: AtomicU64,
    /// Total nanoseconds spent in the verifier suites (after routing and
    /// after lowering).
    pub verify_nanos: AtomicU64,
    /// Jobs whose output ran through the verifier suite.
    pub jobs_verified: AtomicU64,
    /// Total verifier violations across all verified jobs (every one of
    /// these also failed its job with a verification error).
    pub verification_violations: AtomicU64,
}

impl ServiceMetrics {
    /// Adds a stage latency sample.
    pub(crate) fn record_stage(&self, stage: Stage, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let counter = match stage {
            Stage::Route => &self.route_nanos,
            Stage::Lower => &self.lower_nanos,
            Stage::Schedule => &self.schedule_nanos,
            Stage::Verify => &self.verify_nanos,
        };
        counter.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Renders all counters as a small human-readable report. The cache
    /// keeps its own counters ([`crate::CacheStats`]);
    /// [`CompileService::report`](crate::CompileService::report) adds
    /// them.
    pub fn report(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let ms = |c: &AtomicU64| load(c) as f64 / 1e6;
        format!(
            "service metrics\n\
             \x20 jobs: {} submitted, {} completed, {} failed\n\
             \x20 queue depth: {}\n\
             \x20 verification: {} jobs verified, {} violations\n\
             \x20 stage latency sums: route {:.1} ms, lower {:.1} ms, schedule {:.1} ms, \
             verify {:.1} ms",
            load(&self.jobs_submitted),
            load(&self.jobs_completed),
            load(&self.jobs_failed),
            load(&self.queue_depth),
            load(&self.jobs_verified),
            load(&self.verification_violations),
            ms(&self.route_nanos),
            ms(&self.lower_nanos),
            ms(&self.schedule_nanos),
            ms(&self.verify_nanos),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mentions_all_counters() {
        let m = ServiceMetrics::default();
        m.jobs_submitted.store(5, Ordering::Relaxed);
        m.record_stage(Stage::Route, Duration::from_millis(2));
        let r = m.report();
        assert!(r.contains("5 submitted"));
        assert!(r.contains("route 2.0 ms"));
    }
}
