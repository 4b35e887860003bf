//! Job descriptions and the caller-side handle.

use crate::error::ServiceError;
use nsb_circuit::Circuit;
use nsb_compiler::{CompiledCircuit, VerifyLevel};
use nsb_device::BasisStrategy;
use nsb_verify::VerifyReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to compile and how.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The logical circuit.
    pub circuit: Circuit,
    /// Basis-gate strategy to compile with.
    pub strategy: BasisStrategy,
    /// Optional wall-clock budget, measured from submission. Jobs whose
    /// deadline elapses — even while still queued — fail with
    /// [`ServiceError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Verification level for this job. The default runs the verifier
    /// suite only in debug builds; [`VerifyLevel::Full`] makes the job a
    /// *verified compilation*: the result is checked by the full suite and
    /// rejected (with the violation report) if any check fails.
    pub verify: VerifyLevel,
}

impl JobSpec {
    /// A job with the strategy's default mode, no deadline, and the
    /// process-wide default verification level ([`VerifyLevel::from_env`]).
    pub fn new(circuit: Circuit, strategy: BasisStrategy) -> Self {
        JobSpec {
            circuit,
            strategy,
            deadline: None,
            verify: VerifyLevel::from_env(),
        }
    }

    /// Sets the verification level (see [`JobSpec::verify`]).
    pub fn with_verification(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }
}

/// A successful job's full output: the compiled circuit plus, when the
/// job was verified (its [`VerifyLevel`] enabled verification), the clean
/// verification report. Jobs whose verification found violations fail with the report
/// inside the error instead.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The compiled circuit.
    pub circuit: CompiledCircuit,
    /// The verifier suite's report; `None` when the job ran unverified.
    /// Present reports are always clean (violations fail the job).
    pub verify: Option<VerifyReport>,
}

/// One queued unit of work (internal to the service). The job id lives
/// only on the caller's [`JobHandle`]; workers have no use for it.
pub(crate) struct Job {
    pub(crate) spec: JobSpec,
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) result_tx: mpsc::Sender<Result<JobOutput, ServiceError>>,
}

/// The caller's side of a submitted job: await the result, or cancel.
pub struct JobHandle {
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) result_rx: mpsc::Receiver<Result<JobOutput, ServiceError>>,
}

impl JobHandle {
    /// Requests cancellation. Best-effort: a job already past its last
    /// cancellation check still completes. Safe to call multiple times
    /// and from any thread (the handle itself stays usable).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocks until the job finishes and returns the compiled circuit.
    /// Use [`wait_full`](JobHandle::wait_full) to also receive the
    /// verification report of a verified job.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`]; [`ServiceError::Disconnected`] when the
    /// worker vanished without reporting (worker panic).
    pub fn wait(self) -> Result<CompiledCircuit, ServiceError> {
        self.wait_full().map(|o| o.circuit)
    }

    /// Blocks until the job finishes and returns its full output,
    /// including the clean [`VerifyReport`] when the job was verified.
    ///
    /// # Errors
    ///
    /// Same as [`wait`](JobHandle::wait).
    pub fn wait_full(self) -> Result<JobOutput, ServiceError> {
        self.result_rx
            .recv()
            .unwrap_or(Err(ServiceError::Disconnected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_reports_disconnect_when_sender_dropped() {
        let (tx, rx) = mpsc::channel();
        let handle = JobHandle {
            cancel: Arc::new(AtomicBool::new(false)),
            result_rx: rx,
        };
        drop(tx);
        assert!(matches!(handle.wait(), Err(ServiceError::Disconnected)));
    }

    #[test]
    fn cancel_sets_the_flag() {
        let (_tx, rx) = mpsc::channel::<Result<JobOutput, ServiceError>>();
        let handle = JobHandle {
            cancel: Arc::new(AtomicBool::new(false)),
            result_rx: rx,
        };
        let flag = handle.cancel.clone();
        handle.cancel();
        assert!(flag.load(Ordering::Relaxed));
    }
}
