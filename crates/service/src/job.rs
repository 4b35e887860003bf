//! Job descriptions and the caller-side handle.

use crate::error::ServiceError;
use nsb_circuit::Circuit;
use nsb_compiler::{CompiledCircuit, VerifyLevel};
use nsb_device::BasisStrategy;
use std::sync::mpsc;

/// What to compile and how.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The logical circuit.
    pub(crate) circuit: Circuit,
    /// Basis-gate strategy to compile with.
    pub(crate) strategy: BasisStrategy,
    /// Verification level for this job. The default runs the verifier
    /// suite only in debug builds; [`VerifyLevel::Full`] makes the job a
    /// *verified compilation*: the result is checked by the full suite and
    /// rejected (with the violation report) if any check fails.
    pub verify: VerifyLevel,
}

impl JobSpec {
    /// A job with the strategy's default mode and the process-wide
    /// default verification level ([`VerifyLevel::from_env`]).
    pub fn new(circuit: Circuit, strategy: BasisStrategy) -> Self {
        JobSpec {
            circuit,
            strategy,
            verify: VerifyLevel::from_env(),
        }
    }

    /// Sets the verification level (see [`JobSpec::verify`]).
    pub fn with_verification(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }
}

/// One queued unit of work (internal to the service).
pub(crate) struct Job {
    pub(crate) spec: JobSpec,
    pub(crate) result_tx: mpsc::Sender<Result<CompiledCircuit, ServiceError>>,
}

/// The caller's side of a submitted job: await its result.
pub struct JobHandle {
    pub(crate) result_rx: mpsc::Receiver<Result<CompiledCircuit, ServiceError>>,
}

impl JobHandle {
    /// Blocks until the job finishes and returns the compiled circuit.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`]: [`ServiceError::Internal`] when the compiler
    /// panicked on the job, [`ServiceError::Disconnected`] when the job
    /// was dropped without a result.
    pub fn wait(self) -> Result<CompiledCircuit, ServiceError> {
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
        let handle = JobHandle { result_rx: rx };
        drop(tx);
        assert!(matches!(handle.wait(), Err(ServiceError::Disconnected)));
    }
}
