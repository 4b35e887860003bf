//! Service-level error type.

use nsb_compiler::CompileError;
use std::error::Error;
use std::fmt;

/// Why a submitted job did not produce a compiled circuit.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The bounded job queue was full; the caller should back off and
    /// resubmit.
    QueueFull {
        /// The queue's capacity at the time of rejection.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// Compilation itself failed (for example, the circuit is wider than
    /// the device, or a numerical synthesis did not converge).
    Compile(CompileError),
    /// The compiler panicked on the job. The worker reports this and goes
    /// on to its next job.
    Internal {
        /// The panic message.
        reason: String,
    },
    /// The worker processing the job disappeared without reporting a
    /// result.
    Disconnected,
    /// The service could not spawn a worker thread at startup.
    WorkerSpawn {
        /// The operating system's error message.
        reason: String,
    },
    /// A pool submission named a calibration hash no shard has. A
    /// program lowered for one calibration is not valid on another, so
    /// the pool never substitutes a different shard.
    NoMatchingShard {
        /// The requested calibration hash.
        calibration: u64,
    },
    /// Two devices given to one pool share a calibration hash: the
    /// second shard could never be routed to, and both would save over
    /// the same snapshot.
    DuplicateShard {
        /// The shared calibration hash.
        calibration: u64,
    },
    /// A persistent-store operation (warm start, drain, flush setup)
    /// failed.
    Store(nsb_store::StoreError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Compile(e) => write!(f, "{e}"),
            ServiceError::Internal { reason } => write!(f, "compiler panicked: {reason}"),
            ServiceError::Disconnected => write!(f, "worker disconnected before reporting"),
            ServiceError::WorkerSpawn { reason } => {
                write!(f, "failed to spawn worker thread: {reason}")
            }
            ServiceError::NoMatchingShard { calibration } => {
                write!(f, "no pool shard has calibration {calibration:#018x}")
            }
            ServiceError::DuplicateShard { calibration } => {
                write!(f, "two pool shards share calibration {calibration:#018x}")
            }
            ServiceError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Compile(e) => Some(e),
            ServiceError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
        ServiceError::Compile(e)
    }
}

impl From<nsb_store::StoreError> for ServiceError {
    fn from(e: nsb_store::StoreError) -> Self {
        ServiceError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServiceError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        assert!(e.source().is_none());
        let missing = ServiceError::NoMatchingShard { calibration: 0xabc };
        assert!(missing.to_string().contains("0x0000000000000abc"));
        let duplicate = ServiceError::DuplicateShard { calibration: 0xabc };
        assert!(duplicate.to_string().contains("0x0000000000000abc"));
    }

    #[test]
    fn wrapping_variants_display_and_chain() {
        let compile = ServiceError::Compile(CompileError::Route(
            nsb_compiler::RouteError::NoSwapCandidates { qubits: (0, 1) },
        ));
        assert!(compile.source().is_some(), "Compile wraps its cause");
        assert!(compile.to_string().contains("routing stalled"));

        let spawn = ServiceError::WorkerSpawn {
            reason: "resource exhausted".into(),
        };
        assert!(spawn.to_string().contains("resource exhausted"));
        assert!(spawn.source().is_none());

        let internal = ServiceError::Internal {
            reason: "index out of bounds".into(),
        };
        assert!(internal
            .to_string()
            .contains("panicked: index out of bounds"));
        assert!(internal.source().is_none());

        let store = ServiceError::Store(nsb_store::StoreError::BadMagic {
            path: "cache.nsb".into(),
        });
        assert!(store.source().is_some(), "Store wraps its cause");
        assert!(store.to_string().contains("cache.nsb"));
    }
}
