//! # nsb-service
//!
//! A concurrent compilation service over the MICRO 2022 nonstandard-basis
//! toolchain: a bounded job queue feeding a `std::thread` worker pool,
//! with one [`SharedSynthCache`] (from `nsb-synth`, re-exported here)
//! shared by all workers, so every worker reuses the two-qubit
//! decompositions any other worker has already computed.
//!
//! The paper's compilation flow spends almost all of its time in
//! numerical two-qubit synthesis, and the same targets (CPhase angles,
//! CNOT, SWAP per edge) recur across circuits job after job. Batch
//! compilation therefore parallelizes almost perfectly *and* speeds up
//! further as the [`SharedSynthCache`] warms. The cache holds one entry
//! per synthesis key and target fingerprint (see
//! [`nsb_synth::SynthCache`]), so hits are bit-identical to fresh
//! syntheses and results never depend on cache state or scheduling
//! order. Its own [`CacheStats`] are the only cache counters.
//!
//! Every job runs the transpiler's own staged pipeline
//! ([`nsb_compiler::Transpiler::compile_staged`]), so service output is
//! bit-identical to a serial compile. A job either compiles or fails;
//! the stage hook only records stage latencies. Shutdown is graceful —
//! accepted jobs drain before the workers exit. Each job runs on one
//! worker thread. Jobs may also request *verified compilation*
//! ([`JobSpec::with_verification`]): the transpiler's inter-pass verifier
//! suites run, and the job is rejected — with the full violation report
//! and the stage it failed after — if any static check fails. The job's
//! [`VerifyLevel`](nsb_compiler::VerifyLevel) reaches the transpiler
//! unchanged, so the service verifies exactly what the transpiler would.
//! Everything is `std`-only.
//!
//! For multiple devices, a [`ServicePool`] runs one service per
//! calibration and routes each job by the calibration hash it names
//! (a hash no shard has is refused, never rerouted); given a store
//! directory it persists every shard's synthesis cache through
//! `nsb-store` — warm start on construction, optional periodic
//! background flush, drain on shutdown.
//!
//! ```
//! use nsb_circuit::generators;
//! use nsb_compiler::VerifyLevel;
//! use nsb_device::{BasisStrategy, Device, DeviceConfig};
//! use nsb_service::{CompileService, JobSpec, ServiceConfig};
//!
//! let device = Device::build(3, 2, DeviceConfig::fast_test()).unwrap();
//! let service = CompileService::new(device, ServiceConfig::default()).unwrap();
//! let handle = service
//!     .submit(
//!         JobSpec::new(generators::qft(4, true), BasisStrategy::Criterion2)
//!             .with_verification(VerifyLevel::Full),
//!     )
//!     .unwrap();
//! let compiled = handle.wait().unwrap();
//! assert!(compiled.fidelity > 0.9);
//! println!("{}", service.report());
//! ```

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp
    )
)]

mod bounded;
mod error;
mod job;
mod metrics;
mod pool;
mod service;

pub use error::ServiceError;
pub use job::{JobHandle, JobSpec};
pub use metrics::ServiceMetrics;
pub use pool::{PoolConfig, ServicePool};
pub use service::{CompileService, ServiceConfig};

// The cache type the service shares across its workers and reports on.
pub use nsb_synth::{CacheStats, SharedSynthCache};
