//! # nsb-core
//!
//! Facade crate for the reproduction of *Let Each Quantum Bit Choose Its
//! Basis Gates* (MICRO 2022): re-exports the subsystems its users reach
//! into, gathers the common items in [`prelude`], and provides the shared
//! experiment harness used by the table/figure regeneration binaries.
//!
//! ## Subsystems
//!
//! * [`math`] — complex linear algebra built from scratch.
//! * [`weyl`] — Weyl-chamber geometry, Cartan coordinates, synthesis
//!   regions (the paper's theoretical framework, Section V).
//! * [`synth`] — numerical gate synthesis with the analytic depth oracle
//!   (Section VII).
//! * [`sim`] — the transmon-coupler-transmon pulse simulator
//!   (Section VIII-B, Appendix A).
//! * `nsb-circuit` — circuit IR, statevector simulation, benchmarks
//!   (its items are in [`prelude`]).
//! * [`device`] — the simulated 10x10 device, per-edge basis-gate
//!   selection and the calibration protocol (Sections V-E, VI).
//! * [`compiler`] — SABRE mapping and per-edge basis lowering.
//! * [`service`] — concurrent compilation service with a shared
//!   synthesis cache and metrics; [`ServicePool`](service::ServicePool)
//!   runs one service per device calibration and routes each job by
//!   calibration hash.
//! * `nsb-store` — persistent snapshot store for the synthesis cache:
//!   checksummed on-disk format, atomic replacement, warm starts (its
//!   items are in [`prelude`]).
//! * [`verify`] — static verification of compiled programs: basis
//!   legality, connectivity, Weyl canonicality, schedule sanity and
//!   unitary equivalence.
//! * [`experiments`] — Table I / Table II harness.
//!
//! ## Quickstart
//!
//! ```
//! use nsb_core::prelude::*;
//!
//! // Identify a good 2Q basis gate on an idealized nonstandard trajectory.
//! let coords: Vec<WeylCoord> = (0..=60)
//!     .map(|k| {
//!         let t = k as f64 / 60.0;
//!         WeylCoord::new(0.55 * t, 0.50 * t, 0.08 * t)
//!     })
//!     .collect();
//! let idx = first_crossing(&coords, SelectionCriterion::SwapIn3CnotIn2, 0.15).unwrap();
//! assert!(can_swap_in_3(coords[idx]) && can_cnot_in_2(coords[idx]));
//! ```
//!
//! Compiling many circuits? Run them through the concurrent service —
//! jobs fan out over a worker pool and share one synthesis cache:
//!
//! ```
//! use nsb_core::prelude::*;
//!
//! let device = Device::build(3, 2, DeviceConfig::fast_test()).unwrap();
//! let service = CompileService::new(device, ServiceConfig::default()).unwrap();
//! let handles: Vec<_> = (3..=4)
//!     .map(|n| {
//!         let spec = JobSpec::new(generators::qft(n, true), BasisStrategy::Criterion2);
//!         service.submit(spec).unwrap()
//!     })
//!     .collect();
//! for handle in handles {
//!     assert!(handle.wait().unwrap().fidelity > 0.9);
//! }
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
#![deny(missing_docs)]

pub use nsb_compiler as compiler;
pub use nsb_device as device;
pub use nsb_math as math;
pub use nsb_service as service;
pub use nsb_sim as sim;
pub use nsb_synth as synth;
pub use nsb_verify as verify;
pub use nsb_weyl as weyl;

pub mod experiments;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::experiments::{
        build_case_study_device, compile_on, evaluate_benchmark, small_suite, table2_suite,
    };
    pub use nsb_circuit::{generators, Circuit, StateVector};
    pub use nsb_compiler::{verify_compiled, CompiledCircuit, LoweringMode, Transpiler};
    pub use nsb_device::{BasisStrategy, Device, DeviceConfig, FrequencyPlan, GridTopology};
    pub use nsb_math::{Complex64, Mat2, Mat4};
    pub use nsb_service::{CompileService, JobSpec, PoolConfig, ServiceConfig, ServicePool};
    pub use nsb_sim::{PreparedCell, TrajectoryConfig, UnitCellParams};
    pub use nsb_store::{SnapshotStore, StoredEntry};
    pub use nsb_synth::{Decomposer, DecomposerConfig, Synthesized2Q};
    pub use nsb_verify::{VerifierSuite, VerifyLevel, VerifyReport};
    pub use nsb_weyl::{
        can_cnot_in_2, can_swap_in_3, first_crossing, kak_vector, SelectionCriterion, WeylCoord,
    };
}
