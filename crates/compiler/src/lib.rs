//! # nsb-compiler
//!
//! The transpiler of the MICRO 2022 reproduction: SABRE layout and routing
//! onto the grid device, lowering of routed circuits into each edge's own
//! (possibly nonstandard) basis gate via cached numerical decompositions,
//! single-qubit gate merging, ASAP scheduling and the paper's
//! coherence-limited fidelity model.
//!
//! ```no_run
//! use nsb_circuit::generators;
//! use nsb_compiler::Transpiler;
//! use nsb_device::{BasisStrategy, Device, DeviceConfig};
//!
//! let device = Device::build(10, 10, DeviceConfig::default()).unwrap();
//! let qft = generators::qft(10, true);
//! let compiled = Transpiler::new(&device, BasisStrategy::Criterion2)
//!     .compile(&qft)
//!     .unwrap();
//! println!("duration {:.1} ns, fidelity {:.3}", compiled.schedule.duration, compiled.fidelity);
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

mod lower;
mod pipeline;
mod sabre;
mod schedule;

pub use lower::{LowerError, LoweredOp, Lowerer, LoweringMode};
pub use pipeline::{
    default_mode, to_schedule_facts, to_verify_ops, verify_compiled, CompileError, CompiledCircuit,
    Stage, Transpiler,
};
pub use sabre::{sabre_route, Layout, RouteError, RoutedCircuit, SabreConfig};
pub use schedule::{schedule, Schedule};

// Re-export the verification vocabulary so downstream crates can configure
// the pipeline without depending on nsb-verify directly.
pub use nsb_verify::{VerifyLevel, VerifyReport};
