//! Static circuit-IR verification for the nonstandard-basis toolchain.
//!
//! The compiler's premise — each edge gets its *own* basis gate — means a
//! lowered program is correct only if every gate on every wire is legal for
//! that wire's calibration, routing respected the coupling map, each
//! two-qubit block stayed in its calibrated Weyl class, the schedule adds
//! up, and the whole program is still unitarily equivalent to its source.
//! This crate re-derives each of those invariants from first principles and
//! reports every violation, instead of trusting the pipeline that produced
//! the program.
//!
//! The battery is fixed: each check is a unit struct with a `check`
//! function, a [`VerifierSuite`] is one of the two batteries the pipeline
//! runs ([`structural`](VerifierSuite::structural) after routing,
//! [`standard`](VerifierSuite::standard) after lowering), and a
//! [`VerifyTarget`] is the program under inspection expressed in the
//! verifier's own minimal IR ([`VerifyOp`]) so no compiler internals are
//! trusted. The compiler converts its lowered output at the verification
//! boundary and runs the suites between passes; the compile service
//! surfaces violation counts in its metrics.
//!
//! # Examples
//!
//! ```
//! use nsb_verify::{VerifierSuite, VerifyTarget, VerifyOp, ViolationKind};
//! use nsb_device::{BasisStrategy, Device, DeviceConfig};
//!
//! let device = Device::build(2, 1, DeviceConfig::fast_test()).expect("device");
//! let basis = device.edges()[0].basis(BasisStrategy::Criterion2);
//! let ops = vec![VerifyOp::TwoQubit {
//!     qubits: device.edges()[0].gate_order,
//!     duration: basis.duration,
//!     unitary: *basis.gate,
//!     coord: Some(basis.coord),
//! }];
//! let suite = VerifierSuite::standard();
//! let report = suite.run(&VerifyTarget::new(&device, BasisStrategy::Criterion2, ops));
//! assert!(report.is_clean(), "{report}");
//! assert!(!report.has(ViolationKind::IllegalBasisGate));
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

mod checks;
mod report;
mod suite;
mod target;

pub use checks::{Miter, ScheduleSanity, UnitaryEquivalence, WeylCanonicality};
pub use report::{VerifyLevel, VerifyReport, Violation, ViolationKind};
pub use suite::VerifierSuite;
pub use target::{ScheduleFacts, VerifyOp, VerifyTarget};
