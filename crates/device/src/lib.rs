//! # nsb-device
//!
//! The simulated device of the paper's case study: a grid of
//! fixed-frequency transmons with checkerboard frequency allocation, a
//! tunable coupler per edge, per-edge Cartan trajectories at two drive
//! amplitudes, and per-edge basis gates selected by the Baseline /
//! Criterion 1 / Criterion 2 strategies — each with its cached SWAP and
//! CNOT decompositions (paper Sections V-E, VI and VIII).
//!
//! ```no_run
//! use nsb_device::{BasisStrategy, Device, DeviceConfig};
//!
//! let device = Device::build(10, 10, DeviceConfig::default()).unwrap();
//! let row = device.table1_row(BasisStrategy::Criterion1);
//! println!("mean basis gate: {:.2} ns", row.basis_duration);
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

mod calibration;
mod coherence;
mod device;
mod freq;
mod topology;

pub use calibration::{initial_tuneup, retune, TuneupResult};
pub use coherence::{coherence_fidelity_2q, coherence_limit_2q, synthesized_duration};
pub use device::{
    BasisStrategy, Device, DeviceBuildError, DeviceConfig, EdgeCalibration, SelectedBasis,
    SynthesizedGate, Table1Row,
};
pub use freq::{FrequencyAllocation, FrequencyPlan};
pub use topology::GridTopology;
