//! # nsb-sim
//!
//! Pulse-level simulator of the case-study entangling architecture from
//! *Let Each Quantum Bit Choose Its Basis Gates* (MICRO 2022): two
//! fixed-frequency, far-detuned transmons coupled by a flux-tunable coupler
//! (Appendix A Hamiltonian), AC-modulated at the qubit difference frequency
//! to generate parametric iSWAP-like interactions.
//!
//! The simulation protocol follows Section VIII-B:
//!
//! 1. assemble the three-mode Hamiltonian and
//! 2. bias the coupler to the zero-ZZ point ([`PreparedCell::prepare`]);
//! 3. calibrate the drive frequency for maximal population swapping,
//! 4. evolve the propagator, project onto the dressed computational
//!    subspace, and plot the gate in the Weyl chamber
//!    ([`PreparedCell::trajectory`]).
//!
//! Weak drives (`xi <= 0.01 Phi_0`) yield standard XY trajectories; strong
//! drives (`xi ~ 0.04 Phi_0`) are ~8x faster and deviate into nonstandard
//! territory — exactly the trade the paper's compiler exploits.
//!
//! ```no_run
//! use nsb_sim::{PreparedCell, TrajectoryConfig, UnitCellParams};
//!
//! let cell = PreparedCell::prepare(&UnitCellParams::default())
//!     .expect("default cell has a dressed frame");
//! let traj = cell.trajectory(0.04, &TrajectoryConfig::default());
//! println!("first PE at {:?} ns", traj.first_perfect_entangler().map(|p| p.duration));
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

mod evolve;
mod hamiltonian;
mod params;
mod spectrum;
mod trajectory;

pub use params::{DriveParams, UnitCellParams};
pub use trajectory::{
    trajectory_speed, CartanTrajectory, PreparedCell, TrajectoryConfig, TrajectoryPoint,
};
