//! # nsb-circuit
//!
//! Quantum circuit IR, statevector simulation and benchmark generators for
//! the MICRO 2022 reproduction of *Let Each Quantum Bit Choose Its Basis
//! Gates*.
//!
//! The benchmark set matches the paper's Table II: QFT, Bernstein-Vazirani
//! (all-ones secret), the Cuccaro ripple-carry adder and QAOA (p = 1) on
//! Erdos-Renyi graphs, plus the Draper/Ruiz-Perez QFT adder mentioned in
//! the introduction.
//!
//! ```
//! use nsb_circuit::{generators, StateVector};
//!
//! let c = generators::ghz(3);
//! let mut s = StateVector::zero(3);
//! s.apply_circuit(&c);
//! assert!((s.amplitudes()[0b111].norm_sqr() - 0.5).abs() < 1e-12);
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

mod circuit;
mod gate;
pub mod generators;
mod state;

pub use circuit::Circuit;
pub use gate::{Gate, Operation};
pub use state::StateVector;
