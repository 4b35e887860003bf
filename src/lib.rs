//! Root package of the *nonstandard basis gates* workspace — a
//! reproduction of "Let Each Quantum Bit Choose Its Basis Gates"
//! (MICRO 2022).
//!
//! This crate hosts the cross-crate integration tests (`tests/`) and the
//! runnable examples (`examples/`); the library surface lives in
//! [`nsb_core`] and its subsystem crates.
//!
//! ```
//! use nonstandard_basis::prelude::*;
//! let c = kak_vector(&Mat4::cnot());
//! assert!(c.dist(WeylCoord::CNOT) < 1e-7);
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

pub use nsb_core::*;

/// Re-export of the facade prelude.
pub mod prelude {
    pub use nsb_core::prelude::*;
}
