//! # nsb-math
//!
//! Self-contained complex linear algebra for the *nonstandard two-qubit
//! basis gates* workspace (a reproduction of "Let Each Quantum Bit Choose
//! Its Basis Gates", MICRO 2022).
//!
//! The crate deliberately implements everything from scratch — complex
//! scalars, one stack matrix type [`SMat`] whose 2x2 and 4x4 instances are
//! [`Mat2`] and [`Mat4`], heap matrices, a Hermitian Jacobi eigensolver and
//! the matrix functions built on it (the exponential `exp(-i H t)`), polar
//! projections onto the unitary group, and Haar-random sampling — so that
//! the rest of the workspace has no external numerical dependencies.
//!
//! ## Quick tour
//!
//! ```
//! use nsb_math::{expm_i_h_t, DMat, Mat2, Mat4};
//!
//! // Single- and two-qubit gates:
//! let bell_maker = Mat4::cnot() * Mat4::kron(&Mat2::h(), &Mat2::identity());
//! assert!(bell_maker.is_unitary(1e-12));
//!
//! // Time evolution under a Hermitian generator:
//! let h = DMat::identity(3);
//! let u = expm_i_h_t(&h, 0.5);
//! assert!(u.is_unitary(1e-12));
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

mod complex;
mod dmat;
mod eig;
mod mat2;
mod mat4;
mod random;
mod smat;
mod svd;

pub use complex::Complex64;
pub use dmat::DMat;
pub use eig::{eigh, expm_i_h_t, HermitianEig};
pub use mat2::Mat2;
pub use mat4::Mat4;
pub use random::{complex_normal, haar_su2, haar_u4, standard_normal};
pub use smat::SMat;
pub use svd::{max_trace_unitary, polar_unitary4};
