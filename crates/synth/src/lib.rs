//! # nsb-synth
//!
//! Numerical two-qubit gate synthesis into arbitrary (including
//! nonstandard) basis gates, following Section VII of *Let Each Quantum Bit
//! Choose Its Basis Gates* (MICRO 2022).
//!
//! The synthesis ansatz alternates local (1Q (x) 1Q) unitaries with fixed
//! entangling layers; the locals are optimized by an alternating SVD
//! "environment" method, and the number of layers is chosen with an
//! analytic depth oracle built on the paper's Weyl-chamber region geometry,
//! skipping directly to the theoretically guaranteed depth.
//!
//! ```
//! use nsb_math::Mat4;
//! use nsb_synth::Decomposer;
//!
//! // Synthesize CNOT from sqrt(iSWAP): two layers, numerically exact.
//! let dec = Decomposer::new(Mat4::sqrt_iswap());
//! let cnot = dec.decompose(&Mat4::cnot()).unwrap();
//! assert_eq!(cnot.layers, 2);
//! assert!(cnot.error < 1e-7);
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

mod ansatz;
mod cache;
mod decomposer;
mod optimizer;
mod oracle;

pub use ansatz::Synthesized2Q;
pub use cache::{mat4_fingerprint, NoCache, StableHasher, SynthCache, SynthKey};
pub use decomposer::{decompose_with_bases, Decomposer, DecomposerConfig, SynthesisFailed};
pub use oracle::{can_decompose_2layer, numerical_can_cnot_in_2, numerical_can_swap_in_3};
