//! # nsb-weyl
//!
//! Weyl-chamber geometry of two-qubit gates, the theoretical core of the
//! MICRO 2022 paper *Let Each Quantum Bit Choose Its Basis Gates*.
//!
//! Provides:
//!
//! * [`WeylCoord`] — Cartan coordinates with canonicalization into the
//!   chamber tetrahedron (`CNOT = (1/2,0,0)`, `SWAP = (1/2,1/2,1/2)`).
//! * [`kak_vector`] — coordinates of an arbitrary 4x4 unitary, in closed
//!   form from the magic-basis eigenphases ([`magic_eigenphases`]);
//!   [`local_invariants`] — Makhlin invariants.
//! * [`entangling_power`], [`is_perfect_entangler`] — entanglement metrics.
//! * [`WeylCoord::mirror`] — the Appendix-B mirror construction for 2-layer
//!   SWAP synthesis.
//! * [`can_swap_in_3`], [`can_cnot_in_2`], [`SelectionCriterion`] — the
//!   Figure-4 region geometry used to select basis gates from trajectories.
//!
//! ## Example: selecting a basis gate from a trajectory
//!
//! ```
//! use nsb_weyl::{first_crossing, SelectionCriterion, WeylCoord};
//!
//! // An idealized XY trajectory sampled at 100 points.
//! let coords: Vec<WeylCoord> = (0..=100)
//!     .map(|k| WeylCoord::new(k as f64 / 200.0, k as f64 / 200.0, 0.0))
//!     .collect();
//! let idx = first_crossing(&coords, SelectionCriterion::SwapIn3, 0.0).unwrap();
//! assert_eq!(idx, 50); // the sqrt(iSWAP) point
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

mod coord;
mod entangle;
mod kak;
mod regions;

pub use coord::WeylCoord;
pub use entangle::{entangling_power, is_perfect_entangler};
pub use kak::{canonical_gate, kak_vector, local_invariants, magic_eigenphases};
pub use regions::{
    can_cnot_in_2, can_swap_in_2_pair, can_swap_in_3, chamber_volume, cnot2_complement,
    first_crossing, min_layers_for_swap, sample_chamber, swap3_complement, volume_fraction,
    ComplementTet, SelectionCriterion, Tetrahedron,
};
