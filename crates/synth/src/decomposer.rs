//! High-level decomposition API with the analytic depth oracle.
//!
//! The paper's compilation approach (Section VII): numerically search for
//! the local unitaries, but use analytically-derived circuit-depth
//! information to *skip directly* to the layer count at which a perfect
//! decomposition is guaranteed, instead of NuOp's increment-from-one-layer
//! strategy. [`Decomposer::decompose`] is the paper's approach;
//! `decompose_from(target, 0)` is NuOp's, kept so the speedup can be
//! measured (see the `synthesis` Criterion bench). Both run the one layer
//! search of this module, so they produce identical circuits.

use crate::ansatz::{build_ansatz, Synthesized2Q};
use crate::optimizer::{optimize_with_restarts, Workspace};
use nsb_math::Mat4;
use nsb_weyl::{can_cnot_in_2, kak_vector, min_layers_for_swap, WeylCoord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Error returned when no decomposition below the layer cap reaches the
/// requested tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthesisFailed {
    /// Best decomposition error achieved at the layer cap.
    pub best_error: f64,
    /// The layer cap that was tried.
    pub max_layers: usize,
}

impl fmt::Display for SynthesisFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "synthesis failed: best error {:.3e} with {} layers",
            self.best_error, self.max_layers
        )
    }
}

impl std::error::Error for SynthesisFailed {}

/// Settings of one synthesis search: the tolerance that counts as exact,
/// the restarts per layer count and the restart RNG's seed.
#[derive(Clone, Copy, Debug)]
pub struct DecomposerConfig {
    /// Decomposition-error tolerance (1 - average gate fidelity) below
    /// which a synthesis counts as exact.
    pub tol: f64,
    /// Random restarts per layer count.
    pub restarts: usize,
    /// Seed for the deterministic restart RNG.
    pub seed: u64,
}

impl Default for DecomposerConfig {
    fn default() -> Self {
        DecomposerConfig {
            // 1e-7 average-fidelity error counts as "exact": it is four
            // orders of magnitude below the decoherence errors in the
            // paper's noise model, and safely separated from the >1e-4
            // plateau that impossible decompositions stall at.
            tol: 1e-7,
            restarts: 12,
            seed: 0x5eed,
        }
    }
}

/// Most entangling layers [`Decomposer::decompose_from`] tries.
const MAX_LAYERS: usize = 6;

/// Decomposes two-qubit targets into a fixed hardware basis gate plus local
/// (single-qubit) unitaries.
///
/// The search settings are constants ([`DecomposerConfig::default`] and a
/// cap of six layers), not configuration. They enter neither
/// [`SynthKey`](crate::SynthKey) nor a device's calibration hash, so a
/// result is fully determined by the basis gate and the target: by the
/// `(SynthKey, target_fp)` pair of [`Decomposer::synth_key`]. That is what
/// lets a cache, or a snapshot persisted by another process, stand in for
/// a fresh synthesis.
///
/// # Examples
///
/// ```
/// use nsb_math::Mat4;
/// use nsb_synth::Decomposer;
///
/// let dec = Decomposer::new(Mat4::sqrt_iswap());
/// let swap = dec.decompose(&Mat4::swap()).unwrap();
/// assert_eq!(swap.layers, 3);
/// assert!(swap.error < 1e-7);
/// ```
#[derive(Clone, Debug)]
pub struct Decomposer {
    basis: Mat4,
    basis_coord: WeylCoord,
}

impl Decomposer {
    /// Creates a decomposer for the given hardware basis gate.
    pub fn new(basis: Mat4) -> Self {
        Decomposer {
            basis,
            basis_coord: kak_vector(&basis),
        }
    }

    /// The hardware basis gate.
    pub fn basis(&self) -> &Mat4 {
        &self.basis
    }

    /// Cartan coordinates of the basis gate.
    pub fn basis_coord(&self) -> WeylCoord {
        self.basis_coord
    }

    /// Analytic lower bound on the number of layers needed for `target`;
    /// exact for SWAP- and CNOT-class targets (the cases the region
    /// geometry of Section V covers), a generic bound otherwise.
    pub fn min_layers(&self, target_coord: WeylCoord) -> usize {
        let t = target_coord.canonicalize();
        if t.dist(WeylCoord::IDENTITY) < 1e-9 {
            return 0;
        }
        if t.class_eq(self.basis_coord, 1e-9) {
            return 1;
        }
        if t.class_eq(WeylCoord::SWAP, 1e-9) {
            return match min_layers_for_swap(self.basis_coord) {
                Some(n) => n as usize,
                // Not able within 3; no exact theory here, start at 4.
                None => 4,
            };
        }
        if t.class_eq(WeylCoord::CNOT, 1e-9) {
            return if can_cnot_in_2(self.basis_coord) {
                2
            } else {
                3
            };
        }
        // Generic non-local target needs at least 2 layers when it is not
        // the basis class itself.
        2
    }

    /// Decomposes `target` into the minimum number of basis-gate layers,
    /// starting the search at the depth oracle's [`min_layers`](Self::min_layers).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisFailed`] when no layer count up to six reaches
    /// the tolerance.
    pub fn decompose(&self, target: &Mat4) -> Result<Synthesized2Q, SynthesisFailed> {
        self.decompose_from(target, self.min_layers(kak_vector(target)))
    }

    /// Decomposes `target` with the fewest layers from `min_layers` up to
    /// six: one search per layer count, the first that reaches the
    /// tolerance wins. `decompose_from(target, 0)` is NuOp's incremental
    /// strategy, the ablation of [`decompose`](Self::decompose).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisFailed`] when no layer count reaches the
    /// tolerance; `best_error` is the best over all layer counts tried.
    pub fn decompose_from(
        &self,
        target: &Mat4,
        min_layers: usize,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        let config = DecomposerConfig::default();
        let mut best_error = f64::INFINITY;
        let mut ws = Workspace::new();
        for layers in min_layers..=MAX_LAYERS {
            match search(target, &vec![self.basis; layers], &config, &mut ws) {
                Ok(result) => return Ok(result),
                Err(e) => best_error = best_error.min(e.best_error),
            }
        }
        Err(SynthesisFailed {
            best_error,
            max_layers: MAX_LAYERS,
        })
    }
}

/// Decomposes `target` into the explicit per-layer `bases` (mixed-basis
/// synthesis, e.g. mirror pairs for 2-layer SWAP).
///
/// # Errors
///
/// Returns [`SynthesisFailed`] when the tolerance is not reached.
pub fn decompose_with_bases(
    target: &Mat4,
    bases: &[Mat4],
    config: &DecomposerConfig,
) -> Result<Synthesized2Q, SynthesisFailed> {
    search(target, bases, config, &mut Workspace::new())
}

/// The synthesis search: locals for `target` over the fixed per-layer
/// `bases`, from `config.restarts` seeded restarts, accepted when the
/// decomposition error is within `config.tol`.
fn search(
    target: &Mat4,
    bases: &[Mat4],
    config: &DecomposerConfig,
    ws: &mut Workspace,
) -> Result<Synthesized2Q, SynthesisFailed> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (locals, _) = optimize_with_restarts(
        target,
        bases,
        config.restarts,
        1.0 - config.tol / 5.0,
        &mut rng,
        ws,
    );
    let tr = (build_ansatz(&locals, bases).adjoint() * *target).trace();
    let error = 1.0 - (tr.abs() * tr.abs() + 4.0) / 20.0;
    if error <= config.tol {
        Ok(Synthesized2Q {
            locals,
            layers: bases.len(),
            trace_overlap: tr.abs() / 4.0,
            error,
            phase: tr.arg(),
        })
    } else {
        Err(SynthesisFailed {
            best_error: error,
            max_layers: bases.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::{haar_su2, Mat2};
    use nsb_weyl::canonical_gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn swap_from_cnot_needs_three_layers() {
        let dec = Decomposer::new(Mat4::cnot());
        let s = dec.decompose(&Mat4::swap()).unwrap();
        assert_eq!(s.layers, 3);
        assert!(s.error < 1e-7, "error {}", s.error);
        let rebuilt = s.unitary_with_phase(&vec![Mat4::cnot(); 3]);
        assert!(rebuilt.approx_eq(&Mat4::swap(), 1e-5));
    }

    #[test]
    fn swap_from_b_gate_needs_two_layers() {
        let dec = Decomposer::new(Mat4::b_gate());
        let s = dec.decompose(&Mat4::swap()).unwrap();
        assert_eq!(s.layers, 2);
        assert!(s.error < 1e-7);
    }

    #[test]
    fn cnot_from_sqrt_iswap_needs_two_layers() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let s = dec.decompose(&Mat4::cnot()).unwrap();
        assert_eq!(s.layers, 2);
        assert!(s.error < 1e-7);
    }

    #[test]
    fn swap_from_sqrt_iswap_needs_three_layers() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let s = dec.decompose(&Mat4::swap()).unwrap();
        assert_eq!(s.layers, 3);
        assert!(s.error < 1e-7);
    }

    #[test]
    fn basis_class_target_is_one_layer() {
        let mut rng = StdRng::seed_from_u64(10);
        let basis = Mat4::sqrt_iswap();
        let dressed = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng))
            * basis
            * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let dec = Decomposer::new(basis);
        let s = dec.decompose(&dressed).unwrap();
        assert_eq!(s.layers, 1);
        assert!(s.error < 1e-7);
    }

    #[test]
    fn local_target_is_zero_layers() {
        let mut rng = StdRng::seed_from_u64(11);
        let target = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let dec = Decomposer::new(Mat4::cnot());
        let s = dec.decompose(&target).unwrap();
        assert_eq!(s.layers, 0);
        assert!(s.error < 1e-10);
    }

    #[test]
    fn mirror_pair_synthesizes_swap_in_two_layers() {
        // CNOT and iSWAP are mirror partners (Appendix B).
        let cfg = DecomposerConfig::default();
        let s = decompose_with_bases(&Mat4::swap(), &[Mat4::cnot(), Mat4::iswap()], &cfg).unwrap();
        assert!(s.error < 1e-7, "error {}", s.error);
    }

    #[test]
    fn impossible_two_layer_swap_fails_cleanly() {
        let cfg = DecomposerConfig {
            restarts: 6,
            ..DecomposerConfig::default()
        };
        let err =
            decompose_with_bases(&Mat4::swap(), &[Mat4::cnot(), Mat4::cnot()], &cfg).unwrap_err();
        assert!(err.best_error > 1e-4);
    }

    #[test]
    fn arbitrary_targets_from_b_gate_in_two_layers() {
        // The B gate synthesizes ANY two-qubit gate in two layers.
        let mut rng = StdRng::seed_from_u64(12);
        let dec = Decomposer::new(Mat4::b_gate());
        for _ in 0..5 {
            let target = nsb_math::haar_u4(&mut rng);
            let s = dec.decompose(&target).unwrap();
            assert!(s.layers <= 2, "layers {}", s.layers);
            assert!(s.error < 1e-7, "error {}", s.error);
        }
    }

    #[test]
    fn nonstandard_basis_synthesizes_swap_and_cnot() {
        // A nonstandard gate past both region faces, with a z component.
        let basis = canonical_gate(nsb_weyl::WeylCoord::new(0.30, 0.24, 0.06));
        // Dress it with locals so it is "nonstandard" in matrix form too.
        let mut rng = StdRng::seed_from_u64(13);
        let dressed = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng))
            * basis
            * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let dec = Decomposer::new(dressed);
        let s = dec.decompose(&Mat4::swap()).unwrap();
        assert_eq!(s.layers, 3);
        assert!(s.error < 1e-7, "swap error {}", s.error);
        let c = dec.decompose(&Mat4::cnot()).unwrap();
        assert_eq!(c.layers, 2);
        assert!(c.error < 1e-7, "cnot error {}", c.error);
    }

    #[test]
    fn near_face_cnot_is_two_layers_and_bit_identical() {
        // Just inside the CNOT-in-2 face: the sweeps alone stall above
        // tolerance here, the polish converges.
        let dec = Decomposer::new(canonical_gate(nsb_weyl::WeylCoord::new(
            0.250247, 0.248563, 0.044147,
        )));
        let a = dec.decompose(&Mat4::cnot()).unwrap();
        let b = dec.decompose(&Mat4::cnot()).unwrap();
        assert_eq!(a.layers, 2);
        assert!(a.error < 1e-12, "error {:e}", a.error);
        assert_eq!(a.error.to_bits(), b.error.to_bits());
        assert_eq!(a.phase.to_bits(), b.phase.to_bits());
        for ((u, v), (x, y)) in a.locals.iter().zip(&b.locals) {
            assert!(u.approx_eq(x, 0.0) && v.approx_eq(y, 0.0));
        }
    }

    #[test]
    fn depth_oracle_and_incremental_agree() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        for target in [Mat4::swap(), Mat4::cnot(), Mat4::cphase(0.8)] {
            let a = dec.decompose(&target).unwrap();
            let b = dec.decompose_from(&target, 0).unwrap();
            assert_eq!(a.layers, b.layers, "layer mismatch");
        }
    }

    #[test]
    fn rebuilt_unitary_matches_target_up_to_phase() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let target = Mat4::cphase(1.1);
        let s = dec.decompose(&target).unwrap();
        let w = s.unitary(&vec![Mat4::sqrt_iswap(); s.layers]);
        assert!(w.approx_eq_up_to_phase(&target, 1e-4));
        // Identity local check: all locals are unitary.
        for (u, v) in &s.locals {
            assert!(u.is_unitary(1e-9) && v.is_unitary(1e-9));
        }
        let _ = Mat2::identity();
    }
}
