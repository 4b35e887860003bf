//! High-level decomposition API with the analytic depth oracle.
//!
//! The paper's compilation approach (Section VII): numerically search for
//! the local unitaries, but use analytically-derived circuit-depth
//! information to *skip directly* to the layer count at which a perfect
//! decomposition is guaranteed, instead of NuOp's increment-from-one-layer
//! strategy. Both strategies are implemented so the speedup can be measured
//! (see the `synthesis` Criterion bench).

use crate::ansatz::Synthesized2Q;
use crate::optimizer::{
    optimize_with_restarts, optimize_with_restarts_ws, OptimizerConfig, Workspace,
};
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

/// Configuration for the [`Decomposer`].
#[derive(Clone, Copy, Debug)]
pub struct DecomposerConfig {
    /// Decomposition-error tolerance (1 - average gate fidelity) below
    /// which a synthesis counts as exact.
    pub tol: f64,
    /// Random restarts per layer count.
    pub restarts: usize,
    /// Maximum number of entangling layers to try.
    pub max_layers: usize,
    /// Seed for the deterministic restart RNG.
    pub seed: u64,
    /// Use the analytic depth oracle to skip layer counts (the paper's
    /// approach). When false, layers are searched from the minimum up
    /// (NuOp-style), which is slower but produces identical circuits.
    pub use_depth_oracle: bool,
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
            max_layers: 6,
            seed: 0x5eed,
            use_depth_oracle: true,
        }
    }
}

/// Decomposes two-qubit targets into a fixed hardware basis gate plus local
/// (single-qubit) unitaries.
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
    config: DecomposerConfig,
}

impl Decomposer {
    /// Creates a decomposer for the given hardware basis gate with default
    /// configuration.
    pub fn new(basis: Mat4) -> Self {
        Decomposer::with_config(basis, DecomposerConfig::default())
    }

    /// Creates a decomposer with explicit configuration.
    pub fn with_config(basis: Mat4, config: DecomposerConfig) -> Self {
        let basis_coord = kak_vector(&basis);
        Decomposer {
            basis,
            basis_coord,
            config,
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

    /// Decomposes `target` into the minimum number of basis-gate layers.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisFailed`] when no layer count up to the configured
    /// maximum reaches the tolerance.
    pub fn decompose(&self, target: &Mat4) -> Result<Synthesized2Q, SynthesisFailed> {
        let start = if self.config.use_depth_oracle {
            self.min_layers(kak_vector(target))
        } else {
            // NuOp-style: start from zero layers and work upward.
            0
        };
        self.decompose_from(target, start)
    }

    /// Decomposes with an explicit number of layers (no search).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisFailed`] when the tolerance is not reached at
    /// exactly `layers` layers.
    pub fn decompose_exact_layers(
        &self,
        target: &Mat4,
        layers: usize,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        self.decompose_exact_layers_ws(target, layers, &mut Workspace::new())
    }

    /// [`Decomposer::decompose_exact_layers`] with caller-owned optimizer
    /// scratch, so a layer search reuses one set of buffers throughout.
    fn decompose_exact_layers_ws(
        &self,
        target: &Mat4,
        layers: usize,
        ws: &mut Workspace,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let bases = vec![self.basis; layers];
        let run = optimize_with_restarts_ws(
            target,
            &bases,
            self.config.restarts,
            1.0 - self.config.tol / 5.0,
            &OptimizerConfig::default(),
            &mut rng,
            ws,
        );
        let result = finish(target, run.locals, layers, &bases);
        if result.error <= self.config.tol {
            Ok(result)
        } else {
            Err(SynthesisFailed {
                best_error: result.error,
                max_layers: layers,
            })
        }
    }

    fn decompose_from(
        &self,
        target: &Mat4,
        start_layers: usize,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        let mut best_error = f64::INFINITY;
        let mut ws = Workspace::new();
        for layers in start_layers..=self.config.max_layers {
            match self.decompose_exact_layers_ws(target, layers, &mut ws) {
                Ok(result) => return Ok(result),
                Err(e) => best_error = best_error.min(e.best_error),
            }
        }
        Err(SynthesisFailed {
            best_error,
            max_layers: self.config.max_layers,
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let run = optimize_with_restarts(
        target,
        bases,
        config.restarts,
        1.0 - config.tol / 5.0,
        &OptimizerConfig::default(),
        &mut rng,
    );
    let result = finish(target, run.locals, bases.len(), bases);
    if result.error <= config.tol {
        Ok(result)
    } else {
        Err(SynthesisFailed {
            best_error: result.error,
            max_layers: bases.len(),
        })
    }
}

fn finish(
    target: &Mat4,
    locals: Vec<(nsb_math::Mat2, nsb_math::Mat2)>,
    layers: usize,
    bases: &[Mat4],
) -> Synthesized2Q {
    let w = crate::ansatz::build_ansatz(&locals, bases);
    let tr = (w.adjoint() * *target).trace();
    let overlap = tr.abs() / 4.0;
    let avg_fid = (tr.abs() * tr.abs() + 4.0) / 20.0;
    Synthesized2Q {
        locals,
        layers,
        trace_overlap: overlap,
        error: 1.0 - avg_fid,
        phase: tr.arg(),
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
        let basis = Mat4::sqrt_iswap();
        let with = Decomposer::with_config(
            basis,
            DecomposerConfig {
                use_depth_oracle: true,
                ..DecomposerConfig::default()
            },
        );
        let without = Decomposer::with_config(
            basis,
            DecomposerConfig {
                use_depth_oracle: false,
                ..DecomposerConfig::default()
            },
        );
        for target in [Mat4::swap(), Mat4::cnot(), Mat4::cphase(0.8)] {
            let a = with.decompose(&target).unwrap();
            let b = without.decompose(&target).unwrap();
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
