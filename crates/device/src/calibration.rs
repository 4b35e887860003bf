//! The two-stage calibration protocol of Section VI, against the pulse
//! simulator standing in for the quantum device.
//!
//! Stage 1 ("initial tuneup"): coarse amplitude/frequency tuning, QPT of
//! every gate along the trajectory, candidate narrowing via the Section V
//! region geometry, and a GST-precision refinement of the survivors.
//!
//! Stage 2 ("retuning"): a cheap daily re-estimate of the selected gate
//! that reuses the previously found duration and drive settings.
//!
//! Tomography here is statistically modeled: the estimate of a gate is the
//! polar projection of `U + noise`, with per-component Gaussian noise of
//! scale `~1/sqrt(shots)` — the asymptotic behavior of linear-inversion
//! QPT. GST differs by a higher effective shot budget (and in reality by
//! SPAM self-consistency, which has no analogue in this noiseless-SPAM
//! simulation). This statistical model substitutes for running QPT and
//! GST circuits: the simulator gives the exact gate, so only the
//! estimation error is modeled.

use nsb_math::{complex_normal, polar_unitary4, Mat4};
use nsb_sim::{CartanTrajectory, PreparedCell, TrajectoryConfig};
use nsb_weyl::{kak_vector, SelectionCriterion, WeylCoord};
use rand::Rng;

/// Statistical model of a tomographic characterization.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TomographyModel {
    /// Number of measurement shots per configuration.
    pub(crate) shots: u64,
    /// Noise amplification constant mapping shots to matrix-element noise.
    pub(crate) noise_scale: f64,
}

impl TomographyModel {
    /// Typical quick QPT: enough to localize candidates but not to compile
    /// against (paper: "we are not able to narrow down to one basis gate
    /// due to the imprecision of QPT").
    pub(crate) fn qpt() -> Self {
        TomographyModel {
            shots: 4_000,
            noise_scale: 2.0,
        }
    }

    /// GST-grade characterization: an order of magnitude more effective
    /// statistics after the self-consistent fit.
    pub(crate) fn gst() -> Self {
        TomographyModel {
            shots: 400_000,
            noise_scale: 2.0,
        }
    }

    /// Produces an estimated unitary for a true gate.
    pub(crate) fn estimate<R: Rng + ?Sized>(&self, truth: &Mat4, rng: &mut R) -> Mat4 {
        let sigma = self.noise_scale / (self.shots as f64).sqrt();
        let mut noisy = *truth;
        for r in 0..4 {
            for c in 0..4 {
                noisy[(r, c)] += complex_normal(rng).scale(sigma);
            }
        }
        polar_unitary4(&noisy)
    }
}

/// The outcome of an initial tuneup for one edge and one criterion.
#[derive(Clone, Debug)]
pub struct TuneupResult {
    /// Trajectory indices of the points that passed the criterion under
    /// QPT coordinates, fastest first.
    pub candidates: Vec<usize>,
    /// Index (into the trajectory) of the selected gate.
    pub selected_index: usize,
    /// GST-refined unitary of the selected gate — the unitary handed to
    /// the compiler.
    pub refined_gate: Mat4,
    /// Coordinates of the refined gate.
    pub refined_coord: WeylCoord,
    /// True pulse duration of the selected gate (ns).
    pub duration: f64,
}

/// Runs the initial tuneup stage for a prepared cell at drive amplitude
/// `xi`: simulate the trajectory (steps 1-2), narrow candidates with the
/// criterion's region geometry applied to QPT estimates (step 3), then
/// refine the fastest few candidates with GST and select (step 4).
pub fn initial_tuneup<R: Rng + ?Sized>(
    cell: &PreparedCell,
    xi: f64,
    criterion: SelectionCriterion,
    min_entangling_power: f64,
    max_leakage: f64,
    traj_config: &TrajectoryConfig,
    rng: &mut R,
) -> Option<(CartanTrajectory, TuneupResult)> {
    let traj = cell.trajectory(xi, traj_config);
    let result = tuneup_from_trajectory(&traj, criterion, min_entangling_power, max_leakage, rng)?;
    Some((traj, result))
}

/// The tuneup logic given an already-simulated trajectory (shared by the
/// initial tuneup and by tests).
pub(crate) fn tuneup_from_trajectory<R: Rng + ?Sized>(
    traj: &CartanTrajectory,
    criterion: SelectionCriterion,
    min_entangling_power: f64,
    max_leakage: f64,
    rng: &mut R,
) -> Option<TuneupResult> {
    let qpt = TomographyModel::qpt();
    let gst = TomographyModel::gst();
    // Step 2-3: QPT every point, keep those passing the criterion on the
    // *estimated* coordinates. Points whose measured leakage exceeds the
    // quality ceiling are rejected outright: an experimentalist would not
    // calibrate a gate that visibly loses population.
    let mut candidates = Vec::new();
    for (i, p) in traj.points.iter().enumerate() {
        if p.leakage > max_leakage {
            continue;
        }
        let est = qpt.estimate(&p.gate, rng);
        let coord = kak_vector(&est);
        if criterion.accepts(coord) && nsb_weyl::entangling_power(coord) >= min_entangling_power {
            candidates.push(i);
        }
    }
    if candidates.is_empty() {
        return None;
    }
    // Step 4: GST-refine the fastest few candidates; select the fastest
    // whose *refined* coordinates still pass the criterion.
    for &index in candidates.iter().take(5) {
        let p = &traj.points[index];
        let refined = gst.estimate(&p.gate, rng);
        let coord = kak_vector(&refined);
        if criterion.accepts(coord) && nsb_weyl::entangling_power(coord) >= min_entangling_power {
            return Some(TuneupResult {
                selected_index: index,
                refined_gate: refined,
                refined_coord: coord,
                duration: p.duration,
                candidates,
            });
        }
    }
    None
}

/// The retuning stage: re-estimates the previously selected gate at
/// GST precision without re-scanning the trajectory (paper: 1-5 minutes
/// per basis gate instead of a full tuneup).
pub fn retune<R: Rng + ?Sized>(
    traj: &CartanTrajectory,
    previous: &TuneupResult,
    rng: &mut R,
) -> TuneupResult {
    let gst = TomographyModel::gst();
    let p = &traj.points[previous.selected_index];
    let refined = gst.estimate(&p.gate, rng);
    TuneupResult {
        candidates: previous.candidates.clone(),
        selected_index: previous.selected_index,
        refined_coord: kak_vector(&refined),
        refined_gate: refined,
        duration: p.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tomography_error_scales_with_shots() {
        let mut rng = StdRng::seed_from_u64(5);
        let truth = Mat4::sqrt_iswap();
        let few = TomographyModel {
            shots: 100,
            noise_scale: 2.0,
        };
        let many = TomographyModel {
            shots: 1_000_000,
            noise_scale: 2.0,
        };
        let avg_err = |m: &TomographyModel, rng: &mut StdRng| {
            (0..12)
                .map(|_| (m.estimate(&truth, rng) - truth).norm())
                .sum::<f64>()
                / 12.0
        };
        let e_few = avg_err(&few, &mut rng);
        let e_many = avg_err(&many, &mut rng);
        assert!(e_few > 20.0 * e_many, "few {e_few:.2e} many {e_many:.2e}");
        assert!(e_many < 1e-2);
    }

    #[test]
    fn estimates_are_unitary() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = TomographyModel::qpt();
        let est = m.estimate(&Mat4::cnot(), &mut rng);
        assert!(est.is_unitary(1e-9));
    }

    #[test]
    fn gst_refinement_recovers_coordinates() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth = nsb_weyl::canonical_gate(WeylCoord::new(0.3, 0.22, 0.05));
        let gst = TomographyModel::gst();
        let est = gst.estimate(&truth, &mut rng);
        let c = kak_vector(&est);
        assert!(c.dist(WeylCoord::new(0.3, 0.22, 0.05)) < 5e-3, "{c}");
    }
}
