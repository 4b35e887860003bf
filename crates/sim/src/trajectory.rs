//! Cartan trajectories: the time-ordered sequence of effective two-qubit
//! gates produced by an entangling pulse of increasing duration, plotted as
//! points in the Weyl chamber (paper Figures 2 and 5, Section VIII-B).

use crate::evolve::{Stepper, DEFAULT_DT};
use crate::hamiltonian::{CellTerms, UnitCellHamiltonian};
use crate::params::{DriveParams, UnitCellParams};
use crate::spectrum::{zero_zz_bias, DressedFrame};
use nsb_math::Mat4;
use nsb_weyl::{kak_vector, WeylCoord};

/// One point on a Cartan trajectory.
#[derive(Clone, Debug)]
pub struct TrajectoryPoint {
    /// Entangling pulse duration (ns).
    pub duration: f64,
    /// The effective two-qubit gate at this duration.
    pub gate: Mat4,
    /// Cartan coordinates of the gate.
    pub coord: WeylCoord,
    /// Leakage out of the computational subspace.
    pub leakage: f64,
}

/// A simulated Cartan trajectory for one qubit pair at one drive amplitude.
#[derive(Clone, Debug)]
pub struct CartanTrajectory {
    /// Calibrated drive parameters used.
    pub drive: DriveParams,
    /// Sampled points in time order (1 ns spacing, matching the
    /// qubit-controller resolution assumed in the paper).
    pub points: Vec<TrajectoryPoint>,
}

impl CartanTrajectory {
    /// Coordinates of all points, in time order.
    pub fn coords(&self) -> Vec<WeylCoord> {
        self.points.iter().map(|p| p.coord).collect()
    }

    /// The first point whose gate is a perfect entangler, if any.
    pub fn first_perfect_entangler(&self) -> Option<&TrajectoryPoint> {
        self.points
            .iter()
            .find(|p| nsb_weyl::is_perfect_entangler(p.coord, 1e-9))
    }

    /// The point whose class is closest to the given target class.
    pub fn closest_to(&self, target: WeylCoord) -> Option<&TrajectoryPoint> {
        self.points.iter().min_by(|a, b| {
            a.coord
                .class_dist(target)
                .total_cmp(&b.coord.class_dist(target))
        })
    }

    /// Maximum leakage along the trajectory.
    pub fn max_leakage(&self) -> f64 {
        self.points.iter().map(|p| p.leakage).fold(0.0, f64::max)
    }
}

/// Configuration for trajectory simulation.
#[derive(Clone, Copy, Debug)]
pub struct TrajectoryConfig {
    /// Total pulse duration to sweep (ns).
    pub t_max: f64,
    /// Integrator step (ns).
    pub dt: f64,
    /// Number of candidate drive frequencies scanned during calibration.
    pub drive_scan_points: usize,
    /// Probe duration for the drive-frequency scan (ns).
    pub drive_probe_t: f64,
}

/// Trajectory sample spacing (ns), the typical controller resolution.
const SAMPLE_EVERY: f64 = 1.0;

/// Flat-top envelope rise/fall time (ns) of every calibrated drive.
const RAMP: f64 = 1.5;

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            t_max: 120.0,
            dt: DEFAULT_DT,
            drive_scan_points: 7,
            drive_probe_t: 40.0,
        }
    }
}

/// A fully prepared unit cell: biased to zero ZZ, with its dressed frame.
#[derive(Clone, Debug)]
pub struct PreparedCell {
    /// Biased parameters.
    pub params: UnitCellParams,
    /// Residual static ZZ after biasing (rad/ns).
    pub residual_zz: f64,
    /// Assembled Hamiltonian at the bias point.
    pub(crate) hamiltonian: UnitCellHamiltonian,
    /// Dressed computational frame.
    pub(crate) frame: DressedFrame,
}

impl PreparedCell {
    /// Prepares a unit cell: zero-ZZ bias then dressed-frame analysis.
    ///
    /// Returns `None` when the biased cell's dressed frame is ambiguous
    /// (some computational state overlaps every remaining eigenvector by
    /// less than 50%).
    pub fn prepare(params: &UnitCellParams) -> Option<Self> {
        let terms = CellTerms::new(params);
        let (biased, residual_zz) = zero_zz_bias(params, &terms);
        let hamiltonian = terms.at_bias(biased.omega_c);
        let frame = DressedFrame::try_from_hamiltonian(&hamiltonian)?;
        Some(PreparedCell {
            params: biased,
            residual_zz,
            hamiltonian,
            frame,
        })
    }

    /// The naive drive frequency: the dressed qubit difference frequency.
    pub fn difference_frequency(&self) -> f64 {
        (self.frame.omega_b_dressed() - self.frame.omega_a_dressed()).abs()
    }

    /// Calibrates the entangling drive frequency for amplitude `xi` by
    /// scanning around the difference frequency and maximizing the
    /// population-swap amplitude `max_t |<10|U(t)|01>|` over a short probe
    /// (paper Section VI, step 1: coarse amplitude/frequency tuning).
    pub(crate) fn calibrate_drive(&self, xi: f64, config: &TrajectoryConfig) -> DriveParams {
        let delta = self.params.modulation_depth(xi);
        let w0 = self.difference_frequency();
        // Scan window widens with drive strength (AC-Stark-like shifts).
        let width = 0.02 * w0.max(1.0) * (1.0 + 40.0 * xi);
        let n = config.drive_scan_points.max(1);
        // Every probe shares the Hamiltonian and the coarse 2 dt step.
        let stepper = Stepper::new(&self.hamiltonian, &self.frame, config.dt * 2.0);
        let mut best = (w0, -1.0f64);
        for k in 0..n {
            let w = if n == 1 {
                w0
            } else {
                w0 - width + 2.0 * width * k as f64 / (n - 1) as f64
            };
            let drive = DriveParams {
                delta,
                omega_d: w,
                ramp: RAMP,
            };
            let amp = stepper
                .sample(&drive, config.drive_probe_t, config.drive_probe_t / 20.0)
                .iter()
                .map(|s| s.gate.at(2, 1).abs().max(s.gate.at(1, 2).abs()))
                .fold(0.0, f64::max);
            if amp > best.1 {
                best = (w, amp);
            }
        }
        DriveParams {
            delta,
            omega_d: best.0,
            ramp: RAMP,
        }
    }

    /// Simulates the Cartan trajectory at drive amplitude `xi`.
    pub fn trajectory(&self, xi: f64, config: &TrajectoryConfig) -> CartanTrajectory {
        let drive = self.calibrate_drive(xi, config);
        let snaps = Stepper::new(&self.hamiltonian, &self.frame, config.dt).sample(
            &drive,
            config.t_max,
            SAMPLE_EVERY,
        );
        let points = snaps
            .into_iter()
            .map(|s| TrajectoryPoint {
                duration: s.t,
                coord: kak_vector(&s.gate),
                gate: s.gate,
                leakage: s.leakage,
            })
            .collect();
        CartanTrajectory { drive, points }
    }
}

/// Average speed of a trajectory: mean Weyl-space arc length per ns over
/// the first `n` points (used for the Figure 5 speed-doubling check).
pub fn trajectory_speed(traj: &CartanTrajectory, n: usize) -> f64 {
    let pts = &traj.points[..n.min(traj.points.len())];
    if pts.len() < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    for w in pts.windows(2) {
        acc += w[0].coord.dist(w[1].coord);
    }
    acc / (pts[pts.len() - 1].duration - pts[0].duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_weyl::entangling_power;

    /// The maximum entangling power attained along the trajectory.
    fn max_entangling_power(traj: &CartanTrajectory) -> f64 {
        traj.points
            .iter()
            .map(|p| entangling_power(p.coord))
            .fold(0.0, f64::max)
    }

    fn fast_config() -> TrajectoryConfig {
        TrajectoryConfig {
            t_max: 30.0,
            dt: 0.02,
            drive_scan_points: 5,
            drive_probe_t: 20.0,
        }
    }

    #[test]
    fn prepared_cell_has_small_residual_zz() {
        let cell = PreparedCell::prepare(&UnitCellParams::default())
            .expect("default cell has a dressed frame");
        assert!(cell.residual_zz.abs() < crate::params::ghz(1e-4));
        assert!(cell.difference_frequency() > crate::params::ghz(1.5));
    }

    #[test]
    fn strong_drive_trajectory_reaches_entangling_region() {
        let cell = PreparedCell::prepare(&UnitCellParams::default())
            .expect("default cell has a dressed frame");
        let traj = cell.trajectory(0.04, &fast_config());
        assert_eq!(traj.points.len(), 30);
        assert!(
            max_entangling_power(&traj) > 0.1,
            "max ep {}",
            max_entangling_power(&traj)
        );
        // Leakage stays small compared to decoherence scales.
        assert!(traj.max_leakage() < 0.05, "leakage {}", traj.max_leakage());
    }

    #[test]
    fn trajectory_speed_scales_with_amplitude() {
        let cell = PreparedCell::prepare(&UnitCellParams::default())
            .expect("default cell has a dressed frame");
        let cfg = fast_config();
        let slow = cell.trajectory(0.01, &cfg);
        let fast = cell.trajectory(0.02, &cfg);
        let vs = trajectory_speed(&slow, 30);
        let vf = trajectory_speed(&fast, 30);
        let ratio = vf / vs;
        assert!(
            (1.4..=2.8).contains(&ratio),
            "speed ratio {ratio} (slow {vs}, fast {vf})"
        );
    }
}
