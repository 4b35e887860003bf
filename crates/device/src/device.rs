//! The simulated 10x10 device: per-edge trajectories, basis-gate selection
//! under the three strategies, and per-edge decomposition caches
//! (paper Section VIII-C).

use crate::calibration::{tuneup_from_trajectory, TomographyModel};
use crate::coherence::{coherence_fidelity_2q, synthesized_duration};
use crate::freq::{FrequencyAllocation, FrequencyPlan};
use crate::topology::GridTopology;
use nsb_math::Mat4;
use nsb_sim::{PreparedCell, TrajectoryConfig, UnitCellParams};
use nsb_synth::{Decomposer, Synthesized2Q};
use nsb_weyl::{SelectionCriterion, WeylCoord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// The three basis-gate strategies compared in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasisStrategy {
    /// sqrt(iSWAP) from the standard slow trajectory (xi = 0.005 Phi_0).
    Baseline,
    /// Fastest gate on the strong-drive trajectory able to synthesize SWAP
    /// in 3 layers.
    Criterion1,
    /// Fastest gate able to synthesize SWAP in 3 layers AND CNOT in 2.
    Criterion2,
}

impl BasisStrategy {
    /// All strategies in report order.
    pub const ALL: [BasisStrategy; 3] = [
        BasisStrategy::Baseline,
        BasisStrategy::Criterion1,
        BasisStrategy::Criterion2,
    ];
}

impl fmt::Display for BasisStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasisStrategy::Baseline => write!(f, "Baseline"),
            BasisStrategy::Criterion1 => write!(f, "Criterion 1"),
            BasisStrategy::Criterion2 => write!(f, "Criterion 2"),
        }
    }
}

/// A cached decomposition of a common target into one edge's basis gate.
#[derive(Clone, Debug)]
pub struct SynthesizedGate {
    /// The synthesized circuit (locals + layer count).
    pub circuit: Synthesized2Q,
    /// Wall-clock duration including local layers (ns).
    pub(crate) duration: f64,
}

/// One selected basis gate on one edge, with its decomposition cache.
#[derive(Clone, Debug)]
pub struct SelectedBasis {
    /// Entangling pulse duration of the basis gate (ns).
    pub duration: f64,
    /// The characterized unitary the compiler targets, shared with every
    /// compiled op that applies it.
    pub gate: Arc<Mat4>,
    /// Cartan coordinates.
    pub coord: WeylCoord,
    /// Leakage of the underlying pulse.
    pub leakage: f64,
    /// Cached SWAP decomposition.
    pub swap: SynthesizedGate,
    /// Cached CNOT decomposition.
    pub cnot: SynthesizedGate,
    /// Decomposer bound to this basis gate, for direct synthesis of other
    /// targets.
    pub decomposer: Decomposer,
}

/// Calibration record for one edge of the device.
#[derive(Clone, Debug)]
pub struct EdgeCalibration {
    /// The two qubits (low index first).
    pub qubits: (usize, usize),
    /// The qubits ordered as the calibrated gate's tensor factors:
    /// (low-frequency qubit, high-frequency qubit). Basis-gate unitaries
    /// act on `|q_lo q_hi>` in this order.
    pub gate_order: (usize, usize),
    /// Baseline sqrt(iSWAP) basis gate.
    pub baseline: SelectedBasis,
    /// Criterion-1 nonstandard basis gate.
    pub criterion1: SelectedBasis,
    /// Criterion-2 nonstandard basis gate.
    pub criterion2: SelectedBasis,
}

impl EdgeCalibration {
    /// The record for a strategy.
    pub fn basis(&self, strategy: BasisStrategy) -> &SelectedBasis {
        match strategy {
            BasisStrategy::Baseline => &self.baseline,
            BasisStrategy::Criterion1 => &self.criterion1,
            BasisStrategy::Criterion2 => &self.criterion2,
        }
    }
}

/// Configuration of the device build.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Frequency allocation plan.
    pub plan: FrequencyPlan,
    /// Master seed; per-edge RNGs derive from it deterministically.
    pub seed: u64,
    /// Baseline (standard-trajectory) drive amplitude in Phi_0.
    pub xi_baseline: f64,
    /// Strong-drive (nonstandard-trajectory) amplitude in Phi_0.
    pub xi_nonstandard: f64,
    /// Single-qubit gate duration (ns).
    pub t_1q: f64,
    /// Coherence time T for every qubit (ns).
    pub coherence_time: f64,
    /// Minimum entangling power a selected basis gate must have.
    pub min_entangling_power: f64,
    /// Maximum tolerated leakage of a selected nonstandard basis gate
    /// (paper: leakage must stay below the decoherence-induced errors).
    pub max_leakage: f64,
    /// Maximum class distance from sqrt(iSWAP) accepted for the baseline
    /// gate (the full 3-level model stays well under 0.05; the 2-level
    /// test model deviates more).
    pub baseline_tolerance: f64,
    /// Trajectory simulation settings for the baseline amplitude.
    pub baseline_traj: TrajectoryConfig,
    /// Trajectory simulation settings for the strong drive.
    pub nonstandard_traj: TrajectoryConfig,
    /// Levels per mode in the pulse simulation (3 = full model; 2 = fast).
    pub levels: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            plan: FrequencyPlan::default(),
            seed: 2022,
            xi_baseline: 0.005,
            xi_nonstandard: 0.04,
            t_1q: 20.0,
            coherence_time: 80_000.0,
            min_entangling_power: 0.15,
            max_leakage: 5e-3,
            baseline_tolerance: 0.15,
            baseline_traj: TrajectoryConfig {
                t_max: 240.0,
                dt: 0.015,
                ..TrajectoryConfig::default()
            },
            nonstandard_traj: TrajectoryConfig {
                t_max: 45.0,
                dt: 0.015,
                ..TrajectoryConfig::default()
            },
            levels: 3,
        }
    }
}

impl DeviceConfig {
    /// A configuration small and coarse enough for unit tests: two-level
    /// modes, coarse integration, stronger drives so the trajectories are
    /// short.
    pub fn fast_test() -> Self {
        DeviceConfig {
            xi_baseline: 0.02,
            xi_nonstandard: 0.08,
            baseline_traj: TrajectoryConfig {
                t_max: 80.0,
                dt: 0.05,
                drive_scan_points: 3,
                drive_probe_t: 20.0,
            },
            nonstandard_traj: TrajectoryConfig {
                t_max: 25.0,
                dt: 0.05,
                drive_scan_points: 3,
                drive_probe_t: 10.0,
            },
            levels: 2,
            max_leakage: 1.0,
            baseline_tolerance: 0.3,
            ..DeviceConfig::default()
        }
    }
}

/// Errors produced while building a device.
#[derive(Clone, Debug)]
pub struct DeviceBuildError {
    /// Edge index that failed; `None` when the grid itself is rejected.
    pub(crate) edge: Option<usize>,
    /// Human-readable reason.
    pub(crate) reason: String,
}

impl fmt::Display for DeviceBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.edge {
            Some(edge) => write!(f, "edge {edge}: {}", self.reason),
            None => f.write_str(&self.reason),
        }
    }
}

impl std::error::Error for DeviceBuildError {}

/// The fully calibrated device.
#[derive(Clone, Debug)]
pub struct Device {
    topology: GridTopology,
    config: DeviceConfig,
    edges: Vec<EdgeCalibration>,
}

impl Device {
    /// Builds and calibrates a `width x height` grid device.
    ///
    /// Edges are processed in parallel, one worker thread per available
    /// CPU; all randomness derives from per-edge seeds, so results are
    /// independent of the thread count and scheduling.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceBuildError`] for an empty grid (zero width or
    /// height), or the first one when any edge fails calibration or
    /// synthesis.
    pub fn build(
        width: usize,
        height: usize,
        config: DeviceConfig,
    ) -> Result<Device, DeviceBuildError> {
        if width == 0 || height == 0 {
            return Err(DeviceBuildError {
                edge: None,
                reason: format!("empty grid: a {width}x{height} device has no qubits"),
            });
        }
        let topology = GridTopology::new(width, height);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let frequencies = FrequencyAllocation::sample(&topology, &config.plan, &mut rng);
        let edge_list = topology.edges();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        // At least one: a grid without edges has nothing to split, and
        // `step_by(0)` panics.
        let chunk = edge_list.len().div_ceil(threads).max(1);
        // Retry with extended trajectory windows: slow outlier edges may
        // cross the selection faces later than the default t_max allows.
        let calibrate = |idx: usize| {
            let (a, b) = edge_list[idx];
            let mut result = build_edge(idx, a, b, &frequencies, &config);
            let mut extended = config.clone();
            for _ in 0..2 {
                if result.is_ok() {
                    break;
                }
                extended.baseline_traj.t_max *= 1.6;
                extended.nonstandard_traj.t_max *= 1.6;
                // Outlier edges with parasitic resonances may not meet the
                // leakage ceiling anywhere; relax it rather than fail the
                // whole device.
                extended.max_leakage *= 4.0;
                result = build_edge(idx, a, b, &frequencies, &extended);
            }
            result
        };
        let edges = std::thread::scope(|scope| {
            let calibrate = &calibrate;
            let handles: Vec<_> = (0..edge_list.len())
                .step_by(chunk)
                .map(|start| {
                    let end = (start + chunk).min(edge_list.len());
                    scope.spawn(move || (start..end).map(calibrate).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Device {
            topology,
            config,
            edges,
        })
    }

    /// The coupling topology.
    pub fn topology(&self) -> &GridTopology {
        &self.topology
    }

    /// Build configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// All edge calibrations in [`GridTopology::edges`] order.
    pub fn edges(&self) -> &[EdgeCalibration] {
        &self.edges
    }

    /// A stable fingerprint of this device's calibration.
    ///
    /// Two devices share a calibration hash exactly when every edge's
    /// selected basis gates (for all three strategies) are numerically
    /// identical at the synthesis fingerprint resolution and the timing
    /// parameters relevant to compilation agree. The hash is computed
    /// with [`nsb_synth::StableHasher`], so it is identical across
    /// processes, platforms and Rust versions — `nsb-store` snapshots and
    /// the service pool use it to decide whether persisted synthesis
    /// results may be reused for a device.
    pub fn calibration_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = nsb_synth::StableHasher::new();
        self.topology.width().hash(&mut h);
        self.topology.height().hash(&mut h);
        self.config.seed.hash(&mut h);
        self.config.t_1q.to_bits().hash(&mut h);
        self.config.coherence_time.to_bits().hash(&mut h);
        for e in &self.edges {
            e.qubits.hash(&mut h);
            e.gate_order.hash(&mut h);
            for strategy in BasisStrategy::ALL {
                let b = e.basis(strategy);
                nsb_synth::mat4_fingerprint(&b.gate).hash(&mut h);
                b.duration.to_bits().hash(&mut h);
            }
        }
        h.finish()
    }

    /// Mean basis / SWAP / CNOT durations and coherence-limited fidelities
    /// for a strategy: one row of Table I.
    pub fn table1_row(&self, strategy: BasisStrategy) -> Table1Row {
        let t = self.config.coherence_time;
        let n = self.edges.len() as f64;
        let mut row = Table1Row::default();
        for e in &self.edges {
            let b = e.basis(strategy);
            row.basis_duration += b.duration / n;
            row.basis_fidelity += coherence_fidelity_2q(t, b.duration) / n;
            row.swap_duration += b.swap.duration / n;
            row.swap_fidelity += coherence_fidelity_2q(t, b.swap.duration) / n;
            row.cnot_duration += b.cnot.duration / n;
            row.cnot_fidelity += coherence_fidelity_2q(t, b.cnot.duration) / n;
        }
        row
    }
}

/// One row of the paper's Table I.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table1Row {
    /// Mean basis-gate duration (ns).
    pub basis_duration: f64,
    /// Mean basis-gate coherence-limited fidelity.
    pub basis_fidelity: f64,
    /// Mean synthesized SWAP duration (ns).
    pub swap_duration: f64,
    /// Mean synthesized SWAP fidelity.
    pub swap_fidelity: f64,
    /// Mean synthesized CNOT duration (ns).
    pub cnot_duration: f64,
    /// Mean synthesized CNOT fidelity.
    pub cnot_fidelity: f64,
}

fn build_edge(
    idx: usize,
    a: usize,
    b: usize,
    frequencies: &FrequencyAllocation,
    config: &DeviceConfig,
) -> Result<EdgeCalibration, DeviceBuildError> {
    let err = |reason: String| DeviceBuildError {
        edge: Some(idx),
        reason,
    };
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(idx as u64 + 1)));
    let (fa, fb) = (frequencies.frequency(a), frequencies.frequency(b));
    let gate_order = if fa <= fb { (a, b) } else { (b, a) };
    let params = UnitCellParams {
        levels: config.levels,
        ..UnitCellParams::with_qubit_frequencies(fa, fb)
    };
    let cell = PreparedCell::prepare(&params).ok_or_else(|| {
        err(format!(
            "dressed frame ambiguous for qubit frequencies {fa:.3} / {fb:.3} GHz"
        ))
    })?;
    // Baseline: sqrt(iSWAP) off the standard trajectory.
    let base_traj = cell.trajectory(config.xi_baseline, &config.baseline_traj);
    let bp = base_traj
        .closest_to(WeylCoord::SQRT_ISWAP)
        .ok_or_else(|| err("empty baseline trajectory".into()))?;
    if bp.coord.class_dist(WeylCoord::SQRT_ISWAP) > config.baseline_tolerance {
        return Err(err(format!(
            "baseline trajectory misses sqrt(iSWAP): best {} at {} ns",
            bp.coord, bp.duration
        )));
    }
    let baseline_gate = TomographyModel::gst().estimate(&bp.gate, &mut rng);
    let baseline = finish_basis(
        BasisStrategy::Baseline,
        bp.duration,
        baseline_gate,
        bp.leakage,
        config,
    )
    .map_err(&err)?;
    // Nonstandard criteria off the strong-drive trajectory.
    let fast_traj = cell.trajectory(config.xi_nonstandard, &config.nonstandard_traj);
    let select = |criterion: SelectionCriterion,
                  strategy: BasisStrategy,
                  rng: &mut StdRng|
     -> Result<SelectedBasis, DeviceBuildError> {
        let tune = tuneup_from_trajectory(
            &fast_traj,
            criterion,
            config.min_entangling_power,
            config.max_leakage,
            rng,
        )
        .ok_or_else(|| {
            err(format!(
                "no {strategy} basis gate found within {} ns",
                config.nonstandard_traj.t_max
            ))
        })?;
        let leak = fast_traj.points[tune.selected_index].leakage;
        finish_basis(strategy, tune.duration, tune.refined_gate, leak, config).map_err(&err)
    };
    let criterion1 = select(
        SelectionCriterion::SwapIn3,
        BasisStrategy::Criterion1,
        &mut rng,
    )?;
    let criterion2 = select(
        SelectionCriterion::SwapIn3CnotIn2,
        BasisStrategy::Criterion2,
        &mut rng,
    )?;
    Ok(EdgeCalibration {
        qubits: (a.min(b), a.max(b)),
        gate_order,
        baseline,
        criterion1,
        criterion2,
    })
}

fn finish_basis(
    strategy: BasisStrategy,
    duration: f64,
    gate: Mat4,
    leakage: f64,
    config: &DeviceConfig,
) -> Result<SelectedBasis, String> {
    let decomposer = Decomposer::new(gate);
    let coord = decomposer.basis_coord();
    let swap = decomposer
        .decompose(&Mat4::swap())
        .map_err(|e| format!("{strategy}: SWAP synthesis failed: {e}"))?;
    let cnot = decomposer
        .decompose(&Mat4::cnot())
        .map_err(|e| format!("{strategy}: CNOT synthesis failed: {e}"))?;
    let swap = SynthesizedGate {
        duration: synthesized_duration(swap.layers, duration, config.t_1q),
        circuit: swap,
    };
    let cnot = SynthesizedGate {
        duration: synthesized_duration(cnot.layers, duration, config.t_1q),
        circuit: cnot,
    };
    Ok(SelectedBasis {
        duration,
        gate: Arc::new(gate),
        coord,
        leakage,
        swap,
        cnot,
        decomposer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambiguous_dressed_frame_is_a_build_error_not_a_panic() {
        // On the 5x3 grid one coupler's dressed frame is ambiguous; building
        // used to abort with "a scoped thread panicked".
        let err = Device::build(5, 3, DeviceConfig::fast_test()).expect_err("5x3 fails");
        assert!(err.reason.contains("dressed frame"), "{err}");
    }

    #[test]
    fn small_device_builds_and_has_sane_table1() {
        let device = Device::build(2, 1, DeviceConfig::fast_test()).expect("build");
        assert_eq!(device.edges().len(), 1);
        let e = &device.edges()[0];
        assert_eq!(e.qubits, (0, 1));
        // Nonstandard gates are faster than baseline.
        assert!(e.criterion1.duration < e.baseline.duration);
        assert!(e.criterion2.duration <= e.baseline.duration);
        // SWAP syntheses use at most 3 layers; baseline uses exactly 3.
        assert_eq!(e.baseline.swap.circuit.layers, 3);
        assert!(e.criterion1.swap.circuit.layers <= 3);
        assert!(e.criterion2.cnot.circuit.layers <= 2);
        // Table 1 row ordering: criterion fidelities beat baseline.
        let base = device.table1_row(BasisStrategy::Baseline);
        let c1 = device.table1_row(BasisStrategy::Criterion1);
        let c2 = device.table1_row(BasisStrategy::Criterion2);
        assert!(c1.basis_fidelity > base.basis_fidelity);
        assert!(c2.cnot_fidelity >= c1.cnot_fidelity - 1e-6);
        assert!(base.swap_duration > c1.swap_duration);
    }

    #[test]
    fn single_qubit_device_builds_with_no_edges() {
        // A 1x1 grid has no couplers; building used to panic splitting
        // zero edges into zero-sized per-thread chunks.
        let device = Device::build(1, 1, DeviceConfig::fast_test()).expect("build");
        assert_eq!(device.topology().n_qubits(), 1);
        assert!(device.edges().is_empty());
    }

    #[test]
    fn empty_grid_is_a_build_error_not_a_panic() {
        for (width, height) in [(0, 3), (3, 0)] {
            let err = Device::build(width, height, DeviceConfig::fast_test())
                .expect_err("an empty grid has no device");
            assert_eq!(err.edge, None);
            assert!(err.reason.contains("empty grid"), "{err}");
        }
    }

    #[test]
    fn edge_lookup_by_qubits() {
        let device = Device::build(2, 1, DeviceConfig::fast_test()).expect("build");
        let idx = device.topology().edge_index(1, 0).expect("coupled");
        assert_eq!(device.edges()[idx].qubits, (0, 1));
    }

    #[test]
    fn calibration_hash_separates_devices() {
        let a = Device::build(2, 1, DeviceConfig::fast_test()).expect("build");
        let b = Device::build(2, 1, DeviceConfig::fast_test()).expect("build");
        assert_eq!(
            a.calibration_hash(),
            b.calibration_hash(),
            "identical builds must agree"
        );
        let other = Device::build(
            2,
            1,
            DeviceConfig {
                seed: 7,
                ..DeviceConfig::fast_test()
            },
        )
        .expect("build");
        assert_ne!(a.calibration_hash(), other.calibration_hash());
    }

    #[test]
    fn build_is_deterministic() {
        let a = Device::build(2, 1, DeviceConfig::fast_test()).expect("build");
        let b = Device::build(2, 1, DeviceConfig::fast_test()).expect("build");
        assert_eq!(
            a.edges()[0].criterion1.duration,
            b.edges()[0].criterion1.duration
        );
        assert!(a.edges()[0]
            .baseline
            .gate
            .approx_eq(&b.edges()[0].baseline.gate, 1e-12));
    }

    #[test]
    fn criterion2_cnot_is_two_layers_on_every_edge() {
        // Criterion 2 promises CNOT in two layers. Edge (7, 11) of this
        // device sits just inside the CNOT-in-2 face, where the
        // alternating sweeps alone stall above tolerance.
        let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("build");
        for e in device.edges() {
            let c2 = &e.criterion2;
            assert!(nsb_weyl::can_cnot_in_2(c2.coord), "{:?}", e.qubits);
            assert_eq!(
                c2.cnot.circuit.layers, 2,
                "edge {:?}: Criterion 2 CNOT error {:.2e}",
                e.qubits, c2.cnot.circuit.error
            );
        }
    }
}
