//! The end-to-end transpiler: SABRE mapping, basis lowering, local-gate
//! merging, scheduling, fidelity evaluation — plus statevector
//! verification for small devices.

use crate::lower::{LowerError, LoweredOp, Lowerer, LoweringMode};
use crate::sabre::{sabre_route, Layout, RouteError, SabreConfig};
use crate::schedule::{schedule, Schedule};
use nsb_circuit::{Circuit, Gate, StateVector};
use nsb_device::{BasisStrategy, Device};
use nsb_math::{Mat2, Mat4};
use nsb_synth::{SharedSynthCache, SynthCache};
use nsb_verify::{
    ScheduleFacts, UnitaryEquivalence, VerifierSuite, VerifyLevel, VerifyOp, VerifyReport,
    VerifyTarget,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A compiled (hardware-level) program with its schedule and fidelity.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    /// Lowered operation list on physical qubits.
    pub ops: Vec<LoweredOp>,
    /// Number of physical qubits.
    pub n_qubits: usize,
    /// Logical-to-physical layout before the first gate.
    pub initial_layout: Layout,
    /// Layout after the last gate (routing permutes qubits).
    pub final_layout: Layout,
    /// SWAPs inserted by routing.
    pub swaps_inserted: usize,
    /// Schedule summary.
    pub schedule: Schedule,
    /// Coherence-limited circuit fidelity (paper's noise model).
    pub fidelity: f64,
}

impl CompiledCircuit {
    /// Rebuilds the lowered program as an `nsb-circuit` circuit of
    /// explicit unitaries, for statevector verification.
    pub fn to_circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        for op in &self.ops {
            match op {
                LoweredOp::Local { qubit, unitary } => {
                    c.push(Gate::Unitary1(*unitary), &[*qubit]);
                }
                LoweredOp::Entangler { qubits, gate, .. } => {
                    c.push(Gate::Unitary2(Box::new(**gate)), &[qubits.0, qubits.1]);
                }
            }
        }
        c
    }
}

/// A stage of [`Transpiler::compile_staged`], reported to its hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// SABRE layout and routing.
    Route,
    /// Lowering into the edges' basis gates, synthesis included.
    Lower,
    /// Scheduling and fidelity evaluation.
    Schedule,
    /// One run of an inter-pass verifier suite.
    Verify,
}

impl Stage {
    /// The stage's name, as used in error labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Route => "route",
            Stage::Lower => "lower",
            Stage::Schedule => "schedule",
            Stage::Verify => "verify",
        }
    }
}

/// Largest Frobenius norm of `u u† − I` a gate matrix `u` may have:
/// the domain on which `nsb_weyl::kak_vector` is documented to work on
/// the nearest unitary. Gates inside it compile as given.
const UNITARY_TOLERANCE: f64 = 1e-6;

/// Compilation failure.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// The circuit has more qubits than the device.
    TooWide {
        /// Qubits the circuit uses.
        circuit_qubits: usize,
        /// Qubits the device has.
        device_qubits: usize,
    },
    /// A gate's matrix is not unitary within 1e-6, or not finite.
    InvalidGate {
        /// Index of the offending operation in the circuit.
        op: usize,
        /// Frobenius norm of `u u† − I` (NaN for a non-finite matrix).
        deviation: f64,
    },
    /// Routing stalled (degenerate topology).
    Route(RouteError),
    /// Lowering failed (synthesis non-convergence or an unrouted gate).
    Lower(LowerError),
    /// An inter-pass verification found the compiled program invalid.
    Verification {
        /// The pipeline stage after which the suite ran.
        stage: &'static str,
        /// The full verifier report.
        report: VerifyReport,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooWide {
                circuit_qubits,
                device_qubits,
            } => write!(
                f,
                "compilation failed: the circuit has {circuit_qubits} qubits, \
                 the device {device_qubits}"
            ),
            CompileError::InvalidGate { op, deviation } => write!(
                f,
                "compilation failed: the gate of op {op} is not unitary \
                 (|u u^dag - I| = {deviation:e})"
            ),
            CompileError::Route(e) => write!(f, "compilation failed: {e}"),
            CompileError::Lower(e) => write!(f, "compilation failed: {e}"),
            CompileError::Verification { stage, report } => {
                write!(f, "verification failed after `{stage}`: {report}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Route(e) => Some(e),
            CompileError::Lower(e) => Some(e),
            CompileError::TooWide { .. }
            | CompileError::InvalidGate { .. }
            | CompileError::Verification { .. } => None,
        }
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Route(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// Converts lowered operations into the verifier's IR view, attaching the
/// claimed Cartan coordinate (the calibrated basis class of the edge) to
/// every entangler so the verifier can cross-check it.
pub fn to_verify_ops(ops: &[LoweredOp], device: &Device, strategy: BasisStrategy) -> Vec<VerifyOp> {
    ops.iter()
        .map(|op| match op {
            LoweredOp::Local { qubit, unitary } => VerifyOp::Local {
                qubit: *qubit,
                unitary: *unitary,
            },
            LoweredOp::Entangler {
                qubits,
                duration,
                gate,
            } => VerifyOp::TwoQubit {
                qubits: *qubits,
                duration: *duration,
                unitary: **gate,
                coord: device
                    .topology()
                    .edge_index(qubits.0, qubits.1)
                    .map(|e| device.edges()[e].basis(strategy).coord),
            },
        })
        .collect()
}

/// Exposes a computed [`Schedule`] as claimed facts for the verifier's
/// independent recomputation to validate.
pub fn to_schedule_facts(sched: &Schedule) -> ScheduleFacts {
    ScheduleFacts {
        duration: sched.duration,
        windows: sched.windows.clone(),
        busy: sched.busy.clone(),
        entangler_count: sched.entangler_count,
        local_count: sched.local_count,
    }
}

/// The paper's default lowering mode for a strategy: the baseline
/// decomposes targets directly (standing in for the analytic sqrt(iSWAP)
/// formulas), the criteria route everything through the cached SWAP/CNOT
/// decompositions.
pub fn default_mode(strategy: BasisStrategy) -> LoweringMode {
    match strategy {
        BasisStrategy::Baseline => LoweringMode::Direct,
        _ => LoweringMode::ViaCnot,
    }
}

/// The transpiler, bound to a device and a basis-gate strategy.
pub struct Transpiler<'d> {
    device: &'d Device,
    strategy: BasisStrategy,
    mode: LoweringMode,
    cache: Arc<dyn SynthCache>,
    verify: VerifyLevel,
}

impl<'d> Transpiler<'d> {
    /// Creates a transpiler with the mode defaults of [`default_mode`] and
    /// a synthesis cache of its own (a [`SharedSynthCache::default`]), so
    /// a target it has synthesized before, in this circuit or an earlier
    /// one, is reused. The verification level starts at
    /// [`VerifyLevel::from_env`] (the `NSB_VERIFY` variable, or debug-only
    /// when unset).
    pub fn new(device: &'d Device, strategy: BasisStrategy) -> Self {
        Transpiler {
            device,
            strategy,
            mode: default_mode(strategy),
            cache: Arc::new(SharedSynthCache::default()),
            verify: VerifyLevel::from_env(),
        }
    }

    /// Overrides the lowering mode (for ablation studies).
    pub fn with_mode(mut self, mode: LoweringMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a synthesis cache shared with other transpilers, in place
    /// of its own (see [`Lowerer::with_shared_cache`]); compilation output
    /// is unaffected, only repeated decomposition work is skipped.
    pub fn with_shared_cache(mut self, cache: Arc<dyn SynthCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the inter-pass verification level.
    ///
    /// The default, [`VerifyLevel::Debug`], runs the verifier suites only in
    /// debug builds (a compiled-in debug assertion); [`VerifyLevel::Full`]
    /// always runs them and [`VerifyLevel::Off`] disables them entirely.
    pub fn with_verification(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Compiles a logical circuit to the device.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the circuit is wider than the device
    /// or holds a gate that is not unitary, routing stalls, a direct
    /// decomposition fails, or (with verification enabled) an inter-pass
    /// check rejects the compiled program.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit, CompileError> {
        self.compile_staged(circuit, |_, _| {})
    }

    /// Compiles a logical circuit, calling `after_stage` with each stage's
    /// wall time as soon as the stage completes. The stages run route →
    /// \[verify\] → lower → schedule → \[verify\], the verifier suites only
    /// when verification is enabled.
    ///
    /// # Errors
    ///
    /// As for [`compile`](Transpiler::compile).
    pub fn compile_staged(
        &self,
        circuit: &Circuit,
        mut after_stage: impl FnMut(Stage, Duration),
    ) -> Result<CompiledCircuit, CompileError> {
        let device_qubits = self.device.topology().n_qubits();
        if circuit.n_qubits() > device_qubits {
            return Err(CompileError::TooWide {
                circuit_qubits: circuit.n_qubits(),
                device_qubits,
            });
        }
        check_gates(circuit)?;
        let started = Instant::now();
        let routed = sabre_route(circuit, self.device.topology(), &SabreConfig::default())?;
        after_stage(Stage::Route, started.elapsed());
        // Post-routing checkpoint: every remaining two-qubit gate must sit
        // on a coupled pair; lowering relies on this.
        self.verify_after(Stage::Route, &mut after_stage, || {
            VerifyTarget::new(self.device, self.strategy, Vec::new()).with_source(&routed.circuit)
        })?;

        let started = Instant::now();
        let ops = Lowerer::new(self.device, self.strategy, self.mode)
            .with_shared_cache(self.cache.clone())
            .lower(&routed.circuit)?;
        after_stage(Stage::Lower, started.elapsed());

        let started = Instant::now();
        let sched = schedule(&ops, device_qubits, self.device.config().t_1q);
        let fidelity = sched.coherence_fidelity(self.device.config().coherence_time);
        after_stage(Stage::Schedule, started.elapsed());
        // Post-lowering checkpoint: basis legality, Weyl canonicality,
        // schedule consistency and (for small devices) full unitary
        // equivalence against the routed source.
        self.verify_after(Stage::Lower, &mut after_stage, || {
            VerifyTarget::new(
                self.device,
                self.strategy,
                to_verify_ops(&ops, self.device, self.strategy),
            )
            .with_source(&routed.circuit)
            .with_schedule(to_schedule_facts(&sched))
        })?;

        Ok(CompiledCircuit {
            ops,
            n_qubits: device_qubits,
            initial_layout: routed.initial_layout,
            final_layout: routed.final_layout,
            swaps_inserted: routed.swaps_inserted,
            schedule: sched,
            fidelity,
        })
    }

    /// When verification is enabled, runs the suite that checks `stage`'s
    /// output (structural after routing, standard after lowering), reports
    /// its time as [`Stage::Verify`], and turns violations into
    /// [`CompileError::Verification`] labeled with `stage`.
    fn verify_after<'t>(
        &self,
        stage: Stage,
        after_stage: &mut impl FnMut(Stage, Duration),
        target: impl FnOnce() -> VerifyTarget<'t>,
    ) -> Result<(), CompileError> {
        if !self.verify.is_enabled() {
            return Ok(());
        }
        let started = Instant::now();
        let suite = match stage {
            Stage::Route => VerifierSuite::structural(),
            _ => VerifierSuite::standard(),
        };
        let report = suite.run(&target());
        after_stage(Stage::Verify, started.elapsed());
        if report.is_clean() {
            Ok(())
        } else {
            Err(CompileError::Verification {
                stage: stage.name(),
                report,
            })
        }
    }
}

/// Rejects the first op whose gate matrix is not unitary within
/// [`UNITARY_TOLERANCE`]. A non-finite matrix has a NaN deviation, and
/// fails too.
fn check_gates(circuit: &Circuit) -> Result<(), CompileError> {
    for (op, operation) in circuit.ops().iter().enumerate() {
        let gate = &operation.gate;
        let deviation = if gate.arity() == 1 {
            let u = gate.mat2();
            (u * u.adjoint() - Mat2::identity()).norm()
        } else {
            let u = gate.mat4();
            (u * u.adjoint() - Mat4::identity()).norm()
        };
        if deviation.is_nan() || deviation > UNITARY_TOLERANCE {
            return Err(CompileError::InvalidGate { op, deviation });
        }
    }
    Ok(())
}

/// Verifies a compiled circuit against its logical source by statevector
/// simulation (only feasible for small devices; used by tests and the
/// verification example).
///
/// Probes the input states of [`UnitaryEquivalence::probe_circuits`] by
/// plain simulation, independently of that check's miter; returns the
/// minimum overlap `|<expected|actual>|` observed.
///
/// # Panics
///
/// Panics when the device is too large to simulate (> 16 qubits).
pub fn verify_compiled(logical: &Circuit, compiled: &CompiledCircuit) -> f64 {
    assert!(
        compiled.n_qubits <= 16,
        "statevector verification limited to 16 physical qubits"
    );
    let n_l = logical.n_qubits();
    let phys_circuit = compiled.to_circuit();
    let mut min_overlap = f64::INFINITY;
    for probe in UnitaryEquivalence::probe_circuits(n_l) {
        // Logical evolution.
        let mut expected = StateVector::zero(n_l);
        expected.apply_circuit(&probe);
        expected.apply_circuit(logical);
        // Physical evolution: same preparation embedded by the initial
        // layout, then the compiled program.
        let embed_map = &compiled.initial_layout.logical_to_physical;
        let prep_phys = probe.remapped(embed_map, compiled.n_qubits);
        let mut actual = StateVector::zero(compiled.n_qubits);
        actual.apply_circuit(&prep_phys);
        actual.apply_circuit(&phys_circuit);
        // Compare: logical amplitudes live at the final layout's hosts.
        let final_map = &compiled.final_layout.logical_to_physical;
        let n_p = compiled.n_qubits;
        let mut overlap = nsb_math::Complex64::ZERO;
        for x in 0..(1usize << n_l) {
            let mut phys_index = 0usize;
            for (l, &host) in final_map.iter().enumerate().take(n_l) {
                if x >> (n_l - 1 - l) & 1 == 1 {
                    phys_index |= 1 << (n_p - 1 - host);
                }
            }
            overlap += expected.amplitudes()[x].conj() * actual.amplitudes()[phys_index];
        }
        min_overlap = min_overlap.min(overlap.abs());
    }
    min_overlap
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_circuit::generators;
    use nsb_device::DeviceConfig;
    use std::sync::OnceLock;

    fn test_device() -> &'static Device {
        static DEVICE: OnceLock<Device> = OnceLock::new();
        DEVICE.get_or_init(|| Device::build(3, 2, DeviceConfig::fast_test()).expect("test device"))
    }

    #[test]
    fn ghz_compiles_and_verifies_on_all_strategies() {
        let device = test_device();
        let logical = generators::ghz(4);
        for strategy in BasisStrategy::ALL {
            let compiled = Transpiler::new(device, strategy)
                .compile(&logical)
                .expect("compile");
            assert!(compiled.fidelity > 0.9, "{strategy}: {}", compiled.fidelity);
            let overlap = verify_compiled(&logical, &compiled);
            assert!(overlap > 0.999, "{strategy}: min overlap {overlap} too low");
        }
    }

    #[test]
    fn a_circuit_wider_than_the_device_is_an_error() {
        let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("4x3 device");
        let err = Transpiler::new(&device, BasisStrategy::Criterion2)
            .compile(&generators::ghz(13))
            .expect_err("13 qubits on 12");
        assert!(
            matches!(
                err,
                CompileError::TooWide {
                    circuit_qubits: 13,
                    device_qubits: 12
                }
            ),
            "{err}"
        );
    }

    /// Malformed gates either fail at the compile boundary or compile to a
    /// program the full verifier passes; none reaches a kernel outside its
    /// domain.
    #[test]
    fn gates_are_checked_at_the_compile_boundary() {
        use nsb_math::Complex64;
        let device = test_device();
        let noisy_cnot = |noise: f64| {
            let mut u = Mat4::cnot();
            u[(0, 1)] += Complex64::real(noise);
            Gate::Unitary2(Box::new(u))
        };
        let one = |gate: Gate| {
            let mut c = Circuit::new(2);
            c.push(gate, &[0, 1]);
            c
        };
        let mut rz_inf = Circuit::new(2);
        rz_inf.push(Gate::Rz(f64::INFINITY), &[0]);
        rz_inf.push(Gate::Cx, &[0, 1]);
        // (input, op index an error must name; `None`: must compile)
        let cases = [
            ("1e-7-noisy cnot", one(noisy_cnot(1e-7)), None),
            ("1e-5-noisy cnot", one(noisy_cnot(1e-5)), Some(0)),
            (
                "zero unitary2",
                one(Gate::Unitary2(Box::new(Mat4::zero()))),
                Some(0),
            ),
            ("rzz(nan)", one(Gate::Rzz(f64::NAN)), Some(0)),
            ("rz(inf) before cx", rz_inf, Some(0)),
        ];
        for strategy in [BasisStrategy::Baseline, BasisStrategy::Criterion2] {
            let transpiler = Transpiler::new(device, strategy).with_verification(VerifyLevel::Full);
            for (what, circuit, invalid_op) in &cases {
                match (transpiler.compile(circuit), invalid_op) {
                    (Ok(compiled), None) => {
                        let overlap = verify_compiled(circuit, &compiled);
                        assert!(overlap > 0.999, "{what}, {strategy}: overlap {overlap}");
                    }
                    (Err(CompileError::InvalidGate { op, deviation }), Some(expected)) => {
                        assert_eq!(op, *expected, "{what}, {strategy}");
                        assert!(
                            deviation.is_nan() || deviation > UNITARY_TOLERANCE,
                            "{what}, {strategy}: deviation {deviation:e}"
                        );
                    }
                    (other, _) => panic!("{what}, {strategy}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn qft_compiles_and_verifies() {
        let device = test_device();
        let logical = generators::qft(4, true);
        for strategy in [BasisStrategy::Baseline, BasisStrategy::Criterion2] {
            let compiled = Transpiler::new(device, strategy)
                .compile(&logical)
                .expect("compile");
            let overlap = verify_compiled(&logical, &compiled);
            assert!(overlap > 0.999, "{strategy}: overlap {overlap}");
        }
    }

    #[test]
    fn criterion_gates_produce_faster_circuits() {
        let device = test_device();
        let logical = generators::qft(5, true);
        let base = Transpiler::new(device, BasisStrategy::Baseline)
            .with_mode(LoweringMode::ViaCnot)
            .compile(&logical)
            .expect("baseline");
        let c1 = Transpiler::new(device, BasisStrategy::Criterion1)
            .compile(&logical)
            .expect("criterion 1");
        assert!(
            c1.schedule.duration < base.schedule.duration,
            "criterion1 {} vs baseline {}",
            c1.schedule.duration,
            base.schedule.duration
        );
        assert!(c1.fidelity > base.fidelity);
    }

    #[test]
    fn direct_mode_agrees_with_via_cnot() {
        let device = test_device();
        let logical = generators::qft(3, false);
        let direct = Transpiler::new(device, BasisStrategy::Criterion2)
            .with_mode(LoweringMode::Direct)
            .compile(&logical)
            .expect("direct");
        let via = Transpiler::new(device, BasisStrategy::Criterion2)
            .compile(&logical)
            .expect("via cnot");
        for c in [&direct, &via] {
            let overlap = verify_compiled(&logical, c);
            assert!(overlap > 0.999, "overlap {overlap}");
        }
        // Direct mode uses fewer or equal entanglers (CPhase needs 2 native
        // gates directly vs 2 CNOTs x layers via expansion).
        assert!(direct.schedule.entangler_count <= via.schedule.entangler_count);
    }

    #[test]
    fn bv_compiles_with_expected_structure() {
        let device = test_device();
        let logical = generators::bv_all_ones(5);
        let compiled = Transpiler::new(device, BasisStrategy::Criterion2)
            .compile(&logical)
            .expect("compile");
        assert!(compiled.schedule.entangler_count >= 4 * 2);
        let overlap = verify_compiled(&logical, &compiled);
        assert!(overlap > 0.999, "overlap {overlap}");
    }

    #[test]
    fn stage_hook_sees_every_stage_in_order() {
        use Stage::{Lower, Route, Schedule, Verify};
        let device = test_device();
        for (level, expected) in [
            (VerifyLevel::Off, vec![Route, Lower, Schedule]),
            (
                VerifyLevel::Full,
                vec![Route, Verify, Lower, Schedule, Verify],
            ),
        ] {
            let mut seen = Vec::new();
            Transpiler::new(device, BasisStrategy::Criterion2)
                .with_verification(level)
                .compile_staged(&generators::ghz(4), |stage, _| seen.push(stage))
                .expect("compile");
            assert_eq!(seen, expected, "{level:?}");
        }
    }

    #[test]
    fn compile_error_variants_display_and_chain() {
        use std::error::Error;
        let route = CompileError::from(RouteError::NoSwapCandidates { qubits: (0, 3) });
        assert!(matches!(route, CompileError::Route(_)));
        assert!(route.to_string().contains("routing stalled"));
        assert!(route.source().is_some());

        let lower = CompileError::from(LowerError::NotCoupled { q0: 1, q1: 2 });
        assert!(matches!(lower, CompileError::Lower(_)));
        assert!(lower.source().is_some());

        let wide = CompileError::TooWide {
            circuit_qubits: 13,
            device_qubits: 12,
        };
        assert!(wide.to_string().contains("13 qubits, the device 12"));
        assert!(wide.source().is_none());

        let invalid = CompileError::InvalidGate {
            op: 3,
            deviation: 2.0,
        };
        assert!(invalid.to_string().contains("op 3 is not unitary"));
        assert!(invalid.source().is_none());

        let verification = CompileError::Verification {
            stage: "lower",
            report: VerifyReport::default(),
        };
        assert!(verification.to_string().contains("after `lower`"));
        assert!(verification.source().is_none());
    }
}
