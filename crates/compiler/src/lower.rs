//! Lowering a routed physical circuit into per-edge native basis gates
//! plus local unitaries (paper Section VII), with 1Q-gate merging.

use nsb_circuit::{Circuit, Gate};
use nsb_device::{BasisStrategy, Device, SelectedBasis};
use nsb_math::{Mat2, Mat4};
use nsb_synth::{mat4_fingerprint, NoCache, SynthCache, SynthesisFailed, Synthesized2Q};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Lowering failure.
#[derive(Clone, Debug)]
pub enum LowerError {
    /// A numerical decomposition did not converge.
    Synthesis(SynthesisFailed),
    /// A two-qubit gate addressed a pair of qubits with no device edge —
    /// the input circuit was not (correctly) routed.
    NotCoupled {
        /// First operand.
        q0: usize,
        /// Second operand.
        q1: usize,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Synthesis(e) => write!(f, "{e}"),
            LowerError::NotCoupled { q0, q1 } => {
                write!(
                    f,
                    "two-qubit gate on uncoupled qubits {q0},{q1} (circuit not routed?)"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LowerError::Synthesis(e) => Some(e),
            LowerError::NotCoupled { .. } => None,
        }
    }
}

impl From<SynthesisFailed> for LowerError {
    fn from(e: SynthesisFailed) -> Self {
        LowerError::Synthesis(e)
    }
}

/// One operation of the lowered (hardware-level) program.
///
/// `Entangler` shares its edge's calibrated gate instead of copying the
/// `Mat4`, so an op stays small however many entanglers a program holds.
#[derive(Clone, Debug)]
pub enum LoweredOp {
    /// A merged local unitary on one qubit.
    Local {
        /// Physical qubit.
        qubit: usize,
        /// The unitary.
        unitary: Mat2,
    },
    /// One application of an edge's native basis gate.
    Entangler {
        /// Physical qubits in the gate's tensor order (low-frequency qubit
        /// first).
        qubits: (usize, usize),
        /// Pulse duration (ns).
        duration: f64,
        /// The gate unitary (for verification and reporting), shared with
        /// the edge calibration.
        gate: Arc<Mat4>,
    },
}

impl LoweredOp {
    /// Qubits the operation touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            LoweredOp::Local { qubit, .. } => vec![*qubit],
            LoweredOp::Entangler { qubits, .. } => vec![qubits.0, qubits.1],
        }
    }
}

/// How parametrized two-qubit gates are converted into basis gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoweringMode {
    /// Expand into CNOTs (plus local rotations) and use the per-edge
    /// cached CNOT decomposition — the paper's minimalist approach for the
    /// nonstandard criteria (only SWAP and CNOT are pre-decomposed).
    ViaCnot,
    /// Numerically decompose each distinct target directly into the basis
    /// gate (the paper's baseline path, standing in for the analytic
    /// sqrt(iSWAP) formulas of Huang et al.).
    Direct,
}

/// The lowering pass.
pub struct Lowerer<'d> {
    device: &'d Device,
    strategy: BasisStrategy,
    mode: LoweringMode,
    cache: Arc<dyn SynthCache>,
    threads: usize,
}

/// A lowered op, or the slot a synthesized target's block fills.
enum Pending {
    Op(LoweredOp),
    Synth { target: usize, g0: usize, g1: usize },
}

/// One pass over a routed circuit: its ops with slots for synthesized
/// blocks, and the distinct targets those slots need, in circuit order.
/// Targets are keyed by edge and the [`mat4_fingerprint`] of the oriented
/// target, the fingerprint the synthesis cache keys them by.
struct Plan<'d> {
    ops: Vec<Pending>,
    targets: Vec<(Mat4, &'d SelectedBasis)>,
    index: HashMap<(usize, u64), usize>,
}

impl<'d> Plan<'d> {
    fn local(&mut self, qubit: usize, unitary: Mat2) {
        self.ops.push(Pending::Op(local(qubit, unitary)));
    }

    fn emit(&mut self, basis: &SelectedBasis, synth: &Synthesized2Q, g0: usize, g1: usize) {
        self.ops.extend(emit(basis, synth, g0, g1).map(Pending::Op));
    }

    /// Adds a slot for the synthesis of `target` on edge `edge_idx`,
    /// planning the target on first sight.
    fn synth(
        &mut self,
        edge_idx: usize,
        target: Mat4,
        basis: &'d SelectedBasis,
        g0: usize,
        g1: usize,
    ) {
        let next = self.targets.len();
        let key = (edge_idx, mat4_fingerprint(&target));
        let target = *self.index.entry(key).or_insert_with(|| {
            self.targets.push((target, basis));
            next
        });
        self.ops.push(Pending::Synth { target, g0, g1 });
    }
}

impl<'d> Lowerer<'d> {
    /// Creates a lowerer for a device and strategy.
    pub fn new(device: &'d Device, strategy: BasisStrategy, mode: LoweringMode) -> Self {
        Lowerer {
            device,
            strategy,
            mode,
            cache: Arc::new(NoCache),
            threads: 1,
        }
    }

    /// Attaches a shared synthesis cache consulted (and filled) for every
    /// distinct target, in place of the default [`NoCache`]. Results served
    /// from the shared cache are bit-identical to fresh decompositions, so
    /// lowering output does not depend on cache state.
    pub fn with_shared_cache(mut self, cache: Arc<dyn SynthCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Synthesizes a circuit's distinct targets on up to `threads` scoped
    /// threads (default 1: inline, in circuit order, stopping at the first
    /// failure). Decompositions are deterministic, so the output is
    /// bit-identical at every width; only when the work happens changes.
    pub fn with_synthesis_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Lowers a routed physical circuit. Two-qubit operations must already
    /// sit on device edges.
    ///
    /// Plans the circuit once, collecting its distinct synthesis targets
    /// in circuit order, synthesizes them (see
    /// [`with_synthesis_threads`](Lowerer::with_synthesis_threads)), then
    /// emits.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError::Synthesis`] when a direct decomposition does
    /// not converge, [`LowerError::NotCoupled`] when a two-qubit gate is
    /// not on a device edge — whichever fails first in circuit order.
    pub fn lower(&self, routed: &Circuit) -> Result<Vec<LoweredOp>, LowerError> {
        let mut plan = Plan {
            ops: Vec::with_capacity(routed.len() * 4),
            targets: Vec::new(),
            index: HashMap::new(),
        };
        // Planning stops at the first uncoupled gate. Every target it
        // planned comes earlier in the circuit, so their synthesis errors
        // take precedence.
        let mut uncoupled = Ok(());
        for op in routed.ops() {
            if op.qubits.len() == 1 {
                plan.local(op.qubits[0], op.gate.mat2());
            } else if let Err(e) = self.lower_2q(&op.gate, op.qubits[0], op.qubits[1], &mut plan) {
                uncoupled = Err(e);
                break;
            }
        }
        let synths = self.synthesize(&plan.targets)?;
        uncoupled?;
        let mut out = Vec::with_capacity(plan.ops.len());
        for pending in plan.ops {
            match pending {
                Pending::Op(op) => out.push(op),
                Pending::Synth { target, g0, g1 } => {
                    out.extend(emit(plan.targets[target].1, &synths[target], g0, g1));
                }
            }
        }
        Ok(merge_locals(out, routed.n_qubits()))
    }

    fn lower_2q(
        &self,
        gate: &Gate,
        q0: usize,
        q1: usize,
        plan: &mut Plan<'d>,
    ) -> Result<(), LowerError> {
        let edge_idx = self
            .device
            .topology()
            .edge_index(q0, q1)
            .ok_or(LowerError::NotCoupled { q0, q1 })?;
        let cal = &self.device.edges()[edge_idx];
        let basis = cal.basis(self.strategy);
        let (g0, g1) = cal.gate_order;
        let aligned = (q0, q1) == (g0, g1);
        match gate {
            Gate::Swap => plan.emit(basis, &basis.swap.circuit, g0, g1),
            Gate::Cx if aligned => plan.emit(basis, &basis.cnot.circuit, g0, g1),
            Gate::Cx => {
                // Reversed CNOT = (H (x) H) CNOT (H (x) H).
                plan.local(g0, Mat2::h());
                plan.local(g1, Mat2::h());
                plan.emit(basis, &basis.cnot.circuit, g0, g1);
                plan.local(g0, Mat2::h());
                plan.local(g1, Mat2::h());
            }
            Gate::Cz if self.mode == LoweringMode::ViaCnot => {
                // CZ = (I (x) H) CX (I (x) H) with q1 as target.
                plan.local(q1, Mat2::h());
                self.lower_2q(&Gate::Cx, q0, q1, plan)?;
                plan.local(q1, Mat2::h());
            }
            Gate::CPhase(lambda) if self.mode == LoweringMode::ViaCnot => {
                plan.local(q0, Mat2::phase(lambda / 2.0));
                self.lower_2q(&Gate::Cx, q0, q1, plan)?;
                plan.local(q1, Mat2::phase(-lambda / 2.0));
                self.lower_2q(&Gate::Cx, q0, q1, plan)?;
                plan.local(q1, Mat2::phase(lambda / 2.0));
            }
            Gate::Rzz(theta) if self.mode == LoweringMode::ViaCnot => {
                self.lower_2q(&Gate::Cx, q0, q1, plan)?;
                plan.local(q1, Mat2::rz(*theta));
                self.lower_2q(&Gate::Cx, q0, q1, plan)?;
            }
            other => {
                // Direct numerical decomposition, once per distinct target.
                let target = if aligned || other.is_symmetric() {
                    other.mat4()
                } else {
                    swap_conjugate(&other.mat4())
                };
                plan.synth(edge_idx, target, basis, g0, g1);
            }
        }
        Ok(())
    }

    /// Synthesizes planned targets, in order, on up to `self.threads`
    /// scoped threads. The error returned is the first failing target's.
    fn synthesize(
        &self,
        targets: &[(Mat4, &SelectedBasis)],
    ) -> Result<Vec<Synthesized2Q>, LowerError> {
        let one = |(target, basis): &(Mat4, &SelectedBasis)| {
            basis
                .decomposer
                .decompose_cached(target, mode_tag(self.mode), self.cache.as_ref())
        };
        let workers = self.threads.min(targets.len());
        if workers <= 1 {
            return Ok(targets.iter().map(one).collect::<Result<_, _>>()?);
        }
        let chunk_len = targets.len().div_ceil(workers);
        let synths = std::thread::scope(|s| {
            let handles: Vec<_> = targets
                .chunks(chunk_len)
                .map(|chunk| s.spawn(move || chunk.iter().map(one).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<_, _>>()
        });
        Ok(synths?)
    }
}

/// The ops of one synthesized block on the gate-ordered pair `(g0, g1)`.
fn emit<'a>(
    basis: &'a SelectedBasis,
    synth: &'a Synthesized2Q,
    g0: usize,
    g1: usize,
) -> impl Iterator<Item = LoweredOp> + 'a {
    synth
        .locals
        .iter()
        .enumerate()
        .flat_map(move |(k, (u, v))| {
            let entangler = (k < synth.layers).then(|| LoweredOp::Entangler {
                qubits: (g0, g1),
                duration: basis.duration,
                gate: Arc::clone(&basis.gate),
            });
            [local(g0, *u), local(g1, *v)].into_iter().chain(entangler)
        })
}

fn local(qubit: usize, unitary: Mat2) -> LoweredOp {
    LoweredOp::Local { qubit, unitary }
}

/// Cache-namespace tag of a lowering mode, used as the `tag` of shared
/// [`nsb_synth::SynthKey`]s so modes never share entries.
pub fn mode_tag(mode: LoweringMode) -> u8 {
    match mode {
        LoweringMode::ViaCnot => 0,
        LoweringMode::Direct => 1,
    }
}

/// Conjugates a two-qubit unitary by SWAP (reverses the tensor order).
pub fn swap_conjugate(m: &Mat4) -> Mat4 {
    Mat4::swap() * *m * Mat4::swap()
}

/// Merges runs of adjacent local gates per qubit and drops locals that are
/// the identity up to a global phase. The result holds no spare capacity:
/// compiled programs are kept around, and merging drops about half the ops.
pub fn merge_locals(ops: Vec<LoweredOp>, n_qubits: usize) -> Vec<LoweredOp> {
    let mut pending: Vec<Option<Mat2>> = vec![None; n_qubits];
    let mut out = Vec::with_capacity(ops.len());
    let flush = |pending: &mut Vec<Option<Mat2>>, q: usize, out: &mut Vec<LoweredOp>| {
        if let Some(u) = pending[q].take() {
            // Drop identity-up-to-phase locals.
            if (2.0 - u.trace().abs()).abs() > 1e-10 {
                out.push(LoweredOp::Local {
                    qubit: q,
                    unitary: u,
                });
            }
        }
    };
    for op in ops {
        match op {
            LoweredOp::Local { qubit, unitary } => {
                pending[qubit] = Some(match pending[qubit] {
                    Some(prev) => unitary * prev,
                    None => unitary,
                });
            }
            LoweredOp::Entangler { qubits, .. } => {
                flush(&mut pending, qubits.0, &mut out);
                flush(&mut pending, qubits.1, &mut out);
                out.push(op);
            }
        }
    }
    for q in 0..n_qubits {
        flush(&mut pending, q, &mut out);
    }
    out.shrink_to_fit();
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nsb_circuit::generators;
    use nsb_device::DeviceConfig;
    use nsb_synth::SynthKey;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn swap_conjugate_of_cnot_is_reversed_cnot() {
        let rev = swap_conjugate(&Mat4::cnot());
        // Reversed CNOT: control = second qubit.
        let mut expected = Mat4::identity();
        expected[(1, 1)] = nsb_math::Complex64::ZERO;
        expected[(3, 3)] = nsb_math::Complex64::ZERO;
        expected[(1, 3)] = nsb_math::Complex64::ONE;
        expected[(3, 1)] = nsb_math::Complex64::ONE;
        assert!(rev.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn merge_collapses_local_runs() {
        let ops = vec![
            LoweredOp::Local {
                qubit: 0,
                unitary: Mat2::h(),
            },
            LoweredOp::Local {
                qubit: 0,
                unitary: Mat2::h(),
            },
            LoweredOp::Local {
                qubit: 1,
                unitary: Mat2::x(),
            },
        ];
        let merged = merge_locals(ops, 2);
        // H * H = identity is dropped entirely; X remains.
        assert_eq!(merged.len(), 1);
        match &merged[0] {
            LoweredOp::Local { qubit, unitary } => {
                assert_eq!(*qubit, 1);
                assert!(unitary.approx_eq(&Mat2::x(), 1e-12));
            }
            _ => panic!("expected local"),
        }
    }

    #[test]
    fn merge_respects_entangler_barriers() {
        let ent = LoweredOp::Entangler {
            qubits: (0, 1),
            duration: 10.0,
            gate: Arc::new(Mat4::cnot()),
        };
        let ops = vec![
            LoweredOp::Local {
                qubit: 0,
                unitary: Mat2::h(),
            },
            ent.clone(),
            LoweredOp::Local {
                qubit: 0,
                unitary: Mat2::h(),
            },
        ];
        let merged = merge_locals(ops, 2);
        // The two H's cannot merge across the entangler.
        assert_eq!(merged.len(), 3);
    }

    /// A [`SynthCache`] that stores nothing and counts
    /// `get_or_compute` calls.
    #[derive(Default)]
    pub(crate) struct CountingCache(AtomicUsize);

    impl CountingCache {
        pub(crate) fn calls(&self) -> usize {
            self.0.load(Ordering::Relaxed)
        }
    }

    impl SynthCache for CountingCache {
        fn lookup(&self, _key: &SynthKey, _target_fp: u64) -> Option<Synthesized2Q> {
            None
        }

        fn store(&self, _key: SynthKey, _target_fp: u64, _value: &Synthesized2Q) {}

        fn get_or_compute(
            &self,
            _key: SynthKey,
            _target_fp: u64,
            compute: &mut dyn FnMut() -> Result<Synthesized2Q, SynthesisFailed>,
        ) -> Result<Synthesized2Q, SynthesisFailed> {
            self.0.fetch_add(1, Ordering::Relaxed);
            compute()
        }
    }

    fn test_device() -> Device {
        Device::build(3, 2, DeviceConfig::fast_test()).expect("test device")
    }

    #[test]
    fn lowering_is_bit_identical_at_every_synthesis_width() {
        let device = test_device();
        let routed = crate::sabre_route(
            &generators::qft(4, true),
            device.topology(),
            &crate::SabreConfig::default(),
        )
        .expect("route");
        let lower = |threads| {
            Lowerer::new(&device, BasisStrategy::Baseline, LoweringMode::Direct)
                .with_synthesis_threads(threads)
                .lower(&routed.circuit)
                .expect("lower")
        };
        let (serial, fanned) = (lower(1), lower(2));
        assert!(
            serial
                .iter()
                .any(|op| matches!(op, LoweredOp::Entangler { .. })),
            "qft 4 lowered without an entangler"
        );
        // Debug output round-trips every f64 bit pattern, so string
        // equality here is bit-identity of the emitted ops.
        assert_eq!(
            format!("{fanned:?}"),
            format!("{serial:?}"),
            "lowering must not depend on the synthesis width"
        );
    }

    #[test]
    fn uncoupled_gate_after_a_synthesized_one_fails_at_every_width() {
        let device = test_device();
        let topology = device.topology();
        let n = topology.n_qubits();
        let uncoupled = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| topology.edge_index(a, b).is_none())
            .expect("a 3x2 grid has an uncoupled pair");
        let coupled = topology.edges()[0];
        let mut routed = Circuit::new(n);
        routed.push(Gate::CPhase(0.3), &[coupled.0, coupled.1]);
        routed.push(Gate::Cx, &[uncoupled.0, uncoupled.1]);
        for threads in [1, 2] {
            let cache = Arc::new(CountingCache::default());
            let result = Lowerer::new(&device, BasisStrategy::Baseline, LoweringMode::Direct)
                .with_shared_cache(cache.clone())
                .with_synthesis_threads(threads)
                .lower(&routed);
            match result {
                Err(LowerError::NotCoupled { q0, q1 }) => assert_eq!((q0, q1), uncoupled),
                other => panic!("width {threads}: expected NotCoupled, got {other:?}"),
            }
            assert_eq!(
                cache.calls(),
                1,
                "width {threads}: the CPhase before the failing op synthesizes"
            );
        }
    }

    #[test]
    fn symmetric_gate_on_both_orientations_is_one_target() {
        let device = test_device();
        let (a, b) = device.topology().edges()[0];
        let mut routed = Circuit::new(device.topology().n_qubits());
        routed.push(Gate::Rzz(0.3), &[a, b]);
        routed.push(Gate::Rzz(0.3), &[b, a]);
        let cache = Arc::new(CountingCache::default());
        Lowerer::new(&device, BasisStrategy::Baseline, LoweringMode::Direct)
            .with_shared_cache(cache.clone())
            .lower(&routed)
            .expect("lower");
        assert_eq!(cache.calls(), 1, "Rzz is the same target either way round");
    }

    #[test]
    fn lowered_programs_hold_no_spare_capacity() {
        // Table II's `qft 10` row on the 12-qubit test device.
        let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("test device");
        let routed = crate::sabre_route(
            &generators::qft(10, true),
            device.topology(),
            &crate::SabreConfig::default(),
        )
        .expect("route");
        let ops = Lowerer::new(&device, BasisStrategy::Criterion2, LoweringMode::ViaCnot)
            .lower(&routed.circuit)
            .expect("lower");
        assert!(ops.len() > 100, "qft 10 lowered to {} ops", ops.len());
        assert_eq!(ops.capacity(), ops.len());
    }

    #[test]
    fn entanglers_share_the_calibrated_gate() {
        let device = Device::build(2, 1, DeviceConfig::fast_test()).expect("test device");
        let routed = crate::sabre_route(
            &generators::qft(2, true),
            device.topology(),
            &crate::SabreConfig::default(),
        )
        .expect("route");
        let ops = Lowerer::new(&device, BasisStrategy::Criterion2, LoweringMode::ViaCnot)
            .lower(&routed.circuit)
            .expect("lower");
        let calibrated = &device.edges()[0].criterion2.gate;
        let mut entanglers = 0;
        for op in &ops {
            if let LoweredOp::Entangler { gate, .. } = op {
                assert!(Arc::ptr_eq(gate, calibrated), "entangler copied its gate");
                entanglers += 1;
            }
        }
        assert!(entanglers > 0, "qft 2 lowered without an entangler");
        // The largest variant is now a local (qubit + Mat2), not a Mat4.
        assert!(std::mem::size_of::<LoweredOp>() <= 80);
    }

    #[test]
    fn lower_error_variants_display_and_chain() {
        use std::error::Error;
        let synth = LowerError::Synthesis(SynthesisFailed {
            best_error: 1e-3,
            max_layers: 5,
        });
        assert!(synth.to_string().contains("synthesis failed"));
        assert!(synth.source().is_some(), "Synthesis wraps its cause");
        let nc = LowerError::NotCoupled { q0: 2, q1: 5 };
        assert!(nc.to_string().contains("2,5"));
        assert!(nc.source().is_none());
    }
}
