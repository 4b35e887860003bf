//! The standard battery of static checks.
//!
//! Each check is a unit struct whose `check` re-derives one invariant from
//! first principles — device calibration tables, the Weyl chamber
//! geometry, an independent schedule recomputation, a miter reduction
//! backed by statevector simulation — and reports every place the compiled
//! program breaks it.

use crate::report::{VerifyReport, Violation, ViolationKind};
use crate::target::{ScheduleFacts, VerifyOp, VerifyTarget};
use nsb_circuit::{Circuit, Gate, Operation, StateVector};
use nsb_math::{Complex64, Mat2, Mat4};
use nsb_weyl::{magic_eigenphases, WeylCoord};
use std::collections::HashMap;

/// Element-wise tolerance for unitarity and gate-matrix comparisons.
const UNITARY_TOL: f64 = 1e-6;
/// Tolerance for Cartan-coordinate class comparisons.
const COORD_TOL: f64 = 1e-6;
/// Absolute tolerance (ns) for schedule times and durations.
const SCHEDULE_TOL: f64 = 1e-6;
/// Largest residual the equivalence check will simulate. The check
/// simulates only the qubits touched by two-qubit blocks its miter
/// reduction could not cancel (none for a correct lowering, whatever the
/// register size); a residual on more qubits skips the check (recorded in
/// the report).
const MAX_SIM_QUBITS: usize = 12;

fn violation(
    check: &'static str,
    kind: ViolationKind,
    op_index: Option<usize>,
    qubits: Vec<usize>,
    message: String,
) -> Violation {
    Violation {
        kind,
        check,
        op_index,
        qubits,
        message,
    }
}

/// Check 1: every operation applies a gate that is legal for its wire(s) —
/// locals must be unitary, two-qubit ops must apply exactly the calibrated
/// basis gate of their edge, in the calibrated tensor order, with the
/// calibrated duration.
pub(crate) struct BasisLegality;

impl BasisLegality {
    /// The check's name in reports.
    pub(crate) const NAME: &'static str = "basis-legality";

    /// Records the check in `report.checks_run` and appends every
    /// violation it finds in `target`.
    pub(crate) fn check(target: &VerifyTarget, report: &mut VerifyReport) {
        report.checks_run.push(Self::NAME);
        let topo = target.device.topology();
        for (i, op) in target.ops.iter().enumerate() {
            match op {
                VerifyOp::Local { qubit, unitary } => {
                    if !unitary.is_unitary(UNITARY_TOL) {
                        report.violations.push(violation(
                            Self::NAME,
                            ViolationKind::IllegalBasisGate,
                            Some(i),
                            vec![*qubit],
                            "local gate is not unitary".into(),
                        ));
                    }
                }
                VerifyOp::TwoQubit {
                    qubits,
                    duration,
                    unitary,
                    ..
                } => {
                    let Some(edge) = topo.edge_index(qubits.0, qubits.1) else {
                        // Connectivity check reports uncoupled pairs.
                        continue;
                    };
                    let cal = &target.device.edges()[edge];
                    let basis = cal.basis(target.strategy);
                    if *qubits != cal.gate_order {
                        report.violations.push(violation(
                            Self::NAME,
                            ViolationKind::IllegalBasisGate,
                            Some(i),
                            vec![qubits.0, qubits.1],
                            format!(
                                "operands ({},{}) not in calibrated tensor order ({},{})",
                                qubits.0, qubits.1, cal.gate_order.0, cal.gate_order.1
                            ),
                        ));
                        continue;
                    }
                    if (*duration - basis.duration).abs() > SCHEDULE_TOL {
                        report.violations.push(violation(
                            Self::NAME,
                            ViolationKind::IllegalBasisGate,
                            Some(i),
                            vec![qubits.0, qubits.1],
                            format!(
                                "duration {duration} ns differs from calibrated {} ns",
                                basis.duration
                            ),
                        ));
                    }
                    if !unitary.approx_eq_up_to_phase(&basis.gate, UNITARY_TOL) {
                        report.violations.push(violation(
                            Self::NAME,
                            ViolationKind::IllegalBasisGate,
                            Some(i),
                            vec![qubits.0, qubits.1],
                            format!(
                                "gate is not the calibrated {} basis gate of this edge \
                                 (phase distance {:.3e})",
                                target.strategy,
                                unitary.phase_distance(&basis.gate)
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Check 2: every operation addresses qubits inside the register, and
/// every two-qubit operation — in the ops and in the routed source — acts
/// on a coupled pair of the device topology.
pub(crate) struct ConnectivityLegality;

impl ConnectivityLegality {
    /// The check's name in reports.
    pub(crate) const NAME: &'static str = "connectivity-legality";

    /// Records the check in `report.checks_run` and appends every
    /// violation it finds in `target`.
    pub(crate) fn check(target: &VerifyTarget, report: &mut VerifyReport) {
        report.checks_run.push(Self::NAME);
        let topo = target.device.topology();
        let n = topo.n_qubits();
        for (i, op) in target.ops.iter().enumerate() {
            let qs = op.qubits();
            if let Some(&q) = qs.iter().find(|&&q| q >= n) {
                report.violations.push(violation(
                    Self::NAME,
                    ViolationKind::QubitOutOfRange,
                    Some(i),
                    qs.clone(),
                    format!("qubit {q} outside the {n}-qubit register"),
                ));
                continue;
            }
            if let VerifyOp::TwoQubit { qubits, .. } = op {
                if qubits.0 == qubits.1 || !topo.are_adjacent(qubits.0, qubits.1) {
                    report.violations.push(violation(
                        Self::NAME,
                        ViolationKind::UncoupledPair,
                        Some(i),
                        vec![qubits.0, qubits.1],
                        format!("qubits {},{} are not coupled", qubits.0, qubits.1),
                    ));
                }
            }
        }
        if let Some(source) = target.source {
            for (i, op) in source.ops().iter().enumerate() {
                if op.gate.arity() == 2 {
                    let (a, b) = (op.qubits[0], op.qubits[1]);
                    if a >= n || b >= n || a == b || !topo.are_adjacent(a, b) {
                        report.violations.push(violation(
                            Self::NAME,
                            ViolationKind::UncoupledPair,
                            Some(i),
                            vec![a, b],
                            format!("routed source op {i} acts on uncoupled pair {a},{b}"),
                        ));
                    }
                }
            }
        }
    }
}

/// Check 3: every two-qubit block's Cartan coordinate is canonical and in
/// the calibrated basis gate's local-equivalence class — a block whose
/// class differs from the edge's basis could never have been produced by a
/// legal lowering, and a claimed coordinate outside the Weyl chamber means
/// the producer's bookkeeping is broken.
pub struct WeylCanonicality;

impl WeylCanonicality {
    /// The check's name in reports.
    pub(crate) const NAME: &'static str = "weyl-canonicality";

    /// Records the check in `report.checks_run` and appends every
    /// violation it finds in `target`.
    pub fn check(target: &VerifyTarget, report: &mut VerifyReport) {
        report.checks_run.push(Self::NAME);
        let topo = target.device.topology();
        // A lowered program applies each edge's few calibrated entanglers
        // over and over, so the recomputed class (or why there is none) is
        // memoized on the exact bits of the block for this run.
        let mut classes: HashMap<[u64; 32], Result<WeylCoord, &'static str>> = HashMap::new();
        for (i, op) in target.ops.iter().enumerate() {
            let VerifyOp::TwoQubit {
                qubits,
                unitary,
                coord,
                ..
            } = op
            else {
                continue;
            };
            let class = *classes
                .entry(mat4_bits(unitary))
                .or_insert_with(|| recompute_class(unitary));
            let actual = match class {
                Ok(actual) => actual,
                Err(why) => {
                    report.violations.push(violation(
                        Self::NAME,
                        ViolationKind::NonCanonicalWeyl,
                        Some(i),
                        vec![qubits.0, qubits.1],
                        why.into(),
                    ));
                    continue;
                }
            };
            if let Some(claimed) = coord {
                if !claimed.in_chamber(COORD_TOL) {
                    report.violations.push(violation(
                        Self::NAME,
                        ViolationKind::NonCanonicalWeyl,
                        Some(i),
                        vec![qubits.0, qubits.1],
                        format!("claimed coordinate {claimed} lies outside the Weyl chamber"),
                    ));
                } else if !claimed.class_eq(actual, COORD_TOL) {
                    report.violations.push(violation(
                        Self::NAME,
                        ViolationKind::NonCanonicalWeyl,
                        Some(i),
                        vec![qubits.0, qubits.1],
                        format!("claimed coordinate {claimed} differs from recomputed {actual}"),
                    ));
                }
            }
            if let Some(edge) = topo.edge_index(qubits.0, qubits.1) {
                let basis = target.device.edges()[edge].basis(target.strategy);
                if !actual.class_eq(basis.coord, COORD_TOL) {
                    report.violations.push(violation(
                        Self::NAME,
                        ViolationKind::NonCanonicalWeyl,
                        Some(i),
                        vec![qubits.0, qubits.1],
                        format!(
                            "block class {actual} differs from the edge's calibrated \
                             basis class {}",
                            basis.coord
                        ),
                    ));
                }
            }
        }
    }
}

/// A block's canonical Cartan coordinate, recomputed by the exhaustive
/// eigenvalue-assignment search rather than `kak_vector`'s closed form:
/// the check shares only the eigensolver with the compiler, not the step
/// that turns eigenphases into coordinates.
fn recompute_class(unitary: &Mat4) -> Result<WeylCoord, &'static str> {
    if !unitary.is_unitary(UNITARY_TOL) {
        return Err("two-qubit block is not unitary; no Cartan coordinate exists");
    }
    coords_by_search(&magic_eigenphases(unitary))
        .map(WeylCoord::canonicalize)
        .ok_or("no assignment of the block's eigenphases to Cartan coordinates is consistent")
}

/// Row `j` is `(d_x[j], d_y[j], d_z[j])`, the signs of XX, YY and ZZ on the
/// magic-basis diagonal.
const D: [[f64; 3]; 4] = [
    [1.0, -1.0, 1.0],
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
    [-1.0, 1.0, 1.0],
];
/// Every assignment of the four eigenphases to the rows of `D`.
const PERMS: [[usize; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// `t` reduced into `[-pi, pi]`.
fn wrap(t: f64) -> f64 {
    let pi = std::f64::consts::PI;
    let mut r = t % (2.0 * pi);
    if r > pi {
        r -= 2.0 * pi;
    }
    if r < -pi {
        r += 2.0 * pi;
    }
    r
}

/// The offset vector `n ∈ {-1, 0, 1}⁴` with index `code` in `0..81`, `n[0]`
/// most significant.
fn branch_offsets(code: i32) -> [i32; 4] {
    [code / 27, code / 9 % 3, code / 3 % 3, code % 3].map(|d| d - 1)
}

/// The least-squares coordinate of one assignment (phase `phis[perm[j]]`
/// plus `2 pi ns[j]` on row `j` of `D`) and its largest residual against
/// the original phases mod 2 pi.
fn fit_assignment(phis: &[f64; 4], perm: [usize; 4], ns: [i32; 4]) -> (f64, [f64; 3]) {
    let pi = std::f64::consts::PI;
    let mut phi = [0.0f64; 4];
    for j in 0..4 {
        phi[j] = phis[perm[j]] + 2.0 * pi * ns[j] as f64;
    }
    // Least squares: phi_j = -pi * (t . d_j); columns of D are orthogonal
    // with norm^2 = 4.
    let mut t = [0.0f64; 3];
    for k in 0..3 {
        let mut acc = 0.0;
        for j in 0..4 {
            acc += phi[j] * D[j][k];
        }
        t[k] = -acc / (4.0 * pi);
    }
    let mut res = 0.0f64;
    for j in 0..4 {
        let pred = -pi * (t[0] * D[j][0] + t[1] * D[j][1] + t[2] * D[j][2]);
        res = res.max(wrap(pred - phis[perm[j]]).abs());
    }
    (res, t)
}

/// Solves for coordinates given the four eigenphases of `m = M^T M` (in
/// any order), by searching assignments to the sign patterns of XX, YY and
/// ZZ on the magic-basis diagonal and 2 pi branch offsets, keeping the
/// first assignment whose residuals are smallest. `None` when no
/// assignment's residuals vanish.
///
/// Of the 24 × 81 assignments, only those whose offsets can pass are
/// fitted. `D Dᵀ = 4I − J`, so a fit returns phase `j` as `φ_j − S/4`,
/// where `S = Σφ + 2π Σn`, and all its residuals are `|wrap(S/4)|`. For
/// eigenphases `Σφ ≈ 2π m`, that is near 0 only when `m + Σn ≡ 0 (mod
/// 4)` (21 or 20 of the 81 offset vectors); the other sums leave at least
/// π/4, far above the 1e-7 acceptance, and are skipped. The survivors are
/// fitted in the full enumeration's order, so the result is the same bits.
/// A non-finite sum skips nothing.
fn coords_by_search(phis: &[f64; 4]) -> Option<WeylCoord> {
    let pi = std::f64::consts::PI;
    let sum: f64 = phis.iter().sum();
    // `skip[Σn + 4]`.
    let skip: [bool; 9] =
        std::array::from_fn(|s| wrap((sum + 2.0 * pi * (s as f64 - 4.0)) / 4.0).abs() >= pi / 4.0);
    let mut best: Option<(f64, WeylCoord)> = None;
    for perm in PERMS {
        for ns in (0..81).map(branch_offsets) {
            if skip[(ns.iter().sum::<i32>() + 4) as usize] {
                continue;
            }
            let (res, t) = fit_assignment(phis, perm, ns);
            if res < 1e-7 && best.is_none_or(|(r, _)| res < r) {
                best = Some((res, WeylCoord::new(t[0], t[1], t[2])));
            }
        }
    }
    best.map(|(_, c)| c)
}

/// The exact bit pattern of a block's entries, as a memo key.
fn mat4_bits(m: &Mat4) -> [u64; 32] {
    let mut bits = [0u64; 32];
    for r in 0..4 {
        for c in 0..4 {
            let z = m.at(r, c);
            bits[8 * r + 2 * c] = z.re.to_bits();
            bits[8 * r + 2 * c + 1] = z.im.to_bits();
        }
    }
    bits
}

/// Check 4: the claimed schedule is consistent with an independent
/// ASAP/ALAP recomputation from the operation list, its times are sane
/// (non-negative, ordered, within the total duration), and every qubit's
/// active window fits inside the device's coherence time.
pub struct ScheduleSanity;

impl ScheduleSanity {
    /// Recomputes schedule facts from the op list: forward ASAP pass for
    /// end times, backward ALAP pass for start slack — the same contract
    /// the compiler's scheduler documents, derived independently here.
    pub fn recompute(ops: &[VerifyOp], n_qubits: usize, t_1q: f64) -> ScheduleFacts {
        let mut avail = vec![0.0f64; n_qubits];
        let mut t_end: Vec<Option<f64>> = vec![None; n_qubits];
        let mut busy = vec![0.0f64; n_qubits];
        let mut entangler_count = 0;
        let mut local_count = 0;
        let mut duration = 0.0f64;
        for op in ops {
            let dur = op.duration(t_1q);
            match op {
                VerifyOp::Local { .. } => local_count += 1,
                VerifyOp::TwoQubit { .. } => entangler_count += 1,
            }
            let qs = op.qubits();
            if qs.iter().any(|&q| q >= n_qubits) {
                // Out-of-range ops are reported by the connectivity check;
                // skip them here so indexing stays safe.
                continue;
            }
            let start = qs.iter().map(|&q| avail[q]).fold(0.0f64, f64::max);
            let end = start + dur;
            for &q in &qs {
                avail[q] = end;
                t_end[q] = Some(end);
                busy[q] += dur;
            }
            duration = duration.max(end);
        }
        let mut avail_rev = vec![0.0f64; n_qubits];
        let mut t_start: Vec<Option<f64>> = vec![None; n_qubits];
        for op in ops.iter().rev() {
            let dur = op.duration(t_1q);
            let qs = op.qubits();
            if qs.iter().any(|&q| q >= n_qubits) {
                continue;
            }
            let start_rev = qs.iter().map(|&q| avail_rev[q]).fold(0.0f64, f64::max);
            let end_rev = start_rev + dur;
            for &q in &qs {
                avail_rev[q] = end_rev;
                t_start[q] = Some(duration - end_rev);
            }
        }
        let windows = (0..n_qubits)
            .map(|q| match (t_start[q], t_end[q]) {
                (Some(ti), Some(tf)) => Some((ti, tf)),
                _ => None,
            })
            .collect();
        ScheduleFacts {
            duration,
            windows,
            busy,
            entangler_count,
            local_count,
        }
    }

    /// The check's name in reports.
    pub(crate) const NAME: &'static str = "schedule-sanity";

    /// Records the check in `report.checks_run` and appends every
    /// violation it finds in `target`.
    pub fn check(target: &VerifyTarget, report: &mut VerifyReport) {
        report.checks_run.push(Self::NAME);
        let n = target.device.topology().n_qubits();
        let t_1q = target.device.config().t_1q;
        let tol = SCHEDULE_TOL;
        let recomputed = Self::recompute(&target.ops, n, t_1q);
        let push = |report: &mut VerifyReport, kind, qubits: Vec<usize>, message: String| {
            report
                .violations
                .push(violation(Self::NAME, kind, None, qubits, message));
        };
        // Intrinsic sanity and coherence budget on the effective facts
        // (the claimed schedule when provided, otherwise the recomputation).
        let facts = target.schedule.as_ref().unwrap_or(&recomputed);
        let budget = target.device.config().coherence_time;
        for q in 0..facts.windows.len().min(facts.busy.len()) {
            let busy = facts.busy[q];
            if busy < -tol {
                push(
                    report,
                    ViolationKind::ScheduleInconsistent,
                    vec![q],
                    format!("negative busy time {busy} ns"),
                );
            }
            let Some((ti, tf)) = facts.windows[q] else {
                if busy > tol {
                    push(
                        report,
                        ViolationKind::ScheduleInconsistent,
                        vec![q],
                        format!("busy for {busy} ns but has no active window"),
                    );
                }
                continue;
            };
            // A window pairs an ALAP start with an ASAP end, so `ti > tf`
            // is legal for a qubit with slack (busy time then dominates);
            // both endpoints must still lie inside [0, duration].
            if ti < -tol || tf < -tol || ti > facts.duration + tol || tf > facts.duration + tol {
                push(
                    report,
                    ViolationKind::ScheduleInconsistent,
                    vec![q],
                    format!(
                        "window [{ti}, {tf}] ns extends outside the total \
                         duration {} ns",
                        facts.duration
                    ),
                );
            }
            let window_length = (tf - ti).max(busy);
            if window_length > budget + tol {
                push(
                    report,
                    ViolationKind::CoherenceExceeded,
                    vec![q],
                    format!(
                        "active window {window_length} ns exceeds the coherence \
                         budget {budget} ns"
                    ),
                );
            }
        }
        // Consistency of the claimed schedule against the recomputation.
        let Some(claimed) = &target.schedule else {
            return;
        };
        if claimed.entangler_count != recomputed.entangler_count
            || claimed.local_count != recomputed.local_count
        {
            push(
                report,
                ViolationKind::ScheduleInconsistent,
                Vec::new(),
                format!(
                    "claimed {} entanglers / {} locals, ops contain {} / {}",
                    claimed.entangler_count,
                    claimed.local_count,
                    recomputed.entangler_count,
                    recomputed.local_count
                ),
            );
        }
        if (claimed.duration - recomputed.duration).abs() > tol {
            push(
                report,
                ViolationKind::ScheduleInconsistent,
                Vec::new(),
                format!(
                    "claimed duration {} ns, recomputed {} ns",
                    claimed.duration, recomputed.duration
                ),
            );
        }
        if claimed.windows.len() != n || claimed.busy.len() != n {
            push(
                report,
                ViolationKind::ScheduleInconsistent,
                Vec::new(),
                format!(
                    "claimed schedule has {} windows and {} busy times, device has {n} qubits",
                    claimed.windows.len(),
                    claimed.busy.len()
                ),
            );
            return;
        }
        for q in 0..n {
            if (claimed.busy[q] - recomputed.busy[q]).abs() > tol {
                push(
                    report,
                    ViolationKind::ScheduleInconsistent,
                    vec![q],
                    format!(
                        "claimed busy {} ns, recomputed {} ns",
                        claimed.busy[q], recomputed.busy[q]
                    ),
                );
            }
            match (claimed.windows[q], recomputed.windows[q]) {
                (None, None) => {}
                (Some((ci, cf)), Some((ri, rf))) => {
                    if (ci - ri).abs() > tol || (cf - rf).abs() > tol {
                        push(
                            report,
                            ViolationKind::ScheduleInconsistent,
                            vec![q],
                            format!("claimed window [{ci}, {cf}] ns, recomputed [{ri}, {rf}] ns"),
                        );
                    }
                }
                (c, r) => {
                    push(
                        report,
                        ViolationKind::ScheduleInconsistent,
                        vec![q],
                        format!("claimed window {c:?}, recomputed {r:?}"),
                    );
                }
            }
        }
    }
}

/// Check 5: the operation list is unitarily equivalent to the routed
/// source circuit over a fixed family of product probe states, established
/// by reducing the [`Miter`] of the two and simulating only what does not
/// reduce. Skipped — and recorded as skipped — when no source is attached
/// or that residual spans more than 12 qubits.
pub struct UnitaryEquivalence;

impl UnitaryEquivalence {
    /// A small, fixed family of state-preparation circuits exercising
    /// basis states, superpositions and phases. Every probe is a product
    /// state: the circuits hold single-qubit gates only.
    pub fn probe_circuits(n: usize) -> Vec<Circuit> {
        let mut probes = Vec::new();
        probes.push(Circuit::new(n)); // |0...0>
        let mut ones = Circuit::new(n);
        for q in 0..n {
            ones.push(Gate::X, &[q]);
        }
        probes.push(ones);
        let mut plus = Circuit::new(n);
        for q in 0..n {
            plus.push(Gate::H, &[q]);
            if q % 2 == 0 {
                plus.push(Gate::T, &[q]);
            }
        }
        probes.push(plus);
        let mut mixed = Circuit::new(n);
        for q in 0..n {
            match q % 3 {
                0 => {
                    mixed.push(Gate::H, &[q]);
                }
                1 => {
                    mixed.push(Gate::X, &[q]);
                }
                _ => {
                    mixed.push(Gate::H, &[q]);
                    mixed.push(Gate::S, &[q]);
                }
            }
        }
        probes.push(mixed);
        probes
    }

    /// The check's name in reports.
    pub(crate) const NAME: &'static str = "unitary-equivalence";

    /// Maximum tolerated probe-state infidelity: a program passes when its
    /// minimum probe overlap, less the [`Miter::bound`] on the reduction's
    /// error, is at least `1 - OVERLAP_TOL`. Lowering and verifier both use
    /// the characterized gate, so calibration noise cannot reach the
    /// verdict; what this admits is the synthesis residual plus the bound.
    /// The worst measured `1 - overlap + bound` is 8.09e-5, over the 18
    /// Table II jobs of at most 12 qubits, so the tolerance is loose by
    /// about 120x; ROADMAP item 11 orders it with the other tolerances.
    pub const OVERLAP_TOL: f64 = 1e-2;

    /// Records the check in `report.checks_run` and appends every
    /// violation it finds in `target`.
    pub fn check(target: &VerifyTarget, report: &mut VerifyReport) {
        report.checks_run.push(Self::NAME);
        let Some(source) = target.source else {
            report
                .skipped
                .push((Self::NAME, "no source circuit attached".into()));
            return;
        };
        let n = target.device.topology().n_qubits();
        if source.n_qubits() != n
            || target.ops.iter().any(|op| {
                let qs = op.qubits();
                qs.iter().any(|&q| q >= n) || (qs.len() == 2 && qs[0] == qs[1])
            })
        {
            report.skipped.push((
                Self::NAME,
                "register mismatch or malformed ops (reported by other checks)".into(),
            ));
            return;
        }
        let miter = Miter::new(&target.ops, source);
        let residual = miter.residual_qubits().len();
        if residual > MAX_SIM_QUBITS {
            report.skipped.push((
                Self::NAME,
                format!(
                    "the unreduced residual spans {residual} qubits, beyond the \
                     {}-qubit simulation limit",
                    MAX_SIM_QUBITS
                ),
            ));
            return;
        }
        let min_overlap = miter.min_overlap();
        let floor = 1.0 - Self::OVERLAP_TOL;
        if min_overlap - miter.bound() < floor {
            report.violations.push(violation(
                Self::NAME,
                ViolationKind::UnitaryMismatch,
                None,
                Vec::new(),
                format!(
                    "minimum probe-state overlap {min_overlap:.6} (reduction error \
                     bound {:.1e}) below the {floor:.6} floor",
                    miter.bound()
                ),
            ));
        }
    }
}

/// Frobenius distance within which a two-qubit block counts as a product
/// of two single-qubit gates and is split; every split's actual distance
/// is charged to the bound. A lowered block cancels its source gate only
/// as far as the synthesis converged, and `decompose` accepts up to about
/// 7e-4 Frobenius distance: its 1e-7 average-gate infidelity bound is
/// about ε²/5 for a distance ε. So an accepted synthesis need not split
/// here; ROADMAP item 11 ties the two tolerances together.
const SPLIT_TOL: f64 = 1e-4;

/// The miter `M = S†·C` of a compiled op list `C` against its routed source
/// `S`, reduced to as few two-qubit blocks as possible.
///
/// The probe overlap [`UnitaryEquivalence`] compares, `|<S p|C p>|`, is
/// `|<p|M|p>|`. The reduction feeds the compiled ops, then the source
/// reversed and adjointed, through one fusion pass:
///
/// - a local is held back and folded into the next two-qubit step on its
///   qubit;
/// - a two-qubit step is multiplied into the live block on top of both its
///   qubits' stacks when that is one block (every step since acts on other
///   qubits or was split into locals, so it commutes), SWAP-conjugated when
///   the block lists the pair in the other order; otherwise it opens a new
///   block;
/// - once the source steps start, a block just opened or grown that is a
///   product of two single-qubit gates within 1e-4 (`SPLIT_TOL`) is removed.
///   Its factors, made exactly unitary, become the held-back locals of its
///   qubits, the Frobenius distance of that replacement is added to
///   [`bound`](Self::bound), and the block below it on each qubit's stack
///   is exposed to later merges.
///
/// Compiled steps only fuse. A tiny-angle CPhase lowered exactly is within
/// the tolerance of a product; split early, it would charge its distance
/// from a product twice (once more for the source gate left with nothing
/// to cancel), and an angle near the threshold could split on one side
/// only, leaving the source gate and everything behind it unreduced.
///
/// A correct lowering replaces each source gate by a block locally
/// equivalent to it, so the reversed source cancels the compiled program
/// block by block and no block survives. Every probe is a product state,
/// so each overlap is then a product of single-qubit expectation values.
/// Surviving blocks (a wrong program) are simulated on the qubits they
/// touch. Replacing unitary blocks by unitary ones within Frobenius
/// distance `d` moves every overlap by at most `d`, so the reduced overlap
/// is within `bound` of the exact one when every op is unitary (checked by
/// the suite's `basis-legality` check).
pub struct Miter {
    n: usize,
    /// Surviving blocks `(a, b, unitary)` in an order that respects every
    /// qubit's step order.
    blocks: Vec<(usize, usize, Mat4)>,
    /// The local each qubit ends with, after all its surviving blocks.
    locals: Vec<Mat2>,
    bound: f64,
}

impl Miter {
    /// Reduces the miter of `ops` against `source`. A two-qubit op must
    /// act on two distinct qubits; [`UnitaryEquivalence`] skips programs
    /// with one that does not.
    ///
    /// # Panics
    ///
    /// Panics when an op addresses a qubit outside the source's register.
    pub fn new(ops: &[VerifyOp], source: &Circuit) -> Miter {
        let undo = source.ops().iter().rev().map(|op| Step::from(op).adjoint());
        Self::reduce(source.n_qubits(), ops.iter().map(Step::from), undo)
    }

    fn reduce(
        n: usize,
        compiled: impl IntoIterator<Item = Step>,
        undo: impl IntoIterator<Item = Step>,
    ) -> Miter {
        struct Block {
            pair: (usize, usize),
            unitary: Mat4,
            live: bool,
        }
        let mut pending: Vec<Option<Mat2>> = vec![None; n];
        // Per qubit, the indices of its live blocks, latest on top. A block
        // only opens, grows or splits while on top of both its stacks.
        let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut blocks: Vec<Block> = Vec::new();
        let mut bound = 0.0;
        let steps = compiled.into_iter().map(|step| (step, false));
        for (step, undoing) in steps.chain(undo.into_iter().map(|step| (step, true))) {
            match step {
                Step::Local(q, u) => {
                    pending[q] = Some(pending[q].map_or(u, |p| u * p));
                }
                Step::Block(a, b, mut u) => {
                    if pending[a].is_some() || pending[b].is_some() {
                        let pa = pending[a].take().unwrap_or_else(Mat2::identity);
                        let pb = pending[b].take().unwrap_or_else(Mat2::identity);
                        u = u * Mat4::kron(&pa, &pb);
                    }
                    let i = match (stacks[a].last(), stacks[b].last()) {
                        (Some(&i), Some(&j)) if i == j => {
                            let block = &mut blocks[i];
                            if block.pair.0 != a {
                                u = Mat4::swap() * u * Mat4::swap();
                            }
                            block.unitary = u * block.unitary;
                            i
                        }
                        _ => {
                            stacks[a].push(blocks.len());
                            stacks[b].push(blocks.len());
                            blocks.push(Block {
                                pair: (a, b),
                                unitary: u,
                                live: true,
                            });
                            blocks.len() - 1
                        }
                    };
                    let block = &mut blocks[i];
                    if undoing {
                        if let Some((fa, fb, residual)) = split(&block.unitary) {
                            block.live = false;
                            let (p, q) = block.pair;
                            stacks[p].pop();
                            stacks[q].pop();
                            pending[p] = Some(fa);
                            pending[q] = Some(fb);
                            bound += residual;
                        }
                    }
                }
            }
        }
        Miter {
            n,
            blocks: blocks
                .into_iter()
                .filter(|block| block.live)
                .map(|block| (block.pair.0, block.pair.1, block.unitary))
                .collect(),
            locals: pending
                .into_iter()
                .map(|p| p.unwrap_or_else(Mat2::identity))
                .collect(),
            bound,
        }
    }

    /// Upper bound on how far [`min_overlap`](Self::min_overlap) may lie
    /// from the exact probe overlap: the summed Frobenius residuals of the
    /// blocks split into locals. Zero when nothing split.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The qubits the surviving blocks touch, ascending: the register
    /// [`min_overlap`](Self::min_overlap) has to simulate. Empty when the
    /// miter reduced to locals.
    pub fn residual_qubits(&self) -> Vec<usize> {
        let mut touched = vec![false; self.n];
        for &(a, b, _) in &self.blocks {
            touched[a] = true;
            touched[b] = true;
        }
        (0..self.n).filter(|&q| touched[q]).collect()
    }

    /// Minimum over the [probe states](UnitaryEquivalence::probe_circuits)
    /// of `|<p|M|p>|`: a product of single-qubit expectation values over the
    /// qubits no surviving block touches, times a statevector simulation of
    /// the surviving blocks on the qubits they do.
    ///
    /// # Panics
    ///
    /// Panics when the residual spans more qubits than
    /// [`StateVector`] holds.
    pub fn min_overlap(&self) -> f64 {
        let residual = self.residual_qubits();
        let mut in_residual = vec![false; self.n];
        let mut slot = vec![0; self.n];
        for (k, &q) in residual.iter().enumerate() {
            in_residual[q] = true;
            slot[q] = k;
        }
        let mut program = Circuit::new(self.n);
        for &(a, b, block) in &self.blocks {
            program.push(Gate::Unitary2(Box::new(block)), &[a, b]);
        }
        for &q in &residual {
            program.push(Gate::Unitary1(self.locals[q]), &[q]);
        }
        let program = program.remapped(&slot, residual.len());
        UnitaryEquivalence::probe_circuits(self.n)
            .iter()
            .map(|probe| {
                let mut states = vec![[Complex64::ONE, Complex64::ZERO]; self.n];
                let mut prepare = Circuit::new(self.n);
                for op in probe.ops() {
                    let q = op.qubits[0];
                    if in_residual[q] {
                        prepare.push(op.gate.clone(), &[q]);
                    } else {
                        states[q] = apply(&op.gate.mat2(), states[q]);
                    }
                }
                let mut overlap = 1.0;
                for (q, psi) in states.iter().enumerate() {
                    if !in_residual[q] {
                        let phi = apply(&self.locals[q], *psi);
                        overlap *= (psi[0].conj() * phi[0] + psi[1].conj() * phi[1]).abs();
                    }
                }
                if !residual.is_empty() {
                    let mut expected = StateVector::zero(residual.len());
                    expected.apply_circuit(&prepare.remapped(&slot, residual.len()));
                    let mut actual = expected.clone();
                    actual.apply_circuit(&program);
                    overlap *= expected.overlap(&actual);
                }
                overlap
            })
            .fold(f64::INFINITY, f64::min)
    }
}

fn apply(u: &Mat2, psi: [Complex64; 2]) -> [Complex64; 2] {
    [
        u.at(0, 0) * psi[0] + u.at(0, 1) * psi[1],
        u.at(1, 0) * psi[0] + u.at(1, 1) * psi[1],
    ]
}

/// Splits a block that is a product of two single-qubit gates within
/// [`SPLIT_TOL`] into exactly unitary factors and the Frobenius distance
/// of their product from the block.
fn split(block: &Mat4) -> Option<(Mat2, Mat2, f64)> {
    let (a, b) = block.kron_factor(SPLIT_TOL)?;
    let (a, b) = (a.nearest_unitary(), b.nearest_unitary());
    Some((a, b, (*block - Mat4::kron(&a, &b)).norm()))
}

/// One unitary step of a program, as [`Miter::reduce`] consumes it.
enum Step {
    Local(usize, Mat2),
    Block(usize, usize, Mat4),
}

impl Step {
    fn adjoint(self) -> Step {
        match self {
            Step::Local(q, u) => Step::Local(q, u.adjoint()),
            Step::Block(a, b, u) => Step::Block(a, b, u.adjoint()),
        }
    }
}

impl From<&VerifyOp> for Step {
    fn from(op: &VerifyOp) -> Self {
        match op {
            VerifyOp::Local { qubit, unitary } => Step::Local(*qubit, *unitary),
            VerifyOp::TwoQubit {
                qubits, unitary, ..
            } => Step::Block(qubits.0, qubits.1, *unitary),
        }
    }
}

impl From<&Operation> for Step {
    fn from(op: &Operation) -> Self {
        if let [q] = op.qubits[..] {
            Step::Local(q, op.gate.mat2())
        } else {
            Step::Block(op.qubits[0], op.qubits[1], op.gate.mat4())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::{haar_su2, haar_u4};
    use nsb_weyl::{canonical_gate, kak_vector, sample_chamber};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reduced miter as a circuit: surviving blocks, then every local.
    fn as_circuit(miter: &Miter) -> Circuit {
        let mut c = Circuit::new(miter.n);
        for &(a, b, block) in &miter.blocks {
            c.push(Gate::Unitary2(Box::new(block)), &[a, b]);
        }
        for (q, &local) in miter.locals.iter().enumerate() {
            c.push(Gate::Unitary1(local), &[q]);
        }
        c
    }

    fn two_qubit(qubits: (usize, usize), unitary: Mat4) -> VerifyOp {
        VerifyOp::TwoQubit {
            qubits,
            duration: 0.0,
            unitary,
            coord: None,
        }
    }

    #[test]
    fn fusion_merges_same_pair_blocks_and_defers_trailing_locals() {
        let steps = || {
            vec![
                Step::Local(0, Mat2::h()),
                Step::Block(0, 1, Mat4::cnot()),
                Step::Local(1, Mat2::t()),
                // Same pair, other operand order: SWAP-conjugated merge.
                Step::Block(1, 0, Mat4::cnot()),
                // Touches qubit 1, so the next (0, 1) op opens a new block.
                Step::Block(1, 2, Mat4::cz()),
                Step::Block(0, 1, Mat4::iswap()),
                Step::Local(2, Mat2::s()),
            ]
        };
        let miter = Miter::reduce(3, steps(), []);
        let shape: Vec<_> = miter.blocks.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(shape, [(0, 1), (1, 2), (0, 1)]);
        assert_eq!(miter.bound(), 0.0, "no block is a product");

        let mut reference = Circuit::new(3);
        for step in steps() {
            match step {
                Step::Local(q, u) => reference.push(Gate::Unitary1(u), &[q]),
                Step::Block(a, b, u) => reference.push(Gate::Unitary2(Box::new(u)), &[a, b]),
            };
        }
        let fused = as_circuit(&miter);
        for index in 0..8 {
            let mut expected = StateVector::basis(3, index);
            let mut actual = expected.clone();
            expected.apply_circuit(&reference);
            actual.apply_circuit(&fused);
            assert!(
                expected.fidelity(&actual) > 1.0 - 1e-12,
                "basis state {index}"
            );
        }
    }

    #[test]
    fn a_merge_reaches_past_a_split_block() {
        // C = U(0,1) then V(1,2); the reversed source first cancels V, which
        // splits and exposes U on qubit 1's stack, so U† merges into U.
        let (u, v) = (Mat4::b_gate(), Mat4::iswap() * Mat4::cnot());
        let ops = [two_qubit((0, 1), u), two_qubit((1, 2), v)];
        let mut source = Circuit::new(3);
        source.push(Gate::Unitary2(Box::new(u)), &[0, 1]);
        source.push(Gate::Unitary2(Box::new(v)), &[1, 2]);
        let miter = Miter::new(&ops, &source);
        assert!(miter.residual_qubits().is_empty());
        assert!(miter.bound() < 1e-12, "{}", miter.bound());
        assert!((miter.min_overlap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_new_block_that_is_nearly_local_is_split() {
        // The compiled program drops a tiny CPhase: the reversed source
        // gate opens a block of its own, which splits with its residual
        // charged to the bound.
        let ops = [two_qubit((0, 1), Mat4::cnot())];
        let mut source = Circuit::new(2);
        source.push(Gate::Cx, &[0, 1]);
        source.push(Gate::CPhase(1e-5), &[0, 1]);
        let miter = Miter::new(&ops, &source);
        assert!(miter.residual_qubits().is_empty());
        assert!(
            miter.bound() > 1e-6 && miter.bound() < 1e-5,
            "{}",
            miter.bound()
        );
        let overlap = miter.min_overlap();
        assert!((overlap - 1.0).abs() <= miter.bound(), "{overlap}");
    }

    /// A gate of a random class on a random set of chamber faces (none,
    /// one face, or the edge where two meet), dressed with random locals
    /// and a random global phase.
    fn dressed_face_gate(rng: &mut StdRng) -> Mat4 {
        let mut p = sample_chamber(rng);
        // Each map keeps a chamber point in the chamber and puts it on
        // one face: z = 0, y = z, x = y, x + y = 1.
        let faces: [fn(WeylCoord) -> WeylCoord; 4] = [
            |p| WeylCoord::new(p.x, p.y, 0.0),
            |p| WeylCoord::new(p.x, p.z, p.z),
            |p| WeylCoord::new(p.y, p.y, p.z),
            |p| WeylCoord::new(1.0 - p.y, p.y, p.z),
        ];
        for face in faces {
            if rng.gen::<f64>() < 0.5 {
                p = face(p);
            }
        }
        let l1 = Mat4::kron(&haar_su2(rng), &haar_su2(rng));
        let l2 = Mat4::kron(&haar_su2(rng), &haar_su2(rng));
        let phase = Complex64::cis(std::f64::consts::TAU * rng.gen::<f64>());
        (l1 * canonical_gate(p) * l2).scale(phase)
    }

    #[test]
    fn closed_form_coordinates_match_the_search() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut worst = 0.0f64;
        for k in 0..10_000 {
            let u = if k % 2 == 0 {
                haar_u4(&mut rng)
            } else {
                dressed_face_gate(&mut rng)
            };
            let searched = recompute_class(&u).expect("a unitary has a class");
            worst = worst.max(kak_vector(&u).class_dist(searched));
        }
        assert!(worst <= 1e-12, "worst class distance {worst:e}");
    }

    #[test]
    fn inconsistent_eigenphases_have_no_class() {
        // Phases of an SU(4) gate's `m` sum to a multiple of 2 pi; these
        // do not, so no assignment reproduces them.
        assert!(coords_by_search(&[0.1, 0.2, 0.3, 0.4]).is_none());
        assert!(coords_by_search(&[0.0; 4]).is_some());
    }

    /// The search without pruning: all 24 × 81 assignments in order, the
    /// first smallest residual under 1e-7 winning.
    fn coords_by_full_enumeration(phis: &[f64; 4]) -> Option<WeylCoord> {
        let mut best: Option<(f64, WeylCoord)> = None;
        for perm in PERMS {
            for n0 in -1..=1 {
                for n1 in -1..=1 {
                    for n2 in -1..=1 {
                        for n3 in -1..=1 {
                            let (res, t) = fit_assignment(phis, perm, [n0, n1, n2, n3]);
                            if res < 1e-7 && best.is_none_or(|(r, _)| res < r) {
                                best = Some((res, WeylCoord::new(t[0], t[1], t[2])));
                            }
                        }
                    }
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Eigenphase sets for the search: degenerate, inconsistent and
    /// non-finite ones, then `gates` Haar gates' eigenphases, each once as
    /// is and once with one phase nudged by 1e-9 to 1e-3.
    fn search_cases(gates: usize, seed: u64) -> Vec<[f64; 4]> {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut cases = vec![
            // All equal, two equal pairs, phases at ±pi.
            [0.0; 4],
            [FRAC_PI_2; 4],
            [-FRAC_PI_2; 4],
            [PI; 4],
            [-PI; 4],
            [0.7, 0.7, -0.7, -0.7],
            [PI, PI, 0.0, 0.0],
            [PI, PI, -PI, -PI],
            [PI, -PI, 0.3, -0.3],
            // Sums away from every multiple of 2 pi.
            [0.1, 0.2, 0.3, 0.4],
            [FRAC_PI_4; 4],
            [PI, FRAC_PI_2, 0.0, 0.0],
            [1.0; 4],
            // Not finite.
            [nan, 0.0, 0.0, 0.0],
            [nan; 4],
            [inf, 0.0, 0.0, 0.0],
            [-inf, 0.1, 0.2, 0.3],
            [inf, -inf, 0.0, 0.0],
        ];
        for gate in [
            Mat4::identity(),
            Mat4::cnot(),
            Mat4::swap(),
            Mat4::iswap(),
            Mat4::b_gate(),
        ] {
            cases.push(magic_eigenphases(&gate));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..gates {
            let phis = magic_eigenphases(&haar_u4(&mut rng));
            let mut nudged = phis;
            let size = 10f64.powf(rng.gen_range_f64(-9.0, -3.0));
            nudged[rng.gen::<usize>() % 4] += if rng.gen::<bool>() { size } else { -size };
            cases.extend([phis, nudged]);
        }
        cases
    }

    fn assert_search_matches_full_enumeration(gates: usize, seed: u64) {
        let bits = |c: Option<WeylCoord>| c.map(|c| [c.x, c.y, c.z].map(f64::to_bits));
        for phis in search_cases(gates, seed) {
            let pruned = coords_by_search(&phis);
            let full = coords_by_full_enumeration(&phis);
            assert_eq!(bits(pruned), bits(full), "eigenphases {phis:?}");
        }
    }

    #[test]
    fn pruned_search_matches_the_full_enumeration() {
        assert_search_matches_full_enumeration(2_000, 37);
    }

    /// The same on 100,000 Haar gates; CI runs it in release mode.
    #[test]
    #[ignore = "about 30 s in release mode; CI bench-smoke runs it"]
    fn pruned_search_matches_the_full_enumeration_on_100k_gates() {
        assert_search_matches_full_enumeration(100_000, 3_700);
    }

    /// The identity the pruning rests on: every assignment's residual is
    /// `|wrap(S/4)|` with `S = Σφ + 2π Σn`, whatever the permutation.
    #[test]
    fn every_assignment_residual_is_the_wrapped_quarter_sum() {
        let mut rng = StdRng::seed_from_u64(38);
        let mut worst = 0.0f64;
        for k in 0..200 {
            let phis = if k % 2 == 0 {
                magic_eigenphases(&haar_u4(&mut rng))
            } else {
                [(); 4].map(|_| rng.gen_range_f64(-std::f64::consts::PI, std::f64::consts::PI))
            };
            let sum: f64 = phis.iter().sum();
            for perm in PERMS {
                for ns in (0..81).map(branch_offsets) {
                    let (res, _) = fit_assignment(&phis, perm, ns);
                    let s = sum + std::f64::consts::TAU * f64::from(ns.iter().sum::<i32>());
                    worst = worst.max((res - wrap(s / 4.0).abs()).abs());
                }
            }
        }
        assert!(worst <= 1e-12, "worst residual deviation {worst:e}");
    }
}
