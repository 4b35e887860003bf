//! Scheduling of lowered programs and the paper's coherence-limited
//! circuit fidelity: each qubit contributes `exp(-(t_f - t_i)/T)` with
//! `t_i`/`t_f` the start of its first and end of its last gate
//! (Section VIII-C).
//!
//! Gate *end* times come from an as-soon-as-possible pass; per-qubit
//! *start* times from an as-late-as-possible pass (the slack of a qubit's
//! first gate). This mirrors the Qiskit flow the paper uses (ALAP
//! scheduling, measurement immediately after a qubit's last gate): a qubit
//! whose one CNOT happens late in a serial circuit is initialized late and
//! released early instead of idling the whole time.

use crate::lower::LoweredOp;

/// Schedule summary for a lowered program.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Total circuit duration (ns), from the ASAP pass.
    pub duration: f64,
    /// Per-qubit active windows `(t_i, t_f)` — ALAP start of the first
    /// gate, ASAP end of the last gate; `None` for untouched qubits.
    pub(crate) windows: Vec<Option<(f64, f64)>>,
    /// Per-qubit total busy time (sum of gate durations), a lower bound on
    /// the active window.
    pub(crate) busy: Vec<f64>,
    /// Number of entangler applications.
    pub entangler_count: usize,
    /// Number of (merged) local gates.
    pub local_count: usize,
}

impl Schedule {
    /// Active-window length of one qubit: at least its busy time, at most
    /// `t_f - t_i`.
    pub(crate) fn window_length(&self, q: usize) -> f64 {
        match self.windows[q] {
            None => 0.0,
            Some((ti, tf)) => (tf - ti).max(self.busy[q]),
        }
    }

    /// The paper's decoherence-limited circuit fidelity for a uniform
    /// coherence time `t_coh`.
    pub fn coherence_fidelity(&self, t_coh: f64) -> f64 {
        let mut f = 1.0;
        for q in 0..self.windows.len() {
            if self.windows[q].is_some() {
                f *= (-self.window_length(q) / t_coh).exp();
            }
        }
        f
    }

    /// Number of qubits that executed at least one gate.
    #[cfg(test)]
    pub(crate) fn active_qubits(&self) -> usize {
        self.windows.iter().flatten().count()
    }
}

/// Computes the schedule of a lowered program.
///
/// `t_1q` is the duration of every (merged) local gate; entanglers carry
/// their own durations.
pub fn schedule(ops: &[LoweredOp], n_qubits: usize, t_1q: f64) -> Schedule {
    let dur_of = |op: &LoweredOp| match op {
        LoweredOp::Local { .. } => t_1q,
        LoweredOp::Entangler { duration, .. } => *duration,
    };
    // Forward (ASAP) pass: end time of every qubit's last gate.
    let mut avail = vec![0.0f64; n_qubits];
    let mut t_end: Vec<Option<f64>> = vec![None; n_qubits];
    let mut busy = vec![0.0f64; n_qubits];
    let mut entangler_count = 0;
    let mut local_count = 0;
    let mut duration = 0.0f64;
    for op in ops {
        let dur = dur_of(op);
        match op {
            LoweredOp::Local { .. } => local_count += 1,
            LoweredOp::Entangler { .. } => entangler_count += 1,
        }
        let qs = op.qubits();
        let start = qs.iter().map(|&q| avail[q]).fold(0.0f64, f64::max);
        let end = start + dur;
        for &q in &qs {
            avail[q] = end;
            t_end[q] = Some(end);
            busy[q] += dur;
        }
        duration = duration.max(end);
    }
    // Backward (ALAP) pass: the latest time each qubit's FIRST gate can
    // start; iterating in reverse leaves the first gate's value last.
    let mut avail_rev = vec![0.0f64; n_qubits];
    let mut t_start: Vec<Option<f64>> = vec![None; n_qubits];
    for op in ops.iter().rev() {
        let dur = dur_of(op);
        let qs = op.qubits();
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
    Schedule {
        duration,
        windows,
        busy,
        entangler_count,
        local_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::{Mat2, Mat4};

    fn loc(q: usize) -> LoweredOp {
        LoweredOp::Local {
            qubit: q,
            unitary: Mat2::h(),
        }
    }

    fn ent(q0: usize, q1: usize, d: f64) -> LoweredOp {
        LoweredOp::Entangler {
            qubits: (q0, q1),
            duration: d,
            gate: std::sync::Arc::new(Mat4::cnot()),
        }
    }

    #[test]
    fn serial_chain_adds_durations() {
        let ops = vec![loc(0), ent(0, 1, 50.0), loc(1)];
        let s = schedule(&ops, 2, 20.0);
        assert!((s.duration - 90.0).abs() < 1e-12);
        assert_eq!(s.entangler_count, 1);
        assert_eq!(s.local_count, 2);
        // No slack anywhere: qubit 0 runs [0, 70], qubit 1 [20, 90].
        assert_eq!(s.windows[0], Some((0.0, 70.0)));
        assert_eq!(s.windows[1], Some((20.0, 90.0)));
        assert!((s.busy[0] - 70.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_gates_overlap() {
        let ops = vec![loc(0), loc(1), loc(2), loc(3)];
        let s = schedule(&ops, 4, 20.0);
        assert!((s.duration - 20.0).abs() < 1e-12);
        assert_eq!(s.active_qubits(), 4);
    }

    #[test]
    fn fidelity_matches_hand_computation() {
        let ops = vec![ent(0, 1, 100.0)];
        let s = schedule(&ops, 3, 20.0);
        let t = 80_000.0;
        let f = s.coherence_fidelity(t);
        let expected = (-100.0 / t).exp().powi(2);
        assert!((f - expected).abs() < 1e-12);
        assert_eq!(s.active_qubits(), 2);
    }

    #[test]
    fn alap_start_removes_leading_idle_time() {
        // Qubit 1's lone local gate has slack: it can wait until just
        // before the entangler instead of idling from t = 0.
        let ops = vec![loc(1), loc(0), loc(0), loc(0), ent(0, 1, 10.0)];
        let s = schedule(&ops, 2, 20.0);
        let (ti, tf) = s.windows[1].unwrap();
        assert!((ti - 40.0).abs() < 1e-12, "ALAP start {ti}");
        assert!((tf - 70.0).abs() < 1e-12);
        assert!((s.window_length(1) - 30.0).abs() < 1e-12);
        // Qubit 0 has no slack.
        assert_eq!(s.windows[0], Some((0.0, 70.0)));
    }

    #[test]
    fn window_never_shorter_than_busy_time() {
        // A qubit whose only gate is early (ASAP end small) but whose ALAP
        // start is late still pays at least its busy time.
        let ops = vec![loc(1), loc(0), loc(0), ent(0, 2, 10.0)];
        let s = schedule(&ops, 3, 20.0);
        // Qubit 1: single local, ASAP end = 20, ALAP start = 50 - 20 = 30.
        assert!((s.window_length(1) - 20.0).abs() < 1e-12);
    }
}
