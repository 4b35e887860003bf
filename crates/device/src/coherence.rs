//! Coherence-limited gate fidelities: a re-implementation of the closed
//! forms behind Qiskit Ignis' `coherence_limit` (the function the paper
//! uses for Table I).

/// Average-gate-infidelity coherence limit for a two-qubit gate, given the
/// per-qubit `t1` and `t2` lists. For `t1 = t2 = T` this expands to
/// `1.2 * gate_len / T` at small `gate_len`.
pub fn coherence_limit_2q(t1: [f64; 2], t2: [f64; 2], gate_len: f64) -> f64 {
    let mut t1f = 0.0;
    let mut t2f = 0.0;
    for i in 0..2 {
        t1f += (1.0 / 15.0) * (-gate_len / t1[i]).exp();
        t2f += (2.0 / 15.0)
            * ((-gate_len / t2[i]).exp() + (-gate_len * (1.0 / t2[i] + 1.0 / t1[1 - i])).exp());
    }
    t1f += (1.0 / 15.0) * (-gate_len * (1.0 / t1[0] + 1.0 / t1[1])).exp();
    t2f += (4.0 / 15.0) * (-gate_len * (1.0 / t2[0] + 1.0 / t2[1])).exp();
    0.75 * (1.0 - t1f - t2f)
}

/// Convenience: two-qubit coherence-limited *fidelity* with a single
/// coherence time `T` for all qubits and channels, the noise model of the
/// paper's case study (`T = 80 us`).
pub fn coherence_fidelity_2q(t: f64, gate_len: f64) -> f64 {
    1.0 - coherence_limit_2q([t, t], [t, t], gate_len)
}

/// Duration of a gate synthesized as `layers` entangling layers of duration
/// `t_2q` interleaved with `layers + 1` local layers of duration `t_1q`
/// (this reproduces Table I's arithmetic, e.g. 3 x 83.04 + 4 x 20 =
/// 329.1 ns for the baseline SWAP).
pub fn synthesized_duration(layers: usize, t_2q: f64, t_1q: f64) -> f64 {
    layers as f64 * t_2q + (layers + 1) as f64 * t_1q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_vanish_at_zero_duration() {
        assert!(coherence_limit_2q([80e3; 2], [80e3; 2], 0.0).abs() < 1e-15);
    }

    #[test]
    fn small_time_expansion_2q_is_1p2_t_over_big_t() {
        let t = 80_000.0;
        let dt = 10.0;
        let err = coherence_limit_2q([t; 2], [t; 2], dt);
        let expected = 1.2 * dt / t;
        assert!(
            (err / expected - 1.0).abs() < 1e-3,
            "err {err:.3e} vs 1.2 t/T {expected:.3e}"
        );
    }

    #[test]
    fn monotone_in_duration() {
        let t = 80_000.0;
        let mut prev = 0.0;
        for k in 1..20 {
            let e = coherence_limit_2q([t; 2], [t; 2], k as f64 * 25.0);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn table1_duration_arithmetic() {
        // Baseline SWAP: 3 layers of 83.04 ns + 4 local layers of 20 ns.
        assert!((synthesized_duration(3, 83.04, 20.0) - 329.12).abs() < 1e-9);
        // Criterion-2 CNOT: 2 x 10.76 + 3 x 20 = 81.52 ns.
        assert!((synthesized_duration(2, 10.76, 20.0) - 81.52).abs() < 1e-9);
    }
}
