//! Benchmark circuit generators (paper Section VIII-C): QFT,
//! Bernstein-Vazirani, the Cuccaro ripple-carry adder, the Draper /
//! Ruiz-Perez QFT adder, QAOA on random graphs, and GHZ.

use crate::circuit::Circuit;
use crate::gate::Gate;
use rand::Rng;
use std::f64::consts::PI;

/// Quantum Fourier transform on `n` qubits (qubit 0 = most significant).
///
/// With `do_swaps`, the final qubit-reversal SWAPs are appended, matching
/// Qiskit's default QFT; without them, qubit `i` ends holding the phase
/// `exp(2 pi i B / 2^(n-i))` (the form used by the QFT adder).
pub fn qft(n: usize, do_swaps: bool) -> Circuit {
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.push(Gate::H, &[i]);
        for j in (i + 1)..n {
            let angle = PI / (1u64 << (j - i)) as f64;
            c.push(Gate::CPhase(angle), &[j, i]);
        }
    }
    if do_swaps {
        for i in 0..n / 2 {
            c.push(Gate::Swap, &[i, n - 1 - i]);
        }
    }
    c
}

/// Inverse QFT (no swaps), the adjoint of [`qft`] with `do_swaps = false`.
pub(crate) fn qft_inverse(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for i in (0..n).rev() {
        for j in ((i + 1)..n).rev() {
            let angle = -PI / (1u64 << (j - i)) as f64;
            c.push(Gate::CPhase(angle), &[j, i]);
        }
        c.push(Gate::H, &[i]);
    }
    c
}

/// Bernstein-Vazirani circuit for a hidden bit string `secret` over
/// `secret.len()` data qubits plus one ancilla (the last qubit).
pub fn bernstein_vazirani(secret: &[bool]) -> Circuit {
    let n = secret.len();
    let anc = n;
    let mut c = Circuit::new(n + 1);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    c.push(Gate::X, &[anc]);
    c.push(Gate::H, &[anc]);
    for (q, &bit) in secret.iter().enumerate() {
        if bit {
            c.push(Gate::Cx, &[q, anc]);
        }
    }
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    c
}

/// Bernstein-Vazirani sized like the paper's benchmarks (`bv N` = N total
/// qubits, N-1 data bits): the hidden string is all-ones, the worst case
/// for routing since every data qubit must interact with the ancilla.
pub fn bv_all_ones(total_qubits: usize) -> Circuit {
    assert!(total_qubits >= 2);
    bernstein_vazirani(&vec![true; total_qubits - 1])
}

/// The Cuccaro ripple-carry adder on two `n`-bit registers:
/// `|c0=0, a, b, z=0> -> |0, a, a+b mod 2^n, carry>`.
///
/// Qubit layout: 0 = incoming carry, `1..=n` = a (LSB first),
/// `n+1..=2n` = b (LSB first), `2n+1` = carry out. Total `2n + 2` qubits
/// (`cuccaro 10` in the paper = 4-bit operands).
pub fn cuccaro_adder(n: usize) -> Circuit {
    assert!(n >= 1);
    let mut c = Circuit::new(2 * n + 2);
    let a = |i: usize| 1 + i;
    let b = |i: usize| 1 + n + i;
    let cin = 0usize;
    let cout = 2 * n + 1;
    // MAJ(x, y, z): x = running carry, y = b_i, z = a_i.
    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.push(Gate::Cx, &[z, y]);
        c.push(Gate::Cx, &[z, x]);
        c.ccx(x, y, z);
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.push(Gate::Cx, &[z, x]);
        c.push(Gate::Cx, &[x, y]);
    };
    maj(&mut c, cin, b(0), a(0));
    for i in 1..n {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.push(Gate::Cx, &[a(n - 1), cout]);
    for i in (1..n).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// The Draper / Ruiz-Perez QFT adder: `|a, b> -> |a, a + b mod 2^n>` using
/// phase arithmetic in the Fourier basis. Qubits `0..n` hold `a` (MSB
/// first), `n..2n` hold `b` (MSB first).
pub fn qft_adder(n: usize) -> Circuit {
    let mut c = Circuit::new(2 * n);
    // QFT (no swaps) on the b register.
    let f = qft(n, false).remapped(&(n..2 * n).collect::<Vec<_>>(), 2 * n);
    c.extend(&f);
    // Controlled phases: a bit j (weight 2^(n-1-j)) adds to b qubit i the
    // phase 2 pi 2^(n-1-j) / 2^(n-i).
    for i in 0..n {
        for j in 0..n {
            let exp = (n - 1 - j) as i64 - (n - i) as i64; // power of two
            if exp >= 0 {
                continue; // multiple of 2 pi
            }
            let angle = 2.0 * PI * (2.0f64).powi(exp as i32);
            c.push(Gate::CPhase(angle), &[j, n + i]);
        }
    }
    let inv = qft_inverse(n).remapped(&(n..2 * n).collect::<Vec<_>>(), 2 * n);
    c.extend(&inv);
    c
}

/// QAOA (p = 1) for MaxCut on a seeded Erdos-Renyi graph `G(n, edge_prob)`:
/// the cost layer applies `exp(-i gamma Z Z)` per edge, the mixer
/// `exp(-i beta X)` per qubit (paper Table II: `qaoa <edge_prob> <n>`).
pub fn qaoa_maxcut<R: Rng + ?Sized>(
    n: usize,
    edge_prob: f64,
    gamma: f64,
    beta: f64,
    rng: &mut R,
) -> Circuit {
    let edges = random_graph(n, edge_prob, rng);
    qaoa_from_edges(n, &edges, gamma, beta)
}

/// QAOA (p = 1) over an explicit edge list.
pub fn qaoa_from_edges(n: usize, edges: &[(usize, usize)], gamma: f64, beta: f64) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::H, &[q]);
    }
    for &(i, j) in edges {
        c.push(Gate::Rzz(2.0 * gamma), &[i, j]);
    }
    for q in 0..n {
        c.push(Gate::Rx(2.0 * beta), &[q]);
    }
    c
}

/// Samples an Erdos-Renyi graph `G(n, p)` edge list.
pub(crate) fn random_graph<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < p {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// GHZ state preparation on `n` qubits (used by the quickstart example).
pub fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::H, &[0]);
    for q in 1..n {
        c.push(Gate::Cx, &[q - 1, q]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{circuits_equivalent, StateVector};
    use nsb_math::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qft_matches_dft_matrix() {
        // QFT with swaps: amp[y] = omega^(x*y) / sqrt(N) for input |x>.
        let n = 3;
        let big_n = 1usize << n;
        for x in [0usize, 1, 5] {
            let mut s = StateVector::basis(n, x);
            s.apply_circuit(&qft(n, true));
            for y in 0..big_n {
                let expected = Complex64::cis(2.0 * PI * (x * y) as f64 / big_n as f64)
                    / (big_n as f64).sqrt();
                assert!(
                    s.amplitudes()[y].approx_eq(expected, 1e-9),
                    "x={x} y={y}: {} vs {}",
                    s.amplitudes()[y],
                    expected
                );
            }
        }
    }

    #[test]
    fn qft_inverse_inverts() {
        let n = 4;
        let mut c = qft(n, false);
        c.extend(&qft_inverse(n));
        let empty = Circuit::new(n);
        assert!(circuits_equivalent(&c, &empty, 1e-9));
    }

    #[test]
    fn bv_recovers_secret() {
        let secret = [true, false, true, true];
        let c = bernstein_vazirani(&secret);
        let mut s = StateVector::zero(5);
        s.apply_circuit(&c);
        // Data register must read the secret; the ancilla remains in |->.
        let data_bits: usize = secret
            .iter()
            .enumerate()
            .map(|(i, &b)| (b as usize) << (4 - i))
            .sum();
        let p = s.probability(data_bits) + s.probability(data_bits | 1);
        assert!((p - 1.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn cuccaro_adds_correctly() {
        let n = 3;
        let c = cuccaro_adder(n);
        let nq = 2 * n + 2;
        for (a, b) in [(0usize, 0usize), (1, 1), (3, 5), (7, 7), (4, 3)] {
            // Build the basis index: qubit 0 = cin = 0, a LSB-first at
            // qubits 1..=n, b at n+1..=2n, cout = 0. Qubit q is bit
            // (nq-1-q) of the index.
            let mut index = 0usize;
            for i in 0..n {
                if a >> i & 1 == 1 {
                    index |= 1 << (nq - 1 - (1 + i));
                }
                if b >> i & 1 == 1 {
                    index |= 1 << (nq - 1 - (1 + n + i));
                }
            }
            let mut s = StateVector::basis(nq, index);
            s.apply_circuit(&c);
            let out = s.most_probable();
            // Decode: b' and carry.
            let mut b_out = 0usize;
            for i in 0..n {
                if out >> (nq - 1 - (1 + n + i)) & 1 == 1 {
                    b_out |= 1 << i;
                }
            }
            let carry = out >> (nq - 1 - (2 * n + 1)) & 1;
            let sum = a + b;
            assert_eq!(b_out, sum % (1 << n), "a={a} b={b}");
            assert_eq!(carry, sum >> n & 1, "carry for a={a} b={b}");
            // a register must be restored.
            let mut a_out = 0usize;
            for i in 0..n {
                if out >> (nq - 1 - (1 + i)) & 1 == 1 {
                    a_out |= 1 << i;
                }
            }
            assert_eq!(a_out, a, "a register clobbered");
        }
    }

    #[test]
    fn qft_adder_adds_correctly() {
        let n = 3;
        let c = qft_adder(n);
        for (a, b) in [(0usize, 0usize), (1, 2), (3, 5), (7, 1), (6, 7)] {
            // MSB-first registers: a in qubits 0..n, b in n..2n.
            let index = (a << n) | b;
            let mut s = StateVector::basis(2 * n, index);
            s.apply_circuit(&c);
            let out = s.most_probable();
            let a_out = out >> n;
            let b_out = out & ((1 << n) - 1);
            assert_eq!(a_out, a, "a clobbered for ({a},{b})");
            assert_eq!(b_out, (a + b) % (1 << n), "sum wrong for ({a},{b})");
            assert!(s.probability(out) > 0.999, "diffuse output");
        }
    }

    #[test]
    fn qaoa_structure() {
        let mut rng = StdRng::seed_from_u64(42);
        let c = qaoa_maxcut(10, 0.33, 0.4, 0.3, &mut rng);
        assert_eq!(c.n_qubits(), 10);
        let rzz = c.count_by_name("rzz");
        assert!(rzz > 5 && rzz < 45, "edge count {rzz}");
        assert_eq!(c.count_by_name("h"), 10);
        assert_eq!(c.count_by_name("rx"), 10);
    }

    #[test]
    fn random_graph_is_seed_deterministic() {
        let g1 = random_graph(8, 0.3, &mut StdRng::seed_from_u64(7));
        let g2 = random_graph(8, 0.3, &mut StdRng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    fn ghz_superposition() {
        let c = ghz(4);
        let mut s = StateVector::zero(4);
        s.apply_circuit(&c);
        assert!((s.probability(0b0000) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b1111) - 0.5).abs() < 1e-12);
    }
}
