//! SABRE layout and routing (Li, Ding, Xie, ASPLOS 2019), the mapping
//! method the paper uses through Qiskit's transpiler, re-implemented here:
//! front-layer scheduling, lookahead ("extended set") swap scoring with
//! decay factors, and the reverse-traversal initial-layout refinement.

use nsb_circuit::{Circuit, Gate, Operation};
use nsb_device::GridTopology;
use std::fmt;

/// Routing failure: the swap search could not make progress.
#[derive(Clone, Debug)]
pub enum RouteError {
    /// A blocked front gate produced no swap candidates, which can only
    /// happen on a degenerate topology (isolated qubits).
    NoSwapCandidates {
        /// Logical qubits of the first blocked gate.
        qubits: (usize, usize),
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoSwapCandidates { qubits: (a, b) } => write!(
                f,
                "routing stalled: no swap candidates for blocked gate on logical qubits {a},{b}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// A logical-to-physical qubit assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// `logical_to_physical[l]` is the physical qubit hosting logical `l`.
    pub logical_to_physical: Vec<usize>,
}

impl Layout {
    /// Physical host of a logical qubit.
    pub(crate) fn physical(&self, logical: usize) -> usize {
        self.logical_to_physical[logical]
    }

    /// Applies a SWAP between two *physical* qubits.
    fn swap_physical(&mut self, p1: usize, p2: usize) {
        for p in &mut self.logical_to_physical {
            if *p == p1 {
                *p = p2;
            } else if *p == p2 {
                *p = p1;
            }
        }
    }
}

/// Routing output: the circuit rewritten on physical qubits with SWAPs
/// inserted, plus the initial and final layouts.
#[derive(Clone, Debug)]
pub struct RoutedCircuit {
    /// Physical-qubit circuit (includes inserted `Gate::Swap`s).
    pub circuit: Circuit,
    /// Layout before the first gate.
    pub initial_layout: Layout,
    /// Layout after the last gate.
    pub final_layout: Layout,
    /// Number of SWAPs inserted by routing.
    pub swaps_inserted: usize,
}

/// SABRE tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct SabreConfig {
    /// Extended-set (lookahead) size.
    pub(crate) extended_set_size: usize,
    /// Weight of the extended-set term in the swap score.
    pub(crate) extended_set_weight: f64,
    /// Decay increment per swap touching a qubit.
    pub(crate) decay_increment: f64,
    /// Rounds between decay resets.
    pub(crate) decay_reset_interval: usize,
    /// Layout refinement iterations (forward/backward passes).
    pub(crate) layout_iterations: usize,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            extended_set_size: 20,
            extended_set_weight: 0.5,
            decay_increment: 0.001,
            decay_reset_interval: 5,
            layout_iterations: 2,
        }
    }
}

/// Runs SABRE: refines an initial layout by forward/backward traversal,
/// then routes the circuit, which must fit the topology
/// ([`Transpiler::compile`](crate::Transpiler::compile) rejects a wider
/// one with [`CompileError::TooWide`](crate::CompileError::TooWide)).
///
/// # Errors
///
/// Returns [`RouteError`] when the swap search stalls, which cannot
/// happen on a connected grid topology.
pub fn sabre_route(
    circuit: &Circuit,
    topology: &GridTopology,
    config: &SabreConfig,
) -> Result<RoutedCircuit, RouteError> {
    let dist = topology.distances();
    // Layout refinement by reverse traversal.
    let mut layout = compact_initial_layout(circuit.n_qubits(), topology);
    let reversed = reversed_circuit(circuit);
    for _ in 0..config.layout_iterations {
        let fwd = route_once(circuit, topology, &dist, layout.clone(), config)?;
        let bwd = route_once(&reversed, topology, &dist, fwd.final_layout, config)?;
        layout = bwd.final_layout;
    }
    route_once(circuit, topology, &dist, layout, config)
}

/// A compact starting layout: fills the grid row-wise from the center
/// outward so logical qubits start clustered.
fn compact_initial_layout(n_logical: usize, topology: &GridTopology) -> Layout {
    let n = topology.n_qubits();
    let (cx, cy) = (
        (topology.width() as f64 - 1.0) / 2.0,
        (topology.height() as f64 - 1.0) / 2.0,
    );
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (ra, ca) = topology.position(a);
        let (rb, cb) = topology.position(b);
        let da = (ra as f64 - cy).abs() + (ca as f64 - cx).abs();
        let db = (rb as f64 - cy).abs() + (cb as f64 - cx).abs();
        da.total_cmp(&db).then(a.cmp(&b))
    });
    Layout {
        logical_to_physical: order.into_iter().take(n_logical).collect(),
    }
}

fn reversed_circuit(c: &Circuit) -> Circuit {
    let mut r = Circuit::new(c.n_qubits());
    for op in c.ops().iter().rev() {
        r.push(op.gate.clone(), &op.qubits);
    }
    r
}

fn route_once(
    circuit: &Circuit,
    topology: &GridTopology,
    dist: &[Vec<usize>],
    mut layout: Layout,
    config: &SabreConfig,
) -> Result<RoutedCircuit, RouteError> {
    let initial_layout = layout.clone();
    let ops = circuit.ops();
    let n_ops = ops.len();
    // Dependency DAG: per-op predecessor count and successors via qubits.
    let mut pred_count = vec![0usize; n_ops];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
    let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
    for (i, op) in ops.iter().enumerate() {
        for &q in &op.qubits {
            if let Some(prev) = last_on_qubit[q] {
                successors[prev].push(i);
                pred_count[i] += 1;
            }
            last_on_qubit[q] = Some(i);
        }
    }
    let mut front: Vec<usize> = (0..n_ops).filter(|&i| pred_count[i] == 0).collect();
    let mut out = Circuit::new(topology.n_qubits());
    let mut swaps_inserted = 0usize;
    let mut decay = vec![1.0f64; topology.n_qubits()];
    let mut rounds_since_reset = 0usize;
    let mut done = vec![false; n_ops];
    while !front.is_empty() {
        // Execute every currently executable front gate.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut next_front = Vec::with_capacity(front.len());
            for &i in &front {
                let op = &ops[i];
                let executable = match op.qubits.len() {
                    1 => true,
                    _ => {
                        let p0 = layout.physical(op.qubits[0]);
                        let p1 = layout.physical(op.qubits[1]);
                        topology.are_adjacent(p0, p1)
                    }
                };
                if executable {
                    let phys: Vec<usize> = op.qubits.iter().map(|&q| layout.physical(q)).collect();
                    out.push(op.gate.clone(), &phys);
                    done[i] = true;
                    for &s in &successors[i] {
                        pred_count[s] -= 1;
                        if pred_count[s] == 0 {
                            next_front.push(s);
                        }
                    }
                    progressed = true;
                } else {
                    next_front.push(i);
                }
            }
            front = next_front;
        }
        if front.is_empty() {
            break;
        }
        // All front gates are blocked two-qubit gates: choose a SWAP.
        let extended = extended_set(&front, ops, &successors, &pred_count, config);
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &i in &front {
            for &q in &ops[i].qubits {
                let p = layout.physical(q);
                for nb in topology.neighbors(p) {
                    let pair = (p.min(nb), p.max(nb));
                    if !candidates.contains(&pair) {
                        candidates.push(pair);
                    }
                }
            }
        }
        let mut best: Option<((usize, usize), f64)> = None;
        for &(p1, p2) in &candidates {
            let mut trial = layout.clone();
            trial.swap_physical(p1, p2);
            let mut score = 0.0;
            for &i in &front {
                let a = trial.physical(ops[i].qubits[0]);
                let b = trial.physical(ops[i].qubits[1]);
                score += dist[a][b] as f64;
            }
            if !extended.is_empty() {
                let mut ext = 0.0;
                for &i in &extended {
                    let a = trial.physical(ops[i].qubits[0]);
                    let b = trial.physical(ops[i].qubits[1]);
                    ext += dist[a][b] as f64;
                }
                score += config.extended_set_weight * ext / extended.len() as f64;
            }
            score *= decay[p1].max(decay[p2]);
            let better = match &best {
                None => true,
                Some((_, s)) => score < *s - 1e-12,
            };
            if better {
                best = Some(((p1, p2), score));
            }
        }
        let Some(((p1, p2), _)) = best else {
            let op = &ops[front[0]];
            return Err(RouteError::NoSwapCandidates {
                qubits: (op.qubits[0], op.qubits[1]),
            });
        };
        out.push(Gate::Swap, &[p1, p2]);
        layout.swap_physical(p1, p2);
        swaps_inserted += 1;
        decay[p1] += config.decay_increment;
        decay[p2] += config.decay_increment;
        rounds_since_reset += 1;
        if rounds_since_reset >= config.decay_reset_interval {
            decay.iter_mut().for_each(|d| *d = 1.0);
            rounds_since_reset = 0;
        }
    }
    debug_assert!(done.iter().all(|&d| d), "routing dropped gates");
    Ok(RoutedCircuit {
        circuit: out,
        initial_layout,
        final_layout: layout,
        swaps_inserted,
    })
}

/// The lookahead set: the next two-qubit gates reachable from the front
/// layer in dependency order.
fn extended_set(
    front: &[usize],
    ops: &[Operation],
    successors: &[Vec<usize>],
    pred_count: &[usize],
    config: &SabreConfig,
) -> Vec<usize> {
    let mut ext = Vec::new();
    let mut queue: Vec<usize> = front.to_vec();
    let mut virtual_pred: Vec<isize> = pred_count.iter().map(|&c| c as isize).collect();
    let mut seen = vec![false; ops.len()];
    while let Some(i) = queue.pop() {
        for &s in &successors[i] {
            virtual_pred[s] -= 1;
            if virtual_pred[s] <= 0 && !seen[s] {
                seen[s] = true;
                if ops[s].qubits.len() == 2 {
                    ext.push(s);
                    if ext.len() >= config.extended_set_size {
                        return ext;
                    }
                }
                queue.push(s);
            }
        }
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_circuit::generators;

    fn routed_respects_topology(r: &RoutedCircuit, topo: &GridTopology) {
        for op in r.circuit.ops() {
            if op.qubits.len() == 2 {
                assert!(
                    topo.are_adjacent(op.qubits[0], op.qubits[1]),
                    "gate {op} not on an edge"
                );
            }
        }
    }

    #[test]
    fn adjacent_circuit_needs_no_swaps() {
        let topo = GridTopology::new(3, 1);
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        let r = sabre_route(&c, &topo, &SabreConfig::default()).expect("route");
        assert_eq!(r.swaps_inserted, 0);
        routed_respects_topology(&r, &topo);
    }

    #[test]
    fn cycle_interaction_on_line_needs_swaps() {
        // A 5-cycle of interactions cannot embed in a 5-qubit line, so at
        // least one SWAP is required no matter how good the layout is.
        let topo = GridTopology::new(5, 1);
        let mut c = Circuit::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
            c.push(Gate::Cx, &[a, b]);
        }
        let r = sabre_route(&c, &topo, &SabreConfig::default()).expect("route");
        routed_respects_topology(&r, &topo);
        assert!(r.swaps_inserted >= 1, "C5 on a line requires swaps");
    }

    #[test]
    fn single_distant_gate_is_layout_solvable() {
        // SABRE's reverse-traversal layout places the two qubits of the
        // only gate adjacently, needing zero swaps.
        let topo = GridTopology::new(5, 1);
        let mut c = Circuit::new(5);
        c.push(Gate::Cx, &[0, 4]);
        let r = sabre_route(&c, &topo, &SabreConfig::default()).expect("route");
        routed_respects_topology(&r, &topo);
        assert_eq!(r.swaps_inserted, 0);
    }

    #[test]
    fn qft_routes_on_grid() {
        let topo = GridTopology::new(4, 4);
        let c = generators::qft(10, true);
        let r = sabre_route(&c, &topo, &SabreConfig::default()).expect("route");
        routed_respects_topology(&r, &topo);
        // All original two-qubit gates present plus swaps.
        let original_2q = c.two_qubit_count();
        assert_eq!(r.circuit.two_qubit_count(), original_2q + r.swaps_inserted);
    }

    #[test]
    fn bv_routes_with_bounded_overhead() {
        let topo = GridTopology::new(5, 5);
        let c = generators::bv_all_ones(20);
        let r = sabre_route(&c, &topo, &SabreConfig::default()).expect("route");
        routed_respects_topology(&r, &topo);
        // 19 CX through one ancilla on a 5x5 grid: swap count stays modest.
        assert!(
            r.swaps_inserted <= 3 * c.two_qubit_count(),
            "{} swaps for {} gates",
            r.swaps_inserted,
            c.two_qubit_count()
        );
    }

    #[test]
    fn layout_is_injective() {
        let topo = GridTopology::new(4, 4);
        let c = generators::qft(12, false);
        let r = sabre_route(&c, &topo, &SabreConfig::default()).expect("route");
        let mut seen = vec![false; topo.n_qubits()];
        for &p in &r.initial_layout.logical_to_physical {
            assert!(!seen[p], "duplicate physical qubit {p}");
            seen[p] = true;
        }
    }

    #[test]
    fn route_error_names_the_blocked_gate() {
        let e = RouteError::NoSwapCandidates { qubits: (4, 7) };
        assert!(e.to_string().contains("4,7"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
