//! Quickstart: pick a nonstandard basis gate off a simulated trajectory
//! and synthesize SWAP and CNOT from it.
//!
//! Run with: `cargo run --release --example quickstart`

use nsb_core::prelude::*;
use nsb_core::weyl::entangling_power;

fn main() {
    // 1. Simulate one qubit pair of the case-study architecture: two
    //    far-detuned transmons with a tunable coupler, biased to zero ZZ.
    println!("preparing unit cell (zero-ZZ bias search)...");
    let cell = PreparedCell::prepare(&UnitCellParams::default())
        .expect("default cell has a dressed frame");
    println!(
        "  coupler biased at {:.3} GHz, residual ZZ {:.1e} rad/ns",
        cell.params.omega_c / (2.0 * std::f64::consts::PI),
        cell.residual_zz
    );

    // 2. Drive it hard (xi = 0.04 Phi_0): the Cartan trajectory is ~8x
    //    faster than the standard weak drive, but deviates from the
    //    textbook XY path — it is a *nonstandard* trajectory.
    let config = TrajectoryConfig {
        t_max: 30.0,
        ..TrajectoryConfig::default()
    };
    let traj = cell.trajectory(0.04, &config);

    // 3. Let this qubit pair choose its own basis gate: the fastest gate
    //    on the trajectory able to synthesize SWAP in 3 layers and CNOT
    //    in 2 layers (the paper's Criterion 2).
    let coords = traj.coords();
    let idx = first_crossing(&coords, SelectionCriterion::SwapIn3CnotIn2, 0.15)
        .expect("trajectory crosses the selection region");
    let point = &traj.points[idx];
    println!(
        "\nselected basis gate: {:.1} ns pulse, Weyl coordinates {}",
        point.duration, point.coord
    );
    println!(
        "  entangling power {:.4}, leakage {:.1e}",
        entangling_power(point.coord),
        point.leakage
    );

    // 4. Compile SWAP and CNOT into it — no human ever tuned this gate to
    //    be anything standard.
    let decomposer = Decomposer::new(point.gate);
    let swap = decomposer.decompose(&Mat4::swap()).expect("SWAP synthesis");
    let cnot = decomposer.decompose(&Mat4::cnot()).expect("CNOT synthesis");
    println!(
        "\nSWAP: {} layers, decomposition error {:.1e}",
        swap.layers, swap.error
    );
    println!(
        "CNOT: {} layers, decomposition error {:.1e}",
        cnot.layers, cnot.error
    );

    // 5. Compare against the baseline sqrt(iSWAP) from the slow standard
    //    trajectory (3 layers of an ~8x slower gate).
    let t_1q = 20.0;
    let swap_dur = nsb_core::device::synthesized_duration(swap.layers, point.duration, t_1q);
    println!(
        "\nsynthesized SWAP duration: {:.1} ns (baseline would be ~330 ns)",
        swap_dur
    );
    println!(
        "coherence-limited SWAP fidelity at T = 80 us: {:.5}",
        nsb_core::device::coherence_fidelity_2q(80_000.0, swap_dur)
    );
}
