//! Regenerates Figure 2: a nonstandard Cartan trajectory from the
//! strong-drive simulation, printing the per-ns Weyl-chamber coordinates
//! and the first perfect entangler (the paper's measured device showed a
//! 13 ns first PE; our simulated equivalent lands in the same regime).
//!
//! Run with: `cargo run --release -p nsb-bench --bin fig2_trajectory`

use nsb_core::prelude::*;
use nsb_weyl::{entangling_power, is_perfect_entangler};

fn main() {
    let xi = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.04f64);
    println!("simulating the case-study unit cell at xi = {xi} Phi_0\n");
    let cell = PreparedCell::prepare(&UnitCellParams::default())
        .expect("default cell has a dressed frame");
    println!(
        "zero-ZZ coupler bias: {:.4} GHz (residual ZZ {:.2e} rad/ns)",
        cell.params.omega_c / (2.0 * std::f64::consts::PI),
        cell.residual_zz
    );
    let cfg = TrajectoryConfig {
        t_max: 40.0,
        ..TrajectoryConfig::default()
    };
    let traj = cell.trajectory(xi, &cfg);
    println!(
        "calibrated drive: {:.4} GHz (difference frequency {:.4} GHz)\n",
        traj.drive.omega_d / (2.0 * std::f64::consts::PI),
        cell.difference_frequency() / (2.0 * std::f64::consts::PI)
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>8} {:>9} {:>4}",
        "t(ns)", "tx", "ty", "tz", "ep", "leakage", "PE"
    );
    for p in &traj.points {
        println!(
            "{:>6.1} {:>10.5} {:>10.5} {:>10.5} {:>8.4} {:>9.2e} {:>4}",
            p.duration,
            p.coord.x,
            p.coord.y,
            p.coord.z,
            entangling_power(p.coord),
            p.leakage,
            if is_perfect_entangler(p.coord, 1e-9) {
                "yes"
            } else {
                ""
            }
        );
    }
    match traj.first_perfect_entangler() {
        Some(p) => println!(
            "\nfirst perfect entangler at {} ns, coord {} (paper's measured device: 13 ns)",
            p.duration, p.coord
        ),
        None => println!("\nno perfect entangler within the window"),
    }
    let coords = traj.coords();
    for (name, crit) in [
        ("Criterion 1 (SWAP in 3)", SelectionCriterion::SwapIn3),
        (
            "Criterion 2 (SWAP in 3 + CNOT in 2)",
            SelectionCriterion::SwapIn3CnotIn2,
        ),
    ] {
        match first_crossing(&coords, crit, 0.15) {
            Some(i) => println!(
                "{name}: selected gate at {} ns, coord {}",
                traj.points[i].duration, traj.points[i].coord
            ),
            None => println!("{name}: no crossing in window"),
        }
    }
}
