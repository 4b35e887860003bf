//! Regenerates Figure 5: Cartan trajectories at two drive amplitudes
//! (xi = 0.005 and 0.01 Phi_0). The paper's measured trajectories doubled
//! in speed when the amplitude doubled while staying qualitatively
//! similar; the same holds for the simulated trajectories.
//!
//! Run with: `cargo run --release -p nsb-bench --bin fig5_stability`

use nsb_core::prelude::*;
use nsb_sim::trajectory_speed;

fn main() {
    let cell = PreparedCell::prepare(&UnitCellParams::default())
        .expect("default cell has a dressed frame");
    let mut speeds = Vec::new();
    for (xi, t_max) in [(0.005f64, 120.0f64), (0.01, 60.0)] {
        let cfg = TrajectoryConfig {
            t_max,
            ..TrajectoryConfig::default()
        };
        let traj = cell.trajectory(xi, &cfg);
        println!(
            "xi = {xi} Phi_0 (delta = {:.2} MHz):",
            1e3 * traj.drive.delta / (2.0 * std::f64::consts::PI)
        );
        println!("{:>7} {:>10} {:>10} {:>10}", "t(ns)", "tx", "ty", "tz");
        for p in traj.points.iter().step_by((t_max as usize) / 12) {
            println!(
                "{:>7.1} {:>10.5} {:>10.5} {:>10.5}",
                p.duration, p.coord.x, p.coord.y, p.coord.z
            );
        }
        let v = trajectory_speed(&traj, traj.points.len());
        println!("mean Weyl-space speed: {v:.5} /ns\n");
        speeds.push((xi, v, traj));
    }
    let ratio = speeds[1].1 / speeds[0].1;
    println!("speed ratio (xi doubled): {ratio:.2}x   [paper: ~2x]");
    // Shape similarity: compare coordinates at matched fractional times.
    let (a, b) = (&speeds[0].2, &speeds[1].2);
    let mut shape_dist: f64 = 0.0;
    let mut count = 0;
    for k in 1..=10 {
        let ia = (a.points.len() * k / 10).min(a.points.len() - 1);
        let ib = (b.points.len() * k / 10).min(b.points.len() - 1);
        shape_dist += a.points[ia].coord.class_dist(b.points[ib].coord);
        count += 1;
    }
    shape_dist /= count as f64;
    println!("mean shape distance at matched fractional time: {shape_dist:.4}");
    println!("(small distance = trajectories are rescaled copies, as in Fig. 5)");
}
