//! Walk through the Section VI calibration protocol for one qubit pair:
//! initial tuneup (coarse tuning, QPT along the trajectory, candidate
//! narrowing via the Weyl-chamber regions, GST refinement) followed by a
//! daily retuning, with the edge-coloring schedule for device-scale
//! parallel calibration.
//!
//! Run with: `cargo run --release --example calibration_cycle`

use nsb_core::device::{initial_tuneup, retune, GridTopology};
use nsb_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    println!("== Initial tuneup (monthly) ==");
    println!("step 1: coarse tuning — zero-ZZ bias + drive frequency scan");
    let cell = PreparedCell::prepare(&UnitCellParams::default())
        .expect("default cell has a dressed frame");
    let config = TrajectoryConfig {
        t_max: 35.0,
        ..TrajectoryConfig::default()
    };
    println!("step 2: QPT along the trajectory (1 ns controller resolution)");
    println!("step 3: narrow candidates with the Section V region geometry");
    println!("step 4: GST the survivors, select the fastest\n");
    let (traj, tuneup) = initial_tuneup(
        &cell,
        0.04,
        SelectionCriterion::SwapIn3CnotIn2,
        0.15,
        2e-3,
        &config,
        &mut rng,
    )
    .expect("tuneup");
    println!(
        "QPT kept {} candidate gates; selected {} ns with refined coordinates {}",
        tuneup.candidates.len(),
        tuneup.duration,
        tuneup.refined_coord
    );
    let true_gate = &traj.points[tuneup.selected_index].gate;
    println!(
        "GST estimate vs true simulated unitary: Frobenius distance {:.2e}",
        (tuneup.refined_gate - *true_gate).norm()
    );

    println!("\n== Retuning (daily) ==");
    let retuned = retune(&traj, &tuneup, &mut rng);
    println!(
        "re-characterized the same {} ns gate; coordinate drift {:.2e}",
        retuned.duration,
        retuned.refined_coord.dist(tuneup.refined_coord)
    );

    println!("\n== Device-scale scheduling ==");
    let grid = GridTopology::new(10, 10);
    let colors = grid.edge_coloring();
    let rounds = colors.iter().max().unwrap() + 1;
    println!(
        "10x10 grid: {} edges calibrated in {} parallel rounds (edge coloring)",
        grid.edges().len(),
        rounds
    );
    println!("=> calibration time does not grow with device size (Section VI)");
}
