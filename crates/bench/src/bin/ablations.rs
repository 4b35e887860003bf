//! Ablation studies beyond the paper's headline tables:
//!
//! 1. **Alternative selection criterion** (Section V-E mentions it): the
//!    fastest perfect entangler that also synthesizes SWAP in 3 layers,
//!    compared against Criterion 1 and Criterion 2.
//! 2. **Lowering mode**: routing parametrized gates through the cached
//!    CNOT decomposition (the paper's minimalist choice for the criteria)
//!    versus decomposing each target directly into the basis gate (the
//!    paper's baseline path). Quantifies what the "pre-compute only SWAP
//!    and CNOT" compromise costs.
//! 3. **1Q-merge pass**: local-gate counts with merging on (the default)
//!    versus the unmerged lower bound of `(L+1)` locals per synthesized
//!    gate, showing how much schedule time the merge recovers.
//!
//! Run with: `cargo run --release -p nsb-bench --bin ablations`

use nsb_core::prelude::*;
use nsb_weyl::entangling_power;

fn main() {
    // 1. Selection criteria on one strong-drive trajectory.
    println!("== Selection criteria on one strong-drive trajectory ==");
    let cell = PreparedCell::prepare(&UnitCellParams::default())
        .expect("default cell has a dressed frame");
    let cfg = TrajectoryConfig {
        t_max: 35.0,
        ..TrajectoryConfig::default()
    };
    let traj = cell.trajectory(0.04, &cfg);
    let coords = traj.coords();
    for (name, crit) in [
        ("Criterion 1 (SWAP-in-3)", SelectionCriterion::SwapIn3),
        (
            "Criterion 2 (SWAP-in-3 + CNOT-in-2)",
            SelectionCriterion::SwapIn3CnotIn2,
        ),
        (
            "Alt: PE + SWAP-in-3 (Sec V-E)",
            SelectionCriterion::PerfectEntanglerSwapIn3,
        ),
    ] {
        match first_crossing(&coords, crit, 0.15) {
            Some(i) => {
                let p = &traj.points[i];
                let dec = Decomposer::new(p.gate);
                let swap = dec.decompose(&Mat4::swap()).expect("swap");
                let cnot = dec.decompose(&Mat4::cnot()).expect("cnot");
                println!(
                    "{name:<38} {:>5.1} ns  ep {:.3}  SWAP x{}  CNOT x{}",
                    p.duration,
                    entangling_power(p.coord),
                    swap.layers,
                    cnot.layers
                );
            }
            None => println!("{name:<38} no crossing"),
        }
    }

    // 2 + 3. Lowering-mode and merge statistics on a compiled benchmark.
    println!("\n== Lowering mode (ViaCnot vs Direct), QFT-6 on a 3x2 device ==");
    let device = Device::build(3, 2, DeviceConfig::fast_test()).expect("device");
    let qft = generators::qft(6, true);
    for (label, mode) in [
        ("ViaCnot (cache SWAP+CNOT only)", LoweringMode::ViaCnot),
        ("Direct  (per-target synthesis)", LoweringMode::Direct),
    ] {
        let compiled = Transpiler::new(&device, BasisStrategy::Criterion2)
            .with_mode(mode)
            .compile(&qft)
            .expect("compile");
        let overlap = verify_compiled(&qft, &compiled);
        println!(
            "{label}: {:>4} entanglers, {:>4} locals, {:>8.1} ns, fidelity {:.4}, verified {:.6}",
            compiled.schedule.entangler_count,
            compiled.schedule.local_count,
            compiled.schedule.duration,
            compiled.fidelity,
            overlap
        );
    }
    println!(
        "\n(Direct mode needs fewer entanglers per CPhase — 2 instead of up\n\
         to 4 via the CNOT expansion — at the cost of one numerical\n\
         synthesis per distinct (edge, angle) pair; the paper accepts the\n\
         ViaCnot compromise because only SWAP and CNOT are pre-computed\n\
         each calibration cycle.)"
    );

    // 3. Merge effectiveness.
    println!("\n== 1Q-merge effectiveness (GHZ-6, Criterion 1) ==");
    let ghz = generators::ghz(6);
    let compiled = Transpiler::new(&device, BasisStrategy::Criterion1)
        .compile(&ghz)
        .expect("compile");
    let unmerged_locals: usize = compiled.schedule.entangler_count * 2 + 2;
    println!(
        "locals after merge: {} (naive per-layer emission would be >= {})",
        compiled.schedule.local_count, unmerged_locals
    );
    println!(
        "duration {:.1} ns, fidelity {:.4}",
        compiled.schedule.duration, compiled.fidelity
    );
}
