//! Pulse-simulation benchmarks on the default three-level unit cell (its
//! 10 states with at most two excitations), the model every case-study
//! edge simulates:
//!
//! * `strong_drive_20ns` — a one-point drive scan plus a 20 ns Cartan
//!   trajectory: the integrator's step loop over the sparse step
//!   operators and the dressed block, one sample per ns.
//! * `zero_zz_bias_search` — `PreparedCell::prepare`: the coupler-bias
//!   scan and bisection (one 10×10 eigendecomposition per trial bias) and
//!   the dressed frame.

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::prelude::*;

fn bench_trajectory(c: &mut Criterion) {
    let cell = PreparedCell::prepare(&UnitCellParams::default())
        .expect("default cell has a dressed frame");
    let mut group = c.benchmark_group("sim/trajectory");
    group.sample_size(10);
    group.bench_function("strong_drive_20ns", |b| {
        let cfg = TrajectoryConfig {
            t_max: 20.0,
            drive_scan_points: 1,
            ..TrajectoryConfig::default()
        };
        b.iter(|| cell.trajectory(0.04, &cfg))
    });
    group.bench_function("zero_zz_bias_search", |b| {
        b.iter(|| {
            PreparedCell::prepare(&UnitCellParams::default())
                .expect("default cell has a dressed frame")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trajectory);
criterion_main!(benches);
