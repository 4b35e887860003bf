//! Device bring-up: a build simulates every edge's zero-ZZ bias search,
//! drive-frequency scan and Cartan trajectories, selects its three basis
//! gates and synthesizes each gate's SWAP and CNOT.
//!
//! * `build_fast_test_4x3` — 17 edges with two levels per mode, the
//!   device most tests use.
//! * `build_default_3x2` — 7 edges of `DeviceConfig::default()`, the
//!   three-level model and integration settings the 10x10 case study
//!   runs for each of its 180 edges.

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::prelude::*;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group.sample_size(5);
    group.bench_function("build_fast_test_4x3", |b| {
        b.iter(|| Device::build(4, 3, DeviceConfig::fast_test()).expect("bench device"))
    });
    group.bench_function("build_default_3x2", |b| {
        b.iter(|| Device::build(3, 2, DeviceConfig::default()).expect("bench device"))
    });
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
