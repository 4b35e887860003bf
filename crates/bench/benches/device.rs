//! Device bring-up: building the 4x3 `fast_test` device simulates every
//! edge's trajectories, selects its three basis gates and synthesizes each
//! gate's SWAP and CNOT. The Weyl coordinates (`kak_vector`) no longer
//! bound it: computed in closed form, a call costs about 6 µs instead of
//! 85 µs.

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::prelude::*;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group.sample_size(5);
    group.bench_function("build_fast_test_4x3", |b| {
        b.iter(|| Device::build(4, 3, DeviceConfig::fast_test()).expect("bench device"))
    });
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
