//! Gate-synthesis micro-benchmarks, including the Section VII ablation:
//! the analytic depth oracle versus NuOp-style incremental layer search.

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::prelude::*;
use nsb_synth::decompose_with_bases;
use nsb_weyl::canonical_gate;

fn bench_depth_oracle_ablation(c: &mut Criterion) {
    // A nonstandard basis gate similar to what Criterion 1 selects.
    let basis = canonical_gate(WeylCoord::new(0.30, 0.26, 0.03));
    let dec = Decomposer::new(basis);
    let mut group = c.benchmark_group("synthesis/swap_into_nonstandard");
    group.sample_size(10);
    group.bench_function("with_depth_oracle", |b| {
        b.iter(|| dec.decompose(&Mat4::swap()).unwrap())
    });
    group.bench_function("nuop_incremental", |b| {
        b.iter(|| dec.decompose_from(&Mat4::swap(), 0).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("synthesis/cnot_into_nonstandard");
    group.sample_size(10);
    group.bench_function("with_depth_oracle", |b| {
        b.iter(|| dec.decompose(&Mat4::cnot()).unwrap())
    });
    group.bench_function("nuop_incremental", |b| {
        b.iter(|| dec.decompose_from(&Mat4::cnot(), 0).unwrap())
    });
    group.finish();
}

fn bench_standard_targets(c: &mut Criterion) {
    let dec = Decomposer::new(Mat4::sqrt_iswap());
    let mut group = c.benchmark_group("synthesis/sqrt_iswap_basis");
    group.sample_size(10);
    group.bench_function("swap_3layer", |b| {
        b.iter(|| dec.decompose(&Mat4::swap()).unwrap())
    });
    group.bench_function("cphase_direct", |b| {
        b.iter(|| dec.decompose(&Mat4::cphase(0.7)).unwrap())
    });
    group.finish();
}

fn bench_near_face_cnot(c: &mut Criterion) {
    // Just inside the CNOT-in-2 face (a Criterion 2 gate of the 4x3 test
    // device): the sweeps crawl there, and the polish finishes the run.
    let dec = Decomposer::new(canonical_gate(WeylCoord::new(0.250247, 0.248563, 0.044147)));
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("cnot_2layer_near_face", |b| {
        b.iter(|| dec.decompose(&Mat4::cnot()).unwrap())
    });
    group.finish();
}

fn bench_failing_layer_count(c: &mut Criterion) {
    // SWAP needs three sqrt(iSWAP) layers, so every restart of this
    // two-layer search fails: it times pure optimizer sweeps, the cost of
    // the layer counts a search tries before the one that works.
    let bases = [Mat4::sqrt_iswap(); 2];
    let config = DecomposerConfig::default();
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("failing_layer_count", |b| {
        b.iter(|| {
            let result = decompose_with_bases(&Mat4::swap(), &bases, &config);
            assert!(result.is_err(), "SWAP from two sqrt(iSWAP) layers");
        })
    });
    group.finish();
}

fn bench_failing_rzz_layer_count(c: &mut Criterion) {
    // Rzz(16 pi / 21) needs four layers of the first `fast_test` edge's
    // Baseline gate. Unlike the search above, no restart of this
    // three-layer search stalls: all 12 run the full 2,000 sweeps, the
    // crawl that dominates cold Rzz synthesis.
    let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("bench device");
    let basis = *device.edges()[0].basis(BasisStrategy::Baseline).gate;
    let target = Mat4::rzz(16.0 * std::f64::consts::PI / 21.0);
    let bases = [basis; 3];
    let config = DecomposerConfig::default();
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("failing_rzz_layer_count", |b| {
        b.iter(|| {
            let result = decompose_with_bases(&target, &bases, &config);
            assert!(
                result.is_err(),
                "Rzz(16 pi / 21) from three Baseline layers"
            );
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_depth_oracle_ablation,
    bench_standard_targets,
    bench_near_face_cnot,
    bench_failing_layer_count,
    bench_failing_rzz_layer_count
);
criterion_main!(benches);
