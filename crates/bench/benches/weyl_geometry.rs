//! Weyl-chamber geometry micro-benchmarks: coordinate extraction,
//! canonicalization and region membership (the inner loops of basis-gate
//! selection and the Monte-Carlo volume estimates).

use criterion::{criterion_group, criterion_main, Criterion};
use nsb_core::prelude::*;
use nsb_weyl::{can_cnot_in_2, can_swap_in_3};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_kak_vector(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let gates: Vec<Mat4> = (0..32).map(|_| nsb_math::haar_u4(&mut rng)).collect();
    let mut k = 0usize;
    c.bench_function("weyl/kak_vector", |b| {
        b.iter(|| {
            k = (k + 1) % gates.len();
            kak_vector(&gates[k])
        })
    });
}

fn bench_canonicalize(c: &mut Criterion) {
    let p = WeylCoord::new(-1.37, 0.84, 0.21);
    c.bench_function("weyl/canonicalize", |b| b.iter(|| p.canonicalize()));
}

fn bench_region_membership(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let points: Vec<WeylCoord> = (0..64)
        .map(|_| nsb_weyl::sample_chamber(&mut rng))
        .collect();
    let mut k = 0usize;
    c.bench_function("weyl/swap3_and_cnot2_membership", |b| {
        b.iter(|| {
            k = (k + 1) % points.len();
            (can_swap_in_3(points[k]), can_cnot_in_2(points[k]))
        })
    });
}

criterion_group!(
    benches,
    bench_kak_vector,
    bench_canonicalize,
    bench_region_membership
);
criterion_main!(benches);
