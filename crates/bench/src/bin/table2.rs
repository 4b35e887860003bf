//! Regenerates Table II: coherence-limited fidelities of the benchmark
//! circuits (QFT, BV, Cuccaro, QAOA) compiled to the 10x10 device with the
//! three basis-gate strategies.
//!
//! Run with: `cargo run --release -p nsb-bench --bin table2`

use nsb_core::prelude::*;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2022u64);
    eprintln!("building 10x10 case-study device (seed {seed})...");
    let t0 = std::time::Instant::now();
    let device = build_case_study_device(seed).expect("device build");
    eprintln!("device ready in {:.1} s", t0.elapsed().as_secs_f64());

    // Paper Table II for shape comparison.
    let paper: &[(&str, f64, f64, f64)] = &[
        ("qft 10", 0.582, 0.656, 0.708),
        ("qft 20", 0.0133, 0.0603, 0.0994),
        ("bv 9", 0.887, 0.944, 0.953),
        ("bv 19", 0.793, 0.899, 0.910),
        ("bv 29", 0.445, 0.725, 0.743),
        ("bv 39", 0.268, 0.563, 0.597),
        ("bv 49", 0.277, 0.584, 0.624),
        ("bv 59", 0.125, 0.438, 0.474),
        ("bv 69", 0.0915, 0.394, 0.432),
        ("bv 79", 0.00428, 0.113, 0.142),
        ("bv 89", 0.0244, 0.231, 0.263),
        ("bv 99", 0.0006, 0.0626, 0.0797),
        ("cuccaro 10", 0.215, 0.463, 0.526),
        ("cuccaro 20", 0.008, 0.0768, 0.118),
        ("qaoa 0.1 10", 0.972, 0.985, 0.988),
        ("qaoa 0.1 20", 0.844, 0.920, 0.936),
        ("qaoa 0.1 30", 0.144, 0.433, 0.490),
        ("qaoa 0.1 40", 0.0000585, 0.0559, 0.0856),
        ("qaoa 0.33 10", 0.661, 0.810, 0.843),
        ("qaoa 0.33 20", 0.150, 0.422, 0.482),
    ];

    println!("Table II — coherence-limited benchmark fidelities");
    println!("(ours first, paper in brackets)\n");
    println!(
        "{:<14} {:>6} {:>6} | {:>22} {:>22} {:>22}",
        "benchmark", "2Q", "swaps", "Baseline", "Criterion 1", "Criterion 2"
    );
    let mut ordered_ok = 0usize;
    let mut total = 0usize;
    for bench in table2_suite(seed) {
        let t = std::time::Instant::now();
        let row = evaluate_benchmark(&device, &bench).expect("compile");
        let p = paper.iter().find(|(n, ..)| *n == bench.name);
        let fmt = |ours: f64, paper: Option<f64>| match paper {
            Some(p) => format!("{:>8.4} [{:>8.4}]", ours, p),
            None => format!("{:>8.4} [   n/a  ]", ours),
        };
        println!(
            "{:<14} {:>6} {:>6} | {} {} {}",
            row.name,
            row.logical_2q,
            row.results[0].swaps,
            fmt(row.results[0].fidelity, p.map(|x| x.1)),
            fmt(row.results[1].fidelity, p.map(|x| x.2)),
            fmt(row.results[2].fidelity, p.map(|x| x.3)),
        );
        total += 1;
        if row.results[2].fidelity >= row.results[1].fidelity
            && row.results[1].fidelity > row.results[0].fidelity
        {
            ordered_ok += 1;
        }
        eprintln!(
            "  [{} compiled in {:.1} s]",
            row.name,
            t.elapsed().as_secs_f64()
        );
    }
    println!("\nordering check (C2 >= C1 > Baseline): {ordered_ok}/{total} rows");
}
