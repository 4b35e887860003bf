//! Regenerates Figure 4 and the Section V volume numbers: Monte-Carlo
//! volume fractions of the perfect-entangler polyhedron (50%), S_SWAP,3
//! (68.5%) and S_CNOT,2 (75%), the mirror-segment structure of Appendix B,
//! and a cross-validation of the region geometry against the numerical
//! synthesis oracle.
//!
//! Run with: `cargo run --release -p nsb-bench --bin fig4_regions`

use nsb_core::prelude::*;
use nsb_synth::{numerical_can_cnot_in_2, numerical_can_swap_in_3};
use nsb_weyl::{
    can_swap_in_2_pair, cnot2_complement, is_perfect_entangler, sample_chamber, swap3_complement,
    volume_fraction,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let samples = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000u32);
    let mut rng = StdRng::seed_from_u64(0xf19u64);

    println!("== Exact tetrahedron volumes (Figure 4 d/e) ==");
    let chamber = nsb_weyl::chamber_volume();
    let s3: f64 = swap3_complement().iter().map(|t| t.tet.volume()).sum();
    let c2: f64 = cnot2_complement().iter().map(|t| t.tet.volume()).sum();
    println!("chamber volume: {chamber:.6} (= 1/24)");
    println!(
        "S_SWAP,3 complement: {:.4} of chamber  =>  S_SWAP,3 = {:.1}%   [paper: 68.5%]",
        s3 / chamber,
        100.0 * (1.0 - s3 / chamber)
    );
    println!(
        "S_CNOT,2 complement: {:.4} of chamber  =>  S_CNOT,2 = {:.1}%   [paper: 75%]",
        c2 / chamber,
        100.0 * (1.0 - c2 / chamber)
    );

    println!("\n== Monte-Carlo membership fractions ({samples} samples) ==");
    let pe = volume_fraction(|p| is_perfect_entangler(p, 0.0), samples, &mut rng);
    println!("perfect entanglers: {:.2}%   [50%]", 100.0 * pe);
    let s3 = volume_fraction(can_swap_in_3, samples, &mut rng);
    println!("SWAP in 3 layers:   {:.2}%   [68.5%]", 100.0 * s3);
    let c2 = volume_fraction(can_cnot_in_2, samples, &mut rng);
    println!("CNOT in 2 layers:   {:.2}%   [75%]", 100.0 * c2);
    let both = volume_fraction(|p| can_swap_in_3(p) && can_cnot_in_2(p), samples, &mut rng);
    println!("both (Fig. 4f):     {:.2}%", 100.0 * both);

    println!("\n== Appendix B mirror structure (Figure 4 a/b) ==");
    println!(
        "CNOT <-> iSWAP mirror pair: {}",
        can_swap_in_2_pair(WeylCoord::CNOT, WeylCoord::ISWAP, 1e-9)
    );
    for k in 0..=4 {
        let t = k as f64 / 4.0;
        // L0 runs from the B gate to sqrt(SWAP).
        let p = WeylCoord::new(0.5 - 0.25 * t, 0.25, 0.25 * t);
        println!("L0 point {p}: self-mirror = {}", p.is_self_mirror(1e-9));
    }
    // An XY-deviating trajectory and its mirror trajectory (Fig. 4b).
    println!("\nexample trajectory vs mirror (blue/orange in Fig. 4b):");
    for k in [0.2f64, 0.5, 0.8] {
        let p = WeylCoord::new(0.52 * k, 0.48 * k, 0.04 * k).canonicalize();
        let m = p.mirror();
        println!("  {p}  ->  {m}");
    }

    println!("\n== Numerical-oracle cross-validation (36 interior points) ==");
    let mut rng = StdRng::seed_from_u64(0xcafe);
    let mut agree = 0;
    let mut checked = 0;
    while checked < 36 {
        let p = sample_chamber(&mut rng);
        // Stay away from region boundaries where tolerances differ.
        if near_boundary(p, 0.02) {
            continue;
        }
        let ok_s3 = numerical_can_swap_in_3(p) == can_swap_in_3(p);
        let ok_c2 = numerical_can_cnot_in_2(p) == can_cnot_in_2(p);
        if ok_s3 && ok_c2 {
            agree += 1;
        } else {
            println!("  disagreement at {p}");
        }
        checked += 1;
    }
    println!("agreement: {agree}/{checked}");
}

fn near_boundary(p: WeylCoord, margin: f64) -> bool {
    let near = |tets: &[nsb_weyl::ComplementTet]| {
        tets.iter().any(|t| {
            let inside = t.excludes(p);
            let inflated = t
                .tet
                .barycentric(p)
                .is_some_and(|w| w.iter().all(|&v| v >= -margin));
            inside != inflated
        })
    };
    near(&swap3_complement()) || near(&cnot2_complement())
}
