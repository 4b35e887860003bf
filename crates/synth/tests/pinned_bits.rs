//! Pins the exact bits of a few syntheses.
//!
//! Persisted cache snapshots (`nsb-store`) replay stored syntheses as if
//! they were fresh ones, and compiled programs are meant to stay
//! bit-identical across refactors of the search. A changed digest here
//! means persisted snapshots no longer match fresh syntheses, so
//! `nsb_store::FORMAT_VERSION` must be bumped in the same change (and the
//! constants below re-recorded).

use nsb_math::Mat4;
use nsb_synth::{decompose_with_bases, Decomposer, DecomposerConfig, StableHasher, Synthesized2Q};
use std::hash::Hasher;

/// `StableHasher` digest of every number a synthesis carries: the layer
/// count, the f64 bits of each local's entries, and the error, phase and
/// trace overlap.
fn digest(s: &Synthesized2Q) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(s.layers);
    for (u, v) in &s.locals {
        for m in [u, v] {
            for r in 0..2 {
                for c in 0..2 {
                    let e = m.at(r, c);
                    h.write_u64(e.re.to_bits());
                    h.write_u64(e.im.to_bits());
                }
            }
        }
    }
    h.write_u64(s.error.to_bits());
    h.write_u64(s.phase.to_bits());
    h.write_u64(s.trace_overlap.to_bits());
    h.finish()
}

fn check(name: &str, s: &Synthesized2Q, expected: u64) {
    let got = digest(s);
    assert_eq!(
        got, expected,
        "{name}: synthesis digest {got:#018x} != pinned {expected:#018x}"
    );
}

#[test]
fn sqrt_iswap_syntheses_are_pinned() {
    let dec = Decomposer::new(Mat4::sqrt_iswap());
    for (name, target, expected) in [
        ("cnot", Mat4::cnot(), 0xf6f5_fb48_2672_6402),
        ("swap", Mat4::swap(), 0x8948_8075_f4af_ba2a),
        ("cphase(0.7)", Mat4::cphase(0.7), 0x29d6_84ea_577b_7ce0),
    ] {
        check(
            name,
            &dec.decompose(&target).expect("synthesizes"),
            expected,
        );
    }
}

#[test]
fn near_face_polished_cnot_is_pinned() {
    // Just inside the CNOT-in-2 face: the sweeps stall above tolerance,
    // and the first restart whose Levenberg–Marquardt polish converges
    // ends the search.
    let dec = Decomposer::new(Mat4::canonical(0.250247, 0.248563, 0.044147));
    let s = dec.decompose(&Mat4::cnot()).expect("synthesizes");
    check("near-face cnot", &s, 0xc8fd_ae62_5871_f33b);
}

#[test]
fn mirror_pair_swap_is_pinned() {
    let s = decompose_with_bases(
        &Mat4::swap(),
        &[Mat4::cnot(), Mat4::iswap()],
        &DecomposerConfig::default(),
    )
    .expect("synthesizes");
    check("mirror-pair swap", &s, 0x15b9_faf7_a62b_47ae);
}
