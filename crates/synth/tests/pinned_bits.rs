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

/// Compares every `(name, synthesis, pinned digest)` and fails once,
/// listing each mismatch, so one bit change shows all the digests it moves.
fn check(cases: &[(&str, Synthesized2Q, u64)]) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|(name, s, pinned)| {
            let got = digest(s);
            (got != *pinned).then(|| format!("{name}: got {got:#018x}, pinned {pinned:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "synthesis digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn sqrt_iswap_syntheses_are_pinned() {
    let dec = Decomposer::new(Mat4::sqrt_iswap());
    let synth = |target: Mat4| dec.decompose(&target).expect("synthesizes");
    check(&[
        ("cnot", synth(Mat4::cnot()), 0x6284_62c1_52cc_b5ef),
        ("swap", synth(Mat4::swap()), 0x5ae8_bae1_1090_20d5),
        (
            "cphase(0.7)",
            synth(Mat4::cphase(0.7)),
            0x22e6_dc2b_cff8_17dd,
        ),
    ]);
}

#[test]
fn near_face_polished_cnot_is_pinned() {
    // Just inside the CNOT-in-2 face: the sweeps hand over to the
    // Levenberg–Marquardt polish in the polish window, and the first
    // restart whose polish converges ends the search.
    let dec = Decomposer::new(Mat4::canonical(0.250247, 0.248563, 0.044147));
    let s = dec.decompose(&Mat4::cnot()).expect("synthesizes");
    check(&[("near-face cnot", s, 0x4333_54ba_5eae_c02f)]);
}

#[test]
fn mirror_pair_swap_is_pinned() {
    let s = decompose_with_bases(
        &Mat4::swap(),
        &[Mat4::cnot(), Mat4::iswap()],
        &DecomposerConfig::default(),
    )
    .expect("synthesizes");
    check(&[("mirror-pair swap", s, 0xbfa8_ef05_44b0_dcae)]);
}
