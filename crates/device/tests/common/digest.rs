//! A full-bit digest of a built device, shared by the device pins
//! (`pinned_devices`) and the 10x10 case-study pin (`nsb-core`'s
//! `case_study` test).

use nsb_device::{BasisStrategy, Device, SelectedBasis};
use nsb_math::{Mat2, Mat4};
use nsb_synth::{StableHasher, Synthesized2Q};
use std::hash::{Hash, Hasher};

fn hash_mat2(m: &Mat2, h: &mut StableHasher) {
    for r in 0..2 {
        for c in 0..2 {
            m.at(r, c).re.to_bits().hash(h);
            m.at(r, c).im.to_bits().hash(h);
        }
    }
}

fn hash_mat4(m: &Mat4, h: &mut StableHasher) {
    for r in 0..4 {
        for c in 0..4 {
            m.at(r, c).re.to_bits().hash(h);
            m.at(r, c).im.to_bits().hash(h);
        }
    }
}

fn hash_synthesis(s: &Synthesized2Q, h: &mut StableHasher) {
    s.layers.hash(h);
    for (u, v) in &s.locals {
        hash_mat2(u, h);
        hash_mat2(v, h);
    }
    s.trace_overlap.to_bits().hash(h);
    s.error.to_bits().hash(h);
    s.phase.to_bits().hash(h);
}

fn hash_basis(b: &SelectedBasis, h: &mut StableHasher) {
    hash_mat4(&b.gate, h);
    b.duration.to_bits().hash(h);
    b.leakage.to_bits().hash(h);
    b.coord.x.to_bits().hash(h);
    b.coord.y.to_bits().hash(h);
    b.coord.z.to_bits().hash(h);
    hash_synthesis(&b.swap.circuit, h);
    hash_synthesis(&b.cnot.circuit, h);
}

/// A full-bit digest of every edge's three selected bases: gate entries,
/// duration, leakage, Cartan coordinate and the cached SWAP and CNOT
/// syntheses. The calibration hash covers only the gate (quantized) and
/// the duration; this covers everything bring-up computes.
pub(crate) fn device_digest(device: &Device) -> u64 {
    let mut h = StableHasher::new();
    for e in device.edges() {
        e.qubits.hash(&mut h);
        for strategy in BasisStrategy::ALL {
            hash_basis(e.basis(strategy), &mut h);
        }
    }
    h.finish()
}
