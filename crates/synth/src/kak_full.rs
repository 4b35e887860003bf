//! Full KAK (Cartan) decomposition with explicit local factors.
//!
//! Coordinates come from [`nsb_weyl::kak_vector`]; the local factors are
//! then recovered by a one-layer synthesis of `U` into its own canonical
//! representative, which converges to machine precision because the
//! decomposition is exact by construction.

use crate::decomposer::{decompose_with_bases, DecomposerConfig};
use nsb_math::{Complex64, Mat2, Mat4};
use nsb_weyl::{canonical_gate, kak_vector, WeylCoord};

/// A full Cartan decomposition
/// `U = e^{i phase} (k1a (x) k1b) A(x,y,z) (k0a (x) k0b)`.
#[derive(Clone, Debug)]
pub struct KakDecomposition {
    /// Local pair applied before the canonical gate.
    pub before: (Mat2, Mat2),
    /// Canonical Cartan coordinates.
    pub coord: WeylCoord,
    /// Local pair applied after the canonical gate.
    pub after: (Mat2, Mat2),
    /// Global phase.
    pub phase: f64,
}

impl KakDecomposition {
    /// Reconstructs the original unitary.
    pub fn reconstruct(&self) -> Mat4 {
        let a = canonical_gate(self.coord);
        let w = Mat4::kron(&self.after.0, &self.after.1)
            * a
            * Mat4::kron(&self.before.0, &self.before.1);
        w.scale(Complex64::cis(self.phase))
    }
}

/// Computes the full KAK decomposition of a two-qubit unitary.
///
/// # Panics
///
/// Panics when `u` is not unitary, or when the internal exact synthesis
/// fails to converge (not observed in practice; the decomposition exists
/// by construction).
///
/// # Examples
///
/// ```
/// use nsb_math::Mat4;
/// use nsb_synth::kak_decompose;
///
/// let k = kak_decompose(&Mat4::cnot());
/// assert!(k.reconstruct().approx_eq(&Mat4::cnot(), 1e-4));
/// ```
pub fn kak_decompose(u: &Mat4) -> KakDecomposition {
    let coord = kak_vector(u);
    let a = canonical_gate(coord);
    let cfg = DecomposerConfig {
        tol: 1e-9,
        restarts: 24,
        max_layers: 1,
        seed: 0xaaa5,
        use_depth_oracle: false,
    };
    #[expect(
        clippy::expect_used,
        reason = "one-layer synthesis onto a gate's own canonical class always converges"
    )]
    let s = decompose_with_bases(u, &[a], &cfg)
        .expect("exact one-layer decomposition onto the canonical gate");
    KakDecomposition {
        before: s.locals[0],
        coord,
        after: s.locals[1],
        phase: s.phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::haar_u4;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kak_of_named_gates_reconstructs() {
        for u in [
            Mat4::cnot(),
            Mat4::cz(),
            Mat4::swap(),
            Mat4::iswap(),
            Mat4::sqrt_iswap(),
            Mat4::b_gate(),
            Mat4::identity(),
        ] {
            let k = kak_decompose(&u);
            assert!(k.reconstruct().approx_eq(&u, 1e-4), "{u}");
        }
    }

    #[test]
    fn kak_of_random_unitaries_reconstructs() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let u = haar_u4(&mut rng);
            let k = kak_decompose(&u);
            assert!(k.reconstruct().approx_eq(&u, 1e-4));
            assert!(k.coord.in_chamber(1e-9));
            assert!(k.before.0.is_unitary(1e-9));
            assert!(k.after.1.is_unitary(1e-9));
        }
    }
}
