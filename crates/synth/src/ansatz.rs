//! The layered two-qubit synthesis ansatz.
//!
//! A target gate `T` is synthesized as alternating layers of local (1Q (x)
//! 1Q) unitaries and fixed entangling basis gates:
//!
//! ```text
//! W = (u_L (x) v_L) B_L (u_{L-1} (x) v_{L-1}) ... B_1 (u_0 (x) v_0)
//! ```
//!
//! where the `B_i` are the hardware basis gates (all equal for a single
//! basis gate, or per-layer for mixed-basis synthesis).

use nsb_math::{Complex64, Mat2, Mat4};

/// A synthesized two-qubit circuit: the local unitaries surrounding `L`
/// entangling layers, together with quality metrics.
#[derive(Clone, Debug)]
pub struct Synthesized2Q {
    /// Local pairs `(u_k, v_k)`, length `layers + 1`, applied first-to-last.
    pub locals: Vec<(Mat2, Mat2)>,
    /// Number of entangling layers `L`.
    pub layers: usize,
    /// Normalized trace overlap `|tr(T^dag W)| / 4` achieved.
    pub trace_overlap: f64,
    /// Decomposition error `1 - average gate fidelity`.
    pub error: f64,
    /// Global phase `phi` such that `T ~ e^{i phi} W`.
    pub phase: f64,
}

impl Synthesized2Q {
    /// Rebuilds the synthesized unitary from the stored locals and the
    /// given per-layer basis gates.
    ///
    /// # Panics
    ///
    /// Panics when `bases.len() != self.layers`.
    pub fn unitary(&self, bases: &[Mat4]) -> Mat4 {
        assert_eq!(bases.len(), self.layers, "basis count mismatch");
        build_ansatz(&self.locals, bases)
    }

    /// Rebuilds the unitary including the global phase, so the result is
    /// directly comparable to the target with `approx_eq`.
    pub fn unitary_with_phase(&self, bases: &[Mat4]) -> Mat4 {
        self.unitary(bases).scale(Complex64::cis(self.phase))
    }
}

/// Multiplies out the ansatz `(u_L (x) v_L) B_L ... B_1 (u_0 (x) v_0)`.
///
/// # Panics
///
/// Panics when `locals.len() != bases.len() + 1`.
pub(crate) fn build_ansatz(locals: &[(Mat2, Mat2)], bases: &[Mat4]) -> Mat4 {
    assert_eq!(locals.len(), bases.len() + 1, "ansatz shape mismatch");
    let mut w = Mat4::kron(&locals[0].0, &locals[0].1);
    for (k, b) in bases.iter().enumerate() {
        w = *b * w;
        let l = Mat4::kron(&locals[k + 1].0, &locals[k + 1].1);
        w = l * w;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::haar_su2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_layer_ansatz_is_local() {
        let mut rng = StdRng::seed_from_u64(1);
        let locals = vec![(haar_su2(&mut rng), haar_su2(&mut rng))];
        let w = build_ansatz(&locals, &[]);
        assert!(w.kron_factor(1e-9).is_some());
    }

    #[test]
    fn ansatz_is_unitary() {
        let mut rng = StdRng::seed_from_u64(2);
        let locals: Vec<_> = (0..4)
            .map(|_| (haar_su2(&mut rng), haar_su2(&mut rng)))
            .collect();
        let bases = vec![Mat4::cnot(), Mat4::sqrt_iswap(), Mat4::b_gate()];
        let w = build_ansatz(&locals, &bases);
        assert!(w.is_unitary(1e-11));
    }

    #[test]
    fn identity_locals_reproduce_basis_product() {
        let locals = vec![
            (Mat2::identity(), Mat2::identity()),
            (Mat2::identity(), Mat2::identity()),
        ];
        let w = build_ansatz(&locals, &[Mat4::cnot()]);
        assert!(w.approx_eq(&Mat4::cnot(), 1e-12));
    }
}
