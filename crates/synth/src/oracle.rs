//! Numerical decomposability oracle.
//!
//! The paper determines circuit depth analytically via the monodromy
//! polytope (Peterson et al., Theorem 23: up to 8 branches of 72
//! inequalities). Those inequality tables are not reproducible offline, so
//! this workspace substitutes a *certified numerical oracle*: a target is
//! declared decomposable into the given layers when multi-restart
//! alternating-SVD synthesis reaches decomposition error below `1e-7`. The
//! oracle is cross-validated against the paper's closed-form region
//! geometry (Figure 4) in this module's tests and in the `fig4_regions`
//! bench binary.

use crate::decomposer::{decompose_with_bases, DecomposerConfig};
use nsb_math::Mat4;
use nsb_weyl::{canonical_gate, WeylCoord};

/// The oracle's search settings: the decomposer's tolerance, with fewer
/// restarts and its own seed.
const ORACLE: DecomposerConfig = DecomposerConfig {
    tol: 1e-7,
    restarts: 10,
    seed: 0xacce5,
};

/// Numerically decides whether `target` can be written as
/// `L2 . C . L1 . B . L0` (two layers with possibly different bases).
pub(crate) fn can_decompose_2layer(target: &Mat4, b: &Mat4, c: &Mat4) -> bool {
    decompose_with_bases(target, &[*b, *c], &ORACLE).is_ok()
}

/// Numerically decides whether the *class* `basis` can synthesize SWAP in
/// three layers, via the mirror construction: `G` works iff `G_mirror` is
/// reachable from two layers of `G` (paper Section V-C).
pub fn numerical_can_swap_in_3(basis: WeylCoord) -> bool {
    let g = canonical_gate(basis.canonicalize());
    let mirror = canonical_gate(basis.mirror());
    can_decompose_2layer(&mirror, &g, &g)
}

/// Numerically decides whether the class `basis` can synthesize CNOT in two
/// layers.
pub fn numerical_can_cnot_in_2(basis: WeylCoord) -> bool {
    let g = canonical_gate(basis.canonicalize());
    can_decompose_2layer(&Mat4::cnot(), &g, &g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_weyl::{can_cnot_in_2, can_swap_in_3, sample_chamber};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_agrees_with_region_geometry_on_landmarks() {
        for (coord, expect_swap3, expect_cnot2) in [
            (WeylCoord::CNOT, true, true),
            (WeylCoord::ISWAP, true, true),
            (WeylCoord::SQRT_ISWAP, true, true),
            (WeylCoord::B_GATE, true, true),
            (WeylCoord::new(0.15, 0.1, 0.0), false, false),
            (WeylCoord::new(0.4, 0.2, 0.1), true, true),
        ] {
            assert_eq!(
                numerical_can_swap_in_3(coord),
                expect_swap3,
                "swap3 oracle at {coord}"
            );
            assert_eq!(
                numerical_can_cnot_in_2(coord),
                expect_cnot2,
                "cnot2 oracle at {coord}"
            );
            // And both must agree with the analytic tetrahedra.
            assert_eq!(
                can_swap_in_3(coord),
                expect_swap3,
                "region swap3 at {coord}"
            );
            assert_eq!(
                can_cnot_in_2(coord),
                expect_cnot2,
                "region cnot2 at {coord}"
            );
        }
    }

    #[test]
    fn oracle_cross_validates_regions_on_random_sample() {
        // Small sample here; the fig4_regions bench runs a large one.
        let mut rng = StdRng::seed_from_u64(77);
        let mut checked = 0;
        for _ in 0..12 {
            let p = sample_chamber(&mut rng);
            // Skip points within 0.02 of region boundaries where numerical
            // tolerance and exact geometry can legitimately disagree.
            if near_swap3_boundary(p, 0.02) || near_cnot2_boundary(p, 0.02) {
                continue;
            }
            assert_eq!(
                numerical_can_swap_in_3(p),
                can_swap_in_3(p),
                "swap3 mismatch at {p}"
            );
            assert_eq!(
                numerical_can_cnot_in_2(p),
                can_cnot_in_2(p),
                "cnot2 mismatch at {p}"
            );
            checked += 1;
        }
        assert!(checked >= 6, "too few interior samples checked");
    }

    fn near_swap3_boundary(p: WeylCoord, margin: f64) -> bool {
        nsb_weyl::swap3_complement().iter().any(|t| {
            let inside = t.excludes(p);
            let inflated = t
                .tet
                .barycentric(p)
                .is_some_and(|w| w.iter().all(|&v| v >= -margin));
            inside != inflated
        })
    }

    fn near_cnot2_boundary(p: WeylCoord, margin: f64) -> bool {
        nsb_weyl::cnot2_complement().iter().any(|t| {
            let inside = t.excludes(p);
            let inflated = t
                .tet
                .barycentric(p)
                .is_some_and(|w| w.iter().all(|&v| v >= -margin));
            inside != inflated
        })
    }
}
