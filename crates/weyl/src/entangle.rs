//! Entangling power and the perfect-entangler polyhedron.

use crate::coord::WeylCoord;

/// Entangling power of a two-qubit gate, as a function of its Cartan
/// coordinates (Zanardi-Zalka-Faoro): values lie in `[0, 2/9]`.
///
/// `ep = (2/9) (1 - cx^2 cy^2 cz^2 - sx^2 sy^2 sz^2)` with
/// `c = cos(pi t)`, `s = sin(pi t)`.
///
/// # Examples
///
/// ```
/// use nsb_weyl::{entangling_power, WeylCoord};
/// assert!(entangling_power(WeylCoord::IDENTITY).abs() < 1e-12);
/// assert!((entangling_power(WeylCoord::CNOT) - 2.0 / 9.0).abs() < 1e-12);
/// assert!(entangling_power(WeylCoord::SWAP).abs() < 1e-12);
/// ```
pub fn entangling_power(c: WeylCoord) -> f64 {
    let pi = std::f64::consts::PI;
    let (cx, sx) = ((pi * c.x).cos(), (pi * c.x).sin());
    let (cy, sy) = ((pi * c.y).cos(), (pi * c.y).sin());
    let (cz, sz) = ((pi * c.z).cos(), (pi * c.z).sin());
    let cprod = cx * cx * cy * cy * cz * cz;
    let sprod = sx * sx * sy * sy * sz * sz;
    (2.0 / 9.0) * (1.0 - cprod - sprod)
}

/// Tests whether a gate class is a *perfect entangler*: able to produce a
/// maximally entangled state from a product state.
///
/// Perfect entanglers form a polyhedron occupying exactly half the Weyl
/// chamber, with vertices CNOT, iSWAP, sqrt(SWAP), sqrt(SWAP)^dagger and
/// the two copies of sqrt(iSWAP). Inside the chamber the membership test
/// reduces to three half-space conditions.
pub fn is_perfect_entangler(c: WeylCoord, tol: f64) -> bool {
    let p = c.canonicalize();
    // The canonical representative may sit on either side of x = 1/2 for
    // z = 0 points; the conditions below are symmetric under the bottom-face
    // identification x -> 1 - x only partially, so test both images.
    let test = |q: WeylCoord| -> bool {
        q.x + q.y >= 0.5 - tol && q.x - q.y <= 0.5 + tol && q.y + q.z <= 0.5 + tol
    };
    if test(p) {
        return true;
    }
    let mirror_image = WeylCoord::new(1.0 - p.x, p.y, p.z);
    p.z.abs() <= tol && mirror_image.in_chamber(tol) && test(mirror_image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entangling_power_anchors() {
        assert!((entangling_power(WeylCoord::SQRT_ISWAP) - 1.0 / 6.0).abs() < 1e-12);
        assert!((entangling_power(WeylCoord::SQRT_SWAP) - 1.0 / 6.0).abs() < 1e-12);
        assert!((entangling_power(WeylCoord::B_GATE) - 2.0 / 9.0).abs() < 1e-12);
        assert!((entangling_power(WeylCoord::ISWAP) - 2.0 / 9.0).abs() < 1e-12);
        assert!(entangling_power(WeylCoord::IDENTITY_1).abs() < 1e-12);
    }

    #[test]
    fn perfect_entangler_vertices_and_interior() {
        for v in [
            WeylCoord::CNOT,
            WeylCoord::ISWAP,
            WeylCoord::SQRT_SWAP,
            WeylCoord::SQRT_SWAP_DAG,
            WeylCoord::SQRT_ISWAP,
            WeylCoord::SQRT_ISWAP_MIRROR,
            WeylCoord::B_GATE,
        ] {
            assert!(is_perfect_entangler(v, 1e-9), "{v}");
        }
        for v in [
            WeylCoord::IDENTITY,
            WeylCoord::IDENTITY_1,
            WeylCoord::SWAP,
            WeylCoord::new(0.1, 0.05, 0.0),
            WeylCoord::new(0.45, 0.45, 0.45),
        ] {
            assert!(!is_perfect_entangler(v, 1e-9), "{v}");
        }
    }

    #[test]
    fn special_perfect_entanglers_on_cnot_iswap_segment() {
        for k in 0..=10 {
            let t = k as f64 / 10.0;
            let p = WeylCoord::new(0.5, 0.5 * t, 0.0);
            assert!((entangling_power(p) - 2.0 / 9.0).abs() <= 1e-9, "{p}");
        }
        assert!((entangling_power(WeylCoord::SQRT_ISWAP) - 2.0 / 9.0).abs() > 1e-6);
    }

    #[test]
    fn perfect_entanglers_have_ep_at_least_one_sixth() {
        // Grid scan over the chamber.
        let n = 24;
        for i in 0..=n {
            for j in 0..=n / 2 {
                for k in 0..=n / 2 {
                    let p = WeylCoord::new(
                        i as f64 / n as f64,
                        j as f64 / n as f64,
                        k as f64 / n as f64,
                    );
                    if !p.in_chamber(0.0) {
                        continue;
                    }
                    if is_perfect_entangler(p, -1e-9) {
                        assert!(
                            entangling_power(p) >= 1.0 / 6.0 - 1e-9,
                            "{p} ep={}",
                            entangling_power(p)
                        );
                    }
                }
            }
        }
    }
}
