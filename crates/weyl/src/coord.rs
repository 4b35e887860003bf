//! Cartan (Weyl chamber) coordinates for two-qubit gates.
//!
//! Conventions follow the paper: the coordinates `(x, y, z)` of a gate `U`
//! are defined through the Cartan decomposition
//! `U = k1 exp(-i pi/2 (x XX + y YY + z ZZ)) k2`, so `CNOT = (1/2, 0, 0)`,
//! `iSWAP = (1/2, 1/2, 0)`, `SWAP = (1/2, 1/2, 1/2)` and the identity is
//! represented by both `I0 = (0,0,0)` and `I1 = (1,0,0)`.
//!
//! The Weyl chamber is the tetrahedron with vertices `I0`, `I1`, `iSWAP`
//! and `SWAP`: `{(x, y, z) : y <= x, x + y <= 1, 0 <= z <= y}`, with the
//! bottom-face identification `(x, y, 0) ~ (1 - x, y, 0)`.

use std::fmt;

/// Tolerance used for chamber membership and coordinate comparisons.
pub(crate) const COORD_EPS: f64 = 1e-9;

/// A point in Cartan-coordinate space.
///
/// Most routines expect or produce points inside the Weyl chamber (see
/// [`WeylCoord::canonicalize`]).
///
/// # Examples
///
/// ```
/// use nsb_weyl::WeylCoord;
/// let p = WeylCoord::new(-0.5, 0.25, 0.1).canonicalize();
/// assert!(p.in_chamber(1e-9));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeylCoord {
    /// XX coefficient.
    pub x: f64,
    /// YY coefficient.
    pub y: f64,
    /// ZZ coefficient.
    pub z: f64,
}

impl WeylCoord {
    /// Creates a coordinate triple (no canonicalization applied).
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        WeylCoord { x, y, z }
    }

    /// The identity point `I0 = (0, 0, 0)`.
    pub const IDENTITY: WeylCoord = WeylCoord::new(0.0, 0.0, 0.0);
    /// The second identity point `I1 = (1, 0, 0)`.
    pub(crate) const IDENTITY_1: WeylCoord = WeylCoord::new(1.0, 0.0, 0.0);
    /// CNOT / CZ local-equivalence class.
    pub const CNOT: WeylCoord = WeylCoord::new(0.5, 0.0, 0.0);
    /// iSWAP class.
    pub const ISWAP: WeylCoord = WeylCoord::new(0.5, 0.5, 0.0);
    /// SWAP class.
    pub const SWAP: WeylCoord = WeylCoord::new(0.5, 0.5, 0.5);
    /// sqrt(iSWAP) class (left copy).
    pub const SQRT_ISWAP: WeylCoord = WeylCoord::new(0.25, 0.25, 0.0);
    /// sqrt(iSWAP) class (right copy, same class via the bottom-face
    /// identification).
    #[cfg(test)]
    pub(crate) const SQRT_ISWAP_MIRROR: WeylCoord = WeylCoord::new(0.75, 0.25, 0.0);
    /// sqrt(SWAP) class.
    pub(crate) const SQRT_SWAP: WeylCoord = WeylCoord::new(0.25, 0.25, 0.25);
    /// sqrt(SWAP)^dagger class.
    pub(crate) const SQRT_SWAP_DAG: WeylCoord = WeylCoord::new(0.75, 0.25, 0.25);
    /// The B gate, midpoint of the CNOT-iSWAP segment.
    pub const B_GATE: WeylCoord = WeylCoord::new(0.5, 0.25, 0.0);

    /// Returns the coordinates as an array `[x, y, z]`.
    pub(crate) fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Tests membership in the Weyl chamber tetrahedron within `tol`.
    pub fn in_chamber(self, tol: f64) -> bool {
        let WeylCoord { x, y, z } = self;
        y <= x + tol
            && x + y <= 1.0 + tol
            && z >= -tol
            && z <= y + tol
            && y >= -tol
            && x <= 1.0 + tol
            && x >= -tol
    }

    /// Canonicalizes into the Weyl chamber.
    ///
    /// The symmetry group acting on Cartan coordinates is generated by
    /// coordinate permutations, sign flips of *pairs* of coordinates, and
    /// integer shifts. This enumerates the 24 permutation/pair-flip images,
    /// reduces each modulo 1, and returns the lexicographically smallest
    /// image inside the chamber, which also resolves the bottom-face
    /// identification `(x, y, 0) ~ (1 - x, y, 0)` toward `x <= 1/2`.
    ///
    /// Every finite input has an image in the chamber (the chamber is a
    /// fundamental domain). A non-finite input has none and is returned
    /// unchanged, so it stays outside the chamber.
    pub fn canonicalize(self) -> WeylCoord {
        const PERMS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        const FLIPS: [[f64; 3]; 4] = [
            [1.0, 1.0, 1.0],
            [-1.0, -1.0, 1.0],
            [-1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0],
        ];
        let v = [self.x, self.y, self.z];
        let mut best: Option<WeylCoord> = None;
        for perm in PERMS {
            for flip in FLIPS {
                let mut w = [0.0f64; 3];
                for k in 0..3 {
                    w[k] = mod1(v[perm[k]] * flip[k]);
                }
                let cand = WeylCoord::new(w[0], w[1], w[2]);
                if cand.in_chamber(COORD_EPS) {
                    let cand = cand.snap();
                    best = match best {
                        None => Some(cand),
                        Some(b) => {
                            if cand.lex_less(b) {
                                Some(cand)
                            } else {
                                Some(b)
                            }
                        }
                    };
                }
            }
        }
        best.unwrap_or(self)
    }

    /// Orders coordinates lexicographically with a small tolerance so that
    /// nearly-equal components do not flip the choice.
    fn lex_less(self, other: WeylCoord) -> bool {
        let a = self.to_array();
        let b = other.to_array();
        for k in 0..3 {
            if a[k] < b[k] - COORD_EPS {
                return true;
            }
            if a[k] > b[k] + COORD_EPS {
                return false;
            }
        }
        false
    }

    /// Snaps coordinates that are within [`COORD_EPS`] of a multiple of
    /// 1/12 to that exact value; removes boundary jitter for landmark gates
    /// without affecting generic points.
    fn snap(self) -> WeylCoord {
        let snap1 = |t: f64| -> f64 {
            let grid = (t * 12.0).round() / 12.0;
            if (t - grid).abs() <= COORD_EPS {
                grid
            } else {
                t
            }
        };
        WeylCoord::new(snap1(self.x), snap1(self.y), snap1(self.z))
    }

    /// Euclidean distance between raw coordinate triples.
    pub fn dist(self, other: WeylCoord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Distance between local-equivalence classes: canonicalizes both sides
    /// and accounts for the bottom-face identification.
    pub fn class_dist(self, other: WeylCoord) -> f64 {
        let a = self.canonicalize();
        let b = other.canonicalize();
        let direct = a.dist(b);
        // Bottom-face identification: compare against the mirrored copy as
        // well; for z > 0 the mirrored copy is not equivalent, but distance
        // via the identification is still only meaningful near z = 0, so we
        // interpolate by penalizing with the z heights.
        let am = WeylCoord::new(1.0 - a.x, a.y, a.z);
        let mirrored = am.dist(b) + a.z.min(b.z);
        direct.min(mirrored)
    }

    /// Tests whether two coordinate triples describe the same
    /// local-equivalence class within `tol`.
    pub fn class_eq(self, other: WeylCoord, tol: f64) -> bool {
        self.class_dist(other) <= tol
    }

    /// The mirror point of Appendix B: the unique class `C` such that `B`
    /// (self) and `C` together synthesize SWAP in two layers, namely
    /// `canonicalize((1/2, 1/2, 1/2) - self)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nsb_weyl::WeylCoord;
    /// // CNOT and iSWAP are mirror partners.
    /// let m = WeylCoord::CNOT.mirror();
    /// assert!(m.class_eq(WeylCoord::ISWAP, 1e-9));
    /// ```
    pub fn mirror(self) -> WeylCoord {
        WeylCoord::new(0.5 - self.x, 0.5 - self.y, 0.5 - self.z).canonicalize()
    }

    /// Tests whether this class can synthesize SWAP in two layers using two
    /// copies of itself (i.e. it is its own mirror, lying on L0 or L1).
    pub fn is_self_mirror(self, tol: f64) -> bool {
        self.canonicalize().class_eq(self.mirror(), tol)
    }
}

/// Reduces into `[0, 1)` with snapping of values within [`COORD_EPS`] of 1
/// down to 0.
fn mod1(t: f64) -> f64 {
    let mut r = t.rem_euclid(1.0);
    if r >= 1.0 - COORD_EPS {
        r = 0.0;
    }
    if r.abs() < COORD_EPS {
        r = 0.0;
    }
    r
}

impl fmt::Display for WeylCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

/// Distance from a point to the segment `[a, b]` in coordinate space.
pub(crate) fn dist_to_segment(p: WeylCoord, a: WeylCoord, b: WeylCoord) -> f64 {
    let ab = [b.x - a.x, b.y - a.y, b.z - a.z];
    let ap = [p.x - a.x, p.y - a.y, p.z - a.z];
    let ab2 = ab[0] * ab[0] + ab[1] * ab[1] + ab[2] * ab[2];
    let t = if ab2 > 0.0 {
        ((ap[0] * ab[0] + ap[1] * ab[1] + ap[2] * ab[2]) / ab2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let q = WeylCoord::new(a.x + t * ab[0], a.y + t * ab[1], a.z + t * ab[2]);
    p.dist(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::{Complex64, Mat4};

    #[test]
    fn non_finite_coordinates_canonicalize_outside_the_chamber() {
        let mut cnot = Mat4::cnot();
        cnot[(1, 2)] = Complex64::new(f64::NAN, 0.0);
        let from_nan = crate::kak_vector(&cnot);
        assert!(!from_nan.in_chamber(COORD_EPS), "{from_nan}");
        let infinite = WeylCoord::new(f64::INFINITY, 0.2, 0.1).canonicalize();
        assert!(!infinite.in_chamber(COORD_EPS), "{infinite}");
    }

    #[test]
    fn named_points_are_canonical() {
        for p in [
            WeylCoord::IDENTITY,
            WeylCoord::CNOT,
            WeylCoord::ISWAP,
            WeylCoord::SWAP,
            WeylCoord::SQRT_ISWAP,
            WeylCoord::SQRT_SWAP,
            WeylCoord::B_GATE,
        ] {
            assert!(p.in_chamber(1e-12), "{p}");
            assert!(p.canonicalize().dist(p) < 1e-9, "{p}");
        }
    }

    #[test]
    fn identity_copies_are_equivalent() {
        assert!(
            WeylCoord::IDENTITY_1
                .canonicalize()
                .dist(WeylCoord::IDENTITY)
                < 1e-9
        );
    }

    #[test]
    fn bottom_face_identification() {
        // (0.75, 0.25, 0) canonicalizes to (0.25, 0.25, 0).
        let p = WeylCoord::SQRT_ISWAP_MIRROR.canonicalize();
        assert!(p.dist(WeylCoord::SQRT_ISWAP) < 1e-9, "{p}");
        // But the z > 0 mirror sqrt(SWAP)^dagger does NOT canonicalize onto
        // sqrt(SWAP): they are distinct classes.
        let q = WeylCoord::SQRT_SWAP_DAG.canonicalize();
        assert!(q.dist(WeylCoord::SQRT_SWAP) > 0.1, "{q}");
    }

    #[test]
    fn negation_pairs_are_symmetries() {
        let p = WeylCoord::new(0.3, 0.2, 0.1);
        let flipped = WeylCoord::new(-0.3, -0.2, 0.1);
        assert!(p.canonicalize().dist(flipped.canonicalize()) < 1e-9);
    }

    #[test]
    fn shifts_are_symmetries() {
        let p = WeylCoord::new(0.3, 0.2, 0.1);
        let shifted = WeylCoord::new(1.3, -0.8, 0.1);
        assert!(p.canonicalize().dist(shifted.canonicalize()) < 1e-9);
    }

    #[test]
    fn canonical_point_is_in_chamber_for_grid() {
        let mut k = 0u64;
        for i in -4i32..=4 {
            for j in -4i32..=4 {
                for l in -4i32..=4 {
                    let p = WeylCoord::new(i as f64 * 0.317, j as f64 * 0.211, l as f64 * 0.147);
                    let c = p.canonicalize();
                    assert!(c.in_chamber(1e-9), "{p} -> {c}");
                    k += 1;
                }
            }
        }
        assert!(k > 0);
    }

    #[test]
    fn mirror_anchors() {
        assert!(WeylCoord::CNOT.mirror().class_eq(WeylCoord::ISWAP, 1e-9));
        assert!(WeylCoord::ISWAP.mirror().class_eq(WeylCoord::CNOT, 1e-9));
        assert!(WeylCoord::B_GATE.is_self_mirror(1e-9));
        assert!(WeylCoord::SQRT_SWAP.is_self_mirror(1e-9));
        assert!(!WeylCoord::CNOT.is_self_mirror(1e-6));
        // sqrt(iSWAP)'s mirror is (1/2, 1/4, 1/4).
        let m = WeylCoord::SQRT_ISWAP.mirror();
        assert!(m.dist(WeylCoord::new(0.5, 0.25, 0.25)) < 1e-9, "{m}");
    }

    #[test]
    fn mirror_is_involution_on_classes() {
        for p in [
            WeylCoord::new(0.37, 0.21, 0.05),
            WeylCoord::new(0.5, 0.31, 0.11),
            WeylCoord::CNOT,
            WeylCoord::SQRT_ISWAP,
        ] {
            let mm = p.mirror().mirror();
            assert!(mm.class_eq(p, 1e-9), "{p} -> {mm}");
        }
    }

    #[test]
    fn segment_distance() {
        let a = WeylCoord::new(0.0, 0.0, 0.0);
        let b = WeylCoord::new(1.0, 0.0, 0.0);
        assert!((dist_to_segment(WeylCoord::new(0.5, 0.3, 0.0), a, b) - 0.3).abs() < 1e-12);
        assert!((dist_to_segment(WeylCoord::new(2.0, 0.0, 0.0), a, b) - 1.0).abs() < 1e-12);
    }
}
