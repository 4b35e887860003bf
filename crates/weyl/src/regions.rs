//! Synthesis-capability regions in the Weyl chamber (paper Section V and
//! Figure 4).
//!
//! The sets of basis-gate classes able to synthesize SWAP in three layers
//! (`S_SWAP,3`) and CNOT in two layers (`S_CNOT,2`) are characterized by
//! their complements, which are unions of explicit tetrahedra. The
//! complement volumes reproduce the paper's numbers: `S_SWAP,3` covers
//! 68.5% of the chamber and `S_CNOT,2` covers 75%.

use crate::coord::dist_to_segment;
use crate::coord::WeylCoord;
use crate::entangle::entangling_power;
use rand::Rng;

/// A tetrahedron in Cartan-coordinate space, stored by its four vertices.
#[derive(Clone, Copy, Debug)]
pub struct Tetrahedron {
    /// The four vertices.
    pub(crate) vertices: [WeylCoord; 4],
}

impl Tetrahedron {
    /// Creates a tetrahedron from four vertices.
    pub const fn new(vertices: [WeylCoord; 4]) -> Self {
        Tetrahedron { vertices }
    }

    /// Signed volume of the tetrahedron.
    pub fn volume(&self) -> f64 {
        let [a, b, c, d] = self.vertices;
        let u = [b.x - a.x, b.y - a.y, b.z - a.z];
        let v = [c.x - a.x, c.y - a.y, c.z - a.z];
        let w = [d.x - a.x, d.y - a.y, d.z - a.z];
        let cross = [
            v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0],
        ];
        (u[0] * cross[0] + u[1] * cross[1] + u[2] * cross[2]).abs() / 6.0
    }

    /// Barycentric coordinates of `p` with respect to the four vertices
    /// (they sum to 1). Returns `None` for a degenerate tetrahedron.
    pub fn barycentric(&self, p: WeylCoord) -> Option<[f64; 4]> {
        let [a, b, c, d] = self.vertices;
        // Solve [b-a, c-a, d-a] w = p - a for barycentric w (3x3 Cramer).
        let m = [
            [b.x - a.x, c.x - a.x, d.x - a.x],
            [b.y - a.y, c.y - a.y, d.y - a.y],
            [b.z - a.z, c.z - a.z, d.z - a.z],
        ];
        let rhs = [p.x - a.x, p.y - a.y, p.z - a.z];
        let det3 = |m: &[[f64; 3]; 3]| -> f64 {
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        };
        let det = det3(&m);
        if det.abs() < 1e-15 {
            return None;
        }
        let mut w = [0.0f64; 3];
        for k in 0..3 {
            let mut mk = m;
            for r in 0..3 {
                mk[r][k] = rhs[r];
            }
            w[k] = det3(&mk) / det;
        }
        Some([1.0 - w[0] - w[1] - w[2], w[0], w[1], w[2]])
    }
}

/// A complement tetrahedron together with its "apex" vertex index.
///
/// The complements of the synthesis-capability regions are closed solids,
/// *except* on the exit face opposite the apex (the face the paper uses to
/// locate the fastest usable gate): a trajectory point lying exactly on the
/// exit face already counts as able. For the bottom tetrahedra the apex is
/// the identity vertex; for the top ones it is SWAP.
#[derive(Clone, Copy, Debug)]
pub struct ComplementTet {
    /// The tetrahedron.
    pub tet: Tetrahedron,
    /// Index of the apex vertex (exit face is the face opposite it).
    pub(crate) apex: usize,
}

impl ComplementTet {
    /// Returns true when `p` is in the complement (NOT able): inside the
    /// closed tetrahedron but not on the exit face.
    pub fn excludes(&self, p: WeylCoord) -> bool {
        const EPS: f64 = 1e-9;
        match self.tet.barycentric(p) {
            Some(w) => w.iter().all(|&v| v >= -EPS) && w[self.apex] > EPS,
            None => false,
        }
    }
}

/// The four tetrahedra forming the complement of `S_SWAP,3` (gates NOT able
/// to synthesize SWAP in three layers), from Figure 4(d). Apexes: the
/// identity vertices for the bottom pair, SWAP for the top pair.
pub fn swap3_complement() -> [ComplementTet; 4] {
    let f = |x: f64, y: f64, z: f64| WeylCoord::new(x, y, z);
    [
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::IDENTITY,
                WeylCoord::CNOT,
                f(0.25, 0.25, 0.0),
                f(1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0),
            ]),
            apex: 0,
        },
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::IDENTITY_1,
                WeylCoord::CNOT,
                f(0.75, 0.25, 0.0),
                f(5.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0),
            ]),
            apex: 0,
        },
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::SWAP,
                f(0.5, 1.0 / 6.0, 1.0 / 6.0),
                f(1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0),
                f(1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
            ]),
            apex: 0,
        },
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::SWAP,
                f(0.5, 1.0 / 6.0, 1.0 / 6.0),
                f(5.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0),
                f(2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
            ]),
            apex: 0,
        },
    ]
}

/// The three tetrahedra forming the complement of `S_CNOT,2` (gates NOT
/// able to synthesize CNOT in two layers), from Figure 4(e).
///
/// The paper's caption lists a vertex "(1/4, 1/4, 1/4)" for the first
/// tetrahedron which duplicates the sqrt(SWAP) vertex; the geometrically
/// consistent vertex — confirmed by the quoted 75% volume — is
/// `(1/4, 1/4, 0)`, which we use (and mirror for the second tetrahedron).
pub fn cnot2_complement() -> [ComplementTet; 3] {
    let f = |x: f64, y: f64, z: f64| WeylCoord::new(x, y, z);
    [
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::IDENTITY,
                f(0.25, 0.0, 0.0),
                f(0.25, 0.25, 0.0),
                WeylCoord::SQRT_SWAP,
            ]),
            apex: 0,
        },
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::IDENTITY_1,
                f(0.75, 0.0, 0.0),
                f(0.75, 0.25, 0.0),
                WeylCoord::SQRT_SWAP_DAG,
            ]),
            apex: 0,
        },
        ComplementTet {
            tet: Tetrahedron::new([
                WeylCoord::SWAP,
                WeylCoord::SQRT_SWAP,
                WeylCoord::SQRT_SWAP_DAG,
                f(0.5, 0.5, 0.25),
            ]),
            apex: 0,
        },
    ]
}

/// Tests whether a gate class can synthesize SWAP in one layer (it must be
/// the SWAP class itself).
pub(crate) fn can_swap_in_1(c: WeylCoord, tol: f64) -> bool {
    c.canonicalize().dist(WeylCoord::SWAP) <= tol
}

/// Tests whether a gate class can synthesize SWAP in two layers *using two
/// copies of itself*: it must lie on the self-mirror segments L0
/// (B gate to sqrt(SWAP)) or L1 (B gate to sqrt(SWAP)^dagger).
pub(crate) fn can_swap_in_2_self(c: WeylCoord, tol: f64) -> bool {
    let p = c.canonicalize();
    let l0 = dist_to_segment(p, WeylCoord::B_GATE, WeylCoord::SQRT_SWAP);
    // L1 lives on the x >= 1/2 side; compare against the mirrored image too
    // because canonicalization folds bottom-face points to x <= 1/2.
    let b1 = WeylCoord::new(0.5, 0.25, 0.0);
    let l1 = dist_to_segment(p, b1, WeylCoord::SQRT_SWAP_DAG);
    l0 <= tol || l1 <= tol
}

/// Tests whether a pair of (possibly different) gate classes can synthesize
/// SWAP in two layers: they must be mirror partners (Appendix B).
pub fn can_swap_in_2_pair(b: WeylCoord, c: WeylCoord, tol: f64) -> bool {
    b.mirror().class_eq(c, tol)
}

/// Tests whether a gate class can synthesize SWAP in three layers
/// (membership in `S_SWAP,3`): inside the chamber and outside all four
/// complement tetrahedra.
///
/// # Examples
///
/// ```
/// use nsb_weyl::{can_swap_in_3, WeylCoord};
/// assert!(can_swap_in_3(WeylCoord::CNOT));
/// assert!(can_swap_in_3(WeylCoord::SQRT_ISWAP)); // on the boundary face
/// assert!(!can_swap_in_3(WeylCoord::new(0.1, 0.05, 0.0)));
/// ```
pub fn can_swap_in_3(c: WeylCoord) -> bool {
    let p = c.canonicalize();
    !swap3_complement().iter().any(|t| t.excludes(p))
}

/// Tests whether a gate class can synthesize CNOT in two layers
/// (membership in `S_CNOT,2`).
pub fn can_cnot_in_2(c: WeylCoord) -> bool {
    let p = c.canonicalize();
    !cnot2_complement().iter().any(|t| t.excludes(p))
}

/// Minimum number of layers of this basis gate needed to synthesize SWAP,
/// or `None` when more than three layers are required.
pub fn min_layers_for_swap(c: WeylCoord) -> Option<u32> {
    if can_swap_in_1(c, 1e-9) {
        Some(1)
    } else if can_swap_in_2_self(c, 1e-9) {
        Some(2)
    } else if can_swap_in_3(c) {
        Some(3)
    } else {
        None
    }
}

/// The selection criteria for picking a basis gate off a trajectory
/// (paper Section V-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelectionCriterion {
    /// Criterion 1: the fastest gate able to synthesize SWAP in 3 layers.
    SwapIn3,
    /// Criterion 2: the fastest gate able to synthesize SWAP in 3 layers
    /// AND CNOT in 2 layers.
    SwapIn3CnotIn2,
    /// The fastest perfect entangler that also synthesizes SWAP in 3 layers
    /// (mentioned as an alternative criterion in Section V-E).
    PerfectEntanglerSwapIn3,
}

impl SelectionCriterion {
    /// Evaluates the criterion's predicate on a coordinate.
    pub fn accepts(self, c: WeylCoord) -> bool {
        match self {
            SelectionCriterion::SwapIn3 => can_swap_in_3(c),
            SelectionCriterion::SwapIn3CnotIn2 => can_swap_in_3(c) && can_cnot_in_2(c),
            SelectionCriterion::PerfectEntanglerSwapIn3 => {
                can_swap_in_3(c) && crate::is_perfect_entangler(c, 1e-9)
            }
        }
    }
}

/// Volume of the Weyl chamber tetrahedron (1/24).
pub fn chamber_volume() -> f64 {
    Tetrahedron::new([
        WeylCoord::IDENTITY,
        WeylCoord::IDENTITY_1,
        WeylCoord::ISWAP,
        WeylCoord::SWAP,
    ])
    .volume()
}

/// Draws a point uniformly from the Weyl chamber by rejection sampling.
pub fn sample_chamber<R: Rng + ?Sized>(rng: &mut R) -> WeylCoord {
    loop {
        let x = rng.gen::<f64>();
        let y = rng.gen::<f64>() * 0.5;
        let z = rng.gen::<f64>() * 0.5;
        let p = WeylCoord::new(x, y, z);
        if p.in_chamber(0.0) && p.z <= p.y && p.y <= p.x.min(1.0 - p.x) + 0.5 {
            // The quick pre-filter above keeps rejection cheap; the real
            // test is in_chamber.
            if y <= x && x + y <= 1.0 && z <= y {
                return p;
            }
        }
    }
}

/// Monte-Carlo estimate of the chamber volume fraction satisfying `pred`.
pub fn volume_fraction<R: Rng + ?Sized>(
    pred: impl Fn(WeylCoord) -> bool,
    samples: u32,
    rng: &mut R,
) -> f64 {
    let mut hits = 0u32;
    for _ in 0..samples {
        if pred(sample_chamber(rng)) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Finds the first index in a coordinate sequence (a Cartan trajectory
/// sampled in time order) that satisfies the selection criterion, requiring
/// a minimum entangling power to skip spurious early points.
pub fn first_crossing(
    coords: &[WeylCoord],
    criterion: SelectionCriterion,
    min_entangling_power: f64,
) -> Option<usize> {
    coords
        .iter()
        .position(|&c| criterion.accepts(c) && entangling_power(c) >= min_entangling_power)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complement_volumes_match_paper() {
        let chamber = chamber_volume();
        assert!((chamber - 1.0 / 24.0).abs() < 1e-12);
        let swap3: f64 = swap3_complement().iter().map(|t| t.tet.volume()).sum();
        // 2/288 + 2/324 = 0.0131173...; fraction 31.48%.
        assert!(
            ((swap3 / chamber) - 0.31481).abs() < 1e-4,
            "{}",
            swap3 / chamber
        );
        let cnot2: f64 = cnot2_complement().iter().map(|t| t.tet.volume()).sum();
        assert!(
            ((cnot2 / chamber) - 0.25).abs() < 1e-9,
            "{}",
            cnot2 / chamber
        );
    }

    #[test]
    fn monte_carlo_volumes_match_paper() {
        let mut rng = StdRng::seed_from_u64(99);
        let s3 = volume_fraction(can_swap_in_3, 40_000, &mut rng);
        assert!((s3 - 0.685).abs() < 0.01, "S_SWAP,3 fraction {s3}");
        let c2 = volume_fraction(can_cnot_in_2, 40_000, &mut rng);
        assert!((c2 - 0.75).abs() < 0.01, "S_CNOT,2 fraction {c2}");
        let pe = volume_fraction(|p| crate::is_perfect_entangler(p, 0.0), 40_000, &mut rng);
        assert!((pe - 0.5).abs() < 0.01, "PE fraction {pe}");
    }

    #[test]
    fn known_gates_swap_layers() {
        assert_eq!(min_layers_for_swap(WeylCoord::SWAP), Some(1));
        assert_eq!(min_layers_for_swap(WeylCoord::B_GATE), Some(2));
        assert_eq!(min_layers_for_swap(WeylCoord::SQRT_SWAP), Some(2));
        assert_eq!(min_layers_for_swap(WeylCoord::CNOT), Some(3));
        assert_eq!(min_layers_for_swap(WeylCoord::ISWAP), Some(3));
        assert_eq!(min_layers_for_swap(WeylCoord::SQRT_ISWAP), Some(3));
        assert_eq!(min_layers_for_swap(WeylCoord::new(0.05, 0.02, 0.01)), None);
    }

    #[test]
    fn cnot_two_layer_anchors() {
        assert!(can_cnot_in_2(WeylCoord::SQRT_ISWAP));
        assert!(can_cnot_in_2(WeylCoord::CNOT));
        assert!(can_cnot_in_2(WeylCoord::B_GATE));
        assert!(!can_cnot_in_2(WeylCoord::new(0.1, 0.05, 0.02)));
        // Near-SWAP gates cannot do CNOT in 2 layers.
        assert!(!can_cnot_in_2(WeylCoord::new(0.5, 0.45, 0.4)));
    }

    #[test]
    fn mirror_pair_synthesis() {
        assert!(can_swap_in_2_pair(WeylCoord::CNOT, WeylCoord::ISWAP, 1e-9));
        assert!(!can_swap_in_2_pair(WeylCoord::CNOT, WeylCoord::CNOT, 1e-6));
        assert!(can_swap_in_2_pair(
            WeylCoord::B_GATE,
            WeylCoord::B_GATE,
            1e-9
        ));
    }

    #[test]
    fn criterion_predicates() {
        // sqrt(iSWAP) satisfies both criteria (it is on the boundary faces).
        assert!(SelectionCriterion::SwapIn3.accepts(WeylCoord::SQRT_ISWAP));
        assert!(SelectionCriterion::SwapIn3CnotIn2.accepts(WeylCoord::SQRT_ISWAP));
        // A near-SWAP point: able to synthesize SWAP in 3 layers but not
        // CNOT in 2 layers (inside the top CNOT-complement tetrahedron).
        let p = WeylCoord::new(0.5, 0.5, 0.3);
        assert!(SelectionCriterion::SwapIn3.accepts(p));
        assert!(!SelectionCriterion::SwapIn3CnotIn2.accepts(p));
        // A point before the x + y = 1/2 face fails both criteria.
        let q = WeylCoord::new(0.26, 0.22, 0.0);
        assert!(!SelectionCriterion::SwapIn3.accepts(q));
        assert!(!SelectionCriterion::SwapIn3CnotIn2.accepts(q));
    }

    #[test]
    fn first_crossing_on_xy_trajectory() {
        // Idealized XY trajectory from I toward iSWAP: (t/2, t/2, 0).
        let coords: Vec<WeylCoord> = (0..=100)
            .map(|k| {
                let t = k as f64 / 100.0;
                WeylCoord::new(t / 2.0, t / 2.0, 0.0)
            })
            .collect();
        let i1 = first_crossing(&coords, SelectionCriterion::SwapIn3, 0.0).unwrap();
        // Crossing of the x + y = 1/2 face happens at t = 1/2 (sqrt-iSWAP).
        assert_eq!(i1, 50);
        let i2 = first_crossing(&coords, SelectionCriterion::SwapIn3CnotIn2, 0.0).unwrap();
        assert_eq!(i2, 50);
    }

    #[test]
    fn sample_chamber_stays_inside() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(sample_chamber(&mut rng).in_chamber(0.0));
        }
    }
}
