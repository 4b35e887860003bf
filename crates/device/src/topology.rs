//! Grid coupling topology (paper Figure 7: a 10x10 lattice).

/// A rectangular grid of qubits with nearest-neighbor coupling.
///
/// Qubit `(row, col)` has index `row * width + col`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridTopology {
    width: usize,
    height: usize,
}

impl GridTopology {
    /// Creates a `width x height` grid.
    ///
    /// # Panics
    ///
    /// Panics for an empty grid.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 1 && height >= 1, "empty grid");
        GridTopology { width, height }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.width * self.height
    }

    /// Row and column of a qubit index.
    pub fn position(&self, q: usize) -> (usize, usize) {
        (q / self.width, q % self.width)
    }

    /// Qubit index at a position.
    pub fn qubit_at(&self, row: usize, col: usize) -> usize {
        row * self.width + col
    }

    /// All coupling edges `(low, high)` in a fixed deterministic order:
    /// horizontal edges row by row, then vertical edges.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut e = Vec::new();
        for r in 0..self.height {
            for c in 0..self.width.saturating_sub(1) {
                e.push((self.qubit_at(r, c), self.qubit_at(r, c + 1)));
            }
        }
        for r in 0..self.height.saturating_sub(1) {
            for c in 0..self.width {
                e.push((self.qubit_at(r, c), self.qubit_at(r + 1, c)));
            }
        }
        e
    }

    /// Index of the edge `(a, b)` in [`GridTopology::edges`] order, if
    /// both qubits are on the grid and adjacent.
    pub fn edge_index(&self, a: usize, b: usize) -> Option<usize> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi >= self.n_qubits() {
            return None;
        }
        let (r, c) = self.position(lo);
        let horizontal_count = self.height * (self.width - 1);
        if hi == lo + 1 && c + 1 < self.width {
            Some(r * (self.width - 1) + c)
        } else if hi == lo + self.width && r + 1 < self.height {
            Some(horizontal_count + r * self.width + c)
        } else {
            None
        }
    }

    /// Whether two qubits are coupled.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.edge_index(a, b).is_some()
    }

    /// Neighbors of a qubit.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        let (r, c) = self.position(q);
        let mut out = Vec::with_capacity(4);
        if c > 0 {
            out.push(self.qubit_at(r, c - 1));
        }
        if c + 1 < self.width {
            out.push(self.qubit_at(r, c + 1));
        }
        if r > 0 {
            out.push(self.qubit_at(r - 1, c));
        }
        if r + 1 < self.height {
            out.push(self.qubit_at(r + 1, c));
        }
        out
    }

    /// All-pairs shortest-path distances (Manhattan on a grid).
    pub fn distances(&self) -> Vec<Vec<usize>> {
        let n = self.n_qubits();
        let mut d = vec![vec![0usize; n]; n];
        for (a, row) in d.iter_mut().enumerate() {
            let (ra, ca) = self.position(a);
            for (b, slot) in row.iter_mut().enumerate() {
                let (rb, cb) = self.position(b);
                *slot = ra.abs_diff(rb) + ca.abs_diff(cb);
            }
        }
        d
    }

    /// A proper edge coloring with at most 4 colors (horizontal edges by
    /// column parity, vertical by row parity), used to schedule parallel
    /// calibration: same-color edges share no qubit (paper Section VI).
    pub fn edge_coloring(&self) -> Vec<usize> {
        self.edges()
            .iter()
            .map(|&(a, b)| {
                let (ra, ca) = self.position(a);
                let (_, cb) = self.position(b);
                if ca != cb {
                    ca % 2
                } else {
                    2 + ra % 2
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_by_ten_has_180_edges() {
        let g = GridTopology::new(10, 10);
        assert_eq!(g.n_qubits(), 100);
        assert_eq!(g.edges().len(), 180);
    }

    #[test]
    fn edge_index_round_trip() {
        let g = GridTopology::new(4, 3);
        for (i, &(a, b)) in g.edges().iter().enumerate() {
            assert_eq!(g.edge_index(a, b), Some(i));
            assert_eq!(g.edge_index(b, a), Some(i));
            assert!(g.are_adjacent(a, b));
        }
        assert_eq!(g.edge_index(0, 5), None);
        assert!(!g.are_adjacent(0, 2));
    }

    #[test]
    fn edge_index_rejects_qubits_off_the_grid() {
        for g in [GridTopology::new(3, 2), GridTopology::new(4, 3)] {
            let n = g.n_qubits();
            for (a, b) in [(n - 1, n), (n, n + 1), (2 * n, 2 * n + 1)] {
                assert_eq!(g.edge_index(a, b), None, "({a}, {b}) on {g:?}");
                assert_eq!(g.edge_index(b, a), None, "({b}, {a}) on {g:?}");
            }
        }
        // `new` rejects an empty grid; the lookup must not underflow either.
        let empty = GridTopology {
            width: 0,
            height: 3,
        };
        assert_eq!(empty.edge_index(0, 1), None);
    }

    #[test]
    fn neighbors_of_corner_and_center() {
        let g = GridTopology::new(3, 3);
        assert_eq!(g.neighbors(0), vec![1, 3]);
        let mut center = g.neighbors(4);
        center.sort();
        assert_eq!(center, vec![1, 3, 5, 7]);
    }

    #[test]
    fn distances_are_manhattan() {
        let g = GridTopology::new(5, 5);
        let d = g.distances();
        assert_eq!(d[0][24], 8);
        assert_eq!(d[0][0], 0);
        assert_eq!(d[2][22], 4);
    }

    #[test]
    fn edge_coloring_is_proper_with_4_colors() {
        let g = GridTopology::new(10, 10);
        let colors = g.edge_coloring();
        let edges = g.edges();
        assert!(colors.iter().all(|&c| c < 4));
        for i in 0..edges.len() {
            for j in (i + 1)..edges.len() {
                if colors[i] != colors[j] {
                    continue;
                }
                let (a, b) = edges[i];
                let (c, d) = edges[j];
                assert!(
                    a != c && a != d && b != c && b != d,
                    "same-color edges {i} and {j} share a qubit"
                );
            }
        }
    }
}
