//! Static (drive-off) spectral analysis: dressed states, static ZZ, and
//! the zero-ZZ coupler bias search (paper Section VIII-B, steps 1-2).

use crate::hamiltonian::{CellTerms, UnitCellHamiltonian};
use crate::params::UnitCellParams;
#[cfg(test)]
use nsb_math::DMat;
use nsb_math::{eigh, Complex64};

/// Dressed computational frame of a unit cell: the four eigenstates
/// adiabatically connected to `|00>, |01>, |10>, |11>` (qubit order `a b`,
/// coupler in its ground state).
#[derive(Clone, Debug)]
pub(crate) struct DressedFrame {
    /// Dressed state vectors as columns, order `|00>, |01>, |10>, |11>`.
    pub(crate) states: [Vec<Complex64>; 4],
    /// Dressed energies in the same order.
    pub(crate) energies: [f64; 4],
    /// Hilbert-space dimension.
    pub(crate) dim: usize,
}

impl DressedFrame {
    /// Computes the dressed frame from the static Hamiltonian.
    ///
    /// # Panics
    ///
    /// Panics when the computational subspace cannot be identified
    /// (hybridization too strong); use
    /// [`DressedFrame::try_from_hamiltonian`] to handle that case.
    #[cfg(test)]
    pub(crate) fn from_hamiltonian(h: &UnitCellHamiltonian) -> Self {
        DressedFrame::try_from_hamiltonian(h)
            .expect("dressed state identification ambiguous: overlap below 0.5")
    }

    /// Fallible variant of [`DressedFrame::from_hamiltonian`]: returns
    /// `None` when some computational state has less than 50% overlap with
    /// every remaining eigenvector (e.g. coupler resonant with a qubit), or
    /// is not simulated at all (one level per mode).
    pub(crate) fn try_from_hamiltonian(h: &UnitCellHamiltonian) -> Option<Self> {
        let e = eigh(&h.h_static);
        let dim = h.dim();
        let bare = [
            h.bare_index(0, 0, 0)?,
            h.bare_index(0, 1, 0)?,
            h.bare_index(1, 0, 0)?,
            h.bare_index(1, 1, 0)?,
        ];
        let mut used = vec![false; dim];
        let mut states: [Vec<Complex64>; 4] = Default::default();
        let mut energies = [0.0f64; 4];
        for (slot, &b) in bare.iter().enumerate() {
            // Find the eigenvector with maximal overlap with the bare state.
            let mut best = (0usize, -1.0f64);
            for (col, &taken) in used.iter().enumerate() {
                if taken {
                    continue;
                }
                let ov = e.vectors[(b, col)].norm_sqr();
                if ov > best.1 {
                    best = (col, ov);
                }
            }
            if best.1 <= 0.5 {
                return None;
            }
            used[best.0] = true;
            let mut v: Vec<Complex64> = (0..dim).map(|r| e.vectors[(r, best.0)]).collect();
            // Fix the phase so the bare component is real positive.
            let phase = v[b].arg();
            let rot = Complex64::cis(-phase);
            for z in &mut v {
                *z *= rot;
            }
            states[slot] = v;
            energies[slot] = e.values[best.0];
        }
        Some(DressedFrame {
            states,
            energies,
            dim,
        })
    }

    /// Dressed qubit-a frequency `E10 - E00`.
    pub(crate) fn omega_a_dressed(&self) -> f64 {
        self.energies[2] - self.energies[0]
    }

    /// Dressed qubit-b frequency `E01 - E00`.
    pub(crate) fn omega_b_dressed(&self) -> f64 {
        self.energies[1] - self.energies[0]
    }

    /// Static ZZ rate `zeta = E11 - E10 - E01 + E00` (rad/ns).
    pub(crate) fn static_zz(&self) -> f64 {
        self.energies[3] - self.energies[2] - self.energies[1] + self.energies[0]
    }

    /// Projects a full-space propagator onto the computational subspace,
    /// returning the raw (not yet unitary) 4x4 block: the tests' reference
    /// for [`DressedFrame::project_rows`].
    #[cfg(test)]
    pub(crate) fn project(&self, u: &DMat) -> nsb_math::Mat4 {
        let mut m = nsb_math::Mat4::zero();
        for (j, ket) in self.states.iter().enumerate() {
            let col = u.mul_vec(ket);
            for (i, bra) in self.states.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for r in 0..self.dim {
                    acc += bra[r].conj() * col[r];
                }
                m[(i, j)] = acc;
            }
        }
        m
    }

    /// The dressed computational basis `P` (`dim x 4`, one column per
    /// dressed state), stored by rows.
    ///
    /// Evolving the block `Y = U P` directly (instead of the full `dim x
    /// dim` propagator) cuts the per-step cost by `dim / 4` while
    /// computing the exact same projected gate `P^dagger U P`.
    pub(crate) fn basis_rows(&self) -> Vec<[Complex64; 4]> {
        (0..self.dim)
            .map(|r| self.states.each_ref().map(|ket| ket[r]))
            .collect()
    }

    /// Projects an already-right-multiplied block `Y = U P` (`dim x 4`,
    /// by rows) onto the computational subspace: returns `P^dagger Y`.
    ///
    /// # Panics
    ///
    /// Panics when `y` does not have `dim` rows.
    pub(crate) fn project_rows(&self, y: &[[Complex64; 4]]) -> nsb_math::Mat4 {
        assert_eq!(y.len(), self.dim, "block row mismatch");
        let mut m = nsb_math::Mat4::zero();
        for (i, bra) in self.states.iter().enumerate() {
            for j in 0..4 {
                let mut acc = Complex64::ZERO;
                for (b, row) in bra.iter().zip(y) {
                    acc += b.conj() * row[j];
                }
                m[(i, j)] = acc;
            }
        }
        m
    }
}

/// `U Y` for a `dim x 4` block stored by rows: the tests' way to apply a
/// full propagator to [`DressedFrame::basis_rows`].
#[cfg(test)]
pub(crate) fn mul_rows(u: &DMat, y: &[[Complex64; 4]]) -> Vec<[Complex64; 4]> {
    (0..u.rows())
        .map(|i| {
            let mut acc = [Complex64::ZERO; 4];
            for (k, row) in y.iter().enumerate() {
                for (o, b) in acc.iter_mut().zip(row) {
                    *o += u[(i, k)] * *b;
                }
            }
            acc
        })
        .collect()
}

/// Static ZZ at a trial coupler bias (rad/ns); `NaN` when the
/// computational subspace cannot be identified at that bias.
pub(crate) fn static_zz_at(terms: &CellTerms, omega_c: f64) -> f64 {
    match DressedFrame::try_from_hamiltonian(&terms.at_bias(omega_c)) {
        Some(f) => f.static_zz(),
        None => f64::NAN,
    }
}

/// Searches for the coupler bias that zeroes the static ZZ between the two
/// qubits, scanning between the qubit frequencies and bisecting the first
/// sign change; falls back to the scan minimum of `|zeta|` when no crossing
/// exists in the window.
///
/// `terms` are the cell's bias-independent terms, assembled once, so each
/// trial bias adds only the coupler term.
///
/// Returns the biased parameters and the residual ZZ there.
pub(crate) fn zero_zz_bias(params: &UnitCellParams, terms: &CellTerms) -> (UnitCellParams, f64) {
    let lo = params.omega_a + 0.12 * params.detuning();
    let hi = params.omega_b - 0.12 * params.detuning();
    let n = 120;
    // Scan; collect all sign-change brackets. Note that ZZ flips sign both
    // at genuine zeros and at *poles* (level-crossing resonances), so each
    // bracket is bisected and judged by the residual it actually reaches.
    let mut samples: Vec<(f64, f64)> = Vec::with_capacity(n + 1);
    for k in 0..=n {
        let w = lo + (hi - lo) * k as f64 / n as f64;
        let z = static_zz_at(terms, w);
        if z.is_finite() {
            samples.push((w, z));
        }
    }
    let mut best = (params.omega_c, f64::INFINITY);
    for &(w, z) in &samples {
        if z.abs() < best.1.abs() {
            best = (w, z);
        }
    }
    for pair in samples.windows(2) {
        let ((mut a, mut za), (mut b, _zb)) = (pair[0], pair[1]);
        if pair[0].1.signum() == pair[1].1.signum() {
            continue;
        }
        for _ in 0..48 {
            let mid = (a + b) / 2.0;
            let zm = static_zz_at(terms, mid);
            if !zm.is_finite() {
                break;
            }
            if zm.abs() < 1e-13 {
                a = mid;
                za = zm;
                break;
            }
            if za.signum() == zm.signum() {
                a = mid;
                za = zm;
            } else {
                b = mid;
            }
        }
        // A pole bracket converges to a large |zz|; a zero bracket to ~0.
        if za.abs() < best.1.abs() {
            best = (a, za);
        }
    }
    let tuned = UnitCellParams {
        omega_c: best.0,
        ..*params
    };
    (tuned, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ghz;

    #[test]
    fn dressed_frame_identifies_four_states() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        let f = DressedFrame::from_hamiltonian(&h);
        // Dressed frequencies near the bare ones (Lamb shift ~ g^2/Delta
        // is ~2pi*0.16 GHz at the default coupling).
        assert!((f.omega_a_dressed() - p.omega_a).abs() < ghz(0.35));
        assert!((f.omega_b_dressed() - p.omega_b).abs() < ghz(0.35));
        // States are normalized and mutually orthogonal.
        for i in 0..4 {
            let n: f64 = f.states[i].iter().map(|z| z.norm_sqr()).sum();
            assert!((n - 1.0).abs() < 1e-10);
            for j in (i + 1)..4 {
                let ov: Complex64 = f.states[i]
                    .iter()
                    .zip(&f.states[j])
                    .map(|(x, y)| x.conj() * *y)
                    .sum();
                assert!(ov.abs() < 1e-10);
            }
        }
    }

    #[test]
    fn projection_of_identity_is_identity() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        let f = DressedFrame::from_hamiltonian(&h);
        let m = f.project(&DMat::identity(h.dim()));
        assert!(m.approx_eq(&nsb_math::Mat4::identity(), 1e-10));
    }

    #[test]
    fn block_projection_matches_full_projection() {
        let p = UnitCellParams::default();
        let h = UnitCellHamiltonian::new(&p);
        let f = DressedFrame::from_hamiltonian(&h);
        // A dense non-unitary test operator with deterministic entries.
        let u = DMat::from_vec(
            h.dim(),
            h.dim(),
            (0..h.dim() * h.dim())
                .map(|k| Complex64::new((k as f64 * 0.13).sin(), (k as f64 * 0.07).cos()))
                .collect(),
        );
        let full = f.project(&u);
        let y = mul_rows(&u, &f.basis_rows());
        let block = f.project_rows(&y);
        assert!(block.approx_eq(&full, 1e-10));
    }

    #[test]
    fn zero_zz_bias_reduces_zz() {
        let p = UnitCellParams::default();
        let terms = CellTerms::new(&p);
        let before = static_zz_at(&terms, p.omega_c).abs();
        let (tuned, residual) = zero_zz_bias(&p, &terms);
        assert!(
            residual.abs() <= before + 1e-12,
            "residual {residual} vs before {before}"
        );
        // The tuned point should have tiny ZZ: well below 2 pi * 100 kHz.
        assert!(
            residual.abs() < ghz(1e-4),
            "residual ZZ too large: {} GHz",
            residual / ghz(1.0)
        );
        assert!(tuned.omega_c > p.omega_a && tuned.omega_c < p.omega_b);
    }
}
