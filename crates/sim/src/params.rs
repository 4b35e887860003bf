//! Physical parameters of the case-study entangling architecture: two
//! fixed-frequency, far-detuned transmons coupled through a flux-tunable
//! coupler (paper Section VIII-A, Appendix A; architecture of Petrescu et
//! al. [7] / Guinn et al. [43]).

/// Converts a frequency in GHz to an angular frequency in rad/ns.
pub(crate) fn ghz(f: f64) -> f64 {
    2.0 * std::f64::consts::PI * f
}

/// Parameters of one qubit-coupler-qubit unit cell.
///
/// All frequencies are angular (rad/ns); times are in ns. Qubit `a` is the
/// lower-frequency transmon, `b` the higher-frequency one; the two are
/// detuned by ~2 GHz so single-qubit control crosstalk is negligible and
/// decoherence dominates the error budget.
#[derive(Clone, Copy, Debug)]
pub struct UnitCellParams {
    /// Qubit a frequency.
    pub omega_a: f64,
    /// Qubit b frequency.
    pub omega_b: f64,
    /// Qubit a anharmonicity (negative for transmons).
    pub alpha_a: f64,
    /// Qubit b anharmonicity.
    pub alpha_b: f64,
    /// Coupler DC bias frequency (tuned to the zero-ZZ point).
    pub omega_c: f64,
    /// Coupler anharmonicity (positive for the generalized flux qubit,
    /// balancing the transmons' negative anharmonicity to create the
    /// zero-ZZ bias point).
    pub alpha_c: f64,
    /// Direct qubit-qubit capacitive coupling.
    pub g_ab: f64,
    /// Qubit b to coupler coupling.
    pub g_bc: f64,
    /// Coupler to qubit a coupling.
    pub g_ca: f64,
    /// Flux-to-frequency drive transfer: the coupler-frequency modulation
    /// depth per unit of drive amplitude `xi` (in units of Phi_0):
    /// `delta = drive_transfer * xi`.
    pub drive_transfer: f64,
    /// Number of levels retained per mode in simulation (3 captures the
    /// leakage and anharmonicity physics; 2 is available for fast tests).
    pub levels: usize,
}

impl Default for UnitCellParams {
    fn default() -> Self {
        UnitCellParams {
            omega_a: ghz(4.3),
            omega_b: ghz(6.3),
            alpha_a: ghz(-0.25),
            alpha_b: ghz(-0.25),
            omega_c: ghz(5.30),
            alpha_c: ghz(0.60),
            g_ab: ghz(0.012),
            g_bc: ghz(0.40),
            g_ca: ghz(0.40),
            drive_transfer: ghz(3.9),
            levels: 3,
        }
    }
}

impl UnitCellParams {
    /// Builds a unit cell for the given bare qubit frequencies (GHz),
    /// keeping the default anharmonicities and couplings. The coupler
    /// starts midway between the qubits; call the zero-ZZ search to bias
    /// it properly.
    pub fn with_qubit_frequencies(f_a_ghz: f64, f_b_ghz: f64) -> Self {
        let (lo, hi) = if f_a_ghz <= f_b_ghz {
            (f_a_ghz, f_b_ghz)
        } else {
            (f_b_ghz, f_a_ghz)
        };
        UnitCellParams {
            omega_a: ghz(lo),
            omega_b: ghz(hi),
            omega_c: ghz((lo + hi) / 2.0),
            ..UnitCellParams::default()
        }
    }

    /// Qubit-qubit detuning `|omega_b - omega_a|`.
    pub(crate) fn detuning(&self) -> f64 {
        (self.omega_b - self.omega_a).abs()
    }

    /// Coupler modulation depth for a drive amplitude `xi` (in Phi_0).
    pub(crate) fn modulation_depth(&self, xi: f64) -> f64 {
        self.drive_transfer * xi
    }
}

/// The entangling drive applied to the coupler:
/// `omega_c(t) = omega_c + delta * env(t) * sin(omega_d * t)`.
///
/// The envelope is flat-top with a `sin^2` rise of `ramp` ns and a matching
/// fall — the "flat top with a short rise time" option the paper describes
/// for ~10 ns gates. Setting `ramp = 0` recovers the hard rectangular
/// pulse, at the price of extra non-adiabatic coupler leakage.
#[derive(Clone, Copy, Debug)]
pub struct DriveParams {
    /// Modulation depth `delta` (rad/ns).
    pub delta: f64,
    /// Drive angular frequency `omega_d` (rad/ns).
    pub omega_d: f64,
    /// Rise/fall time of the flat-top envelope (ns).
    pub(crate) ramp: f64,
}

impl DriveParams {
    /// Envelope value during the rise (and mirrored during the fall).
    pub(crate) fn rise_envelope(&self, t: f64) -> f64 {
        if self.ramp <= 0.0 || t >= self.ramp {
            1.0
        } else if t <= 0.0 {
            0.0
        } else {
            let s = (std::f64::consts::FRAC_PI_2 * t / self.ramp).sin();
            s * s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_far_detuned() {
        let p = UnitCellParams::default();
        assert!((p.detuning() - ghz(2.0)).abs() < 1e-9);
        assert!(p.alpha_a < 0.0 && p.alpha_c > 0.0);
    }

    #[test]
    fn frequency_constructor_orders_qubits() {
        let p = UnitCellParams::with_qubit_frequencies(6.1, 4.2);
        assert!(p.omega_a < p.omega_b);
        assert!((p.omega_c - ghz(5.15)).abs() < 1e-9);
    }

    #[test]
    fn modulation_scales_linearly() {
        let p = UnitCellParams::default();
        let d1 = p.modulation_depth(0.005);
        let d2 = p.modulation_depth(0.04);
        assert!((d2 / d1 - 8.0).abs() < 1e-12);
    }
}
