//! Time evolution of the driven unit cell and extraction of the effective
//! two-qubit gate (paper Section VIII-B, step 4).
//!
//! The propagator is integrated with a Strang splitting exploiting the
//! structure `H(t) = H0 + s(t) N_c` with *diagonal* `N_c`:
//!
//! ```text
//! U(t+dt, t) ~ E0 D(s(t + dt/2)) E0,   E0 = exp(-i H0 dt/2)
//! ```
//!
//! `E0` is precomputed once, `D` is a diagonal phase, so each step costs a
//! diagonal scale plus one dense matmul (the two half-steps of consecutive
//! steps are merged). Local error is O(dt^3).
//!
//! Only the projected gate `P^dagger U P` is ever observed, so the
//! integrator evolves the `dim x 4` block `Y = U P` (with `P` the dressed
//! computational basis columns) instead of the full propagator: each step's
//! matmul shrinks by `dim / 4`, and all step storage is preallocated and
//! ping-ponged via [`DMat::mul_into`] so the hot loop is allocation-free.
//!
//! The drive uses a flat-top envelope with `sin^2` rise/fall of
//! [`DriveParams::ramp`] ns: the rise is part of the shared prefix
//! evolution, and each sampled gate gets its own short fall segment, so a
//! gate of reported duration `t` corresponds to the pulse
//! `rise(ramp) + flat + fall(ramp)` ending at `t`.

use crate::hamiltonian::UnitCellHamiltonian;
use crate::params::DriveParams;
use crate::spectrum::DressedFrame;
use nsb_math::{expm_i_h_t, polar_unitary4, Complex64, DMat, Mat4};

/// Default integrator step (ns); chosen so accumulated phase error over a
/// few hundred ns is well below the decoherence scale.
pub(crate) const DEFAULT_DT: f64 = 0.01;

/// A snapshot of the evolving gate at one sample time.
#[derive(Clone, Debug)]
pub(crate) struct GateSnapshot {
    /// Entangling pulse duration (ns), including the envelope fall.
    pub(crate) t: f64,
    /// The effective two-qubit gate: rotating-frame projected propagator,
    /// polar-projected to the nearest unitary.
    pub(crate) gate: Mat4,
    /// Leakage out of the computational subspace,
    /// `1 - ||projection||_F^2 / 4`.
    pub(crate) leakage: f64,
}

/// Precomputed stepping machinery for one unit cell.
struct Stepper {
    e_half: DMat,
    e_full: DMat,
    dt: f64,
    /// Row -> index into `nc_values` for the diagonal drive operator.
    nc_index: Vec<usize>,
    /// The few distinct values on the `N_c` diagonal (one per coupler
    /// level), so per-step phases are computed once per value, not per row.
    nc_values: Vec<f64>,
}

impl Stepper {
    fn new(h: &UnitCellHamiltonian, dt: f64) -> Self {
        let e_half = expm_i_h_t(&h.h_static, dt / 2.0);
        let e_full = &e_half * &e_half;
        let mut nc_values: Vec<f64> = Vec::new();
        let mut nc_index = Vec::with_capacity(h.dim);
        for r in 0..h.dim {
            let nc = h.n_c[(r, r)].re;
            #[expect(
                clippy::float_cmp,
                reason = "N_c diagonal entries are exact occupation numbers; exact dedup keeps trajectories bit-identical"
            )]
            let idx = match nc_values.iter().position(|&v| v == nc) {
                Some(i) => i,
                None => {
                    nc_values.push(nc);
                    nc_values.len() - 1
                }
            };
            nc_index.push(idx);
        }
        Stepper {
            e_half,
            e_full,
            dt,
            nc_index,
            nc_values,
        }
    }

    /// Advances the block `u` in place by `steps` Strang steps starting at
    /// time `*t`, with the drive strength given by `s_of_t`.
    ///
    /// `u` may have any number of columns (the full propagator or a
    /// projected block); `scratch` must have the same shape. The step loop
    /// allocates nothing: matmuls ping-pong between `u` and `scratch`.
    fn advance(
        &self,
        t: &mut f64,
        u: &mut DMat,
        scratch: &mut DMat,
        phases: &mut [Complex64],
        steps: usize,
        s_of_t: impl Fn(f64) -> f64,
    ) {
        if steps == 0 {
            return;
        }
        assert_eq!(phases.len(), self.nc_values.len());
        let dt = self.dt;
        let cols = u.cols();
        self.e_half.mul_into(u, scratch);
        std::mem::swap(u, scratch);
        for k in 0..steps {
            let tm = *t + (k as f64 + 0.5) * dt;
            let s = s_of_t(tm);
            for (slot, &v) in phases.iter_mut().zip(&self.nc_values) {
                *slot = Complex64::cis(-s * v * dt);
            }
            for (r, &idx) in self.nc_index.iter().enumerate() {
                // Exact-zero coupling rows are a no-op phase; ±0.0 both
                // classify as Zero, matching the old `== 0.0` fast path.
                if self.nc_values[idx].classify() == std::num::FpCategory::Zero {
                    continue;
                }
                let phase = phases[idx];
                for c in 0..cols {
                    u[(r, c)] *= phase;
                }
            }
            let step_op = if k + 1 < steps {
                &self.e_full
            } else {
                &self.e_half
            };
            step_op.mul_into(u, scratch);
            std::mem::swap(u, scratch);
        }
        *t += steps as f64 * dt;
    }
}

/// Integrates the driven evolution and samples the effective gate every
/// `sample_every` ns up to `t_max` ns.
///
/// The gate is reported in the rotating frame of the dressed qubit
/// frequencies, so an undriven cell yields gates that stay near the
/// identity (up to residual ZZ).
pub(crate) fn evolve_and_sample(
    h: &UnitCellHamiltonian,
    frame: &DressedFrame,
    drive: &DriveParams,
    t_max: f64,
    sample_every: f64,
    dt: f64,
) -> Vec<GateSnapshot> {
    let stepper = Stepper::new(h, dt);
    let steps_per_sample = (sample_every / dt).round().max(1.0) as usize;
    let n_samples = (t_max / sample_every).round() as usize;
    let fall_steps = (drive.ramp / dt).round() as usize;
    let rise = |tm: f64| drive.delta * drive.rise_envelope(tm) * (drive.omega_d * tm).sin();
    // Evolve the projected block Y = U P; all step storage lives here and
    // is reused across samples.
    let mut y = frame.basis_columns();
    let mut scratch = DMat::zeros(h.dim, 4);
    let mut fall_y = DMat::zeros(h.dim, 4);
    let mut phases = vec![Complex64::ZERO; stepper.nc_values.len()];
    let mut snapshots = Vec::with_capacity(n_samples);
    let mut t = 0.0f64;
    for _ in 0..n_samples {
        stepper.advance(
            &mut t,
            &mut y,
            &mut scratch,
            &mut phases,
            steps_per_sample,
            rise,
        );
        let total_t = t + if fall_steps > 0 { drive.ramp } else { 0.0 };
        // Append the envelope fall: the pulse for THIS gate candidate ends
        // here, ramping the drive down over `ramp` ns, phase-continuous
        // with the shared flat-top prefix evolution.
        if fall_steps > 0 {
            let t_flat_end = t;
            let fall = |tm: f64| {
                let tau = tm - t_flat_end;
                let env = drive.rise_envelope(drive.ramp - tau);
                drive.delta * env * (drive.omega_d * tm).sin()
            };
            fall_y.copy_from(&y);
            let mut t_local = t_flat_end;
            stepper.advance(
                &mut t_local,
                &mut fall_y,
                &mut scratch,
                &mut phases,
                fall_steps,
                fall,
            );
            snapshots.push(snapshot_cols(frame, &fall_y, total_t));
        } else {
            snapshots.push(snapshot_cols(frame, &y, total_t));
        }
    }
    snapshots
}

fn snapshot_cols(frame: &DressedFrame, y: &DMat, t: f64) -> GateSnapshot {
    let raw = frame.project_cols(y);
    let norm2 = raw.norm() * raw.norm();
    let leakage = (1.0 - norm2 / 4.0).max(0.0);
    // Rotating frame: remove the dressed single-qubit phase evolution.
    let e00 = frame.energies[0];
    let wa = frame.omega_a_dressed();
    let wb = frame.omega_b_dressed();
    let mut rotated = Mat4::zero();
    for i in 0..4 {
        let (na, nb) = ((i >> 1) & 1, i & 1);
        let phase = Complex64::cis((e00 + na as f64 * wa + nb as f64 * wb) * t);
        for j in 0..4 {
            rotated[(i, j)] = phase * raw.at(i, j);
        }
    }
    let gate = polar_unitary4(&rotated);
    GateSnapshot { t, gate, leakage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ghz, UnitCellParams};
    use crate::spectrum::zero_zz_bias;

    fn small_setup() -> (UnitCellHamiltonian, DressedFrame, UnitCellParams) {
        let (p, _) = zero_zz_bias(&UnitCellParams::default());
        let h = UnitCellHamiltonian::new(&p);
        let f = DressedFrame::from_hamiltonian(&h);
        (h, f, p)
    }

    #[test]
    fn undriven_evolution_stays_near_identity() {
        let (h, f, _p) = small_setup();
        let drive = DriveParams {
            delta: 0.0,
            omega_d: ghz(2.0),
            ramp: 0.0,
        };
        let snaps = evolve_and_sample(&h, &f, &drive, 10.0, 5.0, 0.02);
        for s in &snaps {
            assert!(s.leakage < 1e-6, "leakage {}", s.leakage);
            assert!(
                s.gate.approx_eq_up_to_phase(&Mat4::identity(), 1e-3),
                "gate at t={} drifted: {}",
                s.t,
                s.gate
            );
        }
    }

    #[test]
    fn propagator_samples_are_unitary() {
        let (h, f, p) = small_setup();
        let drive = DriveParams {
            delta: p.modulation_depth(0.02),
            omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
            ramp: 1.0,
        };
        let snaps = evolve_and_sample(&h, &f, &drive, 8.0, 2.0, 0.02);
        assert_eq!(snaps.len(), 4);
        for s in &snaps {
            assert!(s.gate.is_unitary(1e-9));
            assert!(s.leakage >= 0.0 && s.leakage < 0.2);
        }
    }

    #[test]
    fn splitting_matches_brute_force_integration() {
        // Compare against direct midpoint exponentials of the full H(t),
        // using a rectangular pulse so both paths see the same drive.
        let (h, f, p) = small_setup();
        let drive = DriveParams {
            delta: p.modulation_depth(0.04),
            omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
            ramp: 0.0,
        };
        let t_end = 2.0;
        let dt = 0.005;
        let snaps = evolve_and_sample(&h, &f, &drive, t_end, t_end, dt);
        let steps = (t_end / dt).round() as usize;
        let mut u = DMat::identity(h.dim);
        for k in 0..steps {
            let tm = (k as f64 + 0.5) * dt;
            let hm = h.at_time(drive.delta, drive.omega_d, tm);
            u = &expm_i_h_t(&hm, dt) * &u;
        }
        let brute = snapshot_cols(&f, &(&u * &f.basis_columns()), t_end);
        assert!(
            snaps[0].gate.phase_distance(&brute.gate) < 1e-3,
            "splitting deviates: {}",
            snaps[0].gate.phase_distance(&brute.gate)
        );
    }

    #[test]
    fn ramp_reduces_leakage() {
        let (h, f, p) = small_setup();
        let omega_d = f.omega_b_dressed() - f.omega_a_dressed();
        let delta = p.modulation_depth(0.04);
        let rect = DriveParams {
            delta,
            omega_d,
            ramp: 0.0,
        };
        let smooth = DriveParams {
            delta,
            omega_d,
            ramp: 1.5,
        };
        let mean_leak = |d: &DriveParams| {
            let snaps = evolve_and_sample(&h, &f, d, 16.0, 2.0, 0.01);
            snaps.iter().map(|s| s.leakage).sum::<f64>() / snaps.len() as f64
        };
        let lr = mean_leak(&rect);
        let ls = mean_leak(&smooth);
        assert!(
            ls < lr * 0.9,
            "flat-top ramp should suppress leakage: rect {lr:.2e} vs smooth {ls:.2e}"
        );
    }

    #[test]
    fn drive_generates_entanglement_over_time() {
        let (h, f, p) = small_setup();
        let drive = DriveParams {
            delta: p.modulation_depth(0.04),
            omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
            ramp: 1.5,
        };
        let snaps = evolve_and_sample(&h, &f, &drive, 30.0, 1.0, 0.01);
        let max_ep = snaps
            .iter()
            .map(|s| nsb_weyl::entangling_power(nsb_weyl::kak_vector(&s.gate)))
            .fold(0.0f64, f64::max);
        assert!(
            max_ep > 0.05,
            "strong drive should entangle within 30 ns, max ep {max_ep}"
        );
    }
}
