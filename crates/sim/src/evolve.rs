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
//! diagonal scale plus one matrix product (the two half-steps of consecutive
//! steps are merged). Local error is O(dt^3).
//!
//! Only the projected gate `P^dagger U P` is ever observed, so the
//! integrator evolves the `dim x 4` block `Y = U P` (with `P` the dressed
//! computational basis columns) instead of the full propagator, stored as
//! rows of four columns so each row's update is one short loop.
//!
//! The couplings and the drive operator `N_c` conserve total excitation
//! number, so `E0` is block-diagonal by excitation sector, and its exact
//! zeros between sectors survive the exponential. Each step operator keeps
//! only its nonzero entries, row by row in increasing column order (19 of
//! 49 at two levels per mode, 46 of 100 at three), and a step multiplies
//! with them in the order and with the zero skips of [`DMat::mul_into`],
//! so every entry carries the dense product's bits. All step storage is
//! preallocated and ping-ponged, so the hot loop is allocation-free.
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

/// A `dim x 4` block of columns, stored by rows.
type Block = Vec<[Complex64; 4]>;

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

/// One step operator by rows: the nonzero entries `(k, E[i][k])` of each
/// row `i`, in increasing `k`.
struct SparseOperator {
    /// Entries of row `i` are `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(usize, Complex64)>,
}

impl SparseOperator {
    fn new(op: &DMat) -> Self {
        let mut starts = Vec::with_capacity(op.rows() + 1);
        let mut entries = Vec::new();
        starts.push(0);
        for i in 0..op.rows() {
            for k in 0..op.cols() {
                let e = op[(i, k)];
                if e != Complex64::ZERO {
                    entries.push((k, e));
                }
            }
            starts.push(entries.len());
        }
        SparseOperator { starts, entries }
    }

    /// Writes `E y` into `out`: per row, a zero start and one multiply-add
    /// per nonzero entry in increasing `k`, the order and zero skips of
    /// [`DMat::mul_into`].
    fn mul_into(&self, y: &Block, out: &mut Block) {
        for (row, o) in self.starts.windows(2).zip(out.iter_mut()) {
            let mut acc = [Complex64::ZERO; 4];
            for &(k, e) in &self.entries[row[0]..row[1]] {
                for (a, b) in acc.iter_mut().zip(&y[k]) {
                    *a += e * *b;
                }
            }
            *o = acc;
        }
    }
}

/// Precomputed stepping machinery for one unit cell, its dressed frame and
/// one integrator step. Building it costs a matrix exponential, so a scan
/// that reuses the Hamiltonian and the step builds it once.
pub(crate) struct Stepper<'f> {
    frame: &'f DressedFrame,
    dt: f64,
    e_half: SparseOperator,
    e_full: SparseOperator,
    /// Per row, the index into `nc_values` of its coupler level (`n_c -
    /// 1`), or `None` at `n_c = 0`, where the phase is a no-op.
    phase_index: Vec<Option<usize>>,
    /// The `N_c` value of each coupler level `1, 2, ...`, so per-step
    /// phases are computed once per level, not per row.
    nc_values: Vec<f64>,
}

impl<'f> Stepper<'f> {
    pub(crate) fn new(h: &UnitCellHamiltonian, frame: &'f DressedFrame, dt: f64) -> Self {
        let e_half = expm_i_h_t(&h.h_static, dt / 2.0);
        let e_full = &e_half * &e_half;
        let phase_index: Vec<Option<usize>> =
            h.states.iter().map(|s| s[2].checked_sub(1)).collect();
        // Every row of one coupler level has the same `N_c` entry; taking
        // it from `N_c` rather than from the level keeps its bits.
        let mut nc_values = vec![0.0; h.states.iter().map(|s| s[2]).max().unwrap_or(0)];
        for (r, idx) in phase_index.iter().enumerate() {
            if let Some(idx) = *idx {
                nc_values[idx] = h.n_c[(r, r)].re;
            }
        }
        Stepper {
            frame,
            dt,
            e_half: SparseOperator::new(&e_half),
            e_full: SparseOperator::new(&e_full),
            phase_index,
            nc_values,
        }
    }

    /// Advances the block `y` in place by `steps` Strang steps starting at
    /// time `*t`, with the drive strength given by `s_of_t`.
    ///
    /// The step loop allocates nothing: products ping-pong between `y` and
    /// `scratch`.
    fn advance(
        &self,
        t: &mut f64,
        y: &mut Block,
        scratch: &mut Block,
        phases: &mut [Complex64],
        steps: usize,
        s_of_t: impl Fn(f64) -> f64,
    ) {
        if steps == 0 {
            return;
        }
        assert_eq!(phases.len(), self.nc_values.len());
        let dt = self.dt;
        self.e_half.mul_into(y, scratch);
        std::mem::swap(y, scratch);
        for k in 0..steps {
            let tm = *t + (k as f64 + 0.5) * dt;
            let s = s_of_t(tm);
            for (slot, &v) in phases.iter_mut().zip(&self.nc_values) {
                *slot = Complex64::cis(-s * v * dt);
            }
            for (row, idx) in y.iter_mut().zip(&self.phase_index) {
                if let Some(idx) = *idx {
                    let phase = phases[idx];
                    for z in row {
                        *z *= phase;
                    }
                }
            }
            let step_op = if k + 1 < steps {
                &self.e_full
            } else {
                &self.e_half
            };
            step_op.mul_into(y, scratch);
            std::mem::swap(y, scratch);
        }
        *t += steps as f64 * dt;
    }

    /// Integrates the driven evolution and samples the effective gate
    /// every `sample_every` ns up to `t_max` ns.
    ///
    /// The gate is reported in the rotating frame of the dressed qubit
    /// frequencies, so an undriven cell yields gates that stay near the
    /// identity (up to residual ZZ).
    pub(crate) fn sample(
        &self,
        drive: &DriveParams,
        t_max: f64,
        sample_every: f64,
    ) -> Vec<GateSnapshot> {
        let dt = self.dt;
        let frame = self.frame;
        let steps_per_sample = (sample_every / dt).round().max(1.0) as usize;
        let n_samples = (t_max / sample_every).round() as usize;
        let fall_steps = (drive.ramp / dt).round() as usize;
        let rise = |tm: f64| drive.delta * drive.rise_envelope(tm) * (drive.omega_d * tm).sin();
        // Evolve the projected block Y = U P; all step storage lives here and
        // is reused across samples.
        let mut y: Block = frame.basis_rows();
        let mut scratch = y.clone();
        let mut fall_y = y.clone();
        let mut phases = vec![Complex64::ZERO; self.nc_values.len()];
        let mut snapshots = Vec::with_capacity(n_samples);
        let mut t = 0.0f64;
        for _ in 0..n_samples {
            self.advance(
                &mut t,
                &mut y,
                &mut scratch,
                &mut phases,
                steps_per_sample,
                rise,
            );
            let total_t = t + if fall_steps > 0 { drive.ramp } else { 0.0 };
            // Append the envelope fall: the pulse for THIS gate candidate
            // ends here, ramping the drive down over `ramp` ns,
            // phase-continuous with the shared flat-top prefix evolution.
            if fall_steps > 0 {
                let t_flat_end = t;
                let fall = |tm: f64| {
                    let tau = tm - t_flat_end;
                    let env = drive.rise_envelope(drive.ramp - tau);
                    drive.delta * env * (drive.omega_d * tm).sin()
                };
                fall_y.copy_from_slice(&y);
                let mut t_local = t_flat_end;
                self.advance(
                    &mut t_local,
                    &mut fall_y,
                    &mut scratch,
                    &mut phases,
                    fall_steps,
                    fall,
                );
                snapshots.push(snapshot_rows(frame, &fall_y, total_t));
            } else {
                snapshots.push(snapshot_rows(frame, &y, total_t));
            }
        }
        snapshots
    }
}

fn snapshot_rows(frame: &DressedFrame, y: &[[Complex64; 4]], t: f64) -> GateSnapshot {
    let raw = frame.project_rows(y);
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
    use crate::hamiltonian::CellTerms;
    use crate::params::{ghz, UnitCellParams};
    use crate::spectrum::{mul_rows, zero_zz_bias};

    /// A cell with `levels` levels per mode, assembled by `terms_of` and
    /// biased to zero ZZ.
    fn biased(
        terms_of: fn(&UnitCellParams) -> CellTerms,
        levels: usize,
    ) -> (UnitCellHamiltonian, DressedFrame, UnitCellParams) {
        let p = UnitCellParams {
            levels,
            ..UnitCellParams::default()
        };
        let terms = terms_of(&p);
        let (p, _) = zero_zz_bias(&p, &terms);
        let h = terms.at_bias(p.omega_c);
        let f = DressedFrame::from_hamiltonian(&h);
        (h, f, p)
    }

    /// The dense integration the sparse stepper must reproduce: the whole
    /// `dim x 4` block as a `DMat`, every row phase-scaled and multiplied
    /// by [`DMat::mul_into`].
    fn dense_sample(
        h: &UnitCellHamiltonian,
        f: &DressedFrame,
        drive: &DriveParams,
        t_max: f64,
        sample_every: f64,
        dt: f64,
    ) -> Vec<GateSnapshot> {
        let e_half = expm_i_h_t(&h.h_static, dt / 2.0);
        let e_full = &e_half * &e_half;
        let dim = h.dim();
        let mut scratch = DMat::zeros(dim, 4);
        let mut advance = |t: f64, u: &mut DMat, steps: usize, s_of_t: &dyn Fn(f64) -> f64| {
            e_half.mul_into(u, &mut scratch);
            std::mem::swap(u, &mut scratch);
            for k in 0..steps {
                let s = s_of_t(t + (k as f64 + 0.5) * dt);
                for r in 0..dim {
                    let nc = h.n_c[(r, r)].re;
                    if nc != 0.0 {
                        let phase = Complex64::cis(-s * nc * dt);
                        for c in 0..4 {
                            u[(r, c)] *= phase;
                        }
                    }
                }
                let op = if k + 1 < steps { &e_full } else { &e_half };
                op.mul_into(u, &mut scratch);
                std::mem::swap(u, &mut scratch);
            }
        };
        let rows = |u: &DMat| -> Vec<[Complex64; 4]> {
            (0..u.rows())
                .map(|r| [0, 1, 2, 3].map(|c| u[(r, c)]))
                .collect()
        };
        let steps_per_sample = (sample_every / dt).round().max(1.0) as usize;
        let fall_steps = (drive.ramp / dt).round() as usize;
        let rise = |tm: f64| drive.delta * drive.rise_envelope(tm) * (drive.omega_d * tm).sin();
        let mut y = DMat::from_vec(dim, 4, f.basis_rows().concat());
        let mut t = 0.0f64;
        let mut snaps = Vec::new();
        for _ in 0..(t_max / sample_every).round() as usize {
            advance(t, &mut y, steps_per_sample, &rise);
            t += steps_per_sample as f64 * dt;
            let mut out = y.clone();
            let total_t = if fall_steps > 0 {
                let t_flat_end = t;
                let fall = |tm: f64| {
                    let env = drive.rise_envelope(drive.ramp - (tm - t_flat_end));
                    drive.delta * env * (drive.omega_d * tm).sin()
                };
                advance(t, &mut out, fall_steps, &fall);
                t + drive.ramp
            } else {
                t
            };
            snaps.push(snapshot_rows(f, &rows(&out), total_t));
        }
        snaps
    }

    #[test]
    fn sparse_stepper_equals_dense_mul_into_bit_for_bit() {
        // (levels per mode, states, nonzero entries per step operator).
        for (levels, dim, entries) in [(2, 7, 19), (3, 10, 46)] {
            let (h, f, p) = biased(CellTerms::new, levels);
            let dt = 0.02;
            let stepper = Stepper::new(&h, &f, dt);
            assert_eq!(h.dim(), dim, "{levels} levels");
            assert_eq!(stepper.e_half.entries.len(), entries, "{levels} levels");
            assert_eq!(stepper.e_full.entries.len(), entries, "{levels} levels");
            for ramp in [0.0, 1.0] {
                let drive = DriveParams {
                    delta: p.modulation_depth(0.04),
                    omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
                    ramp,
                };
                let sparse = stepper.sample(&drive, 6.0, 1.5);
                let dense = dense_sample(&h, &f, &drive, 6.0, 1.5, dt);
                assert_eq!(sparse.len(), 4);
                assert_eq!(sparse.len(), dense.len());
                for (a, b) in sparse.iter().zip(&dense) {
                    assert_eq!(a.t.to_bits(), b.t.to_bits());
                    assert_eq!(a.leakage.to_bits(), b.leakage.to_bits());
                    for r in 0..4 {
                        for c in 0..4 {
                            let (x, y) = (a.gate.at(r, c), b.gate.at(r, c));
                            assert_eq!(
                                (x.re.to_bits(), x.im.to_bits()),
                                (y.re.to_bits(), y.im.to_bits()),
                                "{levels} levels, ramp {ramp}, t {}, entry ({r}, {c})",
                                a.t
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn excitation_subspace_matches_full_space() {
        // The dressed states never leave the states with at most two
        // excitations, so the full L^3 product space gives the same cell.
        for levels in [2, 3] {
            let (h, f, p) = biased(CellTerms::new, levels);
            let (hf, ff, pf) = biased(CellTerms::full_space, levels);
            assert_eq!(hf.dim(), levels.pow(3));
            assert!(h.dim() < hf.dim());
            assert!(
                (p.omega_c - pf.omega_c).abs() < 1e-12,
                "{levels} levels: zero-ZZ bias {} vs {}",
                p.omega_c,
                pf.omega_c
            );
            for (e, ef) in f.energies.iter().zip(&ff.energies) {
                assert!((e - ef).abs() < 1e-12, "{levels} levels: {e} vs {ef}");
            }
            let drive = DriveParams {
                delta: p.modulation_depth(0.04),
                omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
                ramp: 1.0,
            };
            let sub = Stepper::new(&h, &f, 0.02).sample(&drive, 6.0, 1.5);
            let full = Stepper::new(&hf, &ff, 0.02).sample(&drive, 6.0, 1.5);
            assert_eq!(sub.len(), 4);
            assert_eq!(sub.len(), full.len());
            for (a, b) in sub.iter().zip(&full) {
                assert!(
                    a.gate.approx_eq(&b.gate, 1e-12),
                    "{levels} levels, t {}: gates differ by {}",
                    a.t,
                    (a.gate - b.gate).norm()
                );
                assert!((a.leakage - b.leakage).abs() < 1e-12, "{levels} levels");
            }
        }
    }

    #[test]
    fn undriven_evolution_stays_near_identity() {
        let (h, f, _p) = biased(CellTerms::new, 3);
        let drive = DriveParams {
            delta: 0.0,
            omega_d: ghz(2.0),
            ramp: 0.0,
        };
        let snaps = Stepper::new(&h, &f, 0.02).sample(&drive, 10.0, 5.0);
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
        let (h, f, p) = biased(CellTerms::new, 3);
        let drive = DriveParams {
            delta: p.modulation_depth(0.02),
            omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
            ramp: 1.0,
        };
        let snaps = Stepper::new(&h, &f, 0.02).sample(&drive, 8.0, 2.0);
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
        let (h, f, p) = biased(CellTerms::new, 3);
        let drive = DriveParams {
            delta: p.modulation_depth(0.04),
            omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
            ramp: 0.0,
        };
        let t_end = 2.0;
        let dt = 0.005;
        let snaps = Stepper::new(&h, &f, dt).sample(&drive, t_end, t_end);
        let steps = (t_end / dt).round() as usize;
        let mut u = DMat::identity(h.dim());
        for k in 0..steps {
            let tm = (k as f64 + 0.5) * dt;
            let hm = h.at_time(drive.delta, drive.omega_d, tm);
            u = &expm_i_h_t(&hm, dt) * &u;
        }
        let brute = snapshot_rows(&f, &mul_rows(&u, &f.basis_rows()), t_end);
        assert!(
            snaps[0].gate.phase_distance(&brute.gate) < 1e-3,
            "splitting deviates: {}",
            snaps[0].gate.phase_distance(&brute.gate)
        );
    }

    #[test]
    fn ramp_reduces_leakage() {
        let (h, f, p) = biased(CellTerms::new, 3);
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
            let snaps = Stepper::new(&h, &f, 0.01).sample(d, 16.0, 2.0);
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
        let (h, f, p) = biased(CellTerms::new, 3);
        let drive = DriveParams {
            delta: p.modulation_depth(0.04),
            omega_d: f.omega_b_dressed() - f.omega_a_dressed(),
            ramp: 1.5,
        };
        let snaps = Stepper::new(&h, &f, 0.01).sample(&drive, 30.0, 1.0);
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
