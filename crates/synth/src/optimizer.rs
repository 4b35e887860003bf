//! Alternating "environment" optimization of the local unitaries, with a
//! Levenberg–Marquardt polish.
//!
//! The objective is the trace overlap `|tr(T^dag W)|`. With all but one
//! local factor fixed, the trace is linear in that factor:
//! `tr(T^dag W) = tr(u E)` for a 2x2 environment `E` obtained by partial
//! contraction. The unitary `u` maximizing `Re tr(u E)` is the polar
//! factor `V U^dag` of the SVD `E = U S V^dag`, achieving `s1 + s2`, which
//! is also the largest `|tr(u E)|` any unitary reaches. Sweeping all
//! factors therefore monotonically increases `|tr(T^dag W)|`; random
//! restarts make the search reliable enough to serve as a *decision
//! procedure* for decomposability (the approach NuOp takes with generic
//! optimizers, made deterministic and fast here).
//!
//! The sweeps converge linearly, and slowly when the basis gate sits just
//! inside the region face that makes the target reachable in this many
//! layers. So the best restart, when its residual is small but not yet
//! converged, is polished by a deterministic Levenberg–Marquardt
//! refinement on `||W - e^{i phi} T||_F`, with an analytic Jacobian built
//! from the same prefix/suffix products the sweeps use. It converges
//! quadratically and leaves the result only if it improves it.

use crate::ansatz::build_ansatz;
use nsb_math::{haar_su2, max_trace_unitary, Complex64, Mat2, Mat4};
use rand::Rng;

/// Maximum number of full sweeps per restart.
const MAX_SWEEPS: usize = 2000;
/// Declare a stall after this many consecutive sweeps with improvement
/// below [`STALL_TOL`].
const STALL_SWEEPS: usize = 8;
/// Improvement threshold counting as "no progress".
const STALL_TOL: f64 = 1e-15;
/// Stop as converged once `4 - |tr(T^dag W)|` drops below this residual.
/// It is tight enough that a converged result reconstructs the target to
/// `sqrt(2e-12) ~ 1.4e-6` in Frobenius norm.
const TARGET_RESIDUAL: f64 = 1.0e-12;

/// Reusable scratch buffers for the restart search and its polish.
///
/// One `Workspace` threaded through a restart search and the
/// Levenberg–Marquardt polish makes both allocation-free: candidate, best
/// and trial locals live in resizable buffers, the per-sweep suffix
/// products and the polish's prefix products, Jacobian columns and normal
/// equations reuse their own `Vec`s. A capacity-growth counter backs debug
/// assertions that the buffers stop growing after the first restart warms
/// them up.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Current-attempt locals; the polish iterate.
    cand: Vec<(Mat2, Mat2)>,
    /// Best locals found so far.
    best: Vec<(Mat2, Mat2)>,
    /// Polish trial-step locals.
    trial: Vec<(Mat2, Mat2)>,
    /// Per-layer suffix products, rebuilt each sweep and each polish step.
    suffix: Vec<Mat4>,
    /// Per-layer prefix products of the polish Jacobian.
    prefix: Vec<Mat4>,
    /// Polish Jacobian, one complex 4x4 column per real parameter.
    jac: Vec<Mat4>,
    /// Polish normal matrix `J^T J` (row-major, `params x params`).
    normal: Vec<f64>,
    /// Damped copy of `normal`, Cholesky-factored in place.
    factor: Vec<f64>,
    /// Polish gradient `J^T r`.
    grad: Vec<f64>,
    /// Polish step (solution of the damped normal equations).
    step: Vec<f64>,
    /// Times any buffer had to grow its capacity.
    grows: usize,
}

impl Workspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub(crate) fn new() -> Self {
        Workspace::default()
    }

    /// Sizes every buffer for an `n`-local ansatz, counting capacity growth.
    fn prepare(&mut self, n: usize) {
        let p = lm_params(n);
        if self.cand.capacity() < n
            || self.best.capacity() < n
            || self.trial.capacity() < n
            || self.suffix.capacity() < n
            || self.prefix.capacity() < n
            || self.jac.capacity() < p
            || self.normal.capacity() < p * p
            || self.factor.capacity() < p * p
            || self.grad.capacity() < p
            || self.step.capacity() < p
        {
            self.grows += 1;
        }
        let id = (Mat2::identity(), Mat2::identity());
        self.cand.resize(n, id);
        self.best.resize(n, id);
        self.trial.resize(n, id);
        self.suffix.resize(n, Mat4::identity());
        self.prefix.resize(n, Mat4::identity());
        self.jac.resize(p, Mat4::zero());
        self.normal.resize(p * p, 0.0);
        self.factor.resize(p * p, 0.0);
        self.grad.resize(p, 0.0);
        self.step.resize(p, 0.0);
    }
}

/// Core alternating sweep working entirely in caller-provided storage.
///
/// Each sweep builds the suffix products `A_k` once (right-to-left) and
/// grows the prefix `C_k` incrementally as factors are updated, instead of
/// rebuilding both from scratch for every `k` — ~`n(2n+1)` matmuls per
/// sweep drop to ~`7n`. Returns the achieved overlap in `[0, 1]`.
fn optimize_slice(
    t_dag: &Mat4,
    bases: &[Mat4],
    locals: &mut [(Mat2, Mat2)],
    suffix: &mut [Mat4],
) -> f64 {
    let n = locals.len();
    debug_assert_eq!(n, bases.len() + 1, "ansatz shape mismatch");
    debug_assert_eq!(suffix.len(), n, "suffix buffer shape mismatch");
    let mut prev = objective(t_dag, locals, bases);
    let mut stalled = 0usize;
    for _sweep in 0..MAX_SWEEPS {
        // Suffix products from the sweep-entry locals:
        // A_k = L_{n-1} B_{n-2} ... L_{k+1} (basis gates interleaved), so
        // F_k = F_{k+1} B_{k+1} K_{k+1} with F_{n-1} = I.
        suffix[n - 1] = Mat4::identity();
        for k in (0..n - 1).rev() {
            let mut f = Mat4::kron(&locals[k + 1].0, &locals[k + 1].1);
            if k + 1 < n - 1 {
                f = bases[k + 1] * f;
            }
            suffix[k] = suffix[k + 1] * f;
        }
        // Prefix C_k grows incrementally with the freshly updated factors.
        let mut c = Mat4::identity();
        let mut last_g = Mat4::identity();
        for k in 0..n {
            // G_k = C_k T^dag A_k where W = A_k L_k C_k; A_k includes the
            // basis gate between L_k and L_{k+1}.
            let a = if k < n - 1 {
                suffix[k] * bases[k]
            } else {
                suffix[k]
            };
            let g = c * *t_dag * a;
            // Update u then v with fresh environments; iterating the pair a
            // few times converges the local subproblem before moving on,
            // which measurably speeds up the global tail.
            for _ in 0..3 {
                let e_u = env_u(&g, &locals[k].1);
                locals[k].0 = max_trace_unitary(&e_u);
                let e_v = env_v(&g, &locals[k].0);
                locals[k].1 = max_trace_unitary(&e_v);
            }
            if k + 1 < n {
                c = Mat4::kron(&locals[k].0, &locals[k].1) * c;
                c = bases[k] * c;
            } else {
                last_g = g;
            }
        }
        // tr(T^dag W) = tr(K_{n-1} G_{n-1}) by cyclicity — no need to
        // rebuild the full ansatz just to measure progress.
        let cur = (Mat4::kron(&locals[n - 1].0, &locals[n - 1].1) * last_g)
            .trace()
            .abs();
        if 4.0 - cur < TARGET_RESIDUAL {
            prev = cur;
            break;
        }
        if cur - prev < STALL_TOL {
            stalled += 1;
            // Near convergence (residual within ~1e-5 of the target) the
            // alternating sweeps can creep in steps below `STALL_TOL` yet
            // still close the gap; give those tails extra patience so the
            // decision procedure does not misclassify a decomposable
            // target on an unlucky start.
            let patience = if 4.0 - cur < 1e-5 {
                4 * STALL_SWEEPS
            } else {
                STALL_SWEEPS
            };
            if stalled >= patience {
                prev = prev.max(cur);
                break;
            }
        } else {
            stalled = 0;
        }
        prev = prev.max(cur);
    }
    prev / 4.0
}

/// Runs the optimizer from `restarts` random starting points and returns
/// the best locals with their overlap `|tr(T^dag W)| / 4`; stops early
/// when `target_overlap` is reached.
///
/// Every restart and the polish reuse the workspace buffers, so after the
/// first restart the search performs no allocations (debug-asserted via
/// the workspace's growth counter).
pub(crate) fn optimize_with_restarts<R: Rng + ?Sized>(
    target: &Mat4,
    bases: &[Mat4],
    restarts: usize,
    target_overlap: f64,
    rng: &mut R,
    ws: &mut Workspace,
) -> (Vec<(Mat2, Mat2)>, f64) {
    let n = bases.len() + 1;
    ws.prepare(n);
    let t_dag = target.adjoint();
    let mut best_overlap = f64::NEG_INFINITY;
    let mut warm_grows: Option<usize> = None;
    for attempt in 0..restarts.max(1) {
        for pair in ws.cand.iter_mut() {
            *pair = if attempt == 0 {
                // First attempt starts from identity locals: cheap and
                // often already optimal for structured targets.
                (Mat2::identity(), Mat2::identity())
            } else {
                (haar_su2(rng), haar_su2(rng))
            };
        }
        let overlap = optimize_slice(&t_dag, bases, &mut ws.cand, &mut ws.suffix);
        match warm_grows {
            None => warm_grows = Some(ws.grows),
            Some(warm) => debug_assert_eq!(
                ws.grows, warm,
                "optimizer buffers grew after the warm-up restart"
            ),
        }
        if overlap > best_overlap {
            best_overlap = overlap;
            ws.best.copy_from_slice(&ws.cand);
        }
        if best_overlap >= target_overlap {
            break;
        }
    }
    // Polish phase: alternating sweeps converge only linearly, and next to
    // a region face (a basis gate that barely reaches the target in this
    // many layers) they crawl, so restarts end at the sweep cap short of
    // the target residual. A Levenberg–Marquardt refinement of the best
    // restart converges quadratically from there. Runs with a large
    // residual are genuine rejections and are returned untouched, so the
    // decision procedure stays cheap.
    let residual = 4.0 * (1.0 - best_overlap);
    if residual < POLISH_THRESHOLD && residual > TARGET_RESIDUAL {
        let polished = lm_polish(target, &t_dag, bases, ws);
        debug_assert_eq!(
            ws.grows,
            warm_grows.unwrap_or(0),
            "the polish must not grow optimizer buffers"
        );
        if polished > best_overlap {
            best_overlap = polished;
            ws.best.copy_from_slice(&ws.cand);
        }
    }
    (ws.best.clone(), best_overlap)
}

/// Residual below which a non-converged run is treated as a slow tail
/// worth polishing rather than as a genuine rejection.
const POLISH_THRESHOLD: f64 = 1e-4;
/// Maximum accepted Levenberg–Marquardt steps in one polish.
const LM_STEPS: usize = 200;
/// Initial Levenberg–Marquardt damping.
const LM_DAMPING_INIT: f64 = 1e-3;
/// Floor on the damping; keeps the damped normal matrix positive definite
/// along the ansatz's gauge directions, where `J^T J` is singular.
const LM_DAMPING_MIN: f64 = 1e-12;
/// Damping at which the polish gives up: no step lowers the residual.
const LM_DAMPING_MAX: f64 = 1e8;

/// Real parameters of the polish for an `n`-local ansatz: three su(2)
/// generators per local factor, plus the global phase.
fn lm_params(n: usize) -> usize {
    6 * n + 1
}

/// Levenberg–Marquardt refinement of `ws.best`, left in `ws.cand`; returns
/// the overlap of the refined locals.
///
/// Minimizes `||W - e^{i phi} T||_F^2`, which equals `2 (4 - |tr(T^dag W)|)`
/// once `phi` matches the trace phase. Each local moves as
/// `u <- exp(i d.sigma) u`, so the parameters are the step's three su(2)
/// coordinates per local factor plus `phi`. The Jacobian is analytic (see
/// [`lm_jacobian`]). A step is taken only if it lowers the residual;
/// otherwise the damping grows and the step is re-solved. Deterministic:
/// no random numbers are drawn.
fn lm_polish(target: &Mat4, t_dag: &Mat4, bases: &[Mat4], ws: &mut Workspace) -> f64 {
    let n = ws.best.len();
    let p = lm_params(n);
    ws.cand.copy_from_slice(&ws.best);
    let w = build_ansatz(&ws.cand, bases);
    let mut phase = (*t_dag * w).trace().arg();
    let mut cost = lm_cost(&w, target, phase);
    let mut damping = LM_DAMPING_INIT;
    'steps: for _ in 0..LM_STEPS {
        // 4 - |tr(T^dag W)| <= cost / 2, so this is the sweeps' own
        // convergence test.
        if cost / 2.0 <= TARGET_RESIDUAL {
            break;
        }
        let r = lm_jacobian(target, bases, phase, ws);
        for i in 0..p {
            ws.grad[i] = re_inner(&ws.jac[i], &r);
            for j in 0..=i {
                let v = re_inner(&ws.jac[i], &ws.jac[j]);
                ws.normal[i * p + j] = v;
                ws.normal[j * p + i] = v;
            }
        }
        loop {
            ws.factor.copy_from_slice(&ws.normal);
            for i in 0..p {
                ws.factor[i * p + i] += damping;
                ws.step[i] = -ws.grad[i];
            }
            if cholesky_solve(&mut ws.factor, &mut ws.step, p) {
                for (k, (slot, (u, v))) in ws.trial.iter_mut().zip(&ws.cand).enumerate() {
                    let d = &ws.step[6 * k..6 * k + 6];
                    *slot = (
                        su2_exp(d[0], d[1], d[2]) * *u,
                        su2_exp(d[3], d[4], d[5]) * *v,
                    );
                }
                let trial_phase = phase + ws.step[p - 1];
                let trial_cost = lm_cost(&build_ansatz(&ws.trial, bases), target, trial_phase);
                if trial_cost < cost {
                    ws.cand.copy_from_slice(&ws.trial);
                    phase = trial_phase;
                    cost = trial_cost;
                    damping = (damping / 3.0).max(LM_DAMPING_MIN);
                    continue 'steps;
                }
            }
            damping *= 4.0;
            if damping > LM_DAMPING_MAX {
                break 'steps;
            }
        }
    }
    (*t_dag * build_ansatz(&ws.cand, bases)).trace().abs() / 4.0
}

/// Fills `ws.jac` with the derivatives of `W - e^{i phi} T` at `ws.cand`
/// and returns that residual.
///
/// With prefix `D_k = K_k B_{k-1} ... B_0 K_0` and suffix
/// `A_k = K_{n-1} B_{n-2} ... K_{k+1} B_k` (`K_k = u_k (x) v_k`), `W = A_k D_k`
/// for every `k`, and the generator `i sigma_a` on `u_k` moves `W` by
/// `A_k (i sigma_a (x) I) D_k` (likewise `I (x) i sigma_a` for `v_k`). The
/// phase column is `-i e^{i phi} T`.
fn lm_jacobian(target: &Mat4, bases: &[Mat4], phase: f64, ws: &mut Workspace) -> Mat4 {
    let n = ws.cand.len();
    let mut d = Mat4::identity();
    for k in 0..n {
        if k > 0 {
            d = bases[k - 1] * d;
        }
        d = Mat4::kron(&ws.cand[k].0, &ws.cand[k].1) * d;
        ws.prefix[k] = d;
    }
    ws.suffix[n - 1] = Mat4::identity();
    for k in (0..n - 1).rev() {
        ws.suffix[k] =
            ws.suffix[k + 1] * Mat4::kron(&ws.cand[k + 1].0, &ws.cand[k + 1].1) * bases[k];
    }
    let id = Mat2::identity();
    let gens = su2_generators();
    let lifted = [
        Mat4::kron(&gens[0], &id),
        Mat4::kron(&gens[1], &id),
        Mat4::kron(&gens[2], &id),
        Mat4::kron(&id, &gens[0]),
        Mat4::kron(&id, &gens[1]),
        Mat4::kron(&id, &gens[2]),
    ];
    for k in 0..n {
        for (g, lift) in lifted.iter().enumerate() {
            ws.jac[6 * k + g] = ws.suffix[k] * *lift * ws.prefix[k];
        }
    }
    let shifted = target.scale(Complex64::cis(phase));
    ws.jac[6 * n] = shifted.scale(-Complex64::I);
    ws.prefix[n - 1] - shifted
}

/// `i sigma_x`, `i sigma_y`, `i sigma_z`.
fn su2_generators() -> [Mat2; 3] {
    let (o, z, i) = (Complex64::ONE, Complex64::ZERO, Complex64::I);
    [
        Mat2::from_rows([[z, i], [i, z]]),
        Mat2::from_rows([[z, o], [-o, z]]),
        Mat2::from_rows([[i, z], [z, -i]]),
    ]
}

/// `exp(i (x sigma_x + y sigma_y + z sigma_z))`, exactly unitary.
fn su2_exp(x: f64, y: f64, z: f64) -> Mat2 {
    let theta = (x * x + y * y + z * z).sqrt();
    // sin(theta) / theta, by its series where the quotient loses digits.
    let sinc = if theta < 1e-4 {
        1.0 - theta * theta / 6.0
    } else {
        theta.sin() / theta
    };
    let c = theta.cos();
    let (sx, sy, sz) = (sinc * x, sinc * y, sinc * z);
    Mat2::from_rows([
        [Complex64::new(c, sz), Complex64::new(sy, sx)],
        [Complex64::new(-sy, sx), Complex64::new(c, -sz)],
    ])
}

/// `||W - e^{i phi} T||_F^2`.
fn lm_cost(w: &Mat4, target: &Mat4, phase: f64) -> f64 {
    let r = *w - target.scale(Complex64::cis(phase));
    re_inner(&r, &r)
}

/// `Re tr(a^dag b)`: the real inner product of two matrices viewed as
/// vectors of 32 reals.
fn re_inner(a: &Mat4, b: &Mat4) -> f64 {
    let mut acc = 0.0;
    for r in 0..4 {
        for c in 0..4 {
            let (x, y) = (a.at(r, c), b.at(r, c));
            acc += x.re * y.re + x.im * y.im;
        }
    }
    acc
}

/// Solves `A x = b` for a symmetric `p x p` matrix `A` (row-major) in
/// place: `a` is overwritten by its Cholesky factor, `b` by `x`. Returns
/// false when `A` is not numerically positive definite.
fn cholesky_solve(a: &mut [f64], b: &mut [f64], p: usize) -> bool {
    for j in 0..p {
        let mut diag = a[j * p + j];
        for k in 0..j {
            diag -= a[j * p + k] * a[j * p + k];
        }
        if !(diag > 0.0 && diag.is_finite()) {
            return false;
        }
        let l = diag.sqrt();
        a[j * p + j] = l;
        for i in j + 1..p {
            let mut s = a[i * p + j];
            for k in 0..j {
                s -= a[i * p + k] * a[j * p + k];
            }
            a[i * p + j] = s / l;
        }
    }
    // Forward substitution L y = b, then back substitution L^T x = y.
    for i in 0..p {
        let mut s = b[i];
        for k in 0..i {
            s -= a[i * p + k] * b[k];
        }
        b[i] = s / a[i * p + i];
    }
    for i in (0..p).rev() {
        let mut s = b[i];
        for k in i + 1..p {
            s -= a[k * p + i] * b[k];
        }
        b[i] = s / a[i * p + i];
    }
    true
}

/// `|tr(T^dag W)|`, the objective the sweeps maximize.
fn objective(t_dag: &Mat4, locals: &[(Mat2, Mat2)], bases: &[Mat4]) -> f64 {
    let w = build_ansatz(locals, bases);
    (*t_dag * w).trace().abs()
}

/// Environment of `u` in `tr((u (x) v) G)`: returns `E` with the property
/// `tr((u (x) v) G) = tr(u E)`.
fn env_u(g: &Mat4, v: &Mat2) -> Mat2 {
    let mut e = Mat2::zero();
    for i in 0..2 {
        for j in 0..2 {
            let mut acc = Complex64::ZERO;
            for k in 0..2 {
                for l in 0..2 {
                    acc += v.at(k, l) * g.at(2 * j + l, 2 * i + k);
                }
            }
            e[(j, i)] = acc;
        }
    }
    e
}

/// Environment of `v` in `tr((u (x) v) G)`.
fn env_v(g: &Mat4, u: &Mat2) -> Mat2 {
    let mut e = Mat2::zero();
    for k in 0..2 {
        for l in 0..2 {
            let mut acc = Complex64::ZERO;
            for i in 0..2 {
                for j in 0..2 {
                    acc += u.at(i, j) * g.at(2 * j + l, 2 * i + k);
                }
            }
            e[(l, k)] = acc;
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::haar_su2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn environments_linearize_the_trace() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = nsb_math::haar_u4(&mut rng);
        let u = haar_su2(&mut rng);
        let v = haar_su2(&mut rng);
        let direct = (Mat4::kron(&u, &v) * g).trace();
        let via_u = {
            let e = env_u(&g, &v);
            (u * e).trace()
        };
        let via_v = {
            let e = env_v(&g, &u);
            (v * e).trace()
        };
        assert!((direct - via_u).abs() < 1e-10);
        assert!((direct - via_v).abs() < 1e-10);
    }

    #[test]
    fn recovers_local_target_with_zero_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let target = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let (_, overlap) = optimize_with_restarts(
            &target,
            &[],
            4,
            1.0 - 1e-12,
            &mut rng,
            &mut Workspace::new(),
        );
        assert!(overlap > 1.0 - 1e-10, "overlap {overlap}");
    }

    #[test]
    fn recovers_dressed_basis_with_one_layer() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Mat4::sqrt_iswap();
        let dress = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let target = dress * b * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let (_, overlap) = optimize_with_restarts(
            &target,
            &[b],
            6,
            1.0 - 1e-12,
            &mut rng,
            &mut Workspace::new(),
        );
        assert!(overlap > 1.0 - 1e-9, "overlap {overlap}");
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let b = Mat4::sqrt_iswap();
        let mut rng = StdRng::seed_from_u64(7);
        let dress = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let target = dress * b * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        let mut ws = Workspace::new();
        // Warm the workspace on an unrelated problem (different size).
        let mut warm_rng = StdRng::seed_from_u64(8);
        let _ = optimize_with_restarts(
            &Mat4::swap(),
            &[b, b, b],
            2,
            1.0 - 1e-12,
            &mut warm_rng,
            &mut ws,
        );
        let mut rng_a = StdRng::seed_from_u64(9);
        let reused = optimize_with_restarts(&target, &[b], 4, 1.0 - 1e-12, &mut rng_a, &mut ws);
        let mut rng_b = StdRng::seed_from_u64(9);
        let fresh = optimize_with_restarts(
            &target,
            &[b],
            4,
            1.0 - 1e-12,
            &mut rng_b,
            &mut Workspace::new(),
        );
        // Same rng seed + same code path => bit-identical outcome, warm or
        // cold buffers.
        assert_eq!(reused.1.to_bits(), fresh.1.to_bits());
        assert_eq!(reused.0.len(), fresh.0.len());
        for ((ru, rv), (fu, fv)) in reused.0.iter().zip(&fresh.0) {
            assert!(ru.approx_eq(fu, 0.0) && rv.approx_eq(fv, 0.0));
        }
    }

    #[test]
    fn workspace_stops_growing_after_warmup() {
        let b = Mat4::cnot();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(14);
        let _ =
            optimize_with_restarts(&Mat4::swap(), &[b, b, b], 3, 1.0 - 1e-12, &mut rng, &mut ws);
        let grows_after_first = ws.grows;
        for seed in 15..18 {
            let mut rng = StdRng::seed_from_u64(seed);
            let _ = optimize_with_restarts(
                &Mat4::swap(),
                &[b, b, b],
                3,
                1.0 - 1e-12,
                &mut rng,
                &mut ws,
            );
        }
        assert_eq!(
            ws.grows, grows_after_first,
            "same-size searches must not grow the workspace again"
        );
        // A smaller search whose best restart needs the polish: the polish
        // buffers were sized up front too.
        let mut rng = StdRng::seed_from_u64(23);
        let (_, overlap) = optimize_with_restarts(
            &Mat4::cnot(),
            &[near_face_basis(); 2],
            4,
            1.0 - 1e-12,
            &mut rng,
            &mut ws,
        );
        let residual = 4.0 * (1.0 - overlap);
        assert!(residual <= 1e-12, "polished residual {residual:e}");
        assert_eq!(ws.grows, grows_after_first, "the polish grew the workspace");
    }

    /// A basis gate just inside the CNOT-in-2 face (the Criterion 2 gate
    /// of one edge of the 4x3 test device), where two-layer CNOT sweeps
    /// crawl and stall above tolerance.
    fn near_face_basis() -> Mat4 {
        Mat4::canonical(0.250247, 0.248563, 0.044147)
    }

    #[test]
    fn lm_jacobian_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(22);
        let bases = [near_face_basis(), Mat4::cnot()];
        let target = nsb_math::haar_u4(&mut rng);
        let mut ws = Workspace::new();
        ws.prepare(3);
        for pair in ws.cand.iter_mut() {
            *pair = (haar_su2(&mut rng), haar_su2(&mut rng));
        }
        let phase = 0.3;
        let r0 = lm_jacobian(&target, &bases, phase, &mut ws);
        let base = ws.cand.clone();
        let h = 1e-6;
        for j in 0..lm_params(3) {
            let mut locals = base.clone();
            let mut ph = phase;
            if j == lm_params(3) - 1 {
                ph += h;
            } else {
                let (k, g) = (j / 6, j % 6);
                let mut d = [0.0; 6];
                d[g] = h;
                locals[k] = (
                    su2_exp(d[0], d[1], d[2]) * locals[k].0,
                    su2_exp(d[3], d[4], d[5]) * locals[k].1,
                );
            }
            let r1 = build_ansatz(&locals, &bases) - target.scale(Complex64::cis(ph));
            let fd = (r1 - r0).scale(Complex64::real(1.0 / h));
            let err = (fd - ws.jac[j]).norm();
            assert!(err < 1e-5, "column {j}: {err:e}");
        }
    }

    #[test]
    fn lm_polish_converges_where_sweeps_crawl() {
        let target = Mat4::cnot();
        let bases = [near_face_basis(); 2];
        let mut rng = StdRng::seed_from_u64(21);
        let mut ws = Workspace::new();
        ws.prepare(3);
        for pair in ws.best.iter_mut() {
            *pair = (haar_su2(&mut rng), haar_su2(&mut rng));
        }
        // The full sweep budget ends far above the convergence target...
        let swept = optimize_slice(&target.adjoint(), &bases, &mut ws.best, &mut ws.suffix);
        let swept_residual = 4.0 * (1.0 - swept);
        assert!(
            swept_residual < POLISH_THRESHOLD && swept_residual > 1e-10,
            "sweeps residual {swept_residual:e}"
        );
        // ...and the polish of that very run converges.
        let polished = 4.0 * (1.0 - lm_polish(&target, &target.adjoint(), &bases, &mut ws));
        assert!(polished <= 1e-12, "LM residual {polished:e}");
        let rebuilt = build_ansatz(&ws.cand, &bases);
        assert!(rebuilt.approx_eq_up_to_phase(&target, 1e-6));
    }

    #[test]
    fn monotone_progress_on_hard_target() {
        // 2 layers of CNOT cannot make SWAP: overlap must stay below 1 but
        // the optimizer should still do clearly better than a random start.
        let mut rng = StdRng::seed_from_u64(6);
        let (_, overlap) = optimize_with_restarts(
            &Mat4::swap(),
            &[Mat4::cnot(), Mat4::cnot()],
            6,
            1.0 - 1e-12,
            &mut rng,
            &mut Workspace::new(),
        );
        assert!(overlap < 1.0 - 1e-3, "SWAP from 2 CNOTs is impossible");
        assert!(overlap > 0.5, "optimizer made no progress");
    }
}
