//! Haar-random unitaries and Gaussian sampling helpers.
//!
//! `rand` 0.8 without `rand_distr` has no normal distribution, so a small
//! Box-Muller implementation lives here; everything else is built on it.

use crate::complex::Complex64;
use crate::dmat::DMat;
use crate::mat2::Mat2;
use crate::mat4::Mat4;
use rand::Rng;

/// Draws a standard normal sample via the Box-Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Draws a standard complex normal sample (independent N(0,1) components).
pub fn complex_normal<R: Rng + ?Sized>(rng: &mut R) -> Complex64 {
    Complex64::new(standard_normal(rng), standard_normal(rng))
}

/// Draws a Haar-random SU(2) element via the unit quaternion construction.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let u = nsb_math::haar_su2(&mut rng);
/// assert!(u.is_unitary(1e-12));
/// ```
pub fn haar_su2<R: Rng + ?Sized>(rng: &mut R) -> Mat2 {
    loop {
        let q = [
            standard_normal(rng),
            standard_normal(rng),
            standard_normal(rng),
            standard_normal(rng),
        ];
        let n = (q.iter().map(|x| x * x).sum::<f64>()).sqrt();
        if n < 1e-12 {
            continue;
        }
        let (a, b, c, d) = (q[0] / n, q[1] / n, q[2] / n, q[3] / n);
        // SU(2) element [[a+bi, c+di], [-c+di, a-bi]].
        return Mat2::from_rows([
            [Complex64::new(a, b), Complex64::new(c, d)],
            [Complex64::new(-c, d), Complex64::new(a, -b)],
        ]);
    }
}

/// Draws a Haar-random `n x n` unitary via QR of a Ginibre matrix with the
/// phases of the R diagonal divided out (Mezzadri's recipe).
pub(crate) fn haar_unitary<R: Rng + ?Sized>(n: usize, rng: &mut R) -> DMat {
    // Ginibre ensemble.
    let mut g = DMat::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            g[(r, c)] = complex_normal(rng);
        }
    }
    // Modified Gram-Schmidt on columns.
    let mut q = g.clone();
    let mut r_diag = vec![Complex64::ZERO; n];
    for j in 0..n {
        for k in 0..j {
            // proj = <q_k, q_j>
            let mut proj = Complex64::ZERO;
            for i in 0..n {
                proj += q[(i, k)].conj() * q[(i, j)];
            }
            for i in 0..n {
                let qik = q[(i, k)];
                q[(i, j)] -= proj * qik;
            }
        }
        let mut norm = 0.0;
        for i in 0..n {
            norm += q[(i, j)].norm_sqr();
        }
        let norm = norm.sqrt();
        r_diag[j] = Complex64::real(norm);
        for i in 0..n {
            q[(i, j)] = q[(i, j)] / norm;
        }
        // Phase fix: multiply the column by the phase of the original
        // projection onto itself (diag of R is already real positive after
        // MGS, so draw a random phase to restore Haar measure).
        let phase = Complex64::cis(rng.gen::<f64>() * 2.0 * std::f64::consts::PI);
        for i in 0..n {
            q[(i, j)] *= phase;
        }
    }
    q
}

/// Draws a Haar-random two-qubit unitary as a [`Mat4`].
pub fn haar_u4<R: Rng + ?Sized>(rng: &mut R) -> Mat4 {
    haar_unitary(4, rng).to_mat4()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn haar_su2_is_special_unitary() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let u = haar_su2(&mut rng);
            assert!(u.is_unitary(1e-12));
            assert!((u.det() - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn haar_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [2usize, 4, 7] {
            let u = haar_unitary(n, &mut rng);
            assert!(u.is_unitary(1e-10), "n={n}");
        }
    }

    #[test]
    fn haar_u4_spectral_statistics_plausible() {
        // Mean |trace|^2 over Haar U(4) equals 1; loose statistical check.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 400;
        let mean: f64 = (0..n)
            .map(|_| haar_u4(&mut rng).trace().norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.25, "mean |tr|^2 = {mean}");
    }

    #[test]
    fn random_local_is_product() {
        let mut rng = StdRng::seed_from_u64(4);
        let u = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
        assert!(u.kron_factor(1e-8).is_some());
    }
}
