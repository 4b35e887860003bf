//! Qubit frequency allocation (paper Section VIII-C, Figure 7): a
//! checkerboard of high- and low-frequency transmons, each group sampled
//! from a normal distribution; neighboring qubits always come from
//! different groups so every pair is far detuned.

use crate::topology::GridTopology;
use nsb_math::standard_normal;
use rand::Rng;

/// Parameters of the frequency allocator.
#[derive(Clone, Copy, Debug)]
pub struct FrequencyPlan {
    /// Mean of the low-frequency group (GHz).
    pub(crate) low_mean: f64,
    /// Mean of the high-frequency group (GHz).
    pub(crate) high_mean: f64,
    /// Relative standard deviation (paper: 5%, deliberately pessimistic
    /// versus the ~0.5% of laser-annealed junctions).
    pub(crate) rel_std: f64,
}

impl Default for FrequencyPlan {
    fn default() -> Self {
        FrequencyPlan {
            low_mean: 4.3,
            high_mean: 6.3,
            rel_std: 0.05,
        }
    }
}

/// Per-qubit frequencies in GHz, checkerboard-allocated on the grid.
#[derive(Clone, Debug)]
pub struct FrequencyAllocation {
    freqs: Vec<f64>,
    is_high: Vec<bool>,
}

impl FrequencyAllocation {
    /// Samples frequencies for every qubit of the grid.
    pub fn sample<R: Rng + ?Sized>(grid: &GridTopology, plan: &FrequencyPlan, rng: &mut R) -> Self {
        let n = grid.n_qubits();
        let mut freqs = Vec::with_capacity(n);
        let mut is_high = Vec::with_capacity(n);
        for q in 0..n {
            let (r, c) = grid.position(q);
            let high = (r + c) % 2 == 1;
            let mean = if high { plan.high_mean } else { plan.low_mean };
            // Truncate at +-2 sigma: fabrication screening discards extreme
            // outliers, and it keeps every pair far detuned enough for the
            // dressed computational subspace to stay identifiable.
            let z = standard_normal(rng).clamp(-2.0, 2.0);
            let f = mean * (1.0 + plan.rel_std * z);
            freqs.push(f);
            is_high.push(high);
        }
        FrequencyAllocation { freqs, is_high }
    }

    /// Frequency of qubit `q` in GHz.
    pub fn frequency(&self, q: usize) -> f64 {
        self.freqs[q]
    }

    /// Whether qubit `q` belongs to the high-frequency group.
    pub fn is_high_group(&self, q: usize) -> bool {
        self.is_high[q]
    }

    /// All frequencies (GHz).
    #[cfg(test)]
    pub(crate) fn frequencies(&self) -> &[f64] {
        &self.freqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn neighbors_are_in_different_groups() {
        let g = GridTopology::new(10, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let alloc = FrequencyAllocation::sample(&g, &FrequencyPlan::default(), &mut rng);
        for (a, b) in g.edges() {
            assert_ne!(
                alloc.is_high_group(a),
                alloc.is_high_group(b),
                "edge ({a},{b}) in the same group"
            );
        }
    }

    #[test]
    fn group_statistics_match_plan() {
        let g = GridTopology::new(10, 10);
        let plan = FrequencyPlan::default();
        let mut rng = StdRng::seed_from_u64(2);
        let alloc = FrequencyAllocation::sample(&g, &plan, &mut rng);
        let lows: Vec<f64> = (0..100)
            .filter(|&q| !alloc.is_high_group(q))
            .map(|q| alloc.frequency(q))
            .collect();
        let mean = lows.iter().sum::<f64>() / lows.len() as f64;
        assert!((mean - plan.low_mean).abs() < 0.15, "low mean {mean}");
        let var = lows.iter().map(|f| (f - mean) * (f - mean)).sum::<f64>() / lows.len() as f64;
        let rel = var.sqrt() / plan.low_mean;
        assert!((rel - plan.rel_std).abs() < 0.025, "rel std {rel}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = GridTopology::new(4, 4);
        let plan = FrequencyPlan::default();
        let a = FrequencyAllocation::sample(&g, &plan, &mut StdRng::seed_from_u64(9));
        let b = FrequencyAllocation::sample(&g, &plan, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.frequencies(), b.frequencies());
    }
}
