//! Key distributions of the workload generators: uniform, Zipfian and
//! YCSB's "latest", each sampled from a [`sim::Pcg64`] so a seed fixes
//! every key a workload touches.

use sim::Pcg64;

/// Zipfian sampler over `[0, n)` using the YCSB/Gray incremental method.
///
/// `theta = 0` degenerates to uniform; the paper's "data skew" axis in
/// Tables IV and Fig 8 maps directly onto `theta` in `[0, 1]` (their 1.0
/// being the classic 0.99-ish heavy skew; we accept theta up to 0.999).
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!((0.0..1.0).contains(&theta.min(0.9999)), "theta in [0,1)");
        let theta = theta.min(0.9999);
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact sum for small n; Euler-Maclaurin style approximation for
        // large n keeps construction O(1)-ish for big domains.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // integral of x^-theta from 10000 to n
            let a = 1.0 - theta;
            head + ((n as f64).powf(a) - 10_000f64.powf(a)) / a
        }
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most popular item.
    fn sample(&self, rng: &mut Pcg64) -> u64 {
        if self.theta < 1e-9 {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * spread) as u64 % self.n
    }
}

/// A key distribution used by the workload generators.
#[derive(Clone, Debug)]
pub enum KeyDistribution {
    /// Uniform over the key domain.
    Uniform { n: u64 },
    /// Zipfian with the given skew; rank 0 hottest.
    Zipfian(Zipfian),
    /// "Latest": zipfian over recency — rank 0 is the most recently
    /// inserted key (YCSB workload D semantics).
    Latest(Zipfian),
}

impl KeyDistribution {
    pub fn zipfian(n: u64, theta: f64) -> Self {
        if theta < 1e-9 {
            KeyDistribution::Uniform { n }
        } else {
            KeyDistribution::Zipfian(Zipfian::new(n, theta))
        }
    }

    pub fn latest(n: u64, theta: f64) -> Self {
        KeyDistribution::Latest(Zipfian::new(n, theta))
    }

    /// Sample a key index given the current insert horizon `max_key`
    /// (exclusive). For `Latest`, samples are taken near `max_key`.
    pub fn sample(&self, rng: &mut Pcg64, max_key: u64) -> u64 {
        match self {
            KeyDistribution::Uniform { n } => rng.next_below((*n).min(max_key.max(1))),
            KeyDistribution::Zipfian(z) => {
                let rank = z.sample(rng);
                // Scatter ranks over the key space deterministically so
                // hot keys are not all adjacent (FNV-style mix).
                scatter(rank, z.n).min(max_key.saturating_sub(1))
            }
            KeyDistribution::Latest(z) => {
                let horizon = max_key.max(1);
                let back = z.sample(rng) % horizon;
                horizon - 1 - back
            }
        }
    }
}

/// Deterministically permute `rank` within `[0, n)` so popular ranks land on
/// scattered keys. Uses a multiplicative hash then reduces modulo n; not a
/// true permutation for non-power-of-two n, but collision rates are
/// negligible for workload purposes.
#[inline]
fn scatter(rank: u64, n: u64) -> u64 {
    rank.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(31) % n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_zero_theta_is_uniform() {
        let z = KeyDistribution::zipfian(1000, 0.0);
        assert!(matches!(z, KeyDistribution::Uniform { .. }));
    }

    #[test]
    fn zipfian_skew_concentrates_mass() {
        let mut rng = Pcg64::seeded(11);
        let z = Zipfian::new(10_000, 0.99);
        let mut top10 = 0u32;
        let samples = 20_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 10 {
                top10 += 1;
            }
        }
        let frac = top10 as f64 / samples as f64;
        assert!(frac > 0.3, "top-10 mass {frac} should dominate at 0.99");
    }

    #[test]
    fn zipfian_mild_skew_less_concentrated() {
        let mut rng = Pcg64::seeded(11);
        let hot = Zipfian::new(10_000, 0.99);
        let mild = Zipfian::new(10_000, 0.4);
        let count =
            |z: &Zipfian, rng: &mut Pcg64| (0..10_000).filter(|_| z.sample(rng) < 10).count();
        let h = count(&hot, &mut rng);
        let m = count(&mild, &mut rng);
        assert!(h > 2 * m, "hot {h} vs mild {m}");
    }

    #[test]
    fn zipfian_samples_within_domain() {
        let mut rng = Pcg64::seeded(3);
        for theta in [0.0, 0.2, 0.6, 0.9, 0.99, 1.0] {
            let z = Zipfian::new(257, theta);
            for _ in 0..1000 {
                assert!(z.sample(&mut rng) < 257);
            }
        }
    }

    #[test]
    fn zipfian_large_domain_constructs() {
        // Exercises the approximated zeta path.
        let z = Zipfian::new(200_000_000, 0.8);
        let mut rng = Pcg64::seeded(17);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 200_000_000);
        }
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let mut rng = Pcg64::seeded(23);
        let d = KeyDistribution::latest(1_000_000, 0.99);
        let horizon = 500_000u64;
        let recent = (0..5_000)
            .filter(|_| {
                let k = d.sample(&mut rng, horizon);
                assert!(k < horizon);
                k > horizon - horizon / 10
            })
            .count();
        assert!(recent > 2_500, "recent fraction {recent}/5000");
    }

    #[test]
    fn scatter_spreads_adjacent_ranks() {
        let a = scatter(0, 1_000_000);
        let b = scatter(1, 1_000_000);
        assert!(a != b);
        assert!((a as i64 - b as i64).unsigned_abs() > 1000);
    }
}
