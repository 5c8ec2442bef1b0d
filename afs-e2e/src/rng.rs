//! The benchmark's own PRNG, so an op sequence depends on `--seed` and on
//! nothing the repository can change.

/// splitmix64.
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one client of one workload.
    pub fn for_client(seed: u64, workload: u64, client: u64) -> Self {
        let mut mix = Rng(seed ^ workload.wrapping_mul(0xa076_1d64_78bd_642f));
        let base = mix.next_u64();
        Rng(base ^ (client + 1).wrapping_mul(0xe703_7ed1_a0b4_28db))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `0..n` by inverse-CDF lookup; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
        let mut sum = 0.0;
        for weight in cdf.iter_mut() {
            sum += *weight;
            *weight = sum;
        }
        cdf.iter_mut().for_each(|c| *c /= sum);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_client() {
        let draw = |seed, client| {
            let mut rng = Rng::for_client(seed, 3, client);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(256, 0.99);
        let mut rng = Rng::new(9);
        let mut counts = vec![0u32; 256];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[200]);
        // Rank 0 of Zipf(0.99, 256) carries about 1/H ≈ 16 % of the mass.
        assert!((14_000..19_000).contains(&counts[0]), "{}", counts[0]);
    }
}
