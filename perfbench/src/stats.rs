//! Small statistics helpers: quantiles, a seeded RNG, and a Zipf sampler.
//!
//! The benchmark draws its own inputs (query ids, probe matrices) from these
//! so that nothing it measures depends on the program's random streams.

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between the
/// closest ranks (the "inclusive" definition: `q = 0` is the minimum and
/// `q = 1` the maximum). Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64: a tiny, well-mixed 64-bit generator, deterministic per seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// Matrix entries uniform in `[-1, 1)`, row-major.
    pub fn uniform_vec(&mut self, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| (self.next_f64() * 2.0 - 1.0) as f32)
            .collect()
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(k) = k^-s / H(n, s)`. Sampling inverts the cumulative table by
/// binary search.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Analytic `P(rank ≤ k)` for `k ∈ 1..=n`.
    #[cfg(test)]
    pub fn cdf(&self, k: usize) -> f64 {
        self.cdf[k.clamp(1, self.n()) - 1]
    }

    /// A 0-based rank (`0` is the most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.n() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn splitmix_is_deterministic_and_uniform() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let xs: Vec<f64> = (0..10_000).map(|_| a.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert_eq!(xs[17], {
            for _ in 0..17 {
                b.next_f64();
            }
            b.next_f64()
        });
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let mut p = SplitMix64::new(3).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_cdf_matches_the_harmonic_formula() {
        let z = Zipf::new(10, 1.0);
        let h10: f64 = (1..=10).map(|k| 1.0 / k as f64).sum();
        assert!((z.cdf(1) - 1.0 / h10).abs() < 1e-12);
        assert!((z.cdf(3) - (1.0 + 0.5 + 1.0 / 3.0) / h10).abs() < 1e-12);
        assert_eq!(z.cdf(10), 1.0);
    }

    #[test]
    fn zipf_samples_follow_the_analytic_cdf() {
        let n = 1000;
        let z = Zipf::new(n, 1.1);
        let mut rng = SplitMix64::new(42);
        let draws = 200_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // Kolmogorov–Smirnov distance between the empirical and analytic
        // CDFs; the 0.1% critical value at this sample size is ~0.0044.
        let mut acc = 0u64;
        let mut ks = 0.0f64;
        for (k, c) in counts.iter().enumerate() {
            acc += c;
            ks = ks.max((acc as f64 / draws as f64 - z.cdf(k + 1)).abs());
        }
        assert!(ks < 0.0044, "KS distance {ks}");
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
    }
}
