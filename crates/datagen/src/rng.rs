//! Small, fast, seedable PRNGs for data generation.
//!
//! Dataset generation must be (a) deterministic for a given seed so that
//! every figure harness and test sees the same input vector, and (b) fast
//! enough to fill multi-hundred-million element vectors. We use SplitMix64
//! for seeding and xoshiro256** as the bulk generator — the standard choice
//! for reproducible scientific workloads — implemented locally to keep the
//! crate dependency-free.

/// SplitMix64: used to expand a single `u64` seed into the 256-bit state of
/// [`Xoshiro256StarStar`] and to derive independent per-chunk seeds.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: fast, high-quality 64-bit generator with 256-bit state.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed from a single `u64` via SplitMix64 (never produces the all-zero
    /// state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (high half of the 64-bit output).
    #[inline]
    pub(crate) fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method
    /// (slightly biased for astronomically large bounds, irrelevant here).
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A pair of independent standard-normal samples (Box–Muller transform).
    pub(crate) fn next_normal_pair(&mut self) -> (f64, f64) {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::seed_from_u64(7);
        let mut b = Xoshiro256StarStar::seed_from_u64(7);
        let mut c = Xoshiro256StarStar::seed_from_u64(8);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zero_seed_does_not_lock_up() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let vals: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(123);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_stays_in_bound() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64] {
            for _ in 0..1000 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Xoshiro256StarStar::seed_from_u64(5).next_bounded(0);
    }

    #[test]
    fn uniformity_rough_check() {
        // Mean of uniform u32 should be close to 2^31.
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_u32() as f64).sum::<f64>() / n as f64;
        let expected = (u32::MAX as f64) / 2.0;
        assert!((mean - expected).abs() / expected < 0.01);
    }

    #[test]
    fn normal_pairs_have_plausible_moments() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2024);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n / 2 {
            let (a, b) = rng.next_normal_pair();
            sum += a + b;
            sum_sq += a * a + b * b;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
