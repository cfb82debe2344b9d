//! Synthetic proxies for the paper's real-world datasets (Table 1).
//!
//! The paper evaluates on three real datasets that are not redistributable
//! here; each proxy reproduces the *value distribution family* of the
//! original, which is the property that matters for top-k behaviour:
//!
//! | paper dataset | proxy |
//! |---|---|
//! | ANN_SIFT1B (`AN`) — L2 distances from one query to 10^9 SIFT descriptors | [`crate::generate`] with `Distribution::AnnSift`: squared L2 distances between a fixed random 128-d byte vector and `n` random 128-d byte vectors (sum of 128 i.i.d. terms → tight, near-normal distance distribution) |
//! | ClueWeb09 (`CW`) — per-page in-degrees of a web graph | [`web_degrees`]: Pareto/Zipf-tailed degree samples (heavy tail, many small values, few huge hubs) |
//! | TwitterCOVID-19 (`TR`) — COVID-fear scores of 132M tweets tiled to 10^9 | [`twitter_fear_scores`]: bounded integer scores generated for a smaller base population and tiled to `n`, mirroring how the paper duplicates the original posts |

use crate::parallel_fill;
use crate::rng::{SplitMix64, Xoshiro256StarStar};

/// Dimensionality of the synthetic SIFT descriptors.
pub(crate) const SIFT_DIMS: usize = 128;

/// Pareto tail exponent used for the web-degree proxy (α ≈ 2.1 is typical
/// for web graphs).
pub(crate) const WEB_DEGREE_ALPHA: f64 = 2.1;

/// Number of distinct base tweets the Twitter proxy generates before tiling,
/// expressed as a divisor of `n` (the paper tiles 132M posts to 10^9,
/// roughly ×8).
pub(crate) const TWITTER_TILE_FACTOR: usize = 8;

/// Maximum fear score of the Twitter proxy (scores are scaled to integers).
pub(crate) const TWITTER_MAX_SCORE: u32 = 100_000;

/// Squared L2 distances between a fixed query descriptor and `n` random
/// 128-dimensional byte descriptors (the `AN` proxy).
///
/// This is exactly the array the paper feeds to top-k for k-NN search: "We
/// use the first vector from the ANN_SIFT1B dataset to calculate the
/// euclidean distances between this vector and the 1 billion vectors."
pub(crate) fn ann_sift_distances(n: usize, seed: u64) -> Vec<u32> {
    // The query vector is derived from the seed so the whole dataset is
    // reproducible from a single number.
    let mut qrng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xA11C_E500);
    let query: Vec<u8> = (0..SIFT_DIMS)
        .map(|_| (qrng.next_u32() >> 24) as u8)
        .collect();
    let query_ref = &query;
    parallel_fill(n, seed, move |rng, out| {
        let mut descriptor = [0u8; SIFT_DIMS];
        for v in out.iter_mut() {
            // 8 random bytes per u64 draw: 16 draws per descriptor.
            for chunk in 0..SIFT_DIMS / 8 {
                let word = rng.next_u64();
                for b in 0..8 {
                    descriptor[chunk * 8 + b] = (word >> (8 * b)) as u8;
                }
            }
            let mut dist: u64 = 0;
            for d in 0..SIFT_DIMS {
                let diff = descriptor[d] as i64 - query_ref[d] as i64;
                dist += (diff * diff) as u64;
            }
            *v = dist.min(u32::MAX as u64) as u32;
        }
    })
}

/// Euclidean (non-squared) L2 distances between a fixed query descriptor and
/// `n` random 128-dimensional byte descriptors, as native `f32` values.
///
/// This is the float-keyed counterpart of the `AN` proxy, feeding a
/// smallest-direction top-k directly: real ANN pipelines keep distances in
/// `f32` and a generic-key top-k has no reason to quantize them. The
/// descriptor stream is identical to the `u32` generator's (same per-chunk
/// RNG draws), so the two datasets rank vectors identically.
pub fn ann_sift_distances_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut qrng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xA11C_E500);
    let query: Vec<u8> = (0..SIFT_DIMS)
        .map(|_| (qrng.next_u32() >> 24) as u8)
        .collect();
    let query_ref = &query;
    parallel_fill(n, seed, move |rng, out| {
        let mut descriptor = [0u8; SIFT_DIMS];
        for v in out.iter_mut() {
            for chunk in 0..SIFT_DIMS / 8 {
                let word = rng.next_u64();
                for b in 0..8 {
                    descriptor[chunk * 8 + b] = (word >> (8 * b)) as u8;
                }
            }
            let mut dist: u64 = 0;
            for d in 0..SIFT_DIMS {
                let diff = descriptor[d] as i64 - query_ref[d] as i64;
                dist += (diff * diff) as u64;
            }
            *v = (dist as f32).sqrt();
        }
    })
}

/// BM25-like retrieval scores as native `f32` values — the float score
/// stream a Block-Max WAND index ranks (the Figure 24 use case with real
/// scoring instead of integer proxies).
///
/// Scores follow the classic shape `idf · tf·(k1+1)/(tf+k1)`: an
/// exponential idf tail (few rare, high-weight terms) saturated by the
/// BM25 `k1 = 1.2` term-frequency curve. All scores are positive and
/// finite, with a long right tail.
pub fn bm25_scores(n: usize, seed: u64) -> Vec<f32> {
    const K1: f64 = 1.2;
    parallel_fill(n, seed, |rng, out| {
        for v in out.iter_mut() {
            let idf = -rng.next_f64().max(1e-12).ln();
            let tf = -rng.next_f64().max(1e-12).ln() * 4.0;
            *v = (idf * (tf * (K1 + 1.0)) / (tf + K1)) as f32;
        }
    })
}

/// Heavy-tailed web-page degree samples (the `CW` proxy).
///
/// Degrees follow a power law with density exponent α = 2.1 (so the
/// inverse-CDF is `d = ⌊x_min · u^(−1/(α−1))⌋`), producing the
/// many-small / few-huge shape of real web graphs such as ClueWeb09.
pub fn web_degrees(n: usize, seed: u64) -> Vec<u32> {
    parallel_fill(n, seed, |rng, out| {
        for v in out.iter_mut() {
            let u = rng.next_f64().max(1e-12);
            let degree = 1.0 * u.powf(-1.0 / (WEB_DEGREE_ALPHA - 1.0));
            *v = if degree >= u32::MAX as f64 {
                u32::MAX
            } else {
                degree as u32
            };
        }
    })
}

/// COVID-fear scores tiled to `n` elements (the `TR` proxy).
///
/// A base population of `n / 8` distinct scores is generated from a
/// right-skewed (beta-like) distribution over `[0, 100_000]` and then
/// repeated to length `n`, mirroring the paper's duplication of 132M
/// original posts onto a 10^9-element vector so the value distribution is
/// preserved.
pub fn twitter_fear_scores(n: usize, seed: u64) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    let base_len = (n / TWITTER_TILE_FACTOR).max(1);
    let base = parallel_fill(base_len, seed, |rng, out| {
        for v in out.iter_mut() {
            // Right-skewed score: product of two uniforms biases toward low
            // fear, with a long tail of highly fearful posts.
            let x = rng.next_f64() * rng.next_f64();
            *v = (x * TWITTER_MAX_SCORE as f64) as u32;
        }
    });
    let mut out = Vec::with_capacity(n);
    while out.len() + base.len() <= n {
        out.extend_from_slice(&base);
    }
    let remaining = n - out.len();
    out.extend_from_slice(&base[..remaining]);
    out
}

/// Derive a per-chunk seed that is unique per (dataset seed, chunk index).
pub(crate) fn chunk_seed(seed: u64, chunk_idx: usize) -> u64 {
    let mut sm = SplitMix64::new(seed ^ (chunk_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sift_distances_are_deterministic_and_plausible() {
        let a = ann_sift_distances(4096, 3);
        let b = ann_sift_distances(4096, 3);
        assert_eq!(a, b);
        // Expected squared distance between random byte vectors:
        // E[(X-Y)^2] per dim ≈ 10 837; over 128 dims ≈ 1.39e6.
        let mean = a.iter().map(|&x| x as f64).sum::<f64>() / a.len() as f64;
        assert!(mean > 1.0e6 && mean < 1.8e6, "mean {mean}");
        // distances concentrate: relative spread is modest
        let max = *a.iter().max().unwrap() as f64;
        let min = *a.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 3.0, "spread too large: {min}..{max}");
    }

    #[test]
    fn f32_distances_track_the_u32_generator() {
        let sq = ann_sift_distances(2048, 3);
        let eu = ann_sift_distances_f32(2048, 3);
        assert_eq!(sq.len(), eu.len());
        // identical descriptor streams: the float distance is the square
        // root of the integer squared distance, element for element.
        for (&s, &e) in sq.iter().zip(&eu) {
            assert!((e - (s as f32).sqrt()).abs() < 1e-3, "{s} vs {e}");
        }
        assert_eq!(eu, ann_sift_distances_f32(2048, 3), "deterministic");
        assert_ne!(eu, ann_sift_distances_f32(2048, 4));
    }

    #[test]
    fn bm25_scores_are_positive_finite_and_skewed() {
        let s = bm25_scores(1 << 14, 9);
        assert_eq!(s, bm25_scores(1 << 14, 9), "deterministic");
        assert!(s.iter().all(|&x| x.is_finite() && x >= 0.0));
        let mean = s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64;
        let max = s.iter().cloned().fold(0.0f32, f32::max) as f64;
        // long right tail: the max is far above the mean
        assert!(max > 4.0 * mean, "mean {mean}, max {max}");
    }

    #[test]
    fn web_degrees_have_heavy_tail() {
        let v = web_degrees(1 << 16, 5);
        let ones = v.iter().filter(|&&d| d <= 2).count() as f64 / v.len() as f64;
        assert!(ones > 0.5, "most pages should have tiny degree, got {ones}");
        let max = *v.iter().max().unwrap();
        assert!(max > 1_000, "expected a hub with large degree, max {max}");
    }

    #[test]
    fn twitter_scores_are_tiled() {
        let n = 4096;
        let v = twitter_fear_scores(n, 9);
        assert_eq!(v.len(), n);
        let base_len = n / TWITTER_TILE_FACTOR;
        // tiling: the second block repeats the first
        assert_eq!(&v[..base_len], &v[base_len..2 * base_len]);
        assert!(v.iter().all(|&s| s <= TWITTER_MAX_SCORE));
        // skewed toward low fear
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!(mean < TWITTER_MAX_SCORE as f64 / 2.0);
    }

    #[test]
    fn twitter_handles_non_multiple_lengths() {
        let v = twitter_fear_scores(1000, 1);
        assert_eq!(v.len(), 1000);
        let w = twitter_fear_scores(3, 1);
        assert_eq!(w.len(), 3);
        assert!(twitter_fear_scores(0, 1).is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(web_degrees(1024, 1), web_degrees(1024, 2));
        assert_ne!(ann_sift_distances(256, 1), ann_sift_distances(256, 2));
        assert_ne!(twitter_fear_scores(1024, 1), twitter_fear_scores(1024, 2));
    }

    #[test]
    fn chunk_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..64).map(|i| chunk_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
