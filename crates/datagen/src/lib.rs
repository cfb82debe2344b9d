//! # topk-datagen — evaluation datasets for the Dr. Top-k reproduction
//!
//! Section 6 of the paper evaluates on three synthetic distributions
//! (uniform **UD**, normal **ND**, customized/adversarial **CD**) and three
//! real-world datasets (ANN_SIFT1B distances, ClueWeb09 degrees,
//! TwitterCOVID-19 fear scores). This crate generates all six — the real
//! datasets as distribution-faithful synthetic proxies (see
//! [`realworld`]) — deterministically from a seed, in parallel.
//!
//! ```
//! use topk_datagen::{generate, Distribution};
//!
//! let v = generate(Distribution::Uniform, 1 << 16, 42);
//! assert_eq!(v.len(), 1 << 16);
//! // same seed, same data
//! assert_eq!(v, generate(Distribution::Uniform, 1 << 16, 42));
//! ```

pub mod realworld;
pub mod rng;
pub mod synthetic;
pub mod workload;

pub use realworld::{ann_sift_distances_f32, bm25_scores, twitter_fear_scores, web_degrees};
pub use synthetic::{
    customized, low_entropy, moe_gating_logits, normal, uniform, uniform_f32, zipf,
    LOW_ENTROPY_DISTINCT, ZIPF_EXPONENT,
};
pub use workload::{multi_query_workload, zipf_ks, CorpusMix, QuerySpec};

use rng::Xoshiro256StarStar;

/// The datasets used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// UD — uniform over `[0, 2^32 − 1]`.
    Uniform,
    /// ND — normal `N(10^8, 10)`.
    Normal,
    /// CD — the paper's customized, bucket-adversarial distribution.
    Customized,
    /// AN — ANN_SIFT1B proxy: squared L2 distances of 128-d descriptors.
    AnnSift,
    /// CW — ClueWeb09 proxy: heavy-tailed web-page degrees.
    WebDegrees,
    /// TR — TwitterCOVID-19 proxy: tiled fear scores.
    TwitterFear,
}

impl Distribution {
    /// All synthetic distributions (Figure 18's x-axis groups).
    pub const SYNTHETIC: [Distribution; 3] = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::Customized,
    ];

    /// All real-world proxies (Figure 19's datasets).
    pub const REAL_WORLD: [Distribution; 3] = [
        Distribution::AnnSift,
        Distribution::WebDegrees,
        Distribution::TwitterFear,
    ];

    /// Every distribution, synthetic then real-world. Derived from
    /// [`Self::SYNTHETIC`] and [`Self::REAL_WORLD`] so the three constants
    /// cannot drift apart; a new variant must be added to one of those two.
    pub const ALL: [Distribution; 6] = {
        let mut all = [Distribution::Uniform; 6];
        let mut i = 0;
        while i < Self::SYNTHETIC.len() {
            all[i] = Self::SYNTHETIC[i];
            i += 1;
        }
        let mut j = 0;
        while j < Self::REAL_WORLD.len() {
            all[Self::SYNTHETIC.len() + j] = Self::REAL_WORLD[j];
            j += 1;
        }
        all
    };

    /// Abbreviation used in the paper's figures (UD, ND, CD, AN, CW, TR).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Distribution::Uniform => "UD",
            Distribution::Normal => "ND",
            Distribution::Customized => "CD",
            Distribution::AnnSift => "AN",
            Distribution::WebDegrees => "CW",
            Distribution::TwitterFear => "TR",
        }
    }

    /// Long human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "Uniform distribution",
            Distribution::Normal => "Normal distribution",
            Distribution::Customized => "Customized distribution",
            Distribution::AnnSift => "ANN_SIFT1B proxy (k-NN distances)",
            Distribution::WebDegrees => "ClueWeb09 proxy (web degrees)",
            Distribution::TwitterFear => "TwitterCOVID-19 proxy (fear scores)",
        }
    }
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Generate `n` elements of the given distribution from `seed`.
pub fn generate(dist: Distribution, n: usize, seed: u64) -> Vec<u32> {
    match dist {
        Distribution::Uniform => uniform(n, seed),
        Distribution::Normal => normal(n, seed),
        Distribution::Customized => customized(n, seed),
        Distribution::AnnSift => realworld::ann_sift_distances(n, seed),
        Distribution::WebDegrees => web_degrees(n, seed),
        Distribution::TwitterFear => twitter_fear_scores(n, seed),
    }
}

/// Minimum number of elements per generation chunk (below this the vector is
/// filled sequentially; chunk boundaries also define the per-chunk RNG
/// streams, so this constant is part of the deterministic output).
const CHUNK_ELEMS: usize = 1 << 18;

/// Fill a vector of `n` elements in parallel. `fill` receives a
/// chunk-specific RNG and the chunk slice; chunk seeds are derived from
/// `seed` and the chunk index, so the output is independent of the number of
/// worker threads. Generic over the element type so the same machinery
/// produces `u32` datasets and the `f32` distance/score datasets.
#[allow(clippy::disallowed_methods)] // input set-up, not on the request path
pub(crate) fn parallel_fill<T, F>(n: usize, seed: u64, fill: F) -> Vec<T>
where
    T: Default + Copy + Send,
    F: Fn(&mut Xoshiro256StarStar, &mut [T]) + Sync,
{
    let mut out = vec![T::default(); n];
    if n == 0 {
        return out;
    }
    let num_chunks = n.div_ceil(CHUNK_ELEMS);
    if num_chunks <= 1 {
        let mut rng = Xoshiro256StarStar::seed_from_u64(realworld::chunk_seed(seed, 0));
        fill(&mut rng, &mut out);
        return out;
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(num_chunks);
    std::thread::scope(|scope| {
        let fill = &fill;
        let chunks: Vec<(usize, &mut [T])> = out.chunks_mut(CHUNK_ELEMS).enumerate().collect();
        // round-robin chunks over workers
        let mut per_worker: Vec<Vec<(usize, &mut [T])>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, chunk) in chunks {
            per_worker[i % workers].push((i, chunk));
        }
        for worker_chunks in per_worker {
            scope.spawn(move || {
                for (idx, chunk) in worker_chunks {
                    let mut rng =
                        Xoshiro256StarStar::seed_from_u64(realworld::chunk_seed(seed, idx));
                    fill(&mut rng, chunk);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_dispatches_every_distribution() {
        for dist in Distribution::SYNTHETIC
            .iter()
            .chain(Distribution::REAL_WORLD.iter())
        {
            let v = generate(*dist, 1 << 12, 7);
            assert_eq!(v.len(), 1 << 12, "{dist}");
        }
    }

    #[test]
    fn abbreviations_match_paper() {
        assert_eq!(Distribution::Uniform.abbrev(), "UD");
        assert_eq!(Distribution::Normal.abbrev(), "ND");
        assert_eq!(Distribution::Customized.abbrev(), "CD");
        assert_eq!(Distribution::AnnSift.abbrev(), "AN");
        assert_eq!(Distribution::WebDegrees.abbrev(), "CW");
        assert_eq!(Distribution::TwitterFear.abbrev(), "TR");
        assert_eq!(format!("{}", Distribution::Uniform), "UD");
        assert!(!Distribution::AnnSift.name().is_empty());
    }

    #[test]
    fn parallel_fill_is_thread_count_independent() {
        // The chunking scheme must give the same output regardless of the
        // host's parallelism: chunk seeds depend only on (seed, chunk index).
        let big = uniform(3 * CHUNK_ELEMS + 17, 99);
        // Recompute the first chunk sequentially and compare.
        let small = {
            let mut rng = Xoshiro256StarStar::seed_from_u64(realworld::chunk_seed(99, 0));
            let mut out = vec![0u32; CHUNK_ELEMS];
            for v in out.iter_mut() {
                *v = rng.next_u32();
            }
            out
        };
        assert_eq!(&big[..CHUNK_ELEMS], &small[..]);
    }

    #[test]
    fn cross_distribution_outputs_differ() {
        let n = 1 << 12;
        let ud = generate(Distribution::Uniform, n, 7);
        let nd = generate(Distribution::Normal, n, 7);
        let cd = generate(Distribution::Customized, n, 7);
        assert_ne!(ud, nd);
        assert_ne!(nd, cd);
        assert_ne!(ud, cd);
    }
}
