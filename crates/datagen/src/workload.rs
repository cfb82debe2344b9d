//! Multi-query workload generators for the batching engine.
//!
//! A serving workload is a stream of top-k *queries*, not a single vector:
//! each query names a corpus, a `k`, and a direction. Real traffic is
//! heavily skewed — most queries ask for a small `k` (autocomplete, top-10
//! retrieval) while a long tail asks for large candidate sets — so `k` is
//! drawn from a Zipf distribution. The corpus mix controls how much
//! same-corpus fusion a batch admits: `Shared` (everyone queries the one
//! hot corpus — the best case for RTop-K-style batched selection),
//! `Disjoint` (every query brings its own vector — no fusion possible), and
//! `Clustered` (a handful of hot corpora, the realistic middle).
//!
//! Like every generator in this crate the output is a pure function of the
//! seed, independent of thread count (the workload is tiny; it is generated
//! sequentially).

use crate::rng::Xoshiro256StarStar;

/// One query of a generated workload, in engine-agnostic form: `corpus` is
/// an index into whatever corpus set the consumer maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// Which corpus the query selects over (an index in `0..num_corpora`).
    pub corpus: usize,
    /// How many winners the query asks for.
    pub k: usize,
    /// `true` for top-k-largest, `false` for top-k-smallest (k-NN-style).
    pub largest: bool,
    /// `None` for an exact query; `Some(bp)` for a recall-targeted
    /// approximate query whose target is `bp` basis points (`9500` = 0.95).
    /// Kept as an integer so specs stay `Eq`/`Hash`-able; consumers map it
    /// to their recall-target type.
    pub approx_recall_bp: Option<u16>,
}

/// How queries are spread over corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusMix {
    /// Every query hits corpus 0 (one hot shared corpus).
    Shared,
    /// Query `i` hits corpus `i` (no two queries share a corpus).
    Disjoint,
    /// Queries are spread uniformly over `corpora` hot corpora.
    Clustered {
        /// Number of distinct corpora in the mix.
        corpora: usize,
    },
}

impl CorpusMix {
    /// Number of distinct corpora a workload of `num_queries` uses.
    pub fn num_corpora(&self, num_queries: usize) -> usize {
        match self {
            CorpusMix::Shared => 1,
            CorpusMix::Disjoint => num_queries,
            CorpusMix::Clustered { corpora } => (*corpora).clamp(1, num_queries.max(1)),
        }
    }
}

/// Draw `num` values of `k` from a (truncated) Zipf distribution over
/// `1..=k_max`: `P(k) ∝ 1/k^exponent`. `exponent = 0` degenerates to
/// uniform; the classic web-traffic skew is `exponent ≈ 1`.
pub fn zipf_ks(num: usize, k_max: usize, exponent: f64, seed: u64) -> Vec<usize> {
    assert!(k_max >= 1, "k_max must be at least 1");
    assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
    // Cumulative weights over the support (k_max is at most a few million in
    // any realistic sweep; O(k_max) precompute is fine and exact).
    let mut cumulative = Vec::with_capacity(k_max);
    let mut total = 0.0f64;
    for k in 1..=k_max {
        total += (k as f64).powf(-exponent);
        cumulative.push(total);
    }
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5A1F_0000_0000_0001);
    (0..num)
        .map(|_| {
            let u = rng.next_f64() * total;
            // first k whose cumulative weight reaches u
            cumulative.partition_point(|&c| c < u) + 1
        })
        .collect()
}

/// The recall-target palette (in basis points) that approximate workload
/// queries draw from: the targets real retrieval stacks quote (99%, 95%,
/// 90%), matching the targets the `approx_recall` bench sweeps.
pub(crate) const APPROX_RECALL_PALETTE_BP: [u16; 3] = [9900, 9500, 9000];

/// Generate a `num_queries`-query workload: Zipf-distributed `k` over
/// `1..=k_max`, corpora assigned by `mix`, a `smallest_fraction` share of
/// top-k-smallest queries (0.0 = all largest, 1.0 = all smallest), and an
/// `approx_fraction` share of recall-targeted approximate queries whose
/// targets are drawn from 0.99, 0.95 and 0.90 (0.0 = all exact).
///
/// The mode stream is seeded independently of the corpus/direction stream,
/// so changing `approx_fraction` never reshuffles which corpus or
/// direction a query gets.
pub fn multi_query_workload(
    num_queries: usize,
    mix: CorpusMix,
    k_max: usize,
    zipf_exponent: f64,
    smallest_fraction: f64,
    approx_fraction: f64,
    seed: u64,
) -> Vec<QuerySpec> {
    assert!(
        (0.0..=1.0).contains(&smallest_fraction),
        "smallest_fraction must be within [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&approx_fraction),
        "approx_fraction must be within [0, 1]"
    );
    let ks = zipf_ks(num_queries, k_max, zipf_exponent, seed);
    let corpora = mix.num_corpora(num_queries);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5A1F_0000_0000_0002);
    let mut mode_rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5A1F_0000_0000_0003);
    ks.into_iter()
        .enumerate()
        .map(|(i, k)| {
            let corpus = match mix {
                CorpusMix::Shared => 0,
                CorpusMix::Disjoint => i,
                CorpusMix::Clustered { .. } => rng.next_bounded(corpora as u64) as usize,
            };
            let largest = rng.next_f64() >= smallest_fraction;
            let approx_recall_bp = (mode_rng.next_f64() < approx_fraction).then(|| {
                APPROX_RECALL_PALETTE_BP
                    [mode_rng.next_bounded(APPROX_RECALL_PALETTE_BP.len() as u64) as usize]
            });
            QuerySpec {
                corpus,
                k,
                largest,
                approx_recall_bp,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_in_range() {
        let a = zipf_ks(500, 1 << 12, 1.0, 7);
        let b = zipf_ks(500, 1 << 12, 1.0, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| (1..=1 << 12).contains(&k)));
        assert_ne!(a, zipf_ks(500, 1 << 12, 1.0, 8), "seed must matter");
    }

    #[test]
    fn zipf_skews_toward_small_k() {
        let ks = zipf_ks(4000, 1024, 1.1, 42);
        let small = ks.iter().filter(|&&k| k <= 32).count();
        let large = ks.iter().filter(|&&k| k > 512).count();
        assert!(
            small > 5 * large.max(1),
            "Zipf must concentrate mass on small k: {small} small vs {large} large"
        );
        // exponent 0 is uniform: the tail half carries roughly half the mass
        let flat = zipf_ks(4000, 1024, 0.0, 42);
        let upper_half = flat.iter().filter(|&&k| k > 512).count();
        assert!((1500..=2500).contains(&upper_half), "got {upper_half}");
    }

    #[test]
    fn corpus_mixes_assign_corpora_as_documented() {
        let shared = multi_query_workload(64, CorpusMix::Shared, 256, 1.0, 0.0, 0.0, 3);
        assert!(shared.iter().all(|q| q.corpus == 0));
        assert!(shared.iter().all(|q| q.largest));

        let disjoint = multi_query_workload(64, CorpusMix::Disjoint, 256, 1.0, 0.0, 0.0, 3);
        let ids: Vec<usize> = disjoint.iter().map(|q| q.corpus).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());

        let clustered = multi_query_workload(
            256,
            CorpusMix::Clustered { corpora: 4 },
            256,
            1.0,
            0.0,
            0.0,
            3,
        );
        assert!(clustered.iter().all(|q| q.corpus < 4));
        // all four corpora get traffic
        for c in 0..4 {
            assert!(clustered.iter().any(|q| q.corpus == c), "corpus {c} unused");
        }
    }

    #[test]
    fn smallest_fraction_controls_direction_mix() {
        let all_min = multi_query_workload(128, CorpusMix::Shared, 64, 1.0, 1.0, 0.0, 9);
        assert!(all_min.iter().all(|q| !q.largest));
        let mixed = multi_query_workload(512, CorpusMix::Shared, 64, 1.0, 0.5, 0.0, 9);
        let smallest = mixed.iter().filter(|q| !q.largest).count();
        assert!(
            (150..=350).contains(&smallest),
            "≈ half the queries should be smallest-direction, got {smallest}/512"
        );
    }

    #[test]
    fn approx_fraction_controls_mode_mix_without_reshuffling() {
        let exact_only = multi_query_workload(256, CorpusMix::Shared, 128, 1.0, 0.25, 0.0, 9);
        assert!(exact_only.iter().all(|q| q.approx_recall_bp.is_none()));

        let all_approx = multi_query_workload(256, CorpusMix::Shared, 128, 1.0, 0.25, 1.0, 9);
        assert!(all_approx.iter().all(|q| q.approx_recall_bp.is_some()));
        // every target comes from the palette, and all three appear
        for bp in APPROX_RECALL_PALETTE_BP {
            assert!(
                all_approx.iter().any(|q| q.approx_recall_bp == Some(bp)),
                "palette target {bp} unused"
            );
        }
        assert!(all_approx
            .iter()
            .all(|q| APPROX_RECALL_PALETTE_BP.contains(&q.approx_recall_bp.unwrap())));

        // the mode stream is independent: ks, corpora and directions match
        for (e, a) in exact_only.iter().zip(&all_approx) {
            assert_eq!((e.corpus, e.k, e.largest), (a.corpus, a.k, a.largest));
        }

        // a mixed fraction lands near its expectation, deterministically
        let mixed = multi_query_workload(512, CorpusMix::Shared, 128, 1.0, 0.0, 0.5, 9);
        assert_eq!(
            mixed,
            multi_query_workload(512, CorpusMix::Shared, 128, 1.0, 0.0, 0.5, 9)
        );
        let approx = mixed
            .iter()
            .filter(|q| q.approx_recall_bp.is_some())
            .count();
        assert!(
            (150..=350).contains(&approx),
            "≈ half the queries should be approximate, got {approx}/512"
        );
    }

    #[test]
    fn num_corpora_is_consistent() {
        assert_eq!(CorpusMix::Shared.num_corpora(10), 1);
        assert_eq!(CorpusMix::Disjoint.num_corpora(10), 10);
        assert_eq!(CorpusMix::Clustered { corpora: 4 }.num_corpora(10), 4);
        assert_eq!(CorpusMix::Clustered { corpora: 99 }.num_corpora(10), 10);
        assert_eq!(CorpusMix::Clustered { corpora: 0 }.num_corpora(10), 1);
    }
}
