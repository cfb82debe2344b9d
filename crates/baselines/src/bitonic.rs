//! Bitonic top-k (Shanbhag, Pirk and Madden, SIGMOD'18).
//!
//! Bitonic top-k repeatedly merges pairs of sorted length-`k` sequences into
//! a bitonic sequence of length `2k` and keeps only its top half, halving the
//! surviving vector at every iteration until exactly `k` elements remain.
//! The first iteration sorts each `2k`-element chunk locally (in shared
//! memory); each later iteration loads the surviving elements, merges them
//! in shared memory and writes back half of them.
//!
//! The workload is **data independent** — the number of iterations and the
//! traffic depend only on `|V|` and `k` — which is why the paper's Figure 4
//! shows bitonic as the *stable* baseline. Its weakness, also modeled here,
//! is the shared-memory footprint: each merge needs `2k` elements resident
//! per thread block, so for `k` beyond a few hundred the achievable occupancy
//! collapses and performance falls off a cliff (the paper caps the original
//! implementation at `k ≤ 256`).

use gpu_sim::{Device, KernelStats};
use std::cmp::Reverse;

use crate::key::TopKKey;
use crate::result::TopKResult;

/// Occupancy threshold: the largest `k` for which the merge working set
/// still allows full occupancy. The paper reports the original
/// implementation overflowing shared memory beyond `k = 256`.
const FULL_OCCUPANCY_K: usize = 256;

/// Bitonic **top-k** of `data`. The merge network is comparison-based, so
/// genericity over [`TopKKey`] costs nothing: elements are compared in the
/// key's order-preserving radix space.
pub fn bitonic_topk<K: TopKKey>(device: &Device, data: &[K], k: usize) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;

    // Occupancy penalty: once the 2k-element working set exceeds what a
    // fully-occupied SM can hold per block, the number of resident blocks
    // drops roughly in proportion to k, serializing the shared-memory
    // traffic by the same factor (the paper's k > 256 cliff).
    let occupancy_penalty = k.div_ceil(FULL_OCCUPANCY_K).max(1);

    // Iteration 0: sort every 2k chunk and keep its top k.
    // Iterations 1..: merge adjacent k-sequences (a bitonic 2k merge) and
    // keep the top k of each, halving the survivors every time.
    let mut survivors: Vec<K> = data.to_vec();
    let mut iteration = 0usize;
    while survivors.len() > k {
        let chunk = (2 * k).max(2);
        let num_chunks = survivors.len().div_ceil(chunk);
        // cap the number of simulated warps; each warp loops over its share
        // of the 2k chunks
        let num_warps = num_chunks.clamp(1, 4096);
        let input = &survivors;
        let merge_depth = (usize::BITS - (chunk - 1).leading_zeros()) as u64; // log2(2k)
        let mut kept: Vec<K> = Vec::new();
        let launch = device.launch("baseline_bitonic_merge", num_warps, |ctx| {
            // each simulated warp handles its share of the 2k chunks
            let chunk_range = ctx.chunk_of(num_chunks);
            for c in chunk_range {
                let start = c * chunk;
                let end = ((c + 1) * chunk).min(input.len());
                let slice = ctx.read_coalesced(&input[start..end]);
                // bitonic merge of the 2k working set in shared memory:
                // log2(2k) stages, each touching every element once.
                let ops = (slice.len() as u64) * merge_depth * occupancy_penalty as u64;
                ctx.record_shared(2 * ops);
                ctx.record_alu(ops);
                if iteration == 0 {
                    // the initial local sort is a full bitonic sort:
                    // log2(2k)·(log2(2k)+1)/2 stages instead of log2(2k)
                    let extra = (slice.len() as u64) * merge_depth * (merge_depth + 1) / 2
                        * occupancy_penalty as u64;
                    ctx.record_shared(2 * extra);
                    ctx.record_alu(extra);
                }
                ctx.syncthreads();
                let mut local: Vec<K> = slice.to_vec();
                local.sort_unstable_by_key(|v| Reverse(v.to_bits()));
                local.truncate(k);
                ctx.record_store_coalesced::<K>(local.len());
                kept.extend(local);
            }
        });
        stats += launch.stats;
        time_ms += launch.time_ms;
        survivors = kept;
        iteration += 1;
        // Defensive: guarantee progress even for degenerate k / |V| combos.
        if survivors.len() <= k {
            break;
        }
    }

    survivors.sort_unstable_by_key(|v| Reverse(v.to_bits()));
    survivors.truncate(k);
    TopKResult::from_values(survivors, stats, time_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::reference_topk;
    use gpu_sim::DeviceSpec;
    use topk_datagen::Distribution;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn bitonic_matches_reference_across_distributions() {
        let dev = device();
        for dist in Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 21);
            for &k in &[1usize, 8, 100, 1000] {
                let got = bitonic_topk(&dev, &data, k);
                assert_eq!(got.values, reference_topk(&data, k), "{dist} k={k}");
            }
        }
    }

    #[test]
    fn bitonic_handles_non_power_of_two_and_edges() {
        let dev = device();
        let data = topk_datagen::uniform(10_007, 9);
        let got = bitonic_topk(&dev, &data, 37);
        assert_eq!(got.values, reference_topk(&data, 37));
        assert!(bitonic_topk(&dev, &data, 0).is_empty());
        let tiny = vec![5u32, 2, 8];
        assert_eq!(bitonic_topk(&dev, &tiny, 3).values, vec![8, 5, 2]);
        assert_eq!(bitonic_topk(&dev, &tiny, 10).values, vec![8, 5, 2]);
    }

    #[test]
    fn workload_is_distribution_independent() {
        let dev = device();
        let n = 1 << 14;
        let k = 64;
        let ud = bitonic_topk(&dev, &topk_datagen::uniform(n, 3), k);
        let cd = bitonic_topk(&dev, &topk_datagen::customized(n, 3), k);
        assert_eq!(
            ud.stats.global_load_transactions,
            cd.stats.global_load_transactions
        );
        assert_eq!(ud.stats.shared_ops, cd.stats.shared_ops);
    }

    #[test]
    fn large_k_pays_occupancy_penalty() {
        let dev = device();
        let n = 1 << 15;
        let data = topk_datagen::uniform(n, 17);
        let small = bitonic_topk(&dev, &data, 128);
        let large = bitonic_topk(&dev, &data, 2048);
        // beyond k=256 the shared-memory working set forces extra serialized
        // passes, so per-element shared traffic must grow super-linearly
        let small_per_elem = small.stats.shared_ops as f64 / n as f64;
        let large_per_elem = large.stats.shared_ops as f64 / n as f64;
        assert!(
            large_per_elem > 2.0 * small_per_elem,
            "expected occupancy cliff: {small_per_elem} vs {large_per_elem}"
        );
    }
}
