//! GGKS-style bucket top-k (Alabi et al.), generic over any [`TopKKey`].
//!
//! Bucket select first finds the min/max of the input, splits that value
//! range into equal-width buckets, histograms the candidates, keeps only the
//! bucket that contains the k-th largest element and repeats on the narrowed
//! value range until the bucket of interest is pinned down to a single value
//! (or the remaining candidates can be resolved directly).
//!
//! Bucketing happens in the key's radix space ([`TopKKey::Bits`]): the
//! order-preserving bijection makes equal-width *bit-space* buckets a valid
//! monotone partition for every key type (for floats the buckets are not
//! equal-width in value space, which affects only the refinement rate, not
//! correctness). Range arithmetic is done in `u128` so 64-bit key spaces
//! cannot overflow.
//!
//! Unlike radix select, the number of iterations and the rate at which the
//! candidate set shrinks depend entirely on the *value distribution*: on the
//! paper's customized distribution (CD) the bucket of interest keeps the
//! majority of the candidates at every iteration, which is the instability
//! Figure 4 demonstrates and Dr. Top-k removes.

use gpu_sim::{Device, KernelStats};

use crate::key::{KeyBits, TopKKey};
use crate::radix::gather_topk;
use crate::result::TopKResult;

/// Number of equal-width buckets per iteration.
const NUM_BUCKETS: usize = 256;

/// Elements assigned to each warp in scan kernels.
const ELEMS_PER_WARP: usize = 8192;

/// Safety cap on refinement iterations.
const MAX_ITERATIONS: usize = 64;

/// Outcome of the bucket k-selection.
#[derive(Debug, Clone)]
pub struct BucketSelectOutcome<K: TopKKey = u32> {
    /// The k-th largest value.
    pub threshold: K,
    /// Number of refinement iterations executed (excluding min/max).
    pub iterations: usize,
    /// Counters accumulated by the selection kernels.
    pub stats: KernelStats,
    /// Modeled selection time in milliseconds.
    pub time_ms: f64,
}

/// Find the global min and max of `data` (in radix space) with one
/// warp-reduction kernel.
fn min_max<B: KeyBits>(device: &Device, data: &[B]) -> (B, B, KernelStats, f64) {
    let num_warps = data.len().div_ceil(ELEMS_PER_WARP).max(1);
    let mut lo = B::MAX;
    let mut hi = B::ZERO;
    let launch = device.launch("baseline_bucket_minmax", num_warps, |ctx| {
        let chunk = ctx.chunk_of(data.len());
        let slice = ctx.read_coalesced(&data[chunk]);
        let mut warp_lo = B::MAX;
        let mut warp_hi = B::ZERO;
        for &x in slice {
            warp_lo = warp_lo.min(x);
            warp_hi = warp_hi.max(x);
            ctx.record_alu(2);
        }
        hi = hi.max(ctx.warp_reduce_max(warp_hi));
        lo = lo.min(ctx.warp_reduce_min_lanes(&[warp_lo]));
    });
    (lo, hi, launch.stats, launch.time_ms)
}

/// Bucket **k-selection**: find the k-th largest value of `data`
/// (1 ≤ k ≤ |data|).
pub fn bucket_select_kth<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
) -> BucketSelectOutcome<K> {
    assert!(k >= 1 && k <= data.len(), "k must be in 1..=|V|");

    let bits: Vec<K::Bits> = data.iter().map(|x| x.to_bits()).collect();
    let (mut lo, mut hi, mut stats, mut time_ms) = min_max(device, &bits);
    let mut k_remaining = k;
    let mut candidates: Vec<K::Bits> = bits;
    let mut iterations = 0usize;

    // Special case: k == 1 is answered by the min/max kernel alone, which is
    // why the paper notes that "bucket top-k performs fairly well when k=1".
    if k == 1 {
        return BucketSelectOutcome {
            threshold: K::from_bits(hi),
            iterations: 0,
            stats,
            time_ms,
        };
    }

    let nb = NUM_BUCKETS;
    loop {
        iterations += 1;
        if lo == hi || candidates.len() <= 1 || iterations > MAX_ITERATIONS {
            // All remaining candidates share one value (or we hit the cap).
            break;
        }
        if candidates.len() == k_remaining {
            // every remaining candidate is part of the top-k: the threshold
            // is their minimum, found with one more reduction over them.
            let num_warps = candidates.len().div_ceil(ELEMS_PER_WARP).max(1);
            let mut threshold = K::Bits::MAX;
            let launch = device.launch("baseline_bucket_min_of_rest", num_warps, |ctx| {
                let chunk = ctx.chunk_of(candidates.len());
                let slice = ctx.read_coalesced(&candidates[chunk]);
                let m = slice.iter().copied().min().unwrap_or(K::Bits::MAX);
                threshold = threshold.min(ctx.warp_reduce_min_lanes(&[m]));
            });
            stats += launch.stats;
            time_ms += launch.time_ms;
            return BucketSelectOutcome {
                threshold: K::from_bits(threshold),
                iterations,
                stats,
                time_ms,
            };
        }

        let range = hi.to_u128() - lo.to_u128() + 1;
        let width = range.div_ceil(nb as u128).max(1);
        let lo_wide = lo.to_u128();
        let bucket_of = |x: K::Bits| -> usize {
            ((x.to_u128() - lo_wide) / width).min(nb as u128 - 1) as usize
        };

        // --- histogram over the current candidates ---------------------------
        let num_warps = candidates.len().div_ceil(ELEMS_PER_WARP).max(1);
        let mut histogram = vec![0u32; nb];
        let launch = device.launch("baseline_bucket_hist", num_warps, |ctx| {
            let chunk = ctx.chunk_of(candidates.len());
            let slice = ctx.read_coalesced(&candidates[chunk]);
            let mut local = vec![0u32; nb];
            for &x in slice {
                local[bucket_of(x)] += 1;
                ctx.record_alu(3);
            }
            // the flush: one atomicAdd per non-empty bucket
            for (sum, &c) in histogram.iter_mut().zip(&local) {
                if c > 0 {
                    ctx.record_atomics(1);
                    *sum += c;
                }
            }
        });
        stats += launch.stats;
        time_ms += launch.time_ms;

        // --- locate the bucket containing the k-th largest -------------------
        let mut chosen = 0usize;
        let mut above = 0usize;
        for b in (0..nb).rev() {
            let count = histogram[b] as usize;
            if above + count >= k_remaining {
                chosen = b;
                break;
            }
            above += count;
        }
        k_remaining -= above;

        let new_lo_wide = lo.to_u128() + chosen as u128 * width;
        let new_hi_wide = (new_lo_wide + width - 1).min(hi.to_u128());
        let (new_lo, new_hi) = (
            K::Bits::from_u128(new_lo_wide),
            K::Bits::from_u128(new_hi_wide),
        );

        // --- compact the candidates into the chosen bucket -------------------
        let mut compacted: Vec<K::Bits> = Vec::new();
        let launch = device.launch("baseline_bucket_compact", num_warps, |ctx| {
            let chunk = ctx.chunk_of(candidates.len());
            let slice = ctx.read_coalesced(&candidates[chunk]);
            let before = compacted.len();
            for &x in slice {
                if x >= new_lo && x <= new_hi {
                    compacted.push(x);
                }
                ctx.record_alu(2);
            }
            let kept = compacted.len() - before;
            if kept > 0 {
                ctx.record_atomics(1);
                ctx.record_store_coalesced::<K::Bits>(kept);
            }
        });
        stats += launch.stats;
        time_ms += launch.time_ms;
        candidates = compacted;
        lo = new_lo;
        hi = new_hi;

        if candidates.len() == 1 {
            return BucketSelectOutcome {
                threshold: K::from_bits(candidates[0]),
                iterations,
                stats,
                time_ms,
            };
        }
    }

    BucketSelectOutcome {
        threshold: K::from_bits(lo),
        iterations,
        stats,
        time_ms,
    }
}

/// Full bucket **top-k**: selection followed by the shared gather pass.
pub fn bucket_topk<K: TopKKey>(device: &Device, data: &[K], k: usize) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let select = bucket_select_kth(device, data, k);
    gather_topk(
        device,
        data,
        k,
        select.threshold,
        ELEMS_PER_WARP,
        select.stats,
        select.time_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{reference_kth, reference_topk};
    use gpu_sim::DeviceSpec;
    use topk_datagen::Distribution;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn bucket_select_matches_reference_on_all_distributions() {
        let dev = device();
        for dist in Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 5);
            for &k in &[1usize, 2, 100, 2048] {
                let got = bucket_select_kth(&dev, &data, k);
                assert_eq!(got.threshold, reference_kth(&data, k), "{dist} k={k}");
            }
        }
    }

    #[test]
    fn bucket_topk_matches_reference() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 8);
        for &k in &[1usize, 17, 333, 4096] {
            let got = bucket_topk(&dev, &data, k);
            assert_eq!(got.values, reference_topk(&data, k), "k={k}");
        }
    }

    #[test]
    fn bucket_topk_handles_duplicates_and_tiny_inputs() {
        let dev = device();
        let data = vec![42u32; 500];
        let got = bucket_topk(&dev, &data, 5);
        assert_eq!(got.values, vec![42u32; 5]);
        let two = vec![9u32, 3];
        assert_eq!(bucket_topk(&dev, &two, 2).values, vec![9, 3]);
        assert!(bucket_topk(&dev, &two, 0).is_empty());
    }

    #[test]
    fn bucket_topk_is_generic_over_keys() {
        let dev = device();
        let signed: Vec<i32> = (-2000i32..2000).map(|x| x.wrapping_mul(7919)).collect();
        for &k in &[1usize, 9, 500] {
            assert_eq!(
                bucket_topk(&dev, &signed, k).values,
                reference_topk(&signed, k),
                "i32 k={k}"
            );
        }
        let floats: Vec<f64> = (0..3000)
            .map(|i| ((i * 37) % 1000) as f64 - 500.0 + 0.25)
            .collect();
        assert_eq!(
            bucket_topk(&dev, &floats, 11).values,
            reference_topk(&floats, 11)
        );
    }

    #[test]
    fn k_equal_one_needs_no_refinement() {
        let dev = device();
        let data = topk_datagen::normal(1 << 14, 2);
        let got = bucket_select_kth(&dev, &data, 1);
        assert_eq!(got.iterations, 0);
        assert_eq!(got.threshold, *data.iter().max().unwrap());
    }

    #[test]
    fn customized_distribution_forces_more_work_than_uniform() {
        let dev = device();
        let n = 1 << 16;
        let k = 64;
        let ud = topk_datagen::uniform(n, 3);
        let cd = topk_datagen::customized(n, 3);
        let got_ud = bucket_select_kth(&dev, &ud, k);
        let got_cd = bucket_select_kth(&dev, &cd, k);
        // CD keeps the majority of candidates in the bucket of interest, so
        // it must scan strictly more data overall than UD does.
        assert!(
            got_cd.stats.global_loaded_bytes > got_ud.stats.global_loaded_bytes,
            "CD loaded {} bytes, UD loaded {} bytes",
            got_cd.stats.global_loaded_bytes,
            got_ud.stats.global_loaded_bytes
        );
        assert!(got_cd.iterations >= got_ud.iterations);
    }

    #[test]
    fn narrow_range_normal_distribution_terminates() {
        // ND values concentrate within ~100 of 1e8: the range collapses after
        // a couple of iterations and the loop must still terminate correctly.
        let dev = device();
        let data = topk_datagen::normal(1 << 14, 13);
        let got = bucket_select_kth(&dev, &data, 77);
        assert_eq!(got.threshold, reference_kth(&data, 77));
        assert!(got.iterations <= 8);
    }
}
