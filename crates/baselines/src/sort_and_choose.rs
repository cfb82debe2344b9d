//! Sort-and-choose top-k (THRUST-style baseline).
//!
//! The simplest GPU approach the paper compares against: sort the entire
//! input vector with a radix sort and take the first `k` elements. This does
//! far more work than necessary — the paper's Figure 17 shows it an order of
//! magnitude slower than the dedicated top-k algorithms — but it is the
//! approach many applications still use (THRUST `sort` + slice).
//!
//! The simulated cost model charges the canonical LSD radix-sort traffic:
//! four counting passes plus four scatter passes over the full vector
//! (reads + writes), followed by reading back the `k` winners.

use gpu_sim::{Device, KernelStats};
use std::cmp::Reverse;

use crate::key::{KeyBits, TopKKey};
use crate::result::TopKResult;

/// Elements assigned to each simulated warp when scanning.
const ELEMS_PER_WARP: usize = 8192;

/// Sort-and-choose top-k: full radix sort, then take the top `k`.
///
/// Generic over [`TopKKey`]: the LSD radix sort runs over the key's radix
/// space, so a 32-bit key pays 4 byte passes and a 64-bit key pays 8.
pub fn sort_and_choose_topk<K: TopKKey>(device: &Device, data: &[K], k: usize) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;

    // One LSD radix-sort pass per byte of the key: each pass histograms
    // (read all) and scatters (read all + write all, scattered by digit).
    let num_warps = data.len().div_ceil(ELEMS_PER_WARP).max(1);
    let sort_passes = K::Bits::BITS.div_ceil(8);
    for _ in 0..sort_passes {
        let launch = device.launch("baseline_sort_pass", num_warps, |ctx| {
            let chunk = ctx.chunk_of(data.len());
            let slice = ctx.read_coalesced(&data[chunk]);
            // histogram read is the coalesced load above; the scatter write
            // goes to digit-dependent locations: charge the store as random
            // at cache-line granularity (radix sort scatters are partially
            // coalesced, one line per 32-element run on average).
            ctx.record_alu(slice.len() as u64);
            ctx.record_load_coalesced::<K>(slice.len());
            ctx.record_store_coalesced::<K>(slice.len());
        });
        stats += launch.stats;
        time_ms += launch.time_ms;
    }

    // Selection of the top k from the sorted output.
    let launch = device.launch("baseline_sort_choose", 1, |ctx| {
        ctx.record_load_coalesced::<K>(k);
        ctx.record_store_coalesced::<K>(k);
    });
    stats += launch.stats;
    time_ms += launch.time_ms;

    // The actual values: host-side sort of a copy (the simulated kernels
    // above already charged the device cost).
    let mut sorted = data.to_vec();
    sorted.sort_unstable_by_key(|v| Reverse(v.to_bits()));
    sorted.truncate(k);
    TopKResult::from_values(sorted, stats, time_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::reference_topk;
    use gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn matches_reference() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 4);
        for &k in &[1usize, 10, 1000] {
            assert_eq!(
                sort_and_choose_topk(&dev, &data, k).values,
                reference_topk(&data, k)
            );
        }
        assert!(sort_and_choose_topk(&dev, &data, 0).is_empty());
    }

    #[test]
    fn charges_full_sort_traffic() {
        let dev = device();
        let n = 1 << 16;
        let data = topk_datagen::uniform(n, 4);
        let got = sort_and_choose_topk(&dev, &data, 32);
        // 4 passes × (2 reads + 1 write) of n u32 each ≈ 12n·4 bytes + ε
        let bytes = got.stats.total_bytes();
        assert!(bytes as f64 > 11.0 * n as f64 * 4.0, "bytes {bytes}");
        assert!(got.time_ms > 0.0);
    }

    #[test]
    fn is_much_more_expensive_than_needed_for_small_k() {
        // sanity: the sort moves ~12x more bytes than a single streaming scan
        let dev = device();
        let n = 1 << 16;
        let data = topk_datagen::uniform(n, 4);
        let got = sort_and_choose_topk(&dev, &data, 8);
        let single_scan_bytes = (n * 4) as u64;
        assert!(got.stats.total_bytes() > 10 * single_scan_bytes);
    }
}
