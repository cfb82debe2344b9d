//! Optimized in-place radix top-k with flag-based qualification.
//!
//! Section 5.1 of the paper: the existing in-place radix top-k (GGKS) must
//! overwrite every ineligible element with a value outside the range of
//! interest (e.g. zero), causing excessive random memory accesses. Dr. Top-k
//! instead keeps a single *flag* describing the radixes of interest; when an
//! element is loaded, a simple `flag == (flag & element)`-style check decides
//! whether the element is still a candidate — no stores at all during the
//! selection passes. Figure 12 reports this optimization is on average 10.7×
//! faster than the GGKS in-place radix top-k.
//!
//! Every entry point is generic over [`TopKKey`]: the flag arithmetic runs
//! in the key's order-preserving radix space ([`TopKKey::Bits`]), so signed
//! and float keys work unchanged. A 32-bit key runs 4 selection passes at
//! the default 8 bits per digit; a 64-bit key runs 8.
//!
//! Two entry points are provided:
//!
//! * [`flag_radix_select_kth`] / [`flag_radix_topk`] over plain key values
//!   (used as the second top-k and as the standalone optimized algorithm of
//!   Figure 12), and
//! * [`flag_radix_select_by_key`] over a *key array* that is paired with a
//!   payload array (used by the first top-k, where the key is the delegate
//!   value and the payload is the subrange id).

use gpu_sim::{AtomicBuffer, Device, KernelStats};
use topk_baselines::{gather_topk, KeyBits, TopKKey, TopKResult};

/// Elements assigned to each simulated warp in scan kernels.
pub const ELEMS_PER_WARP: usize = 8192;

/// Number of bits consumed per selection pass (8, as tuned in the paper).
pub const BITS_PER_PASS: u32 = 8;

/// Result of a flag-based radix selection.
#[derive(Debug, Clone)]
pub struct FlagSelectOutcome<K: TopKKey = u32> {
    /// Lower bound for qualification: with all passes executed this is the
    /// exact k-th largest key; with [`skip_last_pass`](FlagSelectConfig::skip_last_pass)
    /// it is the lower edge of the final radix bucket (≤ the exact value in
    /// the key's total order), which is still a safe filter threshold
    /// (Rule 2). For float keys a relaxed threshold is the bucket edge
    /// mapped back through the bijection and need not be a value present in
    /// the input; comparisons against it must use the key order (it may
    /// even be a NaN, which the key order handles).
    pub threshold: K,
    /// True when the threshold is exact (no pass was skipped).
    pub exact: bool,
    /// Number of selection passes executed.
    pub passes: u32,
    /// Counters accumulated by the selection kernels.
    pub stats: KernelStats,
    /// Modeled selection time in milliseconds.
    pub time_ms: f64,
}

/// Configuration of the flag-based selection.
#[derive(Debug, Clone, Copy)]
pub struct FlagSelectConfig {
    /// Skip the last radix pass. The paper enables this for the *first*
    /// top-k when β delegates and delegate filtering are active: the first
    /// top-k only needs a good-enough threshold, and the skipped precision is
    /// recovered by the second top-k at negligible cost.
    pub skip_last_pass: bool,
    /// Elements per simulated warp.
    pub elems_per_warp: usize,
}

impl Default for FlagSelectConfig {
    fn default() -> Self {
        FlagSelectConfig {
            skip_last_pass: false,
            elems_per_warp: ELEMS_PER_WARP,
        }
    }
}

/// Flag-based radix k-selection over `keys[i] = key_of(data[i])`.
///
/// Generic over a key extractor so the same kernel serves plain key vectors
/// (`|&x| x`) and the delegate vector's value column. `name_prefix` labels
/// the kernels in the device log (`<prefix>_pass<i>`), which the figure
/// harnesses use to attribute time to pipeline phases.
pub fn flag_radix_select_by_key<T, K, F>(
    device: &Device,
    data: &[T],
    key_of: F,
    k: usize,
    config: &FlagSelectConfig,
    name_prefix: &str,
) -> FlagSelectOutcome<K>
where
    T: Copy,
    K: TopKKey,
    F: Fn(&T) -> K,
{
    assert!(k >= 1 && k <= data.len(), "k must be in 1..=|V|");
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;

    let digits = 1usize << BITS_PER_PASS;
    let digit_mask = K::Bits::from_u64(digits as u64 - 1);
    let total_passes = K::Bits::BITS / BITS_PER_PASS;
    let run_passes = if config.skip_last_pass {
        total_passes - 1
    } else {
        total_passes
    };

    let mut flag_value = K::Bits::ZERO; // radix prefix of the k-th largest element
    let mut flag_mask = K::Bits::ZERO; // which bits of the prefix are pinned
    let mut k_remaining = k;
    let num_warps = data.len().div_ceil(config.elems_per_warp).max(1);

    for pass in 0..run_passes {
        let shift = K::Bits::BITS - BITS_PER_PASS * (pass + 1);
        let hist_buf = AtomicBuffer::zeroed(digits);
        let key_of = &key_of;
        let launch = device.launch(&format!("{name_prefix}_pass{pass}"), num_warps, |ctx| {
            let chunk = ctx.chunk_of(data.len());
            let slice = ctx.read_coalesced(&data[chunk]);
            let mut local = vec![0u32; digits];
            for item in slice {
                let key = key_of(item).to_bits();
                // the flag check: only elements whose pinned radixes match
                // remain candidates — no element is ever modified.
                if key & flag_mask == flag_value {
                    local[((key >> shift) & digit_mask).as_digit()] += 1;
                }
                ctx.record_alu(2);
            }
            for (d, &c) in local.iter().enumerate() {
                if c > 0 {
                    hist_buf.fetch_add(ctx, d, c);
                }
            }
        });
        stats += launch.stats;
        time_ms += launch.time_ms;

        let histogram = hist_buf.to_vec();
        let mut chosen = 0usize;
        let mut above = 0usize;
        for d in (0..digits).rev() {
            let count = histogram[d] as usize;
            if above + count >= k_remaining {
                chosen = d;
                break;
            }
            above += count;
        }
        k_remaining -= above;
        flag_value |= K::Bits::from_u64(chosen as u64) << shift;
        flag_mask |= digit_mask << shift;
    }

    FlagSelectOutcome {
        threshold: K::from_bits(flag_value),
        exact: !config.skip_last_pass,
        passes: run_passes,
        stats,
        time_ms,
    }
}

/// The threshold [`flag_radix_select_by_key`] returns for `keys` and `k`,
/// computed at host speed: the k-th largest key, found with one
/// `select_nth_unstable` over the radix bits, with the final pass's digit
/// cleared when `skip_last_pass` is set (the lower edge of the k-th key's
/// last radix bucket). Records no cost: a kernel that calls it records the
/// passes it models.
pub fn radix_select_threshold<K: TopKKey>(keys: &[K], k: usize, skip_last_pass: bool) -> K {
    assert!(k >= 1 && k <= keys.len(), "k must be in 1..=|V|");
    let mut bits: Vec<K::Bits> = keys.iter().map(|v| v.to_bits()).collect();
    let (_, &mut kth, _) = bits.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    let last_digit = K::Bits::from_u64((1 << BITS_PER_PASS) - 1);
    K::from_bits(if skip_last_pass {
        kth & !last_digit
    } else {
        kth
    })
}

/// Flag-based radix k-selection over plain key values.
pub fn flag_radix_select_kth<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    config: &FlagSelectConfig,
) -> FlagSelectOutcome<K> {
    flag_radix_select_by_key(device, data, |&x| x, k, config, "flag_radix_select")
}

/// Full flag-based radix **top-k** over plain key values: selection (all
/// passes, exact threshold) followed by the shared gather pass.
pub fn flag_radix_topk<K: TopKKey>(device: &Device, data: &[K], k: usize) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let config = FlagSelectConfig::default();
    let outcome = flag_radix_select_kth(device, data, k, &config);
    gather_topk(
        device,
        data,
        k,
        outcome.threshold,
        config.elems_per_warp,
        outcome.stats,
        outcome.time_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use topk_baselines::{radix_topk, reference_kth, reference_topk, RadixConfig};

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn select_matches_reference() {
        let dev = device();
        for dist in topk_datagen::Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 9);
            for &k in &[1usize, 13, 700, 1 << 12] {
                let got = flag_radix_select_kth(&dev, &data, k, &FlagSelectConfig::default());
                assert_eq!(got.threshold, reference_kth(&data, k), "{dist} k={k}");
                assert!(got.exact);
                assert_eq!(got.passes, 4);
            }
        }
    }

    #[test]
    fn topk_matches_reference() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 4);
        for &k in &[1usize, 100, 3000] {
            assert_eq!(
                flag_radix_topk(&dev, &data, k).values,
                reference_topk(&data, k)
            );
        }
        assert!(flag_radix_topk(&dev, &data, 0).is_empty());
        assert_eq!(flag_radix_topk(&dev, &[5u32, 5, 5], 2).values, vec![5, 5]);
    }

    #[test]
    fn generic_keys_run_the_right_pass_count() {
        let dev = device();
        let wide: Vec<u64> = (0..4096u64)
            .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let got = flag_radix_select_kth(&dev, &wide, 33, &FlagSelectConfig::default());
        assert_eq!(got.passes, 8, "64-bit keys take 8 digit passes");
        assert_eq!(got.threshold, reference_kth(&wide, 33));
        let signed: Vec<i64> = wide.iter().map(|&x| x as i64).collect();
        assert_eq!(
            flag_radix_topk(&dev, &signed, 12).values,
            reference_topk(&signed, 12)
        );
        let floats: Vec<f32> = (0..2048).map(|i| (i as f32 - 1024.0) * 0.5).collect();
        assert_eq!(
            flag_radix_topk(&dev, &floats, 9).values,
            reference_topk(&floats, 9)
        );
    }

    #[test]
    fn skip_last_pass_gives_safe_lower_bound() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 6);
        let k = 257;
        let exact = reference_kth(&data, k);
        let got = flag_radix_select_kth(
            &dev,
            &data,
            k,
            &FlagSelectConfig {
                skip_last_pass: true,
                ..FlagSelectConfig::default()
            },
        );
        assert!(!got.exact);
        assert_eq!(got.passes, 3);
        assert!(
            got.threshold <= exact,
            "skipped threshold must not exceed exact"
        );
        // it must still be within one last-pass bucket (256 values) of exact
        assert!(exact - got.threshold < 256, "threshold too loose");
    }

    #[test]
    fn select_by_key_ignores_payload() {
        let dev = device();
        let pairs: Vec<(u32, u32)> = topk_datagen::uniform(1 << 12, 5)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u32))
            .collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let got = flag_radix_select_by_key(
            &dev,
            &pairs,
            |p| p.0,
            33,
            &FlagSelectConfig::default(),
            "kv_select",
        );
        assert_eq!(got.threshold, reference_kth(&keys, 33));
    }

    #[test]
    fn never_stores_during_selection() {
        let dev = device();
        let data = topk_datagen::normal(1 << 14, 2);
        let got = flag_radix_select_kth(&dev, &data, 512, &FlagSelectConfig::default());
        assert_eq!(
            got.stats.global_store_transactions, 0,
            "flag-based selection must not write global memory"
        );
    }

    #[test]
    fn faster_than_ggks_in_place_for_small_k() {
        // The headline of Figure 12: the flag-based in-place radix top-k
        // avoids the zero-out stores of the GGKS in-place variant.
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 12);
        let k = 64;
        let flag = flag_radix_topk(&dev, &data, k);
        let ggks = radix_topk(&dev, &data, k, &RadixConfig::in_place());
        assert_eq!(flag.values, ggks.values);
        assert!(
            flag.time_ms < ggks.time_ms,
            "flag-based ({} ms) should beat GGKS in-place ({} ms)",
            flag.time_ms,
            ggks.time_ms
        );
        assert!(flag.stats.global_store_transactions < ggks.stats.global_store_transactions);
    }
}
