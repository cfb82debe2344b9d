//! GGKS-style radix top-k (Alabi et al., "Fast k-Selection Algorithms for
//! Graphics Processing Units"), generic over any [`TopKKey`].
//!
//! Radix select walks the bits of the values from the most significant digit
//! to the least significant digit (8 bits per pass by default). Each pass
//! histograms the current candidates by their digit, locates the digit that
//! contains the k-th largest element, and restricts the candidate set to
//! that digit. After all passes the accumulated digit prefix *is* the k-th
//! value; a final gather pass collects every element above it.
//!
//! All digit arithmetic happens in the key's radix space
//! ([`TopKKey::Bits`]): the order-preserving bijection makes unsigned radix
//! selection correct for signed integers and IEEE-754 floats unchanged. A
//! 32-bit key takes 4 passes at the default 8 bits per digit; a 64-bit key
//! takes 8.
//!
//! Two variants are provided, matching the paper's discussion:
//!
//! * **out-of-place** ([`RadixVariant::OutOfPlace`]) — candidates matching
//!   the digit of interest are compacted into a fresh buffer each pass, so
//!   later passes read fewer elements (at the cost of the compaction
//!   stores). How quickly the candidate set shrinks depends on the value
//!   distribution, which is the source of the instability shown in Figure 4.
//! * **in-place GGKS** ([`RadixVariant::InPlaceZeroing`]) — every pass
//!   re-scans the full vector and *overwrites ineligible elements with zero*
//!   so they drop out of later histograms. The overwrites are random stores,
//!   which is exactly the overhead the paper's flag-based optimization
//!   (Section 5.1, Figure 12) removes.
//!
//! Histogram updates use global atomics (per-warp counts flushed with
//! atomicAdd), as in the GGKS code; on skewed distributions most updates hit
//! the same bucket and serialize, which the simulator's contention model
//! captures.

use gpu_sim::{AtomicBuffer, AtomicCounter, Device, KernelStats};

use crate::key::{KeyBits, TopKKey};
use crate::result::TopKResult;

/// Which radix-select variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadixVariant {
    /// Compact surviving candidates into a new buffer every pass.
    OutOfPlace,
    /// Re-scan the input every pass, overwriting ineligible elements with 0
    /// (the GGKS in-place scheme the paper criticises).
    InPlaceZeroing,
}

/// Configuration of the radix top-k baseline.
#[derive(Debug, Clone)]
pub struct RadixConfig {
    /// Bits consumed per pass. 8 matches the paper ("8-bit per digit yields
    /// the optimal performance").
    pub bits_per_pass: u32,
    /// Elements assigned to each warp in scan kernels.
    pub elems_per_warp: usize,
    /// Algorithm variant.
    pub variant: RadixVariant,
}

impl Default for RadixConfig {
    fn default() -> Self {
        RadixConfig {
            bits_per_pass: 8,
            elems_per_warp: 8192,
            variant: RadixVariant::OutOfPlace,
        }
    }
}

impl RadixConfig {
    /// The GGKS in-place variant (used as the slow baseline of Figure 12).
    pub fn in_place() -> Self {
        RadixConfig {
            variant: RadixVariant::InPlaceZeroing,
            ..RadixConfig::default()
        }
    }

    fn num_digits(&self) -> u32 {
        1 << self.bits_per_pass
    }

    fn num_passes<B: KeyBits>(&self) -> u32 {
        B::BITS.div_ceil(self.bits_per_pass)
    }
}

/// Outcome of a k-selection (threshold search) on the device.
#[derive(Debug, Clone)]
pub struct SelectOutcome<K: TopKKey = u32> {
    /// The k-th largest value.
    pub threshold: K,
    /// Counters accumulated by the selection kernels.
    pub stats: KernelStats,
    /// Modeled time of the selection kernels in milliseconds.
    pub time_ms: f64,
}

/// Radix **k-selection**: find the k-th largest value of `data`
/// (1 ≤ k ≤ |data|).
pub fn radix_select_kth<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    config: &RadixConfig,
) -> SelectOutcome<K> {
    assert!(k >= 1 && k <= data.len(), "k must be in 1..=|V|");
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;

    let bits = config.bits_per_pass;
    let digits = config.num_digits() as usize;
    let passes = config.num_passes::<K::Bits>();

    let mut prefix_value = K::Bits::ZERO;
    let mut prefix_mask = K::Bits::ZERO;
    let digit_mask = K::Bits::from_u64(digits as u64 - 1);
    let mut k_remaining = k;

    // All selection arithmetic happens in the radix space; the initial
    // conversion is the same host-side copy the u32 version always made.
    // Out-of-place candidate buffer (starts as the full input, shrinks).
    let mut candidates: Vec<K::Bits> = match config.variant {
        RadixVariant::OutOfPlace => data.iter().map(|x| x.to_bits()).collect(),
        RadixVariant::InPlaceZeroing => Vec::new(),
    };
    // In-place working copy (ineligible elements are overwritten with 0).
    let mut working: Vec<K::Bits> = match config.variant {
        RadixVariant::InPlaceZeroing => data.iter().map(|x| x.to_bits()).collect(),
        RadixVariant::OutOfPlace => Vec::new(),
    };

    for pass in 0..passes {
        let shift = K::Bits::BITS - bits * (pass + 1);
        let scan: &[K::Bits] = match config.variant {
            RadixVariant::OutOfPlace => &candidates,
            RadixVariant::InPlaceZeroing => &working,
        };
        if scan.is_empty() {
            break;
        }

        // --- histogram kernel -------------------------------------------------
        let num_warps = scan.len().div_ceil(config.elems_per_warp);
        let hist_buf = AtomicBuffer::zeroed(digits);
        let launch = device.launch(
            &format!("baseline_radix_hist_pass{pass}"),
            num_warps,
            |ctx| {
                let chunk = ctx.chunk_of(scan.len());
                let slice = ctx.read_coalesced(&scan[chunk]);
                let mut local = vec![0u32; digits];
                for &x in slice {
                    if x & prefix_mask == prefix_value {
                        let d = ((x >> shift) & digit_mask).as_digit();
                        local[d] += 1;
                    }
                    ctx.record_alu(2);
                }
                // flush the warp-local histogram to the global one with one
                // atomicAdd per non-empty bucket (block-level flush, GGKS style)
                for (d, &c) in local.iter().enumerate() {
                    if c > 0 {
                        hist_buf.fetch_add(ctx, d, c);
                    }
                }
            },
        );
        stats += launch.stats;
        time_ms += launch.time_ms;

        let histogram = hist_buf.to_vec();

        // --- locate the digit that holds the k-th largest --------------------
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
        prefix_value |= K::Bits::from_u64(chosen as u64) << shift;
        prefix_mask |= digit_mask << shift;

        // --- restrict candidates ----------------------------------------------
        match config.variant {
            RadixVariant::OutOfPlace => {
                let cursor = AtomicCounter::new(0);
                let launch = device.launch(
                    &format!("baseline_radix_compact_pass{pass}"),
                    num_warps,
                    |ctx| {
                        let chunk = ctx.chunk_of(scan.len());
                        let slice = ctx.read_coalesced(&scan[chunk]);
                        let mut kept: Vec<K::Bits> = Vec::new();
                        for &x in slice {
                            if x & prefix_mask == prefix_value {
                                kept.push(x);
                            }
                            ctx.record_alu(1);
                        }
                        if !kept.is_empty() {
                            // warp-aggregated position allocation + coalesced store
                            cursor.fetch_add(ctx, kept.len() as u64);
                            ctx.record_store_coalesced::<K::Bits>(kept.len());
                        }
                        kept
                    },
                );
                stats += launch.stats;
                time_ms += launch.time_ms;
                candidates = launch.output.into_iter().flatten().collect();
                if candidates.len() == 1 {
                    // the k-th value is pinned down early
                    return SelectOutcome {
                        threshold: K::from_bits(candidates[0]),
                        stats,
                        time_ms,
                    };
                }
            }
            RadixVariant::InPlaceZeroing => {
                // Overwrite every element that can no longer contain the k-th
                // value with zero so later histograms drop it. The writes are
                // scattered (the elements sit wherever they sit in V), so we
                // charge them as random store transactions; the zeroing is
                // fused with the histogram scan, so no extra loads.
                let mut zeroed: u64 = 0;
                for x in working.iter_mut() {
                    if *x != K::Bits::ZERO && *x & prefix_mask != prefix_value && *x < prefix_value
                    {
                        *x = K::Bits::ZERO;
                        zeroed += 1;
                    }
                }
                let elem_bytes = std::mem::size_of::<K::Bits>() as u64;
                let zero_stats = KernelStats {
                    global_store_transactions: zeroed,
                    global_stored_bytes: zeroed * elem_bytes,
                    ..KernelStats::default()
                };
                let zero_time = gpu_sim::estimate_time_ms(&zero_stats, device.spec());
                device.record_external(
                    &format!("baseline_radix_zero_pass{pass}"),
                    zero_stats,
                    zero_time,
                );
                stats += zero_stats;
                time_ms += zero_time;
            }
        }
    }

    let threshold = match config.variant {
        RadixVariant::OutOfPlace => {
            // After the final pass every surviving candidate equals the full
            // prefix, which is the k-th value.
            if candidates.is_empty() {
                K::from_bits(prefix_value)
            } else {
                K::from_bits(candidates[0])
            }
        }
        RadixVariant::InPlaceZeroing => K::from_bits(prefix_value),
    };

    SelectOutcome {
        threshold,
        stats,
        time_ms,
    }
}

/// Gather every element above `threshold` (plus enough ties to reach `k`)
/// into a [`TopKResult`], charging the scan and the output stores.
pub fn gather_topk<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    threshold: K,
    elems_per_warp: usize,
    mut stats: KernelStats,
    mut time_ms: f64,
) -> TopKResult<K> {
    let tb = threshold.to_bits();
    let num_warps = data.len().div_ceil(elems_per_warp).max(1);
    let cursor = AtomicCounter::new(0);
    let launch = device.launch("baseline_topk_gather", num_warps, |ctx| {
        let chunk = ctx.chunk_of(data.len());
        let slice = ctx.read_coalesced(&data[chunk]);
        let mut kept: Vec<K> = Vec::new();
        let mut ties = 0u32;
        for &x in slice {
            let xb = x.to_bits();
            if xb > tb {
                kept.push(x);
            } else if xb == tb {
                ties += 1;
            }
            ctx.record_alu(1);
        }
        if !kept.is_empty() {
            cursor.fetch_add(ctx, kept.len() as u64);
            ctx.record_store_coalesced::<K>(kept.len());
        }
        (kept, ties)
    });
    stats += launch.stats;
    time_ms += launch.time_ms;

    let mut above: Vec<K> = Vec::new();
    let mut total_ties = 0usize;
    for (kept, ties) in launch.output {
        above.extend(kept);
        total_ties += ties as usize;
    }
    debug_assert!(above.len() <= k && above.len() + total_ties >= k);
    let need = k - above.len().min(k);
    above.truncate(k);
    above.extend(std::iter::repeat_n(threshold, need));
    TopKResult::from_values(above, stats, time_ms)
}

/// Full radix **top-k**: selection followed by the gather pass.
pub fn radix_topk<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    config: &RadixConfig,
) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let select = radix_select_kth(device, data, k, config);
    gather_topk(
        device,
        data,
        k,
        select.threshold,
        config.elems_per_warp,
        select.stats,
        select.time_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{reference_kth, reference_topk};
    use gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn radix_select_matches_reference_on_uniform() {
        let data = topk_datagen::uniform(1 << 14, 42);
        let dev = device();
        for &k in &[1usize, 2, 37, 1024, 1 << 13] {
            let got = radix_select_kth(&dev, &data, k, &RadixConfig::default());
            assert_eq!(got.threshold, reference_kth(&data, k), "k={k}");
        }
    }

    #[test]
    fn radix_select_in_place_matches_reference() {
        let data = topk_datagen::normal(1 << 14, 7);
        let dev = device();
        for &k in &[1usize, 100, 4096] {
            let got = radix_select_kth(&dev, &data, k, &RadixConfig::in_place());
            assert_eq!(got.threshold, reference_kth(&data, k), "k={k}");
        }
    }

    #[test]
    fn radix_topk_matches_reference_across_distributions() {
        let dev = device();
        for dist in topk_datagen::Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 3);
            for &k in &[1usize, 33, 512] {
                let got = radix_topk(&dev, &data, k, &RadixConfig::default());
                assert_eq!(got.values, reference_topk(&data, k), "{dist} k={k}");
            }
        }
    }

    #[test]
    fn radix_topk_handles_duplicates_and_edge_sizes() {
        let dev = device();
        let data = vec![7u32; 1000];
        let got = radix_topk(&dev, &data, 10, &RadixConfig::default());
        assert_eq!(got.values, vec![7u32; 10]);
        let tiny = vec![3u32, 1, 2];
        let got = radix_topk(&dev, &tiny, 3, &RadixConfig::default());
        assert_eq!(got.values, vec![3, 2, 1]);
        let zero = radix_topk(&dev, &tiny, 0, &RadixConfig::default());
        assert!(zero.is_empty());
        // k larger than |V| clamps
        let clamped = radix_topk(&dev, &tiny, 10, &RadixConfig::default());
        assert_eq!(clamped.values, vec![3, 2, 1]);
    }

    #[test]
    fn radix_topk_works_with_extreme_values() {
        let dev = device();
        let data = vec![0u32, u32::MAX, 5, u32::MAX - 1, 0];
        let got = radix_topk(&dev, &data, 2, &RadixConfig::default());
        assert_eq!(got.values, vec![u32::MAX, u32::MAX - 1]);
    }

    #[test]
    fn radix_topk_is_generic_over_keys() {
        let dev = device();
        // i64 with negatives, u64 with high bits, f32 with specials: 64-bit
        // keys run 8 digit passes, floats go through the total-order map.
        let signed: Vec<i64> = (-500i64..500).map(|x| x * 3_000_000_007).collect();
        assert_eq!(
            radix_topk(&dev, &signed, 7, &RadixConfig::default()).values,
            reference_topk(&signed, 7)
        );
        let wide: Vec<u64> = (0..1000u64).map(|x| x << 40 | x).collect();
        assert_eq!(
            radix_topk(&dev, &wide, 5, &RadixConfig::in_place()).values,
            reference_topk(&wide, 5)
        );
        let floats = vec![
            1.5f32,
            -2.25,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            3.75,
        ];
        let got = radix_topk(&dev, &floats, 3, &RadixConfig::default());
        assert_eq!(got.values, vec![f32::INFINITY, 3.75, 1.5]);
        assert_eq!(got.kth_value, 1.5);
    }

    #[test]
    fn in_place_variant_pays_random_stores() {
        let data = topk_datagen::uniform(1 << 14, 11);
        let dev = device();
        let oop = radix_topk(&dev, &data, 64, &RadixConfig::default());
        let inp = radix_topk(&dev, &data, 64, &RadixConfig::in_place());
        assert_eq!(oop.values, inp.values);
        // GGKS in-place zeroes out most of the vector in the first pass,
        // producing far more store transactions than the compaction variant
        // writes for small k.
        assert!(
            inp.stats.global_store_transactions > oop.stats.global_store_transactions,
            "in-place stores {} should exceed out-of-place stores {}",
            inp.stats.global_store_transactions,
            oop.stats.global_store_transactions
        );
    }

    #[test]
    fn stats_and_time_are_recorded() {
        let data = topk_datagen::uniform(1 << 14, 1);
        let dev = device();
        dev.reset_stats();
        let got = radix_topk(&dev, &data, 128, &RadixConfig::default());
        assert!(got.stats.global_load_transactions > 0);
        assert!(got.time_ms > 0.0);
        // the device log saw the same kernels
        let log = dev.stats();
        assert!(log.kernels.iter().any(|k| k.name.contains("radix_hist")));
        assert!(log.kernels.iter().any(|k| k.name.contains("topk_gather")));
    }
}
