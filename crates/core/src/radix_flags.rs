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
//! The flag is the digit prefix of the shared radix digit pass
//! ([`topk_baselines::radix`]): every selection pass is one
//! [`digit_histogram`] launch whose warps each read their whole chunk of
//! the unmodified input and drop non-candidates by the prefix check. The
//! simulation computes the same counts at host speed. When the previous
//! pass's histogram shows that at most half of what a pass scans still
//! shares the flag, that pass also keeps each warp's sharing elements as a
//! host-side list ([`Keep::Survivors`]), and later passes scan the lists
//! in place of the chunks. The lists are bookkeeping, not modeled stores:
//! counters and modeled time are those of the full re-scan, which
//! `radix_model_is_pinned` and a proptest hold them to.
//!
//! Every entry point is generic over [`TopKKey`]: the flag arithmetic runs
//! in the key's order-preserving radix space ([`TopKKey::Bits`]), so signed
//! and float keys work unchanged. A 32-bit key runs 4 selection passes; a
//! 64-bit key runs 8.
//!
//! * [`flag_radix_select_kth`] finds the k-th largest key. The first top-k
//!   runs it over the delegate values, with the last pass skipped when β
//!   delegates and filtering make the exact threshold unnecessary.
//! * [`flag_radix_topk`] adds the shared gather pass; it is the second
//!   top-k's default inner algorithm and the standalone optimized algorithm
//!   of Figure 12.
//! * [`radix_select_threshold`] returns the same threshold at host speed,
//!   for row-block kernels that model the passes themselves.

use gpu_sim::{Device, KernelStats};
use topk_baselines::radix::{
    choose_digit, digit_histogram, DigitPrefix, Keep, BITS_PER_PASS, ELEMS_PER_WARP,
};
use topk_baselines::{gather_topk, KeyBits, SelectOutcome, TopKKey, TopKResult};

/// Flag-based radix k-selection: the k-th largest of `data`
/// (1 ≤ k ≤ |data|), with no store during the selection passes.
///
/// With `skip_last_pass` the final digit pass is skipped, as the paper does
/// for the *first* top-k when β delegates and delegate filtering are
/// active: the threshold is then the lower edge of the k-th key's last
/// radix bucket (≤ the exact value in the key's total order), still a safe
/// filter threshold (Rule 2), and the second top-k recovers the skipped
/// precision at negligible cost. For float keys that relaxed threshold is
/// the bucket edge mapped back through the bijection and need not be a
/// value present in the input; comparisons against it must use the key
/// order (it may even be a NaN, which the key order handles).
pub fn flag_radix_select_kth<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    skip_last_pass: bool,
) -> SelectOutcome<K> {
    assert!(k >= 1 && k <= data.len(), "k must be in 1..=|V|");
    let passes = K::Bits::BITS / BITS_PER_PASS - u32::from(skip_last_pass);
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;
    let mut flag = DigitPrefix::default();
    let mut k_remaining = k;
    // Per-warp host lists of the elements that still share the flag, once
    // a pass kept them; until then every warp scans its whole chunk.
    let mut survivors: Option<Vec<Vec<K>>> = None;
    // How many elements the next pass scans, and how many of those share
    // the flag.
    let mut scanned = data.len();
    let mut sharing = data.len();
    for pass in 0..passes {
        // Keeping survivors costs a copy of every one of them; it pays only
        // when at most half of the scan still shares the flag.
        let narrow = pass + 1 < passes && 2 * sharing <= scanned;
        let mut kept = Vec::new();
        let keep = if narrow {
            Keep::Survivors(&mut kept)
        } else {
            Keep::Nothing
        };
        let (histogram, launch) = digit_histogram(
            device,
            "flag_radix_select",
            data,
            survivors.as_deref(),
            flag,
            pass,
            keep,
        );
        stats += launch.stats;
        time_ms += launch.time_ms;
        let (digit, above) = choose_digit(&histogram, k_remaining);
        k_remaining -= above;
        flag.push(pass, digit);
        if narrow {
            survivors = Some(kept);
            scanned = sharing;
        }
        sharing = histogram[digit] as usize;
    }
    SelectOutcome {
        threshold: K::from_bits(flag.value()),
        stats,
        time_ms,
    }
}

/// The threshold [`flag_radix_select_kth`] returns for `keys` and `k`,
/// computed at host speed: the k-th largest key, found with one
/// `select_nth_unstable` over the radix bits (copied into `bits`, a
/// scratch buffer the caller reuses), with the final pass's digit cleared
/// when `skip_last_pass` is set (the lower edge of the k-th key's last
/// radix bucket). Records no cost: a kernel that calls it records the
/// passes it models.
pub fn radix_select_threshold<K: TopKKey>(
    keys: &[K],
    k: usize,
    skip_last_pass: bool,
    bits: &mut Vec<K::Bits>,
) -> K {
    assert!(k >= 1 && k <= keys.len(), "k must be in 1..=|V|");
    bits.clear();
    bits.extend(keys.iter().map(|v| v.to_bits()));
    let (_, &mut kth, _) = bits.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    let last_digit = K::Bits::from_u64((1 << BITS_PER_PASS) - 1);
    K::from_bits(if skip_last_pass {
        kth & !last_digit
    } else {
        kth
    })
}

/// Full flag-based radix **top-k** over plain key values: selection (all
/// passes, exact threshold) followed by the shared gather pass.
pub fn flag_radix_topk<K: TopKKey>(device: &Device, data: &[K], k: usize) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let outcome = flag_radix_select_kth(device, data, k, false);
    gather_topk(
        device,
        data,
        k,
        outcome.threshold,
        ELEMS_PER_WARP,
        outcome.stats,
        outcome.time_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use topk_baselines::{radix_topk, reference_kth, reference_topk, RadixVariant};

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    /// Warps a select over `n` elements launches in `passes` passes.
    fn warps(n: usize, passes: u64) -> u64 {
        passes * n.div_ceil(ELEMS_PER_WARP) as u64
    }

    #[test]
    fn select_matches_reference() {
        let dev = device();
        for dist in topk_datagen::Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 9);
            for &k in &[1usize, 13, 700, 1 << 12] {
                let got = flag_radix_select_kth(&dev, &data, k, false);
                assert_eq!(got.threshold, reference_kth(&data, k), "{dist} k={k}");
                assert_eq!(got.stats.warps_launched, warps(data.len(), 4), "4 passes");
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
        let got = flag_radix_select_kth(&dev, &wide, 33, false);
        assert_eq!(
            got.stats.warps_launched,
            warps(wide.len(), 8),
            "64-bit keys take 8 digit passes"
        );
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
        let got = flag_radix_select_kth(&dev, &data, k, true);
        assert_eq!(
            got.stats.warps_launched,
            warps(data.len(), 3),
            "the last pass is skipped"
        );
        assert!(
            got.threshold <= exact,
            "skipped threshold must not exceed exact"
        );
        // it must still be within one last-pass bucket (256 values) of exact
        assert!(exact - got.threshold < 256, "threshold too loose");
    }

    #[test]
    fn never_stores_during_selection() {
        let dev = device();
        let data = topk_datagen::normal(1 << 14, 2);
        let got = flag_radix_select_kth(&dev, &data, 512, false);
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
        let ggks = radix_topk(&dev, &data, k, RadixVariant::InPlaceZeroing);
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
