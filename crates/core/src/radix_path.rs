//! The multi-pass radix-select execution path, as a chain of recorded
//! stages.
//!
//! This is the planner's large-k escape hatch (see
//! [`choose_path_sampled`](crate::tuning::choose_path_sampled)): where the
//! delegate pipeline's concatenation and second top-k grow like `√(n·k)`
//! at the Rule 4 subrange size, hierarchical radix select costs one input
//! scan plus `O(k)` — so it keeps scaling as k grows into the 10⁴–10⁵
//! range where delegate/bucket approaches degrade (RadiK's observation).
//!
//! The pipeline promotes the out-of-place radix baseline
//! ([`topk_baselines::radix_topk`]) into first-class stages, run back to
//! back through [`Serial`], so the verifier and observability layers see
//! it like any other schedule. It runs the baseline's digit pass: every
//! histogram stage is one [`digit_histogram`] launch, every refine stage
//! picks its digit with [`choose_digit`], and the filter's probe reads the
//! same strided sample as the planner ([`sample_top_digits`]). The stages:
//!
//! * [`StageKind::RadixHistogram`] — one per digit pass: histogram the
//!   surviving candidates by their current 8-bit digit (global atomics,
//!   warp-local pre-aggregation). The first pass fuses RadiK's *sampled
//!   filter* into the same scan: a deterministic strided sample picks a
//!   conservative top-digit cutoff, and every element at or above the
//!   cutoff is compacted out while the histogram is built — so later
//!   stages touch the (≈ `max(4k, n/256)`-element) filtered set instead of
//!   re-reading the input. The filter is *speculative but safe*: once the
//!   kept elements number at least k, the k-th value lies at or above the
//!   cutoff, and a miss (fewer kept) or an unfavourable distribution
//!   (the sample predicts the filter would keep more than a quarter of the
//!   input, so it is not engaged) falls back to scanning the full
//!   candidate set.
//! * [`StageKind::RadixRefine`] — one per digit pass: locate the digit
//!   holding the k-th value, collect the elements *above* that digit
//!   (they are in the final top-k for certain), and compact the matching
//!   candidates out-of-place.
//! * [`StageKind::CandidateGather`] — assemble the final k candidates
//!   from the collected above-threshold elements, refilled with copies of
//!   the k-th value for its ties. `O(k)`: the refine passes already
//!   collected everything, so no input re-scan happens here.
//! * [`StageKind::RadixSelect`] — final ordering of the gathered
//!   candidates via the configured inner algorithm.
//!
//! The model charges the first pass a full histogram kernel: every warp
//! loads its chunk and flushes one atomicAdd per non-empty digit, and
//! stores what it kept. The host does less (see [`digit_histogram`]):
//! with the filter engaged it counts only the digits at or above the
//! cutoff, from the kept elements, which are the only digits
//! [`choose_digit`] reads when the kept elements cover k; a warp's
//! atomics come from a presence table that stops once all 256 digits have
//! been seen, and its kept elements from a second, vectorized scan of its
//! chunk. On a miss the stage counts the whole input on the host. The
//! refine passes classify branch-free ([`split_by_digit`]), since the
//! filtered set spreads over two or three top digits. On 2^22 uniform u32
//! keys at k = 720–1024 this path costs 2.7–4.1 ms per call on a 2-core
//! x86-64 host, against 5.8–10.5 ms when pass 0 counted every digit in
//! the loop that kept them.
//!
//! The stage *structure* is fixed by the key width alone
//! (`key_bits / 8` histogram/refine pairs, then gather and select), so
//! same-shaped runs produce byte-identical schedules.
//! When the k-th value is pinned down early (a compaction leaves a single
//! candidate), the remaining histogram/refine stages still exist but
//! execute as zero-cost no-ops — determinism costs nothing because a no-op
//! stage launches no kernels.
//!
//! All selection arithmetic happens in the key's radix space
//! ([`TopKKey::Bits`]), so signed integers and IEEE-754 floats (including
//! NaN) follow the same total order as every other path — the results are
//! bit-identical to the delegate pipeline and to
//! [`topk_baselines::reference_topk`].

use std::borrow::Cow;
use std::cmp::Reverse;

use gpu_sim::Device;
use topk_baselines::radix::{
    choose_digit, digit_histogram, digit_of, sample_top_digits, DigitPrefix, Keep, BITS_PER_PASS,
    ELEMS_PER_WARP, SAMPLE_SIZE,
};
use topk_baselines::{KeyBits, TopKKey};

use crate::pipeline::{DrTopKConfig, DrTopKResult, WorkloadStats};
use crate::stages::{Serial, StageKind, StageOutcome};

/// The filter keeps, in expectation, at least this multiple of `k`
/// elements above the cutoff — headroom that makes a speculation miss
/// (cutoff above the k-th value's digit) a tail event rather than a coin
/// flip.
pub(crate) const FILTER_HEADROOM: usize = 2;

/// Minimum number of sample hits the cutoff digit must have. Bounds the
/// miss probability for tiny `k`, where `2 · sample · k / n` rounds to
/// almost nothing.
pub(crate) const MIN_SAMPLE_TARGET: usize = 8;

/// The filter is disabled when the sample predicts it would keep more
/// than `1/FILTER_BAILOUT_DIV` of the input: compacting most of the
/// input out-of-place costs more than the re-read it saves (the
/// duplicate-heavy adversarial case).
pub(crate) const FILTER_BAILOUT_DIV: usize = 4;

/// Run the staged radix-select pipeline: the exact top-k of `data`, with
/// the same result shape as the delegate pipeline.
///
/// Requires `1 ≤ k` and a non-empty input (the caller's `k = 0` /
/// empty-input early return, shared with the delegate path, handles the
/// degenerate shapes); `k` is clamped to the input length. The reported
/// `alpha` is 0 — the radix path has no subrange parameter — and the
/// workload statistics report the gathered candidate count as the
/// second-stage workload.
pub(crate) fn radix_dr_topk<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    config: &DrTopKConfig,
) -> DrTopKResult<K> {
    let k = k.min(data.len());
    assert!(
        k >= 1 && !data.is_empty(),
        "degenerate shapes handled upstream"
    );

    let passes = K::Bits::BITS.div_ceil(BITS_PER_PASS);
    let mut serial = Serial::new(0);
    // Surviving candidates: the input itself, read in place, until a
    // refine pass produces survivors.
    let mut candidates: Cow<'_, [K]> = Cow::Borrowed(data);
    // The first pass's speculative filter: its top-digit cutoff and every
    // element whose top digit is at or above it. `None` when the filter
    // was disabled (sample predicted poor selectivity) or already consumed.
    let mut filtered: Option<(usize, Vec<K>)> = None;
    // Digits of the k-th value fixed so far.
    let mut prefix = DigitPrefix::<K::Bits>::default();
    // How many of the k largest still lie inside the candidate set.
    let mut k_remaining = k;
    // Set once a compaction pins the k-th value down to a single candidate.
    let mut pinned = false;
    // Elements strictly above the k-th value, collected by the refine
    // passes (digit above the chosen one ⇒ in the top-k for certain).
    let mut above: Vec<K> = Vec::new();
    for pass in 0..passes {
        let hist_label = format!("radix_histogram_pass{pass}");
        let refine_label = format!("radix_refine_pass{pass}");
        if pinned {
            // The remaining passes have nothing left to narrow: they record
            // zero-cost stages, so the schedule's shape stays fixed by the
            // key width.
            let no_op = || ((), StageOutcome::default());
            serial.stage(StageKind::RadixHistogram, hist_label, no_op);
            serial.stage(StageKind::RadixRefine, refine_label, no_op);
            continue;
        }
        let histogram = serial.stage(StageKind::RadixHistogram, hist_label, || {
            // First pass only: a deterministic strided sample picks the
            // speculative filter cutoff that the main scan fuses in.
            let mut probe = StageOutcome::default();
            let mut cutoff: Option<usize> = None;
            // The filter needs a sample big enough for the cutoff target
            // to be meaningful; tiny inputs skip it outright.
            if pass == 0 && candidates.len() >= 2 * MIN_SAMPLE_TARGET {
                let sample_n = candidates.len().min(SAMPLE_SIZE);
                let sample_hist = sample_top_digits(&candidates);
                let launch = device.launch("radix_sample_probe", 1, |kctx| {
                    kctx.record_load_random::<K>(sample_n);
                    kctx.record_alu(2 * sample_n as u64);
                });
                probe = StageOutcome::new(launch.stats, launch.time_ms);
                // Smallest digit whose above-or-equal sample mass covers
                // the target: `FILTER_HEADROOM ×` the sample's expected
                // share of the top k, floored for tiny k.
                let target = (FILTER_HEADROOM * sample_n * k / candidates.len())
                    .clamp(MIN_SAMPLE_TARGET, sample_n / 2);
                let (cut, above) = choose_digit(&sample_hist, target);
                // Predicted kept fraction; bail out when the filter would
                // keep most of the input (duplicate-heavy data).
                let kept = above + sample_hist[cut] as usize;
                if candidates.len() * kept / sample_n <= candidates.len() / FILTER_BAILOUT_DIV {
                    cutoff = Some(cut);
                }
            }

            let mut kept = Vec::new();
            let keep = match cutoff {
                Some(cutoff) => Keep::Stored {
                    cutoff,
                    need: k_remaining,
                    kept: &mut kept,
                },
                None => Keep::Nothing,
            };
            let (histogram, launch) = digit_histogram(
                device,
                "radix_histogram",
                &candidates,
                None,
                prefix,
                pass,
                keep,
            );
            if let Some(cut) = cutoff {
                filtered = Some((cut, kept));
            }
            let outcome = StageOutcome {
                stats: probe.stats + launch.stats,
                time_ms: probe.time_ms + launch.time_ms,
            };
            (histogram, outcome)
        });
        serial.stage(StageKind::RadixRefine, refine_label, || {
            // locate the digit that holds the k-th largest
            let (chosen, above_count) = choose_digit(&histogram, k_remaining);
            k_remaining -= above_count;
            // The digit prefix *before* this pass: the kernel keys off the
            // raw digit, so elements above the chosen one can be collected
            // (they are in the final top-k for certain).
            let prev = prefix;
            prefix.push(pass, chosen);
            // Scan the speculative filter output when it provably kept the
            // chosen digit (cutoff ≤ chosen); otherwise fall back to the
            // full candidate set.
            let scan = match filtered.take() {
                Some((cutoff, kept)) if cutoff <= chosen => Cow::Owned(kept),
                _ => std::mem::take(&mut candidates),
            };
            let num_warps = scan.len().div_ceil(ELEMS_PER_WARP);
            let above_before = above.len();
            let mut survivors: Vec<K> = Vec::new();
            let launch = device.launch("radix_refine", num_warps, |kctx| {
                let chunk = kctx.chunk_of(scan.len());
                let slice = kctx.read_coalesced(&scan[chunk]);
                let before = survivors.len() + above.len();
                split_by_digit(slice, prev, pass, chosen, &mut above, &mut survivors);
                kctx.record_alu(2 * slice.len() as u64);
                let stored = survivors.len() + above.len() - before;
                if stored > 0 {
                    // warp-aggregated position allocation followed by a
                    // coalesced store of both partitions
                    kctx.record_atomics(1);
                    kctx.record_store_coalesced::<K>(stored);
                }
            });
            candidates = Cow::Owned(survivors);
            debug_assert_eq!(
                above.len() - above_before,
                above_count,
                "refine pass {pass}: collected above-set disagrees with \
                 the exact histogram"
            );
            // the k-th value is pinned down early: the remaining passes
            // have nothing left to narrow
            pinned = candidates.len() <= 1;
            let outcome = StageOutcome::new(launch.stats, launch.time_ms);
            ((), outcome)
        });
    }
    // The k-th value once every pass ran: all survivors share the full
    // prefix, so any of them (or the prefix itself) is the threshold.
    let threshold = match candidates.first() {
        Some(&x) => x,
        None => K::from_bits(prefix.value()),
    };

    // Candidate assembly: the refine passes already collected every
    // element above the k-th value, so the final candidate set is that
    // above-set refilled with copies of the k-th value for its ties —
    // `O(k)` data movement, no input re-scan.
    let kind = StageKind::CandidateGather;
    let assembled = serial.stage(kind, kind.name(), || {
        debug_assert!(above.len() <= k.saturating_sub(1) || above.is_empty());
        let num_warps = k.div_ceil(ELEMS_PER_WARP).max(1);
        let mut assembled: Vec<K> = Vec::with_capacity(k);
        let launch = device.launch("candidate_gather", num_warps, |kctx| {
            let chunk = kctx.chunk_of(k);
            let reads = chunk.start.min(above.len())..chunk.end.min(above.len());
            kctx.record_load_coalesced::<K>(reads.len());
            for i in chunk.clone() {
                assembled.push(if i < above.len() { above[i] } else { threshold });
                kctx.record_alu(1);
            }
            kctx.record_store_coalesced::<K>(chunk.len());
        });
        debug_assert_eq!(assembled.len(), k);
        let outcome = StageOutcome::new(launch.stats, launch.time_ms);
        (assembled, outcome)
    });

    // Final ordering: let the configured inner algorithm order the
    // assembled candidates (a small top-k over exactly k elements).
    let kind = StageKind::RadixSelect;
    let selected = serial.stage(kind, kind.name(), || {
        let inner = config.inner.run(device, &assembled, k);
        let outcome = StageOutcome::new(inner.stats, inner.time_ms);
        let mut values = inner.values;
        values.sort_unstable_by_key(|v| Reverse(v.to_bits()));
        let kth_value = values.last().copied().unwrap_or(threshold);
        ((values, kth_value), outcome)
    });
    let workload = WorkloadStats {
        input_len: data.len(),
        delegate_vector_len: 0,
        concatenated_len: k,
        num_subranges: 1,
        fully_taken_subranges: 0,
        second_topk_skipped: false,
        fell_back: false,
    };
    DrTopKResult::from_report(selected, 0, workload, serial.finish())
}

/// Append every element of `scan` that matches `prev` to `above` when its
/// digit of `pass` exceeds `chosen` and to `survivors` when it equals it,
/// in order. Branch-free, because the filtered elements refine pass 0
/// scans spread over two or three digits, where a branch on the class
/// mispredicts. Pass 0 fixes no digit, so there every key matches and the
/// digit's shift is a constant; that also makes a full-input refine (the
/// filter missed or was not engaged) no slower than a branch would be on
/// input that predicts well.
fn split_by_digit<K: TopKKey>(
    scan: &[K],
    prev: DigitPrefix<K::Bits>,
    pass: u32,
    chosen: usize,
    above: &mut Vec<K>,
    survivors: &mut Vec<K>,
) {
    if pass == 0 {
        let class = |bits| (true, digit_of(bits, 0));
        split_blocks(scan, chosen, class, above, survivors);
    } else {
        let class = |bits| (prev.matches(bits), digit_of(bits, pass));
        split_blocks(scan, chosen, class, above, survivors);
    }
}

/// The loop of [`split_by_digit`], with `class` giving an element's
/// (matches, digit): each element is written to the next slot of two block
/// buffers, and a buffer's length advances only past an element that
/// belongs there.
#[inline(always)]
fn split_blocks<K: TopKKey>(
    scan: &[K],
    chosen: usize,
    class: impl Fn(K::Bits) -> (bool, usize),
    above: &mut Vec<K>,
    survivors: &mut Vec<K>,
) {
    const BLOCK: usize = 256;
    let mut up = [K::default(); BLOCK];
    let mut at = [K::default(); BLOCK];
    for block in scan.chunks(BLOCK) {
        let (mut ups, mut ats) = (0, 0);
        for &x in block {
            let (matches, d) = class(x.to_bits());
            // both lengths stay below BLOCK until the block's last element:
            // `% BLOCK` only proves it to the compiler
            up[ups % BLOCK] = x;
            ups += usize::from(matches & (d > chosen));
            at[ats % BLOCK] = x;
            ats += usize::from(matches & (d == chosen));
        }
        above.extend_from_slice(&up[..ups]);
        survivors.extend_from_slice(&at[..ats]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use topk_baselines::reference_topk;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn radix_path_matches_reference_across_distributions_and_k() {
        let dev = device();
        for dist in topk_datagen::Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 19);
            for &k in &[1usize, 2, 64, 1000, 1 << 13, 1 << 14] {
                let got = radix_dr_topk(&dev, &data, k, &DrTopKConfig::default());
                assert_eq!(got.values, reference_topk(&data, k), "{dist} k={k}");
                assert_eq!(got.kth_value, *got.values.last().unwrap());
            }
        }
    }

    #[test]
    fn radix_path_schedule_shape_is_fixed_by_the_key_width() {
        let dev = device();
        let narrow = topk_datagen::uniform(1 << 12, 7);
        let got = radix_dr_topk(&dev, &narrow, 100, &DrTopKConfig::default());
        // u32: 4 histogram/refine pairs + gather + select = 10 stages
        assert_eq!(got.stages.stages.len(), 10);
        let wide: Vec<u64> = narrow.iter().map(|&x| (x as u64) << 20).collect();
        let got = radix_dr_topk(&dev, &wide, 100, &DrTopKConfig::default());
        // u64: 8 pairs + gather + select = 18 stages
        assert_eq!(got.stages.stages.len(), 18);
        let kinds: Vec<StageKind> = got.stages.stages.iter().map(|s| s.kind).collect();
        assert_eq!(kinds[0], StageKind::RadixHistogram);
        assert_eq!(kinds[1], StageKind::RadixRefine);
        assert_eq!(kinds[16], StageKind::CandidateGather);
        assert_eq!(kinds[17], StageKind::RadixSelect);
    }

    #[test]
    fn early_pinning_turns_tail_passes_into_noops() {
        let dev = device();
        // one extreme value: pass 0 compacts the candidates down to a
        // single element, so passes 1..4 must charge nothing
        let mut data = vec![5u32; 1 << 12];
        data[123] = u32::MAX;
        let got = radix_dr_topk(&dev, &data, 1, &DrTopKConfig::default());
        assert_eq!(got.values, vec![u32::MAX]);
        let pass1_on = got
            .stages
            .stages
            .iter()
            .filter(|s| s.label.contains("pass1") || s.label.contains("pass2"))
            .collect::<Vec<_>>();
        assert!(!pass1_on.is_empty());
        assert!(pass1_on
            .iter()
            .all(|s| s.stats.global_load_transactions == 0));
    }

    #[test]
    fn duplicate_heavy_inputs_stay_exact() {
        // the radix worst case: candidates barely shrink per pass
        let dev = device();
        let data: Vec<u32> = (0..1u32 << 13).map(|i| i % 7).collect();
        for &k in &[1usize, 100, 5000] {
            let got = radix_dr_topk(&dev, &data, k, &DrTopKConfig::default());
            assert_eq!(got.values, reference_topk(&data, k), "k={k}");
        }
    }

    #[test]
    fn floats_with_nan_follow_the_total_order() {
        let dev = device();
        let mut data: Vec<f32> = (0..4096).map(|i| (i % 977) as f32 - 500.0).collect();
        data[7] = f32::NAN;
        data[999] = f32::NEG_INFINITY;
        let got = radix_dr_topk(&dev, &data, 64, &DrTopKConfig::default());
        let expected = reference_topk(&data, 64);
        assert_eq!(got.values.len(), expected.len());
        for (g, e) in got.values.iter().zip(&expected) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn workload_stats_report_the_gather_honestly() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 3);
        let got = radix_dr_topk(&dev, &data, 256, &DrTopKConfig::default());
        let w = got.workload;
        assert_eq!(w.input_len, data.len());
        assert_eq!(w.delegate_vector_len, 0, "no delegate vector exists");
        assert_eq!(w.concatenated_len, 256, "the select ran over k candidates");
        assert_eq!(w.num_subranges, 1);
        assert!(!w.fell_back);
        assert_eq!(got.alpha, 0, "the radix path has no subrange parameter");
        assert!(got.time_ms > 0.0);
        assert!(got.stats.global_load_transactions > 0);
    }

    /// The modeled cost of every radix select is what its kernels record on
    /// their `WarpCtx`. These counters and times were captured before the
    /// three selects shared one digit pass, and the flag select's
    /// duplicate-heavy and float cases before it scanned survivor lists; a
    /// host-side change must leave them bit-identical. The radix path's
    /// cases cover the filter holding, bailing out and missing, and 32-bit,
    /// 64-bit and float keys.
    #[test]
    fn radix_model_is_pinned() {
        use crate::radix_flags::flag_radix_select_kth;
        use gpu_sim::KernelStats;
        use topk_baselines::{radix_topk, RadixVariant};

        let dev = device();
        let pinned = |load_tx, store_tx, loaded, stored, atomics, alu, warps| KernelStats {
            global_load_transactions: load_tx,
            global_store_transactions: store_tx,
            global_loaded_bytes: loaded,
            global_stored_bytes: stored,
            atomic_operations: atomics,
            alu_ops: alu,
            warps_launched: warps,
            ..KernelStats::default()
        };
        let check = |case: &str, stats: KernelStats, time_ms: f64, want: KernelStats, bits| {
            assert_eq!(stats, want, "{case}");
            assert_eq!(time_ms.to_bits(), bits, "{case}: {time_ms} ms");
        };

        let data = topk_datagen::uniform(1 << 16, 2021);
        let wide: Vec<u64> = (0..1u64 << 14)
            .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let flag_cases = [
            (
                false,
                pinned(8192, 0, 1_048_576, 0, 2298, 524_288, 32),
                0x3f82_f96e_5ad2_23d6_u64,
            ),
            (
                true,
                pinned(6144, 0, 786_432, 0, 2297, 393_216, 24),
                0x3f7c_8f34_0564_e576,
            ),
        ];
        for (skip, want, bits) in flag_cases {
            let got = flag_radix_select_kth(&dev, &data, 1000, skip);
            check(
                &format!("flag skip={skip}"),
                got.stats,
                got.time_ms,
                want,
                bits,
            );
        }
        let got = flag_radix_select_kth(&dev, &wide, 33, false);
        check(
            "flag u64",
            got.stats,
            got.time_ms,
            pinned(8192, 0, 1_048_576, 0, 582, 262_144, 16),
            0x3f91_922d_2808_c770,
        );
        // Every element shares each of the first three digits, so no pass
        // narrows its scan.
        let dup: Vec<u32> = (0..1u32 << 16).map(|i| i % 7).collect();
        let got = flag_radix_select_kth(&dev, &dup, 1000, false);
        check(
            "flag dup",
            got.stats,
            got.time_ms,
            pinned(8192, 0, 1_048_576, 0, 80, 524_288, 32),
            0x3f82_c8fa_6655_566c,
        );
        // Three and a bit warps of floats with NaNs of both signs.
        let floats: Vec<f32> = (0..3 * ELEMS_PER_WARP + 123)
            .map(|i| match i % 1009 {
                0 => f32::NAN,
                5 => -f32::NAN,
                _ => (i as f32 - 12_000.0) * 0.37,
            })
            .collect();
        let got = flag_radix_select_kth(&dev, &floats, 500, true);
        check(
            "flag f32 skip",
            got.stats,
            got.time_ms,
            pinned(2316, 0, 296_388, 0, 261, 148_194, 12),
            0x3f79_f95b_200f_b335,
        );

        let ggks_cases = [
            (
                RadixVariant::OutOfPlace,
                pinned(6164, 50, 788_536, 5052, 2237, 262_933, 28),
                0x3f8e_a3b3_9fd9_9605_u64,
            ),
            (
                RadixVariant::InPlaceZeroing,
                pinned(10_240, 64_573, 1_310_720, 262_140, 2306, 589_824, 40),
                0x3f97_76da_5d3a_d884,
            ),
        ];
        for (variant, want, bits) in ggks_cases {
            let got = radix_topk(&dev, &data, 1000, variant);
            check(&format!("{variant:?}"), got.stats, got.time_ms, want, bits);
        }

        // (input, k, pass-0 filter, stats, time_ms bits). The filter holds
        // on the uniform input. The duplicate-heavy input puts every sample
        // in one top digit, so the filter bails out and every pass re-reads
        // the candidates. The planted input carries top-digit values at 64
        // of the sample's strided positions and nowhere else: the filter
        // engages with the top digit as its cutoff, but the k-th value lies
        // below it, so refine pass 0 falls back to the full input.
        let dup: Vec<u32> = (0..1u32 << 16).map(|i| i % 7).collect();
        let stride = (1 << 16) / SAMPLE_SIZE;
        let planted: Vec<u32> = (data.iter().enumerate())
            .map(|(i, &x)| {
                if i % stride == 0 && i < 64 * stride {
                    0xFF00_0000 | x
                } else {
                    x % 0xFF00_0000
                }
            })
            .collect();
        check_path(
            &dev,
            &data,
            4096,
            Filter::Held,
            pinned(4093, 634, 396_868, 80_456, 2305, 190_244, 18),
            0x3f97_370d_2ff6_865e,
        );
        check_path(
            &dev,
            &dup,
            100,
            Filter::Off,
            pinned(17_428, 6444, 2_103_248, 824_280, 116, 1_051_624, 71),
            0x3fa1_07fe_c51b_a4fc,
        );
        check_path(
            &dev,
            &planted,
            1000,
            Filter::Missed,
            pinned(5328, 109, 554_404, 13_264, 2333, 275_204, 25),
            0x3f97_531e_b420_69a2,
        );
        // a filtered u64 input: 8 histogram/refine pairs
        check_path(
            &dev,
            &wide,
            500,
            Filter::Held,
            pinned(2438, 161, 187_968, 20_184, 649, 45_994, 16),
            0x3f9f_05fd_1751_6b06,
        );
        // A filtered f32 input: uniform bit patterns, about 1/256 of them
        // NaNs, with NaNs of both signs planted as well. (Values of one
        // magnitude share a few top digits, so the filter bails out on
        // them.)
        let spread: Vec<f32> = (data.iter().enumerate())
            .map(|(i, &x)| match i % 1009 {
                0 => f32::NAN,
                5 => -f32::NAN,
                _ => f32::from_bits(x),
            })
            .collect();
        check_path(
            &dev,
            &spread,
            1000,
            Filter::Held,
            pinned(3332, 159, 298_632, 19_356, 2340, 147_318, 20),
            0x3f9b_22ba_8a3c_b6f0,
        );
    }

    /// What pass 0's sampled filter did in a forced radix-path run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Filter {
        /// Bailed out: pass 0 stored nothing.
        Off,
        /// Stored the elements at or above its cutoff, and refine pass 0
        /// scanned them.
        Held,
        /// Stored them, but the k-th value lay below the cutoff, so refine
        /// pass 0 re-read the whole input.
        Missed,
    }

    /// Run the forced radix path on `input` and check its result, its
    /// stage labels, what its filter did and its pinned counters and time.
    fn check_path<K: TopKKey>(
        dev: &Device,
        input: &[K],
        k: usize,
        filter: Filter,
        want: gpu_sim::KernelStats,
        bits: u64,
    ) {
        use crate::pipeline::dr_topk;
        use crate::tuning::PathHint;

        let config = DrTopKConfig {
            path: PathHint::Radix,
            ..DrTopKConfig::default()
        };
        let case = format!("path {} k={k}", std::any::type_name::<K>());
        let got = dr_topk(dev, input, k, &config);
        let expected = reference_topk(input, k);
        assert!(
            got.values
                .iter()
                .map(|v| v.to_bits())
                .eq(expected.iter().map(|v| v.to_bits())),
            "{case}: values"
        );
        let labels: Vec<&str> = got.stages.stages.iter().map(|s| s.label.as_str()).collect();
        let mut expected: Vec<String> = (0..K::Bits::BITS / BITS_PER_PASS)
            .flat_map(|p| {
                [
                    format!("radix_histogram_pass{p}"),
                    format!("radix_refine_pass{p}"),
                ]
            })
            .collect();
        expected.extend(["candidate_gather".into(), "radix_select".into()]);
        assert_eq!(labels, expected, "{case}: stages");
        let stored = got.stages.stages[0].stats.global_store_transactions > 0;
        let reread =
            got.stages.stages[1].stats.global_loaded_bytes == std::mem::size_of_val(input) as u64;
        let seen = match (stored, reread) {
            (false, _) => Filter::Off,
            (true, false) => Filter::Held,
            (true, true) => Filter::Missed,
        };
        assert_eq!(seen, filter, "{case}: filter");
        assert_eq!(got.stats, want, "{case}");
        assert_eq!(got.time_ms.to_bits(), bits, "{case}: {} ms", got.time_ms);
    }
}
