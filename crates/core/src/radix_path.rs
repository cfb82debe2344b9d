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
//!   cutoff is compacted out while the full histogram is built — so later
//!   stages touch the (≈ `max(4k, n/256)`-element) filtered set instead of
//!   re-reading the input. The filter is *speculative but safe*: the exact
//!   histogram proves at refine time whether the cutoff kept the k-th
//!   value, and a miss (or an unfavourable distribution, where the sample
//!   predicts the filter would keep most of the input) simply falls back
//!   to scanning the full candidate set.
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

use std::cmp::Reverse;

use gpu_sim::{AtomicCounter, Device};
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
    // Surviving candidates (starts as the full input).
    let mut candidates: Vec<K> = data.to_vec();
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

            let keep = cutoff.map_or(Keep::Nothing, Keep::Stored);
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
                filtered = Some((cut, launch.output.into_iter().flatten().collect()));
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
                Some((cutoff, kept)) if cutoff <= chosen => {
                    candidates = Vec::new();
                    kept
                }
                _ => std::mem::take(&mut candidates),
            };
            let num_warps = scan.len().div_ceil(ELEMS_PER_WARP);
            let cursor = AtomicCounter::new(0);
            let launch = device.launch("radix_refine", num_warps, |kctx| {
                let chunk = kctx.chunk_of(scan.len());
                let slice = kctx.read_coalesced(&scan[chunk]);
                let mut survivors: Vec<K> = Vec::new();
                let mut above: Vec<K> = Vec::new();
                for &x in slice {
                    let bits = x.to_bits();
                    if prev.matches(bits) {
                        let d = digit_of(bits, pass);
                        if d > chosen {
                            above.push(x);
                        } else if d == chosen {
                            survivors.push(x);
                        }
                    }
                }
                kctx.record_alu(2 * slice.len() as u64);
                let stored = survivors.len() + above.len();
                if stored > 0 {
                    // warp-aggregated position allocation followed by a
                    // coalesced store of both partitions
                    cursor.fetch_add(kctx, stored as u64);
                    kctx.record_store_coalesced::<K>(stored);
                }
                (survivors, above)
            });
            let mut collected_above = 0usize;
            for (s, a) in launch.output {
                collected_above += a.len();
                above.extend(a);
                candidates.extend(s);
            }
            debug_assert_eq!(
                collected_above, above_count,
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
        let launch = device.launch("candidate_gather", num_warps, |kctx| {
            let chunk = kctx.chunk_of(k);
            let reads = chunk.start.min(above.len())..chunk.end.min(above.len());
            kctx.record_load_coalesced::<K>(reads.len());
            let mut out: Vec<K> = Vec::with_capacity(chunk.len());
            for i in chunk.clone() {
                out.push(if i < above.len() { above[i] } else { threshold });
                kctx.record_alu(1);
            }
            kctx.record_store_coalesced::<K>(out.len());
            out
        });
        let assembled: Vec<K> = launch.output.into_iter().flatten().collect();
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
    /// host-side change must leave them bit-identical.
    #[test]
    fn radix_model_is_pinned() {
        use crate::pipeline::dr_topk;
        use crate::radix_flags::flag_radix_select_kth;
        use crate::tuning::PathHint;
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

        // (input, k, pass-0 filter engaged, stats, time_ms bits): the
        // duplicate-heavy input puts every sample in one top digit, so the
        // filter bails out and every pass re-reads the candidates
        let dup: Vec<u32> = (0..1u32 << 16).map(|i| i % 7).collect();
        let config = DrTopKConfig {
            path: PathHint::Radix,
            ..DrTopKConfig::default()
        };
        let path_cases = [
            (
                &data,
                4096,
                true,
                pinned(4093, 634, 396_868, 80_456, 2305, 190_244, 18),
                0x3f97_370d_2ff6_865e_u64,
            ),
            (
                &dup,
                100,
                false,
                pinned(17_428, 6444, 2_103_248, 824_280, 116, 1_051_624, 71),
                0x3fa1_07fe_c51b_a4fc,
            ),
        ];
        for (input, k, filtered, want, bits) in path_cases {
            let got = dr_topk(&dev, input, k, &config);
            assert_eq!(got.values, reference_topk(input, k));
            let labels: Vec<&str> = got.stages.stages.iter().map(|s| s.label.as_str()).collect();
            let mut expected: Vec<String> = (0..4)
                .flat_map(|p| {
                    [
                        format!("radix_histogram_pass{p}"),
                        format!("radix_refine_pass{p}"),
                    ]
                })
                .collect();
            expected.extend(["candidate_gather".into(), "radix_select".into()]);
            assert_eq!(labels, expected);
            let pass0_stores = got.stages.stages[0].stats.global_store_transactions;
            assert_eq!(pass0_stores > 0, filtered, "k={k}: filter engagement");
            check(&format!("path k={k}"), got.stats, got.time_ms, want, bits);
        }
    }
}
