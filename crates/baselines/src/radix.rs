//! Most-significant-digit radix selection on the simulated GPU: the digit
//! pass every radix select in the workspace runs, and the GGKS radix top-k
//! baseline built on it (Alabi et al., "Fast k-Selection Algorithms for
//! Graphics Processing Units"). Generic over any [`TopKKey`].
//!
//! # The digit pass
//!
//! Radix select walks the key's bits [`BITS_PER_PASS`] at a time, most
//! significant digit first. Each pass histograms the candidates that share
//! the [`DigitPrefix`] fixed so far by their current digit
//! ([`digit_histogram`]); [`choose_digit`] then locates the digit holding
//! the k-th largest element, and the prefix grows by that digit. After the
//! last pass the prefix *is* the k-th value. Each warp counts into a local
//! histogram and flushes it into the pass histogram with one atomicAdd per
//! non-empty digit, as the GGKS code does. What a pass keeps besides the
//! counts, and where it writes it, is its [`Keep`]. Three selects run this
//! pass:
//!
//! * the GGKS baseline of this module ([`radix_select_kth`],
//!   [`radix_topk`]), which keeps nothing;
//! * Dr. Top-k's flag-based select (`drtopk_core::radix_flags`), which
//!   drops non-candidates by the prefix check alone and never stores. Its
//!   later passes scan host-side survivor lists ([`Keep::Survivors`]) in
//!   place of the input and record the same cost;
//! * the large-k path (`drtopk_core::radix_path`), whose first pass also
//!   stores every element at or above a top-digit cutoff chosen from a
//!   strided sample ([`sample_top_digits`], [`Keep::Stored`]).
//!
//! All digit arithmetic happens in the key's radix space
//! ([`TopKKey::Bits`]): the order-preserving bijection makes unsigned radix
//! selection correct for signed integers and IEEE-754 floats unchanged. A
//! 32-bit key takes 4 passes; a 64-bit key takes 8.
//!
//! What the model charges and what the host does differ. Every warp
//! records the coalesced load of its chunk, two ALU operations per element,
//! one atomicAdd per non-empty digit and, with [`Keep::Stored`], one atomic
//! and a coalesced store of what it kept. The host does only what the
//! result needs:
//!
//! * counting is a loop that only counts. In pass 0 no digit is fixed, so
//!   it reads the top digit with a constant shift and no prefix check;
//! * [`Keep::Survivors`] pushes each match from the counting loop, since a
//!   survivor list is exactly what that loop visits;
//! * [`Keep::Stored`] counts nothing per warp. A 256-entry presence table,
//!   which stops once every digit has been seen, gives the warp's atomics;
//!   a second, read-only scan of the chunk keeps its elements, testing
//!   8-element blocks with a vectorized or of compares. After the launch
//!   the histogram is counted from the kept elements, which is exact for
//!   every digit a select reads when they cover its `need`; otherwise
//!   from all of `data`.
//!
//! On 2^22 uniform u32 keys (the large-k path's pass 0 at k = 720–1024,
//! about 33k elements kept) the pass-0 stage costs 0.59–0.74 ns per
//! element on a 2-core x86-64 host, where a read-only maximum scan costs
//! about 0.37 and the fused count-and-keep loop this replaced cost
//! 1.3–2.3 (it was bimodal between processes).
//!
//! # The GGKS baseline
//!
//! Two variants restrict the candidates between passes, matching the
//! paper's discussion:
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

use std::ops::RangeInclusive;

use gpu_sim::{Device, KernelStats, LaunchResult};

use crate::key::{KeyBits, TopKKey};
use crate::result::TopKResult;

/// Bits consumed per digit pass. 8 matches the paper ("8-bit per digit
/// yields the optimal performance").
pub const BITS_PER_PASS: u32 = 8;

/// Digits per pass.
const DIGITS: usize = 1 << BITS_PER_PASS;

/// Elements assigned to each warp in scan kernels.
pub const ELEMS_PER_WARP: usize = 8192;

/// Elements in the strided sample of [`sample_top_digits`].
pub const SAMPLE_SIZE: usize = 1024;

/// The digits of the k-th value fixed by the passes run so far. An element
/// is still a candidate iff it shares them ([`DigitPrefix::matches`]).
#[derive(Debug, Clone, Copy)]
pub struct DigitPrefix<B> {
    /// The fixed digits; every bit outside `mask` is zero.
    value: B,
    /// Mask covering the fixed digits.
    mask: B,
}

impl<B: KeyBits> Default for DigitPrefix<B> {
    /// No digit fixed: every element matches.
    fn default() -> Self {
        DigitPrefix {
            value: B::ZERO,
            mask: B::ZERO,
        }
    }
}

impl<B: KeyBits> DigitPrefix<B> {
    /// The fixed digits, with every unfixed digit zero: the smallest key
    /// that matches. After the last pass, the k-th value.
    pub fn value(self) -> B {
        self.value
    }

    /// Whether `x` shares every fixed digit.
    pub fn matches(self, x: B) -> bool {
        x & self.mask == self.value
    }

    /// The radix bits of every key that matches and whose digit of pass
    /// `pass` (the pass after the fixed digits) is at least `from`: one
    /// contiguous range.
    fn keep_range(self, pass: u32, from: usize) -> RangeInclusive<B> {
        let shift = B::BITS - BITS_PER_PASS * (pass + 1);
        (self.value | B::from_u64(from as u64) << shift)..=(self.value | !self.mask)
    }

    /// Fix `digit` as the digit of pass `pass`.
    pub fn push(&mut self, pass: u32, digit: usize) {
        let shift = B::BITS - BITS_PER_PASS * (pass + 1);
        self.value |= B::from_u64(digit as u64) << shift;
        self.mask |= B::from_u64(DIGITS as u64 - 1) << shift;
    }
}

/// The digit of `x` that pass `pass` inspects (pass 0 is the top digit).
pub fn digit_of<B: KeyBits>(x: B, pass: u32) -> usize {
    let shift = B::BITS - BITS_PER_PASS * (pass + 1);
    ((x >> shift) & B::from_u64(DIGITS as u64 - 1)).as_digit()
}

/// What a digit pass keeps besides its histogram, and where it puts it.
#[derive(Debug)]
pub enum Keep<'a, K> {
    /// Nothing: the pass only counts.
    Nothing,
    /// Every matching element whose digit is at least `cutoff`, stored by
    /// the kernel: each warp allocates its slots with one atomic and stores
    /// them coalesced, appended to `kept` in warp order.
    ///
    /// The returned histogram is then exact only where a select reads it:
    /// when `kept` ends up holding at least `need` elements, the `need`-th
    /// largest match lies at or above the cutoff, and only the digits from
    /// the cutoff up are counted (from `kept`); otherwise every digit is.
    /// Either way [`choose_digit`] with `need` finds the same digit and
    /// count above it as on the full histogram.
    Stored {
        cutoff: usize,
        need: usize,
        kept: &'a mut Vec<K>,
    },
    /// Every matching element, as host bookkeeping that records no cost:
    /// one list per warp, pushed in warp order. These are the survivor
    /// lists a later pass scans in place of the input.
    Survivors(&'a mut Vec<Vec<K>>),
}

/// The digit-histogram kernel of pass `pass`, launched as `name`: one warp
/// per [`ELEMS_PER_WARP`] elements of `data` counts every element matching
/// `prefix` (which fixes the digits of the passes before `pass`) by its
/// digit, then flushes its counts into the pass histogram with one
/// atomicAdd per non-empty digit. Returns the pass histogram and the
/// launch's cost; what `keep` asked for is in the vector it names.
///
/// With `survivors`, warp `w` scans the host-side list `survivors[w]` (an
/// earlier pass's [`Keep::Survivors`]) in place of its chunk. A list holds
/// every element of the chunk that matched the shorter prefix of the pass
/// that kept it, so the counts are the same; the warp still records the
/// coalesced load of its whole chunk, as the modeled kernel re-reads the
/// input and drops non-candidates by the prefix check.
///
/// The host does less than this model where the result allows it; the
/// module doc's *The digit pass* says what it does instead.
pub fn digit_histogram<K: TopKKey>(
    device: &Device,
    name: &'static str,
    data: &[K],
    survivors: Option<&[Vec<K>]>,
    prefix: DigitPrefix<K::Bits>,
    pass: u32,
    mut keep: Keep<'_, K>,
) -> (Vec<u32>, LaunchResult) {
    let mut total = [0u32; DIGITS];
    let launch = device.launch(name, data.len().div_ceil(ELEMS_PER_WARP), |ctx| {
        let chunk = ctx.chunk_of(data.len());
        let slice = ctx.read_coalesced(&data[chunk]);
        ctx.record_alu(2 * slice.len() as u64);
        let scan = survivors.map_or(slice, |lists| &lists[ctx.warp_id]);
        let flushed = match &mut keep {
            Keep::Nothing => add_counts(&mut total, count_digits(scan, prefix, pass)),
            Keep::Stored { cutoff, kept, .. } => {
                let present = digits_present(scan, prefix, pass);
                let before = kept.len();
                keep_into(scan, prefix.keep_range(pass, *cutoff), kept);
                let stored = kept.len() - before;
                if stored > 0 {
                    ctx.record_atomics(1);
                    ctx.record_store_coalesced::<K>(stored);
                }
                present
            }
            Keep::Survivors(lists) => {
                // the survivors are the matches the count visits anyway
                let mut counts = [0u32; DIGITS];
                let mut kept = Vec::new();
                for_each_digit(scan, prefix, pass, |d, x| {
                    counts[d] += 1;
                    kept.push(x);
                });
                lists.push(kept);
                add_counts(&mut total, counts)
            }
        };
        // the flush: one atomicAdd per non-empty digit
        ctx.record_atomics(flushed);
    });
    if let Keep::Stored { need, kept, .. } = keep {
        let counted = if kept.len() >= need { &kept[..] } else { data };
        add_counts(&mut total, count_digits(counted, prefix, pass));
    }
    (total.to_vec(), launch)
}

/// The elements of `scan` matching `prefix`, counted by their digit of pass
/// `pass`.
fn count_digits<K: TopKKey>(scan: &[K], prefix: DigitPrefix<K::Bits>, pass: u32) -> [u32; DIGITS] {
    let mut counts = [0u32; DIGITS];
    for_each_digit(scan, prefix, pass, |d, _| counts[d] += 1);
    counts
}

/// Add a warp's `counts` into `total`; returns how many digits the warp
/// counted at all.
fn add_counts(total: &mut [u32; DIGITS], counts: [u32; DIGITS]) -> u64 {
    for (sum, &count) in total.iter_mut().zip(&counts) {
        *sum += count;
    }
    counts.iter().filter(|&&c| c > 0).count() as u64
}

/// How many distinct digits of pass `pass` the elements of `scan` matching
/// `prefix` have: the count of non-empty digits of [`count_digits`], without
/// the counts. It stops once every digit has been seen, which on uniform
/// keys takes about 1,500 elements.
fn digits_present<K: TopKKey>(scan: &[K], prefix: DigitPrefix<K::Bits>, pass: u32) -> u64 {
    let mut seen = [0u8; DIGITS];
    let mut present = 0;
    for block in scan.chunks(512) {
        for_each_digit(block, prefix, pass, |d, _| seen[d] = 1);
        present = seen.iter().map(|&s| u64::from(s)).sum();
        if present == DIGITS as u64 {
            break;
        }
    }
    present
}

/// Call `f` with the digit of pass `pass` and the element, for every
/// element of `scan` that matches `prefix` (which fixes the digits of the
/// passes before `pass`). Pass 0 fixes no digit, so there every key
/// matches and the digit's shift is a constant, which halves the work per
/// element. Later passes branch on the prefix check, which mostly fails:
/// counting the misses in a spare slot instead would chain their
/// increments through that one counter.
#[inline(always)]
fn for_each_digit<K: TopKKey>(
    scan: &[K],
    prefix: DigitPrefix<K::Bits>,
    pass: u32,
    mut f: impl FnMut(usize, K),
) {
    debug_assert!(
        pass > 0 || prefix.mask == K::Bits::ZERO,
        "pass 0 fixes no digit"
    );
    if pass == 0 {
        for &x in scan {
            f(digit_of(x.to_bits(), 0), x);
        }
    } else {
        for &x in scan {
            let bits = x.to_bits();
            if prefix.matches(bits) {
                f(digit_of(bits, pass), x);
            }
        }
    }
}

/// Elements per block of [`keep_into`]'s test.
const KEEP_BLOCK: usize = 8;

/// Append every element of `scan` whose radix bits lie in `range` to `kept`,
/// in order. Each [`KEEP_BLOCK`]-element block is first tested branch-free
/// with an or of compares, one per element (`bits - lo ≤ hi - lo`, modulo
/// `2^BITS`), which vectorizes for 32-bit keys; only the blocks that hold a
/// kept element take the per-element path.
fn keep_into<K: TopKKey>(scan: &[K], range: RangeInclusive<K::Bits>, kept: &mut Vec<K>) {
    let (lo, hi) = range.into_inner();
    let span = hi.wrapping_sub(lo);
    let keeps = |x: &K| x.to_bits().wrapping_sub(lo) <= span;
    let mut blocks = scan.chunks_exact(KEEP_BLOCK);
    for block in &mut blocks {
        if block.iter().fold(false, |any, x| any | keeps(x)) {
            kept.extend(block.iter().filter(|x| keeps(x)));
        }
    }
    kept.extend(blocks.remainder().iter().filter(|x| keeps(x)));
}

/// The digit of a pass `histogram` that holds the `k_remaining`-th largest
/// counted element, and how many counted elements lie in higher digits.
pub fn choose_digit(histogram: &[u32], k_remaining: usize) -> (usize, usize) {
    debug_assert!(
        k_remaining <= histogram.iter().map(|&c| c as usize).sum::<usize>(),
        "k_remaining {k_remaining} exceeds the counted elements"
    );
    let mut above = 0;
    for (digit, &count) in histogram.iter().enumerate().rev() {
        if above + count as usize >= k_remaining {
            return (digit, above);
        }
        above += count as usize;
    }
    (0, above)
}

/// Top-digit histogram of a deterministic strided sample of `data`:
/// `min(|data|, SAMPLE_SIZE)` elements, `|data| / sample` apart. Computed on
/// the host; a kernel that models the probe records one random load per
/// sampled element.
pub fn sample_top_digits<K: TopKKey>(data: &[K]) -> Vec<u32> {
    let mut histogram = vec![0u32; DIGITS];
    let sample = data.len().min(SAMPLE_SIZE);
    if let Some(stride) = data.len().checked_div(sample) {
        for &x in data.iter().step_by(stride).take(sample) {
            histogram[digit_of(x.to_bits(), 0)] += 1;
        }
    }
    histogram
}

/// How the GGKS baseline restricts the candidates between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadixVariant {
    /// Compact surviving candidates into a new buffer every pass.
    OutOfPlace,
    /// Re-scan the input every pass, overwriting ineligible elements with 0
    /// (the GGKS in-place scheme the paper criticises).
    InPlaceZeroing,
}

/// Outcome of a k-selection (threshold search) on the device.
#[derive(Debug, Clone)]
pub struct SelectOutcome<K: TopKKey = u32> {
    /// The k-th largest value, or a lower bound of it from a select that
    /// stops before the last digit pass.
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
    variant: RadixVariant,
) -> SelectOutcome<K> {
    assert!(k >= 1 && k <= data.len(), "k must be in 1..=|V|");
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;
    let mut prefix = DigitPrefix::default();
    let mut k_remaining = k;
    // Out-of-place: the candidates (shrinking every pass). In-place: the
    // working copy whose ineligible elements are overwritten with zero.
    let mut candidates = data.to_vec();

    for pass in 0..K::Bits::BITS.div_ceil(BITS_PER_PASS) {
        let (histogram, launch) = digit_histogram(
            device,
            "baseline_radix_hist",
            &candidates,
            None,
            prefix,
            pass,
            Keep::Nothing,
        );
        stats += launch.stats;
        time_ms += launch.time_ms;
        let (digit, above) = choose_digit(&histogram, k_remaining);
        k_remaining -= above;
        prefix.push(pass, digit);

        match variant {
            RadixVariant::OutOfPlace => {
                let mut compacted = Vec::new();
                let num_warps = candidates.len().div_ceil(ELEMS_PER_WARP);
                let launch = device.launch("baseline_radix_compact", num_warps, |ctx| {
                    let chunk = ctx.chunk_of(candidates.len());
                    let slice = ctx.read_coalesced(&candidates[chunk]);
                    let before = compacted.len();
                    compacted.extend(slice.iter().filter(|x| prefix.matches(x.to_bits())));
                    ctx.record_alu(slice.len() as u64);
                    let kept = compacted.len() - before;
                    if kept > 0 {
                        // warp-aggregated position allocation + coalesced store
                        ctx.record_atomics(1);
                        ctx.record_store_coalesced::<K>(kept);
                    }
                });
                stats += launch.stats;
                time_ms += launch.time_ms;
                candidates = compacted;
                if candidates.len() == 1 {
                    // the k-th value is pinned down early
                    return SelectOutcome {
                        threshold: candidates[0],
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
                for x in candidates.iter_mut() {
                    let bits = x.to_bits();
                    if bits != K::Bits::ZERO && !prefix.matches(bits) && bits < prefix.value() {
                        *x = K::from_bits(K::Bits::ZERO);
                        zeroed += 1;
                    }
                }
                let elem_bytes = std::mem::size_of::<K>() as u64;
                let zero_stats = KernelStats {
                    global_store_transactions: zeroed,
                    global_stored_bytes: zeroed * elem_bytes,
                    ..KernelStats::default()
                };
                let zero_time = gpu_sim::estimate_time_ms(&zero_stats, device.spec());
                device.record_external("baseline_radix_zero", zero_stats, zero_time);
                stats += zero_stats;
                time_ms += zero_time;
            }
        }
    }

    // After the last pass the prefix holds every digit: it is the k-th value
    // (and equals every surviving out-of-place candidate).
    SelectOutcome {
        threshold: K::from_bits(prefix.value()),
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
    let mut above: Vec<K> = Vec::new();
    let mut ties = 0usize;
    let launch = device.launch("baseline_topk_gather", num_warps, |ctx| {
        let chunk = ctx.chunk_of(data.len());
        let slice = ctx.read_coalesced(&data[chunk]);
        let before = above.len();
        for &x in slice {
            let xb = x.to_bits();
            if xb > tb {
                above.push(x);
            } else if xb == tb {
                ties += 1;
            }
            ctx.record_alu(1);
        }
        let kept = above.len() - before;
        if kept > 0 {
            ctx.record_atomics(1);
            ctx.record_store_coalesced::<K>(kept);
        }
    });
    stats += launch.stats;
    time_ms += launch.time_ms;

    debug_assert!(above.len() <= k && above.len() + ties >= k);
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
    variant: RadixVariant,
) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let select = radix_select_kth(device, data, k, variant);
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

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn radix_select_matches_reference_on_uniform() {
        let data = topk_datagen::uniform(1 << 14, 42);
        let dev = device();
        for &k in &[1usize, 2, 37, 1024, 1 << 13] {
            let got = radix_select_kth(&dev, &data, k, RadixVariant::OutOfPlace);
            assert_eq!(got.threshold, reference_kth(&data, k), "k={k}");
        }
    }

    #[test]
    fn radix_select_in_place_matches_reference() {
        let data = topk_datagen::normal(1 << 14, 7);
        let dev = device();
        for &k in &[1usize, 100, 4096] {
            let got = radix_select_kth(&dev, &data, k, RadixVariant::InPlaceZeroing);
            assert_eq!(got.threshold, reference_kth(&data, k), "k={k}");
        }
    }

    #[test]
    fn radix_topk_matches_reference_across_distributions() {
        let dev = device();
        for dist in topk_datagen::Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 14, 3);
            for &k in &[1usize, 33, 512] {
                let got = radix_topk(&dev, &data, k, RadixVariant::OutOfPlace);
                assert_eq!(got.values, reference_topk(&data, k), "{dist} k={k}");
            }
        }
    }

    #[test]
    fn radix_topk_handles_duplicates_and_edge_sizes() {
        let dev = device();
        let data = vec![7u32; 1000];
        let got = radix_topk(&dev, &data, 10, RadixVariant::OutOfPlace);
        assert_eq!(got.values, vec![7u32; 10]);
        let tiny = vec![3u32, 1, 2];
        let got = radix_topk(&dev, &tiny, 3, RadixVariant::OutOfPlace);
        assert_eq!(got.values, vec![3, 2, 1]);
        let zero = radix_topk(&dev, &tiny, 0, RadixVariant::OutOfPlace);
        assert!(zero.is_empty());
        // k larger than |V| clamps
        let clamped = radix_topk(&dev, &tiny, 10, RadixVariant::OutOfPlace);
        assert_eq!(clamped.values, vec![3, 2, 1]);
    }

    #[test]
    fn radix_topk_works_with_extreme_values() {
        let dev = device();
        let data = vec![0u32, u32::MAX, 5, u32::MAX - 1, 0];
        let got = radix_topk(&dev, &data, 2, RadixVariant::OutOfPlace);
        assert_eq!(got.values, vec![u32::MAX, u32::MAX - 1]);
    }

    #[test]
    fn radix_topk_is_generic_over_keys() {
        let dev = device();
        // i64 with negatives, u64 with high bits, f32 with specials: 64-bit
        // keys run 8 digit passes, floats go through the total-order map.
        let signed: Vec<i64> = (-500i64..500).map(|x| x * 3_000_000_007).collect();
        assert_eq!(
            radix_topk(&dev, &signed, 7, RadixVariant::OutOfPlace).values,
            reference_topk(&signed, 7)
        );
        let wide: Vec<u64> = (0..1000u64).map(|x| x << 40 | x).collect();
        assert_eq!(
            radix_topk(&dev, &wide, 5, RadixVariant::InPlaceZeroing).values,
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
        let got = radix_topk(&dev, &floats, 3, RadixVariant::OutOfPlace);
        assert_eq!(got.values, vec![f32::INFINITY, 3.75, 1.5]);
        assert_eq!(got.kth_value, 1.5);
    }

    #[test]
    fn in_place_variant_pays_random_stores() {
        let data = topk_datagen::uniform(1 << 14, 11);
        let dev = device();
        let oop = radix_topk(&dev, &data, 64, RadixVariant::OutOfPlace);
        let inp = radix_topk(&dev, &data, 64, RadixVariant::InPlaceZeroing);
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
        let got = radix_topk(&dev, &data, 128, RadixVariant::OutOfPlace);
        assert!(got.stats.global_load_transactions > 0);
        assert!(got.time_ms > 0.0);
        // the device log saw the same kernels
        let log = dev.stats();
        assert!(log.kernels.iter().any(|k| k.name.contains("radix_hist")));
        assert!(log.kernels.iter().any(|k| k.name.contains("topk_gather")));
    }
}
