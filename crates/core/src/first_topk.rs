//! First top-k: select the top-k *delegates* and derive which subranges
//! qualify for concatenation (Rules 1 and 3) plus the filtering threshold
//! (Rule 2).
//!
//! The first top-k differs from an ordinary k-selection in two ways the
//! paper calls out (Section 5.1):
//!
//! 1. it operates on (key = delegate value, value = subrange id) pairs,
//!    because the subrange ids of the winning delegates are what the
//!    concatenation step consumes; and
//! 2. it must be a *top-k* (identify all winners), not merely a k-selection
//!    (identify the threshold), because every qualified subrange has to be
//!    concatenated.
//!
//! The selection itself uses the optimized flag-based radix select from
//! [`crate::radix_flags`]; a follow-up scan marks the winning delegate
//! entries and groups them by subrange.
//!
//! Because a selection keeps all its winners, one selection at some k
//! answers every smaller k over the same delegates: the smaller k's
//! threshold is its k-th largest winner, and its winners are the ones at
//! or above that threshold. A fused engine unit selects once at its largest
//! k ([`first_topk`]), and each member *narrows* that selection in one pass
//! over the winners instead of selecting again.

use gpu_sim::{Device, KernelStats};
use topk_baselines::radix::{BITS_PER_PASS, ELEMS_PER_WARP};
use topk_baselines::{KeyBits, TopKKey};

use crate::delegate::{DelegateVector, Delegates};
use crate::direction::Direction;
use crate::radix_flags::flag_radix_select_kth;
use crate::rows::record_warp_select;

/// Outcome of the first top-k over the delegate vector.
#[derive(Debug, Clone)]
pub struct FirstTopK<K: TopKKey = u32> {
    /// Rule 2 threshold: the k-th largest delegate value (or a safe lower
    /// bound when the last radix pass is skipped). Only elements `≥ threshold`
    /// (in the key's total order) can reach the final top-k.
    pub threshold: K,
    /// Whether `threshold` is the exact k-th delegate.
    pub exact_threshold: bool,
    /// Subranges whose **entire** β delegate set is within the top-k of the
    /// delegate vector; these are the only subranges that may still hide
    /// non-delegate candidates and therefore must be concatenated (Rule 3;
    /// with β = 1 this is simply Rule 1's qualified set).
    pub fully_taken_subranges: Vec<u32>,
    /// Delegate values taken from subranges that are *not* fully taken; they
    /// are already candidates themselves and are prepended to the
    /// concatenated vector without rescanning their subranges.
    pub partial_delegate_values: Vec<K>,
    /// Total number of delegate entries that made the top-k.
    pub taken_entries: usize,
    /// Counters accumulated by the first top-k kernels.
    pub stats: KernelStats,
    /// Modeled first top-k time in milliseconds.
    pub time_ms: f64,
    /// The k the selection ran at, clamped to the vector's length.
    pub(crate) k: usize,
    /// Every delegate entry at or above `threshold`: what a smaller k
    /// narrows.
    pub(crate) marked: Marked<K>,
}

/// Run the first top-k on a delegate vector, in the vector's direction.
///
/// `k` is the query's k; `skip_last_pass` enables the paper's optimization of
/// dropping the final radix pass when β delegates and filtering make the
/// precision unnecessary. The result keeps its winners, so a planned query
/// with any k up to this one can narrow it instead of selecting again (see
/// [`Shared::Selected`](crate::pipeline::Shared::Selected)).
///
/// # Panics
///
/// Panics on an empty vector.
pub fn first_topk<K: TopKKey>(
    device: &Device,
    delegates: &DelegateVector<K>,
    k: usize,
    skip_last_pass: bool,
) -> FirstTopK<K> {
    match delegates.direction {
        Direction::Largest => select_first_topk(device, delegates.view(), k, skip_last_pass),
        Direction::Smallest => {
            select_first_topk(device, delegates.view().as_desc(), k, skip_last_pass).into_native()
        }
    }
}

/// [`first_topk`] over a delegate view in the order being selected.
pub(crate) fn select_first_topk<K: TopKKey>(
    device: &Device,
    delegates: Delegates<'_, K>,
    k: usize,
    skip_last_pass: bool,
) -> FirstTopK<K> {
    assert!(
        !delegates.values.is_empty(),
        "delegate vector must not be empty"
    );
    let k = k.min(delegates.len());
    // Selection over the delegate *values* (the key column).
    let select = flag_radix_select_kth(device, delegates.values, k, skip_last_pass);
    let mut stats = select.stats;
    let mut time_ms = select.time_ms;
    let threshold = select.threshold;
    let threshold_bits = threshold.to_bits();

    // Mark pass: find every delegate entry ≥ threshold and report it together
    // with its subrange id.
    let values = delegates.values;
    let ids = delegates.subrange_ids;
    let num_warps = values.len().div_ceil(ELEMS_PER_WARP).max(1);
    let mut marked = Marked::default();
    let launch = device.launch("drtopk_first_topk_mark", num_warps, |ctx| {
        let chunk = ctx.chunk_of(values.len());
        let vals = ctx.read_coalesced(&values[chunk.clone()]);
        let entries = vals.iter().copied().zip(ids[chunk].iter().copied());
        let hits = mark(entries, threshold_bits, &mut marked);
        // each qualifying entry fetches its subrange id
        ctx.record_load_random::<u32>(hits);
        ctx.record_alu(vals.len() as u64);
        ctx.record_store_coalesced::<u32>(kv_words::<K>() * hits);
    });
    stats += launch.stats;
    time_ms += launch.time_ms;

    FirstTopK {
        stats,
        time_ms,
        ..take_marked(delegates, marked, k, threshold, !skip_last_pass)
    }
}

/// Narrow `unit`, a first top-k over the same delegates at a k at least
/// this one, to `k`: the result equals an exact [`select_first_topk`] at
/// `k` field for field, counters aside.
///
/// `unit` holds every entry at or above its threshold, so it holds every
/// entry at or above the k-th largest delegate, which is therefore its
/// k-th largest marked entry — also when `unit` skipped its last pass and
/// marked more. Re-marking its entries against that threshold keeps each
/// list in delegate-index order, so ties are taken as the full selection
/// takes them. The modeled cost is one launch: each warp reads a chunk of
/// the winners as (key, subrange id) pairs, runs a warp radix select over
/// it and stores the entries it keeps.
pub(crate) fn narrow_first_topk<K: TopKKey>(
    device: &Device,
    delegates: Delegates<'_, K>,
    unit: &FirstTopK<K>,
    k: usize,
) -> FirstTopK<K> {
    let k = k.min(delegates.len());
    assert!(
        (1..=unit.k).contains(&k),
        "a first top-k at k = {} cannot be narrowed to k = {k}",
        unit.k
    );
    let winners = &unit.marked;
    let mut bits: Vec<K::Bits> = winners.entries().map(|(v, _)| v.to_bits()).collect();
    let (_, &mut kth, _) = bits.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    let threshold = K::from_bits(kth);

    let passes = K::Bits::BITS / BITS_PER_PASS;
    let num_warps = winners.len().div_ceil(ELEMS_PER_WARP).max(1);
    let mut marked = Marked::default();
    let launch = device.launch("drtopk_first_topk_narrow", num_warps, |ctx| {
        let chunk = ctx.chunk_of(winners.len());
        ctx.record_load_coalesced::<u32>(kv_words::<K>() * chunk.len());
        record_warp_select(ctx, chunk.len(), passes);
        let entries = winners.entries().skip(chunk.start).take(chunk.len());
        let hits = mark(entries, kth, &mut marked);
        ctx.record_alu(chunk.len() as u64);
        ctx.record_store_coalesced::<u32>(kv_words::<K>() * hits);
    });
    FirstTopK {
        stats: launch.stats,
        time_ms: launch.time_ms,
        ..take_marked(delegates, marked, k, threshold, true)
    }
}

/// One (key, subrange id) pair in u32-sized words, so the charged bytes
/// stay exact for 8-byte keys.
pub(crate) fn kv_words<K>() -> usize {
    1 + std::mem::size_of::<K>() / std::mem::size_of::<u32>()
}

/// Delegate entries at or above a threshold with their subrange ids, in
/// index order: strictly-above entries and ties kept apart.
#[derive(Debug, Clone, Default)]
pub(crate) struct Marked<K> {
    pub(crate) above: Vec<(K, u32)>,
    pub(crate) ties: Vec<(K, u32)>,
}

impl<K: TopKKey> Marked<K> {
    /// Empty both lists, keeping their buffers.
    pub(crate) fn clear(&mut self) {
        self.above.clear();
        self.ties.clear();
    }

    fn len(&self) -> usize {
        self.above.len() + self.ties.len()
    }

    /// The strictly-above entries, then the ties.
    fn entries(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.above.iter().chain(&self.ties).copied()
    }
}

/// The mark pass over a run of (key, subrange id) delegate entries:
/// append every entry `≥ threshold_bits` to `marked`, and return how many
/// were appended.
pub(crate) fn mark<K: TopKKey>(
    entries: impl IntoIterator<Item = (K, u32)>,
    threshold_bits: K::Bits,
    marked: &mut Marked<K>,
) -> usize {
    let before = marked.len();
    for (v, id) in entries {
        let vb = v.to_bits();
        if vb > threshold_bits {
            marked.above.push((v, id));
        } else if vb == threshold_bits {
            marked.ties.push((v, id));
        }
    }
    marked.len() - before
}

/// Take the top-k entries of a marked delegate vector and apply Rule 3
/// ([`take_marked_into`]). The result keeps `marked`; counters are left
/// empty for the caller.
pub(crate) fn take_marked<K: TopKKey>(
    delegates: Delegates<'_, K>,
    marked: Marked<K>,
    k: usize,
    threshold: K,
    exact: bool,
) -> FirstTopK<K> {
    let (mut fully_taken_subranges, mut partial_delegate_values) = (Vec::new(), Vec::new());
    let taken_entries = take_marked_into(
        delegates,
        &marked,
        k,
        exact,
        &mut fully_taken_subranges,
        &mut partial_delegate_values,
    );
    FirstTopK {
        threshold,
        exact_threshold: exact,
        fully_taken_subranges,
        partial_delegate_values,
        taken_entries,
        stats: KernelStats::default(),
        time_ms: 0.0,
        k,
        marked,
    }
}

/// Take the top-k entries of `marked` and apply Rule 3: append every fully
/// taken subrange's id to `fully_taken` and the taken values of the other
/// subranges to `partial`, and return the number of entries taken.
///
/// When the threshold is exact the ties are capped so exactly k entries are
/// taken (a true top-k); with a skipped pass the threshold is a lower bound
/// and every marked entry is taken.
///
/// The grouping is one linear merge. The delegate vector is subrange-major
/// and [`mark`] appends entries in delegate-index order, so the subrange
/// ids of `marked.above` and of `marked.ties` never decrease (narrowing
/// keeps each list a subsequence of one of the unit's lists). Walking both
/// lists one subrange at a time counts each subrange's taken entries, and
/// the values of a subrange that is not fully taken go out in list order:
/// the above entries, then the capped ties, exactly the prefix of the
/// concatenated vector that per-warp store counters are charged for.
pub(crate) fn take_marked_into<K: TopKKey>(
    delegates: Delegates<'_, K>,
    marked: &Marked<K>,
    k: usize,
    exact: bool,
    fully_taken: &mut Vec<u32>,
    partial: &mut Vec<K>,
) -> usize {
    let need = if exact {
        k.saturating_sub(marked.above.len())
    } else {
        marked.ties.len()
    };
    let above = &marked.above[..];
    let ties = &marked.ties[..need.min(marked.ties.len())];
    let ascending = |list: &[(K, u32)]| list.windows(2).all(|w| w[0].1 <= w[1].1);
    debug_assert!(
        ascending(above) && ascending(ties),
        "marked subrange ids must never decrease"
    );

    // A short final subrange (or a subrange smaller than β) holds fewer than
    // β delegate entries; it counts as fully taken once all the delegates it
    // *has* are taken.
    let regular_entries = delegates.beta.min(delegates.subrange_size);
    let tail_entries = delegates
        .len()
        .saturating_sub((delegates.num_subranges - 1) * regular_entries)
        .max(1);
    let entries_of = |id: u32| -> usize {
        if id as usize + 1 == delegates.num_subranges {
            tail_entries
        } else {
            regular_entries
        }
    };

    // Count the taken entries per subrange (Rule 3), keeping the above
    // values of the subranges that are not fully taken.
    let first_full = fully_taken.len();
    let (mut a, mut t) = (0, 0);
    while let Some(id) = [above.get(a), ties.get(t)]
        .into_iter()
        .flatten()
        .map(|&(_, id)| id)
        .min()
    {
        let run = |list: &[(K, u32)], from: usize| {
            from + list[from..].iter().take_while(|e| e.1 == id).count()
        };
        let (a_end, t_end) = (run(above, a), run(ties, t));
        if a_end - a + t_end - t >= entries_of(id) {
            fully_taken.push(id);
        } else {
            partial.extend(above[a..a_end].iter().map(|&(v, _)| v));
        }
        (a, t) = (a_end, t_end);
    }
    // Then their ties: both id lists ascend.
    let full = &fully_taken[first_full..];
    let mut f = 0;
    for &(v, id) in ties {
        while full.get(f).is_some_and(|&s| s < id) {
            f += 1;
        }
        if full.get(f) != Some(&id) {
            partial.push(v);
        }
    }
    above.len() + ties.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegate::{construct, ConstructionMethod};
    use gpu_sim::DeviceSpec;
    use topk_baselines::reference_kth;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    fn build(data: &[u32], alpha: u32, beta: usize, dev: &Device) -> DelegateVector {
        construct(dev, data, alpha, beta, ConstructionMethod::Auto)
    }

    #[test]
    fn threshold_is_kth_delegate() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 3);
        let dv = build(&data, 8, 1, &dev);
        let k = 37;
        let got = first_topk(&dev, &dv, k, false);
        assert_eq!(got.threshold, reference_kth(&dv.values, k));
        assert!(got.exact_threshold);
        assert_eq!(got.taken_entries, k);
    }

    #[test]
    fn rule1_beta1_every_taken_subrange_is_fully_taken() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 9);
        let dv = build(&data, 8, 1, &dev);
        let got = first_topk(&dev, &dv, 64, false);
        // β = 1: a taken delegate always exhausts its subrange's delegates
        assert!(got.partial_delegate_values.is_empty());
        assert_eq!(got.fully_taken_subranges.len(), 64);
        // subrange ids must be valid and unique
        let mut ids = got.fully_taken_subranges.clone();
        ids.dedup();
        assert_eq!(ids.len(), 64);
        assert!(ids.iter().all(|&id| (id as usize) < dv.num_subranges));
    }

    #[test]
    fn rule3_beta2_partial_subranges_contribute_only_their_delegates() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 21);
        let dv = build(&data, 8, 2, &dev);
        let k = 41;
        let got = first_topk(&dev, &dv, k, false);
        assert_eq!(
            got.taken_entries,
            got.partial_delegate_values.len() + 2 * got.fully_taken_subranges.len(),
            "every taken entry is either a partial delegate or part of a fully taken subrange"
        );
        assert_eq!(got.taken_entries, k);
        // the threshold bounds every partial delegate from below
        assert!(got
            .partial_delegate_values
            .iter()
            .all(|&v| v >= got.threshold));
    }

    #[test]
    fn skipping_last_pass_takes_at_least_k_entries() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 5);
        let dv = build(&data, 8, 2, &dev);
        let k = 100;
        let exact = first_topk(&dev, &dv, k, false);
        let relaxed = first_topk(&dev, &dv, k, true);
        assert!(relaxed.threshold <= exact.threshold);
        assert!(!relaxed.exact_threshold);
        assert!(relaxed.taken_entries >= k);
        assert!(relaxed.fully_taken_subranges.len() >= exact.fully_taken_subranges.len());
    }

    #[test]
    fn duplicate_heavy_input_does_not_over_take() {
        let dev = device();
        let data = vec![1000u32; 4096];
        let dv = build(&data, 6, 1, &dev);
        let got = first_topk(&dev, &dv, 5, false);
        assert_eq!(got.taken_entries, 5);
        assert_eq!(got.fully_taken_subranges.len(), 5);
        assert_eq!(got.threshold, 1000);
    }

    #[test]
    fn k_larger_than_delegate_vector_is_clamped() {
        let dev = device();
        let data: Vec<u32> = (0..256u32).collect();
        let dv = build(&data, 6, 1, &dev); // 4 subranges, 4 delegates
        let got = first_topk(&dev, &dv, 1000, false);
        assert_eq!(got.taken_entries, 4);
        assert_eq!(got.fully_taken_subranges.len(), 4);
    }

    /// Every field the pipeline reads, as comparable bits.
    fn fields<K: TopKKey>(f: &FirstTopK<K>) -> (K::Bits, bool, Vec<u32>, Vec<K::Bits>, usize) {
        (
            f.threshold.to_bits(),
            f.exact_threshold,
            f.fully_taken_subranges.clone(),
            f.partial_delegate_values
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            f.taken_entries,
        )
    }

    /// Rule 3 by sorting, the oracle for [`take_marked`]'s linear merge:
    /// sort the taken subrange ids, count each run, and filter the taken
    /// entries against the fully taken set by binary search.
    fn take_marked_by_sort<K: TopKKey>(
        delegates: Delegates<'_, K>,
        marked: Marked<K>,
        k: usize,
        threshold: K,
        exact: bool,
    ) -> FirstTopK<K> {
        let need = if exact {
            k.saturating_sub(marked.above.len())
        } else {
            marked.ties.len()
        };
        let taken = || marked.above.iter().chain(marked.ties.iter().take(need));
        let regular_entries = delegates.beta.min(delegates.subrange_size);
        let tail_entries = delegates
            .len()
            .saturating_sub((delegates.num_subranges - 1) * regular_entries)
            .max(1);
        let entries_of = |id: u32| -> usize {
            if id as usize + 1 == delegates.num_subranges {
                tail_entries
            } else {
                regular_entries
            }
        };
        let mut taken_ids: Vec<u32> = taken().map(|&(_, id)| id).collect();
        taken_ids.sort_unstable();
        let fully_taken_subranges: Vec<u32> = taken_ids
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= entries_of(run[0]))
            .map(|run| run[0])
            .collect();
        let partial_delegate_values: Vec<K> = taken()
            .filter(|(_, id)| fully_taken_subranges.binary_search(id).is_err())
            .map(|&(v, _)| v)
            .collect();
        FirstTopK {
            threshold,
            exact_threshold: exact,
            fully_taken_subranges,
            partial_delegate_values,
            taken_entries: taken_ids.len(),
            stats: KernelStats::default(),
            time_ms: 0.0,
            k,
            marked,
        }
    }

    /// `got`'s Rule 3 grouping equals the sorting oracle's over the same
    /// marked entries, field for field and in order.
    fn assert_grouping_matches_oracle<K: TopKKey>(
        delegates: Delegates<'_, K>,
        got: &FirstTopK<K>,
        what: &str,
    ) {
        let oracle = take_marked_by_sort(
            delegates,
            got.marked.clone(),
            got.k,
            got.threshold,
            got.exact_threshold,
        );
        assert_eq!(fields(got), fields(&oracle), "{what}");
    }

    #[test]
    fn linear_rule3_grouping_equals_the_sorting_oracle() {
        let dev = device();
        let n = 1 << 12;
        let ascending: Vec<u32> = (0..n as u32).collect();
        let descending: Vec<u32> = (0..n as u32).rev().collect();
        let few_distinct: Vec<u32> = topk_datagen::uniform(n, 29)
            .into_iter()
            .map(|x| x % 8)
            .collect();
        // 64 full subranges of 2^6 and a final one of 3 elements
        let short_tail = topk_datagen::uniform(n + 3, 31);
        for (name, data) in [
            ("ascending", &ascending),
            ("descending", &descending),
            ("8 distinct values", &few_distinct),
            ("short final subrange", &short_tail),
        ] {
            for beta in 1..=4 {
                for skip_last_pass in [false, true] {
                    for direction in [Direction::Largest, Direction::Smallest] {
                        let dv = crate::delegate::build_delegate_vector(
                            &dev,
                            data,
                            6,
                            beta,
                            ConstructionMethod::Auto,
                            direction,
                        );
                        for k in [1, 2, 7, 64, 100, 150, dv.len()] {
                            let what = format!(
                                "{name}, β = {beta}, skip {skip_last_pass}, {direction:?}, k = {k}"
                            );
                            match direction {
                                Direction::Largest => {
                                    let view = dv.view();
                                    let got = select_first_topk(&dev, view, k, skip_last_pass);
                                    assert_grouping_matches_oracle(view, &got, &what);
                                }
                                Direction::Smallest => {
                                    let view = dv.view().as_desc();
                                    let got = select_first_topk(&dev, view, k, skip_last_pass);
                                    assert_grouping_matches_oracle(view, &got, &what);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Narrow one selection at `k_max` to every smaller k and compare with
    /// an exact selection at that k, and both groupings with the sorting
    /// oracle.
    fn assert_narrowing_matches<K: TopKKey>(
        dev: &Device,
        delegates: Delegates<'_, K>,
        unit: &FirstTopK<K>,
        what: &str,
    ) {
        assert_grouping_matches_oracle(delegates, unit, what);
        for k in 1..=unit.k {
            let narrowed = narrow_first_topk(dev, delegates, unit, k);
            let selected = select_first_topk(dev, delegates, k, false);
            assert_eq!(fields(&narrowed), fields(&selected), "{what}, k = {k}");
            assert_grouping_matches_oracle(delegates, &narrowed, &format!("{what}, k = {k}"));
            assert!(
                narrowed.time_ms > 0.0,
                "{what}, k = {k}: the narrowing pass is charged"
            );
        }
    }

    #[test]
    fn narrowing_one_selection_equals_selecting_at_every_smaller_k() {
        let dev = device();
        let uniform = topk_datagen::uniform(1 << 12, 17);
        let few_distinct: Vec<u32> = topk_datagen::uniform(1 << 12, 19)
            .into_iter()
            .map(|x| x % 8)
            .collect();
        // 64 full subranges of 2^6 and a final one of 3 elements
        let short_tail = topk_datagen::uniform((1 << 12) + 3, 23);
        let k_max = 100;
        for (name, data) in [
            ("uniform", &uniform),
            ("8 distinct values", &few_distinct),
            ("short final subrange", &short_tail),
        ] {
            for skip_last_pass in [false, true] {
                for direction in [Direction::Largest, Direction::Smallest] {
                    let what = format!("{name}, skip {skip_last_pass}, {direction:?}");
                    let dv = crate::delegate::build_delegate_vector(
                        &dev,
                        data,
                        6,
                        2,
                        ConstructionMethod::Auto,
                        direction,
                    );
                    let unit = first_topk(&dev, &dv, k_max, skip_last_pass);
                    assert!(unit.marked.len() >= k_max, "{what}");
                    match direction {
                        Direction::Largest => {
                            assert_narrowing_matches(&dev, dv.view(), &unit, &what)
                        }
                        Direction::Smallest => assert_narrowing_matches(
                            &dev,
                            dv.view().as_desc(),
                            &unit.to_desc(),
                            &what,
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn short_tail_subrange_can_be_fully_taken() {
        let dev = device();
        // 2^6-element subranges; the last subrange has a single element which
        // happens to be the global maximum.
        let mut data: Vec<u32> = (0..257u32).collect();
        data[256] = 1_000_000;
        let dv = build(&data, 6, 2, &dev);
        let got = first_topk(&dev, &dv, 3, false);
        assert!(
            got.fully_taken_subranges.contains(&4),
            "the single-element tail subrange only has one delegate and it is taken: {:?}",
            got
        );
    }
}
