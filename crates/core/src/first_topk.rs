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

use gpu_sim::{Device, KernelStats};
use topk_baselines::radix::ELEMS_PER_WARP;
use topk_baselines::TopKKey;

use crate::delegate::DelegateVector;
use crate::radix_flags::flag_radix_select_kth;

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
}

/// Run the first top-k on a delegate vector.
///
/// `k` is the query's k; `skip_last_pass` enables the paper's optimization of
/// dropping the final radix pass when β delegates and filtering make the
/// precision unnecessary.
pub fn first_topk<K: TopKKey>(
    device: &Device,
    delegates: &DelegateVector<K>,
    k: usize,
    skip_last_pass: bool,
) -> FirstTopK<K> {
    assert!(!delegates.is_empty(), "delegate vector must not be empty");
    let k = k.min(delegates.len());
    // Selection over the delegate *values* (the key column).
    let select = flag_radix_select_kth(device, &delegates.values, k, skip_last_pass);
    let mut stats = select.stats;
    let mut time_ms = select.time_ms;
    let threshold = select.threshold;
    let threshold_bits = threshold.to_bits();

    // Mark pass: find every delegate entry ≥ threshold and report it together
    // with its subrange id.
    let values = &delegates.values;
    let ids = &delegates.subrange_ids;
    let kv_words = 1 + std::mem::size_of::<K>() / std::mem::size_of::<u32>();
    let num_warps = values.len().div_ceil(ELEMS_PER_WARP).max(1);
    let launch = device.launch("drtopk_first_topk_mark", num_warps, |ctx| {
        let chunk = ctx.chunk_of(values.len());
        let vals = ctx.read_coalesced(&values[chunk.clone()]);
        let mut marked = Marked::default();
        mark(vals, &ids[chunk], threshold_bits, &mut marked);
        let hits = marked.above.len() + marked.ties.len();
        // each qualifying entry fetches its subrange id
        ctx.record_load_random::<u32>(hits);
        ctx.record_alu(vals.len() as u64);
        ctx.record_store_coalesced::<u32>(kv_words * hits);
        marked
    });
    stats += launch.stats;
    time_ms += launch.time_ms;

    let mut marked = Marked::default();
    for m in launch.output {
        marked.above.extend(m.above);
        marked.ties.extend(m.ties);
    }
    FirstTopK {
        stats,
        time_ms,
        ..take_marked(delegates, marked, k, threshold, !skip_last_pass)
    }
}

/// Delegate entries at or above a threshold with their subrange ids, in
/// index order: strictly-above entries and ties kept apart.
#[derive(Default)]
pub(crate) struct Marked<K> {
    above: Vec<(K, u32)>,
    ties: Vec<(K, u32)>,
}

/// The mark pass over a run of delegate entries (`values[i]` belongs to
/// subrange `ids[i]`): append every entry `≥ threshold_bits` to `marked`.
pub(crate) fn mark<K: TopKKey>(
    values: &[K],
    ids: &[u32],
    threshold_bits: K::Bits,
    marked: &mut Marked<K>,
) {
    for (&v, &id) in values.iter().zip(ids) {
        let vb = v.to_bits();
        if vb > threshold_bits {
            marked.above.push((v, id));
        } else if vb == threshold_bits {
            marked.ties.push((v, id));
        }
    }
}

/// Take the top-k entries of a marked delegate vector and apply Rule 3.
///
/// When the threshold is exact the ties are capped so exactly k entries are
/// taken (a true top-k); with a skipped pass the threshold is a lower bound
/// and every marked entry is taken. Counters are left empty for the caller.
pub(crate) fn take_marked<K: TopKKey>(
    delegates: &DelegateVector<K>,
    marked: Marked<K>,
    k: usize,
    threshold: K,
    exact: bool,
) -> FirstTopK<K> {
    let Marked {
        above: mut taken,
        ties,
    } = marked;
    let need = if exact {
        k.saturating_sub(taken.len())
    } else {
        ties.len()
    };
    taken.extend(ties.into_iter().take(need));

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

    // Count the taken entries per subrange (Rule 3), then keep the values
    // of the subranges that are not fully taken.
    let mut taken_ids: Vec<u32> = taken.iter().map(|&(_, id)| id).collect();
    taken_ids.sort_unstable();
    let fully_taken_subranges: Vec<u32> = taken_ids
        .chunk_by(|a, b| a == b)
        .filter(|run| run.len() >= entries_of(run[0]))
        .map(|run| run[0])
        .collect();
    let partial_delegate_values: Vec<K> = taken
        .iter()
        .filter(|(_, id)| fully_taken_subranges.binary_search(id).is_err())
        .map(|&(v, _)| v)
        .collect();

    FirstTopK {
        threshold,
        exact_threshold: exact,
        fully_taken_subranges,
        partial_delegate_values,
        taken_entries: taken.len(),
        stats: KernelStats::default(),
        time_ms: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegate::{build_delegate_vector, ConstructionMethod};
    use gpu_sim::DeviceSpec;
    use topk_baselines::reference_kth;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    fn build(data: &[u32], alpha: u32, beta: usize, dev: &Device) -> DelegateVector {
        build_delegate_vector(dev, data, alpha, beta, ConstructionMethod::Auto)
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
