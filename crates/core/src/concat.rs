//! Warp-centric concatenation with delegate-top-k-enabled filtering
//! (Sections 4.2 and 5.1), generic over any [`TopKKey`].
//!
//! The subranges that the first top-k fully qualified are copied into a new,
//! much smaller *concatenated vector* on which the second top-k runs. When
//! filtering (Rule 2) is enabled, only the elements that are at least the
//! k-th delegate value are copied; since the number of surviving elements
//! per subrange is unknown in advance, each warp claims output positions
//! with an atomic counter, exactly as the paper describes.
//!
//! The host-side gather allocates only for the surviving elements: the
//! warps run one after another, and each appends the elements it keeps to
//! the output after the partial delegates, instead of materializing the
//! full `fully_taken × subrange_size` upper-bound buffer and copying a
//! prefix of it (which doubled the allocation on the hot path).

use gpu_sim::{Device, KernelStats, WarpCtx};
use topk_baselines::TopKKey;

/// Result of the concatenation step.
#[derive(Debug, Clone)]
pub struct Concatenated<K: TopKKey = u32> {
    /// The concatenated vector: partial delegates first, then every element
    /// gathered from the fully-taken subranges (filtered if requested).
    pub elements: Vec<K>,
    /// How many of `elements` came straight from partially-taken subranges'
    /// delegates (no subrange scan was needed for them).
    pub partial_delegates: usize,
    /// Counters accumulated by the concatenation kernel.
    pub stats: KernelStats,
    /// Modeled concatenation time in milliseconds.
    pub time_ms: f64,
}

/// Concatenate the fully-taken subranges of `data` (ids in
/// `fully_taken_subranges`, subrange size `subrange_size`), prepending
/// `partial_delegate_values`, filtering by `threshold` when
/// `filtering` is true.
pub fn concatenate<K: TopKKey>(
    device: &Device,
    data: &[K],
    subrange_size: usize,
    fully_taken_subranges: &[u32],
    partial_delegate_values: &[K],
    threshold: K,
    filtering: bool,
) -> Concatenated<K> {
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;

    if fully_taken_subranges.is_empty() {
        // Rule 3 special case (Figure 8b): nothing to scan at all.
        return Concatenated {
            elements: partial_delegate_values.to_vec(),
            partial_delegates: partial_delegate_values.len(),
            stats,
            time_ms,
        };
    }

    let filter = filtering.then(|| threshold.to_bits());

    // One simulated warp per group of qualified subranges.
    let num_warps = fully_taken_subranges.len().clamp(1, 1 << 14);
    let mut elements = partial_delegate_values.to_vec();
    let launch = device.launch("drtopk_concatenation", num_warps, |ctx| {
        let share = ctx.chunk_of(fully_taken_subranges.len());
        // reading the qualified subrange ids produced by the first top-k
        let ids = ctx.read_coalesced(&fully_taken_subranges[share]);
        for &id in ids {
            gather_subrange(ctx, data, subrange_size, id, filter, &mut elements);
        }
    });
    stats += launch.stats;
    time_ms += launch.time_ms;

    Concatenated {
        elements,
        partial_delegates: partial_delegate_values.len(),
        stats,
        time_ms,
    }
}

/// Gather subrange `id` of `data` into `out`, keeping only elements
/// `≥ filter` when a filter is given. Records the warp's coalesced read of
/// the subrange and one compare per element; when anything survives, one
/// warp-aggregated atomic claims its output positions (the survivor count is
/// unknown beforehand) before a coalesced store.
pub(crate) fn gather_subrange<K: TopKKey>(
    ctx: &mut WarpCtx<'_>,
    data: &[K],
    subrange_size: usize,
    id: u32,
    filter: Option<K::Bits>,
    out: &mut Vec<K>,
) {
    let start = id as usize * subrange_size;
    let end = (start + subrange_size).min(data.len());
    let slice = ctx.read_coalesced(&data[start..end]);
    ctx.record_alu(slice.len() as u64);
    let before = out.len();
    match filter {
        Some(bits) => out.extend(slice.iter().filter(|x| x.to_bits() >= bits)),
        None => out.extend_from_slice(slice),
    }
    let kept = out.len() - before;
    if kept > 0 {
        ctx.record_atomics(1);
        ctx.record_store_coalesced::<K>(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn concatenates_whole_subranges_without_filtering() {
        let dev = device();
        let data: Vec<u32> = (0..64u32).collect();
        let got = concatenate(&dev, &data, 16, &[1, 3], &[], 0, false);
        let mut sorted = got.elements.clone();
        sorted.sort_unstable();
        let expected: Vec<u32> = (16..32).chain(48..64).collect();
        assert_eq!(sorted, expected);
        assert_eq!(got.partial_delegates, 0);
    }

    #[test]
    fn filtering_drops_small_elements() {
        let dev = device();
        let data: Vec<u32> = (0..64u32).collect();
        let got = concatenate(&dev, &data, 16, &[3], &[], 60, true);
        let mut sorted = got.elements.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![60, 61, 62, 63]);
    }

    #[test]
    fn partial_delegates_are_prepended() {
        let dev = device();
        let data: Vec<u32> = (0..32u32).collect();
        let got = concatenate(&dev, &data, 16, &[1], &[100, 101], 30, true);
        assert_eq!(&got.elements[..2], &[100, 101]);
        assert_eq!(got.partial_delegates, 2);
        let mut rest = got.elements[2..].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![30, 31]);
    }

    #[test]
    fn no_fully_taken_subranges_skips_the_scan() {
        let dev = device();
        dev.reset_stats();
        let data: Vec<u32> = (0..32u32).collect();
        let got = concatenate(&dev, &data, 16, &[], &[31, 30], 30, true);
        assert_eq!(got.elements, vec![31, 30]);
        assert!(got.stats.is_empty());
        assert!(dev.stats().kernels.is_empty(), "no kernel must be launched");
    }

    #[test]
    fn tail_subrange_shorter_than_subrange_size() {
        let dev = device();
        let data: Vec<u32> = (0..40u32).collect(); // subrange 2 has 8 elements
        let got = concatenate(&dev, &data, 16, &[2], &[], 0, false);
        let mut sorted = got.elements.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (32..40).collect::<Vec<u32>>());
    }

    #[test]
    fn filtering_uses_atomics_for_positions() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 12, 7);
        let got = concatenate(&dev, &data, 64, &[0, 5, 9, 60], &[], 1 << 30, true);
        assert!(got.stats.atomic_operations > 0);
        // every surviving element really is above the filter
        assert!(got.elements.iter().all(|&x| x >= 1 << 30));
    }

    #[test]
    fn gather_allocates_exactly_the_survivors() {
        // Regression for the double-allocation bug: the output vector's
        // capacity must match the surviving element count, not the
        // fully_taken × subrange_size upper bound.
        let dev = device();
        let data: Vec<u32> = (0..1024u32).collect();
        // threshold keeps only the top 8 values of the last subrange
        let got = concatenate(&dev, &data, 256, &[0, 1, 2, 3], &[7], 1016, true);
        assert_eq!(got.elements.len(), 9);
        assert!(
            got.elements.capacity() < 64,
            "capacity {} must track survivors, not the 1024-element upper bound",
            got.elements.capacity()
        );
    }

    #[test]
    fn float_keys_filter_in_total_order() {
        let dev = device();
        let data: Vec<f32> = vec![-2.0, -1.0, 0.5, 3.0, f32::NEG_INFINITY, 7.5, -0.0, 8.0];
        let got = concatenate(&dev, &data, 4, &[0, 1], &[], 0.5, true);
        let mut sorted = got.elements.clone();
        sorted.sort_unstable_by(f32::total_cmp);
        assert_eq!(sorted, vec![0.5, 3.0, 7.5, 8.0]);
    }
}
