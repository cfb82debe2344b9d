//! Common result type and reference (ground-truth) helpers shared by every
//! top-k algorithm in the workspace, generic over any [`TopKKey`].

use gpu_sim::KernelStats;
use std::cmp::Reverse;

use crate::key::TopKKey;

/// Result of a top-k computation.
///
/// `values` always contains exactly `min(k, |V|)` elements, sorted in
/// descending key order (the total order induced by [`TopKKey::to_bits`];
/// for floats this is the `total_cmp` order). When the input contains
/// duplicates of the k-th value, ties are resolved arbitrarily but the
/// returned *multiset* of values is exact, so results can be compared
/// against [`reference_topk`] directly.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult<K: TopKKey = u32> {
    /// The k largest values, descending.
    pub values: Vec<K>,
    /// The k-th largest value (the selection threshold).
    pub kth_value: K,
    /// Instrumentation counters accumulated by all kernels this computation
    /// launched.
    pub stats: KernelStats,
    /// Modeled GPU time in milliseconds (sum over launched kernels).
    pub time_ms: f64,
}

impl<K: TopKKey> TopKResult<K> {
    /// Build a result from an unsorted list of selected values.
    pub fn from_values(mut values: Vec<K>, stats: KernelStats, time_ms: f64) -> Self {
        values.sort_unstable_by_key(|v| Reverse(v.to_bits()));
        let kth_value = values.last().copied().unwrap_or_default();
        TopKResult {
            values,
            kth_value,
            stats,
            time_ms,
        }
    }

    /// Number of selected values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no values were selected (k = 0 or empty input).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// CPU reference: the `min(k, |V|)` largest values of `data`, descending.
/// Used as ground truth by every test in the workspace.
pub fn reference_topk<K: TopKKey>(data: &[K], k: usize) -> Vec<K> {
    let k = k.min(data.len());
    if k == 0 {
        return Vec::new();
    }
    let mut copy = data.to_vec();
    // select_nth_unstable puts the (len-k)-th smallest in place with all
    // larger elements to its right: O(n) instead of a full sort.
    let split = copy.len() - k;
    copy.select_nth_unstable_by_key(split, |v| v.to_bits());
    let mut top: Vec<K> = copy[split..].to_vec();
    top.sort_unstable_by_key(|v| Reverse(v.to_bits()));
    top
}

/// CPU reference: the `min(k, |V|)` *smallest* values of `data`, ascending.
/// Ground truth for smallest-direction requests.
pub fn reference_topk_min<K: TopKKey>(data: &[K], k: usize) -> Vec<K> {
    let k = k.min(data.len());
    if k == 0 {
        return Vec::new();
    }
    let mut copy = data.to_vec();
    copy.select_nth_unstable_by_key(k - 1, |v| v.to_bits());
    let mut bottom: Vec<K> = copy[..k].to_vec();
    bottom.sort_unstable_by_key(|v| v.to_bits());
    bottom
}

/// CPU reference for the k-th largest value (k ≥ 1).
pub fn reference_kth<K: TopKKey>(data: &[K], k: usize) -> K {
    assert!(k >= 1 && k <= data.len(), "k out of range");
    let mut copy = data.to_vec();
    let split = copy.len() - k;
    let (_, kth, _) = copy.select_nth_unstable_by_key(split, |v| v.to_bits());
    *kth
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Given a threshold (the k-th largest value), collect exactly `k` values:
    /// everything strictly greater than the threshold plus enough copies of the
    /// threshold itself to reach `k`. Panics if the threshold is not consistent
    /// with `k` (fewer than `k` elements ≥ threshold).
    fn collect_topk_by_threshold<K: TopKKey>(data: &[K], k: usize, threshold: K) -> Vec<K> {
        let tb = threshold.to_bits();
        let mut out: Vec<K> = Vec::with_capacity(k);
        let mut ties = 0usize;
        for &v in data {
            let vb = v.to_bits();
            if vb > tb {
                out.push(v);
            } else if vb == tb {
                ties += 1;
            }
        }
        assert!(
            out.len() <= k && out.len() + ties >= k,
            "inconsistent threshold: {} above, {} ties, k={}",
            out.len(),
            ties,
            k
        );
        let need = k - out.len();
        out.extend(std::iter::repeat_n(threshold, need));
        out
    }

    #[test]
    fn reference_topk_simple() {
        let data = vec![5, 1, 9, 3, 9, 2];
        assert_eq!(reference_topk(&data, 3), vec![9, 9, 5]);
        assert_eq!(reference_topk(&data, 1), vec![9]);
        assert_eq!(reference_topk(&data, 0), Vec::<u32>::new());
        assert_eq!(reference_topk(&data, 100), vec![9, 9, 5, 3, 2, 1]);
        assert_eq!(reference_topk::<u32>(&[], 3), Vec::<u32>::new());
    }

    #[test]
    fn reference_kth_matches_sorted() {
        let data = vec![10u32, 20, 30, 40, 50];
        assert_eq!(reference_kth(&data, 1), 50);
        assert_eq!(reference_kth(&data, 3), 30);
        assert_eq!(reference_kth(&data, 5), 10);
    }

    #[test]
    fn reference_helpers_are_generic_over_keys() {
        let signed = vec![-5i64, 3, -1, 7, 0];
        assert_eq!(reference_topk(&signed, 2), vec![7, 3]);
        assert_eq!(reference_kth(&signed, 4), -1);
        assert_eq!(reference_topk_min(&signed, 2), vec![-5, -1]);
        let floats = vec![1.5f32, -2.0, 0.0, f32::INFINITY];
        assert_eq!(reference_topk(&floats, 2), vec![f32::INFINITY, 1.5]);
        assert_eq!(reference_topk_min(&floats, 2), vec![-2.0, 0.0]);
        assert_eq!(reference_kth(&floats, 1), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn reference_kth_rejects_zero() {
        reference_kth(&[1u32, 2, 3], 0);
    }

    #[test]
    fn threshold_collection_handles_ties() {
        let data = vec![7u32, 7, 7, 5, 9, 7];
        // top-3 is {9, 7, 7}: threshold 7 with 4 ties present
        let got = collect_topk_by_threshold(&data, 3, 7);
        assert_eq!(got.len(), 3);
        let mut sorted = got.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sorted, vec![9, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "inconsistent threshold")]
    fn threshold_collection_rejects_bad_threshold() {
        collect_topk_by_threshold(&[1u32, 2, 3], 2, 3);
    }

    #[test]
    fn result_from_values_sorts_and_exposes_kth() {
        let r = TopKResult::from_values(vec![3u32, 9, 5], KernelStats::default(), 1.0);
        assert_eq!(r.values, vec![9, 5, 3]);
        assert_eq!(r.kth_value, 3);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        let empty = TopKResult::from_values(Vec::<u32>::new(), KernelStats::default(), 0.0);
        assert!(empty.is_empty());
        assert_eq!(empty.kth_value, 0);
    }
}
