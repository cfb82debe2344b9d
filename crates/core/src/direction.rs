//! Which end of the key order a query selects.
//!
//! The paper's algorithm selects the k *largest* keys. The k *smallest* are
//! the same algorithm run over an order-reversing key transform, so the
//! direction is a field of the request ([`DrTopKConfig::direction`]), not a
//! second set of entry points. Every runner reads it once at its boundary:
//! for [`Direction::Smallest`] it reinterprets its input, without copying,
//! as a slice of the order-reversing [`Desc`] adapter and unwraps the
//! result afterwards. Everything below that boundary selects the largest
//! keys of whatever it is given.
//!
//! This module is the one place that relies on the `#[repr(transparent)]`
//! layout of `Desc<K>`.
//!
//! [`DrTopKConfig::direction`]: crate::pipeline::DrTopKConfig::direction

use topk_baselines::{Desc, TopKKey, TopKResult};

use crate::delegate::{DelegateVector, Delegates};
use crate::distributed::DistributedResult;
use crate::first_topk::{FirstTopK, Marked};
use crate::pipeline::DrTopKResult;
use crate::rows::RowTopKResult;

/// Which end of the key order a query selects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Top-k **largest**, descending (the paper's query).
    #[default]
    Largest,
    /// Top-k **smallest**, ascending (k-NN distances and friends).
    ///
    /// Float caveat (see the NaN policy in [`topk_baselines::key`]):
    /// positive NaNs are the *largest* keys in the total order, so a
    /// smallest query ranks them last.
    Smallest,
}

/// Reinterpret a key slice through the order-reversing [`Desc`] adapter,
/// without copying: selecting the largest of the result selects the
/// smallest of `data`.
pub(crate) fn as_desc<K: TopKKey>(data: &[K]) -> &[Desc<K>] {
    // SAFETY: `Desc<K>` is `#[repr(transparent)]` over `K`, so the slice
    // layouts are identical and the reinterpretation is sound.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<Desc<K>>(), data.len()) }
}

/// Unwrap `Desc` keys back to native keys (the allocation is reused).
fn native<K: TopKKey>(values: Vec<Desc<K>>) -> Vec<K> {
    values.into_iter().map(|d| d.0).collect()
}

impl<'a, K: TopKKey> Delegates<'a, K> {
    /// The same delegates read through [`as_desc`]: a smallest-direction
    /// vector stores native keys best-first, which is descending in `Desc`
    /// order.
    pub(crate) fn as_desc(self) -> Delegates<'a, Desc<K>> {
        Delegates {
            values: as_desc(self.values),
            subrange_ids: self.subrange_ids,
            beta: self.beta,
            subrange_size: self.subrange_size,
            num_subranges: self.num_subranges,
        }
    }
}

impl<K: TopKKey> DelegateVector<Desc<K>> {
    /// A vector built in `Desc` space as a smallest-direction vector of
    /// native keys.
    pub(crate) fn into_native(self) -> DelegateVector<K> {
        DelegateVector {
            values: native(self.values),
            subrange_ids: self.subrange_ids,
            beta: self.beta,
            subrange_size: self.subrange_size,
            num_subranges: self.num_subranges,
            direction: Direction::Smallest,
            stats: self.stats,
            time_ms: self.time_ms,
        }
    }
}

impl<K: TopKKey> FirstTopK<K> {
    /// The same selection read through [`as_desc`], for a smallest-direction
    /// vector's view.
    pub(crate) fn to_desc(&self) -> FirstTopK<Desc<K>> {
        let desc = |entries: &[(K, u32)]| entries.iter().map(|&(v, id)| (Desc(v), id)).collect();
        FirstTopK {
            threshold: Desc(self.threshold),
            exact_threshold: self.exact_threshold,
            fully_taken_subranges: self.fully_taken_subranges.clone(),
            partial_delegate_values: self
                .partial_delegate_values
                .iter()
                .copied()
                .map(Desc)
                .collect(),
            taken_entries: self.taken_entries,
            stats: self.stats,
            time_ms: self.time_ms,
            k: self.k,
            marked: Marked {
                above: desc(&self.marked.above),
                ties: desc(&self.marked.ties),
            },
        }
    }
}

impl<K: TopKKey> FirstTopK<Desc<K>> {
    /// Unwrap a selection made in `Desc` space (native keys, best first).
    pub(crate) fn into_native(self) -> FirstTopK<K> {
        let native_entries =
            |entries: Vec<(Desc<K>, u32)>| entries.into_iter().map(|(d, id)| (d.0, id)).collect();
        FirstTopK {
            threshold: self.threshold.0,
            exact_threshold: self.exact_threshold,
            fully_taken_subranges: self.fully_taken_subranges,
            partial_delegate_values: native(self.partial_delegate_values),
            taken_entries: self.taken_entries,
            stats: self.stats,
            time_ms: self.time_ms,
            k: self.k,
            marked: Marked {
                above: native_entries(self.marked.above),
                ties: native_entries(self.marked.ties),
            },
        }
    }
}

impl<K: TopKKey> DrTopKResult<Desc<K>> {
    /// Unwrap a result computed in `Desc` space (ascending native keys).
    pub(crate) fn into_native(self) -> DrTopKResult<K> {
        DrTopKResult {
            values: native(self.values),
            kth_value: self.kth_value.0,
            alpha: self.alpha,
            breakdown: self.breakdown,
            workload: self.workload,
            stats: self.stats,
            time_ms: self.time_ms,
            stages: self.stages,
        }
    }
}

impl<K: TopKKey> RowTopKResult<Desc<K>> {
    /// Unwrap a result computed in `Desc` space (each row ascending).
    pub(crate) fn into_native(self) -> RowTopKResult<K> {
        RowTopKResult {
            rows: self
                .rows
                .into_iter()
                .map(|r| TopKResult {
                    values: native(r.values),
                    kth_value: r.kth_value.0,
                    stats: r.stats,
                    time_ms: r.time_ms,
                })
                .collect(),
            num_blocks: self.num_blocks,
            rows_per_block: self.rows_per_block,
            delegate_passes: self.delegate_passes,
            breakdown: self.breakdown,
            stats: self.stats,
            time_ms: self.time_ms,
            stages: self.stages,
            predicted_recall: self.predicted_recall,
        }
    }
}

impl<K: TopKKey> DistributedResult<Desc<K>> {
    /// Unwrap a result computed in `Desc` space (ascending native keys).
    pub(crate) fn into_native(self) -> DistributedResult<K> {
        DistributedResult {
            values: native(self.values),
            kth_value: self.kth_value.0,
            per_device_compute_ms: self.per_device_compute_ms,
            per_device_reload_ms: self.per_device_reload_ms,
            communication_ms: self.communication_ms,
            final_topk_ms: self.final_topk_ms,
            total_ms: self.total_ms,
            reload_overhead_ms: self.reload_overhead_ms,
            stats: self.stats,
            predicted_recall: self.predicted_recall,
            breakdown: self.breakdown,
            stages: self.stages,
            schedule: self.schedule,
        }
    }
}
