//! # topk-baselines — state-of-the-art top-k algorithms on the simulated GPU
//!
//! Dr. Top-k is not a standalone algorithm: it is a workload reducer that
//! feeds a smaller problem to an existing top-k algorithm. This crate
//! provides those algorithms, implemented warp-centrically on the
//! [`gpu_sim`] substrate with full memory-transaction accounting, exactly as
//! they appear in the paper's related-work and evaluation sections:
//!
//! | algorithm | paper reference | module |
//! |---|---|---|
//! | radix top-k (out-of-place & GGKS in-place) | Alabi et al. \[2\] | [`radix`] |
//! | bucket top-k | Alabi et al. \[2\] | [`bucket`] |
//! | bitonic top-k | Shanbhag et al. \[42\] | [`bitonic`] |
//! | sort-and-choose | THRUST \[6\] | [`sort_and_choose`] |
//! | priority queue (CPU reference) | textbook | [`priority_queue`] |
//!
//! Every algorithm returns a [`TopKResult`] whose `values` are exactly the
//! `k` largest elements (ties included), so results are interchangeable and
//! can all be validated against [`reference_topk`].
//!
//! ```
//! use gpu_sim::{Device, DeviceSpec};
//! use topk_baselines::{radix_topk, reference_topk, RadixVariant};
//!
//! let device = Device::new(DeviceSpec::v100s());
//! let data: Vec<u32> = (0..10_000u32).rev().collect();
//! let top = radix_topk(&device, &data, 5, RadixVariant::OutOfPlace);
//! assert_eq!(top.values, reference_topk(&data, 5));
//! assert_eq!(top.values, vec![9999, 9998, 9997, 9996, 9995]);
//! ```

pub mod bitonic;
pub mod bucket;
pub mod key;
pub mod priority_queue;
pub mod radix;
pub mod result;
pub mod sort_and_choose;

pub use bitonic::{bitonic_topk, BitonicConfig};
pub use bucket::{bucket_select_kth, bucket_topk, BucketConfig, BucketSelectOutcome};
pub use key::{sort_keys_asc, sort_keys_desc, Desc, KeyBits, TopKKey};
pub use priority_queue::{parallel_priority_queue_topk, priority_queue_topk};
pub use radix::{gather_topk, radix_select_kth, radix_topk, RadixVariant, SelectOutcome};
pub use result::{reference_kth, reference_topk, reference_topk_min, TopKResult};
pub use sort_and_choose::sort_and_choose_topk;

/// The inner top-k algorithms Dr. Top-k can assist (Figures 17–19 evaluate
/// all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineAlgorithm {
    /// GGKS radix top-k.
    Radix,
    /// GGKS bucket top-k.
    Bucket,
    /// Bitonic top-k.
    Bitonic,
    /// Sort-and-choose (THRUST).
    SortAndChoose,
}

impl BaselineAlgorithm {
    /// The three dedicated top-k baselines (excludes sort-and-choose).
    pub const TOPK: [BaselineAlgorithm; 3] = [
        BaselineAlgorithm::Radix,
        BaselineAlgorithm::Bucket,
        BaselineAlgorithm::Bitonic,
    ];

    /// Short display name used by the bench harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineAlgorithm::Radix => "radix",
            BaselineAlgorithm::Bucket => "bucket",
            BaselineAlgorithm::Bitonic => "bitonic",
            BaselineAlgorithm::SortAndChoose => "sort-and-choose",
        }
    }

    /// Run this baseline with its default configuration, on any key type.
    pub fn run<K: TopKKey>(&self, device: &gpu_sim::Device, data: &[K], k: usize) -> TopKResult<K> {
        match self {
            BaselineAlgorithm::Radix => radix_topk(device, data, k, RadixVariant::OutOfPlace),
            BaselineAlgorithm::Bucket => bucket_topk(device, data, k, &BucketConfig::default()),
            BaselineAlgorithm::Bitonic => bitonic_topk(device, data, k, &BitonicConfig::default()),
            BaselineAlgorithm::SortAndChoose => sort_and_choose_topk(device, data, k),
        }
    }
}

impl std::fmt::Display for BaselineAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceSpec};

    #[test]
    fn all_baselines_agree_with_each_other() {
        let device = Device::new(DeviceSpec::v100s());
        let data = topk_datagen::uniform(1 << 13, 77);
        let k = 99;
        let expected = reference_topk(&data, k);
        for algo in [
            BaselineAlgorithm::Radix,
            BaselineAlgorithm::Bucket,
            BaselineAlgorithm::Bitonic,
            BaselineAlgorithm::SortAndChoose,
        ] {
            assert_eq!(algo.run(&device, &data, k).values, expected, "{algo}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(BaselineAlgorithm::Radix.to_string(), "radix");
        assert_eq!(BaselineAlgorithm::Bucket.to_string(), "bucket");
        assert_eq!(BaselineAlgorithm::Bitonic.to_string(), "bitonic");
        assert_eq!(
            BaselineAlgorithm::SortAndChoose.to_string(),
            "sort-and-choose"
        );
        assert_eq!(BaselineAlgorithm::TOPK.len(), 3);
    }
}
