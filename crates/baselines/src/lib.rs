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
//!
//! Every algorithm returns a [`TopKResult`] whose `values` are exactly the
//! `k` largest elements (ties included), so results are interchangeable and
//! can all be validated against [`reference_topk`]. The radix, bucket and
//! bitonic algorithms that Dr. Top-k assists are named by one enum,
//! `drtopk_core::InnerAlgorithm`, whose `run` also calls them stand-alone.
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
pub mod radix;
pub mod result;
pub mod sort_and_choose;

pub use bitonic::bitonic_topk;
pub use bucket::{bucket_select_kth, bucket_topk, BucketSelectOutcome};
pub use key::{sort_keys_asc, sort_keys_desc, Desc, KeyBits, TopKKey};
pub use radix::{gather_topk, radix_select_kth, radix_topk, RadixVariant, SelectOutcome};
pub use result::{reference_kth, reference_topk, reference_topk_min, TopKResult};
pub use sort_and_choose::sort_and_choose_topk;

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
        let runs = [
            (
                "radix",
                radix_topk(&device, &data, k, RadixVariant::OutOfPlace),
            ),
            (
                "radix in-place",
                radix_topk(&device, &data, k, RadixVariant::InPlaceZeroing),
            ),
            ("bucket", bucket_topk(&device, &data, k)),
            ("bitonic", bitonic_topk(&device, &data, k)),
            ("sort-and-choose", sort_and_choose_topk(&device, &data, k)),
        ];
        for (name, result) in runs {
            assert_eq!(result.values, expected, "{name}");
        }
    }
}
