//! Edge-case contract tests: `k == 0`, `k == |V|`, `k > |V|` and empty
//! input, across `dr_topk`, the distributed pipeline and every baseline.
//!
//! The workspace-wide convention these tests pin down:
//!
//! * **top-k entry points** (`dr_topk`, `distributed_dr_topk`, every
//!   `*_topk` baseline, `reference_topk`) are total: `k` is clamped to
//!   `data.len()`, so `k == 0` and empty input return an empty result and
//!   `k > |V|` degrades to a full descending sort;
//! * **k-th-selection primitives** (`radix_select_kth`,
//!   `bucket_select_kth`, `flag_radix_select_kth`, `reference_kth`) have no
//!   meaningful answer outside `1..=|V|` and are *documented to panic*
//!   there — the `should_panic` tests below freeze that contract.

use drtopk::prelude::*;
use drtopk_core::{distributed_dr_topk, flag_radix_topk};
use gpu_sim::GpuCluster;
use topk_baselines::{
    parallel_priority_queue_topk, reference_kth, reference_topk, BitonicConfig, BucketConfig,
    RadixVariant,
};

fn device() -> Device {
    Device::new(DeviceSpec::v100s())
}

/// Every total top-k in the workspace, normalized to `(name, values)`.
fn all_topk_values(device: &Device, data: &[u32], k: usize) -> Vec<(&'static str, Vec<u32>)> {
    vec![
        (
            "dr_topk",
            dr_topk(device, data, k, &DrTopKConfig::default()).values,
        ),
        (
            "radix_topk",
            radix_topk(device, data, k, RadixVariant::OutOfPlace).values,
        ),
        (
            "bucket_topk",
            bucket_topk(device, data, k, &BucketConfig::default()).values,
        ),
        (
            "bitonic_topk",
            bitonic_topk(device, data, k, &BitonicConfig::default()).values,
        ),
        (
            "sort_and_choose_topk",
            sort_and_choose_topk(device, data, k).values,
        ),
        ("flag_radix_topk", flag_radix_topk(device, data, k).values),
        ("priority_queue_topk", priority_queue_topk(data, k).values),
        (
            "parallel_priority_queue_topk",
            parallel_priority_queue_topk(data, k, 2).values,
        ),
    ]
}

#[test]
fn k_zero_returns_empty_everywhere() {
    let device = device();
    let data: Vec<u32> = (0..512u32).rev().collect();
    for (name, values) in all_topk_values(&device, &data, 0) {
        assert!(values.is_empty(), "{name} must return nothing for k = 0");
    }
    assert!(reference_topk(&data, 0).is_empty());
}

#[test]
fn empty_input_returns_empty_everywhere() {
    let device = device();
    for k in [0usize, 1, 16] {
        for (name, values) in all_topk_values(&device, &[], k) {
            assert!(values.is_empty(), "{name} must return nothing for |V| = 0");
        }
    }
}

#[test]
fn k_equal_to_len_is_a_full_descending_sort() {
    let device = device();
    let data = topk_datagen::uniform(2048, 99);
    let mut expected = data.clone();
    expected.sort_unstable_by(|a, b| b.cmp(a));
    for (name, values) in all_topk_values(&device, &data, data.len()) {
        assert_eq!(values, expected, "{name} at k = |V|");
    }
}

#[test]
fn k_larger_than_len_clamps_to_len() {
    let device = device();
    let data: Vec<u32> = vec![5, 1, 4, 1, 5, 9, 2, 6];
    let mut expected = data.clone();
    expected.sort_unstable_by(|a, b| b.cmp(a));
    for (name, values) in all_topk_values(&device, &data, data.len() * 10) {
        assert_eq!(values, expected, "{name} must clamp k to |V|");
    }
}

#[test]
fn single_element_input_works_for_any_k() {
    let device = device();
    for k in [1usize, 2, 1000] {
        for (name, values) in all_topk_values(&device, &[7], k) {
            assert_eq!(values, vec![7], "{name} on a one-element vector, k={k}");
        }
    }
}

#[test]
fn dr_topk_k_equal_len_under_every_config_knob() {
    // At k = |V| nothing can be pruned: every subrange must survive the
    // first top-k and the concatenated vector is the whole input.
    let device = device();
    let data = topk_datagen::uniform(1 << 12, 1234);
    let mut expected = data.clone();
    expected.sort_unstable_by(|a, b| b.cmp(a));
    for filtering in [false, true] {
        for beta in [1usize, 2, 4] {
            let config = DrTopKConfig {
                alpha: Some(5),
                beta,
                filtering,
                ..DrTopKConfig::default()
            };
            let got = dr_topk(&device, &data, data.len(), &config);
            assert_eq!(got.values, expected, "beta={beta} filtering={filtering}");
        }
    }
}

#[test]
fn distributed_edges_match_single_device() {
    let cluster = GpuCluster::homogeneous(4, DeviceSpec::v100s());
    let data = topk_datagen::uniform(1 << 12, 77);
    let config = DrTopKConfig::default();
    assert!(distributed_dr_topk(&cluster, &data, 0, &config)
        .values
        .is_empty());
    assert!(distributed_dr_topk::<u32>(&cluster, &[], 8, &config)
        .values
        .is_empty());
    let full = distributed_dr_topk(&cluster, &data, data.len() + 5, &config);
    assert_eq!(full.values, reference_topk(&data, data.len()));
}

// ---- selection primitives: out-of-range k is a documented panic ----

#[test]
#[should_panic(expected = "k must be in 1..=|V|")]
fn radix_select_kth_panics_on_k_zero() {
    let device = device();
    topk_baselines::radix_select_kth(&device, &[1, 2, 3], 0, RadixVariant::OutOfPlace);
}

#[test]
#[should_panic(expected = "k must be in 1..=|V|")]
fn radix_select_kth_panics_on_k_beyond_len() {
    let device = device();
    topk_baselines::radix_select_kth(&device, &[1, 2, 3], 4, RadixVariant::OutOfPlace);
}

#[test]
#[should_panic(expected = "k must be in 1..=|V|")]
fn bucket_select_kth_panics_on_k_zero() {
    let device = device();
    topk_baselines::bucket_select_kth(&device, &[1, 2, 3], 0, &BucketConfig::default());
}

#[test]
#[should_panic(expected = "k out of range")]
fn reference_kth_panics_on_empty_input() {
    reference_kth::<u32>(&[], 1);
}

#[test]
#[should_panic(expected = "k must be in 1..=|V|")]
fn flag_radix_select_kth_panics_on_k_zero() {
    let device = device();
    drtopk_core::flag_radix_select_kth(&device, &[1, 2, 3], 0, false);
}
