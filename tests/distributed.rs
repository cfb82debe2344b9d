//! Integration tests of the distributed (multi-GPU) Dr. Top-k.

use drtopk::core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use topk_baselines::reference_topk;
use topk_datagen::Distribution;

fn cluster(devices: usize, capacity: usize) -> GpuCluster {
    let c = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
    for d in c.devices() {
        d.set_capacity_elems(capacity);
    }
    c
}

/// The default request under the default reload schedule, untraced.
fn run(c: &GpuCluster, data: &[u32], k: usize) -> drtopk::core::DistributedResult {
    distributed_dr_topk(
        c,
        data,
        k,
        &DrTopKConfig::default(),
        ReloadSchedule::default(),
        None,
    )
}

#[test]
fn distributed_equals_single_device_for_all_distributions() {
    let n = 1 << 15;
    let k = 200;
    for dist in Distribution::SYNTHETIC {
        let data = topk_datagen::generate(dist, n, 7);
        let expected = reference_topk(&data, k);
        for devices in [1usize, 3, 4, 7] {
            let c = cluster(devices, n / 2);
            let got = run(&c, &data, k);
            assert_eq!(got.values, expected, "{dist} on {devices} devices");
        }
    }
}

#[test]
fn reload_regime_is_correct_and_reported() {
    let n = 1 << 16;
    let data = topk_datagen::uniform(n, 3);
    let k = 99;
    let expected = reference_topk(&data, k);
    // capacity of 1/16 of |V| on 2 devices: each device owns 8 sub-vectors
    let c = cluster(2, n / 16);
    let got = run(&c, &data, k);
    assert_eq!(got.values, expected);
    assert!(got.reload_overhead_ms > 0.0);
    assert!(got.per_device_reload_ms.iter().all(|&t| t > 0.0));
    // fits-in-memory configuration has zero reload
    let c = cluster(16, n / 16);
    let got = run(&c, &data, k);
    assert_eq!(got.values, expected);
    assert_eq!(got.reload_overhead_ms, 0.0);
}

#[test]
fn scaling_improves_total_time() {
    let n = 1 << 18;
    let data = topk_datagen::uniform(n, 13);
    let k = 128;
    let capacity = n / 8;
    let t1 = run(&cluster(1, capacity), &data, k);
    let t8 = run(&cluster(8, capacity), &data, k);
    assert_eq!(t1.values, t8.values);
    assert!(
        t8.total_ms < t1.total_ms,
        "8 devices ({:.3} ms) should beat 1 device ({:.3} ms)",
        t8.total_ms,
        t1.total_ms
    );
    // communication stays bounded (asynchronous gather of k values)
    assert!(t8.communication_ms < 1.0);
}

#[test]
fn k_larger_than_subvector_is_handled() {
    let n = 1 << 12;
    let data = topk_datagen::normal(n, 5);
    let k = 3000; // larger than each sub-vector
    let c = cluster(4, n / 4);
    let got = run(&c, &data, k);
    assert_eq!(got.values, reference_topk(&data, k));
}
