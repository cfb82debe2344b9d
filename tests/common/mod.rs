//! Shared test-support helpers for the workspace integration suites.
//!
//! Every suite used to carry its own copy of `device()` / `cluster()` /
//! `bits()`; they live here once so the suites cannot drift apart (a
//! simulator change that needs a different default shows up in exactly one
//! place).
//!
//! Each binary test target compiles this module independently and uses a
//! different subset of it, hence the file-level `dead_code` allow.
#![allow(dead_code)]

use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

/// The standard single test device: a V100S.
pub fn device() -> Device {
    Device::new(DeviceSpec::v100s())
}

/// A homogeneous V100S cluster with every device clamped to `capacity`
/// elements, for out-of-core / chunked execution tests.
pub fn cluster(devices: usize, capacity: usize) -> GpuCluster {
    let c = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
    for d in c.devices() {
        d.set_capacity_elems(capacity);
    }
    c
}

/// A serving engine over a homogeneous V100S pool of `devices` workers.
pub fn engine(devices: usize) -> TopKEngine {
    TopKEngine::new(GpuCluster::homogeneous(devices, DeviceSpec::v100s()))
}

/// Order-preserving bit images of a key slice, so NaN (which is `!=`
/// itself as a float) still compares as a concrete multiset element.
pub fn bits<K: TopKKey>(values: &[K]) -> Vec<K::Bits> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Reference top-k in either direction, returned as bit images ready for
/// `assert_eq!` against a pipeline result.
pub fn reference_bits<K: TopKKey>(data: &[K], k: usize, largest: bool) -> Vec<K::Bits> {
    let reference = if largest {
        topk_baselines::reference_topk(data, k)
    } else {
        topk_baselines::reference_topk_min(data, k)
    };
    bits(&reference)
}

/// A deterministic uniformly-distributed `u32` corpus.
pub fn seeded_corpus(n: usize, seed: u64) -> Vec<u32> {
    topk_datagen::uniform(n, seed)
}
