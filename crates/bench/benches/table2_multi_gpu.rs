//! Table 2: scalability of distributed Dr. Top-k with varying |V| and device
//! counts (k = 128), including communication and reload overhead.
//!
//! The per-device memory capacity is pinned to the base |V| so the larger
//! input sizes reproduce the paper's reload regime at reduced scale. The
//! run is pinned to [`ReloadSchedule::Serial`] — the paper streams
//! sub-vectors serially, and Table 2's reload-overhead column assumes that
//! timeline; the overlapped schedule this reproduction adds is measured by
//! the `streamed_oversize` target instead.

use drtopk_bench_harness::*;
use drtopk_core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule};
use gpu_sim::{DeviceSpec, GpuCluster};
use topk_datagen::Distribution;

fn main() {
    let base = default_n() / 2;
    let k = 128usize;
    let mut rows = Vec::new();
    for v_mult in [1usize, 2, 4, 8] {
        let n = base * v_mult;
        let data = dataset(Distribution::Uniform, n);
        let mut single_total = None;
        for devices in [1usize, 2, 4, 8, 16] {
            let cluster = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
            for d in cluster.devices() {
                d.set_capacity_elems(base);
            }
            let r = distributed_dr_topk(
                &cluster,
                &data,
                k,
                &DrTopKConfig::default(),
                ReloadSchedule::Serial,
                None,
            );
            assert_eq!(r.values, topk_baselines::reference_topk(&data, k));
            let speedup = match single_total {
                None => {
                    single_total = Some(r.total_ms);
                    1.0
                }
                Some(t1) => t1 / r.total_ms,
            };
            rows.push(vec![
                n.to_string(),
                devices.to_string(),
                fmt(r.communication_ms),
                fmt(r.reload_overhead_ms),
                fmt(r.total_ms),
                fmt(speedup),
            ]);
        }
    }
    emit(
        "table2_multi_gpu",
        &[
            "n",
            "gpus",
            "communication_ms",
            "reload_ms",
            "total_ms",
            "speedup",
        ],
        &rows,
    );
}
