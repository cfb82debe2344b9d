//! Multi-GPU scaling study (the Table 2 experiment as an example): run
//! distributed Dr. Top-k over 1–16 simulated V100 GPUs, with the per-device
//! capacity pinned so that small clusters must stream sub-vectors from the
//! host (reload overhead). Unlike the `table2_multi_gpu` bench — which pins
//! the paper's serial reload timeline — this example runs the library
//! default (double-buffered ingestion), so the reload column shows what the
//! overlapped schedule still pays, not what it hides.
//!
//! Run with: `cargo run --release --example multi_gpu_scaling [n_exp] [k]`

use drtopk::core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(22);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(128);
    let n = 1usize << n_exp;
    let capacity = n / 8; // each device holds 1/8 of the input

    println!("|V| = 2^{n_exp}, k = {k}, per-device capacity = |V|/8");
    let data = topk_datagen::uniform(n, 99);
    let expected = topk_baselines::reference_topk(&data, k);

    println!(
        "\n{:>5} {:>16} {:>12} {:>12} {:>10}",
        "GPUs", "communication ms", "reload ms", "total ms", "speedup"
    );
    let mut single = None;
    for devices in [1usize, 2, 4, 8, 16] {
        let cluster = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
        for d in cluster.devices() {
            d.set_capacity_elems(capacity);
        }
        let r = distributed_dr_topk(
            &cluster,
            &data,
            k,
            &DrTopKConfig::default(),
            ReloadSchedule::default(),
            None,
        );
        assert_eq!(r.values, expected);
        let speedup = match single {
            None => {
                single = Some(r.total_ms);
                1.0
            }
            Some(t1) => t1 / r.total_ms,
        };
        println!(
            "{:>5} {:>16.3} {:>12.3} {:>12.3} {:>9.2}x",
            devices, r.communication_ms, r.reload_overhead_ms, r.total_ms, speedup
        );
    }
}
