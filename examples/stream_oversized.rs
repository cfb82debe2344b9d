//! Out-of-core top-k over a host-resident corpus larger than the cluster's
//! aggregate device memory, end to end: the distributed runner chunks
//! the corpus, streams each chunk over the host→device lane, and — under the
//! default double-buffered schedule — transfers chunk *i + 1* while chunk *i*
//! computes. Prints the stage schedule of both reload schedules and the
//! makespan each models.
//!
//! Usage: `cargo run --release --example stream_oversized [cap_exp] [multiple]`
//! (defaults: per-device capacity `2^16` elements, corpus `8×` the aggregate).
//!
//! The example self-verifies: both schedules must return exactly the CPU
//! reference top-k, and double buffering must model a strictly lower
//! makespan, so CI can run it as a smoke test.

use drtopk::core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule, Resource, StageKind};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

const DEVICES: usize = 2;

fn main() {
    let mut args = std::env::args().skip(1);
    let cap_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let mut multiple: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    if multiple < 2 {
        // At 1× every chunk is resident, nothing streams, and the two
        // schedules are identical — there is no out-of-core story to tell.
        println!("multiple {multiple} fits in device memory; raising to 2 so chunks stream");
        multiple = 2;
    }
    let capacity = 1usize << cap_exp;
    let n = capacity * multiple * DEVICES;
    let k = 256;

    println!(
        "corpus: {n} u32 values, host-resident — {multiple}× the aggregate memory of \
         {DEVICES} devices holding 2^{cap_exp} elements each; k = {k}"
    );
    let data = topk_datagen::uniform(n, 0x5eed);
    let expected = topk_baselines::reference_topk(&data, k);
    let cluster = GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(capacity);
    }

    let mut makespans = Vec::new();
    for schedule in [ReloadSchedule::Serial, ReloadSchedule::DoubleBuffered] {
        let got = distributed_dr_topk(&cluster, &data, k, &DrTopKConfig::default(), schedule, None);
        assert_eq!(got.values, expected, "{schedule} schedule must be exact");
        println!(
            "\n{schedule}: makespan {:.4} ms (reload {:.4} ms, gather {:.4} ms, overlap \
             efficiency {:.1}%)",
            got.total_ms,
            got.reload_overhead_ms,
            got.communication_ms,
            got.stages.overlap_efficiency() * 100.0
        );
        // A compact schedule view: transfers on their lanes vs compute.
        for stage in &got.stages.stages {
            let lane = match stage.resource {
                Resource::Compute(d) => format!("compute[{d}]"),
                Resource::Transfer(_) => "transfer ".to_string(),
            };
            if matches!(
                stage.kind,
                StageKind::ChunkLoad | StageKind::Gather | StageKind::FinalTopK
            ) || stage.kind == StageKind::LocalMerge
            {
                println!(
                    "  {lane}  [{:>8.4} → {:>8.4}] {}",
                    stage.start_ms, stage.end_ms, stage.label
                );
            }
        }
        makespans.push(got.total_ms);
    }

    let win = 1.0 - makespans[1] / makespans[0];
    println!(
        "\ndouble buffering hides {:.1}% of the serial makespan — same bits, less time",
        win * 100.0
    );
    assert!(
        makespans[1] < makespans[0],
        "double buffering must model a strictly lower makespan"
    );
    println!("OK: both schedules match the CPU reference exactly");
}
