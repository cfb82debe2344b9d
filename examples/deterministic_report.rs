//! Deterministic stage-report replay: run the out-of-core distributed
//! graph once serially in insertion order and once through the threaded
//! executor, and print the **modeled** stage schedule's deterministic
//! summary — stage kinds, labels, resources, dependencies and bit-exact
//! modeled timestamps, with every measured wall-clock field deliberately
//! excluded.
//!
//! Usage: `cargo run --release --example deterministic_report [cap_exp] [multiple]`
//! (defaults: per-device capacity `2^14` elements, corpus `4×` the aggregate).
//!
//! The serial run is the schedule explorer's reference: a one-schedule
//! exhaustive budget replays exactly the insertion order on the calling
//! thread, and the explorer then returns a threaded run of the same graph.
//! The example self-verifies that both give byte-identical summaries, and
//! CI runs it twice and diffs the output — any nondeterminism in the
//! threaded executor's modeled replay shows up as a diff.

use drtopk::core::{distributed_dr_topk_explore, DrTopKConfig, ExploreBudget, ReloadSchedule};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use topk_baselines::reference_topk;

const DEVICES: usize = 4;

fn main() {
    let mut args = std::env::args().skip(1);
    let cap_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(14);
    let multiple: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let capacity = 1usize << cap_exp;
    let n = capacity * multiple * DEVICES;
    let k = 64;

    let cluster = GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(capacity);
    }
    let data = topk_datagen::uniform(n, 7);
    let cfg = DrTopKConfig::default();

    let (threaded, serial) = distributed_dr_topk_explore(
        &cluster,
        &data,
        k,
        &cfg,
        ReloadSchedule::DoubleBuffered,
        ExploreBudget::Exhaustive { max_schedules: 1 },
    )
    .expect("one schedule cannot diverge from itself");

    // Self-verification: values match the CPU reference, and the modeled
    // report is dispatch-order-independent down to the last bit.
    assert_eq!(threaded.values, reference_topk(&data, k));
    let summary = threaded.stages.deterministic_summary();
    assert_eq!(
        summary,
        serial.reference.deterministic_summary(),
        "modeled schedule must not depend on the dispatch order"
    );

    println!(
        "corpus: {n} u32 values — {multiple}× the aggregate memory of {DEVICES} devices \
         holding 2^{cap_exp} elements each; k = {k}"
    );
    println!("{summary}");
    // Wall-clock goes to stderr on purpose: stdout is the deterministic
    // artifact CI diffs across runs, and measured time varies run to run.
    eprintln!(
        "(measured, stderr only: threaded wall-clock {:.3} ms, serial {:.3} ms)",
        threaded.stages.measured_makespan_ms, serial.reference.measured_makespan_ms,
    );
}
