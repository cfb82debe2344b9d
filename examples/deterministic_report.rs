//! Deterministic stage report: run the out-of-core distributed query twice
//! and print the **modeled** stage schedule's deterministic summary — stage
//! kinds, labels, resources, dependencies and bit-exact modeled timestamps,
//! with every measured wall-clock field deliberately excluded.
//!
//! Usage: `cargo run --release --example deterministic_report [cap_exp] [multiple]`
//! (defaults: per-device capacity `2^14` elements, corpus `4×` the aggregate).
//!
//! Each device runs its chunk chain on its own host thread, so the two
//! runs interleave differently on the host; the modeled schedule is a
//! replay of the recorded stages in a fixed order and must not notice. The
//! example self-verifies that both runs give the CPU reference's values
//! and byte-identical summaries, and CI runs it twice and diffs the output
//! — any nondeterminism in the modeled replay shows up as a diff.

use drtopk::core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule};
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
    let run = || {
        distributed_dr_topk(
            &cluster,
            &data,
            k,
            &cfg,
            ReloadSchedule::DoubleBuffered,
            None,
        )
    };
    let first = run();
    let second = run();

    // Self-verification: values match the CPU reference, and the modeled
    // report does not depend on how the host threads interleaved, down to
    // the last bit.
    assert_eq!(first.values, reference_topk(&data, k));
    assert_eq!(second.values, first.values);
    let summary = first.stages.deterministic_summary();
    assert_eq!(
        summary,
        second.stages.deterministic_summary(),
        "modeled schedule must not depend on the host interleaving"
    );

    println!(
        "corpus: {n} u32 values — {multiple}× the aggregate memory of {DEVICES} devices \
         holding 2^{cap_exp} elements each; k = {k}"
    );
    println!("{summary}");
    // Wall-clock goes to stderr on purpose: stdout is the deterministic
    // artifact CI diffs across runs, and measured time varies run to run.
    eprintln!(
        "(measured, stderr only: wall-clock {:.3} ms, then {:.3} ms)",
        first.stages.measured_makespan_ms, second.stages.measured_makespan_ms,
    );
}
