//! Mixture-of-Experts gating with the row-wise matrix top-k: a batch of
//! token rows each picks its top-`k` experts from one `rows × experts`
//! logit matrix in a single row-block plan — one kernel launch per phase
//! per row-block, one warp per token row, never a launch per row — first
//! through the core [`topk_rows`] entry point, then as a [`RowQuery`]
//! through the serving engine.
//!
//! Run with: `cargo run --release --example moe_gating [rows] [experts] [k]`
//! (defaults: 4096 tokens × 128 experts, top-2 routing).
//!
//! The example self-verifies every row against the CPU reference and exits
//! non-zero on any mismatch.

use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4096);
    let experts: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(128);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    // Softmax-ready gating logits: dense normal noise with 1–4 boosted
    // "hot" experts per token row, the shape a trained router produces.
    let logits = topk_datagen::moe_gating_logits(rows, experts, 1.0, 0x5eed);
    let matrix = RowMatrix::new(&logits, rows, experts);
    let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
    println!("{rows} tokens x {experts} experts, top-{k} routing, 2 devices");

    // Core path: the whole matrix as fused row blocks, one per device.
    let config = drtopk::core::DrTopKConfig::default();
    let routed = topk_rows(&cluster, matrix, &RowK::Uniform(k), &config);
    for r in 0..rows {
        assert_eq!(
            routed.rows[r].values,
            topk_baselines::reference_topk(matrix.row(r), k),
            "token {r}"
        );
    }
    assert!(
        routed.delegate_passes < rows,
        "fused plan must not scan per row"
    );
    println!(
        "\n[core] all {rows} rows verified; {} row-blocks of {} rows, \
         {} fused delegate passes (not {rows}), modeled {:.3} ms",
        routed.num_blocks, routed.rows_per_block, routed.delegate_passes, routed.time_ms
    );

    // Engine path: the same routing as one RowQuery in a served batch.
    let engine = TopKEngine::new(GpuCluster::homogeneous(2, DeviceSpec::v100s()));
    let mut batch = QueryBatch::new();
    let corpus = batch.add_corpus(1, &logits);
    batch.push_rows(corpus, rows, experts, RowK::Uniform(k));
    let out = engine.run_batch(&batch).expect("batch must execute");
    let served = &out.row_results[0];
    for r in 0..rows {
        assert_eq!(
            served.rows[r].values, routed.rows[r].values,
            "engine row {r} must match the core path"
        );
    }
    let report = &out.report;
    println!(
        "[engine] row query served: {} rows across {} blocks, \
         {:.0} selections/s, {} delegate passes",
        report.rows_served, served.num_blocks, report.throughput_qps, report.delegate_passes_run
    );
}
