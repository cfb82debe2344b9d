//! Trace a 4-device, double-buffered out-of-core query and export it as a
//! Chrome trace (open `trace.json` at <https://ui.perfetto.dev>), then
//! print the serving engine's metrics snapshot for the same workload.
//!
//! Usage: `cargo run --release --example trace_run [cap_exp] [multiple] [out_path]`
//! (defaults: per-device capacity `2^14` elements, corpus `4×` the
//! aggregate, trace written to `trace.json`).
//!
//! The example self-verifies, so CI can run it as a smoke test:
//! * the traced run returns exactly the CPU reference top-k;
//! * every recorded span matches the returned [`StageReport`]'s modeled
//!   intervals **bit for bit**, and the report passes `verify()`;
//! * the *deterministic* trace is byte-identical between two threaded runs
//!   in one process (CI also diffs the written file across two processes);
//! * the exported JSON is well-formed Chrome Trace Event Format with one
//!   track per modeled resource.
//!
//! [`StageReport`]: drtopk::core::StageReport

use std::io::Write as _;
use std::sync::Arc;

use drtopk::core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule, StageKind};
use drtopk::engine::{QueryBatch, TopKEngine};
use drtopk::obs::{validate_chrome_trace, TraceRecorder};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

const DEVICES: usize = 4;
const K: usize = 64;

fn cluster(capacity: usize) -> GpuCluster {
    let c = GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s());
    for d in c.devices() {
        d.set_capacity_elems(capacity);
    }
    c
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cap_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(14);
    let multiple: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4).max(2);
    let out_path = args.next().unwrap_or_else(|| "trace.json".to_string());

    let capacity = 1usize << cap_exp;
    let n = capacity * multiple * DEVICES;
    let data = topk_datagen::uniform(n, 0x7ace);
    let cfg = DrTopKConfig::default();
    let expected = topk_baselines::reference_topk(&data, K);
    println!(
        "corpus: {n} keys over {DEVICES} devices of 2^{cap_exp} capacity \
         ({multiple}x aggregate, double-buffered), k = {K}"
    );

    // Deterministic traces of two threaded runs: modeled spans only, in
    // stable order — they must agree byte for byte.
    let mut traces = Vec::new();
    for run in 1..=2 {
        let rec = TraceRecorder::deterministic();
        let d = distributed_dr_topk(
            &cluster(capacity),
            &data,
            K,
            &cfg,
            ReloadSchedule::DoubleBuffered,
            Some(&rec),
        );
        assert_eq!(d.values, expected, "run {run} must be exact");
        assert!(
            d.stages.verify().is_empty(),
            "stage report failed dependency verification"
        );

        // Every span mirrors its report stage bit for bit.
        let spans = rec.spans();
        assert_eq!(spans.len(), d.stages.stages.len());
        for (span, stage) in spans.iter().zip(&d.stages.stages) {
            assert_eq!(span.start_ms.to_bits(), stage.start_ms.to_bits());
            assert_eq!(span.end_ms.to_bits(), stage.end_ms.to_bits());
            assert_eq!(span.kind, stage.kind.name());
            assert_eq!(span.deps, stage.deps);
        }

        let json = rec.chrome_trace_json();
        let check = validate_chrome_trace(&json).expect("trace must be valid Chrome JSON");
        let resources: std::collections::HashSet<String> =
            d.stages.stages.iter().map(|s| s.resource.label()).collect();
        assert_eq!(
            check.tracks,
            resources.len(),
            "one trace track per modeled resource"
        );
        println!(
            "run {run}: {} spans on {} tracks, modeled makespan {:.4} ms",
            check.spans, check.tracks, d.stages.makespan_ms
        );
        traces.push(json);
    }
    assert_eq!(
        traces[0], traces[1],
        "deterministic traces must be byte-identical across runs"
    );

    // A full (non-deterministic) recorder adds the measured track group and
    // executor instant events on top of the same modeled spans.
    let full = TraceRecorder::new();
    let d = distributed_dr_topk(
        &cluster(capacity),
        &data,
        K,
        &cfg,
        ReloadSchedule::DoubleBuffered,
        Some(&full),
    );
    assert_eq!(d.values, expected);
    validate_chrome_trace(&full.chrome_trace_json()).expect("full trace must validate");
    let dispatches = full.events().len();
    let transfers = full
        .spans()
        .iter()
        .filter(|s| {
            StageKind::ALL
                .iter()
                .any(|k| k.name() == s.kind && k.is_transfer())
        })
        .count();
    println!(
        "full trace: {} spans ({transfers} transfer), {dispatches} executor events, \
         measured makespan {:.4} ms",
        full.spans().len(),
        d.stages.measured_makespan_ms
    );

    std::fs::File::create(&out_path)
        .and_then(|mut f| f.write_all(traces[0].as_bytes()))
        .expect("cannot write trace file");
    println!("[deterministic trace written to {out_path}]");

    // The same corpus through the serving engine, traced, with the metrics
    // registry live: percentiles, sustained QPS and per-worker occupancy.
    let engine = TopKEngine::new(cluster(capacity * multiple));
    let engine_rec = Arc::new(TraceRecorder::new());
    engine.attach_recorder(engine_rec.clone());
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(1, &data);
    for k in [8usize, K, 512] {
        batch.push_topk(c, k);
    }
    let out = engine.run_batch(&batch).expect("batch must execute");
    assert_eq!(out.results[1].values, expected);
    validate_chrome_trace(&engine_rec.chrome_trace_json())
        .expect("engine trace must be valid Chrome JSON");
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter(MetricName::QueriesServed), 3);
    assert!(snap.query_latency_ms.count >= 3);
    println!("\nengine metrics snapshot:");
    println!("{}", snap.to_json().to_pretty_string());
}
