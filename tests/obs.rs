//! Observability integration suite: histogram quantiles against exact
//! nearest-rank quantiles (property-based), trace spans against executed
//! stage reports bit for bit, deterministic trace byte-identity across
//! runs, and the engine's metrics snapshot end to end.

use std::sync::Arc;

use drtopk::core::{distributed_dr_topk, DrTopKConfig, ReloadSchedule, StageReport};
use drtopk::engine::{QueryBatch, TopKEngine};
use drtopk::obs::{validate_chrome_trace, Histogram, Json, MetricName, TraceRecorder};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use proptest::prelude::*;

/// Exact nearest-rank quantile over an ascending-sorted sample:
/// the ⌈q·n⌉-th smallest value.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The log-bucketed histogram (γ = 2^(1/8)) places its estimate at the
/// geometric midpoint of the bucket holding the nearest-rank sample, so
/// the relative error is bounded by √γ − 1 ≈ 4.4%.
fn close(estimate: f64, exact: f64) -> bool {
    (estimate - exact).abs() <= 0.05 * exact.abs() + 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles track exact nearest-rank quantiles within the
    /// bucket resolution, for arbitrary positive samples.
    #[test]
    fn histogram_quantiles_match_exact_nearest_rank(
        samples in proptest::collection::vec(1e-3f64..1e4, 1..400),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &qs {
            let est = hist.quantile(q).expect("non-empty histogram");
            let exact = exact_quantile(&sorted, q);
            prop_assert!(
                close(est, exact),
                "q={q}: histogram {est} vs exact {exact} over {} samples",
                samples.len()
            );
        }
        let s = hist.summary();
        prop_assert!(close(s.p50_ms, exact_quantile(&sorted, 0.50)));
        prop_assert!(close(s.p95_ms, exact_quantile(&sorted, 0.95)));
        prop_assert!(close(s.p99_ms, exact_quantile(&sorted, 0.99)));
    }

    /// Duplicate-heavy samples (few distinct values, many repeats) are the
    /// histogram's best case: every quantile lands exactly on a recorded
    /// value thanks to the [min, max] clamp and per-bucket min/max.
    #[test]
    fn duplicate_heavy_samples_stay_within_resolution(
        value in 0.1f64..100.0,
        dupes in 1usize..200,
        q in 0.0f64..1.0,
    ) {
        let hist = Histogram::new();
        for _ in 0..dupes {
            hist.record(value);
        }
        // all samples equal: the clamp pins every quantile to the value
        let est = hist.quantile(q).unwrap();
        prop_assert!((est - value).abs() < 1e-12, "q={q}: {est} != {value}");
    }
}

#[test]
fn empty_and_single_sample_quantiles() {
    let hist = Histogram::new();
    assert_eq!(hist.quantile(0.5), None, "empty histogram has no quantiles");
    let s = hist.summary();
    assert_eq!(s.count, 0);
    assert_eq!(s.p50_ms, 0.0);

    hist.record(3.75);
    // one sample: the [min, max] clamp makes every quantile exact
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(hist.quantile(q), Some(3.75), "q={q}");
    }
}

const DEVICES: usize = 4;
const K: usize = 64;

fn cluster(capacity: usize) -> GpuCluster {
    let c = GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s());
    for d in c.devices() {
        d.set_capacity_elems(capacity);
    }
    c
}

/// A traced 4-device double-buffered out-of-core run, twice: on each run
/// the recorded spans must mirror the returned [`StageReport`] bit for bit
/// (modeled intervals, kinds, dependency lists), the report must pass the
/// stage-graph dependency verifier, and the two deterministic Chrome
/// traces must be byte-identical whatever the threads' interleaving.
#[test]
fn trace_spans_match_stage_report_bit_for_bit() {
    let capacity = 1usize << 13;
    let data = topk_datagen::uniform(capacity * 4 * DEVICES, 0x7ace);
    let cfg = DrTopKConfig::default();
    let expected = topk_baselines::reference_topk(&data, K);

    let mut traces: Vec<String> = Vec::new();
    let mut reports: Vec<StageReport> = Vec::new();
    for run in 0..2 {
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
            "run {run} report failed dependency verification"
        );

        let spans = rec.spans();
        assert_eq!(spans.len(), d.stages.stages.len());
        for (i, (span, stage)) in spans.iter().zip(&d.stages.stages).enumerate() {
            assert_eq!(span.seq, i);
            assert_eq!(
                span.start_ms.to_bits(),
                stage.start_ms.to_bits(),
                "span {i}"
            );
            assert_eq!(span.end_ms.to_bits(), stage.end_ms.to_bits(), "span {i}");
            assert_eq!(span.kind, stage.kind.name(), "span {i}");
            assert_eq!(span.label, stage.label, "span {i}");
            assert_eq!(span.deps, stage.deps, "span {i}");
            assert_eq!(span.track, stage.resource.label(), "span {i}");
            // deterministic mode zeroes the measured clock at ingest
            assert_eq!(span.measured_start_ms, 0.0);
            assert_eq!(span.measured_end_ms, 0.0);
        }
        let json = rec.chrome_trace_json();
        let check = validate_chrome_trace(&json).expect("valid Chrome JSON");
        assert_eq!(check.spans, spans.len());
        assert_eq!(check.span_pids, 1, "deterministic trace is modeled-only");
        traces.push(json);
        reports.push(d.stages);
    }
    assert_eq!(
        traces[0], traces[1],
        "deterministic Chrome traces must be byte-identical across runs"
    );
    assert_eq!(
        reports[0].deterministic_summary(),
        reports[1].deterministic_summary()
    );
}

/// A full (non-deterministic) recorder keeps the same modeled spans, adds
/// a measured mirror process and the distributed runner's instant events.
#[test]
fn full_recorder_adds_measured_tracks_and_events() {
    let capacity = 1usize << 12;
    let data = topk_datagen::uniform(capacity * 2 * DEVICES, 99);
    let rec = TraceRecorder::new();
    let d = distributed_dr_topk(
        &cluster(capacity),
        &data,
        K,
        &DrTopKConfig::default(),
        ReloadSchedule::DoubleBuffered,
        Some(&rec),
    );
    assert_eq!(d.values, topk_baselines::reference_topk(&data, K));
    assert!(
        !rec.events().is_empty(),
        "live run must emit dispatch and verifier events"
    );
    let check = validate_chrome_trace(&rec.chrome_trace_json()).unwrap();
    assert_eq!(check.span_pids, 2, "modeled + measured track groups");
    assert_eq!(check.spans, 2 * d.stages.stages.len());
}

/// End-to-end engine metrics through the facade: percentile latencies,
/// sustained QPS, per-slot worker occupancy, and a JSON snapshot that
/// round-trips through the shared schema parser.
#[test]
fn engine_metrics_snapshot_round_trips() {
    let engine = TopKEngine::new(GpuCluster::homogeneous(2, DeviceSpec::v100s()));
    let data = topk_datagen::uniform(1 << 14, 7);
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(5, &data);
    for k in [4usize, 32, 256] {
        batch.push_topk(c, k);
    }
    let rec = Arc::new(TraceRecorder::new());
    engine.attach_recorder(rec.clone());
    let out = engine.run_batch(&batch).unwrap();

    let snap = &out.report.metrics;
    assert_eq!(snap.counter(MetricName::QueriesServed), 3);
    assert_eq!(snap.counter(MetricName::BatchesServed), 1);
    assert_eq!(snap.query_latency_ms.count, 3);
    assert!(snap.query_latency_ms.p50_ms > 0.0);
    assert!(snap.query_latency_ms.p95_ms >= snap.query_latency_ms.p50_ms);
    assert!(snap.sustained_qps > 0.0);
    assert_eq!(snap.workers.len(), 2);
    let total_busy: f64 = snap.workers.iter().map(|w| w.busy_ms).sum();
    assert!(total_busy > 0.0, "some worker must have been busy");
    for w in &snap.workers {
        assert!((0.0..=1.0).contains(&w.occupancy), "slot {}", w.slot);
    }

    // the trace agrees with the report about the modeled batch timeline
    let end = rec.spans().iter().map(|s| s.end_ms).fold(0.0f64, f64::max);
    assert!((end - out.report.total_ms).abs() < 1e-9);

    // JSON round trip under the versioned schema
    let text = snap.to_json().to_pretty_string();
    let parsed = Json::parse(&text).unwrap();
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(drtopk::obs::SCHEMA_VERSION)
    );
    assert_eq!(
        parsed.get("kind").and_then(|v| v.as_str()),
        Some("metrics_snapshot")
    );
    assert_eq!(
        parsed
            .get("counters")
            .and_then(|c| c.get("queries_served"))
            .and_then(Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        parsed
            .get("sustained_qps")
            .and_then(Json::as_f64)
            .map(|v| v.to_bits()),
        Some(snap.sustained_qps.to_bits())
    );
}
