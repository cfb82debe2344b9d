//! Stage-graph execution tests: the refactored execution spine must be
//! **bit-identical** to the CPU reference on every path (in-core pipeline,
//! chunked/out-of-core distributed under both reload schedules, approximate
//! mode) for all six key types and both directions — including NaN floats —
//! and the double-buffered schedule must actually hide reload time behind
//! compute (the pinned out-of-core makespan test). Repeated threaded runs
//! must also agree bit for bit, whatever the host thread interleaving.

mod common;

use common::{bits, cluster, device};
use drtopk::core::{distributed_dr_topk, ReloadSchedule, Resource, StageKind, TransferLane};
use drtopk::prelude::*;
use proptest::prelude::*;
use topk_baselines::{reference_topk, reference_topk_min};

/// Every stage-graph path must reproduce the pre-refactor reference answer
/// bit-for-bit: the in-core pipeline, the chunked distributed runner under
/// both reload schedules, and the approximate mode at target 1.0 (which is
/// contractually the exact pipeline).
fn assert_stage_execution_matches_reference<K: TopKKey>(data: &[K], k: usize, largest: bool) {
    let dev = device();
    let (direction, expected) = if largest {
        (Direction::Largest, bits(&reference_topk(data, k)))
    } else {
        (Direction::Smallest, bits(&reference_topk_min(data, k)))
    };
    let cfg = DrTopKConfig {
        direction,
        ..DrTopKConfig::default()
    };

    // In-core single-device pipeline.
    let in_core = dr_topk(&dev, data, k, &cfg);
    assert_eq!(bits(&in_core.values), expected, "in-core");
    // The result *is* its stage schedule: time and breakdown re-derive.
    assert!((in_core.time_ms - in_core.stages.makespan_ms).abs() < 1e-12);
    assert_eq!(in_core.breakdown, in_core.stages.phase_breakdown());
    assert_eq!(in_core.stats, in_core.stages.stats());
    // single-device graphs never move data between memories
    assert_eq!(in_core.breakdown.transfer_ms, 0.0);

    // Chunked / out-of-core distributed execution: a capacity that forces
    // several chunks per device, under both reload schedules.
    let capacity = (data.len() / 3).max(1);
    let c = cluster(2, capacity);
    for schedule in [ReloadSchedule::Serial, ReloadSchedule::DoubleBuffered] {
        let got = distributed_dr_topk(&c, data, k, &cfg, schedule, None);
        assert_eq!(bits(&got.values), expected, "distributed {schedule}");
        assert_eq!(got.schedule, schedule);
        assert!((got.total_ms - got.stages.makespan_ms).abs() < 1e-12);
        // transfer time is reported as transfer, never folded into compute
        assert!((got.breakdown.transfer_ms - got.stages.transfer_ms()).abs() < 1e-12);
        assert!(
            (got.reload_overhead_ms + got.communication_ms - got.breakdown.transfer_ms).abs()
                < 1e-9,
            "reloads + gather must equal the transfer phase"
        );
    }

    // Approximate mode at target 1.0 is contractually the exact pipeline.
    if largest {
        let exact_again = dr_topk(&dev, data, k, &DrTopKConfig::approx(1.0));
        assert_eq!(bits(&exact_again.values), expected, "approx target 1.0");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stage-graph execution is bit-identical to the reference results
    /// across all six key types and both directions, on every execution
    /// path. Raw bit reinterpretation for the float types injects NaN, ∞
    /// and subnormal keys.
    #[test]
    fn stage_execution_is_bit_identical_for_all_key_types(
        raw in proptest::collection::vec(any::<u32>(), 64..2000),
        k_frac in 0.0f64..1.0,
        largest in any::<bool>(),
    ) {
        let k = ((raw.len() as f64 * k_frac) as usize).clamp(1, raw.len());
        assert_stage_execution_matches_reference::<u32>(&raw, k, largest);
        let as_u64: Vec<u64> = raw.iter().map(|&x| (x as u64) << 13 | 0x5).collect();
        assert_stage_execution_matches_reference::<u64>(&as_u64, k, largest);
        let as_i32: Vec<i32> = raw.iter().map(|&x| x as i32).collect();
        assert_stage_execution_matches_reference::<i32>(&as_i32, k, largest);
        let as_i64: Vec<i64> = raw.iter().map(|&x| x as i64 - (1 << 31)).collect();
        assert_stage_execution_matches_reference::<i64>(&as_i64, k, largest);
        // raw bit reinterpretation: exercises NaN/∞/subnormal float keys
        let as_f32: Vec<f32> = raw.iter().map(|&x| f32::from_bits(x)).collect();
        assert_stage_execution_matches_reference::<f32>(&as_f32, k, largest);
        let as_f64: Vec<f64> = raw
            .iter()
            .map(|&x| f64::from_bits(((x as u64) << 32) | x as u64))
            .collect();
        assert_stage_execution_matches_reference::<f64>(&as_f64, k, largest);
    }

    /// The approximate stage path returns bit-identical results whether the
    /// candidate pass runs inline or the plan is re-executed — the graph is
    /// deterministic.
    #[test]
    fn approx_stage_execution_is_deterministic(
        raw in proptest::collection::vec(any::<u32>(), 512..3000),
        k in 1usize..32,
    ) {
        let dev = device();
        let cfg = DrTopKConfig::approx(0.9);
        let a = dr_topk(&dev, &raw, k, &cfg);
        let b = dr_topk(&dev, &raw, k, &cfg);
        prop_assert_eq!(bits(&a.values), bits(&b.values));
        prop_assert_eq!(a.stats, b.stats);
        prop_assert!((a.time_ms - b.time_ms).abs() < 1e-12);
    }
}

/// Pinned acceptance test: on a corpus ≥ 4× the single-device capacity,
/// double-buffered stage execution must model a makespan **at least 20%
/// lower** than the serial-reload schedule, while the values stay
/// bit-identical to `reference_topk`.
#[test]
fn double_buffering_hides_at_least_twenty_percent_at_4x_capacity() {
    let capacity = 1 << 15;
    let k = 128;
    for devices in [1usize, 2] {
        let n = capacity * 4 * devices; // 4× the aggregate capacity
        let data = topk_datagen::uniform(n, 0xC0FFEE);
        let c = cluster(devices, capacity);
        let serial = distributed_dr_topk(
            &c,
            &data,
            k,
            &DrTopKConfig::default(),
            ReloadSchedule::Serial,
            None,
        );
        let db = distributed_dr_topk(
            &c,
            &data,
            k,
            &DrTopKConfig::default(),
            ReloadSchedule::DoubleBuffered,
            None,
        );
        // bit-identical results on both schedules, equal to the reference
        assert_eq!(serial.values, reference_topk(&data, k), "{devices} devices");
        assert_eq!(db.values, serial.values);
        assert_eq!(db.kth_value, serial.kth_value);
        assert_eq!(db.stats, serial.stats, "schedules only change timing");
        // On one device the serial schedule hides nothing at all (with
        // several devices its per-device chains still run concurrently, so
        // the schedule-level efficiency reflects that parallelism too);
        // double buffering must hide ≥ 20% of the makespan either way.
        if devices == 1 {
            assert_eq!(serial.stages.overlap_efficiency(), 0.0);
        }
        let win = 1.0 - db.total_ms / serial.total_ms;
        assert!(
            win >= 0.20,
            "{devices} devices: double-buffered {:.4} ms vs serial {:.4} ms — only {:.1}% hidden",
            db.total_ms,
            serial.total_ms,
            win * 100.0
        );
        assert!(db.stages.overlap_efficiency() > 0.0);
        // both schedules paid for the same transfers; only the overlap moved
        assert!((db.reload_overhead_ms - serial.reload_overhead_ms).abs() < 1e-12);
        assert!(db.reload_overhead_ms > 0.0);
    }
}

#[test]
fn out_of_core_corpus_beyond_aggregate_memory_is_exact() {
    // True out-of-core: the host-resident corpus is 8× the *aggregate*
    // device memory of the cluster; every device streams a long chain of
    // chunks. Results stay exact and the ingestion overlaps.
    let capacity = 1 << 13;
    let devices = 2;
    let n = capacity * 8 * devices;
    let data = topk_datagen::customized(n, 17);
    let c = cluster(devices, capacity);
    let got = distributed_dr_topk(
        &c,
        &data,
        200,
        &DrTopKConfig::default(),
        ReloadSchedule::default(),
        None,
    );
    assert_eq!(got.values, reference_topk(&data, 200));
    assert_eq!(got.schedule, ReloadSchedule::DoubleBuffered);
    assert!(got.stages.overlap_efficiency() > 0.0);
    // 7 streamed chunks per device
    let loads = got
        .stages
        .stages
        .iter()
        .filter(|s| s.kind == StageKind::ChunkLoad)
        .count();
    assert_eq!(loads, 14);
    assert!(got.reload_overhead_ms > 0.0);
}

#[test]
fn distributed_stage_schedule_is_well_formed() {
    let capacity = 1 << 13;
    let data = topk_datagen::uniform(capacity * 6, 3);
    let c = cluster(2, capacity);
    let got = distributed_dr_topk(
        &c,
        &data,
        64,
        &DrTopKConfig::default(),
        ReloadSchedule::default(),
        None,
    );
    let stages = &got.stages.stages;
    // chunk loads live on per-device host→device lanes, computes on the
    // device queues, the gather on the interconnect, the final on device 0
    for s in stages {
        match s.kind {
            StageKind::ChunkLoad => {
                assert!(matches!(
                    s.resource,
                    Resource::Transfer(TransferLane::HostToDevice(_))
                ));
            }
            StageKind::Gather => {
                assert!(matches!(
                    s.resource,
                    Resource::Transfer(TransferLane::Interconnect(_))
                ));
            }
            StageKind::FinalTopK => assert_eq!(s.resource, Resource::Compute(0)),
            _ => assert!(matches!(s.resource, Resource::Compute(_))),
        }
        assert!(s.end_ms >= s.start_ms);
        assert!(s.end_ms <= got.stages.makespan_ms + 1e-12);
    }
    // each device's gather rides its own interconnect lane and starts only
    // after *that* device's last selection stage (not after every device's —
    // per-source gathers overlap with the other devices' compute)
    let gathers: Vec<_> = stages
        .iter()
        .filter(|s| s.kind == StageKind::Gather)
        .collect();
    assert!(!gathers.is_empty(), "multi-device run gathers");
    for gather in &gathers {
        let Resource::Transfer(TransferLane::Interconnect(src)) = gather.resource else {
            panic!("gather off the interconnect: {:?}", gather.resource);
        };
        for s in stages {
            if matches!(s.kind, StageKind::LocalTopK | StageKind::LocalMerge)
                && s.resource == Resource::Compute(src)
            {
                assert!(
                    s.end_ms <= gather.start_ms + 1e-12,
                    "{} after its device's gather",
                    s.label
                );
            }
        }
    }
    // the final selection waits for every gather
    let final_stage = stages
        .iter()
        .find(|s| s.kind == StageKind::FinalTopK)
        .expect("distributed run ends in a final selection");
    for gather in &gathers {
        assert!(gather.end_ms <= final_stage.start_ms + 1e-12);
    }
    // per-device compute/reload columns agree with the schedule
    for d in 0..2 {
        let compute: f64 = stages
            .iter()
            .filter(|s| {
                matches!(s.kind, StageKind::LocalTopK | StageKind::LocalMerge)
                    && s.resource == Resource::Compute(d)
            })
            .map(|s| s.end_ms - s.start_ms)
            .sum();
        assert!((compute - got.per_device_compute_ms[d]).abs() < 1e-12);
    }
}

#[test]
fn engine_reports_overlap_and_transfer_for_sharded_batches() {
    use drtopk::engine::{QueryBatch, TopKEngine};
    let c = cluster(2, 1 << 13);
    let engine = TopKEngine::new(c);
    let data = topk_datagen::uniform(1 << 16, 5); // 8× one device's capacity
    let mut batch = QueryBatch::new();
    let corpus = batch.add_corpus(9, &data);
    batch.push_topk(corpus, 50);
    let out = engine.run_batch(&batch).unwrap();
    assert_eq!(out.results[0].values, reference_topk(&data, 50));
    assert_eq!(out.report.sharded_queries, 1);
    // satellite fix: reload/gather time is reported as transfer, not
    // folded into per-device compute, and the overlap is surfaced
    assert!(out.report.phase_ms.transfer_ms > 0.0);
    assert!(out.results[0].breakdown.transfer_ms > 0.0);
    assert!(out.results[0].breakdown.second_topk_ms > 0.0);
    assert!(
        out.report.overlap_efficiency > 0.0,
        "double-buffered sharded ingestion must hide some transfer time"
    );
    assert!(out.report.overlap_efficiency < 1.0);
    // a purely in-core batch reports no transfer and no overlap
    let small = topk_datagen::uniform(1 << 12, 6);
    let engine = TopKEngine::new(cluster(2, 1 << 20));
    let mut batch = QueryBatch::new();
    let corpus = batch.add_corpus(1, &small);
    batch.push_topk(corpus, 10);
    let out = engine.run_batch(&batch).unwrap();
    assert_eq!(out.report.phase_ms.transfer_ms, 0.0);
    assert_eq!(out.report.overlap_efficiency, 0.0);
}

/// Determinism stress test: the same exact, approximate and distributed
/// graphs run repeatedly under the threaded executor must return
/// bit-identical values and byte-identical **modeled** stage reports on
/// every run — thread interleaving may only move the measured fields.
#[test]
fn repeated_threaded_runs_are_bit_identical() {
    let dev = device();
    let cfg = DrTopKConfig::default();
    let data = topk_datagen::customized(1 << 15, 77);
    let k = 96;
    let distributed = || {
        let c = cluster(4, 1 << 13);
        distributed_dr_topk(&c, &data, k, &cfg, ReloadSchedule::default(), None)
    };

    let exact0 = dr_topk(&dev, &data, k, &cfg);
    let approx0 = dr_topk(&dev, &data, k, &DrTopKConfig::approx(0.9));
    let dist0 = distributed();
    for run in 1..4 {
        let exact = dr_topk(&dev, &data, k, &cfg);
        assert_eq!(exact.values, exact0.values, "exact values, run {run}");
        assert_eq!(
            exact.stages.deterministic_summary(),
            exact0.stages.deterministic_summary(),
            "exact report, run {run}"
        );

        let approx = dr_topk(&dev, &data, k, &DrTopKConfig::approx(0.9));
        assert_eq!(approx.values, approx0.values, "approx values, run {run}");
        assert_eq!(
            approx.stages.deterministic_summary(),
            approx0.stages.deterministic_summary(),
            "approx report, run {run}"
        );

        let dist = distributed();
        assert_eq!(dist.values, dist0.values, "distributed values, run {run}");
        assert_eq!(dist.total_ms.to_bits(), dist0.total_ms.to_bits());
        assert_eq!(
            dist.stages.deterministic_summary(),
            dist0.stages.deterministic_summary(),
            "distributed report, run {run}"
        );
    }
}
