//! Stage-graph verifier integration tests — both halves of the contract:
//!
//! * **Negative**: every diagnostic code in `docs/DIAGNOSTICS.md` is
//!   reachable, and seeded planner mutations (a swapped lane tag, a
//!   single-buffer reload, a dropped dependency edge) are each caught by
//!   their specific stable code.
//! * **Positive**: every graph the real planners build — exact,
//!   approximate, distributed out-of-core under both reload schedules,
//!   engine-fused batches — verifies clean, across key types, shard
//!   counts and modes. In debug builds every runner asserts this on every
//!   run, so the whole suite doubles as a verification corpus; these
//!   tests additionally pin it through the public `verify()` API.

use drtopk::core::{
    distributed_dr_topk, verify_specs, DiagnosticCode, DrTopKConfig, ReloadSchedule, Resource,
    StageKind, StageSpec, TransferLane, VerifyOptions,
};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use proptest::prelude::*;

fn spec(kind: StageKind, resource: Resource, deps: &[usize]) -> StageSpec {
    StageSpec {
        kind,
        label: kind.name().to_string(),
        resource,
        deps: deps.to_vec(),
    }
}

fn codes(specs: &[StageSpec], opts: &VerifyOptions) -> Vec<DiagnosticCode> {
    verify_specs(specs, opts).iter().map(|d| d.code).collect()
}

/// The healthy single-device out-of-core shape the mutations below are
/// seeded into: resident chunk 0, two streamed chunks whose loads wait on
/// the compute that frees their staging buffer, a merge, and the final
/// top-k.
fn healthy_out_of_core() -> Vec<StageSpec> {
    let lane = Resource::Transfer(TransferLane::HostToDevice(0));
    let c = Resource::Compute(0);
    vec![
        spec(StageKind::LocalTopK, c, &[]),         // 0: chunk 0 compute
        spec(StageKind::ChunkLoad, lane, &[]),      // 1: chunk 1 load
        spec(StageKind::LocalTopK, c, &[1]),        // 2: chunk 1 compute
        spec(StageKind::ChunkLoad, lane, &[0]),     // 3: chunk 2 load
        spec(StageKind::LocalTopK, c, &[3]),        // 4: chunk 2 compute
        spec(StageKind::LocalMerge, c, &[0, 2, 4]), // 5
        spec(StageKind::FinalTopK, c, &[5]),        // 6
    ]
}

/// The healthy exact-pipeline shape (delegate → first → concat → second).
fn healthy_pipeline() -> Vec<StageSpec> {
    let c = Resource::Compute(0);
    vec![
        spec(StageKind::DelegateConstruction, c, &[]),
        spec(StageKind::FirstTopK, c, &[0]),
        spec(StageKind::Concatenate, c, &[1]),
        spec(StageKind::SecondTopK, c, &[2]),
    ]
}

/// The healthy two-pass radix-path shape (histogram → refine per pass,
/// then candidate assembly and the final select).
fn healthy_radix_path() -> Vec<StageSpec> {
    let c = Resource::Compute(0);
    vec![
        spec(StageKind::RadixHistogram, c, &[]),
        spec(StageKind::RadixRefine, c, &[0]),
        spec(StageKind::RadixHistogram, c, &[1]),
        spec(StageKind::RadixRefine, c, &[2]),
        spec(StageKind::CandidateGather, c, &[3]),
        spec(StageKind::RadixSelect, c, &[4]),
    ]
}

#[test]
fn healthy_shapes_are_clean() {
    assert!(verify_specs(&healthy_pipeline(), &VerifyOptions::default()).is_empty());
    assert!(verify_specs(&healthy_radix_path(), &VerifyOptions::default()).is_empty());
    let double_buffered = VerifyOptions {
        staging_buffers: Some(ReloadSchedule::DoubleBuffered.staging_buffers()),
    };
    assert!(verify_specs(&healthy_out_of_core(), &double_buffered).is_empty());
}

/// Every diagnostic code is reachable from a minimal seeded mutation. The
/// `match` is exhaustive over [`DiagnosticCode`], so adding a variant
/// without a reachability witness here fails to compile — the same
/// mechanism `tests/docs_drift.rs` uses to keep `docs/DIAGNOSTICS.md`
/// honest.
#[test]
fn every_diagnostic_code_is_reachable() {
    use StageKind::*;
    let c0 = Resource::Compute(0);
    let c1 = Resource::Compute(1);
    let c2 = Resource::Compute(2);
    let h2d1 = Resource::Transfer(TransferLane::HostToDevice(1));
    let ic1 = Resource::Transfer(TransferLane::Interconnect(1));
    for code in DiagnosticCode::ALL {
        let (specs, opts) = match code {
            DiagnosticCode::DanglingDep => {
                (vec![spec(SecondTopK, c0, &[3])], VerifyOptions::default())
            }
            DiagnosticCode::DepCycle => (
                vec![
                    spec(LocalMerge, c0, &[1]),
                    spec(LocalMerge, c0, &[0]),
                    spec(FinalTopK, c0, &[0, 1]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::OrphanStage => (
                // A delegate pass whose output feeds nothing.
                vec![
                    spec(DelegateConstruction, c0, &[]),
                    spec(SecondTopK, c0, &[]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::ResourceKindMismatch => (
                // A transfer kind parked on a compute queue.
                vec![
                    spec(ChunkLoad, c0, &[]),
                    spec(LocalTopK, c0, &[0]),
                    spec(FinalTopK, c0, &[1]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::WrongLane => (
                // A chunk load on an interconnect lane.
                vec![
                    spec(ChunkLoad, ic1, &[]),
                    spec(LocalTopK, c1, &[0]),
                    spec(FinalTopK, c1, &[1]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::CrossDeviceChunk => (
                // Device 1's lane feeding device 0's compute queue.
                vec![
                    spec(ChunkLoad, h2d1, &[]),
                    spec(LocalTopK, c0, &[0]),
                    spec(FinalTopK, c0, &[1]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::GatherWithoutSource => (
                vec![spec(Gather, ic1, &[]), spec(FinalTopK, c0, &[0])],
                VerifyOptions::default(),
            ),
            DiagnosticCode::GatherSourceMismatch => (
                // Device 1's interconnect lane moving device 2's winners.
                vec![
                    spec(LocalTopK, c2, &[]),
                    spec(Gather, ic1, &[0]),
                    spec(FinalTopK, c0, &[1]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::QueueDeadlock => (
                // Acyclic deps, but stage 0 waits on a stage queued behind
                // it on its own FIFO resource.
                vec![
                    spec(LocalMerge, c0, &[1]),
                    spec(LocalTopK, c0, &[]),
                    spec(FinalTopK, c0, &[0]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::DoubleBufferHazard => (
                healthy_out_of_core(),
                VerifyOptions {
                    staging_buffers: Some(1),
                },
            ),
            DiagnosticCode::PhaseOrder => (
                // Second top-k fed directly by the first top-k: the
                // concatenation phase was skipped outright.
                vec![
                    spec(DelegateConstruction, c0, &[]),
                    spec(FirstTopK, c0, &[0]),
                    spec(SecondTopK, c0, &[1]),
                ],
                VerifyOptions::default(),
            ),
            DiagnosticCode::RadixChainBroken => (
                // A narrowing chain that never reaches a final select.
                vec![
                    spec(RadixHistogram, c0, &[]),
                    spec(RadixRefine, c0, &[0]),
                    spec(CandidateGather, c0, &[1]),
                ],
                VerifyOptions::default(),
            ),
        };
        let found = codes(&specs, &opts);
        assert!(
            found.contains(&code),
            "{code} must be reachable; verifier reported {found:?}"
        );
    }
}

// The three acceptance-criteria mutations: each seeded into a healthy
// planner shape and caught by its own distinct stable code.

#[test]
fn mutation_swapped_lane_tag_is_caught_as_v005() {
    let mut specs = healthy_out_of_core();
    specs[1].resource = Resource::Transfer(TransferLane::Interconnect(0));
    let found = codes(&specs, &VerifyOptions::default());
    assert!(
        found.contains(&DiagnosticCode::WrongLane),
        "swapped lane tag must be V005, got {found:?}"
    );
}

#[test]
fn mutation_single_buffer_reload_is_caught_as_v010() {
    // The double-buffered dependency shape declared to own one staging
    // buffer: chunk 2's load overwrites chunk 1 mid-compute.
    let found = codes(
        &healthy_out_of_core(),
        &VerifyOptions {
            staging_buffers: Some(ReloadSchedule::Serial.staging_buffers()),
        },
    );
    assert!(
        found.contains(&DiagnosticCode::DoubleBufferHazard),
        "1-buffer reload of a double-buffered shape must be V010, got {found:?}"
    );
}

#[test]
fn mutation_missing_dependency_edge_is_caught_as_v011() {
    let mut specs = healthy_pipeline();
    specs[2].deps.clear(); // concatenate no longer waits on the first top-k
    let found = codes(&specs, &VerifyOptions::default());
    assert!(
        found.contains(&DiagnosticCode::PhaseOrder),
        "dropped concat input edge must be V011, got {found:?}"
    );
}

#[test]
fn mutation_dropped_radix_select_is_caught_as_v012() {
    // The planner-shaped radix chain with its final select deleted: every
    // surviving radix stage now narrows toward nothing.
    let mut specs = healthy_radix_path();
    specs.pop();
    let found = codes(&specs, &VerifyOptions::default());
    assert!(
        found.contains(&DiagnosticCode::RadixChainBroken),
        "dropped radix select must be V012, got {found:?}"
    );
}

/// The graphs the real radix planner builds — forced via the path pin, in
/// both directions and with an early-pinning input — verify clean through
/// the public API, and carry the fixed histogram/refine…gather/select
/// shape V012 watches over.
#[test]
fn planner_built_radix_graphs_verify_clean() {
    use drtopk::core::PathHint;
    let dev = Device::new(DeviceSpec::v100s());
    let cfg = DrTopKConfig {
        path: PathHint::Radix,
        ..DrTopKConfig::default()
    };
    let data = topk_datagen::uniform(1 << 13, 0xD00D);
    for &k in &[1usize, 100, 1 << 12] {
        let got = dr_topk(&dev, &data, k, &cfg);
        assert!(got.stages.verify().is_empty(), "k={k}");
        let min = dr_topk(
            &dev,
            &data,
            k,
            &DrTopKConfig {
                direction: Direction::Smallest,
                ..cfg.clone()
            },
        );
        assert!(min.stages.verify().is_empty(), "min k={k}");
    }
    // Early pinning: the no-op tail stages still form an unbroken chain.
    let mut spiked = vec![7u32; 1 << 12];
    spiked[99] = u32::MAX;
    let got = dr_topk(&dev, &spiked, 1, &cfg);
    assert!(got.stages.verify().is_empty());
}

/// In debug builds a recorded schedule that fails verification panics
/// before it is returned (release builds skip the gate, so this test only
/// exists under `debug_assertions`).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "stage report failed verification")]
fn debug_execution_refuses_graphs_that_fail_verification() {
    use drtopk::core::{Serial, StageOutcome};
    let mut member = Serial::new(0);
    member.stage(StageKind::SecondTopK, "second_topk", || {
        ((), StageOutcome::default())
    });
    let member = member.finish();
    let mut serial = Serial::new(0);
    serial.stage(StageKind::DelegateConstruction, "delegate", || {
        ((), StageOutcome::default())
    });
    // An orphan delegate pass: the appended selection waits on nothing,
    // so the pass's output feeds nothing (V003).
    serial.append(&[], || ((), member));
    let _ = serial.finish();
}

/// Engine unit reports — shared pass, shared first top-k and every member's
/// pipeline stages, recorded by one `Serial` — are verified by its debug
/// assertion in `Serial::finish`; this exercises exact fusion, approximate
/// fusion and a plan-cache hit end to end.
#[test]
fn engine_fused_and_spliced_graphs_verify_clean_in_debug() {
    use drtopk::engine::{Direction, Query, QueryBatch, TopKEngine};
    let eng = TopKEngine::new(GpuCluster::homogeneous(2, DeviceSpec::v100s()));
    let data = topk_datagen::uniform(1 << 14, 0xA11CE);
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(1, &data);
    for k in [32usize, 128, 512] {
        batch.push(Query {
            corpus: c,
            k,
            direction: Direction::Largest,
            inner: drtopk::core::InnerAlgorithm::FlagRadix,
            mode: drtopk::core::Mode::Exact,
            path: drtopk::core::PathHint::Auto,
        });
    }
    batch.push_topk_approx(c, 64, 0.9);
    let out = eng.run_batch(&batch).expect("batch must execute");
    assert_eq!(out.results.len(), 4);
    // Second submission re-executes through the plan cache path.
    let again = eng.run_batch(&batch).expect("cached batch must execute");
    assert_eq!(again.results.len(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The positive half of the verifier contract: every graph the real
    /// planners build verifies clean — exact (both directions),
    /// approximate, and distributed out-of-core with the staging-buffer
    /// hazard analysis armed for the schedule actually used — across
    /// unsigned, signed and float key types and 1–3 devices.
    #[test]
    fn planner_built_graphs_verify_clean(
        raw in proptest::collection::vec(any::<u32>(), 64..3000),
        k_frac in 0.0f64..1.0,
        devices in 1usize..=3,
        double_buffered in any::<bool>(),
        target in 0.7f64..1.0,
    ) {
        let k = ((raw.len() as f64 * k_frac) as usize).clamp(1, raw.len());
        let dev = Device::new(DeviceSpec::v100s());
        let cfg = DrTopKConfig::default();

        let exact = dr_topk(&dev, &raw, k, &cfg);
        prop_assert!(exact.stages.verify().is_empty());
        let smallest = DrTopKConfig {
            direction: Direction::Smallest,
            ..cfg.clone()
        };
        let min = dr_topk(&dev, &raw, k, &smallest);
        prop_assert!(min.stages.verify().is_empty());
        let approx = dr_topk(&dev, &raw, k, &DrTopKConfig::approx(target));
        prop_assert!(approx.stages.verify().is_empty());

        let schedule = if double_buffered {
            ReloadSchedule::DoubleBuffered
        } else {
            ReloadSchedule::Serial
        };
        let opts = VerifyOptions {
            staging_buffers: Some(schedule.staging_buffers()),
        };
        let cluster = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
        for d in cluster.devices() {
            // Small enough to force multiple chunks per device.
            d.set_capacity_elems((raw.len() / 3).max(1));
        }
        let dist = distributed_dr_topk(&cluster, &raw, k, &cfg, schedule, None);
        prop_assert!(dist.stages.verify_with(&opts).is_empty());

        // Signed and float key paths reuse the same planners; spot-check
        // that the key type does not change the graph's verdict.
        let as_i64: Vec<i64> = raw.iter().map(|&x| x as i64 - (1 << 31)).collect();
        prop_assert!(dr_topk(&dev, &as_i64, k, &cfg).stages.verify().is_empty());
        let as_f32: Vec<f32> = raw.iter().map(|&x| f32::from_bits(x)).collect();
        let dist_f = distributed_dr_topk(&cluster, &as_f32, k, &cfg, schedule, None);
        prop_assert!(dist_f.stages.verify_with(&opts).is_empty());
    }
}
