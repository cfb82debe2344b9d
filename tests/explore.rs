//! Schedule-space model-checker integration tests (`drtopk::core::explore`):
//! the threaded executor's determinism claim is checked by *running* every
//! dispatch order its per-resource FIFO workers could take and requiring
//! bit-identical results — and a seeded concurrency bug (a missing
//! dependency edge between stages on different resources) is detected as a
//! cross-interleaving divergence that no single run could expose.

use std::sync::atomic::{AtomicU64, Ordering};

use drtopk::core::{
    distributed_dr_topk, distributed_dr_topk_explore, explore_schedules, DrTopKConfig,
    ExploreBudget, ReloadSchedule, Resource, StageGraph, StageKind, StageOutcome,
};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

fn bits<K: TopKKey>(values: &[K]) -> Vec<K::Bits> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Two independent two-stage chains on different compute queues joined by
/// a final top-k. The join always dispatches last, so the schedule space
/// is exactly the interleavings of the two FIFO chains: C(4,2) = 6.
/// Stages accumulate into a commutative checksum, so every interleaving
/// must fingerprint identically.
fn two_chains(sum: &AtomicU64) -> (StageGraph<'_, ()>, ()) {
    let mut g: StageGraph<()> = StageGraph::new();
    let c0 = Resource::Compute(0);
    let c1 = Resource::Compute(1);
    let add = |amount: u64| {
        move |_: &()| {
            sum.fetch_add(amount, Ordering::SeqCst);
            StageOutcome::default()
        }
    };
    let a0 = g.add(StageKind::LocalTopK, c0, &[], add(1));
    let a1 = g.add(StageKind::LocalMerge, c0, &[a0], add(2));
    let b0 = g.add(StageKind::LocalTopK, c1, &[], add(10));
    let b1 = g.add(StageKind::LocalMerge, c1, &[b0], add(20));
    g.add(StageKind::FinalTopK, c0, &[a1, b1], add(100));
    (g, ())
}

#[test]
fn exhaustive_enumeration_covers_exactly_the_reachable_orders() {
    let sum = AtomicU64::new(0);
    let outcome = explore_schedules(
        || two_chains(&sum),
        |_, report| {
            // The commutative checksum and the modeled schedule must agree
            // across interleavings; reset between schedules.
            (sum.swap(0, Ordering::SeqCst), report.stages.len())
        },
        ExploreBudget::default(),
    )
    .expect("a correct graph has no diverging interleaving");
    assert_eq!(
        outcome.schedules_run, 6,
        "two FIFO chains interleave C(4,2) ways"
    );
    assert!(outcome.exhaustive);
    assert_eq!(outcome.stages, 5);
}

#[test]
fn enumeration_caps_report_non_exhaustive_coverage() {
    let sum = AtomicU64::new(0);
    let outcome = explore_schedules(
        || two_chains(&sum),
        |_, _| sum.swap(0, Ordering::SeqCst),
        ExploreBudget::Exhaustive { max_schedules: 3 },
    )
    .expect("capped exploration still must not diverge");
    assert_eq!(outcome.schedules_run, 3);
    assert!(!outcome.exhaustive);
}

#[test]
fn sampled_exploration_is_bounded_and_reproducible() {
    let sum = AtomicU64::new(0);
    let budget = ExploreBudget::Sampled {
        schedules: 5,
        seed: 7,
    };
    let outcome = explore_schedules(
        || two_chains(&sum),
        |_, _| sum.swap(0, Ordering::SeqCst),
        budget,
    )
    .expect("sampled orders are valid dispatch orders");
    assert_eq!(outcome.schedules_run, 5);
    assert!(!outcome.exhaustive);
}

/// The seeded concurrency bug the static verifier *cannot* see: a reader
/// on device 1 races a writer on device 0 because the dependency edge
/// between them was dropped. The graph still verifies clean (the reader
/// legitimately might not need the writer), every individual run looks
/// fine — only comparing interleavings exposes it.
#[test]
fn missing_dependency_edge_is_detected_as_a_divergence() {
    let value = AtomicU64::new(0);
    let observed = AtomicU64::new(u64::MAX);
    let err = explore_schedules(
        || {
            value.store(0, Ordering::SeqCst);
            let mut g: StageGraph<()> = StageGraph::new();
            let writer = g.add(StageKind::LocalTopK, Resource::Compute(0), &[], |_| {
                value.store(42, Ordering::SeqCst);
                StageOutcome::default()
            });
            // BUG under test: the reader must depend on `writer` but does
            // not, so whichever worker dispatches first wins the race.
            let reader = g.add(StageKind::LocalTopK, Resource::Compute(1), &[], |_| {
                observed.store(value.load(Ordering::SeqCst), Ordering::SeqCst);
                StageOutcome::default()
            });
            g.add(
                StageKind::FinalTopK,
                Resource::Compute(0),
                &[writer, reader],
                |_| StageOutcome::default(),
            );
            (g, ())
        },
        |_, _| observed.load(Ordering::SeqCst),
        ExploreBudget::default(),
    )
    .expect_err("the racy read must diverge across interleavings");
    assert_eq!(err.what, "result fingerprint");
    assert!(err.schedule_index > 0, "schedule 0 is the reference");
    assert_eq!(
        err.order.len(),
        3,
        "the diverging order is a full dispatch order"
    );
}

/// Model-check a real distributed out-of-core run: 2 devices × 2 chunks
/// under the double-buffered schedule. The full schedule space (a few
/// hundred orders) is enumerated and every interleaving must produce
/// bit-identical winners and a byte-identical deterministic summary.
#[test]
fn distributed_out_of_core_run_model_checks_exhaustively() {
    let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(1 << 8);
    }
    let data = topk_datagen::uniform(1 << 10, 0xBEEF);
    let cfg = DrTopKConfig::default();
    let (result, outcome) = distributed_dr_topk_explore(
        &cluster,
        &data,
        16,
        &cfg,
        ReloadSchedule::DoubleBuffered,
        ExploreBudget::default(),
    )
    .expect("no interleaving of a correct plan may diverge");
    assert!(
        outcome.exhaustive,
        "the smoke graph's schedule space fits the default cap"
    );
    assert!(outcome.schedules_run > 1);
    assert_eq!(outcome.stages, outcome.reference.stages.len());

    let reference = distributed_dr_topk(
        &cluster,
        &data,
        16,
        &cfg,
        ReloadSchedule::DoubleBuffered,
        None,
    );
    assert_eq!(bits(&result.values), bits(&reference.values));
}

/// Two per-shard radix chains (histogram → refine → gather → select) on
/// different compute queues — the shape the capability-aware distributed
/// planner emits when it places radix-routed shards on two devices. Each
/// chain really narrows its shard to the top element by most-significant
/// digit. The graph verifies clean (both `RadixSelect`s are legal sinks),
/// its schedule space is exactly the C(8,4) = 70 interleavings of the two
/// FIFO chains, and every interleaving must produce bit-identical winners.
#[test]
fn multi_resource_radix_graph_model_checks_exhaustively() {
    use parking_lot::Mutex;

    let shard0 = topk_datagen::uniform(256, 0xFEED);
    let shard1 = topk_datagen::uniform(256, 0xFACE);
    struct Chain {
        candidates: Vec<u32>,
        digit: u32,
        winner: u64,
    }
    let state: Mutex<[Chain; 2]> = Mutex::new([&shard0, &shard1].map(|s| Chain {
        candidates: s.clone(),
        digit: 0,
        winner: 0,
    }));

    let outcome = explore_schedules(
        || {
            {
                let mut chains = state.lock();
                chains[0].candidates = shard0.clone();
                chains[1].candidates = shard1.clone();
            }
            let mut g: StageGraph<()> = StageGraph::new();
            for chain in 0..2usize {
                let q = Resource::Compute(chain);
                let hist = g.add(StageKind::RadixHistogram, q, &[], {
                    let state = &state;
                    move |_: &()| {
                        let mut chains = state.lock();
                        let c = &mut chains[chain];
                        c.digit = c.candidates.iter().map(|x| x >> 24).max().unwrap();
                        StageOutcome::default()
                    }
                });
                let refine = g.add(StageKind::RadixRefine, q, &[hist], {
                    let state = &state;
                    move |_: &()| {
                        let mut chains = state.lock();
                        let c = &mut chains[chain];
                        let digit = c.digit;
                        c.candidates.retain(|x| x >> 24 == digit);
                        StageOutcome::default()
                    }
                });
                let gather = g.add(StageKind::CandidateGather, q, &[refine], {
                    let state = &state;
                    move |_: &()| {
                        let mut chains = state.lock();
                        chains[chain].candidates.sort_unstable_by(|a, b| b.cmp(a));
                        StageOutcome::default()
                    }
                });
                g.add(StageKind::RadixSelect, q, &[gather], {
                    let state = &state;
                    move |_: &()| {
                        let mut chains = state.lock();
                        let c = &mut chains[chain];
                        c.winner = u64::from(c.candidates[0]);
                        StageOutcome::default()
                    }
                });
            }
            assert!(
                g.verify().is_empty(),
                "the two-shard radix graph must verify clean"
            );
            (g, ())
        },
        |_, report| {
            let chains = state.lock();
            (chains[0].winner, chains[1].winner, report.stages.len())
        },
        ExploreBudget::default(),
    )
    .expect("a correct two-shard radix plan has no diverging interleaving");
    assert_eq!(
        outcome.schedules_run, 70,
        "two 4-stage FIFO chains interleave C(8,4) ways"
    );
    assert!(outcome.exhaustive);
    assert_eq!(outcome.stages, 8);

    // The narrowed winners are the true per-shard maxima.
    let chains = state.lock();
    assert_eq!(chains[0].winner, u64::from(*shard0.iter().max().unwrap()));
    assert_eq!(chains[1].winner, u64::from(*shard1.iter().max().unwrap()));
}

/// Seeded random dispatch orders of an out-of-core distributed run must
/// agree with each other and with the threaded run the explorer returns,
/// bit for bit and modeled field for modeled field.
#[test]
fn sampled_schedules_match_threaded_on_a_distributed_run() {
    let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(1 << 9);
    }
    let data = topk_datagen::normal(1 << 11, 17);
    let (threaded, outcome) = distributed_dr_topk_explore(
        &cluster,
        &data,
        64,
        &DrTopKConfig::default(),
        ReloadSchedule::DoubleBuffered,
        ExploreBudget::Sampled {
            schedules: 16,
            seed: 0x5A3D,
        },
    )
    .expect("sampled interleavings must agree");
    assert_eq!(outcome.schedules_run, 16);
    assert!(!outcome.exhaustive);
    assert_eq!(
        bits(&threaded.values),
        bits(&topk_baselines::reference_topk(&data, 64))
    );
    assert_eq!(
        threaded.stages.deterministic_summary(),
        outcome.reference.deterministic_summary()
    );
    assert_eq!(
        threaded.total_ms.to_bits(),
        outcome.reference.makespan_ms.to_bits()
    );
}
