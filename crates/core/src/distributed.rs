//! Distributed (multi-GPU, out-of-core) Dr. Top-k — Section 5.4, Figure 16,
//! Table 2, extended with stream-overlapped chunked ingestion.
//!
//! The input vector is partitioned into equal sub-vectors no longer than a
//! device's memory capacity and dealt over the devices by capability
//! (`place_shards`): round-robin on a homogeneous cluster, exactly as the
//! paper prescribes, while a heterogeneous cluster hands faster devices
//! proportionally more sub-vectors so no slow device bounds the makespan.
//! Each device runs the single-GPU Dr. Top-k on every sub-vector assigned
//! to it — including the large-k radix path when the per-device
//! [`PathHint`](crate::tuning::PathHint) resolution picks it —
//! streaming additional sub-vectors from the host when it owns more than one
//! (the *reload overhead* column of Table 2) — which also makes this the
//! runner for **out-of-core** corpora: a host-resident vector larger than the
//! aggregate device memory simply produces more chunks per device. The
//! secondary devices then send their k winners to the primary device with
//! asynchronous messages, and the primary computes the final top-k over the
//! `#devices × k` candidates.
//!
//! The whole run is one [`StageGraph`] whose closures do the *real* work:
//! per-chunk [`ChunkLoad`](crate::stages::StageKind::ChunkLoad) transfer
//! stages on each device's host→device lane,
//! [`LocalTopK`](crate::stages::StageKind::LocalTopK) compute stages (each
//! runs the full local pipeline on its device) on its compute queue,
//! per-device merges, one per-source
//! [`Gather`](crate::stages::StageKind::Gather) per secondary device on its
//! own interconnect lane, and the primary's final selection. The threaded
//! executor dispatches one host worker per resource, so each device's chunk
//! pipelines run concurrently for real — host wall-clock tracks the modeled
//! makespan — while the deterministic modeled replay keeps every report
//! bit-identical run to run. The context is partitioned per device: each
//! device's candidate buffer and per-chunk breakdowns live in their own
//! mutex slot, written only by that device's stages.
//!
//! Under the default [`ReloadSchedule::DoubleBuffered`] schedule chunk
//! *i + 1* transfers while chunk *i* computes (two staging buffers: chunk
//! *i + 2*'s load additionally waits for chunk *i*'s compute to free its
//! buffer), hiding reload time behind compute; [`ReloadSchedule::Serial`]
//! reproduces the historical transfer-then-compute interleaving for
//! comparison. The two schedules are bit-identical in their results — only
//! the modeled timeline differs.
//!
//! Everything here is generic over [`TopKKey`], like the rest of the
//! pipeline; the `u32` monomorphization is the historical behaviour.

// Approved `std::sync` lock holder (see clippy.toml + ARCHITECTURE.md):
// the distributed context partitions per-device state into mutex slots, as
// the executor's `&C` sharing rule requires.
#![allow(clippy::disallowed_types)]

use std::sync::Mutex;

use drtopk_obs::TraceSink;
use gpu_sim::{GpuCluster, KernelStats, TransferDirection};
use topk_baselines::{reference_topk, TopKKey};

use crate::direction::{as_desc, Direction};
use crate::explore::{explore_schedules, Divergence, ExploreBudget, ExploreOutcome};
use crate::pipeline::{run_planned, DrTopKConfig, PhaseBreakdown, PlannedQuery};
use crate::radix_flags::flag_radix_topk;
use crate::stages::{
    Resource, StageGraph, StageId, StageKind, StageOutcome, StageReport, TransferLane,
};
use crate::verify::{debug_assert_verified, VerifyOptions};

/// How out-of-core sub-vector reloads are scheduled against compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReloadSchedule {
    /// The historical schedule: chunk *i + 1*'s host→device transfer starts
    /// only after chunk *i* has finished computing — no overlap; the
    /// device's modeled time is the plain sum of its compute and reload
    /// times.
    Serial,
    /// Double-buffered ingestion (default): chunk *i + 1* transfers while
    /// chunk *i* computes. Two staging buffers per device: chunk *i + 2*'s
    /// transfer additionally waits for chunk *i*'s compute to release its
    /// buffer. Transfers on the same device's lane serialize among
    /// themselves.
    #[default]
    DoubleBuffered,
}

impl ReloadSchedule {
    /// Display name used by benches and examples.
    pub fn name(self) -> &'static str {
        match self {
            ReloadSchedule::Serial => "serial",
            ReloadSchedule::DoubleBuffered => "double-buffered",
        }
    }

    /// How many host→device staging buffers the schedule cycles through on
    /// each device — the input of the verifier's `V010` double-buffer
    /// hazard analysis ([`crate::verify::VerifyOptions::staging_buffers`]).
    /// Serial reloading reuses one buffer; double-buffering alternates two.
    pub fn staging_buffers(self) -> usize {
        match self {
            ReloadSchedule::Serial => 1,
            ReloadSchedule::DoubleBuffered => 2,
        }
    }
}

impl std::fmt::Display for ReloadSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a distributed Dr. Top-k run, generic over the key type (the
/// `u32` default keeps the historical monomorphization spelled
/// `DistributedResult`).
#[derive(Debug, Clone)]
pub struct DistributedResult<K: TopKKey = u32> {
    /// The k largest values across the whole input, descending.
    pub values: Vec<K>,
    /// The k-th largest value.
    pub kth_value: K,
    /// Per-device local compute time (Dr. Top-k over its sub-vectors), ms.
    pub per_device_compute_ms: Vec<f64>,
    /// Per-device host→device reload time for sub-vectors beyond the first
    /// resident one, ms.
    pub per_device_reload_ms: Vec<f64>,
    /// Modeled communication time of the asynchronous gather: the summed
    /// duration of every per-source gather stage (the stages themselves
    /// overlap on their own interconnect lanes, so the makespan charge is
    /// smaller).
    ///
    /// A gather stage exists only for a secondary device that actually
    /// *owns data* — a multi-device cluster whose input fits one
    /// sub-vector places everything on the primary, emits no gather
    /// stages or lanes at all, and reports `0.0` here by design (the
    /// verifier's `V007` diagnostic rejects the phantom alternative, a
    /// gather with no source).
    pub communication_ms: f64,
    /// Final top-k on the primary device, ms.
    pub final_topk_ms: f64,
    /// End-to-end modeled time: slowest device (compute + reload) + gather +
    /// final top-k.
    pub total_ms: f64,
    /// Total reload overhead across all devices (Table 2's "Reload Overhead"
    /// column reports the per-run total), ms.
    pub reload_overhead_ms: f64,
    /// Aggregated kernel counters across all devices.
    pub stats: KernelStats,
    /// What the recall model predicts the run returns: 1.0 for an exact
    /// config; for a recall-targeted approximate config, the smallest
    /// per-sub-vector predicted recall (a true top-k element lives in
    /// exactly one sub-vector and survives with that sub-vector's
    /// probability, so the minimum bounds the whole run from below).
    pub predicted_recall: f64,
    /// Per-phase breakdown across every chunk's local pipeline, with the
    /// distributed machinery's own selection stages (per-device merges, the
    /// final top-k) under `second_topk_ms` and all data movement (chunk
    /// reloads, the gathers) under `transfer_ms` — transfer time is **not**
    /// folded into compute.
    pub breakdown: PhaseBreakdown,
    /// The executed stage schedule: every chunk load, chunk top-k, merge,
    /// gather and final-selection stage with its modeled interval. The
    /// overlap efficiency of the ingestion is
    /// [`StageReport::overlap_efficiency`].
    pub stages: StageReport,
    /// The reload schedule the run was executed under.
    pub schedule: ReloadSchedule,
}

/// Convert a device capacity expressed in `u32` elements (the unit of
/// [`gpu_sim::Device::capacity_elems`]) into a capacity in `K`-typed keys:
/// an 8-byte key occupies two `u32` words, so half as many fit.
pub fn capacity_in_keys<K>(capacity_u32_elems: usize) -> usize {
    let words = (std::mem::size_of::<K>() / std::mem::size_of::<u32>()).max(1);
    capacity_u32_elems / words
}

/// Partition `n` elements into sub-vectors of at most `capacity` elements,
/// returned as index ranges. Sub-vectors are equally sized (within one
/// element) as the paper prescribes.
pub(crate) fn partition_subvectors(n: usize, capacity: usize) -> Vec<std::ops::Range<usize>> {
    assert!(capacity > 0, "device capacity must be positive");
    if n == 0 {
        return Vec::new();
    }
    let pieces = n.div_ceil(capacity).max(1);
    (0..pieces)
        .map(|p| gpu_sim::chunk_range(n, pieces, p))
        .collect()
}

/// Deal sub-vectors onto devices by capability: a deterministic greedy that
/// sends each sub-vector, in index order, to the device with the smallest
/// projected finish estimate `(assigned elements + len) / capability`, with
/// ties going to the lowest device index.
///
/// `capabilities` is one positive throughput figure per device — the
/// cluster runner uses each device profile's
/// [`effective_bandwidth_bytes_per_s`](gpu_sim::DeviceSpec::effective_bandwidth_bytes_per_s),
/// since every local pipeline is bandwidth-bound. On a homogeneous cluster
/// with equally sized sub-vectors the greedy degenerates to the paper's
/// round-robin dealing (sub-vector *i* → device *i* mod #devices); in a
/// heterogeneous cluster, faster devices own proportionally more elements,
/// which shortens the slowest-device tail that bounds the makespan.
///
/// Returns the owning device index for every sub-vector.
pub(crate) fn place_shards(lens: &[usize], capabilities: &[f64]) -> Vec<usize> {
    assert!(!capabilities.is_empty(), "need at least one device");
    assert!(
        capabilities.iter().all(|&c| c > 0.0 && c.is_finite()),
        "device capabilities must be positive and finite"
    );
    let mut assigned = vec![0.0f64; capabilities.len()];
    lens.iter()
        .map(|&len| {
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (d, &cap) in capabilities.iter().enumerate() {
                let cost = (assigned[d] + len as f64) / cap;
                if cost < best_cost {
                    best = d;
                    best_cost = cost;
                }
            }
            assigned[best] += len as f64;
            best
        })
        .collect()
}

/// Run Dr. Top-k on `data` distributed over the devices of `cluster`: the
/// k largest keys (or the k smallest, per [`DrTopKConfig::direction`])
/// under an explicit [`ReloadSchedule`].
///
/// Both schedules execute the identical stage graph and return bit-identical
/// values; only the modeled timeline differs (the bench target
/// `streamed_oversize` and the pinned out-of-core tests compare the two).
///
/// With a `sink`, the run's stages stream into it as spans whose modeled
/// intervals match the returned report's `stages` **bit-for-bit**, plus
/// live executor events (dispatches, dependency-gate wakes, debug-build
/// verifier passes). A deterministic
/// [`TraceRecorder`](drtopk_obs::TraceRecorder) fed from this runner
/// exports byte-identical Chrome traces across runs.
pub fn distributed_dr_topk<'a, K: TopKKey>(
    cluster: &'a GpuCluster,
    data: &'a [K],
    k: usize,
    config: &'a DrTopKConfig,
    schedule: ReloadSchedule,
    sink: Option<&'a dyn TraceSink>,
) -> DistributedResult<K> {
    match config.direction {
        Direction::Largest => run_distributed(cluster, data, k, config, schedule, sink),
        Direction::Smallest => {
            run_distributed(cluster, as_desc(data), k, config, schedule, sink).into_native()
        }
    }
}

/// The mutable state one device's stages write: its local candidate buffer
/// and the per-chunk phase breakdowns, in chunk order. Only stages of that
/// device touch the slot, and they are chained on its compute queue, so the
/// mutex is uncontended — it exists to satisfy the `&C` sharing rule.
struct DeviceSlot<K> {
    local: Vec<K>,
    breakdowns: Vec<PhaseBreakdown>,
}

/// Context of the distributed stage graph: one slot per device plus the
/// final winners, written once by the `FinalTopK` stage.
struct DistCtx<K> {
    slots: Vec<Mutex<DeviceSlot<K>>>,
    winners: Mutex<Option<Vec<K>>>,
}

/// [`distributed_dr_topk`] below the direction boundary: the largest keys
/// of `data` in `K`'s order.
fn run_distributed<'a, K: TopKKey>(
    cluster: &'a GpuCluster,
    data: &'a [K],
    k: usize,
    config: &'a DrTopKConfig,
    schedule: ReloadSchedule,
    sink: Option<&'a dyn TraceSink>,
) -> DistributedResult<K> {
    let k = k.min(data.len());
    let num_devices = cluster.num_devices();
    if k == 0 || data.is_empty() {
        return empty_result(num_devices, schedule);
    }
    let mut plan = build_distributed_graph(cluster, data, k, config, schedule);
    if let Some(sink) = sink {
        plan.graph.set_trace_sink(sink);
    }
    // The generic execute-time check runs with default options; the
    // planner knows its staging-buffer count, so it additionally arms the
    // V010 double-buffer hazard analysis.
    debug_assert_verified("distributed stage graph", || {
        plan.graph.verify_with(&VerifyOptions {
            staging_buffers: Some(schedule.staging_buffers()),
        })
    });
    let DistPlan {
        graph,
        ctx,
        predicted_recall,
    } = plan;
    let report = graph.execute(&ctx);
    finish_distributed_run(ctx, report, num_devices, predicted_recall, schedule)
}

/// Model-check the schedule space of one distributed run, then execute it.
///
/// Enumerates (or samples, per `budget`) the dispatch orders the threaded
/// executor's per-resource FIFO workers could take for this exact run's
/// stage graph, runs every order for real on a freshly built graph, and
/// requires byte-identical deterministic summaries plus bit-identical
/// winners across all of them (see [`crate::explore`]). On success the run
/// executes once more through [`StageGraph::execute`] and its result is
/// returned alongside the coverage summary; the first disagreement (or a
/// deadlocked interleaving) returns the [`Divergence`] instead.
pub fn distributed_dr_topk_explore<K: TopKKey>(
    cluster: &GpuCluster,
    data: &[K],
    k: usize,
    config: &DrTopKConfig,
    schedule: ReloadSchedule,
    budget: ExploreBudget,
) -> Result<(DistributedResult<K>, ExploreOutcome), Box<Divergence>> {
    match config.direction {
        Direction::Largest => explore_distributed(cluster, data, k, config, schedule, budget),
        Direction::Smallest => {
            explore_distributed(cluster, as_desc(data), k, config, schedule, budget)
                .map(|(result, outcome)| (result.into_native(), outcome))
        }
    }
}

/// [`distributed_dr_topk_explore`] below the direction boundary.
fn explore_distributed<K: TopKKey>(
    cluster: &GpuCluster,
    data: &[K],
    k: usize,
    config: &DrTopKConfig,
    schedule: ReloadSchedule,
    budget: ExploreBudget,
) -> Result<(DistributedResult<K>, ExploreOutcome), Box<Divergence>> {
    let k = k.min(data.len());
    if k == 0 || data.is_empty() {
        let outcome = ExploreOutcome {
            schedules_run: 0,
            exhaustive: true,
            stages: 0,
            reference: StageReport::default(),
        };
        return Ok((empty_result(cluster.num_devices(), schedule), outcome));
    }
    let outcome = explore_schedules(
        || {
            let plan = build_distributed_graph(cluster, data, k, config, schedule);
            (plan.graph, plan.ctx)
        },
        |ctx: &DistCtx<K>, _| {
            ctx.winners
                .lock()
                .unwrap()
                .as_ref()
                .map(|vs| vs.iter().map(|v| v.to_bits()).collect::<Vec<K::Bits>>())
        },
        budget,
    )?;
    let result = run_distributed(cluster, data, k, config, schedule, None);
    Ok((result, outcome))
}

/// The zero-work result for empty inputs or `k == 0`, shared by every
/// entry point.
fn empty_result<K: TopKKey>(num_devices: usize, schedule: ReloadSchedule) -> DistributedResult<K> {
    DistributedResult {
        values: Vec::new(),
        kth_value: K::default(),
        per_device_compute_ms: vec![0.0; num_devices],
        per_device_reload_ms: vec![0.0; num_devices],
        communication_ms: 0.0,
        final_topk_ms: 0.0,
        total_ms: 0.0,
        reload_overhead_ms: 0.0,
        stats: KernelStats::default(),
        predicted_recall: 1.0,
        breakdown: PhaseBreakdown::default(),
        stages: StageReport::default(),
        schedule,
    }
}

/// A built-but-unexecuted distributed run: the stage graph, the context its
/// closures write through, and the plan-time recall bound. Splitting the
/// build from the execute is what lets [`distributed_dr_topk_explore`]
/// rebuild the identical graph once per enumerated schedule.
struct DistPlan<'a, K: TopKKey> {
    graph: StageGraph<'a, DistCtx<K>>,
    ctx: DistCtx<K>,
    predicted_recall: f64,
}

/// Build the distributed stage graph for a non-trivial run (callers have
/// already handled `k == 0` / empty data). Building is deterministic given
/// the same inputs — rebuilding yields a graph of identical shape, which
/// the schedule explorer relies on. (Reload transfers are logged on the
/// cluster's transfer log at build time, as the historical runner did, so
/// rebuilding grows that log; the modeled times it returns are
/// deterministic, so results are unaffected.)
fn build_distributed_graph<'a, K: TopKKey>(
    cluster: &'a GpuCluster,
    data: &'a [K],
    k: usize,
    config: &'a DrTopKConfig,
    schedule: ReloadSchedule,
) -> DistPlan<'a, K> {
    let num_devices = cluster.num_devices();
    // Partition into sub-vectors that fit device memory, then deal them
    // over devices by capability (see `place_shards`): on a homogeneous
    // cluster this is the paper's round-robin dealing, on a heterogeneous
    // one faster devices own proportionally more elements.
    // `capacity_elems` is expressed in u32 elements; 8-byte keys fit half
    // as many per device.
    let capacity = capacity_in_keys::<K>(
        cluster
            .devices()
            .iter()
            .map(|d| d.capacity_elems())
            .min()
            .expect("cluster has devices"),
    )
    .max(1);
    let subvectors = partition_subvectors(data.len(), capacity);

    // Each sub-vector runs the whole (exact or approximate) pipeline
    // locally, so the run's predicted recall is bounded below by the worst
    // sub-vector plan (1.0 throughout for exact configs).
    let predicted_recall = subvectors
        .iter()
        .map(|r| crate::pipeline::PlannedQuery::plan(r.len(), k, config).predicted_recall)
        .fold(1.0f64, f64::min);

    // Build the stage graph whose closures do the real work. Per device: a
    // chain of chunk loads on its host→device lane interleaved with
    // per-chunk local top-k's on its compute queue, then the local merge;
    // per-source gathers and the final selection close the graph. The
    // threaded executor runs one host worker per resource, so the devices'
    // chunk pipelines execute concurrently for real.
    let ctx: DistCtx<K> = DistCtx {
        slots: (0..num_devices)
            .map(|_| {
                Mutex::new(DeviceSlot {
                    local: Vec::new(),
                    breakdowns: Vec::new(),
                })
            })
            .collect(),
        winners: Mutex::new(None),
    };
    let mut graph: StageGraph<'_, DistCtx<K>> = StageGraph::new();
    let mut device_tails: Vec<(usize, StageId)> = Vec::new();
    let capabilities: Vec<f64> = cluster
        .devices()
        .iter()
        .map(|dev| dev.spec().effective_bandwidth_bytes_per_s())
        .collect();
    let lens: Vec<usize> = subvectors.iter().map(std::ops::Range::len).collect();
    let owners = place_shards(&lens, &capabilities);
    for d in 0..num_devices {
        let device = cluster.device(d);
        let owned: Vec<(usize, std::ops::Range<usize>)> = subvectors
            .iter()
            .enumerate()
            .filter(|(i, _)| owners[*i] == d)
            .map(|(i, r)| (i, r.clone()))
            .collect();
        let mut computes: Vec<StageId> = Vec::new();
        for (j, (i, range)) in owned.iter().enumerate() {
            // Sub-vectors beyond the first resident one stream in from the
            // host: that is the reload overhead of Table 2. The transfer is
            // recorded on the device's log here at build time (as the
            // historical runner did); the stage closure only reports it.
            let load = (j > 0).then(|| {
                let bytes = (range.len() * std::mem::size_of::<K>()) as u64;
                let t = cluster.record_transfer(
                    "reload_subvector",
                    TransferDirection::HostToDevice { dst: d },
                    bytes,
                );
                // Serial: the load waits for the previous chunk's compute.
                // Double-buffered: the load only waits for the chunk whose
                // staging buffer it reuses (two buffers → chunk j − 2), so
                // it overlaps chunk j − 1's compute.
                let deps: Vec<StageId> = match schedule {
                    ReloadSchedule::Serial => vec![computes[j - 1]],
                    ReloadSchedule::DoubleBuffered => {
                        if j >= 2 {
                            vec![computes[j - 2]]
                        } else {
                            Vec::new()
                        }
                    }
                };
                graph.add_labeled(
                    StageKind::ChunkLoad,
                    format!("chunk {i} load"),
                    Resource::Transfer(TransferLane::HostToDevice(d)),
                    &deps,
                    move |_: &DistCtx<K>| StageOutcome {
                        stats: KernelStats::default(),
                        time_ms: t,
                    },
                )
            });
            let deps: Vec<StageId> = load.into_iter().collect();
            let range = range.clone();
            computes.push(graph.add_labeled(
                StageKind::LocalTopK,
                format!("chunk {i} top-k"),
                Resource::Compute(d),
                &deps,
                move |ctx: &DistCtx<K>| {
                    let chunk = &data[range];
                    let planned = PlannedQuery::plan(chunk.len(), k, config);
                    let r = run_planned(device, chunk, None, None, &planned);
                    let outcome = StageOutcome {
                        stats: r.stats,
                        time_ms: r.time_ms,
                    };
                    let mut slot = ctx.slots[d].lock().unwrap();
                    slot.local.extend_from_slice(&r.values);
                    slot.breakdowns.push(r.breakdown);
                    outcome
                },
            ));
        }
        // A device that owns several sub-vectors merges their top-k's into
        // a single local top-k before communicating (tiny, done on-device).
        if owned.len() > 1 {
            // The merge reads every chunk's winners from the device slot,
            // so it depends on *all* of the chunk top-k's — the same-queue
            // FIFO order already guarantees they ran, but the declared
            // edges must match the real data flow (the verifier's V003
            // would otherwise see all but the last chunk as discarded).
            device_tails.push((
                d,
                graph.add(
                    StageKind::LocalMerge,
                    Resource::Compute(d),
                    &computes,
                    move |ctx: &DistCtx<K>| {
                        let mut slot = ctx.slots[d].lock().unwrap();
                        let merged = flag_radix_topk(device, &slot.local, k);
                        let outcome = StageOutcome {
                            stats: merged.stats,
                            time_ms: merged.time_ms,
                        };
                        slot.local = merged.values;
                        outcome
                    },
                ),
            ));
        } else if let Some(&only) = computes.last() {
            device_tails.push((d, only));
        }
    }

    // Asynchronous gather: each secondary device pushes its k winners to
    // the primary on its *own* interconnect lane (one stage per source), so
    // per-device gathers overlap instead of serializing on a shared queue;
    // each message pays the per-message launch overhead. The final
    // selection waits for every gather (and the primary's own tail).
    let mut final_deps: Vec<StageId> = Vec::new();
    if num_devices > 1 {
        let bytes = (k * std::mem::size_of::<K>()) as u64;
        for &(d, tail) in &device_tails {
            if d == 0 {
                final_deps.push(tail);
                continue;
            }
            let t = cluster
                .transfer_time_ms(TransferDirection::DeviceToDevice { src: d, dst: 0 }, bytes)
                + GpuCluster::MESSAGE_OVERHEAD_MS;
            final_deps.push(graph.add_labeled(
                StageKind::Gather,
                format!("gather from device {d}"),
                Resource::Transfer(TransferLane::Interconnect(d)),
                &[tail],
                move |_: &DistCtx<K>| StageOutcome {
                    stats: KernelStats::default(),
                    time_ms: t,
                },
            ));
        }
    } else {
        final_deps = device_tails.iter().map(|&(_, id)| id).collect();
    }
    graph.add(
        StageKind::FinalTopK,
        Resource::Compute(0),
        &final_deps,
        move |ctx: &DistCtx<K>| {
            // Candidates in device order — deterministic regardless of how
            // the host workers interleaved.
            let mut candidates: Vec<K> = Vec::new();
            for slot in &ctx.slots {
                candidates.extend_from_slice(&slot.lock().unwrap().local);
            }
            let (values, time_ms, stats) = if candidates.len() > k && num_devices > 1 {
                let final_topk = flag_radix_topk(cluster.device(0), &candidates, k);
                (final_topk.values, final_topk.time_ms, final_topk.stats)
            } else {
                (reference_topk(&candidates, k), 0.0, KernelStats::default())
            };
            *ctx.winners.lock().unwrap() = Some(values);
            StageOutcome { stats, time_ms }
        },
    );

    DistPlan {
        graph,
        ctx,
        predicted_recall,
    }
}

/// Derive every reported quantity of a [`DistributedResult`] from the one
/// executed stage schedule and the context its stages wrote.
fn finish_distributed_run<K: TopKKey>(
    ctx: DistCtx<K>,
    report: StageReport,
    num_devices: usize,
    predicted_recall: f64,
    schedule: ReloadSchedule,
) -> DistributedResult<K> {
    let DistCtx { slots, winners } = ctx;
    let values = winners
        .into_inner()
        .unwrap()
        .expect("the final selection stage always runs");
    let mut chunk_phases = PhaseBreakdown::default();
    for slot in &slots {
        for &b in &slot.lock().unwrap().breakdowns {
            chunk_phases += b;
        }
    }

    // Derive every reported quantity from the one stage schedule.
    let mut per_device_compute_ms = vec![0.0f64; num_devices];
    let mut per_device_reload_ms = vec![0.0f64; num_devices];
    let mut communication_ms = 0.0;
    let mut final_topk_ms = 0.0;
    let mut selection_overhead_ms = 0.0;
    for stage in &report.stages {
        match (stage.kind, stage.resource) {
            (StageKind::ChunkLoad, Resource::Transfer(TransferLane::HostToDevice(d))) => {
                per_device_reload_ms[d] += stage.duration_ms();
            }
            (StageKind::LocalTopK | StageKind::LocalMerge, Resource::Compute(d)) => {
                per_device_compute_ms[d] += stage.duration_ms();
                if stage.kind == StageKind::LocalMerge {
                    selection_overhead_ms += stage.duration_ms();
                }
            }
            (StageKind::Gather, _) => communication_ms += stage.duration_ms(),
            (StageKind::FinalTopK, _) => {
                final_topk_ms += stage.duration_ms();
                selection_overhead_ms += stage.duration_ms();
            }
            _ => {}
        }
    }
    let reload_overhead_ms: f64 = per_device_reload_ms.iter().sum();
    let breakdown = PhaseBreakdown {
        second_topk_ms: chunk_phases.second_topk_ms + selection_overhead_ms,
        transfer_ms: report.transfer_ms(),
        ..chunk_phases
    };
    let kth_value = values.last().copied().unwrap_or_default();

    DistributedResult {
        kth_value,
        total_ms: report.makespan_ms,
        per_device_compute_ms,
        per_device_reload_ms,
        communication_ms,
        final_topk_ms,
        reload_overhead_ms,
        stats: report.stats(),
        values,
        predicted_recall,
        breakdown,
        stages: report,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, GpuCluster};
    use topk_baselines::reference_topk;

    fn cluster(n: usize, capacity: usize) -> GpuCluster {
        let c = GpuCluster::homogeneous(n, DeviceSpec::v100s());
        for d in c.devices() {
            d.set_capacity_elems(capacity);
        }
        c
    }

    /// The default request under the default schedule, untraced.
    fn run<K: TopKKey>(c: &GpuCluster, data: &[K], k: usize) -> DistributedResult<K> {
        let config = DrTopKConfig::default();
        distributed_dr_topk(c, data, k, &config, ReloadSchedule::default(), None)
    }

    #[test]
    fn partitioning_covers_everything_equally() {
        let parts = partition_subvectors(1000, 300);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), 1000);
        assert!(parts.iter().all(|r| r.len() == 250));
        assert!(partition_subvectors(0, 100).is_empty());
        assert_eq!(partition_subvectors(10, 100).len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        partition_subvectors(10, 0);
    }

    #[test]
    fn distributed_matches_reference_when_data_fits() {
        let data = topk_datagen::uniform(1 << 16, 4);
        let k = 128;
        for devices in [1usize, 2, 4] {
            let c = cluster(devices, 1 << 20);
            let got = run(&c, &data, k);
            assert_eq!(got.values, reference_topk(&data, k), "{devices} devices");
            assert_eq!(got.reload_overhead_ms, 0.0, "no reload when data fits");
        }
    }

    #[test]
    fn distributed_matches_reference_with_reload() {
        // capacity forces 8 sub-vectors over 2 devices: 3 reloads per device
        let data = topk_datagen::customized(1 << 16, 9);
        let k = 64;
        let c = cluster(2, 1 << 13);
        let got = run(&c, &data, k);
        assert_eq!(got.values, reference_topk(&data, k));
        assert!(got.reload_overhead_ms > 0.0);
    }

    #[test]
    fn more_devices_reduce_total_time_and_reload() {
        let data = topk_datagen::uniform(1 << 18, 7);
        let k = 128;
        let capacity = 1 << 15; // 8 sub-vectors
        let t1 = run(&cluster(1, capacity), &data, k);
        let t4 = run(&cluster(4, capacity), &data, k);
        let t8 = run(&cluster(8, capacity), &data, k);
        assert_eq!(t1.values, t8.values);
        assert!(
            t4.total_ms < t1.total_ms,
            "{} vs {}",
            t4.total_ms,
            t1.total_ms
        );
        assert!(t8.total_ms < t1.total_ms);
        // once every sub-vector has its own device, reload disappears —
        // the source of the super-linear speedups in Table 2
        assert!(t1.reload_overhead_ms > 0.0);
        assert_eq!(t8.reload_overhead_ms, 0.0);
        // communication exists but stays small (asynchronous gather)
        assert!(t8.communication_ms > 0.0);
        assert!(t8.communication_ms < 2.0);
    }

    #[test]
    fn per_source_gathers_overlap_in_modeled_time() {
        // The Section 5.4 gather is asynchronous: with every secondary
        // device on its own interconnect lane, the gathers' makespan
        // charge is the slowest single gather, not the serialized sum.
        // Pin it at the unit level: four gathers of 4 ms each, one per
        // source lane, each gated only on its own device's tail.
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let mut gathers = Vec::new();
        for d in 1..=4usize {
            let tail = g.add_labeled(
                StageKind::LocalTopK,
                format!("device {d} tail"),
                Resource::Compute(d),
                &[],
                |_| StageOutcome {
                    stats: KernelStats::default(),
                    time_ms: 2.0,
                },
            );
            gathers.push(g.add_labeled(
                StageKind::Gather,
                format!("gather from device {d}"),
                Resource::Transfer(TransferLane::Interconnect(d)),
                &[tail],
                |_| StageOutcome {
                    stats: KernelStats::default(),
                    time_ms: 4.0,
                },
            ));
        }
        g.add(StageKind::FinalTopK, Resource::Compute(0), &gathers, |_| {
            StageOutcome::default()
        });
        let report = g.execute(&());
        let serialized_gather_sum = 4.0 * 4.0;
        // tails overlap (2 ms), gathers overlap (4 ms): makespan 6 ms —
        // far below the 16 ms a single shared gather lane would charge.
        assert_eq!(report.makespan_ms, 6.0);
        assert!(report.makespan_ms < serialized_gather_sum);
    }

    #[test]
    fn serial_and_threaded_executors_are_bit_identical() {
        // A one-schedule exhaustive budget replays exactly schedule 0, the
        // insertion order, serially on this thread; the returned result
        // comes from the threaded executor.
        let data = topk_datagen::uniform(1 << 16, 21);
        let k = 96;
        let c = cluster(4, 1 << 13); // 8 sub-vectors, 2 per device
        let (threaded, serial) = distributed_dr_topk_explore(
            &c,
            &data,
            k,
            &DrTopKConfig::default(),
            ReloadSchedule::DoubleBuffered,
            ExploreBudget::Exhaustive { max_schedules: 1 },
        )
        .expect("one schedule cannot diverge from itself");
        assert_eq!(serial.schedules_run, 1);
        assert_eq!(threaded.values, reference_topk(&data, k));
        assert_eq!(
            threaded.total_ms.to_bits(),
            serial.reference.makespan_ms.to_bits()
        );
        assert_eq!(
            threaded.stages.deterministic_summary(),
            serial.reference.deterministic_summary()
        );
        assert_eq!(threaded.stats, serial.reference.stats());
    }

    #[test]
    fn absent_sources_emit_no_gather_stages() {
        // A 4-device cluster whose whole input fits one sub-vector: every
        // element lands on the primary, the secondaries own nothing, and —
        // by the documented `communication_ms` semantics — no gather stage
        // or interconnect lane may exist for them (a phantom gather with
        // no source is exactly the verifier's V007 diagnostic).
        let data = topk_datagen::uniform(1 << 12, 5);
        let c = cluster(4, 1 << 20);
        let got = run(&c, &data, 32);
        assert_eq!(got.values, reference_topk(&data, 32));
        assert_eq!(got.communication_ms, 0.0, "no sources → no gathers");
        assert!(got
            .stages
            .stages
            .iter()
            .all(|s| s.kind != StageKind::Gather));
        assert!(got.stages.verify().is_empty());
    }

    #[test]
    fn explore_validates_a_small_out_of_core_run() {
        // 2 devices × 2 chunks each (double-buffered) is a ~9-stage graph
        // whose full schedule space is small enough to enumerate: every
        // dispatch order must agree bit-for-bit.
        let data = topk_datagen::uniform(1 << 10, 11);
        let k = 16;
        let c = cluster(2, 1 << 8);
        let (result, outcome) = distributed_dr_topk_explore(
            &c,
            &data,
            k,
            &DrTopKConfig::default(),
            ReloadSchedule::DoubleBuffered,
            ExploreBudget::default(),
        )
        .expect("the distributed graph is schedule-invariant");
        assert_eq!(result.values, reference_topk(&data, k));
        assert!(outcome.exhaustive, "budget covers the whole space");
        assert!(outcome.schedules_run > 1, "multiple interleavings exist");
        assert_eq!(outcome.stages, outcome.reference.stages.len());
    }

    #[test]
    fn single_device_has_no_communication() {
        let data = topk_datagen::uniform(1 << 14, 3);
        let c = cluster(1, 1 << 20);
        let got = run(&c, &data, 32);
        assert_eq!(got.communication_ms, 0.0);
        assert_eq!(got.final_topk_ms, 0.0);
        assert_eq!(got.values, reference_topk(&data, 32));
    }

    #[test]
    fn empty_and_zero_k_inputs() {
        let c = cluster(2, 1 << 20);
        assert!(run::<u32>(&c, &[], 5).values.is_empty());
        let data = topk_datagen::uniform(1 << 12, 1);
        assert!(run(&c, &data, 0).values.is_empty());
    }

    #[test]
    fn eight_byte_keys_halve_the_per_device_capacity() {
        // capacity_elems is in u32 units: 2^13 u32 elements hold only 2^12
        // u64 keys, so the same-length u64 input must split into twice the
        // sub-vectors and show reload overhead where the u32 run shows none.
        assert_eq!(capacity_in_keys::<u32>(1 << 13), 1 << 13);
        assert_eq!(capacity_in_keys::<u64>(1 << 13), 1 << 12);
        assert_eq!(capacity_in_keys::<f64>(10), 5);
        let n = 1 << 13;
        let base = topk_datagen::uniform(n, 3);
        let wide: Vec<u64> = base.iter().map(|&x| (x as u64) << 8).collect();
        let k = 32;
        let c = cluster(1, n); // exactly |V| u32 elements of memory
        let narrow_run = run(&c, &base, k);
        assert_eq!(narrow_run.reload_overhead_ms, 0.0, "u32 input fits");
        let wide_run = run(&c, &wide, k);
        assert_eq!(wide_run.values, reference_topk(&wide, k));
        assert!(
            wide_run.reload_overhead_ms > 0.0,
            "u64 input at u32 capacity must stream a second sub-vector"
        );
    }

    #[test]
    fn generic_keys_distribute_correctly() {
        // f32 and i64 keys through the sharded path, including the reload
        // regime — the last non-generic surface of PR 2 is now generic.
        let base = topk_datagen::uniform(1 << 14, 77);
        let floats: Vec<f32> = base
            .iter()
            .map(|&x| (x as f32 / u32::MAX as f32) * 2.0e4 - 1.0e4)
            .collect();
        let signed: Vec<i64> = base.iter().map(|&x| x as i64 - (1 << 31)).collect();
        let k = 73;
        let c = cluster(3, 1 << 12); // forces reloads on every device
        let got = run(&c, &floats, k);
        assert_eq!(got.values, reference_topk(&floats, k));
        assert_eq!(got.kth_value, *got.values.last().unwrap());
        assert!(got.reload_overhead_ms > 0.0);
        let got = run(&c, &signed, k);
        assert_eq!(got.values, reference_topk(&signed, k));
    }

    #[test]
    fn place_shards_degenerates_to_round_robin_when_homogeneous() {
        // Equal capabilities + equal sub-vectors is the paper's dealing.
        let lens = vec![250usize; 8];
        let caps = vec![1134.0f64; 3];
        let owners = place_shards(&lens, &caps);
        assert_eq!(owners, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        // Deterministic: same inputs, same dealing.
        assert_eq!(owners, place_shards(&lens, &caps));
    }

    #[test]
    fn place_shards_weights_by_capability() {
        // A 3:1 capability split over ten equal shards: the fast device
        // must own the large majority of the elements.
        let lens = vec![100usize; 10];
        let caps = vec![3.0f64, 1.0];
        let owners = place_shards(&lens, &caps);
        let fast_elems: usize = owners.iter().filter(|&&d| d == 0).count() * 100;
        let slow_elems: usize = owners.iter().filter(|&&d| d == 1).count() * 100;
        assert_eq!(fast_elems + slow_elems, 1000);
        assert!(
            fast_elems >= 3 * slow_elems,
            "fast device owns {fast_elems}, slow owns {slow_elems}"
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn place_shards_rejects_non_positive_capability() {
        place_shards(&[10], &[1.0, 0.0]);
    }

    #[test]
    fn heterogeneous_cluster_places_more_shards_on_faster_devices() {
        // V100S + A100 (slow device listed first): the A100's higher
        // effective bandwidth must attract more sub-vectors, and the run
        // must stay exact. The per-device LocalTopK stage counts in the
        // report are the ground truth for what actually ran where.
        use gpu_sim::{Device, InterconnectSpec};
        let c = GpuCluster::new(
            vec![
                Device::new(DeviceSpec::v100s()),
                Device::new(DeviceSpec::a100()),
            ],
            InterconnectSpec::default(),
        );
        for d in c.devices() {
            d.set_capacity_elems(1 << 13);
        }
        let data = topk_datagen::uniform(1 << 16, 42); // 8 sub-vectors
        let k = 64;
        let got = run(&c, &data, k);
        assert_eq!(got.values, reference_topk(&data, k));
        let count_on = |dev: usize| {
            got.stages
                .stages
                .iter()
                .filter(|s| s.kind == StageKind::LocalTopK && s.resource == Resource::Compute(dev))
                .count()
        };
        let (slow, fast) = (count_on(0), count_on(1));
        assert_eq!(slow + fast, 8, "every sub-vector runs exactly once");
        assert!(fast > slow, "A100 owns {fast}, V100S owns {slow}");
        // The dealing the report shows is exactly what `place_shards` says.
        let caps: Vec<f64> = c
            .devices()
            .iter()
            .map(|d| d.spec().effective_bandwidth_bytes_per_s())
            .collect();
        let owners = place_shards(&[1 << 13; 8], &caps);
        assert_eq!(owners.iter().filter(|&&d| d == 1).count(), fast);
        assert!(got.stages.verify().is_empty());
    }
}
