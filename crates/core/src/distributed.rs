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
//! The run has three steps. **Per device**, on its own host thread
//! ([`gpu_sim::try_run_on_each`]; a run whose sub-vectors all land on one
//! device spawns none), a device records its reloads, runs each owned
//! chunk's local pipeline and merges the chunks' winners, as plain calls
//! over its own buffers.
//! **Then the primary** runs the final selection over the candidates,
//! taken in device order. **Then the replay**: every recorded stage —
//! per device its [`ChunkLoad`](crate::stages::StageKind::ChunkLoad)s on
//! its host→device lane, its
//! [`LocalTopK`](crate::stages::StageKind::LocalTopK)s and merge on its
//! compute queue, then one per-source
//! [`Gather`](crate::stages::StageKind::Gather) per secondary device on
//! its own interconnect lane, then the final selection — is listed in that
//! order and replayed in modeled time on one cursor per resource. Loads and
//! gathers do no host work; they carry their modeled transfer time. The
//! modeled report depends only on that list, so it is bit-identical run to
//! run whatever order the host threads ran in; debug builds verify it.
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

use std::convert::Infallible;
use std::ops::Range;
use std::time::Instant;

use drtopk_obs::{EventKind, ExecEvent, TraceSink};
use gpu_sim::{try_run_on_each, Device, GpuCluster, KernelStats, TransferDirection};
use topk_baselines::{reference_topk, TopKKey};

use crate::direction::{as_desc, Direction};
use crate::pipeline::{run_planned, DrTopKConfig, PhaseBreakdown, PlannedQuery};
use crate::radix_flags::flag_radix_topk;
use crate::stages::{
    ms_since, replay, ExecutedStage, Resource, StageKind, StageOutcome, StageReport, TransferLane,
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
/// Both schedules run the identical work and return bit-identical values;
/// only the modeled timeline differs (the bench target `streamed_oversize`
/// and the pinned out-of-core tests compare the two).
///
/// With a `sink`, the run's stages go into it as spans whose modeled
/// intervals match the returned report's `stages` **bit-for-bit**, plus
/// one dispatch event per stage at its measured start and, in debug
/// builds, a verifier pass. A deterministic
/// [`TraceRecorder`](drtopk_obs::TraceRecorder) fed from this runner
/// exports byte-identical Chrome traces across runs.
pub fn distributed_dr_topk<K: TopKKey>(
    cluster: &GpuCluster,
    data: &[K],
    k: usize,
    config: &DrTopKConfig,
    schedule: ReloadSchedule,
    sink: Option<&dyn TraceSink>,
) -> DistributedResult<K> {
    match config.direction {
        Direction::Largest => run_distributed(cluster, data, k, config, schedule, sink),
        Direction::Smallest => {
            run_distributed(cluster, as_desc(data), k, config, schedule, sink).into_native()
        }
    }
}

/// [`distributed_dr_topk`] below the direction boundary: the largest keys
/// of `data` in `K`'s order.
fn run_distributed<K: TopKKey>(
    cluster: &GpuCluster,
    data: &[K],
    k: usize,
    config: &DrTopKConfig,
    schedule: ReloadSchedule,
    sink: Option<&dyn TraceSink>,
) -> DistributedResult<K> {
    let k = k.min(data.len());
    if k == 0 || data.is_empty() {
        return empty_result(cluster.num_devices(), schedule);
    }
    let plan = DistPlan::new(cluster, data, k, config, schedule);
    let epoch = Instant::now();
    // Only devices that own a sub-vector run; one such device runs inline.
    let active: Vec<usize> = (0..cluster.num_devices())
        .filter(|&d| !plan.owned[d].is_empty())
        .collect();
    let devices: Vec<&Device> = active.iter().map(|&d| cluster.device(d)).collect();
    let runs = try_run_on_each(&devices, |i, _| {
        let d = active[i];
        Ok::<_, Infallible>((d, plan.run_device(d, epoch)))
    })
    .unwrap_or_else(|failure| match failure.error {});
    plan.finish(runs, sink, epoch)
}

/// The zero-work result for empty inputs or `k == 0`.
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

/// One non-trivial distributed request (callers have already handled
/// `k == 0` and empty data), planned: which sub-vectors each device owns,
/// each sub-vector length's local plan, and the plan-time recall bound.
struct DistPlan<'a, K> {
    cluster: &'a GpuCluster,
    data: &'a [K],
    k: usize,
    schedule: ReloadSchedule,
    /// Per device, the index and range of every sub-vector it owns, in
    /// index order.
    owned: Vec<Vec<(usize, Range<usize>)>>,
    /// The local plan of each distinct sub-vector length: the sub-vectors
    /// are equal to within one element, so there are at most two.
    plans: Vec<(usize, PlannedQuery)>,
    predicted_recall: f64,
}

/// What one device's chain produced: its local winners, each chunk's
/// phase breakdown in chunk order, and its recorded stages, whose
/// dependencies index this list. The last stage is the device's tail: its
/// merge, or its only chunk top-k.
struct DeviceRun<K> {
    candidates: Vec<K>,
    breakdowns: Vec<PhaseBreakdown>,
    stages: Vec<ExecutedStage>,
}

impl<'a, K: TopKKey> DistPlan<'a, K> {
    fn new(
        cluster: &'a GpuCluster,
        data: &'a [K],
        k: usize,
        config: &DrTopKConfig,
        schedule: ReloadSchedule,
    ) -> Self {
        // Partition into sub-vectors that fit device memory, then deal them
        // over devices by capability (see `place_shards`): on a homogeneous
        // cluster this is the paper's round-robin dealing, on a
        // heterogeneous one faster devices own proportionally more
        // elements. `capacity_elems` is expressed in u32 elements; 8-byte
        // keys fit half as many per device.
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
        let mut plans: Vec<(usize, PlannedQuery)> = Vec::with_capacity(2);
        for range in &subvectors {
            if plans.iter().all(|&(len, _)| len != range.len()) {
                plans.push((range.len(), PlannedQuery::plan(range.len(), k, config)));
            }
        }
        // Each sub-vector runs the whole (exact or approximate) pipeline
        // locally, so the run's predicted recall is bounded below by the
        // worst sub-vector plan (1.0 throughout for exact configs).
        let predicted_recall = plans
            .iter()
            .map(|(_, planned)| planned.predicted_recall)
            .fold(1.0f64, f64::min);
        let capabilities: Vec<f64> = cluster
            .devices()
            .iter()
            .map(|dev| dev.spec().effective_bandwidth_bytes_per_s())
            .collect();
        let lens: Vec<usize> = subvectors.iter().map(Range::len).collect();
        let owners = place_shards(&lens, &capabilities);
        let mut owned = vec![Vec::new(); cluster.num_devices()];
        for (i, (range, d)) in subvectors.into_iter().zip(owners).enumerate() {
            owned[d].push((i, range));
        }
        DistPlan {
            cluster,
            data,
            k,
            schedule,
            owned,
            plans,
            predicted_recall,
        }
    }

    /// Device `d`'s chain, as plain calls on the calling thread: record
    /// the reloads, run every owned chunk's local pipeline, and merge the
    /// chunks' winners into one local top-k when there are several.
    /// Measured times are taken since `epoch`.
    fn run_device(&self, d: usize, epoch: Instant) -> DeviceRun<K> {
        let device = self.cluster.device(d);
        let owned = &self.owned[d];
        // Sub-vectors beyond the first resident one stream in from the
        // host: that is the reload overhead of Table 2. The transfers go on
        // the device's log before its launches.
        let loads: Vec<f64> = owned[1..]
            .iter()
            .map(|(_, range)| {
                let bytes = (range.len() * std::mem::size_of::<K>()) as u64;
                let dst = TransferDirection::HostToDevice { dst: d };
                self.cluster.record_transfer("reload_subvector", dst, bytes)
            })
            .collect();
        let mut run = DeviceRun {
            candidates: Vec::new(),
            breakdowns: Vec::with_capacity(owned.len()),
            stages: Vec::new(),
        };
        let mut computes: Vec<usize> = Vec::with_capacity(owned.len());
        for (j, (i, range)) in owned.iter().enumerate() {
            let mut deps = Vec::new();
            if j > 0 {
                // Serial: the load waits for the previous chunk's compute.
                // Double-buffered: the load only waits for the chunk whose
                // staging buffer it reuses (two buffers → chunk j − 2), so
                // it overlaps chunk j − 1's compute.
                let load_deps = match self.schedule {
                    ReloadSchedule::Serial => vec![computes[j - 1]],
                    ReloadSchedule::DoubleBuffered => {
                        j.checked_sub(2).map(|p| computes[p]).into_iter().collect()
                    }
                };
                let at = ms_since(epoch);
                deps.push(run.stages.len());
                run.stages.push(ExecutedStage::recorded(
                    StageKind::ChunkLoad,
                    format!("chunk {i} load"),
                    Resource::Transfer(TransferLane::HostToDevice(d)),
                    load_deps,
                    StageOutcome::new(KernelStats::default(), loads[j - 1]),
                    at,
                    at,
                ));
            }
            let start = ms_since(epoch);
            let chunk = &self.data[range.clone()];
            let (_, planned) = self
                .plans
                .iter()
                .find(|&&(len, _)| len == chunk.len())
                .expect("every sub-vector length is planned");
            let r = run_planned(device, chunk, None, None, planned);
            computes.push(run.stages.len());
            run.stages.push(ExecutedStage::recorded(
                StageKind::LocalTopK,
                format!("chunk {i} top-k"),
                Resource::Compute(d),
                deps,
                StageOutcome::new(r.stats, r.time_ms),
                start,
                ms_since(epoch),
            ));
            run.candidates.extend_from_slice(&r.values);
            run.breakdowns.push(r.breakdown);
        }
        // A device that owns several sub-vectors merges their top-k's into
        // a single local top-k before communicating (tiny, done
        // on-device). The merge reads every chunk's winners, so it depends
        // on all of the chunk top-k's (the verifier's V003 would otherwise
        // see all but the last as discarded).
        if owned.len() > 1 {
            let start = ms_since(epoch);
            let merged = flag_radix_topk(device, &run.candidates, self.k);
            run.stages.push(ExecutedStage::recorded(
                StageKind::LocalMerge,
                StageKind::LocalMerge.name(),
                Resource::Compute(d),
                computes,
                StageOutcome::new(merged.stats, merged.time_ms),
                start,
                ms_since(epoch),
            ));
            run.candidates = merged.values;
        }
        run
    }

    /// List the device chains' stages in device order, add the gathers,
    /// run the final selection on the primary over the candidates in
    /// device order, replay the list, and derive every reported quantity
    /// from the replayed schedule. `runs` holds each active device's index
    /// and chain, in device order.
    fn finish(
        &self,
        runs: Vec<(usize, DeviceRun<K>)>,
        sink: Option<&dyn TraceSink>,
        epoch: Instant,
    ) -> DistributedResult<K> {
        let num_devices = self.cluster.num_devices();
        let mut stages: Vec<ExecutedStage> = Vec::new();
        let mut tails: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
        let mut candidates: Vec<K> = Vec::new();
        let mut chunk_phases = PhaseBreakdown::default();
        for (d, run) in runs {
            let base = stages.len();
            for stage in run.stages {
                let deps = stage.deps.iter().map(|dep| dep + base).collect();
                stages.push(ExecutedStage { deps, ..stage });
            }
            tails.push((d, stages.len() - 1));
            candidates.extend(run.candidates);
            for b in run.breakdowns {
                chunk_phases += b;
            }
        }

        // Asynchronous gather: each secondary device pushes its k winners
        // to the primary on its *own* interconnect lane (one stage per
        // source), so per-device gathers overlap instead of serializing on
        // a shared queue; each message pays the per-message launch
        // overhead. The final selection waits for every gather (and the
        // primary's own tail).
        let mut final_deps: Vec<usize> = Vec::with_capacity(tails.len());
        let bytes = (self.k * std::mem::size_of::<K>()) as u64;
        for &(d, tail) in &tails {
            if d == 0 {
                final_deps.push(tail);
                continue;
            }
            let t = self
                .cluster
                .transfer_time_ms(TransferDirection::DeviceToDevice { src: d, dst: 0 }, bytes)
                + GpuCluster::MESSAGE_OVERHEAD_MS;
            let ready = stages[tail].measured_end_ms;
            final_deps.push(stages.len());
            stages.push(ExecutedStage::recorded(
                StageKind::Gather,
                format!("gather from device {d}"),
                Resource::Transfer(TransferLane::Interconnect(d)),
                vec![tail],
                StageOutcome::new(KernelStats::default(), t),
                ready,
                ready,
            ));
        }
        let start = ms_since(epoch);
        let (values, outcome) = if candidates.len() > self.k && num_devices > 1 {
            let r = flag_radix_topk(self.cluster.device(0), &candidates, self.k);
            (r.values, StageOutcome::new(r.stats, r.time_ms))
        } else {
            (reference_topk(&candidates, self.k), StageOutcome::default())
        };
        stages.push(ExecutedStage::recorded(
            StageKind::FinalTopK,
            StageKind::FinalTopK.name(),
            Resource::Compute(0),
            final_deps,
            outcome,
            start,
            ms_since(epoch),
        ));

        let report = replay(stages);
        // The planner knows its staging-buffer count, so the check also
        // arms the V010 double-buffer hazard analysis.
        debug_assert_verified("distributed stage schedule", || {
            report.verify_with(&VerifyOptions {
                staging_buffers: Some(self.schedule.staging_buffers()),
            })
        });
        if let Some(sink) = sink {
            trace_into(sink, &report);
        }

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
            predicted_recall: self.predicted_recall,
            breakdown,
            stages: report,
            schedule: self.schedule,
        }
    }
}

/// Send a finished run to `sink`: in debug builds the verifier's pass,
/// then one dispatch event per stage at its measured start (sinks that
/// want no events skip both), then every stage as a span.
fn trace_into(sink: &dyn TraceSink, report: &StageReport) {
    if sink.wants_events() {
        if cfg!(debug_assertions) {
            sink.event(ExecEvent {
                kind: EventKind::VerifierPass,
                label: format!("{} stage(s) verified", report.stages.len()),
                at_ms: 0.0,
            });
        }
        for stage in &report.stages {
            sink.event(ExecEvent {
                kind: EventKind::Dispatch,
                label: stage.label.clone(),
                at_ms: stage.measured_start_ms,
            });
        }
    }
    report.record_into(sink);
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
        let stage = |kind, label: String, resource, deps, ms| {
            let outcome = StageOutcome::new(KernelStats::default(), ms);
            ExecutedStage::recorded(kind, label, resource, deps, outcome, 0.0, 0.0)
        };
        let mut stages = Vec::new();
        let mut gathers = Vec::new();
        for d in 1..=4usize {
            let tail = stages.len();
            stages.push(stage(
                StageKind::LocalTopK,
                format!("device {d} tail"),
                Resource::Compute(d),
                vec![],
                2.0,
            ));
            gathers.push(stages.len());
            stages.push(stage(
                StageKind::Gather,
                format!("gather from device {d}"),
                Resource::Transfer(TransferLane::Interconnect(d)),
                vec![tail],
                4.0,
            ));
        }
        stages.push(stage(
            StageKind::FinalTopK,
            "final_topk".to_string(),
            Resource::Compute(0),
            gathers,
            0.0,
        ));
        let report = replay(stages);
        let serialized_gather_sum = 4.0 * 4.0;
        // tails overlap (2 ms), gathers overlap (4 ms): makespan 6 ms —
        // far below the 16 ms a single shared gather lane would charge.
        assert_eq!(report.makespan_ms, 6.0);
        assert!(report.makespan_ms < serialized_gather_sum);
    }

    /// The per-device chains run one after another on this thread, in
    /// `order` (devices that own no sub-vector skipped), then finished as
    /// the parallel run finishes them.
    fn run_in_order<K: TopKKey>(
        c: &GpuCluster,
        data: &[K],
        k: usize,
        config: &DrTopKConfig,
        schedule: ReloadSchedule,
        order: &[usize],
    ) -> DistributedResult<K> {
        let plan = DistPlan::new(c, data, k, config, schedule);
        let epoch = Instant::now();
        let mut runs: Vec<Option<DeviceRun<K>>> = (0..c.num_devices()).map(|_| None).collect();
        for &d in order {
            if !plan.owned[d].is_empty() {
                runs[d] = Some(plan.run_device(d, epoch));
            }
        }
        let runs = (0..c.num_devices())
            .zip(runs)
            .filter_map(|(d, run)| Some((d, run?)))
            .collect();
        plan.finish(runs, None, epoch)
    }

    /// Everything deterministic about two runs agrees bit for bit.
    fn assert_same_run<K: TopKKey>(a: &DistributedResult<K>, b: &DistributedResult<K>, what: &str) {
        let bits = |r: &DistributedResult<K>| -> Vec<K::Bits> {
            r.values.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b), "{what}");
        assert_eq!(a.total_ms.to_bits(), b.total_ms.to_bits(), "{what}");
        assert_eq!(
            a.stages.deterministic_summary(),
            b.stages.deterministic_summary(),
            "{what}"
        );
        assert_eq!(a.stats, b.stats, "{what}");
        assert_eq!(a.breakdown, b.breakdown, "{what}");
    }

    #[test]
    fn serial_and_threaded_executors_are_bit_identical() {
        // The chains run one after another in device order on this thread
        // against each device on its own thread.
        let data = topk_datagen::uniform(1 << 16, 21);
        let k = 96;
        let c = cluster(4, 1 << 13); // 8 sub-vectors, 2 per device
        let config = DrTopKConfig::default();
        let schedule = ReloadSchedule::DoubleBuffered;
        let threaded = distributed_dr_topk(&c, &data, k, &config, schedule, None);
        let serial = run_in_order(&c, &data, k, &config, schedule, &[0, 1, 2, 3]);
        assert_eq!(threaded.values, reference_topk(&data, k));
        assert_same_run(&serial, &threaded, "serial vs threaded");
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

    /// Devices share no state, so the order their chains run in cannot
    /// matter: on 3 devices with reloads, every device order, under both
    /// schedules and in the exact and approximate modes, gives the
    /// parallel run's winners, schedule, makespan, counters and breakdown
    /// bit for bit, and exact winners are the reference top-k.
    #[test]
    fn every_device_order_matches_the_parallel_out_of_core_run() {
        let data = topk_datagen::uniform(1 << 12, 11);
        let k = 16;
        let c = cluster(3, 1 << 9); // 8 sub-vectors: 3, 3 and 2 per device
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for config in [DrTopKConfig::default(), DrTopKConfig::approx(0.9)] {
            for schedule in [ReloadSchedule::Serial, ReloadSchedule::DoubleBuffered] {
                let parallel = distributed_dr_topk(&c, &data, k, &config, schedule, None);
                assert!(parallel.reload_overhead_ms > 0.0);
                if config.mode.strict_target().is_none() {
                    assert_eq!(parallel.values, reference_topk(&data, k));
                }
                for order in &orders {
                    let serial = run_in_order(&c, &data, k, &config, schedule, order);
                    let what = format!("{schedule}, devices in order {order:?}");
                    assert_same_run(&serial, &parallel, &what);
                }
            }
        }
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
