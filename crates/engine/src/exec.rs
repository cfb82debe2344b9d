//! Plan execution: a worker pool with one [`Device`] per worker for fused
//! units, and the whole-cluster distributed path for sharded queries.
//!
//! Fused units are pulled from a shared atomic queue (dynamic load
//! balancing: a worker that drew a cheap unit immediately takes the next
//! one). Each unit executes as a **stage graph** on its worker's device:
//! one shared delegate-pass stage — built, or recalled from the delegate
//! cache — followed by every member query's own pipeline stages (first
//! top-k, concatenation, second top-k — themselves scheduled by the core
//! stage executor inside [`dr_topk_planned`]). The unit's
//! [`StageReport`] is the engine's single instrumentation point: per-phase
//! times, the compute/transfer split and the modeled unit cost are all
//! derived from it instead of being hand-accumulated at three sites.
//! Sharded queries run the distributed stage graph (double-buffered chunk
//! ingestion) and report their breakdown and overlap the same way. Worker
//! failures are surfaced per device through
//! [`GpuCluster::try_run_on_all`] instead of poisoning the batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drtopk_core::{
    as_desc, build_delegate_vector, capacity_in_keys, distributed_dr_topk, dr_topk_planned,
    topk_rows_on, DelegateVector, DrTopKConfig, DrTopKResult, ExecutedStage, PhaseBreakdown,
    Resource, RowMatrix, RowTopKResult, StageGraph, StageId, StageKind, StageOutcome, StageReport,
};
use drtopk_obs::TraceSink;
use gpu_sim::{Device, GpuCluster, KernelStats};
use parking_lot::Mutex;
use topk_baselines::{Desc, TopKKey};

use crate::engine::EngineError;
use crate::plan::{ExecutionPlan, FusedUnit, PlanCache, PlanUnit, RowUnit};
use crate::query::{Direction, QueryBatch, RowQuery};
use crate::report::{CacheReport, ExecPath, QueryResult, RowQueryResult};

/// What executing one fused unit produced.
struct FusedOutcome<K: TopKKey> {
    unit: usize,
    /// `(query index, modeled predicted recall, result)` per member.
    results: Vec<(usize, f64, DrTopKResult<K>)>,
    /// The unit's composed stage schedule: the shared delegate pass (when
    /// one was built) followed by every member's stages, serial on the
    /// worker's device.
    unit_stages: StageReport,
    delegate_pass_run: bool,
    delegate_from_cache: bool,
}

/// What executing one row-matrix unit produced.
struct RowsOutcome<K: TopKKey> {
    unit: usize,
    /// `(row-query index, result)` per member.
    results: Vec<(usize, RowQueryResult<K>)>,
    /// The members' row-block schedules composed serially on the worker's
    /// device.
    unit_stages: StageReport,
    /// Fused per-block delegate passes the unit ran across its members.
    delegate_passes: usize,
}

/// One pool worker's result for one unit drawn from the shared queue.
enum PoolOutcome<K: TopKKey> {
    Fused(FusedOutcome<K>),
    Rows(RowsOutcome<K>),
}

/// Everything `run_batch` needs back from execution; cache counters are
/// snapshotted by the caller around this call.
pub(crate) struct ExecOutput<K: TopKKey> {
    pub results: Vec<QueryResult<K>>,
    /// One result per row-matrix query, in row-query order.
    pub row_results: Vec<RowQueryResult<K>>,
    pub phase_ms: PhaseBreakdown,
    pub stats: KernelStats,
    pub delegate_passes_run: usize,
    pub delegate_passes_saved: usize,
    /// This batch's delegate-cache activity, derived from the unit
    /// outcomes themselves (not from differencing the cache's cumulative
    /// counters, which concurrent batches would pollute).
    pub delegate_cache: CacheReport,
    /// Makespan of the fused worker-pool portion (slowest worker).
    pub pool_ms: f64,
    /// Modeled time of the sharded whole-cluster portion.
    pub sharded_ms: f64,
    /// Sum of the sharded runs' *serialized* stage cost — what they would
    /// have taken with no transfer/compute overlap.
    pub sharded_serial_ms: f64,
    /// Modeled busy time of each pool worker under the deterministic list
    /// schedule (index = device slot). Feeds the worker busy/occupancy
    /// metrics — the ROADMAP's "idle transfer-lane worker" blind spot.
    pub worker_loads: Vec<f64>,
    /// Fused units each pool worker executed under the list schedule.
    pub worker_units: Vec<usize>,
}

/// Compose the unit-level stage report from the macro graph's schedule.
///
/// The macro graph has one stage per member (plus the shared pass when one
/// ran); each member macro stage is replaced here by that member's own
/// executed pipeline stages, shifted onto the unit's serial timeline and
/// re-tagged with the worker's device. Dependencies are remapped into the
/// composed index space, with the shared pass as the root of every member
/// chain.
fn splice_unit_stages<K: TopKKey>(
    macro_report: &StageReport,
    pass_ran: bool,
    device: usize,
    results: &[DrTopKResult<K>],
) -> StageReport {
    let mut stages: Vec<ExecutedStage> = Vec::new();
    let mut pass_idx: Option<usize> = None;
    let mut members = results.iter();
    for (i, macro_stage) in macro_report.stages.iter().enumerate() {
        if pass_ran && i == 0 {
            pass_idx = Some(stages.len());
            stages.push(ExecutedStage {
                resource: Resource::Compute(device),
                ..macro_stage.clone()
            });
            continue;
        }
        let member = members.next().expect("one macro stage per member");
        let base_idx = stages.len();
        for inner in &member.stages.stages {
            let deps = if inner.deps.is_empty() {
                pass_idx.into_iter().collect()
            } else {
                inner.deps.iter().map(|d| d + base_idx).collect()
            };
            stages.push(ExecutedStage {
                kind: inner.kind,
                label: inner.label.clone(),
                resource: Resource::Compute(device),
                deps,
                start_ms: inner.start_ms + macro_stage.start_ms,
                end_ms: inner.end_ms + macro_stage.start_ms,
                measured_start_ms: inner.measured_start_ms + macro_stage.measured_start_ms,
                measured_end_ms: inner.measured_end_ms + macro_stage.measured_start_ms,
                stats: inner.stats,
            });
        }
    }
    let report = StageReport {
        stages,
        makespan_ms: macro_report.makespan_ms,
        measured_makespan_ms: macro_report.measured_makespan_ms,
    };
    // The macro graph was verified when it executed; splicing re-wires
    // kinds, resources and dependencies, so debug builds re-check the
    // composed schedule too (the index remapping is exactly the kind of
    // arithmetic the verifier exists to catch).
    #[cfg(debug_assertions)]
    {
        let diags = report.verify();
        assert!(
            diags.is_empty(),
            "spliced unit stage report failed verification:\n{}",
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    report
}

/// Run one fused unit's typed half as a real stage graph: the shared
/// delegate pass (cache miss only) is the root stage, and every member
/// query is a dependent stage on the same worker device. The graph is
/// single-resource, so the executor runs it inline on the calling worker
/// thread; the member macro stages are then spliced into a unit-level
/// report via [`splice_unit_stages`].
fn run_fused_typed<K: TopKKey>(
    device: &Device,
    device_idx: usize,
    data: &[K],
    corpus_id: Option<u64>,
    unit: &FusedUnit,
    base: &DrTopKConfig,
    cache: &Mutex<PlanCache>,
) -> (
    Vec<DrTopKResult<K>>,
    StageReport,
    /* pass_run */ bool,
    /* from_cache */ bool,
) {
    let beta = unit.beta;
    // Resolve the delegate cache up front: a hit means the |V|-scan
    // disappears from the batch entirely (no pass stage in the graph); a
    // miss means the graph's first stage builds and caches it.
    let cached: Option<Arc<DelegateVector<K>>> = if unit.needs_delegates {
        cache
            .lock()
            .get_delegates::<K>(corpus_id, data.len(), unit.alpha, beta)
    } else {
        None
    };
    let from_cache = cached.is_some();
    let needs_build = unit.needs_delegates && !from_cache;

    struct UnitCtx<K: TopKKey> {
        delegates: Mutex<Option<Arc<DelegateVector<K>>>>,
        members: Vec<Mutex<Option<DrTopKResult<K>>>>,
    }
    let ctx = UnitCtx::<K> {
        delegates: Mutex::new(cached),
        members: unit.planned.iter().map(|_| Mutex::new(None)).collect(),
    };

    let mut graph: StageGraph<'_, UnitCtx<K>> = StageGraph::new();
    let mut member_deps: Vec<StageId> = Vec::new();
    if needs_build {
        // The one shared pass is the unit's first stage; its kind mirrors
        // what the pass is (candidate generation for approximate groups,
        // delegate construction otherwise).
        let kind = if unit.mode.strict_target().is_some() {
            StageKind::BucketTopKPrime
        } else {
            StageKind::DelegateConstruction
        };
        member_deps.push(graph.add_labeled(
            kind,
            "shared delegate pass",
            Resource::Compute(device_idx),
            &[],
            move |ctx: &UnitCtx<K>| {
                let built = Arc::new(build_delegate_vector(
                    device,
                    data,
                    unit.alpha,
                    beta,
                    base.construction,
                ));
                if let Some(id) = corpus_id {
                    cache.lock().put_delegates(
                        id,
                        data.len(),
                        unit.alpha,
                        beta,
                        Arc::clone(&built),
                    );
                }
                let outcome = StageOutcome {
                    stats: built.stats,
                    time_ms: built.time_ms,
                };
                *ctx.delegates.lock() = Some(built);
                outcome
            },
        ));
    }
    for (m, planned) in unit.planned.iter().enumerate() {
        graph.add_labeled(
            StageKind::SecondTopK,
            format!("member {m}"),
            Resource::Compute(device_idx),
            &member_deps,
            move |ctx: &UnitCtx<K>| {
                // A member may only run against the shared pass when the
                // pass covers its plan: equal β for exact members, a
                // budget at least the member's own for approximate ones
                // (more candidates only raise recall). The rare member
                // that fell back to an incompatible exact plan builds its
                // own pass.
                let delegates = ctx.delegates.lock().clone();
                let member_shared = delegates.as_deref().filter(|d| {
                    if planned.config.mode.strict_target().is_some() {
                        d.beta >= planned.config.beta
                    } else {
                        d.beta == planned.config.beta
                    }
                });
                let r = dr_topk_planned(device, data, member_shared, planned);
                let outcome = StageOutcome {
                    stats: r.stats,
                    time_ms: r.time_ms,
                };
                *ctx.members[m].lock() = Some(r);
                outcome
            },
        );
    }
    let macro_report = graph.execute(&ctx);
    let results: Vec<DrTopKResult<K>> = ctx
        .members
        .into_iter()
        .map(|slot| slot.into_inner().expect("member stage ran"))
        .collect();
    let unit_stages = splice_unit_stages(&macro_report, needs_build, device_idx, &results);
    (results, unit_stages, needs_build, from_cache)
}

/// Direction dispatch around [`run_fused_typed`].
#[allow(clippy::too_many_arguments)]
fn run_fused_unit<K: TopKKey>(
    device: &Device,
    device_idx: usize,
    data: &[K],
    corpus_id: Option<u64>,
    unit_idx: usize,
    unit: &FusedUnit,
    base: &DrTopKConfig,
    cache: &Mutex<PlanCache>,
) -> FusedOutcome<K> {
    let (results, unit_stages, pass_run, from_cache) = match unit.direction {
        Direction::Largest => {
            run_fused_typed::<K>(device, device_idx, data, corpus_id, unit, base, cache)
        }
        Direction::Smallest => {
            let (res, stages, run, cached) = run_fused_typed::<Desc<K>>(
                device,
                device_idx,
                as_desc(data),
                corpus_id,
                unit,
                base,
                cache,
            );
            (
                res.into_iter()
                    .map(DrTopKResult::into_native)
                    .collect::<Vec<_>>(),
                stages,
                run,
                cached,
            )
        }
    };
    FusedOutcome {
        unit: unit_idx,
        results: unit
            .queries
            .iter()
            .zip(&unit.planned)
            .zip(results)
            .map(|((&qi, planned), r)| (qi, planned.predicted_recall, r))
            .collect(),
        unit_stages,
        delegate_pass_run: pass_run,
        delegate_from_cache: from_cache,
    }
}

/// Compose a row unit's stage report: the members' row-block schedules
/// run back-to-back on the worker's device, so each member's stages are
/// shifted onto the unit's serial timeline and re-tagged with the worker.
/// Dependencies stay within each member (row-block graphs are
/// self-contained), only re-indexed into the composed stage list.
fn splice_row_stages(members: &[StageReport], device: usize) -> StageReport {
    let mut stages: Vec<ExecutedStage> = Vec::new();
    let mut offset_ms = 0.0f64;
    let mut measured_offset_ms = 0.0f64;
    for member in members {
        let base_idx = stages.len();
        for inner in &member.stages {
            stages.push(ExecutedStage {
                kind: inner.kind,
                label: inner.label.clone(),
                resource: Resource::Compute(device),
                deps: inner.deps.iter().map(|d| d + base_idx).collect(),
                start_ms: inner.start_ms + offset_ms,
                end_ms: inner.end_ms + offset_ms,
                measured_start_ms: inner.measured_start_ms + measured_offset_ms,
                measured_end_ms: inner.measured_end_ms + measured_offset_ms,
                stats: inner.stats,
            });
        }
        offset_ms += member.makespan_ms;
        measured_offset_ms += member.measured_makespan_ms;
    }
    let report = StageReport {
        stages,
        makespan_ms: offset_ms,
        measured_makespan_ms: measured_offset_ms,
    };
    #[cfg(debug_assertions)]
    {
        let diags = report.verify();
        assert!(
            diags.is_empty(),
            "spliced row unit stage report failed verification:\n{}",
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    report
}

/// Run one row-matrix unit on its assigned worker device: each member
/// reinterprets the corpus as its own `rows × cols` matrix and runs the
/// row-block stage graph through [`topk_rows_on`] (direction dispatched
/// through the order-reversing [`Desc`] adapter, like vector queries).
fn run_rows_unit<K: TopKKey>(
    device: &Device,
    device_idx: usize,
    data: &[K],
    unit_idx: usize,
    unit: &RowUnit,
    row_queries: &[RowQuery],
    base: &DrTopKConfig,
) -> RowsOutcome<K> {
    let mut member_reports: Vec<StageReport> = Vec::with_capacity(unit.members.len());
    let mut results: Vec<(usize, RowQueryResult<K>)> = Vec::with_capacity(unit.members.len());
    let mut delegate_passes = 0usize;
    for &qi in &unit.members {
        let q = &row_queries[qi];
        let cfg = DrTopKConfig {
            inner: q.inner,
            mode: q.mode,
            ..base.clone()
        };
        let matrix = RowMatrix::new(data, q.rows, q.cols);
        let devices = [device];
        let r: RowTopKResult<K> = match q.direction {
            Direction::Largest => topk_rows_on(&devices, matrix, &q.ks, &cfg, None),
            Direction::Smallest => {
                topk_rows_on(&devices, matrix.as_desc(), &q.ks, &cfg, None).into_native()
            }
        };
        delegate_passes += r.delegate_passes;
        results.push((
            qi,
            RowQueryResult {
                rows: r.rows,
                time_ms: r.time_ms,
                stats: r.stats,
                breakdown: r.breakdown,
                delegate_passes: r.delegate_passes,
                num_blocks: r.num_blocks,
                predicted_recall: r.predicted_recall,
                unit: unit_idx,
            },
        ));
        member_reports.push(r.stages);
    }
    RowsOutcome {
        unit: unit_idx,
        results,
        unit_stages: splice_row_stages(&member_reports, device_idx),
        delegate_passes,
    }
}

/// Execute a plan over the cluster.
///
/// When `sink` is present, every unit's composed stage schedule is
/// re-emitted as trace spans on the *modeled* batch timeline: fused units
/// at their deterministic list-schedule offsets (re-tagged with the modeled
/// worker's device so trace tracks match the schedule the report
/// describes), sharded runs after the pool phase. Tracing clones the unit
/// reports; with no sink attached nothing extra is allocated.
pub(crate) fn execute_plan<K: TopKKey>(
    cluster: &GpuCluster,
    batch: &QueryBatch<'_, K>,
    plan: &ExecutionPlan,
    base: &DrTopKConfig,
    cache: &Mutex<PlanCache>,
    sink: Option<&dyn TraceSink>,
) -> Result<ExecOutput<K>, EngineError> {
    let pool_indices: Vec<usize> = plan
        .units
        .iter()
        .enumerate()
        .filter_map(|(i, u)| matches!(u, PlanUnit::Fused(_) | PlanUnit::Rows(_)).then_some(i))
        .collect();

    // Worker pool: one worker per device, pulling fused and row-matrix
    // units from a shared queue (dynamic load balance in host wall-clock).
    // The *modeled* makespan is computed afterwards by deterministic list
    // scheduling, so reports do not vary with host-thread timing.
    let next_unit = AtomicUsize::new(0);
    let per_device = cluster
        .try_run_on_all(|device_idx, device| {
            let mut outcomes: Vec<PoolOutcome<K>> = Vec::new();
            loop {
                let slot = next_unit.fetch_add(1, Ordering::Relaxed);
                let Some(&unit_idx) = pool_indices.get(slot) else {
                    break;
                };
                // Heterogeneous clusters (or an overridden shard
                // threshold) can hand a worker a corpus its device cannot
                // hold; that is a per-device error, not a batch panic.
                // `capacity_elems` is in u32 units, the corpus in keys.
                let check_capacity = |corpus_idx: usize, len: usize| {
                    let device_keys = capacity_in_keys::<K>(device.capacity_elems());
                    if len > device_keys {
                        Err(format!(
                            "corpus {corpus_idx} ({len} keys) exceeds this device's capacity of {device_keys} keys"
                        ))
                    } else {
                        Ok(())
                    }
                };
                match &plan.units[unit_idx] {
                    PlanUnit::Fused(unit) => {
                        let corpus = &batch.corpora()[unit.corpus];
                        check_capacity(unit.corpus, corpus.data.len())?;
                        outcomes.push(PoolOutcome::Fused(run_fused_unit(
                            device,
                            device_idx,
                            corpus.data,
                            corpus.id,
                            unit_idx,
                            unit,
                            base,
                            cache,
                        )));
                    }
                    PlanUnit::Rows(unit) => {
                        let corpus = &batch.corpora()[unit.corpus];
                        check_capacity(unit.corpus, corpus.data.len())?;
                        outcomes.push(PoolOutcome::Rows(run_rows_unit(
                            device,
                            device_idx,
                            corpus.data,
                            unit_idx,
                            unit,
                            batch.row_queries(),
                            base,
                        )));
                    }
                    PlanUnit::Sharded(_) => {
                        unreachable!("pool_indices only holds pool units")
                    }
                }
            }
            Ok(outcomes)
        })
        .map_err(|e| EngineError::Device {
            device: e.device,
            message: e.error,
        })?;

    let num_queries = batch.len();
    let mut results: Vec<Option<QueryResult<K>>> = (0..num_queries).map(|_| None).collect();
    let mut row_results: Vec<Option<RowQueryResult<K>>> =
        (0..batch.row_queries().len()).map(|_| None).collect();
    let mut phase_ms = PhaseBreakdown::default();
    let mut stats = KernelStats::default();
    let mut delegate_passes_run = 0usize;
    let mut delegate_passes_saved = 0usize;
    let mut delegate_cache = CacheReport::default();
    // Modeled cost of each fused unit, in unit order, for the deterministic
    // makespan computation below; the stage schedule rides along (cloned)
    // only when a trace sink wants spans.
    let mut unit_costs: Vec<(usize, f64, Option<StageReport>)> = Vec::new();

    for outcomes in per_device {
        for pool_outcome in outcomes {
            // One instrumentation point for both unit kinds: the unit's
            // composed stage schedule carries the shared pass, every member
            // phase (and any member-level pass rebuild), so phases,
            // counters and the unit's modeled cost are all read off it.
            let (unit_idx, unit_stages) = match &pool_outcome {
                PoolOutcome::Fused(outcome) => (outcome.unit, &outcome.unit_stages),
                PoolOutcome::Rows(outcome) => (outcome.unit, &outcome.unit_stages),
            };
            phase_ms += unit_stages.phase_breakdown();
            stats += unit_stages.stats();
            unit_costs.push((
                unit_idx,
                unit_stages.makespan_ms,
                sink.map(|_| unit_stages.clone()),
            ));
            let outcome = match pool_outcome {
                PoolOutcome::Fused(outcome) => outcome,
                PoolOutcome::Rows(outcome) => {
                    delegate_passes_run += outcome.delegate_passes;
                    for (query_idx, result) in outcome.results {
                        row_results[query_idx] = Some(result);
                    }
                    continue;
                }
            };
            let PlanUnit::Fused(unit) = &plan.units[outcome.unit] else {
                unreachable!()
            };
            let delegate_users = unit.planned.iter().filter(|p| p.use_delegates).count();
            let cacheable = batch.corpora()[unit.corpus].id.is_some();
            if outcome.delegate_pass_run {
                delegate_passes_run += 1;
                delegate_passes_saved += delegate_users.saturating_sub(1);
                if cacheable {
                    delegate_cache.misses += 1;
                }
            } else if outcome.delegate_from_cache {
                delegate_passes_saved += delegate_users;
                delegate_cache.hits += 1;
            }
            for (query_idx, predicted_recall, r) in outcome.results {
                results[query_idx] = Some(QueryResult {
                    values: r.values,
                    kth_value: r.kth_value,
                    time_ms: r.time_ms,
                    stats: r.stats,
                    breakdown: r.breakdown,
                    predicted_recall,
                    path: ExecPath::Fused { unit: outcome.unit },
                });
            }
        }
    }

    // Deterministic modeled makespan of the pool phase: list-schedule the
    // fused units in plan order onto the workers, each unit going to the
    // earliest-available (least-loaded) worker — exactly what the shared
    // queue does in modeled time, but independent of host-thread timing.
    unit_costs.sort_unstable_by_key(|&(unit, _, _)| unit);
    let mut worker_loads = vec![0.0f64; cluster.num_devices()];
    let mut worker_units = vec![0usize; cluster.num_devices()];
    for (_, cost, traced) in &unit_costs {
        let earliest = worker_loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
            .map(|(i, _)| i)
            .expect("cluster has devices");
        if let (Some(sink), Some(report)) = (sink, traced) {
            // Replay the unit's stages on the modeled timeline: shifted to
            // this worker's start offset and re-tagged with the *modeled*
            // worker (the wall-clock queue may have used a different one).
            let mut replay = report.clone();
            for s in &mut replay.stages {
                s.resource = Resource::Compute(earliest);
            }
            replay.record_shifted(sink, worker_loads[earliest]);
        }
        worker_loads[earliest] += cost;
        worker_units[earliest] += 1;
    }
    let pool_ms = worker_loads.iter().fold(0.0f64, |a, &b| a.max(b));

    // Sharded queries: each takes the whole cluster, so they run after the
    // pool phase, serially, through the distributed stage graph
    // (double-buffered chunked ingestion). Sharded execution cannot yet
    // share a delegate pass between *different* queries (the distributed
    // pipeline has no planned-query seam — see the crate docs), but
    // *identical* queries are answered once and the result is reused;
    // engine-level time and counters charge each distinct selection exactly
    // once. Approximate sharded queries run the approximate pipeline on
    // every sub-vector, so the recall target is met per shard (and
    // therefore overall).
    type ShardKey = (
        usize,
        Direction,
        usize,
        drtopk_core::InnerAlgorithm,
        drtopk_core::Mode,
        drtopk_core::PathHint,
    );
    struct ShardAnswer<K: TopKKey> {
        values: Vec<K>,
        kth_value: K,
        total_ms: f64,
        stats: KernelStats,
        predicted_recall: f64,
        breakdown: PhaseBreakdown,
    }
    let mut answered: std::collections::HashMap<ShardKey, ShardAnswer<K>> =
        std::collections::HashMap::new();
    let mut sharded_ms = 0.0f64;
    let mut sharded_serial_ms = 0.0f64;
    for unit in &plan.units {
        let PlanUnit::Sharded(sharded) = unit else {
            continue;
        };
        let q = batch.queries()[sharded.query];
        let key: ShardKey = (q.corpus, q.direction, q.k, q.inner, q.mode, q.path);
        if let std::collections::hash_map::Entry::Vacant(slot) = answered.entry(key) {
            let corpus = &batch.corpora()[q.corpus];
            // The path hint rides into the distributed run: each device's
            // local pipeline resolves `Auto` against its own profile and
            // shard size, so a heterogeneous cluster may mix paths.
            let cfg = DrTopKConfig {
                inner: q.inner,
                mode: q.mode,
                path: q.path,
                ..base.clone()
            };
            let d = match q.direction {
                Direction::Largest => distributed_dr_topk(cluster, corpus.data, q.k, &cfg),
                Direction::Smallest => {
                    distributed_dr_topk(cluster, as_desc(corpus.data), q.k, &cfg).into_native()
                }
            };
            if let Some(sink) = sink {
                // Sharded runs own the whole cluster after the pool phase;
                // their spans keep the distributed resource tracks
                // (compute / copy lanes / interconnect per device).
                d.stages.record_shifted(sink, pool_ms + sharded_ms);
            }
            sharded_ms += d.total_ms;
            sharded_serial_ms += d.stages.serial_ms();
            stats += d.stats;
            // Sharded phases report compute and data movement separately
            // (the distributed breakdown keeps reload/gather time under
            // `transfer_ms` instead of folding it into compute).
            phase_ms += d.breakdown;
            slot.insert(ShardAnswer {
                values: d.values,
                kth_value: d.kth_value,
                total_ms: d.total_ms,
                stats: d.stats,
                predicted_recall: d.predicted_recall,
                breakdown: d.breakdown,
            });
        }
        let answer = answered.get(&key).expect("answered above");
        results[sharded.query] = Some(QueryResult {
            values: answer.values.clone(),
            kth_value: answer.kth_value,
            time_ms: answer.total_ms,
            stats: answer.stats,
            breakdown: answer.breakdown,
            predicted_recall: answer.predicted_recall,
            path: ExecPath::Sharded {
                devices: cluster.num_devices(),
            },
        });
    }

    Ok(ExecOutput {
        results: results
            .into_iter()
            .map(|r| r.expect("every query is covered by exactly one plan unit"))
            .collect(),
        row_results: row_results
            .into_iter()
            .map(|r| r.expect("every row query is covered by exactly one row unit"))
            .collect(),
        phase_ms,
        stats,
        delegate_passes_run,
        delegate_passes_saved,
        delegate_cache,
        pool_ms,
        sharded_ms,
        sharded_serial_ms,
        worker_loads,
        worker_units,
    })
}
