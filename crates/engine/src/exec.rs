//! Plan execution: a worker pool with one [`Device`] per worker for fused
//! units, and the whole-cluster distributed path for sharded queries.
//!
//! Fused units are pulled from a shared atomic queue (dynamic load
//! balancing: a worker that drew a cheap unit immediately takes the next
//! one). Each unit executes as a **stage graph** on its worker's device:
//! pass → shared first top-k → per-member narrow / concatenate / second
//! top-k. The shared delegate-pass stage is built from the corpus, or
//! taken from the delegate cache by a lookup the calling thread resolves in
//! plan order before dispatch: an exact entry needs no pass stage, and a
//! finer entry of the same corpus is coarsened by a pass labeled
//! "coarsened delegate pass" that reads its delegates instead of the
//! corpus. When two or more exact members run on it, one shared
//! first top-k selects at their largest k (the paper's first top-k finds
//! every winner, so it holds each smaller k's answer). Then every member
//! query runs its own pipeline stages — themselves scheduled by the core
//! stage executor inside [`dr_topk_planned`] — and those exact members
//! narrow the shared first top-k to their k in one pass instead of
//! selecting again. The unit's
//! [`StageReport`] is the engine's single instrumentation point: per-phase
//! times, the compute/transfer split and the modeled unit cost are all
//! derived from it instead of being hand-accumulated at three sites.
//! Outcomes are folded in unit order after the pool, which is also when
//! passes built from the corpus enter the cache (coarsened ones do not),
//! so cache counts, LRU state and every reported sum are independent of
//! host-thread timing.
//! Sharded queries run the distributed stage graph (double-buffered chunk
//! ingestion) and report their breakdown and overlap the same way. Worker
//! failures are surfaced per device through
//! [`GpuCluster::try_run_on_all`] instead of poisoning the batch.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use drtopk_core::{
    build_delegate_vector, capacity_in_keys, coarsen_delegate_vector, debug_assert_verified,
    distributed_dr_topk, dr_topk_planned, first_topk, topk_rows_on, DelegateVector, DrTopKConfig,
    DrTopKResult, ExecutedStage, FirstTopK, PhaseBreakdown, PlannedQuery, ReloadSchedule, Resource,
    RowMatrix, Shared, StageGraph, StageId, StageKind, StageOutcome, StageReport,
};
use drtopk_obs::TraceSink;
use gpu_sim::{Device, GpuCluster, KernelStats};
use parking_lot::Mutex;
use topk_baselines::TopKKey;

use crate::engine::EngineError;
use crate::plan::{CachedDelegates, ExecutionPlan, FusedUnit, PlanCache, PlanUnit, RowUnit};
use crate::query::{Query, QueryBatch, RowQuery};
use crate::report::{CacheReport, ExecPath, QueryResult, RowQueryResult};

/// What executing one fused unit produced.
struct FusedOutcome<K: TopKKey> {
    unit: usize,
    /// `(query index, modeled predicted recall, result)` per member.
    results: Vec<(usize, f64, DrTopKResult<K>)>,
    /// The unit's composed stage schedule: the shared delegate pass (when
    /// one was built) and the shared first top-k (when one ran), followed
    /// by every member's stages, serial on the worker's device.
    unit_stages: StageReport,
    /// The shared pass this unit built from the corpus, for the caller to
    /// cache. A unit that needs delegates and built none took them from the
    /// cache, as they were or coarsened.
    built: Option<Arc<DelegateVector<K>>>,
    /// True when the unit's pass coarsened a cached finer vector.
    coarsened: bool,
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
/// The macro graph's first stages are the unit's shared work, one per
/// entry of `shared` (the delegate pass when one ran, then the shared first
/// top-k when one ran). They keep their place and take the kind `shared`
/// gives them: in the macro graph every shared stage is tagged as the
/// unit's pass, the one kind a member macro stage may wait on. Every later
/// macro stage is one member, and is replaced here by that member's own
/// executed pipeline stages, shifted onto the unit's serial timeline and
/// re-tagged with the worker's device. Dependencies are remapped into the
/// composed index space: a member's root stages wait on whatever its macro
/// stage waited on.
fn splice_unit_stages<K: TopKKey>(
    macro_report: &StageReport,
    shared: &[StageKind],
    device: usize,
    results: &[DrTopKResult<K>],
) -> StageReport {
    let mut stages: Vec<ExecutedStage> = Vec::new();
    let (shared_stages, member_stages) = macro_report.stages.split_at(shared.len());
    for (macro_stage, &kind) in shared_stages.iter().zip(shared) {
        // The shared stages lead the composed list, so their indices and
        // dependencies carry over unchanged.
        stages.push(ExecutedStage {
            kind,
            resource: Resource::Compute(device),
            ..macro_stage.clone()
        });
    }
    for (macro_stage, member) in member_stages.iter().zip(results) {
        let base_idx = stages.len();
        for inner in &member.stages.stages {
            let deps = if inner.deps.is_empty() {
                macro_stage.deps.clone()
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
    debug_assert_verified("spliced unit stage report", || report.verify());
    report
}

/// Run one fused unit as a real stage graph on its worker's device: the
/// shared delegate pass (when `cached` holds no exact vector) is the root
/// stage, built from the corpus or coarsened from a cached finer vector;
/// when two or more exact members run on the shared delegates, one shared
/// first top-k at their largest k follows it; every member query is a
/// dependent stage on the same device, and those exact members narrow the
/// shared first top-k instead of selecting again. The graph is
/// single-resource, so the executor runs it inline on the calling worker
/// thread; the member macro stages are then spliced into a unit-level
/// report via [`splice_unit_stages`]. The outcome carries the pass it
/// built from the corpus, if any.
fn run_fused_unit<K: TopKKey>(
    device: &Device,
    device_idx: usize,
    data: &[K],
    cached: Option<CachedDelegates<K>>,
    unit_idx: usize,
    unit: &FusedUnit,
    base: &DrTopKConfig,
) -> FusedOutcome<K> {
    let beta = unit.beta;
    // An exact cache hit means the pass disappears from the batch entirely
    // (no pass stage in the graph). Otherwise the graph's first stage runs
    // it: a coarsening of a cached finer vector, which reads that vector's
    // delegates instead of |V|, or a build from the corpus.
    let (ready, finer) = match cached {
        Some(CachedDelegates::Exact(vector)) => (Some(vector), None),
        Some(CachedDelegates::Finer(vector)) => (None, Some(vector)),
        None => (None, None),
    };
    let runs_pass = unit.needs_delegates && ready.is_none();
    let coarsened = runs_pass && finer.is_some();
    // A member may only run against the shared pass when the pass covers
    // its plan: equal β for exact members, a budget at least the member's
    // own for approximate ones (more candidates only raise recall). The
    // rare member that fell back to an incompatible exact plan builds its
    // own pass.
    let covered = |planned: &PlannedQuery| {
        if planned.config.mode.strict_target().is_some() {
            beta >= planned.config.beta
        } else {
            beta == planned.config.beta
        }
    };
    // Exact members on the shared delegates differ only in k, so one first
    // top-k at their largest k holds every one of their answers. A lone
    // such member selects for itself, as a narrowing would only add a pass.
    let selects = |planned: &PlannedQuery| {
        unit.needs_delegates
            && planned.use_delegates
            && planned.config.mode.strict_target().is_none()
            && covered(planned)
    };
    let selecting: Vec<&PlannedQuery> = unit.planned.iter().filter(|p| selects(p)).collect();
    let shares_first = selecting.len() >= 2;

    struct UnitCtx<K: TopKKey> {
        delegates: Mutex<Option<Arc<DelegateVector<K>>>>,
        first: OnceLock<FirstTopK<K>>,
        members: Vec<Mutex<Option<DrTopKResult<K>>>>,
    }
    let ctx = UnitCtx::<K> {
        delegates: Mutex::new(ready),
        first: OnceLock::new(),
        members: unit.planned.iter().map(|_| Mutex::new(None)).collect(),
    };

    let mut graph: StageGraph<'_, UnitCtx<K>> = StageGraph::new();
    // The kinds of the shared stages, in graph order, for the splice.
    let mut shared_kinds: Vec<StageKind> = Vec::new();
    // The one shared pass is the unit's first stage; its kind mirrors what
    // the pass is (candidate generation for approximate groups, delegate
    // construction otherwise).
    let pass_kind = if unit.mode.strict_target().is_some() {
        StageKind::BucketTopKPrime
    } else {
        StageKind::DelegateConstruction
    };
    let mut pass_deps: Vec<StageId> = Vec::new();
    if runs_pass {
        shared_kinds.push(pass_kind);
        pass_deps.push(graph.add_labeled(
            pass_kind,
            if coarsened {
                COARSENED_PASS
            } else {
                "shared delegate pass"
            },
            Resource::Compute(device_idx),
            &[],
            move |ctx: &UnitCtx<K>| {
                let built = Arc::new(match finer {
                    Some(finer) => {
                        coarsen_delegate_vector(device, &finer, data.len(), unit.alpha, beta)
                    }
                    None => build_delegate_vector(
                        device,
                        data,
                        unit.alpha,
                        beta,
                        base.construction,
                        unit.direction,
                    ),
                });
                let outcome = StageOutcome {
                    stats: built.stats,
                    time_ms: built.time_ms,
                };
                *ctx.delegates.lock() = Some(built);
                outcome
            },
        ));
    }
    let mut select_deps = pass_deps.clone();
    if shares_first {
        let k_max = selecting.iter().map(|p| p.k).max().unwrap_or(0);
        let skip_last_pass = selecting[0].config.skip_last_first_pass;
        shared_kinds.push(StageKind::FirstTopK);
        // Tagged as the pass here: a member macro stage (a second top-k to
        // the verifier) may wait on a pass but not on a first top-k. The
        // splice restores `FirstTopK`.
        select_deps = vec![graph.add_labeled(
            pass_kind,
            SHARED_FIRST_TOPK,
            Resource::Compute(device_idx),
            &pass_deps,
            move |ctx: &UnitCtx<K>| {
                let delegates = ctx
                    .delegates
                    .lock()
                    .clone()
                    .expect("the unit has delegates");
                let first = first_topk(device, &delegates, k_max, skip_last_pass);
                let outcome = StageOutcome {
                    stats: first.stats,
                    time_ms: first.time_ms,
                };
                ctx.first
                    .set(first)
                    .expect("one shared first top-k per unit");
                outcome
            },
        )];
    }
    for (m, planned) in unit.planned.iter().enumerate() {
        let narrows = shares_first && selects(planned);
        graph.add_labeled(
            StageKind::SecondTopK,
            format!("member {m}"),
            Resource::Compute(device_idx),
            if narrows { &select_deps } else { &pass_deps },
            move |ctx: &UnitCtx<K>| {
                let delegates = ctx.delegates.lock().clone();
                let shared = delegates.as_deref().filter(|_| covered(planned)).map(|d| {
                    match ctx.first.get().filter(|_| narrows) {
                        Some(first) => Shared::Selected(d, first),
                        None => Shared::Delegates(d),
                    }
                });
                let r = dr_topk_planned(device, data, shared, planned);
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
    let UnitCtx {
        delegates, members, ..
    } = ctx;
    let results: Vec<DrTopKResult<K>> = members
        .into_iter()
        .map(|slot| slot.into_inner().expect("member stage ran"))
        .collect();
    let unit_stages = splice_unit_stages(&macro_report, &shared_kinds, device_idx, &results);
    // A coarsened vector stays out of the cache: its source serves it.
    let built = if runs_pass && !coarsened {
        delegates.into_inner()
    } else {
        None
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
        built,
        coarsened,
    }
}

/// Label of a fused unit's shared first top-k stage.
const SHARED_FIRST_TOPK: &str = "shared first top-k";

/// Label of a fused unit's pass when it coarsens a cached finer vector.
const COARSENED_PASS: &str = "coarsened delegate pass";

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
    debug_assert_verified("spliced row unit stage report", || report.verify());
    report
}

/// Run one row-matrix unit on its assigned worker device: each member
/// reinterprets the corpus as its own `rows × cols` matrix and runs the
/// row-block stage graph through [`topk_rows_on`] in its own direction.
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
            direction: q.direction,
            ..base.clone()
        };
        let matrix = RowMatrix::new(data, q.rows, q.cols);
        let r = topk_rows_on(&[device], matrix, &q.ks, &cfg, None);
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

    // Every fused unit's delegate-cache lookup is resolved here, on the
    // calling thread in plan order, and the passes built on a miss are
    // inserted in unit order after the pool: hits, misses and LRU recency
    // never depend on which worker reaches the cache first.
    let cached: Vec<Option<CachedDelegates<K>>> = {
        let mut cache = cache.lock();
        pool_indices
            .iter()
            .map(|&unit_idx| match &plan.units[unit_idx] {
                PlanUnit::Fused(unit) if unit.needs_delegates => {
                    let corpus = &batch.corpora()[unit.corpus];
                    let len = corpus.data.len();
                    cache.get_delegates(corpus.id, len, unit.alpha, unit.beta, unit.direction)
                }
                _ => None,
            })
            .collect()
    };

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
                            cached[slot].clone(),
                            unit_idx,
                            unit,
                            base,
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
    let mut unit_costs: Vec<(f64, Option<StageReport>)> = Vec::new();

    // Fold the outcomes in unit order, whichever worker ran them, so the
    // cache inserts and every floating-point sum happen in plan order.
    let mut outcomes: Vec<PoolOutcome<K>> = per_device.into_iter().flatten().collect();
    outcomes.sort_unstable_by_key(|o| match o {
        PoolOutcome::Fused(outcome) => outcome.unit,
        PoolOutcome::Rows(outcome) => outcome.unit,
    });
    for pool_outcome in outcomes {
        // One instrumentation point for both unit kinds: the unit's
        // composed stage schedule carries the shared pass, every member
        // phase (and any member-level pass rebuild), so phases, counters
        // and the unit's modeled cost are all read off it.
        let unit_stages = match &pool_outcome {
            PoolOutcome::Fused(outcome) => &outcome.unit_stages,
            PoolOutcome::Rows(outcome) => &outcome.unit_stages,
        };
        phase_ms += unit_stages.phase_breakdown();
        stats += unit_stages.stats();
        unit_costs.push((unit_stages.makespan_ms, sink.map(|_| unit_stages.clone())));
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
        let corpus = &batch.corpora()[unit.corpus];
        if let Some(pass) = outcome.built {
            delegate_passes_run += 1;
            delegate_passes_saved += delegate_users.saturating_sub(1);
            delegate_cache.misses += 1;
            let (len, alpha, beta) = (corpus.data.len(), unit.alpha, unit.beta);
            cache
                .lock()
                .put_delegates(corpus.id, len, alpha, beta, pass);
        } else if unit.needs_delegates {
            delegate_passes_saved += delegate_users;
            delegate_cache.hits += 1;
            delegate_cache.coarsened += u64::from(outcome.coarsened);
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

    // Deterministic modeled makespan of the pool phase: list-schedule the
    // fused units in plan order onto the workers, each unit going to the
    // earliest-available (least-loaded) worker — exactly what the shared
    // queue does in modeled time, but independent of host-thread timing.
    let mut worker_loads = vec![0.0f64; cluster.num_devices()];
    let mut worker_units = vec![0usize; cluster.num_devices()];
    for (cost, traced) in &unit_costs {
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
    let mut answered: HashMap<Query, QueryResult<K>> = HashMap::new();
    let mut sharded_ms = 0.0f64;
    let mut sharded_serial_ms = 0.0f64;
    for unit in &plan.units {
        let PlanUnit::Sharded(sharded) = unit else {
            continue;
        };
        let q = batch.queries()[sharded.query];
        if let Entry::Vacant(slot) = answered.entry(q) {
            let corpus = &batch.corpora()[q.corpus];
            // The path hint rides into the distributed run: each device's
            // local pipeline resolves `Auto` against its own profile and
            // shard size, so a heterogeneous cluster may mix paths.
            let cfg = DrTopKConfig {
                inner: q.inner,
                mode: q.mode,
                path: q.path,
                direction: q.direction,
                ..base.clone()
            };
            let schedule = ReloadSchedule::default();
            let d = distributed_dr_topk(cluster, corpus.data, q.k, &cfg, schedule, None);
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
            slot.insert(QueryResult {
                values: d.values,
                kth_value: d.kth_value,
                time_ms: d.total_ms,
                stats: d.stats,
                breakdown: d.breakdown,
                predicted_recall: d.predicted_recall,
                path: ExecPath::Sharded {
                    devices: cluster.num_devices(),
                },
            });
        }
        results[sharded.query] = Some(answered[&q].clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_core::{ChosenPath, Direction, Mode, PathHint};
    use gpu_sim::DeviceSpec;
    use topk_baselines::{reference_topk, reference_topk_min};

    #[test]
    fn a_four_member_exact_unit_runs_one_shared_first_topk() {
        let device = Device::new(DeviceSpec::v100s());
        let data = topk_datagen::uniform(1 << 16, 5);
        let base = DrTopKConfig::default();
        let ks = [1, 40, 40, 300];
        for direction in [Direction::Largest, Direction::Smallest] {
            let config = DrTopKConfig {
                alpha: Some(8),
                path: PathHint::Delegate,
                direction,
                ..base.clone()
            };
            let planned: Vec<PlannedQuery> = ks
                .iter()
                .map(|&k| PlannedQuery::plan(data.len(), k, &config))
                .collect();
            assert!(planned.iter().all(|p| p.use_delegates));
            let unit = FusedUnit {
                corpus: 0,
                direction,
                mode: Mode::Exact,
                queries: (0..ks.len()).collect(),
                alpha: 8,
                beta: base.beta,
                planned,
                needs_delegates: true,
                path: ChosenPath::Delegate,
            };
            let out = run_fused_unit(&device, 0, &data, None, 0, &unit, &base);

            let report = &out.unit_stages;
            let diags = report.verify();
            assert!(
                diags.is_empty(),
                "{direction:?}: spliced unit report: {diags:?}"
            );
            let shared: Vec<&ExecutedStage> = report
                .stages
                .iter()
                .filter(|s| s.label == SHARED_FIRST_TOPK)
                .collect();
            assert_eq!(shared.len(), 1, "{direction:?}: one shared selection");
            assert_eq!(shared[0].kind, StageKind::FirstTopK);
            assert_eq!(shared[0].deps, vec![0], "it follows the shared pass");
            let first_topk_stages = report
                .stages
                .iter()
                .filter(|s| s.kind == StageKind::FirstTopK)
                .count();
            assert_eq!(first_topk_stages, 1 + ks.len(), "one narrowing per member");

            for ((_, _, r), &k) in out.results.iter().zip(&ks) {
                let diags = r.stages.verify();
                assert!(
                    diags.is_empty(),
                    "{direction:?} k={k}: member report: {diags:?}"
                );
                assert!(r.time_ms > 0.0);
                let want = match direction {
                    Direction::Largest => reference_topk(&data, k),
                    Direction::Smallest => reference_topk_min(&data, k),
                };
                assert_eq!(r.values, want, "{direction:?} k={k}");
            }
        }
    }
}
