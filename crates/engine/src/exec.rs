//! Plan execution: a worker pool with one [`Device`] per worker for fused
//! units, and the whole-cluster distributed path for sharded queries.
//!
//! Fused units are pulled from a shared atomic queue (dynamic load
//! balancing: a worker that drew a cheap unit immediately takes the next
//! one). A unit is strictly serial on its worker's device, so it runs as
//! plain calls: the shared delegate pass, then the shared first top-k,
//! then every member's [`dr_topk_planned`]. The pass is built from the
//! corpus, or taken from the delegate cache by a lookup the calling thread
//! resolves in plan order before dispatch: an exact entry needs no pass,
//! and a finer entry of the same corpus is coarsened by a pass labeled
//! "coarsened delegate pass" that reads its delegates instead of the
//! corpus. When two or more exact members run on it, one shared first
//! top-k selects at their largest k (the paper's first top-k finds every
//! winner, so it holds each smaller k's answer), and those members narrow
//! it to their k in one pass instead of selecting again. One [`Serial`]
//! records a unit's steps back to back into its [`StageReport`], for fused
//! and row units alike. That report is the
//! engine's single instrumentation point: per-phase times, the
//! compute/transfer split and the modeled unit cost are all derived from
//! it. Outcomes are folded in unit order after the pool, which is also
//! when passes built from the corpus are offered to the cache (coarsened
//! ones are not), so cache counts, admission decisions and every reported
//! sum are independent of host-thread timing.
//! Sharded queries run the distributed runner (double-buffered chunk
//! ingestion) and report their breakdown and overlap the same way. Worker
//! failures are surfaced per device through
//! [`try_run_on_each`] instead of poisoning the batch.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drtopk_core::{
    build_delegate_vector, capacity_in_keys, coarsen_delegate_vector, distributed_dr_topk,
    dr_topk_planned, first_topk, topk_rows_on, DelegateVector, DrTopKConfig, DrTopKResult,
    PhaseBreakdown, PlannedQuery, ReloadSchedule, Resource, RowMatrix, Serial, Shared, StageKind,
    StageOutcome, StageReport,
};
use drtopk_obs::TraceSink;
use gpu_sim::{try_run_on_each, Device, GpuCluster, KernelStats};
use parking_lot::Mutex;
use topk_baselines::TopKKey;

use crate::engine::EngineError;
use crate::plan::{
    Admission, CachedDelegates, ExecutionPlan, FusedUnit, PlanCache, PlanUnit, RowUnit,
};
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

/// Run one fused unit on its worker's device as a sequence of calls: the
/// shared delegate pass (when `cached` holds no exact vector), built from
/// the corpus or coarsened from a cached finer vector; then, when two or
/// more exact members run on the shared delegates, one shared first top-k
/// at their largest k; then every member's [`dr_topk_planned`], those exact
/// members narrowing the shared first top-k instead of selecting again.
/// One [`Serial`] records the unit's report: the pass and the shared first
/// top-k as stages, every member's own report appended, waiting on the
/// shared first top-k when the member narrows it, otherwise on the pass.
/// The outcome carries the pass the unit built from the corpus, if any.
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
    // (no pass stage). Otherwise the unit's first stage runs it: a coarsening
    // of a cached finer vector, which reads that vector's delegates instead
    // of |V|, or a build from the corpus.
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

    let mut serial = Serial::new(device_idx);
    // Members that do not narrow a shared first top-k wait on the pass.
    let pass_deps: &[usize] = if runs_pass { &[0] } else { &[] };
    let delegates = if runs_pass {
        // The pass's kind mirrors what it is: candidate generation for
        // approximate groups, delegate construction otherwise.
        let pass_kind = if unit.mode.strict_target().is_some() {
            StageKind::BucketTopKPrime
        } else {
            StageKind::DelegateConstruction
        };
        let label = if coarsened {
            COARSENED_PASS
        } else {
            SHARED_PASS
        };
        let built = serial.stage(pass_kind, label, || {
            let built = match &finer {
                Some(finer) => coarsen_delegate_vector(device, finer, data.len(), unit.alpha, beta),
                None => {
                    let (alpha, direction) = (unit.alpha, unit.direction);
                    build_delegate_vector(device, data, alpha, beta, base.construction, direction)
                }
            };
            let outcome = StageOutcome {
                stats: built.stats,
                time_ms: built.time_ms,
            };
            (built, outcome)
        });
        Some(Arc::new(built))
    } else {
        ready
    };
    // The shared selection reads the shared delegates: the pass's, or an
    // exact cache entry's.
    let first = match delegates.as_deref() {
        Some(shared) if selecting.len() >= 2 => {
            let k_max = selecting.iter().map(|p| p.k).max().unwrap_or(0);
            let skip_last_pass = selecting[0].config.skip_last_first_pass;
            Some(serial.stage(StageKind::FirstTopK, SHARED_FIRST_TOPK, || {
                let first = first_topk(device, shared, k_max, skip_last_pass);
                let outcome = StageOutcome {
                    stats: first.stats,
                    time_ms: first.time_ms,
                };
                (first, outcome)
            }))
        }
        _ => None,
    };
    let select_deps = [pass_deps.len()];
    let mut results = Vec::with_capacity(unit.planned.len());
    for (&qi, planned) in unit.queries.iter().zip(&unit.planned) {
        let narrows = first.is_some() && selects(planned);
        let shared = delegates.as_deref().filter(|_| covered(planned)).map(|d| {
            match first.as_ref().filter(|_| narrows) {
                Some(first) => Shared::Selected(d, first),
                None => Shared::Delegates(d),
            }
        });
        let deps = if narrows { &select_deps[..] } else { pass_deps };
        let r = serial.append(deps, || {
            let mut r = dr_topk_planned(device, data, shared, planned);
            let stages = std::mem::take(&mut r.stages);
            (r, stages)
        });
        results.push((qi, planned.predicted_recall, r));
    }
    FusedOutcome {
        unit: unit_idx,
        results,
        unit_stages: serial.finish(),
        // A coarsened vector stays out of the cache: its source serves it.
        built: delegates.filter(|_| runs_pass && !coarsened),
        coarsened,
    }
}

/// Label of a fused unit's pass when it builds from the corpus.
const SHARED_PASS: &str = "shared delegate pass";

/// Label of a fused unit's shared first top-k stage.
const SHARED_FIRST_TOPK: &str = "shared first top-k";

/// Label of a fused unit's pass when it coarsens a cached finer vector.
const COARSENED_PASS: &str = "coarsened delegate pass";

/// Run one row-matrix unit on its assigned worker device: each member
/// reinterprets the corpus as its own `rows × cols` matrix and runs the
/// row blocks through [`topk_rows_on`] in its own direction.
/// The members run back to back; each member's report is appended, whole,
/// to the unit's [`Serial`] report.
fn run_rows_unit<K: TopKKey>(
    device: &Device,
    device_idx: usize,
    data: &[K],
    unit_idx: usize,
    unit: &RowUnit,
    row_queries: &[RowQuery],
    base: &DrTopKConfig,
) -> RowsOutcome<K> {
    let mut serial = Serial::new(device_idx);
    let mut results: Vec<(usize, RowQueryResult<K>)> = Vec::with_capacity(unit.members.len());
    let mut delegate_passes = 0usize;
    for &qi in &unit.members {
        let q = &row_queries[qi];
        let cfg = DrTopKConfig {
            mode: q.mode,
            direction: q.direction,
            ..base.clone()
        };
        let matrix = RowMatrix::new(data, q.rows, q.cols);
        let r = serial.append(&[], || {
            let mut r = topk_rows_on(&[device], matrix, &q.ks, &cfg, None);
            let stages = std::mem::take(&mut r.stages);
            (r, stages)
        });
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
    }
    RowsOutcome {
        unit: unit_idx,
        results,
        unit_stages: serial.finish(),
        delegate_passes,
    }
}

/// Execute a plan over the cluster.
///
/// When `sink` is present, every unit's recorded stage schedule is
/// re-emitted as trace spans on the *modeled* batch timeline: fused units
/// at their deterministic list-schedule offsets (re-tagged with the modeled
/// worker's device so trace tracks match the schedule the report
/// describes), sharded runs after the pool phase. Tracing moves each unit's
/// report out of its outcome; with no sink attached nothing is kept.
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
    // offered to the cache in unit order after the pool: hits, misses,
    // recency, the frequency sketch and every admission never depend on
    // which worker reaches the cache first.
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
    let devices: Vec<&Device> = cluster.devices().iter().collect();
    let per_device = try_run_on_each(&devices, |device_idx, device| {
        let mut outcomes: Vec<PoolOutcome<K>> = Vec::new();
        loop {
            let slot = next_unit.fetch_add(1, Ordering::Relaxed);
            let Some(&unit_idx) = pool_indices.get(slot) else {
                break;
            };
            // Heterogeneous clusters, and row queries (never sharded),
            // can hand a worker a corpus its device cannot hold; that is
            // a per-device error, not a batch panic.
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
    // Modeled cost of each pool unit, in unit order, for the deterministic
    // makespan computation below; the stage schedule rides along (moved
    // out of its outcome) only when a trace sink wants spans.
    let mut unit_costs: Vec<(f64, Option<StageReport>)> = Vec::new();

    // Fold the outcomes in unit order, whichever worker ran them, so the
    // cache inserts and every floating-point sum happen in plan order.
    let mut outcomes: Vec<PoolOutcome<K>> = per_device.into_iter().flatten().collect();
    outcomes.sort_unstable_by_key(|o| match o {
        PoolOutcome::Fused(outcome) => outcome.unit,
        PoolOutcome::Rows(outcome) => outcome.unit,
    });
    for mut pool_outcome in outcomes {
        // One instrumentation point for both unit kinds: the unit's
        // recorded stage schedule carries the shared pass, every member
        // phase (and any member-level pass rebuild), so phases, counters
        // and the unit's modeled cost are all read off it.
        let unit_stages = match &mut pool_outcome {
            PoolOutcome::Fused(outcome) => &mut outcome.unit_stages,
            PoolOutcome::Rows(outcome) => &mut outcome.unit_stages,
        };
        phase_ms += unit_stages.phase_breakdown();
        stats += unit_stages.stats();
        let cost = unit_stages.makespan_ms;
        unit_costs.push((cost, sink.map(|_| std::mem::take(unit_stages))));
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
            match cache
                .lock()
                .put_delegates(corpus.id, len, alpha, beta, pass)
            {
                Admission::Inserted { evicted } => delegate_cache.evicted += evicted as u64,
                Admission::Rejected => delegate_cache.rejected += 1,
            }
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
    for (cost, traced) in unit_costs {
        let earliest = worker_loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
            .map(|(i, _)| i)
            .expect("cluster has devices");
        if let (Some(sink), Some(mut report)) = (sink, traced) {
            // Replay the unit's stages on the modeled timeline: shifted to
            // this worker's start offset and re-tagged with the *modeled*
            // worker (the wall-clock queue may have used a different one).
            for s in &mut report.stages {
                s.resource = Resource::Compute(earliest);
            }
            report.record_shifted(sink, worker_loads[earliest]);
        }
        worker_loads[earliest] += cost;
        worker_units[earliest] += 1;
    }
    let pool_ms = worker_loads.iter().fold(0.0f64, |a, &b| a.max(b));

    // Sharded queries: each takes the whole cluster, so they run after the
    // pool phase, serially, through the distributed runner
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

    /// Runs the same four exact members on a cold corpus, on an exact
    /// cached vector (no pass stage) and on a finer cached vector (a
    /// coarsening pass stage), in both directions, and pins the recorded
    /// report: labels, kinds, dependency wiring, and every modeled start and
    /// the makespan as the in-order sum of the steps' times.
    #[test]
    fn a_four_member_exact_unit_runs_one_shared_first_topk() {
        let device = Device::new(DeviceSpec::v100s());
        let data = topk_datagen::uniform(1 << 16, 5);
        let base = DrTopKConfig::default();
        let (ks, alpha, beta) = ([1, 40, 40, 300], 8, base.beta);
        for direction in [Direction::Largest, Direction::Smallest] {
            let config = DrTopKConfig {
                alpha: Some(alpha),
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
                alpha,
                beta,
                planned,
                needs_delegates: true,
                path: ChosenPath::Delegate,
            };
            let build = |alpha| {
                let built = build_delegate_vector(
                    &device,
                    &data,
                    alpha,
                    beta,
                    base.construction,
                    direction,
                );
                Arc::new(built)
            };
            let (fresh, finer) = (build(alpha), build(alpha - 2));
            let coarse_ms =
                coarsen_delegate_vector(&device, &finer, data.len(), alpha, beta).time_ms;
            // A coarsened vector equals a fresh build, so one selection time
            // serves every case.
            let first_ms = first_topk(&device, &fresh, 300, config.skip_last_first_pass).time_ms;
            let cases = [
                ("cold", None, Some((SHARED_PASS, fresh.time_ms))),
                ("exact", Some(CachedDelegates::Exact(fresh.clone())), None),
                (
                    "finer",
                    Some(CachedDelegates::Finer(finer)),
                    Some((COARSENED_PASS, coarse_ms)),
                ),
            ];
            for (case, cached, pass) in cases {
                let out = run_fused_unit(&device, 0, &data, cached, 0, &unit, &base);
                let ctx = format!("{direction:?} {case}");
                assert_eq!(out.built.is_some(), case == "cold", "{ctx}");
                assert_eq!(out.coarsened, case == "finer", "{ctx}");
                let report = &out.unit_stages;
                let diags = report.verify();
                assert!(diags.is_empty(), "{ctx}: composed unit report: {diags:?}");

                // The pass (when one runs), then the shared first top-k.
                let mut sum_ms = 0.0f64;
                let passes = usize::from(pass.is_some());
                if let Some((label, pass_ms)) = pass {
                    let stage = &report.stages[0];
                    assert_eq!(
                        (stage.label.as_str(), stage.kind),
                        (label, StageKind::DelegateConstruction)
                    );
                    assert!(stage.deps.is_empty(), "{ctx}");
                    sum_ms += pass_ms;
                }
                let shared = &report.stages[passes];
                assert_eq!(
                    (shared.label.as_str(), shared.kind),
                    (SHARED_FIRST_TOPK, StageKind::FirstTopK)
                );
                assert_eq!(shared.deps, (0..passes).collect::<Vec<_>>(), "{ctx}");
                assert_eq!(shared.start_ms.to_bits(), sum_ms.to_bits(), "{ctx}");
                sum_ms += first_ms;

                // Each member narrows the shared selection, concatenates and
                // runs its second top-k, starting where the last step ended.
                let members = report.stages[passes + 1..].chunks(3);
                assert_eq!(members.len(), ks.len(), "{ctx}");
                for (m, (member, ((_, _, r), &k))) in
                    members.zip(out.results.iter().zip(&ks)).enumerate()
                {
                    let kinds = member.iter().map(|s| s.kind).collect::<Vec<_>>();
                    let root = passes + 1 + 3 * m;
                    assert_eq!(
                        kinds,
                        [
                            StageKind::FirstTopK,
                            StageKind::Concatenate,
                            StageKind::SecondTopK
                        ]
                    );
                    assert_eq!(member[0].deps, vec![passes], "{ctx} member {m}");
                    assert_eq!(
                        (&member[1].deps, &member[2].deps),
                        (&vec![root], &vec![root + 1])
                    );
                    assert_eq!(
                        member[0].start_ms.to_bits(),
                        sum_ms.to_bits(),
                        "{ctx} member {m}"
                    );
                    sum_ms += r.time_ms;
                    let want = match direction {
                        Direction::Largest => reference_topk(&data, k),
                        Direction::Smallest => reference_topk_min(&data, k),
                    };
                    assert_eq!(r.values, want, "{ctx} k={k}");
                }
                assert_eq!(report.makespan_ms.to_bits(), sum_ms.to_bits(), "{ctx}");
            }
        }
    }
}
