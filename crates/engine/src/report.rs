//! Per-query results and the engine-level statistics report.

use drtopk_core::PhaseBreakdown;
use drtopk_obs::MetricsSnapshot;
use gpu_sim::KernelStats;
use topk_baselines::{TopKKey, TopKResult};

/// Hit/miss counters of one cache (or one batch's slice of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then populate the cache).
    pub misses: u64,
    /// The hits a finer cached delegate vector served by coarsening (see
    /// [`drtopk_core::coarsen_delegate_vector`]); always 0 for the
    /// tuning-plan cache.
    pub coarsened: u64,
    /// Entries removed to make room for a new delegate vector: the
    /// least-recently-used entry a hotter corpus displaced, or the coarser
    /// entries of its own corpus a finer vector replaced. Always 0 for the
    /// tuning-plan cache.
    pub evicted: u64,
    /// Delegate vectors built on a miss that the cache did not keep (its
    /// admission policy judged the corpus no hotter than the entry it
    /// would displace, or the capacity is 0). Always 0 for the tuning-plan
    /// cache.
    pub rejected: u64,
}

impl CacheReport {
    /// `hits / (hits + misses)`, 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How one query was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Member of a fused same-corpus group, run on one pool device.
    Fused {
        /// Index of the unit in the batch's execution plan.
        unit: usize,
    },
    /// Over-capacity corpus, run across the whole cluster.
    Sharded {
        /// Number of devices the query was sharded over.
        devices: usize,
    },
}

/// Result of one query of a batch.
#[derive(Debug, Clone)]
pub struct QueryResult<K: TopKKey> {
    /// The selected values: descending for largest-direction queries,
    /// ascending for smallest-direction ones (matching
    /// [`drtopk_core::dr_topk`] with the query's direction).
    pub values: Vec<K>,
    /// The k-th selected value (`K::default()` for empty results).
    pub kth_value: K,
    /// Modeled time attributed to this query (shared delegate passes are
    /// accounted at the engine level, not per query).
    pub time_ms: f64,
    /// Kernel counters attributed to this query.
    pub stats: KernelStats,
    /// Per-phase modeled times, derived from the query's executed stage
    /// schedule. Sharded queries report the summed per-chunk phases with
    /// data movement (chunk reloads, the gather) kept separately under
    /// [`PhaseBreakdown::transfer_ms`] rather than folded into compute.
    pub breakdown: PhaseBreakdown,
    /// What the recall model predicts this result contains: 1.0 for exact
    /// queries (and approximate queries that fell back to an exact plan),
    /// the modeled expected recall for bucket-based approximate execution.
    pub predicted_recall: f64,
    /// How the query was executed.
    pub path: ExecPath,
}

/// Result of one row-matrix query of a batch (see
/// [`crate::QueryBatch::push_rows`]).
#[derive(Debug, Clone)]
pub struct RowQueryResult<K: TopKKey> {
    /// Per-row selections, in row order — bit-identical to running the
    /// single-vector pipeline on each row (per-row `stats`/`time_ms` are
    /// zero; kernel counters are accounted at block granularity in
    /// [`stats`](RowQueryResult::stats)).
    pub rows: Vec<TopKResult<K>>,
    /// Modeled time of this query's row blocks.
    pub time_ms: f64,
    /// Kernel counters accumulated across the query's stages.
    pub stats: KernelStats,
    /// Per-phase modeled times, derived from the executed schedule.
    pub breakdown: PhaseBreakdown,
    /// Fused delegate passes the query ran — one per row-block with work,
    /// never one per row.
    pub delegate_passes: usize,
    /// Row-blocks the matrix was split into.
    pub num_blocks: usize,
    /// Minimum plan-time expected recall across the rows (1.0 when every
    /// row ran an exact plan).
    pub predicted_recall: f64,
    /// Index of the row unit in the batch's execution plan.
    pub unit: usize,
}

/// Engine-level statistics for one batch.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Queries in the batch.
    pub num_queries: usize,
    /// Schedulable units the planner produced.
    pub num_units: usize,
    /// Fused same-corpus groups among the units.
    pub fused_units: usize,
    /// Queries routed through the sharded (whole-cluster) path.
    pub sharded_queries: usize,
    /// Row-matrix queries in the batch (counted separately from
    /// `num_queries`; each result carries one [`TopKResult`] per row).
    pub row_queries: usize,
    /// Total matrix rows selected across every row-matrix query — rows
    /// count as queries in the cumulative metrics and the batch
    /// throughput, without widening the metric catalog.
    pub rows_served: usize,
    /// Queries that requested a recall target below 1.0 (they fuse into
    /// their own units, separately from exact traffic).
    pub approx_queries: usize,
    /// Fused units whose members resolved to the delegate pipeline. Queries
    /// fuse by resolved path, so every fused unit counts under exactly one
    /// of these two fields; sharded queries resolve per device inside the
    /// distributed run and are counted by neither. Per-path visibility
    /// rides the existing metric catalog: radix stage kinds already appear
    /// in the per-kind residual gauges and the stage-level counters, so no
    /// new [`drtopk_obs::MetricName`] variant is needed.
    pub delegate_path_units: usize,
    /// Fused units whose members resolved to the large-k multi-pass
    /// radix-select pipeline (see [`drtopk_core::PathHint`]).
    pub radix_path_units: usize,
    /// Average queries per unit — how much fusion the batch admitted
    /// (a 32-query shared-corpus batch scores 32.0; fully disjoint
    /// traffic scores 1.0).
    pub batch_occupancy: f64,
    /// Tuning-plan cache activity during this batch.
    pub plan_cache: CacheReport,
    /// Delegate cache activity during this batch.
    pub delegate_cache: CacheReport,
    /// Delegate construction passes actually executed, including the
    /// fused per-row-block passes of row-matrix queries.
    pub delegate_passes_run: usize,
    /// Delegate passes that fusion + caching avoided (delegate-using
    /// queries served without their own construction pass).
    pub delegate_passes_saved: usize,
    /// Summed per-phase modeled times across every query, with shared
    /// delegate passes counted once under `delegate_ms` and all data
    /// movement (out-of-core chunk reloads, distributed gathers) reported
    /// separately under [`PhaseBreakdown::transfer_ms`] — transfer time is
    /// never folded into a compute phase.
    pub phase_ms: PhaseBreakdown,
    /// Modeled time of the sharded (whole-cluster) portion of the batch.
    pub sharded_ms: f64,
    /// Fraction of the sharded portion's serialized stage cost hidden by
    /// **concurrency** (`1 − makespan / Σ stage durations` over the
    /// sharded stage schedules). Two mechanisms contribute: double-buffered
    /// chunk ingestion overlapping chunk `i + 1`'s host→device transfer
    /// with chunk `i`'s compute, and the devices' chunk chains running in
    /// parallel with each other — so a multi-device sharded run reports a
    /// nonzero value even when nothing streamed. To isolate the
    /// transfer-hiding effect alone, compare
    /// [`distributed_dr_topk`](drtopk_core::distributed_dr_topk)
    /// makespans under the two [`drtopk_core::ReloadSchedule`]s (what the
    /// `streamed_oversize` bench does). 0.0 when the batch had no sharded
    /// queries or their schedules were fully serial.
    pub overlap_efficiency: f64,
    /// Modeled batch makespan: the slowest pool worker under deterministic
    /// list scheduling of the fused units (each unit to the
    /// earliest-available worker, in plan order), plus the sharded portion
    /// (which uses every device). Independent of host-thread timing.
    pub total_ms: f64,
    /// Modeled throughput in selections per second: vector queries plus
    /// every matrix row served, over the batch makespan.
    pub throughput_qps: f64,
    /// Kernel counters summed across the whole batch (shared passes
    /// included once).
    pub stats: KernelStats,
    /// Snapshot of the engine's cumulative metrics registry taken right
    /// after this batch was folded in: latency percentiles (p50/p95/p99),
    /// sustained QPS over engine-busy time and per-worker occupancy.
    /// Cumulative across the engine's lifetime, unlike the batch-scoped
    /// fields above.
    pub metrics: MetricsSnapshot,
}

/// Per-query results (indexed like the batch's queries) plus the
/// engine-level report.
#[derive(Debug, Clone)]
pub struct BatchOutput<K: TopKKey> {
    /// One result per query, in query order.
    pub results: Vec<QueryResult<K>>,
    /// One result per row-matrix query, in row-query order.
    pub row_results: Vec<RowQueryResult<K>>,
    /// Engine-level statistics for the batch.
    pub report: EngineReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_safe_and_correct() {
        assert_eq!(CacheReport::default().hit_rate(), 0.0);
        let r = CacheReport {
            hits: 3,
            misses: 1,
            ..CacheReport::default()
        };
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
    }
}
