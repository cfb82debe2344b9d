//! Lock-free metrics: atomic counters, float gauges, log-bucketed
//! histograms, and the [`MetricsRegistry`] that names them.
//!
//! Every metric the engine exposes is declared in the [`MetricName`]
//! catalog; `tests/docs_drift.rs` matches the catalog exhaustively against
//! `docs/OBSERVABILITY.md`, so a metric cannot ship undocumented. All hot
//! paths are single atomic RMW operations — no locks, safe to call from
//! every host thread at once.

use crate::json::{Json, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically-increasing integer counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically-increasing float accumulator (e.g. busy milliseconds).
///
/// Stored as `f64` bit patterns in an atomic; `add` is a CAS loop.
#[derive(Debug)]
pub(crate) struct FloatCounter(AtomicU64);

impl Default for FloatCounter {
    fn default() -> FloatCounter {
        FloatCounter::new()
    }
}

impl FloatCounter {
    /// A float counter starting at zero.
    pub const fn new() -> FloatCounter {
        FloatCounter(AtomicU64::new(0))
    }

    /// Adds `v` (negative or non-finite contributions are ignored).
    pub fn add(&self, v: f64) {
        if !v.is_finite() || v <= 0.0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A last-write-wins float gauge (e.g. an occupancy fraction).
#[derive(Debug)]
pub(crate) struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge (non-finite values are coerced to zero).
    pub fn set(&self, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Log-bucketed histogram bucket layout: growth factor `γ = 2^(1/8)` per
/// bucket, i.e. any quantile estimate is within `√γ − 1 ≈ 4.4%` relative
/// error of a sample in its bucket.
const GAMMA_LOG2: f64 = 0.125;
/// Values at or below this (ms) land in bucket 0.
const LOW: f64 = 1e-6;
/// Bucket count: bucket 0 is `[0, LOW]`; buckets 1..=399 cover
/// `LOW · γ^(i-1)` up to ≈ 1.0e9 ms; larger values clamp into the last.
const BUCKETS: usize = 400;

/// A lock-free log-bucketed histogram over non-negative milliseconds.
///
/// `record` is one atomic increment plus three atomic RMWs (count, sum,
/// min/max). Quantiles are estimated as the geometric midpoint of the
/// bucket containing the nearest-rank sample, clamped to the observed
/// `[min, max]`; relative error is bounded by the bucket width (≈ ±4.4%).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: FloatCounter,
    /// Bits of the running minimum; `f64` bit patterns order like the
    /// values themselves for non-negative floats, so `fetch_min` works.
    min_bits: AtomicU64,
    /// Bits of the running maximum (same representation trick).
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: FloatCounter::new(),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
        }
    }

    fn bucket_index(v: f64) -> usize {
        if v <= LOW {
            return 0;
        }
        let i = 1 + ((v / LOW).log2() / GAMMA_LOG2).floor() as usize;
        i.min(BUCKETS - 1)
    }

    /// Lower bound of bucket `i` (0 for bucket 0).
    fn bucket_low(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            LOW * ((i - 1) as f64 * GAMMA_LOG2).exp2()
        }
    }

    /// Records one sample. Negative and NaN samples are clamped to zero;
    /// `+∞` lands in the top bucket.
    pub fn record(&self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v.max(0.0) };
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let clamped = if v.is_finite() { v } else { f64::MAX };
        self.sum.add(clamped);
        self.min_bits
            .fetch_min(clamped.to_bits(), Ordering::Relaxed);
        self.max_bits
            .fetch_max(clamped.to_bits(), Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by nearest rank:
    /// the bucket holding the `⌈q·n⌉`-th smallest sample, reported as that
    /// bucket's geometric midpoint clamped to `[min, max]`. Returns `None`
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        let mut bucket = BUCKETS - 1;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                bucket = i;
                break;
            }
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let estimate = if bucket == 0 {
            0.0
        } else {
            // Geometric midpoint of [low, low·γ).
            Self::bucket_low(bucket) * (GAMMA_LOG2 * 0.5).exp2()
        };
        Some(estimate.clamp(min, max))
    }

    /// Snapshot of count/sum/min/max and the p50/p95/p99 estimates.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        if count == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count,
            sum_ms: self.sum(),
            min_ms: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max_ms: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            p50_ms: self.quantile(0.50).unwrap_or(0.0),
            p95_ms: self.quantile(0.95).unwrap_or(0.0),
            p99_ms: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time summary of a [`Histogram`]. All-zero when empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples, ms.
    pub sum_ms: f64,
    /// Smallest sample, ms.
    pub min_ms: f64,
    /// Largest sample, ms.
    pub max_ms: f64,
    /// Median estimate, ms.
    pub p50_ms: f64,
    /// 95th-percentile estimate, ms.
    pub p95_ms: f64,
    /// 99th-percentile estimate, ms.
    pub p99_ms: f64,
}

impl HistogramSummary {
    /// JSON form used inside snapshots.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum_ms", Json::Num(self.sum_ms)),
            ("min_ms", Json::Num(self.min_ms)),
            ("max_ms", Json::Num(self.max_ms)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p95_ms", Json::Num(self.p95_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
        ])
    }
}

/// How a metric aggregates — used by the docs catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricUnit {
    /// Monotone integer count.
    Count,
    /// Monotone millisecond accumulator.
    SumMs,
    /// Latency histogram with percentile extraction.
    HistogramMs,
    /// Last-write gauge, one instance per worker slot.
    SlotGauge,
    /// Monotone millisecond accumulator, one instance per worker slot.
    SlotSumMs,
}

/// The closed catalog of metric families the registry exposes.
///
/// `ALL` lists every variant in declaration order; `name()` is the stable
/// snake_case identifier used in snapshots and documented in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricName {
    /// Tuning-plan cache hits across all batches.
    PlanCacheHits,
    /// Tuning-plan cache misses across all batches.
    PlanCacheMisses,
    /// Delegate-vector cache hits across all batches.
    DelegateCacheHits,
    /// Delegate-vector cache misses across all batches.
    DelegateCacheMisses,
    /// Delegate construction passes actually executed.
    DelegatePassesRun,
    /// Delegate construction passes avoided by fusion/caching.
    DelegatePassesSaved,
    /// Queries answered (every query in every batch).
    QueriesServed,
    /// Batches answered.
    BatchesServed,
    /// Queries that took the sharded (over-capacity) path.
    ShardedQueries,
    /// Modeled engine busy time across batches, ms — denominator of
    /// sustained QPS.
    EngineBusyMs,
    /// Per-query end-to-end modeled latency, ms.
    QueryLatencyMs,
    /// Per-batch modeled makespan, ms.
    BatchMakespanMs,
    /// Per-worker-slot busy time in the device pool phase, ms.
    WorkerBusyMs,
    /// Per-worker-slot busy fraction of the pool phase (idle = 1 − busy).
    WorkerOccupancy,
    /// Per-worker-slot scheduled unit count in the last batch.
    WorkerQueueDepth,
}

impl MetricName {
    /// Every metric family, in declaration order.
    pub const ALL: [MetricName; 15] = [
        MetricName::PlanCacheHits,
        MetricName::PlanCacheMisses,
        MetricName::DelegateCacheHits,
        MetricName::DelegateCacheMisses,
        MetricName::DelegatePassesRun,
        MetricName::DelegatePassesSaved,
        MetricName::QueriesServed,
        MetricName::BatchesServed,
        MetricName::ShardedQueries,
        MetricName::EngineBusyMs,
        MetricName::QueryLatencyMs,
        MetricName::BatchMakespanMs,
        MetricName::WorkerBusyMs,
        MetricName::WorkerOccupancy,
        MetricName::WorkerQueueDepth,
    ];

    /// Stable snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            MetricName::PlanCacheHits => "plan_cache_hits",
            MetricName::PlanCacheMisses => "plan_cache_misses",
            MetricName::DelegateCacheHits => "delegate_cache_hits",
            MetricName::DelegateCacheMisses => "delegate_cache_misses",
            MetricName::DelegatePassesRun => "delegate_passes_run",
            MetricName::DelegatePassesSaved => "delegate_passes_saved",
            MetricName::QueriesServed => "queries_served",
            MetricName::BatchesServed => "batches_served",
            MetricName::ShardedQueries => "sharded_queries",
            MetricName::EngineBusyMs => "engine_busy_ms",
            MetricName::QueryLatencyMs => "query_latency_ms",
            MetricName::BatchMakespanMs => "batch_makespan_ms",
            MetricName::WorkerBusyMs => "worker_busy_ms",
            MetricName::WorkerOccupancy => "worker_occupancy",
            MetricName::WorkerQueueDepth => "worker_queue_depth",
        }
    }

    /// How the family aggregates.
    pub fn unit(self) -> MetricUnit {
        match self {
            MetricName::PlanCacheHits
            | MetricName::PlanCacheMisses
            | MetricName::DelegateCacheHits
            | MetricName::DelegateCacheMisses
            | MetricName::DelegatePassesRun
            | MetricName::DelegatePassesSaved
            | MetricName::QueriesServed
            | MetricName::BatchesServed
            | MetricName::ShardedQueries => MetricUnit::Count,
            MetricName::EngineBusyMs => MetricUnit::SumMs,
            MetricName::QueryLatencyMs | MetricName::BatchMakespanMs => MetricUnit::HistogramMs,
            MetricName::WorkerBusyMs => MetricUnit::SlotSumMs,
            MetricName::WorkerOccupancy | MetricName::WorkerQueueDepth => MetricUnit::SlotGauge,
        }
    }
}

impl std::fmt::Display for MetricName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The engine's metric store: one instance per [`MetricName`] family, with
/// per-slot instances where the family calls for them.
///
/// All update paths are lock-free atomics; `snapshot()` reads a consistent-
/// enough point-in-time view (metrics are monotone or last-write, so torn
/// reads across families are harmless).
#[derive(Debug)]
pub struct MetricsRegistry {
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    delegate_cache_hits: Counter,
    delegate_cache_misses: Counter,
    delegate_passes_run: Counter,
    delegate_passes_saved: Counter,
    queries_served: Counter,
    batches_served: Counter,
    sharded_queries: Counter,
    engine_busy_ms: FloatCounter,
    query_latency_ms: Histogram,
    batch_makespan_ms: Histogram,
    worker_busy_ms: Vec<FloatCounter>,
    worker_occupancy: Vec<Gauge>,
    worker_queue_depth: Vec<Gauge>,
}

impl MetricsRegistry {
    /// A registry with `slots` worker slots.
    pub fn new(slots: usize) -> MetricsRegistry {
        MetricsRegistry {
            plan_cache_hits: Counter::new(),
            plan_cache_misses: Counter::new(),
            delegate_cache_hits: Counter::new(),
            delegate_cache_misses: Counter::new(),
            delegate_passes_run: Counter::new(),
            delegate_passes_saved: Counter::new(),
            queries_served: Counter::new(),
            batches_served: Counter::new(),
            sharded_queries: Counter::new(),
            engine_busy_ms: FloatCounter::new(),
            query_latency_ms: Histogram::new(),
            batch_makespan_ms: Histogram::new(),
            worker_busy_ms: (0..slots).map(|_| FloatCounter::new()).collect(),
            worker_occupancy: (0..slots).map(|_| Gauge::new()).collect(),
            worker_queue_depth: (0..slots).map(|_| Gauge::new()).collect(),
        }
    }

    /// The counter for a `Count` family.
    ///
    /// # Panics
    /// If `name` is not a plain counter (see [`MetricName::unit`]).
    pub fn counter(&self, name: MetricName) -> &Counter {
        match name {
            MetricName::PlanCacheHits => &self.plan_cache_hits,
            MetricName::PlanCacheMisses => &self.plan_cache_misses,
            MetricName::DelegateCacheHits => &self.delegate_cache_hits,
            MetricName::DelegateCacheMisses => &self.delegate_cache_misses,
            MetricName::DelegatePassesRun => &self.delegate_passes_run,
            MetricName::DelegatePassesSaved => &self.delegate_passes_saved,
            MetricName::QueriesServed => &self.queries_served,
            MetricName::BatchesServed => &self.batches_served,
            MetricName::ShardedQueries => &self.sharded_queries,
            other => panic!("{other} is not a plain counter"),
        }
    }

    /// The histogram for a `HistogramMs` family.
    ///
    /// # Panics
    /// If `name` is not a histogram.
    pub fn histogram(&self, name: MetricName) -> &Histogram {
        match name {
            MetricName::QueryLatencyMs => &self.query_latency_ms,
            MetricName::BatchMakespanMs => &self.batch_makespan_ms,
            other => panic!("{other} is not a histogram"),
        }
    }

    /// Adds modeled engine busy time (`engine_busy_ms`).
    pub fn add_engine_busy_ms(&self, ms: f64) {
        self.engine_busy_ms.add(ms);
    }

    /// Adds busy time for one worker slot (`worker_busy_ms`). Out-of-range
    /// slots are ignored.
    pub fn add_worker_busy_ms(&self, slot: usize, ms: f64) {
        if let Some(c) = self.worker_busy_ms.get(slot) {
            c.add(ms);
        }
    }

    /// Sets the occupancy gauge for one worker slot (`worker_occupancy`).
    pub fn set_worker_occupancy(&self, slot: usize, fraction: f64) {
        if let Some(g) = self.worker_occupancy.get(slot) {
            g.set(fraction);
        }
    }

    /// Sets the queue-depth gauge for one worker slot
    /// (`worker_queue_depth`).
    pub fn set_worker_queue_depth(&self, slot: usize, depth: f64) {
        if let Some(g) = self.worker_queue_depth.get(slot) {
            g.set(depth);
        }
    }

    /// Number of worker slots this registry tracks.
    pub fn slots(&self) -> usize {
        self.worker_busy_ms.len()
    }

    /// Point-in-time snapshot of every family in the catalog.
    ///
    /// The `match` below is intentionally exhaustive over [`MetricName`]:
    /// adding a family without deciding how it snapshots is a compile
    /// error.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        for name in MetricName::ALL {
            let value = match name {
                MetricName::PlanCacheHits
                | MetricName::PlanCacheMisses
                | MetricName::DelegateCacheHits
                | MetricName::DelegateCacheMisses
                | MetricName::DelegatePassesRun
                | MetricName::DelegatePassesSaved
                | MetricName::QueriesServed
                | MetricName::BatchesServed
                | MetricName::ShardedQueries => Some(self.counter(name).get()),
                // Snapshotted below as typed fields rather than counters.
                MetricName::EngineBusyMs
                | MetricName::QueryLatencyMs
                | MetricName::BatchMakespanMs
                | MetricName::WorkerBusyMs
                | MetricName::WorkerOccupancy
                | MetricName::WorkerQueueDepth => None,
            };
            if let Some(v) = value {
                counters.push((name, v));
            }
        }
        let engine_busy_ms = self.engine_busy_ms.get();
        let queries = self.queries_served.get();
        let sustained_qps = if engine_busy_ms > 0.0 {
            queries as f64 / engine_busy_ms * 1000.0
        } else {
            0.0
        };
        MetricsSnapshot {
            counters,
            engine_busy_ms,
            query_latency_ms: self.query_latency_ms.summary(),
            batch_makespan_ms: self.batch_makespan_ms.summary(),
            workers: (0..self.slots())
                .map(|slot| WorkerSnapshot {
                    slot,
                    busy_ms: self.worker_busy_ms[slot].get(),
                    occupancy: self.worker_occupancy[slot].get(),
                    queue_depth: self.worker_queue_depth[slot].get(),
                })
                .collect(),
            sustained_qps,
        }
    }
}

/// One worker slot's view in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerSnapshot {
    /// Slot index (device id in the engine's pool).
    pub slot: usize,
    /// Cumulative busy time, ms.
    pub busy_ms: f64,
    /// Busy fraction of the last batch's pool phase, `0.0 ..= 1.0`.
    pub occupancy: f64,
    /// Units scheduled onto this slot in the last batch.
    pub queue_depth: f64,
}

/// Point-in-time view of a [`MetricsRegistry`], attached to `EngineReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(family, value)` for every `Count` family, in catalog order.
    pub counters: Vec<(MetricName, u64)>,
    /// Cumulative modeled engine busy time, ms.
    pub engine_busy_ms: f64,
    /// Per-query end-to-end latency distribution.
    pub query_latency_ms: HistogramSummary,
    /// Per-batch makespan distribution.
    pub batch_makespan_ms: HistogramSummary,
    /// Per-slot worker telemetry.
    pub workers: Vec<WorkerSnapshot>,
    /// Queries served per second of modeled engine busy time.
    pub sustained_qps: f64,
}

impl MetricsSnapshot {
    /// Value of a `Count` family in this snapshot (0 if absent).
    pub fn counter(&self, name: MetricName) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Serializes under the shared snapshot schema
    /// ([`SCHEMA_VERSION`](crate::SCHEMA_VERSION), kind
    /// `"metrics_snapshot"`).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.name().to_string(), Json::Int(*v as i64)))
                .collect(),
        );
        let workers = Json::Arr(
            self.workers
                .iter()
                .map(|w| {
                    Json::obj(vec![
                        ("slot", Json::Int(w.slot as i64)),
                        ("busy_ms", Json::Num(w.busy_ms)),
                        ("occupancy", Json::Num(w.occupancy)),
                        ("queue_depth", Json::Num(w.queue_depth)),
                    ])
                })
                .collect(),
        );
        Snapshot::new("metrics_snapshot")
            .field("counters", counters)
            .field("engine_busy_ms", Json::Num(self.engine_busy_ms))
            .field("query_latency_ms", self.query_latency_ms.to_json())
            .field("batch_makespan_ms", self.batch_makespan_ms.to_json())
            .field("workers", workers)
            .field("sustained_qps", Json::Num(self.sustained_qps))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let f = FloatCounter::new();
        f.add(1.5);
        f.add(2.25);
        f.add(-3.0); // ignored
        f.add(f64::NAN); // ignored
        assert_eq!(f.get(), 3.75);

        let g = Gauge::new();
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        g.set(f64::INFINITY);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_close_on_a_known_stream() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 1000.0);
        assert!((s.p50_ms - 500.0).abs() / 500.0 < 0.05, "p50 {}", s.p50_ms);
        assert!((s.p95_ms - 950.0).abs() / 950.0 < 0.05, "p95 {}", s.p95_ms);
        assert!((s.p99_ms - 990.0).abs() / 990.0 < 0.05, "p99 {}", s.p99_ms);
        assert!((s.sum_ms / s.count as f64 - 500.5).abs() < 1e-6);
    }

    #[test]
    fn histogram_edge_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.summary(), HistogramSummary::default());

        let one = Histogram::new();
        one.record(42.0);
        // A single sample is exact: the estimate clamps to [min, max].
        assert_eq!(one.quantile(0.0), Some(42.0));
        assert_eq!(one.quantile(0.5), Some(42.0));
        assert_eq!(one.quantile(1.0), Some(42.0));

        let zeros = Histogram::new();
        for _ in 0..10 {
            zeros.record(0.0);
        }
        assert_eq!(zeros.quantile(0.99), Some(0.0));

        let dup = Histogram::new();
        for _ in 0..100 {
            dup.record(7.0);
        }
        let s = dup.summary();
        assert_eq!(s.p50_ms, 7.0);
        assert_eq!(s.p99_ms, 7.0);
    }

    #[test]
    fn catalog_is_complete_and_distinctly_named() {
        let mut names: Vec<&str> = MetricName::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MetricName::ALL.len());
    }

    #[test]
    fn registry_snapshot_reflects_updates() {
        let reg = MetricsRegistry::new(2);
        reg.counter(MetricName::QueriesServed).add(10);
        reg.counter(MetricName::BatchesServed).inc();
        reg.add_engine_busy_ms(50.0);
        reg.histogram(MetricName::QueryLatencyMs).record(5.0);
        reg.add_worker_busy_ms(1, 12.5);
        reg.set_worker_occupancy(1, 0.8);
        reg.set_worker_queue_depth(1, 3.0);

        let snap = reg.snapshot();
        assert_eq!(snap.counter(MetricName::QueriesServed), 10);
        assert_eq!(snap.counter(MetricName::BatchesServed), 1);
        assert_eq!(snap.engine_busy_ms, 50.0);
        assert_eq!(snap.query_latency_ms.count, 1);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[1].busy_ms, 12.5);
        assert_eq!(snap.workers[1].occupancy, 0.8);
        assert_eq!(snap.workers[1].queue_depth, 3.0);
        // 10 queries over 50 ms busy = 200 QPS sustained.
        assert_eq!(snap.sustained_qps, 200.0);

        let json = snap.to_json().to_pretty_string();
        let back = crate::json::Json::parse(&json).unwrap();
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some(crate::json::SCHEMA_VERSION)
        );
        assert_eq!(
            back.get("counters")
                .unwrap()
                .get("queries_served")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
        assert_eq!(back.get("sustained_qps").unwrap().as_f64(), Some(200.0));
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // concurrent updates are what this test checks
    fn registry_updates_are_thread_safe() {
        let reg = MetricsRegistry::new(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000 {
                        reg.counter(MetricName::QueriesServed).inc();
                        reg.add_engine_busy_ms(0.001);
                        reg.histogram(MetricName::QueryLatencyMs).record(i as f64);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter(MetricName::QueriesServed), 4000);
        assert_eq!(snap.query_latency_ms.count, 4000);
        assert!((snap.engine_busy_ms - 4.0).abs() < 1e-9);
    }
}
