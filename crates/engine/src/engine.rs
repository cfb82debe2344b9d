//! The engine facade: configuration, the cluster, and the cache behind a
//! `Mutex`, with `run_batch` tying planner → scheduler → report together.

use std::sync::Arc;

use drtopk_core::DrTopKConfig;
use drtopk_obs::{EventKind, ExecEvent, MetricName, MetricsRegistry, MetricsSnapshot, TraceSink};
use gpu_sim::GpuCluster;
use parking_lot::Mutex;
use topk_baselines::TopKKey;

use crate::exec::execute_plan;
use crate::plan::{plan_batch, PlanCache};
use crate::query::QueryBatch;
use crate::report::{BatchOutput, CacheReport, EngineReport};

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The Dr. Top-k configuration template every query starts from. Its
    /// `alpha` is ignored (the planner resolves α per fused group through
    /// the tuning-plan cache) unless explicitly set, in which case that α
    /// is pinned for all traffic.
    pub base: DrTopKConfig,
    /// Maximum number of delegate vectors the cache retains. A full cache
    /// admits a new vector only when it is a finer pass of a cached
    /// corpus or its corpus is looked up more often than the
    /// least-recently-used entry's. `0` disables delegate caching.
    pub delegate_cache_capacity: usize,
    /// Corpora holding more than this many **keys** are routed through the
    /// sharded whole-cluster path. `None` uses the smallest device capacity
    /// of the cluster, converted from its native `u32`-element unit to keys
    /// of the batch's type (8-byte keys fit half as many per device).
    pub shard_capacity: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            base: DrTopKConfig::default(),
            delegate_cache_capacity: 32,
            shard_capacity: None,
        }
    }
}

/// A batch-related failure surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// One device's worker failed; the rest of the pool completed.
    Device {
        /// Index of the failing device in the cluster.
        device: usize,
        /// What went wrong on it.
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Device { device, message } => {
                write!(f, "engine worker on device {device} failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The multi-query top-k serving engine: a [`GpuCluster`] worker pool plus
/// the memoized planning state.
///
/// The engine is `Sync`: batches may be submitted from multiple host
/// threads; the plan/delegate caches are shared behind a mutex and only
/// locked around lookups/inserts, never across kernel execution.
pub struct TopKEngine {
    cluster: GpuCluster,
    config: EngineConfig,
    cache: Mutex<PlanCache>,
    metrics: MetricsRegistry,
    recorder: Mutex<Option<Arc<dyn TraceSink>>>,
}

impl TopKEngine {
    /// An engine over `cluster` with the default configuration.
    pub fn new(cluster: GpuCluster) -> Self {
        TopKEngine::with_config(cluster, EngineConfig::default())
    }

    /// An engine over `cluster` with an explicit configuration.
    pub fn with_config(cluster: GpuCluster, config: EngineConfig) -> Self {
        let cache = Mutex::new(PlanCache::with_delegate_capacity(
            config.delegate_cache_capacity,
        ));
        let metrics = MetricsRegistry::new(cluster.num_devices());
        TopKEngine {
            cluster,
            config,
            cache,
            metrics,
            recorder: Mutex::new(None),
        }
    }

    /// The device cluster backing the worker pool.
    pub fn cluster(&self) -> &GpuCluster {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's cumulative metrics registry (caches, latency
    /// percentiles, worker occupancy). Always live —
    /// updates are lock-free atomics and cost a few nanoseconds per batch.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time snapshot of [`TopKEngine::metrics`] with percentile
    /// summaries and sustained QPS computed.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Attach a trace sink: every subsequent batch re-emits its composed
    /// stage schedules as spans on the modeled batch timeline, plus
    /// instant events (cache hits and misses). Replaces any previously
    /// attached sink. With no sink attached, tracing costs nothing.
    pub fn attach_recorder(&self, sink: Arc<dyn TraceSink>) {
        *self.recorder.lock() = Some(sink);
    }

    /// Detach the trace sink attached by [`TopKEngine::attach_recorder`],
    /// returning it (so callers can export what it captured).
    pub fn detach_recorder(&self) -> Option<Arc<dyn TraceSink>> {
        self.recorder.lock().take()
    }

    /// Plan and execute one batch, returning per-query results (in query
    /// order) plus the engine-level report.
    ///
    /// ```
    /// use drtopk_engine::{QueryBatch, TopKEngine};
    /// use gpu_sim::{DeviceSpec, GpuCluster};
    ///
    /// let engine = TopKEngine::new(GpuCluster::homogeneous(2, DeviceSpec::v100s()));
    /// let corpus: Vec<u32> = (0..80_000u32).map(|x| x.wrapping_mul(2654435761)).collect();
    ///
    /// let mut batch = QueryBatch::new();
    /// let c = batch.add_corpus(1, &corpus);
    /// batch.push_topk(c, 8);                  // exact top-8
    /// batch.push_topk_approx(c, 512, 0.95);   // recall-targeted top-512
    ///
    /// let out = engine.run_batch(&batch).unwrap();
    /// assert_eq!(out.results[0].values, topk_baselines::reference_topk(&corpus, 8));
    /// assert_eq!(out.results[0].predicted_recall, 1.0);
    /// assert_eq!(out.results[1].values.len(), 512);
    /// assert!(out.results[1].predicted_recall >= 0.95);
    /// assert_eq!(out.report.approx_queries, 1);
    /// ```
    pub fn run_batch<K: TopKKey>(
        &self,
        batch: &QueryBatch<'_, K>,
    ) -> Result<BatchOutput<K>, EngineError> {
        if batch.is_empty() {
            return Ok(BatchOutput {
                results: Vec::new(),
                row_results: Vec::new(),
                report: EngineReport::default(),
            });
        }
        let shard_capacity = self.config.shard_capacity.unwrap_or_else(|| {
            drtopk_core::capacity_in_keys::<K>(
                self.cluster
                    .devices()
                    .iter()
                    .map(|d| d.capacity_elems())
                    .min()
                    .expect("cluster has devices"),
            )
        });
        // Fused units run on pool workers; the path crossover and the
        // tuning memo both key off the pool device profile (homogeneous
        // pools — device 0 stands for all of them).
        let device_spec = self.cluster.device(0).spec().clone();

        let plan = plan_batch(
            batch,
            &self.config.base,
            shard_capacity,
            &device_spec,
            &mut self.cache.lock(),
        );

        // Hold the sink Arc across execution so a concurrent detach cannot
        // drop it mid-batch; the mutex itself is only held for the clone.
        let recorder: Option<Arc<dyn TraceSink>> = self.recorder.lock().clone();
        let sink: Option<&dyn TraceSink> = recorder.as_deref();
        let emit_cache_events = |label: &str, hits: u64, misses: u64| {
            let Some(sink) = sink.filter(|s| s.wants_events()) else {
                return;
            };
            for _ in 0..hits {
                sink.event(ExecEvent {
                    kind: EventKind::CacheHit,
                    label: label.to_string(),
                    at_ms: 0.0,
                });
            }
            for _ in 0..misses {
                sink.event(ExecEvent {
                    kind: EventKind::CacheMiss,
                    label: label.to_string(),
                    at_ms: 0.0,
                });
            }
        };
        emit_cache_events("plan", plan.plan_hits, plan.plan_misses);

        let exec = execute_plan(
            &self.cluster,
            batch,
            &plan,
            &self.config.base,
            &self.cache,
            sink,
        )?;
        emit_cache_events(
            "delegate",
            exec.delegate_cache.hits,
            exec.delegate_cache.misses,
        );

        let num_queries = batch.len();
        let num_units = plan.units.len();
        let row_queries = batch.row_queries().len();
        let (delegate_path_units, radix_path_units) =
            plan.units
                .iter()
                .fold((0usize, 0usize), |(d, r), u| match u {
                    crate::plan::PlanUnit::Fused(f) => match f.path {
                        drtopk_core::ChosenPath::Delegate => (d + 1, r),
                        drtopk_core::ChosenPath::Radix => (d, r + 1),
                    },
                    _ => (d, r),
                });
        // Rows count as queries: the metric catalog stays its closed
        // 15-variant self, row throughput rides the existing counters.
        let rows_served: usize = exec.row_results.iter().map(|r| r.rows.len()).sum();
        let total_selections = num_queries + rows_served;
        let total_ms = exec.pool_ms + exec.sharded_ms;

        // Fold the batch into the cumulative registry (lock-free atomics).
        let m = &self.metrics;
        m.counter(MetricName::QueriesServed)
            .add(total_selections as u64);
        m.counter(MetricName::BatchesServed).inc();
        m.counter(MetricName::ShardedQueries)
            .add(plan.sharded_queries() as u64);
        m.counter(MetricName::PlanCacheHits).add(plan.plan_hits);
        m.counter(MetricName::PlanCacheMisses).add(plan.plan_misses);
        m.counter(MetricName::DelegateCacheHits)
            .add(exec.delegate_cache.hits);
        m.counter(MetricName::DelegateCacheMisses)
            .add(exec.delegate_cache.misses);
        m.counter(MetricName::DelegatePassesRun)
            .add(exec.delegate_passes_run as u64);
        m.counter(MetricName::DelegatePassesSaved)
            .add(exec.delegate_passes_saved as u64);
        m.add_engine_busy_ms(total_ms);
        m.histogram(MetricName::BatchMakespanMs).record(total_ms);
        for r in &exec.results {
            m.histogram(MetricName::QueryLatencyMs).record(r.time_ms);
        }
        for r in &exec.row_results {
            m.histogram(MetricName::QueryLatencyMs).record(r.time_ms);
        }
        for (slot, &busy) in exec.worker_loads.iter().enumerate() {
            m.add_worker_busy_ms(slot, busy);
            m.set_worker_occupancy(
                slot,
                if exec.pool_ms > 0.0 {
                    busy / exec.pool_ms
                } else {
                    0.0
                },
            );
            m.set_worker_queue_depth(slot, exec.worker_units[slot] as f64);
        }

        let report = EngineReport {
            num_queries,
            num_units,
            fused_units: plan.fused_units(),
            sharded_queries: plan.sharded_queries(),
            row_queries,
            rows_served,
            approx_queries: batch
                .queries()
                .iter()
                .filter(|q| q.mode.strict_target().is_some())
                .count()
                + batch
                    .row_queries()
                    .iter()
                    .filter(|q| q.mode.strict_target().is_some())
                    .count(),
            delegate_path_units,
            radix_path_units,
            batch_occupancy: if num_units == 0 {
                0.0
            } else {
                (num_queries + row_queries) as f64 / num_units as f64
            },
            plan_cache: CacheReport {
                hits: plan.plan_hits,
                misses: plan.plan_misses,
                ..CacheReport::default()
            },
            delegate_cache: exec.delegate_cache,
            delegate_passes_run: exec.delegate_passes_run,
            delegate_passes_saved: exec.delegate_passes_saved,
            phase_ms: exec.phase_ms,
            sharded_ms: exec.sharded_ms,
            overlap_efficiency: if exec.sharded_serial_ms > 0.0 {
                (1.0 - exec.sharded_ms / exec.sharded_serial_ms).max(0.0)
            } else {
                0.0
            },
            total_ms,
            throughput_qps: if total_ms > 0.0 {
                total_selections as f64 / (total_ms / 1e3)
            } else {
                0.0
            },
            stats: exec.stats,
            metrics: self.metrics.snapshot(),
        };
        Ok(BatchOutput {
            results: exec.results,
            row_results: exec.row_results,
            report,
        })
    }
}

impl std::fmt::Debug for TopKEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKEngine")
            .field("cluster", &self.cluster)
            .field(
                "delegate_cache_capacity",
                &self.config.delegate_cache_capacity,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, RowQuery};
    use crate::report::ExecPath;
    use drtopk_core::{Direction, Mode};
    use gpu_sim::DeviceSpec;
    use topk_baselines::{reference_topk, reference_topk_min};

    fn engine(devices: usize) -> TopKEngine {
        TopKEngine::new(GpuCluster::homogeneous(devices, DeviceSpec::v100s()))
    }

    #[test]
    fn empty_batch_is_a_clean_no_op() {
        let eng = engine(2);
        let out = eng.run_batch(&QueryBatch::<u32>::new()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.report.num_queries, 0);
        assert_eq!(out.report.total_ms, 0.0);
        assert_eq!(out.report.throughput_qps, 0.0);
    }

    #[test]
    fn shared_corpus_batch_fuses_and_matches_reference() {
        let eng = engine(2);
        let data = topk_datagen::uniform(1 << 15, 11);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(42, &data);
        let ks = [5usize, 100, 1000, 100]; // duplicate query on purpose
        for &k in &ks {
            batch.push_topk(c, k);
        }
        batch.push_topk_min(c, 17);
        let out = eng.run_batch(&batch).unwrap();
        for (i, &k) in ks.iter().enumerate() {
            assert_eq!(out.results[i].values, reference_topk(&data, k), "query {i}");
            assert_eq!(
                out.results[i].kth_value,
                *out.results[i].values.last().unwrap()
            );
            assert!(matches!(out.results[i].path, ExecPath::Fused { .. }));
        }
        assert_eq!(out.results[4].values, reference_topk_min(&data, 17));
        // 4 largest fuse into one unit, the smallest query is its own unit
        assert_eq!(out.report.num_units, 2);
        assert_eq!(out.report.fused_units, 2);
        assert!((out.report.batch_occupancy - 2.5).abs() < 1e-12);
        // one delegate pass per unit; 3 of the 4+1 delegate-using queries
        // were served without their own pass
        assert_eq!(out.report.delegate_passes_run, 2);
        assert!(out.report.delegate_passes_saved >= 3);
        assert!(out.report.total_ms > 0.0);
        assert!(out.report.throughput_qps > 0.0);
        assert!(out.report.stats.global_load_transactions > 0);
        assert!(out.report.phase_ms.delegate_ms > 0.0);
        assert!(out.report.phase_ms.second_topk_ms > 0.0);
    }

    #[test]
    fn repeat_traffic_hits_both_caches() {
        let eng = engine(1);
        let data = topk_datagen::uniform(1 << 14, 5);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(7, &data);
        batch.push_topk(c, 64);
        let cold = eng.run_batch(&batch).unwrap();
        assert_eq!(cold.report.plan_cache.hits, 0);
        assert_eq!(cold.report.delegate_cache.hits, 0);
        assert_eq!(cold.report.delegate_passes_run, 1);
        let warm = eng.run_batch(&batch).unwrap();
        assert_eq!(warm.report.plan_cache.hits, 1);
        assert_eq!(warm.report.plan_cache.misses, 0);
        assert_eq!(warm.report.delegate_cache.hits, 1);
        assert_eq!(warm.report.delegate_cache.coarsened, 0, "an exact hit");
        assert_eq!(warm.report.delegate_passes_run, 0);
        assert_eq!(warm.report.delegate_passes_saved, 1);
        assert_eq!(warm.results[0].values, cold.results[0].values);
        // the warm run never re-read the corpus at full length
        assert!(
            warm.report.stats.global_loaded_bytes < cold.report.stats.global_loaded_bytes,
            "warm {} vs cold {}",
            warm.report.stats.global_loaded_bytes,
            cold.report.stats.global_loaded_bytes
        );
        // cumulative counters agree
        let m = eng.metrics();
        assert_eq!(m.counter(MetricName::PlanCacheHits).get(), 1);
        assert_eq!(m.counter(MetricName::DelegateCacheHits).get(), 1);
    }

    #[test]
    fn uncached_corpora_rebuild_every_time() {
        // A corpus id the cache has not seen (a new id per batch, as a
        // caller presents changed data) rebuilds its delegates.
        let eng = engine(1);
        let data = topk_datagen::uniform(1 << 13, 9);
        let run = |id| {
            let mut batch = QueryBatch::new();
            let c = batch.add_corpus(id, &data);
            batch.push_topk(c, 32);
            eng.run_batch(&batch).unwrap()
        };
        let a = run(1);
        let b = run(2);
        assert_eq!(a.report.delegate_passes_run, 1);
        assert_eq!(b.report.delegate_passes_run, 1);
        assert_eq!(b.report.delegate_cache.hits, 0);
        // the tuning plan is shape-keyed, so it still hits
        assert_eq!(b.report.plan_cache.hits, 1);
    }

    #[test]
    fn over_capacity_corpus_takes_the_sharded_path() {
        let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
        for d in cluster.devices() {
            d.set_capacity_elems(1 << 12);
        }
        let eng = TopKEngine::new(cluster);
        let data = topk_datagen::uniform(1 << 14, 13);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_topk(c, 50);
        batch.push_topk_min(c, 20);
        let out = eng.run_batch(&batch).unwrap();
        assert_eq!(out.report.sharded_queries, 2);
        assert_eq!(out.report.fused_units, 0);
        assert!(out.report.sharded_ms > 0.0);
        assert_eq!(out.results[0].values, reference_topk(&data, 50));
        assert_eq!(out.results[1].values, reference_topk_min(&data, 20));
        assert!(matches!(
            out.results[0].path,
            ExecPath::Sharded { devices: 2 }
        ));
    }

    #[test]
    fn eight_byte_keys_shard_at_half_the_element_count() {
        // capacity_elems is u32-denominated: a u64 corpus of exactly that
        // element count occupies twice the memory and must shard, while the
        // same-length u32 corpus fuses.
        let make = || {
            let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
            for d in cluster.devices() {
                d.set_capacity_elems(1 << 13);
            }
            TopKEngine::new(cluster)
        };
        let narrow = topk_datagen::uniform(1 << 13, 7);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &narrow);
        batch.push_topk(c, 32);
        let out = make().run_batch(&batch).unwrap();
        assert_eq!(out.report.sharded_queries, 0, "u32 corpus fits resident");

        let wide: Vec<u64> = narrow.iter().map(|&x| (x as u64) << 4).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(2, &wide);
        batch.push_topk(c, 32);
        let out = make().run_batch(&batch).unwrap();
        assert_eq!(
            out.report.sharded_queries, 1,
            "u64 corpus at u32 capacity must shard"
        );
        assert_eq!(out.results[0].values, reference_topk(&wide, 32));
    }

    #[test]
    fn duplicate_sharded_queries_are_answered_once() {
        let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
        for d in cluster.devices() {
            d.set_capacity_elems(1 << 11);
        }
        let eng = TopKEngine::new(cluster);
        let data = topk_datagen::uniform(1 << 13, 21);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_topk(c, 40);
        batch.push_topk(c, 40); // identical → deduplicated
        batch.push_topk(c, 41); // distinct → its own run
        let out = eng.run_batch(&batch).unwrap();
        assert_eq!(out.results[0].values, out.results[1].values);
        assert_eq!(out.results[2].values, reference_topk(&data, 41));
        // engine totals charge the duplicate nothing: the batch's sharded
        // time equals two distinct runs, not three query attributions
        let attributed: f64 = out.results.iter().map(|r| r.time_ms).sum();
        assert!(out.report.sharded_ms < attributed);
        assert_eq!(
            out.report.sharded_ms,
            out.results[0].time_ms + out.results[2].time_ms
        );
    }

    #[test]
    fn worker_capacity_violation_surfaces_the_device_id() {
        // Overriding the shard threshold above the device capacity forces a
        // fused unit onto a device that cannot hold the corpus: the worker
        // reports the failure instead of poisoning the batch.
        let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
        for d in cluster.devices() {
            d.set_capacity_elems(1 << 10);
        }
        let eng = TopKEngine::with_config(
            cluster,
            EngineConfig {
                shard_capacity: Some(usize::MAX),
                ..EngineConfig::default()
            },
        );
        let data = topk_datagen::uniform(1 << 13, 3);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_topk(c, 16);
        let err = eng.run_batch(&batch).expect_err("capacity violation");
        let EngineError::Device { device, message } = err;
        assert!(device < 2);
        assert!(message.contains("exceeds"), "got: {message}");
    }

    #[test]
    fn metrics_accumulate_across_batches_and_report_percentiles() {
        let eng = engine(2);
        let data = topk_datagen::uniform(1 << 14, 31);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(3, &data);
        batch.push_topk(c, 16);
        batch.push_topk(c, 64);
        let out1 = eng.run_batch(&batch).unwrap();
        let out2 = eng.run_batch(&batch).unwrap();

        use drtopk_obs::MetricName as M;
        // the report snapshot is cumulative: batch 2 sees both batches
        assert_eq!(out1.report.metrics.counter(M::QueriesServed), 2);
        assert_eq!(out2.report.metrics.counter(M::QueriesServed), 4);
        assert_eq!(out2.report.metrics.counter(M::BatchesServed), 2);
        assert_eq!(out2.report.metrics.counter(M::PlanCacheHits), 1);
        assert_eq!(out2.report.metrics.counter(M::DelegateCacheHits), 1);

        let snap = eng.metrics_snapshot();
        assert_eq!(snap, out2.report.metrics);
        assert_eq!(snap.query_latency_ms.count, 4);
        assert!(snap.query_latency_ms.p50_ms > 0.0);
        assert!(snap.query_latency_ms.p99_ms >= snap.query_latency_ms.p50_ms);
        assert!(snap.sustained_qps > 0.0);
        // one worker ran the single fused unit, the other stayed idle —
        // the ROADMAP item-5 blind spot is now visible per slot
        assert_eq!(snap.workers.len(), 2);
        let busy: Vec<f64> = snap.workers.iter().map(|w| w.busy_ms).collect();
        assert!(busy.iter().any(|&b| b > 0.0));
        assert!(busy.contains(&0.0));
        let occupied = snap.workers.iter().find(|w| w.busy_ms > 0.0).unwrap();
        assert!((occupied.occupancy - 1.0).abs() < 1e-12);
        // spot-check the JSON export round-trips under the shared schema
        let json = snap.to_json().to_pretty_string();
        let parsed = drtopk_obs::Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(drtopk_obs::SCHEMA_VERSION)
        );
    }

    #[test]
    fn attached_recorder_captures_batch_spans_and_cache_events() {
        use drtopk_obs::{validate_chrome_trace, EventKind, TraceRecorder};
        let eng = engine(2);
        let data = topk_datagen::uniform(1 << 14, 17);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(9, &data);
        batch.push_topk(c, 32);
        eng.run_batch(&batch).unwrap(); // untraced warm-up

        let rec = std::sync::Arc::new(TraceRecorder::new());
        eng.attach_recorder(rec.clone());
        let out = eng.run_batch(&batch).unwrap();
        assert!(eng.detach_recorder().is_some());

        let spans = rec.spans();
        assert!(!spans.is_empty(), "traced batch produced no spans");
        // warm batch: plan + delegate caches both hit
        let hits = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::CacheHit)
            .count();
        assert!(hits >= 2, "expected plan + delegate cache hits, got {hits}");
        // modeled span timeline ends exactly at the batch makespan
        let end = spans.iter().map(|s| s.end_ms).fold(0.0f64, f64::max);
        assert!((end - out.report.total_ms).abs() < 1e-9);
        // and the exported trace is well-formed Chrome JSON
        validate_chrome_trace(&rec.chrome_trace_json()).unwrap();

        // detached: the next batch is silent
        eng.run_batch(&batch).unwrap();
        assert_eq!(rec.spans().len(), spans.len());
    }

    #[test]
    fn row_queries_run_alongside_vector_queries() {
        use drtopk_core::RowK;
        let eng = engine(2);
        let rows = 8;
        let cols = 1 << 11;
        let data = topk_datagen::uniform(rows * cols, 41);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(5, &data);
        batch.push_topk(c, 32); // whole-corpus vector query coexists
        let rq = batch.push_rows(c, rows, cols, RowK::Uniform(6));
        let rq_min = batch.push_row_query(RowQuery::new(
            c,
            rows,
            cols,
            RowK::Uniform(3),
            Direction::Smallest,
        ));
        let out = eng.run_batch(&batch).unwrap();

        assert_eq!(out.results[0].values, reference_topk(&data, 32));
        assert_eq!(out.row_results.len(), 2);
        let largest = &out.row_results[rq];
        let smallest = &out.row_results[rq_min];
        assert_eq!(largest.rows.len(), rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            assert_eq!(largest.rows[r].values, reference_topk(row, 6), "row {r}");
            assert_eq!(
                smallest.rows[r].values,
                reference_topk_min(row, 3),
                "row {r} min"
            );
        }
        // one fused pass per row-block, not one per row
        assert!(largest.delegate_passes <= largest.num_blocks);
        assert!(largest.delegate_passes < rows);
        assert_eq!(largest.predicted_recall, 1.0);

        // report: rows count as queries without widening the metric set
        assert_eq!(out.report.num_queries, 1);
        assert_eq!(out.report.row_queries, 2);
        assert_eq!(out.report.rows_served, 2 * rows);
        assert_eq!(out.report.fused_units, 1);
        // largest and smallest row directions are separate units
        assert_eq!(out.report.num_units, 3);
        use drtopk_obs::MetricName as M;
        assert_eq!(
            out.report.metrics.counter(M::QueriesServed),
            (1 + 2 * rows) as u64
        );
        assert_eq!(out.report.metrics.query_latency_ms.count, 3);
        assert!(out.report.delegate_passes_run > largest.delegate_passes);
        assert!(out.report.throughput_qps > 0.0);
        assert!(out.report.total_ms > 0.0);
    }

    #[test]
    fn row_query_spans_appear_in_traces() {
        use drtopk_core::RowK;
        use drtopk_obs::TraceRecorder;
        let eng = engine(2);
        let rows = 4;
        let cols = 1 << 10;
        let data = topk_datagen::uniform(rows * cols, 43);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(6, &data);
        batch.push_rows(c, rows, cols, RowK::Uniform(4));
        let rec = std::sync::Arc::new(TraceRecorder::new());
        eng.attach_recorder(rec.clone());
        let out = eng.run_batch(&batch).unwrap();
        eng.detach_recorder();
        let spans = rec.spans();
        assert!(
            spans
                .iter()
                .any(|s| s.label.contains("rows ") && s.label.contains("fused pass")),
            "row-span labels must appear in traces"
        );
        let end = spans.iter().map(|s| s.end_ms).fold(0.0f64, f64::max);
        assert!((end - out.report.total_ms).abs() < 1e-9);
    }

    #[test]
    fn path_hints_route_and_count_per_path_units() {
        use drtopk_core::PathHint;
        let eng = engine(2);
        let data = topk_datagen::uniform(1 << 15, 77);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(11, &data);
        // Pinned hints force each pipeline; both must agree bit-for-bit
        // with the reference (and therefore with each other).
        let pinned = |path| Query {
            path,
            ..Query::new(c, 96, Direction::Largest, Mode::Exact)
        };
        let q_delegate = batch.push(pinned(PathHint::Delegate));
        let q_radix = batch.push(pinned(PathHint::Radix));
        // A small-k Auto query resolves to the delegate path and fuses
        // with the pinned delegate query (same resolved path).
        let q_auto = batch.push_topk(c, 8);
        let out = eng.run_batch(&batch).unwrap();
        for &qi in &[q_delegate, q_radix] {
            assert_eq!(out.results[qi].values, reference_topk(&data, 96));
        }
        assert_eq!(out.results[q_auto].values, reference_topk(&data, 8));
        assert_eq!(out.report.delegate_path_units, 1);
        assert_eq!(out.report.radix_path_units, 1);
        assert_eq!(out.report.num_units, 2);
        // The radix unit builds no delegate pass: only the delegate unit's
        // shared pass ran.
        assert_eq!(out.report.delegate_passes_run, 1);
        let ExecPath::Fused { unit: u_del } = out.results[q_delegate].path else {
            panic!("expected fused")
        };
        let ExecPath::Fused { unit: u_auto } = out.results[q_auto].path else {
            panic!("expected fused")
        };
        let ExecPath::Fused { unit: u_radix } = out.results[q_radix].path else {
            panic!("expected fused")
        };
        assert_eq!(u_del, u_auto, "same resolved path fuses");
        assert_ne!(u_del, u_radix, "paths never share a unit");
        // The radix member's workload statistics show the radix shape:
        // no delegate vector, one effective subrange.
        assert!(out.results[q_radix].breakdown.second_topk_ms > 0.0);
    }

    #[test]
    fn results_keep_query_order_across_many_units_and_devices() {
        let eng = engine(4);
        let corpora: Vec<Vec<u32>> = (0..6u64)
            .map(|i| topk_datagen::uniform(1 << 12, 100 + i))
            .collect();
        let mut batch = QueryBatch::new();
        let ids: Vec<usize> = corpora
            .iter()
            .enumerate()
            .map(|(i, d)| batch.add_corpus(i as u64, d))
            .collect();
        // interleave queries over corpora so unit order ≠ query order
        let mut expected = Vec::new();
        for round in 0..3usize {
            for (ci, &c) in ids.iter().enumerate() {
                let k = 10 + round * 7 + ci;
                batch.push_topk(c, k);
                expected.push(reference_topk(&corpora[ci], k));
            }
        }
        let out = eng.run_batch(&batch).unwrap();
        assert_eq!(out.results.len(), expected.len());
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(&out.results[i].values, exp, "query {i}");
        }
        // 6 corpora → 6 fused units, 3 queries each
        assert_eq!(out.report.fused_units, 6);
        assert!((out.report.batch_occupancy - 3.0).abs() < 1e-12);
    }
}
