//! Per-layer measurement, read from outside the program: the gpu-sim kernel
//! logs (`Device::stats()`), the `StageReport` a core call returns, the
//! spans a `TraceRecorder` attached to the engine captured, and the
//! `EngineReport` of each batch.

use drtopk::core::{StageKind, StageReport};
use drtopk::engine::EngineReport;
use drtopk::obs::SpanRecord;
use drtopk::sim::Device;

use crate::stats::{mean, median, ratio};
use crate::workloads::Call;

/// Stage kinds the four workloads can run, in the order their
/// `stages.kind.<name>_ms` metrics are printed. The distributed kinds are
/// left out: no workload holds a corpus larger than one device.
pub const STAGE_KINDS: [StageKind; 9] = [
    StageKind::DelegateConstruction,
    StageKind::FirstTopK,
    StageKind::Concatenate,
    StageKind::SecondTopK,
    StageKind::BucketTopKPrime,
    StageKind::RadixHistogram,
    StageKind::RadixRefine,
    StageKind::CandidateGather,
    StageKind::RadixSelect,
];

/// One executed stage: its kind and its measured and modeled durations.
#[derive(Debug, Clone, Copy)]
pub struct StageSample {
    pub kind: StageKind,
    pub measured_ms: f64,
    pub modeled_ms: f64,
}

/// The `EngineReport` fields one batch contributes.
#[derive(Debug, Clone, Copy)]
pub struct EngineSample {
    pub units: usize,
    pub occupancy: f64,
    pub plan_hits: u64,
    pub plan_lookups: u64,
    pub delegate_hits: u64,
    pub delegate_lookups: u64,
    pub passes_run: usize,
    pub passes_saved: usize,
}

impl EngineSample {
    pub fn from_report(r: &EngineReport) -> EngineSample {
        EngineSample {
            units: r.num_units,
            occupancy: r.batch_occupancy,
            plan_hits: r.plan_cache.hits,
            plan_lookups: r.plan_cache.hits + r.plan_cache.misses,
            delegate_hits: r.delegate_cache.hits,
            delegate_lookups: r.delegate_cache.hits + r.delegate_cache.misses,
            passes_run: r.delegate_passes_run,
            passes_saved: r.delegate_passes_saved,
        }
    }
}

/// Row-matrix facts of one `topk_rows` call.
#[derive(Debug, Clone, Copy)]
pub struct RowsSample {
    pub rows: usize,
    pub blocks: usize,
    pub delegate_passes: usize,
}

/// What a traced call reports about the layers below its entry point.
/// Fields a workload's entry point does not reach stay `None`/empty.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub stages: Vec<StageSample>,
    /// `StageReport::measured_makespan_ms` of a core call.
    pub measured_makespan_ms: Option<f64>,
    /// `PlannedQuery::plan` wall-clock, microseconds.
    pub plan_us: Option<f64>,
    pub workload_fraction: Option<f64>,
    pub rows: Option<RowsSample>,
    pub engine: Option<EngineSample>,
}

impl Probe {
    /// Stages and measured makespan of a core call's report.
    pub fn from_report(report: &StageReport) -> Probe {
        Probe {
            stages: report
                .stages
                .iter()
                .map(|s| StageSample {
                    kind: s.kind,
                    measured_ms: s.measured_ms(),
                    modeled_ms: s.duration_ms(),
                })
                .collect(),
            measured_makespan_ms: Some(report.measured_makespan_ms),
            ..Probe::default()
        }
    }

    /// Stages of an engine batch, from the spans its recorder captured.
    pub fn from_spans(spans: &[SpanRecord]) -> Probe {
        let stages = spans
            .iter()
            .filter_map(|s| {
                let kind = StageKind::ALL.into_iter().find(|k| k.name() == s.kind)?;
                Some(StageSample {
                    kind,
                    measured_ms: s.measured_end_ms - s.measured_start_ms,
                    modeled_ms: s.end_ms - s.start_ms,
                })
            })
            .collect();
        Probe {
            stages,
            ..Probe::default()
        }
    }

    fn stage_measured_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.measured_ms).sum()
    }
}

/// The kernel logs of every device after one call.
#[derive(Debug, Clone, Default)]
pub struct KernelLog {
    pub launches: u64,
    /// Σ kernel `wall_ms`, one entry per device.
    pub busy_ms: Vec<f64>,
    pub bytes: u64,
    pub transactions: u64,
}

impl KernelLog {
    pub fn read(devices: &[&Device]) -> KernelLog {
        let mut log = KernelLog::default();
        for d in devices {
            let stats = d.stats();
            log.launches += stats.kernels.len() as u64;
            log.busy_ms
                .push(stats.kernels.iter().map(|k| k.wall_ms).sum());
            log.bytes += stats.total.total_bytes();
            log.transactions += stats.total.total_transactions();
        }
        log
    }

    fn total_busy_ms(&self) -> f64 {
        self.busy_ms.iter().sum()
    }

    fn max_busy_ms(&self) -> f64 {
        self.busy_ms.iter().copied().fold(0.0, f64::max)
    }
}

/// One traced call with the kernel logs read right after it.
pub struct Traced {
    pub call: Call,
    pub log: KernelLog,
}

/// A named metric with its unit, as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            // An empty float sum is −0.0; print it as 0.
            value: value + 0.0,
        }
    }
}

/// Fold the traced calls into the per-layer metrics. Per-call counts and
/// times are medians over calls; shares and rates are ratios of sums.
/// A layer the workload bypasses reads 0.
pub fn per_layer(calls: &[Traced], devices: usize, trace_overhead_pct: f64) -> Vec<Metric> {
    let per_call = |f: &dyn Fn(&Traced) -> f64| median(calls.iter().map(f).collect());
    let where_some =
        |f: &dyn Fn(&Traced) -> Option<f64>| median(calls.iter().filter_map(f).collect());
    let engine: Vec<(&Traced, EngineSample)> = calls
        .iter()
        .filter_map(|c| c.call.probe.engine.map(|e| (c, e)))
        .collect();
    let per_batch =
        |f: &dyn Fn(&EngineSample) -> f64| median(engine.iter().map(|(_, e)| f(e)).collect());
    let sum = |f: &dyn Fn(&Traced) -> f64| calls.iter().map(f).sum::<f64>();
    let engine_sum =
        |f: &dyn Fn(&EngineSample) -> u64| engine.iter().map(|(_, e)| f(e)).sum::<u64>() as f64;

    let busy_sum = sum(&|c| c.log.total_busy_ms());
    let stage_measured_sum = sum(&|c| c.call.probe.stage_measured_ms());
    let stage_modeled_sum = sum(&|c| c.call.probe.stages.iter().map(|s| s.modeled_ms).sum());
    let recalls: Vec<f64> = calls
        .iter()
        .flat_map(|c| c.call.recalls.iter().copied())
        .collect();

    let mut out = vec![
        Metric::new(
            "gpusim.launches",
            "count",
            per_call(&|c| c.log.launches as f64),
        ),
        Metric::new("gpusim.busy_ms", "ms", per_call(&|c| c.log.total_busy_ms())),
        Metric::new(
            "gpusim.us_per_launch",
            "us",
            ratio(busy_sum * 1e3, sum(&|c| c.log.launches as f64)),
        ),
        Metric::new(
            "gpusim.busy_share",
            "ratio",
            ratio(busy_sum, sum(&|c| c.call.wall_ms) * devices as f64),
        ),
        Metric::new(
            "gpusim.gmem_mb",
            "MB",
            per_call(&|c| c.log.bytes as f64 / 1e6),
        ),
        Metric::new(
            "gpusim.transactions",
            "count",
            per_call(&|c| c.log.transactions as f64),
        ),
        Metric::new(
            "stages.count",
            "count",
            per_call(&|c| c.call.probe.stages.len() as f64),
        ),
        Metric::new(
            "stages.busy_ms",
            "ms",
            per_call(&|c| c.call.probe.stage_measured_ms()),
        ),
        Metric::new(
            "stages.self_ms",
            "ms",
            per_call(&|c| c.call.probe.stage_measured_ms() - c.log.total_busy_ms()),
        ),
        Metric::new(
            "stages.measured_over_modeled",
            "ratio",
            ratio(stage_measured_sum, stage_modeled_sum),
        ),
    ];
    for kind in STAGE_KINDS {
        let kind_ms = sum(&|c| {
            c.call
                .probe
                .stages
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.measured_ms)
                .sum()
        });
        out.push(Metric::new(
            format!("stages.kind.{}_ms", kind.name()),
            "ms",
            ratio(kind_ms, calls.len() as f64),
        ));
    }
    out.extend([
        Metric::new("core.plan_us", "us", where_some(&|c| c.call.probe.plan_us)),
        Metric::new(
            "core.outside_stages_ms",
            "ms",
            where_some(&|c| {
                c.call
                    .probe
                    .measured_makespan_ms
                    .map(|m| c.call.wall_ms - m)
            }),
        ),
        Metric::new(
            "core.workload_fraction",
            "ratio",
            where_some(&|c| c.call.probe.workload_fraction),
        ),
        Metric::new(
            "rows.blocks",
            "count",
            where_some(&|c| c.call.probe.rows.map(|r| r.blocks as f64)),
        ),
        Metric::new(
            "rows.delegate_passes",
            "count",
            where_some(&|c| c.call.probe.rows.map(|r| r.delegate_passes as f64)),
        ),
        Metric::new(
            "rows.launches_per_row",
            "count",
            where_some(&|c| {
                c.call
                    .probe
                    .rows
                    .map(|r| ratio(c.log.launches as f64, r.rows as f64))
            }),
        ),
        Metric::new("approx.recall_mean", "ratio", mean(&recalls)),
        Metric::new(
            "engine.self_ms",
            "ms",
            median(
                engine
                    .iter()
                    .map(|(c, _)| c.call.wall_ms - c.log.max_busy_ms())
                    .collect(),
            ),
        ),
        Metric::new("engine.units", "count", per_batch(&|e| e.units as f64)),
        Metric::new(
            "engine.batch_occupancy",
            "ratio",
            per_batch(&|e| e.occupancy),
        ),
        Metric::new(
            "engine.plan_cache_hit_rate",
            "ratio",
            ratio(
                engine_sum(&|e| e.plan_hits),
                engine_sum(&|e| e.plan_lookups),
            ),
        ),
        Metric::new(
            "engine.plan_cache_lookups",
            "count",
            per_batch(&|e| e.plan_lookups as f64),
        ),
        Metric::new(
            "engine.delegate_cache_hit_rate",
            "ratio",
            ratio(
                engine_sum(&|e| e.delegate_hits),
                engine_sum(&|e| e.delegate_lookups),
            ),
        ),
        Metric::new(
            "engine.delegate_cache_lookups",
            "count",
            per_batch(&|e| e.delegate_lookups as f64),
        ),
        Metric::new(
            "engine.delegate_passes_run",
            "count",
            per_batch(&|e| e.passes_run as f64),
        ),
        Metric::new(
            "engine.delegate_passes_saved",
            "count",
            per_batch(&|e| e.passes_saved as f64),
        ),
        Metric::new(
            "engine.worker_imbalance",
            "ratio",
            mean(
                &engine
                    .iter()
                    .map(|(c, _)| ratio(c.log.max_busy_ms(), mean(&c.log.busy_ms)))
                    .collect::<Vec<_>>(),
            ),
        ),
        Metric::new("obs.trace_overhead_pct", "%", trace_overhead_pct),
    ]);
    out
}
