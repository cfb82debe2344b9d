//! The four workloads. Each builds its inputs from the seed, times exactly
//! one public entry-point call (`dr_topk`, `TopKEngine::run_batch` or
//! `topk_rows`) per [`Workload::call`], and checks the output against the
//! CPU reference outside the timed region.

use std::hint::black_box;
use std::sync::Arc;

use drtopk::baselines::{reference_topk, reference_topk_min, TopKKey};
use drtopk::core::{
    dr_topk, dr_topk_planned, measured_recall, topk_rows, DrTopKConfig, PlannedQuery, RowK,
    RowMatrix,
};
use drtopk::datagen::{self, CorpusMix, QuerySpec};
use drtopk::engine::{BatchOutput, EngineError, QueryBatch, TopKEngine};
use drtopk::obs::{TraceRecorder, TraceSink};
use drtopk::sim::{Device, DeviceSpec, GpuCluster};

use crate::cpu::Stopwatch;
use crate::layers::{EngineSample, Probe, RowsSample};

/// Largest k any vector query asks for; the Zipf k stream is drawn over
/// `1..=K_MAX`.
const K_MAX: usize = 1024;
/// Length of the seeded k stream `single_query` cycles through.
const K_STREAM: usize = 1 << 14;
/// Devices in the cluster of the engine and row workloads.
const DEVICES: usize = 2;
/// Queries per engine batch.
const BATCH: usize = 64;
/// Experts per row of the gating matrix.
const COLS: usize = 128;
/// Experts each row selects (MoE top-2 routing).
const ROW_K: usize = 2;

/// Workload names, as `--workload` takes them and `BENCHMARK.json` lists
/// them.
pub const NAMES: [&str; 4] = ["single_query", "serve_fused", "serve_thrash", "rows_gating"];

/// Input sizes: `FULL` for measurement, `SMOKE` for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub single_n: usize,
    pub serve_n: usize,
    pub rows: usize,
    /// Batches run during set-up to warm the plan and delegate caches.
    pub warm_batches: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        single_n: 1 << 22,
        serve_n: 1 << 18,
        rows: 4096,
        warm_batches: 8,
    };
    pub const SMOKE: Scale = Scale {
        single_n: 1 << 14,
        serve_n: 1 << 12,
        rows: 64,
        warm_batches: 1,
    };
}

/// What one timed call produced.
pub struct Call {
    /// Host wall-clock of the entry-point call alone.
    pub wall_ms: f64,
    /// CPU time of the whole process, every thread, during that call.
    pub cpu_ms: f64,
    /// Modeled device makespan the call reported.
    pub modeled_ms: f64,
    /// The output failed its check, or the call returned an error.
    pub failed: bool,
    /// Measured recall of each approximate result.
    pub recalls: Vec<f64>,
    /// Layer details; filled only by traced calls.
    pub probe: Probe,
}

pub trait Workload {
    /// Selections one call completes: vector queries plus matrix rows.
    fn selections_per_call(&self) -> usize;
    /// The devices whose kernel logs the calls write.
    fn devices(&self) -> Vec<&Device>;
    /// Bytes of input the calls read: the corpora or the matrix.
    fn resident_bytes(&self) -> usize;
    /// Compute the reference answers the calls are checked against. Not
    /// part of set-up: it is the benchmark's cost, not the program's.
    fn prepare_checks(&mut self);
    /// Run call number `i` (which picks its inputs from the seeded stream).
    fn call(&mut self, i: usize, traced: bool) -> Call;
}

/// Build a workload by name: data generation, device and engine
/// construction, and cache warm-up — everything `setup_s` measures.
pub fn build(name: &str, scale: Scale, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "single_query" => Box::new(SingleQuery::new(scale, seed)),
        "serve_fused" => Box::new(Serve::new(scale, seed, CorpusMix::Clustered { corpora: 4 })),
        "serve_thrash" => Box::new(Serve::new(scale, seed, CorpusMix::Disjoint)),
        "rows_gating" => Box::new(Rows::new(scale, seed)),
        _ => return None,
    })
}

fn same_bits<K: TopKKey>(got: &[K], want: &[K]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// `dr_topk` on one device over one resident corpus, k drawn per call from
/// a seeded Zipf stream. The engine is bypassed.
struct SingleQuery {
    device: Device,
    corpus: Vec<u32>,
    ks: Vec<usize>,
    config: DrTopKConfig,
    /// The `K_MAX` largest values, descending: every call's answer is a
    /// prefix.
    expected: Vec<u32>,
}

impl SingleQuery {
    fn new(scale: Scale, seed: u64) -> SingleQuery {
        let w = SingleQuery {
            device: Device::new(DeviceSpec::v100s()),
            corpus: datagen::uniform(scale.single_n, seed),
            ks: datagen::zipf_ks(K_STREAM, K_MAX, 1.0, seed),
            config: DrTopKConfig::default(),
            expected: Vec::new(),
        };
        for i in 0..2 {
            black_box(w.select(w.ks[i]));
        }
        w.device.reset_stats();
        w
    }

    fn select(&self, k: usize) -> drtopk::core::DrTopKResult<u32> {
        dr_topk(&self.device, &self.corpus, k, &self.config)
    }
}

impl Workload for SingleQuery {
    fn selections_per_call(&self) -> usize {
        1
    }

    fn devices(&self) -> Vec<&Device> {
        vec![&self.device]
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.corpus.as_slice())
    }

    fn prepare_checks(&mut self) {
        self.expected = reference_topk(&self.corpus, K_MAX);
    }

    fn call(&mut self, i: usize, traced: bool) -> Call {
        let k = self.ks[i % self.ks.len()];
        let mut probe = Probe::default();
        let watch = Stopwatch::start();
        let result = if traced {
            // The same call as `dr_topk`, split so planning is timed apart.
            let planned = PlannedQuery::plan(self.corpus.len(), k, &self.config);
            probe.plan_us = Some(watch.wall_ms() * 1e3);
            dr_topk_planned(&self.device, &self.corpus, None, &planned)
        } else {
            self.select(k)
        };
        let (wall_ms, cpu_ms) = watch.stop();
        let result = black_box(result);
        if traced {
            probe = Probe {
                workload_fraction: Some(result.workload.workload_fraction()),
                plan_us: probe.plan_us,
                ..Probe::from_report(&result.stages)
            };
        }
        Call {
            wall_ms,
            cpu_ms,
            modeled_ms: result.time_ms,
            failed: !same_bits(&result.values, &self.expected[..k.min(self.corpus.len())]),
            recalls: Vec::new(),
            probe,
        }
    }
}

/// `TopKEngine::run_batch` on a 2-device cluster over resident corpora;
/// batch `b` holds the queries of `multi_query_workload(.., seed + b)`.
struct Serve {
    engine: TopKEngine,
    corpora: Vec<Vec<u32>>,
    mix: CorpusMix,
    seed: u64,
    /// Batches set-up ran to warm the caches; timed calls continue the
    /// seeded batch stream after them.
    warm_batches: usize,
    recorder: Arc<TraceRecorder>,
    /// Per corpus: the `K_MAX` largest (descending) and smallest
    /// (ascending) values.
    expected: Vec<(Vec<u32>, Vec<u32>)>,
}

impl Serve {
    fn new(scale: Scale, seed: u64, mix: CorpusMix) -> Serve {
        let corpora = (0..mix.num_corpora(BATCH))
            .map(|c| datagen::uniform(scale.serve_n, corpus_seed(seed, c)))
            .collect();
        let w = Serve {
            engine: TopKEngine::new(GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s())),
            corpora,
            mix,
            seed,
            warm_batches: scale.warm_batches,
            recorder: Arc::new(TraceRecorder::new()),
            expected: Vec::new(),
        };
        for b in 0..w.warm_batches {
            let _ = black_box(w.run(&w.specs(b)));
        }
        w.engine.cluster().reset_stats();
        w
    }

    fn specs(&self, b: usize) -> Vec<QuerySpec> {
        datagen::multi_query_workload(
            BATCH,
            self.mix,
            K_MAX,
            1.0,
            0.25,
            0.1,
            self.seed.wrapping_add(b as u64),
        )
    }

    /// Build the batch, then time `run_batch` alone: wall-clock and CPU ms.
    fn run(&self, specs: &[QuerySpec]) -> ((f64, f64), Result<BatchOutput<u32>, EngineError>) {
        let mut batch = QueryBatch::new();
        let ids: Vec<usize> = self
            .corpora
            .iter()
            .enumerate()
            .map(|(c, data)| batch.add_corpus(c as u64, data))
            .collect();
        for s in specs {
            let c = ids[s.corpus];
            match (s.largest, s.approx_recall_bp) {
                (true, None) => batch.push_topk(c, s.k),
                (false, None) => batch.push_topk_min(c, s.k),
                (true, Some(bp)) => batch.push_topk_approx(c, s.k, f64::from(bp) / 1e4),
                (false, Some(bp)) => batch.push_topk_min_approx(c, s.k, f64::from(bp) / 1e4),
            };
        }
        let watch = Stopwatch::start();
        let out = self.engine.run_batch(&batch);
        (watch.stop(), black_box(out))
    }
}

fn corpus_seed(seed: u64, corpus: usize) -> u64 {
    seed ^ (corpus as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Workload for Serve {
    fn selections_per_call(&self) -> usize {
        BATCH
    }

    fn devices(&self) -> Vec<&Device> {
        self.engine.cluster().devices().iter().collect()
    }

    fn resident_bytes(&self) -> usize {
        self.corpora
            .iter()
            .map(|c| std::mem::size_of_val(c.as_slice()))
            .sum()
    }

    fn prepare_checks(&mut self) {
        self.expected = self
            .corpora
            .iter()
            .map(|c| (reference_topk(c, K_MAX), reference_topk_min(c, K_MAX)))
            .collect();
    }

    fn call(&mut self, i: usize, traced: bool) -> Call {
        let specs = self.specs(self.warm_batches + i);
        if traced {
            self.engine
                .attach_recorder(self.recorder.clone() as Arc<dyn TraceSink>);
        }
        let ((wall_ms, cpu_ms), out) = self.run(&specs);
        if traced {
            self.engine.detach_recorder();
        }
        let Ok(out) = out else {
            return Call {
                wall_ms,
                cpu_ms,
                modeled_ms: 0.0,
                failed: true,
                recalls: Vec::new(),
                probe: Probe::default(),
            };
        };
        let mut failed = out.results.len() != specs.len();
        let mut recalls = Vec::new();
        for (s, r) in specs.iter().zip(&out.results) {
            let (largest, smallest) = &self.expected[s.corpus];
            let want = if s.largest { largest } else { smallest };
            let want = &want[..s.k.min(want.len())];
            if s.approx_recall_bp.is_none() {
                failed |= !same_bits(&r.values, want);
            } else {
                let ordered = r.values.windows(2).all(|w| {
                    let ord = w[0].key_cmp(&w[1]);
                    if s.largest {
                        ord.is_ge()
                    } else {
                        ord.is_le()
                    }
                });
                failed |= r.values.len() != want.len() || !ordered;
                recalls.push(measured_recall(&r.values, want));
            }
        }
        let probe = if traced {
            let probe = Probe {
                engine: Some(EngineSample::from_report(&out.report)),
                ..Probe::from_spans(&self.recorder.spans())
            };
            self.recorder.clear();
            probe
        } else {
            Probe::default()
        };
        Call {
            wall_ms,
            cpu_ms,
            modeled_ms: out.report.total_ms,
            failed,
            recalls,
            probe,
        }
    }
}

/// `topk_rows` on a 2-device cluster over one MoE gating-logit matrix,
/// top-2 per row: tens of thousands of tiny launches per call.
struct Rows {
    cluster: GpuCluster,
    logits: Vec<f32>,
    rows: usize,
    config: DrTopKConfig,
    /// Per row, its top-2 logits, descending.
    expected: Vec<Vec<f32>>,
}

impl Rows {
    fn new(scale: Scale, seed: u64) -> Rows {
        let w = Rows {
            cluster: GpuCluster::homogeneous(DEVICES, DeviceSpec::v100s()),
            logits: datagen::moe_gating_logits(scale.rows, COLS, 1.0, seed),
            rows: scale.rows,
            config: DrTopKConfig::default(),
            expected: Vec::new(),
        };
        black_box(w.select());
        w.cluster.reset_stats();
        w
    }

    fn matrix(&self) -> RowMatrix<'_, f32> {
        RowMatrix::new(&self.logits, self.rows, COLS)
    }

    fn select(&self) -> drtopk::core::RowTopKResult<f32> {
        topk_rows(
            &self.cluster,
            self.matrix(),
            &RowK::Uniform(ROW_K),
            &self.config,
        )
    }
}

impl Workload for Rows {
    fn selections_per_call(&self) -> usize {
        self.rows
    }

    fn devices(&self) -> Vec<&Device> {
        self.cluster.devices().iter().collect()
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.logits.as_slice())
    }

    fn prepare_checks(&mut self) {
        let matrix = self.matrix();
        self.expected = (0..self.rows)
            .map(|r| reference_topk(matrix.row(r), ROW_K))
            .collect();
    }

    fn call(&mut self, _i: usize, traced: bool) -> Call {
        let watch = Stopwatch::start();
        let result = self.select();
        let (wall_ms, cpu_ms) = watch.stop();
        let result = black_box(result);
        let failed = result.rows.len() != self.rows
            || result
                .rows
                .iter()
                .zip(&self.expected)
                .any(|(got, want)| !same_bits(&got.values, want));
        let probe = if traced {
            Probe {
                rows: Some(RowsSample {
                    rows: self.rows,
                    blocks: result.num_blocks,
                    delegate_passes: result.delegate_passes,
                }),
                ..Probe::from_report(&result.stages)
            }
        } else {
            Probe::default()
        };
        Call {
            wall_ms,
            cpu_ms,
            modeled_ms: result.time_ms,
            failed,
            recalls: Vec::new(),
            probe,
        }
    }
}
