//! Row-wise matrix top-k: the whole `rows × cols` matrix split into
//! row-blocks, each device running its blocks as **plain calls** (going
//! beyond the paper; see RTop-K / RadiK in `PAPERS.md`).
//!
//! The paper's pipeline answers top-k over one vector. The dominant
//! consumers of GPU top-k in 2026 — MoE gating, beam search, sparse
//! attention — need the top-k of *every row* of an activation matrix, with
//! tiny per-row k and huge row counts. [`topk_rows`] packs rows into
//! per-device **row-blocks** and runs **one launch per phase per block**,
//! one warp per row (RTop-K's mapping; past 2^14 rows a warp takes a
//! balanced chunk of rows). The fused pass reads the block's row slab once
//! (coalesced) and extracts each row's per-subrange delegates, or, for rows
//! whose plan falls back to the inner algorithm, the row's sorted top-k.
//! The first top-k, concatenation and second top-k kernels then each take
//! every row that needs them, so an `R`-row matrix on `D` devices runs at
//! most four launches and one delegate pass per block instead of per row.
//!
//! Blocks share no state. Block `b` runs on device `b % D`; each device
//! runs its blocks in order on its own host thread (a one-device run
//! spawns none) and records them through one [`Serial`], and the
//! per-device reports are spliced into one [`StageReport`] in block order.
//! Every phase reads and writes flat buffers that a device reuses block
//! after block: the rows' delegates, Rule 3 groups and candidates each go
//! into one vector with a span per row, so a row allocates only its k
//! winners.
//!
//! Per-row results are **bit-identical** to running [`dr_topk`] with the
//! same configuration, direction included, on each row independently: the
//! same [`PlannedQuery`] plan, delegates (the construction's host loop,
//! `delegates_into`), flag-radix threshold, mark / Rule 3 / subrange-gather
//! helpers of `first_topk` and `concatenate`, and second-top-k skip rule.
//! Rows select at host speed and never run `config.inner`: every inner
//! algorithm is exact, so the sorted top-k is the same values. The kernels
//! record the warp-per-row cost instead: coalesced loads of each row's
//! delegates or candidates, a shared-memory histogram and warp scan per
//! radix pass, each gathered subrange's read, atomic and store, and k
//! stores.
//!
//! [`dr_topk`]: crate::pipeline::dr_topk

use gpu_sim::warp::SHUFFLES_PER_WARP_REDUCTION;
use gpu_sim::{try_run_on_each, Device, GpuCluster, KernelStats, WarpCtx};
use std::convert::Infallible;
use std::ops::Range;
use std::time::Instant;
use topk_baselines::radix::BITS_PER_PASS;
use topk_baselines::{KeyBits, TopKKey, TopKResult};

use crate::concat::gather_subrange;
use crate::delegate::{delegate_subrange_ids, delegates_into, Delegates};
use crate::direction::{as_desc, Direction};
use crate::first_topk::{kv_words, mark, take_marked_into, Marked};
use crate::pipeline::{DrTopKConfig, PhaseBreakdown, PlannedQuery};
use crate::radix_flags::radix_select_threshold;
use crate::stages::{ExecutedStage, Serial, StageKind, StageOutcome, StageReport};
use crate::verify::debug_assert_verified;

/// A borrowed row-major `rows × cols` matrix.
///
/// Invariant (checked by [`RowMatrix::new`]): `data.len() == rows * cols`;
/// row `r` is `data[r * cols .. (r + 1) * cols]`.
#[derive(Debug, Clone, Copy)]
pub struct RowMatrix<'a, K: TopKKey = u32> {
    /// The backing storage, row-major.
    pub data: &'a [K],
    /// Number of rows.
    pub rows: usize,
    /// Number of columns (elements per row).
    pub cols: usize,
}

impl<'a, K: TopKKey> RowMatrix<'a, K> {
    /// Wrap a row-major slice as a matrix.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn new(data: &'a [K], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "row-major matrix: data length must be rows * cols"
        );
        RowMatrix { data, rows, cols }
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &'a [K] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Per-row k specification: one k for every row, or an explicit k per row.
///
/// Ks larger than `cols` are clamped per row (exactly as
/// [`PlannedQuery::plan`] clamps `k` to the input length); `k = 0` rows
/// return empty selections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowK {
    /// The same k for every row.
    Uniform(usize),
    /// `ks[r]` is row `r`'s k; the vector length must equal the row count.
    PerRow(Vec<usize>),
}

impl RowK {
    /// Row `r`'s requested k (before clamping to `cols`).
    pub fn get(&self, row: usize) -> usize {
        match self {
            RowK::Uniform(k) => *k,
            RowK::PerRow(ks) => ks[row],
        }
    }

    /// Assert the specification covers exactly `rows` rows.
    pub fn validate(&self, rows: usize) {
        if let RowK::PerRow(ks) = self {
            assert_eq!(
                ks.len(),
                rows,
                "per-row k vector length must equal the row count"
            );
        }
    }
}

/// Result of a [`topk_rows`] run.
#[derive(Debug, Clone)]
pub struct RowTopKResult<K: TopKKey = u32> {
    /// Per-row selections, in row order. Values and `kth_value` are
    /// bit-identical to running the single-vector pipeline on each row;
    /// per-row `stats`/`time_ms` are zero — kernel counters are accounted
    /// at block granularity in [`stats`](RowTopKResult::stats) and
    /// [`stages`](RowTopKResult::stages), because a fused pass's cost has
    /// no meaningful per-row attribution.
    pub rows: Vec<TopKResult<K>>,
    /// Number of row-blocks the matrix was split into.
    pub num_blocks: usize,
    /// Rows per block the run was planned with.
    pub rows_per_block: usize,
    /// Number of fused delegate passes that ran — one per block that had
    /// any work, never one per row (≤ `⌈rows / rows_per_block⌉`).
    pub delegate_passes: usize,
    /// Per-phase modeled times, derived from the executed schedule.
    pub breakdown: PhaseBreakdown,
    /// Kernel counters accumulated across every stage of the run.
    pub stats: KernelStats,
    /// Modeled makespan of the whole matrix in milliseconds.
    pub time_ms: f64,
    /// The executed stage schedule (row-span labels identify each block's
    /// stages in traces).
    pub stages: StageReport,
    /// Minimum plan-time expected recall across rows: 1.0 when every row
    /// ran an exact plan, the weakest row's modeled recall otherwise.
    pub predicted_recall: f64,
}

/// Which execution path a row's plan resolved to — the row-block mirror of
/// the single-vector pipeline's routing in
/// [`dr_topk_planned`](crate::pipeline::dr_topk_planned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowPath {
    /// `k = 0` or an empty row: the selection is empty, no kernel touches it.
    Skip,
    /// The plan fell back to the inner algorithm (tiny row, k ≥ row, k not
    /// smaller than the delegate vector). The fused pass answers it from
    /// the slab read directly.
    Direct,
    /// The exact delegate pipeline: delegates → first top-k →
    /// concatenation → second top-k.
    Exact,
    /// The recall-targeted approximate path: per-bucket candidates →
    /// second top-k.
    Approx,
}

/// One distinct k's resolved plan (k clamped, α pinned, mode normalised)
/// and the path it resolves to. An exact plan also keeps the subrange id
/// of each of a row's delegate entries: they depend on the plan alone, so
/// its rows share them.
struct RowPlan {
    planned: PlannedQuery,
    path: RowPath,
    subrange_ids: Vec<u32>,
}

/// The planned layout of a matrix run: one plan per distinct k, each row's
/// plan, and the block geometry. Computed once; every device reads it.
struct RowLayout {
    plans: Vec<RowPlan>,
    /// Row `r`'s plan is `plans[plan_of[r]]`.
    plan_of: Vec<usize>,
    rows_per_block: usize,
    /// Total blocks (`⌈rows / rows_per_block⌉`).
    num_blocks: usize,
    /// Minimum plan-time recall across non-skip rows (1.0 when none).
    predicted_recall: f64,
}

impl RowLayout {
    fn block_span(&self, b: usize, rows: usize) -> Range<usize> {
        b * self.rows_per_block..((b + 1) * self.rows_per_block).min(rows)
    }
}

fn layout_rows<K: TopKKey>(
    matrix: &RowMatrix<'_, K>,
    ks: &RowK,
    config: &DrTopKConfig,
    rows_per_block: usize,
) -> RowLayout {
    ks.validate(matrix.rows);
    let rows_per_block = rows_per_block.max(1);
    // Plans depend only on (cols, k, config): plan each distinct k once.
    let mut index_of: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut plans: Vec<RowPlan> = Vec::new();
    let plan_of = (0..matrix.rows)
        .map(|r| {
            *index_of.entry(ks.get(r)).or_insert_with_key(|&k| {
                let planned = PlannedQuery::plan(matrix.cols, k, config);
                let path = if planned.k == 0 || matrix.cols == 0 {
                    RowPath::Skip
                } else if !planned.use_delegates {
                    RowPath::Direct
                } else if planned.config.mode.strict_target().is_some() {
                    RowPath::Approx
                } else {
                    RowPath::Exact
                };
                let subrange_ids = if path == RowPath::Exact {
                    let size = 1usize << planned.alpha;
                    delegate_subrange_ids(matrix.cols, size, planned.config.beta)
                } else {
                    Vec::new()
                };
                plans.push(RowPlan {
                    planned,
                    path,
                    subrange_ids,
                });
                plans.len() - 1
            })
        })
        .collect();
    let predicted_recall = plans
        .iter()
        .filter(|plan| plan.path != RowPath::Skip)
        .map(|plan| plan.planned.predicted_recall)
        .fold(1.0f64, f64::min);
    RowLayout {
        plans,
        plan_of,
        rows_per_block,
        num_blocks: matrix.rows.div_ceil(rows_per_block),
        predicted_recall,
    }
}

/// Warp cap of one row-block launch: past it, each warp takes a balanced
/// chunk of rows.
const MAX_ROW_WARPS: usize = 1 << 14;

/// One row-block on its device: what every kernel of the block reads.
#[derive(Clone, Copy)]
struct Block<'a, K: TopKKey> {
    device: &'a Device,
    matrix: RowMatrix<'a, K>,
    layout: &'a RowLayout,
    /// Index of the block's first row.
    start: usize,
    len: usize,
}

impl<'a, K: TopKKey> Block<'a, K> {
    /// Local row `l`'s plan.
    fn plan(&self, l: usize) -> &'a RowPlan {
        let layout = self.layout;
        &layout.plans[layout.plan_of[self.start + l]]
    }
}

/// One row's spans in its device's block buffers; a phase the row skips
/// leaves its span empty.
#[derive(Debug, Clone, Default)]
struct RowSlots<K> {
    /// Its delegates (exact rows) or candidates (approximate rows).
    delegates: Range<usize>,
    /// Its first top-k threshold.
    threshold: K,
    fully_taken: Range<usize>,
    partial: Range<usize>,
    /// Its concatenation.
    candidates: Range<usize>,
}

/// One device's phase buffers, reused block after block: each phase
/// appends every row's output to one flat vector and records the row's
/// span.
#[derive(Default)]
struct BlockBuffers<K: TopKKey> {
    slots: Vec<RowSlots<K>>,
    delegates: Vec<K>,
    fully_taken: Vec<u32>,
    partial: Vec<K>,
    candidates: Vec<K>,
    marked: Marked<K>,
    /// Radix-space scratch of the host-speed selections.
    bits: Vec<K::Bits>,
    /// The block's exact rows, and the rows its second top-k settles
    /// (exact and approximate), as local indices.
    exact: Vec<usize>,
    selected: Vec<usize>,
}

/// A row's selection of the top-k of `values`, sorted descending in radix
/// space: exactly what every (exact) inner algorithm returns for them. The
/// selection runs in the reused scratch `bits`, so only the k winners are
/// allocated. Per-row counters stay zero (see [`RowTopKResult`]).
fn row_topk<K: TopKKey>(values: &[K], k: usize, bits: &mut Vec<K::Bits>) -> TopKResult<K> {
    bits.clear();
    bits.extend(values.iter().map(|v| v.to_bits()));
    let k = k.min(bits.len());
    let descending = |a: &K::Bits, b: &K::Bits| b.cmp(a);
    if 0 < k && k < bits.len() {
        bits.select_nth_unstable_by(k - 1, descending);
    }
    bits[..k].sort_unstable_by(descending);
    let values: Vec<K> = bits[..k].iter().map(|&b| K::from_bits(b)).collect();
    TopKResult {
        kth_value: values.last().copied().unwrap_or_default(),
        values,
        stats: KernelStats::default(),
        time_ms: 0.0,
    }
}

/// RTop-K's cost of one warp's radix select over `n` keys (a row, or a
/// chunk of a fused unit's first top-k winners): per pass, a shared-memory
/// histogram of the keys plus a warp scan of the digit counts.
pub(crate) fn record_warp_select(kctx: &mut WarpCtx<'_>, n: usize, passes: u32) {
    let passes = u64::from(passes);
    kctx.record_shared(passes * (n as u64 + (1 << BITS_PER_PASS)));
    kctx.record_shuffles(passes * SHUFFLES_PER_WARP_REDUCTION);
}

/// One launch over `n` of the block's rows, one warp per row up to
/// [`MAX_ROW_WARPS`]: `kernel` gets each warp's chunk of `0..n`. No rows,
/// no launch. The kernel writes its rows' output straight into the block
/// buffers.
fn launch_block(
    device: &Device,
    name: &'static str,
    n: usize,
    mut kernel: impl FnMut(&mut WarpCtx<'_>, Range<usize>),
) -> StageOutcome {
    if n == 0 {
        return StageOutcome::default();
    }
    let launch = device.launch(name, n.min(MAX_ROW_WARPS), |kctx| {
        let chunk = kctx.chunk_of(n);
        kernel(kctx, chunk)
    });
    StageOutcome::new(launch.stats, launch.time_ms)
}

/// Phase 1, the fused pass: one launch over the whole block. Each warp
/// reads every contiguous run of its active rows with ONE coalesced
/// access — the fused pass's transaction saving over per-row pipeline
/// runs — then extracts each delegate-path row's delegates and answers
/// each fallback row from the slab.
fn fused_pass<K: TopKKey>(
    block: Block<'_, K>,
    bufs: &mut BlockBuffers<K>,
    out: &mut [TopKResult<K>],
) -> StageOutcome {
    let cols = block.matrix.cols;
    let active = |l: usize| block.plan(l).path != RowPath::Skip;
    let pass = |kctx: &mut WarpCtx<'_>, local: Range<usize>| {
        let mut i = local.start;
        while i < local.end {
            let j = (i..local.end).find(|&j| !active(j)).unwrap_or(local.end);
            let slab = (block.start + i) * cols..(block.start + j) * cols;
            if i < j {
                let slab = kctx.read_coalesced(&block.matrix.data[slab]);
                kctx.record_alu(slab.len() as u64);
                for (l, row) in (i..j).zip(slab.chunks_exact(cols)) {
                    let RowPlan { planned, path, .. } = block.plan(l);
                    if *path == RowPath::Direct {
                        out[l] = row_topk(row, planned.k, &mut bufs.bits);
                        let stored = kv_words::<K>() * out[l].values.len();
                        kctx.record_store_coalesced::<u32>(stored);
                        continue;
                    }
                    let from = bufs.delegates.len();
                    let subrange_size = 1usize << planned.alpha;
                    delegates_into(row, subrange_size, planned.config.beta, &mut bufs.delegates);
                    let to = bufs.delegates.len();
                    kctx.record_store_coalesced::<u32>(kv_words::<K>() * (to - from));
                    bufs.slots[l].delegates = from..to;
                }
            }
            i = j + 1;
        }
    };
    launch_block(block.device, "drtopk_rows_fused_pass", block.len, pass)
}

/// Phase 2, the first top-k of every exact row: the flag radix threshold,
/// the mark pass and Rule 3's grouping, into the block buffers.
fn first_topk_rows<K: TopKKey>(block: Block<'_, K>, bufs: &mut BlockBuffers<K>) -> StageOutcome {
    let n = bufs.exact.len();
    launch_block(block.device, "drtopk_rows_first_topk", n, |kctx, chunk| {
        for &l in &bufs.exact[chunk] {
            let plan = block.plan(l);
            let slot = &mut bufs.slots[l];
            let values = kctx.read_coalesced(&bufs.delegates[slot.delegates.clone()]);
            let subrange_size = 1usize << plan.planned.alpha;
            let delegates = Delegates {
                values,
                subrange_ids: &plan.subrange_ids,
                beta: plan.planned.config.beta,
                subrange_size,
                num_subranges: block.matrix.cols.div_ceil(subrange_size),
            };
            let k = plan.planned.k.min(values.len());
            let skip_last = plan.planned.config.skip_last_first_pass;
            let passes = K::Bits::BITS / BITS_PER_PASS - u32::from(skip_last);
            record_warp_select(kctx, values.len(), passes);
            slot.threshold = radix_select_threshold(values, k, skip_last, &mut bufs.bits);
            bufs.marked.clear();
            let (ids, threshold) = (plan.subrange_ids.iter().copied(), slot.threshold.to_bits());
            mark(values.iter().copied().zip(ids), threshold, &mut bufs.marked);
            kctx.record_alu(values.len() as u64);
            let (full, partial) = (bufs.fully_taken.len(), bufs.partial.len());
            let taken = take_marked_into(
                delegates,
                &bufs.marked,
                k,
                !skip_last,
                &mut bufs.fully_taken,
                &mut bufs.partial,
            );
            kctx.record_store_coalesced::<u32>(kv_words::<K>() * taken);
            slot.fully_taken = full..bufs.fully_taken.len();
            slot.partial = partial..bufs.partial.len();
        }
    })
}

/// Phase 3, the concatenation of every exact row: its partial delegates,
/// then each fully taken subrange, filtered by the threshold (Rule 2).
fn concatenate_rows<K: TopKKey>(block: Block<'_, K>, bufs: &mut BlockBuffers<K>) -> StageOutcome {
    let n = bufs.exact.len();
    launch_block(block.device, "drtopk_rows_concat", n, |kctx, chunk| {
        for &l in &bufs.exact[chunk] {
            let planned = &block.plan(l).planned;
            let slot = &mut bufs.slots[l];
            let filter = planned.config.filtering.then(|| slot.threshold.to_bits());
            let from = bufs.candidates.len();
            let partial = &bufs.partial[slot.partial.clone()];
            bufs.candidates.extend_from_slice(partial);
            let row = block.matrix.row(block.start + l);
            let size = 1usize << planned.alpha;
            for &id in kctx.read_coalesced(&bufs.fully_taken[slot.fully_taken.clone()]) {
                gather_subrange(kctx, row, size, id, filter, &mut bufs.candidates);
            }
            slot.candidates = from..bufs.candidates.len();
        }
    })
}

/// Phase 4, the second top-k: exact rows select from their concatenation,
/// approximate rows from their candidates.
fn second_topk_rows<K: TopKKey>(
    block: Block<'_, K>,
    bufs: &mut BlockBuffers<K>,
    out: &mut [TopKResult<K>],
) -> StageOutcome {
    let n = bufs.selected.len();
    launch_block(block.device, "drtopk_rows_second_topk", n, |kctx, chunk| {
        for &l in &bufs.selected[chunk] {
            let RowPlan { planned, path, .. } = block.plan(l);
            let slot = &bufs.slots[l];
            let (values, skipped) = if *path == RowPath::Exact {
                // Same skip rule as the single-vector pipeline (Figure 8b):
                // the taken delegates alone answer the query exactly.
                let c = &bufs.candidates[slot.candidates.clone()];
                let exact_threshold = !planned.config.skip_last_first_pass;
                let taken_only = slot.fully_taken.is_empty() && c.len() == planned.k;
                (c, exact_threshold && taken_only)
            } else {
                (&bufs.delegates[slot.delegates.clone()], false)
            };
            let values = kctx.read_coalesced(values);
            if !skipped {
                record_warp_select(kctx, values.len(), K::Bits::BITS / BITS_PER_PASS);
            }
            out[l] = row_topk(values, planned.k, &mut bufs.bits);
            kctx.record_store_coalesced::<K>(out[l].values.len());
        }
    })
}

/// Run `block` as plain calls recorded by `serial`, as a chain of its own:
/// the fused pass, then (when the block has exact rows) the first top-k
/// and the concatenation, then the second top-k, each at most one launch.
/// Writes every row's selection to `out` and returns the number of stages
/// recorded, none when no row needs work.
fn run_block<K: TopKKey>(
    block: Block<'_, K>,
    serial: &mut Serial,
    bufs: &mut BlockBuffers<K>,
    out: &mut [TopKResult<K>],
) -> usize {
    bufs.slots.clear();
    bufs.slots.resize_with(block.len, RowSlots::default);
    bufs.delegates.clear();
    bufs.fully_taken.clear();
    bufs.partial.clear();
    bufs.candidates.clear();
    bufs.exact.clear();
    bufs.selected.clear();
    if (0..block.len).all(|l| block.plan(l).path == RowPath::Skip) {
        return 0;
    }
    let on = move |paths: &'static [RowPath]| {
        (0..block.len).filter(move |&l| paths.contains(&block.plan(l).path))
    };
    bufs.exact.extend(on(&[RowPath::Exact]));
    bufs.selected.extend(on(&[RowPath::Exact, RowPath::Approx]));
    let has_exact = !bufs.exact.is_empty();
    // The pass's kind mirrors the single-vector pipeline's phase-1 stage: a
    // delegate construction when any row runs the exact pipeline, the
    // approximate candidate pass when the block is purely approximate
    // (pure-fallback blocks keep the construction kind: the pass still
    // *is* the block's one slab-reading pass).
    let pass_kind = if !has_exact && !bufs.selected.is_empty() {
        StageKind::BucketTopKPrime
    } else {
        StageKind::DelegateConstruction
    };
    let (start, end) = (block.start, block.start + block.len);
    let label = |phase: &str| format!("rows {start}..{end} {phase}");
    serial.begin_chain();
    serial.stage(pass_kind, label("fused pass"), || {
        ((), fused_pass(block, bufs, out))
    });
    if has_exact {
        serial.stage(StageKind::FirstTopK, label("first top-k"), || {
            ((), first_topk_rows(block, bufs))
        });
        serial.stage(StageKind::Concatenate, label("concatenate"), || {
            ((), concatenate_rows(block, bufs))
        });
    }
    serial.stage(StageKind::SecondTopK, label("second top-k"), || {
        ((), second_topk_rows(block, bufs, out))
    });
    if has_exact {
        4
    } else {
        2
    }
}

/// What one device produced: its blocks' rows, block after block, the
/// number of stages each block recorded, and its schedule.
struct DeviceRun<K: TopKKey> {
    rows: Vec<TopKResult<K>>,
    block_stages: Vec<usize>,
    report: StageReport,
}

/// Run device `d`'s blocks `d, d + D, …` in order, reusing one set of
/// buffers.
fn run_device<K: TopKKey>(
    device: &Device,
    d: usize,
    num_devices: usize,
    matrix: RowMatrix<'_, K>,
    layout: &RowLayout,
    epoch: Instant,
) -> DeviceRun<K> {
    let mut serial = Serial::since(d, epoch);
    let mut bufs = BlockBuffers::default();
    let mut rows = Vec::new();
    let mut block_stages = Vec::new();
    for b in (d..layout.num_blocks).step_by(num_devices) {
        let span = layout.block_span(b, matrix.rows);
        let block = Block {
            device,
            matrix,
            layout,
            start: span.start,
            len: span.len(),
        };
        let base = rows.len();
        let empty = || TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
        rows.resize_with(base + block.len, empty);
        block_stages.push(run_block(block, &mut serial, &mut bufs, &mut rows[base..]));
    }
    DeviceRun {
        rows,
        block_stages,
        report: serial.finish(),
    }
}

/// Splice the per-device runs into one result in block order: the rows,
/// and a report listing the stages block by block, each block's
/// dependencies re-indexed. A device's modeled times are its queue's
/// running sum, which is what replaying the whole schedule gives blocks
/// that share no state.
fn gather_result<K: TopKKey>(
    layout: &RowLayout,
    rows: usize,
    runs: Vec<DeviceRun<K>>,
) -> RowTopKResult<K> {
    let max = |ms: fn(&StageReport) -> f64| runs.iter().map(|r| ms(&r.report)).fold(0.0, f64::max);
    let mut report = StageReport {
        stages: Vec::new(),
        makespan_ms: max(|r| r.makespan_ms),
        measured_makespan_ms: max(|r| r.measured_makespan_ms),
    };
    let num_devices = runs.len();
    let mut devices: Vec<_> = runs
        .into_iter()
        .map(|run| {
            let stages = run.report.stages.into_iter();
            (
                run.rows.into_iter(),
                run.block_stages.into_iter(),
                stages,
                0,
            )
        })
        .collect();
    let mut out_rows = Vec::with_capacity(rows);
    let mut passes = 0usize;
    for b in 0..layout.num_blocks {
        let (block_rows, block_stages, stages, consumed) = &mut devices[b % num_devices];
        out_rows.extend(block_rows.take(layout.block_span(b, rows).len()));
        let n = block_stages.next().expect("every block ran");
        passes += usize::from(n > 0);
        let base = report.stages.len();
        for stage in stages.take(n) {
            // A block's stages depend only on the block's earlier stages.
            let deps = stage.deps.iter().map(|d| d - *consumed + base).collect();
            report.stages.push(ExecutedStage { deps, ..stage });
        }
        *consumed += n;
    }
    debug_assert_verified("row-block stage report", || report.verify());
    RowTopKResult {
        rows: out_rows,
        num_blocks: layout.num_blocks,
        rows_per_block: layout.rows_per_block,
        delegate_passes: passes,
        breakdown: report.phase_breakdown(),
        stats: report.stats(),
        time_ms: report.makespan_ms,
        predicted_recall: layout.predicted_recall,
        stages: report,
    }
}

/// Row-wise top-k over every row of `matrix` (largest or smallest per
/// [`DrTopKConfig::direction`]), with `⌈rows / num_devices⌉` rows per block
/// (one block per device, the devices running in parallel).
///
/// Each row's values are bit-identical to
/// [`dr_topk`](crate::pipeline::dr_topk) on that row with the same
/// `config`; see the module docs for how the fused per-block pass achieves
/// that with one delegate pass per block instead of one per row.
///
/// ```
/// use drtopk_core::{topk_rows, DrTopKConfig, RowK, RowMatrix};
/// use gpu_sim::{DeviceSpec, GpuCluster};
///
/// let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
/// let data: Vec<u32> = (0..8 * 1024u32).map(|x| x.wrapping_mul(2654435761)).collect();
/// let matrix = RowMatrix::new(&data, 8, 1024);
/// let result = topk_rows(&cluster, matrix, &RowK::Uniform(4), &DrTopKConfig::default());
/// assert_eq!(result.rows.len(), 8);
/// for (r, row) in result.rows.iter().enumerate() {
///     assert_eq!(row.values, topk_baselines::reference_topk(matrix.row(r), 4));
/// }
/// assert!(result.delegate_passes <= 2, "one fused pass per device, not per row");
/// ```
pub fn topk_rows<K: TopKKey>(
    cluster: &GpuCluster,
    matrix: RowMatrix<'_, K>,
    ks: &RowK,
    config: &DrTopKConfig,
) -> RowTopKResult<K> {
    let devices: Vec<&Device> = cluster.devices().iter().collect();
    topk_rows_on(&devices, matrix, ks, config, None)
}

/// The fully parameterised entry point: explicit device set and block
/// size. `rows_per_block = None` defaults to `⌈rows / devices⌉` (one block
/// per device); block `b` runs on `devices[b % devices.len()]`.
///
/// This is the seam the batching engine uses to run a row-matrix unit on
/// one assigned worker device.
pub fn topk_rows_on<K: TopKKey>(
    devices: &[&Device],
    matrix: RowMatrix<'_, K>,
    ks: &RowK,
    config: &DrTopKConfig,
    rows_per_block: Option<usize>,
) -> RowTopKResult<K> {
    match config.direction {
        Direction::Largest => run_rows(devices, matrix, ks, config, rows_per_block),
        Direction::Smallest => run_rows(
            devices,
            RowMatrix::new(as_desc(matrix.data), matrix.rows, matrix.cols),
            ks,
            config,
            rows_per_block,
        )
        .into_native(),
    }
}

/// [`topk_rows_on`] below the direction boundary: every row's largest keys
/// in `K`'s order.
fn run_rows<K: TopKKey>(
    devices: &[&Device],
    matrix: RowMatrix<'_, K>,
    ks: &RowK,
    config: &DrTopKConfig,
    rows_per_block: Option<usize>,
) -> RowTopKResult<K> {
    assert!(!devices.is_empty(), "need at least one device");
    let rpb = rows_per_block.unwrap_or_else(|| matrix.rows.div_ceil(devices.len()).max(1));
    let layout = layout_rows(&matrix, ks, config, rpb);
    let epoch = Instant::now();
    // Only devices that own a block run; one such device runs inline.
    let devices = &devices[..devices.len().min(layout.num_blocks)];
    let runs = try_run_on_each(devices, |d, device| {
        let run = run_device(device, d, devices.len(), matrix, &layout, epoch);
        Ok::<_, Infallible>(run)
    })
    .unwrap_or_else(|failure| match failure.error {});
    gather_result(&layout, matrix.rows, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::dr_topk;
    use crate::stages::Resource;
    use gpu_sim::DeviceSpec;
    use topk_baselines::{reference_topk, reference_topk_min};

    fn cluster(n: usize) -> GpuCluster {
        GpuCluster::homogeneous(n, DeviceSpec::v100s())
    }

    #[test]
    fn rows_match_per_row_pipeline_bitwise() {
        let c = cluster(2);
        let cols = 1 << 12;
        let rows = 6;
        let data = topk_datagen::uniform(rows * cols, 7);
        let matrix = RowMatrix::new(&data, rows, cols);
        let cfg = DrTopKConfig::default();
        let got = topk_rows(&c, matrix, &RowK::Uniform(64), &cfg);
        assert_eq!(got.rows.len(), rows);
        for r in 0..rows {
            let single = dr_topk(c.device(0), matrix.row(r), 64, &cfg);
            assert_eq!(got.rows[r].values, single.values, "row {r}");
            assert_eq!(got.rows[r].kth_value, single.kth_value, "row {r}");
        }
        assert!(got.delegate_passes <= 2);
        assert_eq!(got.num_blocks, 2);
    }

    #[test]
    fn per_row_k_mixes_paths_in_one_matrix() {
        let c = cluster(2);
        let cols = 2048;
        let rows = 5;
        let data = topk_datagen::customized(rows * cols, 3);
        let matrix = RowMatrix::new(&data, rows, cols);
        let cfg = DrTopKConfig::default();
        // k = 0 (skip), tiny k (delegates), k = cols (fallback sort),
        // k > cols (clamped), half (fallback)
        let ks = RowK::PerRow(vec![0, 16, cols, cols + 100, cols / 2]);
        let got = topk_rows(&c, matrix, &ks, &cfg);
        for r in 0..rows {
            let k = ks.get(r);
            let single = dr_topk(c.device(0), matrix.row(r), k, &cfg);
            assert_eq!(got.rows[r].values, single.values, "row {r} k={k}");
            assert_eq!(got.rows[r].kth_value, single.kth_value, "row {r} k={k}");
        }
        assert!(got.rows[0].values.is_empty());
        assert_eq!(got.rows[2].values.len(), cols);
        assert_eq!(got.rows[3].values.len(), cols);
    }

    #[test]
    fn min_direction_matches_reference() {
        let c = cluster(1);
        let cols = 1 << 11;
        let rows = 4;
        let data: Vec<f32> = topk_datagen::uniform(rows * cols, 11)
            .into_iter()
            .map(|x| (x % 100_000) as f32 * 0.25)
            .collect();
        let matrix = RowMatrix::new(&data, rows, cols);
        let smallest = DrTopKConfig {
            direction: Direction::Smallest,
            ..DrTopKConfig::default()
        };
        let got = topk_rows(&c, matrix, &RowK::Uniform(10), &smallest);
        for r in 0..rows {
            assert_eq!(got.rows[r].values, reference_topk_min(matrix.row(r), 10));
            let single = dr_topk(c.device(0), matrix.row(r), 10, &smallest);
            assert_eq!(got.rows[r].values, single.values);
        }
    }

    #[test]
    fn approx_mode_matches_per_row_approx() {
        let c = cluster(2);
        let cols = 1 << 14;
        let rows = 4;
        let data = topk_datagen::uniform(rows * cols, 19);
        let matrix = RowMatrix::new(&data, rows, cols);
        let cfg = DrTopKConfig::approx(0.9);
        let got = topk_rows(&c, matrix, &RowK::Uniform(32), &cfg);
        assert!(got.predicted_recall >= 0.9);
        for r in 0..rows {
            let single = dr_topk(c.device(0), matrix.row(r), 32, &cfg);
            assert_eq!(got.rows[r].values, single.values, "row {r}");
        }
    }

    #[test]
    fn empty_and_degenerate_matrices() {
        let c = cluster(1);
        let got = topk_rows::<u32>(
            &c,
            RowMatrix::new(&[], 0, 128),
            &RowK::Uniform(4),
            &DrTopKConfig::default(),
        );
        assert!(got.rows.is_empty());
        assert_eq!(got.delegate_passes, 0);

        let got = topk_rows::<u32>(
            &c,
            RowMatrix::new(&[], 4, 0),
            &RowK::Uniform(4),
            &DrTopKConfig::default(),
        );
        assert_eq!(got.rows.len(), 4);
        assert!(got.rows.iter().all(|r| r.values.is_empty()));

        let data = topk_datagen::uniform(4 * 256, 1);
        let got = topk_rows(
            &c,
            RowMatrix::new(&data, 4, 256),
            &RowK::Uniform(0),
            &DrTopKConfig::default(),
        );
        assert!(got.rows.iter().all(|r| r.values.is_empty()));
        assert_eq!(got.delegate_passes, 0);
    }

    /// Skip, delegate, fallback and clamped rows, cycling over `rows`; the
    /// approximate config turns the delegate rows approximate.
    fn mixed_ks(rows: usize, cols: usize) -> RowK {
        let mixed = [0, 16, cols / 2, cols, cols + 9, 16];
        RowK::PerRow((0..rows).map(|r| mixed[r % mixed.len()]).collect())
    }

    /// The spliced row report is a stage graph that passes static
    /// verification, for 1–3 devices with two blocks each, exact and
    /// approximate: it lists blocks in order, a block's pass waits on
    /// nothing and every later stage on the one before, and each stage
    /// starts where its device's previous stage ended.
    #[test]
    fn graph_passes_static_verification() {
        let cols = 1 << 10;
        let rows = 12;
        let data = topk_datagen::uniform(rows * cols, 23);
        let matrix = RowMatrix::new(&data, rows, cols);
        let ks = mixed_ks(rows, cols);
        for cfg in [DrTopKConfig::default(), DrTopKConfig::approx(0.9)] {
            for num_devices in 1..=3 {
                let c = cluster(num_devices);
                let devices: Vec<&Device> = c.devices().iter().collect();
                let rpb = rows.div_ceil(2 * num_devices);
                let got = topk_rows_on(&devices, matrix, &ks, &cfg, Some(rpb));
                assert_eq!(got.num_blocks, 2 * num_devices);
                assert!(got.delegate_passes <= got.num_blocks);
                let diags = got.stages.verify();
                assert!(diags.is_empty(), "row-block report must verify: {diags:?}");
                let stages = &got.stages.stages;
                let first_row = |s: &ExecutedStage| {
                    s.label
                        .split([' ', '.'])
                        .find_map(|w| w.parse::<usize>().ok())
                };
                assert!(stages
                    .windows(2)
                    .all(|w| first_row(&w[0]) <= first_row(&w[1])));
                let mut ends = vec![0.0f64; num_devices];
                for (i, stage) in stages.iter().enumerate() {
                    let Resource::Compute(d) = stage.resource else {
                        panic!("row stages run on compute queues");
                    };
                    assert_eq!(stage.start_ms.to_bits(), ends[d].to_bits(), "stage {i}");
                    ends[d] = stage.end_ms;
                    let root = stage.label.ends_with("fused pass");
                    let deps = if root { vec![] } else { vec![i - 1] };
                    assert_eq!(stage.deps, deps, "stage {i}");
                }
            }
        }
    }

    /// Devices share no state, so the order their block chains run in
    /// cannot matter: running the per-device chains one after another, in
    /// every device order, gives the parallel run's rows, thresholds,
    /// counters, breakdown and modeled schedule bit for bit, and exact
    /// rows are the reference top-k.
    #[test]
    fn every_device_order_matches_the_parallel_row_run() {
        let cols = 1 << 10;
        let rows = 12;
        let data = topk_datagen::normal(rows * cols, 13);
        let matrix = RowMatrix::new(&data, rows, cols);
        let ks = mixed_ks(rows, cols);
        let orders: [&[&[usize]]; 3] = [
            &[&[0]],
            &[&[0, 1], &[1, 0]],
            &[
                &[0, 1, 2],
                &[0, 2, 1],
                &[1, 0, 2],
                &[1, 2, 0],
                &[2, 0, 1],
                &[2, 1, 0],
            ],
        ];
        let bits = |r: &RowTopKResult| -> Vec<(Vec<u32>, u32)> {
            r.rows
                .iter()
                .map(|row| (row.values.clone(), row.kth_value))
                .collect()
        };
        for cfg in [DrTopKConfig::default(), DrTopKConfig::approx(0.9)] {
            for (num_devices, orders) in (1..=3).zip(orders) {
                let c = cluster(num_devices);
                let devices: Vec<&Device> = c.devices().iter().collect();
                let rpb = rows.div_ceil(2 * num_devices); // two blocks each
                let parallel = topk_rows_on(&devices, matrix, &ks, &cfg, Some(rpb));
                if cfg.mode.strict_target().is_none() {
                    for r in 0..rows {
                        let want = reference_topk(matrix.row(r), ks.get(r));
                        assert_eq!(parallel.rows[r].values, want, "row {r}");
                    }
                }
                let layout = layout_rows(&matrix, &ks, &cfg, rpb);
                for order in orders {
                    let epoch = Instant::now();
                    let mut runs: Vec<Option<DeviceRun<u32>>> =
                        (0..num_devices).map(|_| None).collect();
                    for &d in *order {
                        let run = run_device(devices[d], d, num_devices, matrix, &layout, epoch);
                        runs[d] = Some(run);
                    }
                    let runs = runs.into_iter().map(Option::unwrap).collect();
                    let serial = gather_result(&layout, rows, runs);
                    let what = format!("{num_devices} devices in order {order:?}");
                    assert_eq!(bits(&serial), bits(&parallel), "{what}");
                    assert_eq!(serial.stats, parallel.stats, "{what}");
                    assert_eq!(serial.breakdown, parallel.breakdown, "{what}");
                    assert_eq!(serial.time_ms.to_bits(), parallel.time_ms.to_bits());
                    assert_eq!(serial.delegate_passes, parallel.delegate_passes);
                    assert_eq!(
                        serial.stages.deterministic_summary(),
                        parallel.stages.deterministic_summary(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn shape_mismatch_panics() {
        let data = vec![1u32; 10];
        RowMatrix::new(&data, 3, 4);
    }

    #[test]
    #[should_panic(expected = "per-row k vector length")]
    fn per_row_k_length_mismatch_panics() {
        let c = cluster(1);
        let data = vec![1u32; 12];
        topk_rows(
            &c,
            RowMatrix::new(&data, 3, 4),
            &RowK::PerRow(vec![1, 2]),
            &DrTopKConfig::default(),
        );
    }
}
