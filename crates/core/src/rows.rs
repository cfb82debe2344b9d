//! Row-wise matrix top-k: the whole `rows × cols` matrix planned as **one
//! stage graph** (going beyond the paper; see RTop-K / RadiK in
//! `PAPERS.md`).
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

// Approved `std::sync` lock holder (see clippy.toml + ARCHITECTURE.md):
// the row-block stage-graph context keeps its per-block phase buffers in
// mutex slots, as the executor's `&C` sharing rule requires.
#![allow(clippy::disallowed_types)]

use gpu_sim::warp::SHUFFLES_PER_WARP_REDUCTION;
use gpu_sim::{Device, GpuCluster, KernelStats, WarpCtx};
use std::cmp::Reverse;
use std::sync::Mutex;
use topk_baselines::radix::BITS_PER_PASS;
use topk_baselines::{KeyBits, TopKKey, TopKResult};

use crate::concat::gather_subrange;
use crate::delegate::{delegate_subrange_ids, delegates_into, DelegateVector};
use crate::direction::{as_desc, Direction};
use crate::explore::{explore_schedules, Divergence, ExploreBudget, ExploreOutcome};
use crate::first_topk::{mark, take_marked, FirstTopK, Marked};
use crate::pipeline::{DrTopKConfig, PhaseBreakdown, PlannedQuery};
use crate::radix_flags::radix_select_threshold;
use crate::stages::{Resource, StageGraph, StageKind, StageOutcome, StageReport};

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

/// The planned layout of a matrix run: per-row plans and paths plus the
/// block geometry. Computed once; borrowed by every stage closure (and
/// rebuilt-from by the schedule explorer).
struct RowLayout {
    /// Per-row resolved plan (k clamped, α pinned, mode normalised).
    plans: Vec<PlannedQuery>,
    /// Per-row execution path derived from the plan.
    paths: Vec<RowPath>,
    /// Rows per block.
    rows_per_block: usize,
    /// Total blocks (`⌈rows / rows_per_block⌉`).
    num_blocks: usize,
    /// Minimum plan-time recall across non-skip rows (1.0 when none).
    predicted_recall: f64,
}

impl RowLayout {
    fn block_span(&self, b: usize, rows: usize) -> (usize, usize) {
        let start = b * self.rows_per_block;
        let end = ((b + 1) * self.rows_per_block).min(rows);
        (start, end)
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
    // Plans depend only on (cols, k, config); memoise by k so a uniform-k
    // matrix plans once, not once per row.
    let mut memo: std::collections::BTreeMap<usize, PlannedQuery> =
        std::collections::BTreeMap::new();
    let mut plans = Vec::with_capacity(matrix.rows);
    let mut paths = Vec::with_capacity(matrix.rows);
    let mut predicted_recall = 1.0f64;
    for r in 0..matrix.rows {
        let k = ks.get(r);
        let planned = memo
            .entry(k)
            .or_insert_with(|| PlannedQuery::plan(matrix.cols, k, config))
            .clone();
        let path = if planned.k == 0 || matrix.cols == 0 {
            RowPath::Skip
        } else if !planned.use_delegates {
            RowPath::Direct
        } else if planned.config.mode.strict_target().is_some() {
            RowPath::Approx
        } else {
            RowPath::Exact
        };
        if path != RowPath::Skip {
            predicted_recall = predicted_recall.min(planned.predicted_recall);
        }
        plans.push(planned);
        paths.push(path);
    }
    RowLayout {
        plans,
        paths,
        rows_per_block,
        num_blocks: matrix.rows.div_ceil(rows_per_block),
        predicted_recall,
    }
}

/// Warp cap of one row-block launch: past it, each warp takes a balanced
/// chunk of rows.
const MAX_ROW_WARPS: usize = 1 << 14;

/// Per-block phase buffers, one slot per local row. A fallback row's
/// winners go from the fused pass straight to `out`.
struct BlockState<K: TopKKey> {
    delegates: Vec<Option<DelegateVector<K>>>,
    first: Vec<Option<FirstTopK<K>>>,
    concat: Vec<Option<Vec<K>>>,
    out: Vec<Option<(Vec<K>, K)>>,
}

/// The row-block stage-graph context: one mutex per block, so blocks on
/// different devices never contend.
struct RowsCtx<K: TopKKey> {
    blocks: Vec<Mutex<BlockState<K>>>,
}

/// The top-k of `values` sorted descending in radix space, and its k-th
/// value: exactly what every (exact) inner algorithm returns for them.
fn sorted_topk<K: TopKKey>(values: &[K], k: usize) -> (Vec<K>, K) {
    let mut top = values.to_vec();
    top.sort_unstable_by_key(|v| Reverse(v.to_bits()));
    top.truncate(k);
    let kth = top.last().copied().unwrap_or_default();
    (top, kth)
}

/// RTop-K's cost of one warp's radix select over `n` keys (a row, or a
/// chunk of a fused unit's first top-k winners): per pass, a shared-memory
/// histogram of the keys plus a warp scan of the digit counts.
pub(crate) fn record_warp_select(kctx: &mut WarpCtx<'_>, n: usize, passes: u32) {
    let passes = u64::from(passes);
    kctx.record_shared(passes * (n as u64 + (1 << BITS_PER_PASS)));
    kctx.record_shuffles(passes * SHUFFLES_PER_WARP_REDUCTION);
}

/// One launch over the block's rows whose path is in `want`, one warp per
/// row up to [`MAX_ROW_WARPS`]; local row `l`'s output lands in `slots[l]`.
/// No such rows, no launch.
fn launch_rows<R>(
    device: &Device,
    name: &str,
    (paths, want): (&[RowPath], &[RowPath]),
    slots: &mut [Option<R>],
    row_kernel: impl Fn(&mut WarpCtx<'_>, usize) -> R,
) -> StageOutcome {
    let rows: Vec<usize> = (0..paths.len())
        .filter(|&l| want.contains(&paths[l]))
        .collect();
    if rows.is_empty() {
        return StageOutcome::default();
    }
    let launch = device.launch(name, rows.len().min(MAX_ROW_WARPS), |kctx| {
        let chunk = kctx.chunk_of(rows.len());
        rows[chunk]
            .iter()
            .map(|&l| (l, row_kernel(kctx, l)))
            .collect::<Vec<_>>()
    });
    for (l, out) in launch.output.into_iter().flatten() {
        slots[l] = Some(out);
    }
    StageOutcome::new(launch.stats, launch.time_ms)
}

/// Build the matrix's stage graph: per block with any work, a fused pass
/// stage, then (when the block has exact-path rows) first-top-k and
/// concatenation stages, then always a terminal second-top-k stage. Each
/// stage is at most one kernel launch. Returns the graph, its context and
/// the number of fused pass stages.
fn build_rows_graph<'a, K: TopKKey>(
    devices: &'a [&'a Device],
    matrix: RowMatrix<'a, K>,
    layout: &'a RowLayout,
) -> (StageGraph<'a, RowsCtx<K>>, RowsCtx<K>, usize) {
    let mut graph: StageGraph<'a, RowsCtx<K>> = StageGraph::new();
    let mut blocks = Vec::with_capacity(layout.num_blocks);
    let mut passes = 0usize;
    let kv_words = 1 + std::mem::size_of::<K>() / std::mem::size_of::<u32>();

    for b in 0..layout.num_blocks {
        let (start, end) = layout.block_span(b, matrix.rows);
        let block_len = end - start;
        blocks.push(Mutex::new(BlockState {
            delegates: (0..block_len).map(|_| None).collect(),
            first: (0..block_len).map(|_| None).collect(),
            concat: (0..block_len).map(|_| None).collect(),
            out: (0..block_len).map(|_| None).collect(),
        }));

        let paths = &layout.paths[start..end];
        if paths.iter().all(|p| *p == RowPath::Skip) {
            continue; // nothing to compute; the gather fills defaults
        }
        let has_exact = paths.contains(&RowPath::Exact);
        let has_approx = paths.contains(&RowPath::Approx);
        let device_idx = b % devices.len();
        let device = devices[device_idx];
        let resource = Resource::Compute(device_idx);

        // Phase 1: the fused pass — one kernel launch for the whole block.
        // Kind mirrors the single-vector pipeline's phase-1 stage: a
        // delegate construction when any row runs the exact pipeline, the
        // approximate candidate pass when the block is purely approximate
        // (pure-fallback blocks keep the construction kind: the pass still
        // *is* the block's one slab-reading pass).
        let pass_kind = if !has_exact && has_approx {
            StageKind::BucketTopKPrime
        } else {
            StageKind::DelegateConstruction
        };
        passes += 1;
        let pass_id = graph.add_labeled(
            pass_kind,
            format!("rows {start}..{end} fused pass"),
            resource,
            &[],
            move |ctx: &RowsCtx<K>| {
                let num_warps = block_len.clamp(1, MAX_ROW_WARPS);
                let launch = device.launch("drtopk_rows_fused_pass", num_warps, |kctx| {
                    let local = kctx.chunk_of(block_len);
                    let (mut built, mut sorted) = (Vec::new(), Vec::new());
                    let mut i = local.start;
                    while i < local.end {
                        if paths[i] == RowPath::Skip {
                            i += 1;
                            continue;
                        }
                        // Extend to the contiguous run of active rows: the
                        // warp reads the whole slab with ONE coalesced
                        // access — this is the fused pass's transaction
                        // saving over per-row pipeline runs.
                        let mut j = i + 1;
                        while j < local.end && paths[j] != RowPath::Skip {
                            j += 1;
                        }
                        let slab_start = (start + i) * matrix.cols;
                        let slab_end = (start + j) * matrix.cols;
                        let slab = kctx.read_coalesced(&matrix.data[slab_start..slab_end]);
                        kctx.record_alu(slab.len() as u64);
                        for l in i..j {
                            let row = &slab[(l - i) * matrix.cols..(l - i + 1) * matrix.cols];
                            let planned = &layout.plans[start + l];
                            if paths[l] == RowPath::Direct {
                                let (vals, kth) = sorted_topk(row, planned.k);
                                kctx.record_store_coalesced::<u32>(kv_words * vals.len());
                                sorted.push((l, (vals, kth)));
                                continue;
                            }
                            let alpha = planned.alpha;
                            let subrange_size = 1usize << alpha;
                            let beta = planned.config.beta;
                            let num_subranges = matrix.cols.div_ceil(subrange_size);
                            let mut values = Vec::new();
                            delegates_into(row, subrange_size, beta, &mut values);
                            kctx.record_store_coalesced::<u32>(kv_words * values.len());
                            built.push((
                                l,
                                DelegateVector {
                                    values,
                                    subrange_ids: delegate_subrange_ids(
                                        matrix.cols,
                                        subrange_size,
                                        beta,
                                    ),
                                    beta,
                                    subrange_size,
                                    num_subranges,
                                    direction: Direction::Largest,
                                    stats: KernelStats::default(),
                                    time_ms: 0.0,
                                },
                            ));
                        }
                        i = j;
                    }
                    (built, sorted)
                });
                let mut block = ctx.blocks[b].lock().unwrap();
                for (built, sorted) in launch.output {
                    for (l, dv) in built {
                        block.delegates[l] = Some(dv);
                    }
                    for (l, out) in sorted {
                        block.out[l] = Some(out);
                    }
                }
                StageOutcome::new(launch.stats, launch.time_ms)
            },
        );

        // Phases 2 and 3 exist only when the block has exact-path rows.
        let mut second_dep = pass_id;
        if has_exact {
            let first_id = graph.add_labeled(
                StageKind::FirstTopK,
                format!("rows {start}..{end} first top-k"),
                resource,
                &[pass_id],
                move |ctx: &RowsCtx<K>| {
                    let block = &mut *ctx.blocks[b].lock().unwrap();
                    let rows = (paths, &[RowPath::Exact][..]);
                    launch_rows(
                        device,
                        "drtopk_rows_first_topk",
                        rows,
                        &mut block.first,
                        |kctx, l| {
                            let dv = block.delegates[l].as_ref().expect("fused pass ran");
                            let planned = &layout.plans[start + l];
                            let k = planned.k.min(dv.len());
                            let skip_last = planned.config.skip_last_first_pass;
                            let values = kctx.read_coalesced(&dv.values);
                            let passes = K::Bits::BITS / BITS_PER_PASS - u32::from(skip_last);
                            record_warp_select(kctx, values.len(), passes);
                            let threshold = radix_select_threshold(values, k, skip_last);
                            let mut marked = Marked::default();
                            let entries =
                                values.iter().copied().zip(dv.subrange_ids.iter().copied());
                            mark(entries, threshold.to_bits(), &mut marked);
                            kctx.record_alu(values.len() as u64);
                            let first = take_marked(dv.view(), marked, k, threshold, !skip_last);
                            kctx.record_store_coalesced::<u32>(kv_words * first.taken_entries);
                            first
                        },
                    )
                },
            );
            let concat_id = graph.add_labeled(
                StageKind::Concatenate,
                format!("rows {start}..{end} concatenate"),
                resource,
                &[first_id],
                move |ctx: &RowsCtx<K>| {
                    let block = &mut *ctx.blocks[b].lock().unwrap();
                    let rows = (paths, &[RowPath::Exact][..]);
                    launch_rows(
                        device,
                        "drtopk_rows_concat",
                        rows,
                        &mut block.concat,
                        |kctx, l| {
                            let r = start + l;
                            let first = block.first[l].as_ref().expect("first top-k ran");
                            let filter = layout.plans[r]
                                .config
                                .filtering
                                .then(|| first.threshold.to_bits());
                            let dv = block.delegates[l].as_ref().expect("fused pass ran");
                            let mut elements = first.partial_delegate_values.clone();
                            for &id in kctx.read_coalesced(&first.fully_taken_subranges) {
                                let row = matrix.row(r);
                                let size = dv.subrange_size;
                                gather_subrange(kctx, row, size, id, filter, &mut elements);
                            }
                            elements
                        },
                    )
                },
            );
            second_dep = concat_id;
        }

        // Phase 4: the terminal second top-k settles every delegate-path
        // row of the block.
        graph.add_labeled(
            StageKind::SecondTopK,
            format!("rows {start}..{end} second top-k"),
            resource,
            &[second_dep],
            move |ctx: &RowsCtx<K>| {
                let block = &mut *ctx.blocks[b].lock().unwrap();
                let rows = (paths, &[RowPath::Exact, RowPath::Approx][..]);
                launch_rows(
                    device,
                    "drtopk_rows_second_topk",
                    rows,
                    &mut block.out,
                    |kctx, l| {
                        let k = layout.plans[start + l].k;
                        // Exact rows select from their concatenation,
                        // approximate rows from their candidates.
                        let (candidates, skipped) = match &block.first[l] {
                            // Same skip rule as the single-vector pipeline
                            // (Figure 8b): the taken delegates alone answer
                            // the query exactly.
                            Some(first) => {
                                let c = block.concat[l].as_ref().expect("concatenation ran");
                                let skipped = first.fully_taken_subranges.is_empty()
                                    && first.exact_threshold
                                    && c.len() == k;
                                (c.as_slice(), skipped)
                            }
                            None => {
                                let dv = block.delegates[l].as_ref().expect("fused pass ran");
                                (dv.values.as_slice(), false)
                            }
                        };
                        let candidates = kctx.read_coalesced(candidates);
                        if !skipped {
                            let passes = K::Bits::BITS / BITS_PER_PASS;
                            record_warp_select(kctx, candidates.len(), passes);
                        }
                        let (top, kth) = sorted_topk(candidates, k);
                        kctx.record_store_coalesced::<K>(top.len());
                        (top, kth)
                    },
                )
            },
        );
    }

    (graph, RowsCtx { blocks }, passes)
}

/// Assemble the per-row results and schedule-derived aggregates.
fn gather_result<K: TopKKey>(
    layout: &RowLayout,
    rows: usize,
    ctx: RowsCtx<K>,
    report: StageReport,
    passes: usize,
) -> RowTopKResult<K> {
    let mut out_rows = Vec::with_capacity(rows);
    for (b, block) in ctx.blocks.into_iter().enumerate() {
        let block = block.into_inner().unwrap();
        let (start, end) = layout.block_span(b, rows);
        debug_assert_eq!(block.out.len(), end - start);
        for slot in block.out {
            let (values, kth_value) = slot.unwrap_or_else(|| (Vec::new(), K::default()));
            out_rows.push(TopKResult {
                values,
                kth_value,
                stats: KernelStats::default(),
                time_ms: 0.0,
            });
        }
    }
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
/// [`DrTopKConfig::direction`]), planned as one stage graph with
/// `⌈rows / num_devices⌉` rows per block (one block per device).
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
    let (graph, ctx, passes) = build_rows_graph(devices, matrix, &layout);
    let report = graph.execute(&ctx);
    gather_result(&layout, matrix.rows, ctx, report, passes)
}

/// Model-check a row-matrix graph's schedule space, then run it.
///
/// Enumerate (or sample, per `budget`) the dispatch orders the per-resource
/// workers could take for this matrix's stage graph and require byte-equal
/// [`deterministic_summary`](StageReport::deterministic_summary) strings
/// and bit-equal per-row winners across all of them (see [`crate::explore`]).
/// On success the run's result and the coverage summary are returned; the
/// first diverging interleaving aborts with a [`Divergence`].
pub fn topk_rows_explore<K: TopKKey>(
    devices: &[&Device],
    matrix: RowMatrix<'_, K>,
    ks: &RowK,
    config: &DrTopKConfig,
    rows_per_block: Option<usize>,
    budget: ExploreBudget,
) -> Result<(RowTopKResult<K>, ExploreOutcome), Box<Divergence>> {
    match config.direction {
        Direction::Largest => explore_rows(devices, matrix, ks, config, rows_per_block, budget),
        Direction::Smallest => explore_rows(
            devices,
            RowMatrix::new(as_desc(matrix.data), matrix.rows, matrix.cols),
            ks,
            config,
            rows_per_block,
            budget,
        )
        .map(|(result, outcome)| (result.into_native(), outcome)),
    }
}

/// [`topk_rows_explore`] below the direction boundary.
fn explore_rows<K: TopKKey>(
    devices: &[&Device],
    matrix: RowMatrix<'_, K>,
    ks: &RowK,
    config: &DrTopKConfig,
    rows_per_block: Option<usize>,
    budget: ExploreBudget,
) -> Result<(RowTopKResult<K>, ExploreOutcome), Box<Divergence>> {
    assert!(!devices.is_empty(), "need at least one device");
    let rpb = rows_per_block.unwrap_or_else(|| matrix.rows.div_ceil(devices.len()).max(1));
    let layout = layout_rows(&matrix, ks, config, rpb);
    if layout.paths.iter().all(|p| *p == RowPath::Skip) {
        let outcome = ExploreOutcome {
            schedules_run: 0,
            exhaustive: true,
            stages: 0,
            reference: StageReport::default(),
        };
        let result = run_rows(devices, matrix, ks, config, Some(rpb));
        return Ok((result, outcome));
    }
    let outcome = explore_schedules(
        || {
            let (graph, ctx, _) = build_rows_graph(devices, matrix, &layout);
            (graph, ctx)
        },
        |ctx: &RowsCtx<K>, _| {
            // Bit patterns of every row's winners + threshold: the
            // schedule-invariance witness.
            ctx.blocks
                .iter()
                .map(|block| {
                    let block = block.lock().unwrap();
                    block
                        .out
                        .iter()
                        .map(|slot| {
                            slot.as_ref().map(|(vals, kth)| {
                                (
                                    vals.iter().map(|v| v.to_bits()).collect::<Vec<K::Bits>>(),
                                    kth.to_bits(),
                                )
                            })
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        },
        budget,
    )?;
    let result = run_rows(devices, matrix, ks, config, Some(rpb));
    Ok((result, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::dr_topk;
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
    fn graph_passes_static_verification() {
        let c = cluster(2);
        let cols = 1 << 10;
        let rows = 7;
        let data = topk_datagen::uniform(rows * cols, 23);
        let matrix = RowMatrix::new(&data, rows, cols);
        // mixed paths in one graph: approx rows and fallback rows together
        let ks = RowK::PerRow(vec![8, 0, cols / 2, 8, 8, cols, 8]);
        let layout = layout_rows(&matrix, &ks, &DrTopKConfig::default(), 2);
        let devices: Vec<&Device> = c.devices().iter().collect();
        let (graph, _ctx, passes) = build_rows_graph(&devices, matrix, &layout);
        let diags = crate::verify::verify_specs(&graph.specs(), &Default::default());
        assert!(diags.is_empty(), "row-block graph must verify: {diags:?}");
        assert!(passes <= 4, "4 blocks of 2 rows; {passes} passes");
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

    #[test]
    fn explore_validates_a_small_row_graph() {
        let c = cluster(2);
        let cols = 1 << 10;
        let rows = 4;
        let data = topk_datagen::uniform(rows * cols, 31);
        let matrix = RowMatrix::new(&data, rows, cols);
        let devices: Vec<&Device> = c.devices().iter().collect();
        let (result, outcome) = topk_rows_explore(
            &devices,
            matrix,
            &RowK::Uniform(16),
            &DrTopKConfig::default(),
            Some(2),
            ExploreBudget::default(),
        )
        .expect("row graphs are schedule-invariant");
        assert!(outcome.exhaustive);
        assert!(outcome.schedules_run >= 2, "two blocks must interleave");
        for r in 0..rows {
            assert_eq!(result.rows[r].values, reference_topk(matrix.row(r), 16));
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
