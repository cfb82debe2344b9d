//! Differential conformance suite for the row-wise matrix top-k
//! ([`drtopk::core::topk_rows`]): every row of a `rows × cols` matrix must
//! be **bit-identical** to an independent per-row `dr_topk` call in the
//! same direction — across all six key types, both directions,
//! NaN-laden float rows, random, sorted and tie-heavy rows, uniform and
//! per-row `k` (with `k = 0`, `k = cols` and `k > cols` mixed into one
//! matrix, and one block holding all four row paths), and both the exact
//! and the recall-targeted approximate modes. The fused row-block plan is pinned
//! structurally too: delegate passes scale with blocks, never with rows,
//! and the fused plan moves measurably fewer modeled global-memory
//! transactions than independent per-row runs. Each block issues at most
//! one launch per phase (also past the 2^14-warp cap), and the row-block
//! kernels' modeled counters are pinned.
//!
//! A threaded run is also pinned against a serial one (a one-device pool
//! runs its blocks inline on the calling thread), and every assignment of
//! the per-device block chains to a pool's devices gives the same
//! [`deterministic_summary`](drtopk::core::StageReport::deterministic_summary)
//! string.

mod common;

use common::{bits, device};
use drtopk::core::{dr_topk, topk_rows_on, DrTopKConfig, PlannedQuery, Resource};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use proptest::prelude::*;

fn pool(devices: usize) -> GpuCluster {
    GpuCluster::homogeneous(devices, DeviceSpec::v100s())
}

/// The differential oracle: `topk_rows` over a 2-device pool, in blocks of
/// `rows_per_block` rows (one block per device when `None`), against one
/// independent `dr_topk` call per row in the same direction, compared
/// through order-preserving bit images so NaNs are concrete multiset
/// elements.
fn assert_rows_match_per_row<K: TopKKey>(
    data: &[K],
    (rows, cols, rows_per_block): (usize, usize, Option<usize>),
    ks: &RowK,
    largest: bool,
    cfg: &DrTopKConfig,
) {
    let c = pool(2);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let matrix = RowMatrix::new(data, rows, cols);
    let cfg = &DrTopKConfig {
        direction: if largest {
            Direction::Largest
        } else {
            Direction::Smallest
        },
        ..cfg.clone()
    };
    let got = topk_rows_on(&devices, matrix, ks, cfg, rows_per_block);
    assert_eq!(got.rows.len(), rows);
    // One fused pass per block per path kind at most — never one per row.
    assert!(
        got.delegate_passes <= got.num_blocks,
        "{} passes for {} blocks",
        got.delegate_passes,
        got.num_blocks
    );
    let dev = device();
    for r in 0..rows {
        let k = ks.get(r);
        let single = dr_topk(&dev, matrix.row(r), k, cfg);
        assert_eq!(
            bits(&got.rows[r].values),
            bits(&single.values),
            "row {r} k={k} largest={largest}"
        );
        assert_eq!(
            got.rows[r].kth_value.to_bits(),
            single.kth_value.to_bits(),
            "row {r} threshold"
        );
    }
}

/// A per-row k vector that forces every degenerate shape into one matrix:
/// `k = 0` (skipped row), `k = cols` (full-sort fallback), `k > cols`
/// (clamped), and an ordinary delegate-path k.
fn degenerate_ks(rows: usize, cols: usize, ordinary: usize) -> RowK {
    RowK::PerRow(
        (0..rows)
            .map(|r| match r % 4 {
                0 => 0,
                1 => cols,
                2 => cols + 7,
                _ => ordinary.clamp(1, cols.max(1)),
            })
            .collect(),
    )
}

/// Rows `0, 1, 2, 3` (cycling) take the four row paths under
/// `DrTopKConfig::approx(0.9)`: `k = 0` is skipped, `k = cols` falls back
/// to the inner algorithm, `k = 4` runs approximate, and `k = cols / 6` is
/// too close to the row length for the approximate machinery, so its plan
/// falls back to the exact delegate pipeline.
fn mixed_path_ks(rows: usize, cols: usize) -> RowK {
    RowK::PerRow(
        (0..rows)
            .map(|r| [0, cols, 4, cols / 6][r % 4].min(cols))
            .collect(),
    )
}

/// The row path a plan resolves to, as `topk_rows` routes it.
fn path_of(cols: usize, k: usize, cfg: &DrTopKConfig) -> &'static str {
    let planned = PlannedQuery::plan(cols, k, cfg);
    if planned.k == 0 {
        "skip"
    } else if !planned.use_delegates {
        "direct"
    } else if planned.config.mode.strict_target().is_some() {
        "approx"
    } else {
        "exact"
    }
}

/// Reshape every row of `raw`: `1` sorts it ascending, `2` descending, `3`
/// keeps at most 8 distinct values, anything else leaves it random. Sorted
/// and tie-heavy rows move Rule 3's tie cap and its partial subranges.
fn shape_rows(raw: &[u32], cols: usize, shape: u8) -> Vec<u32> {
    let mut data = raw.to_vec();
    for row in data.chunks_mut(cols) {
        match shape {
            1 => row.sort_unstable(),
            2 => row.sort_unstable_by(|a, b| b.cmp(a)),
            3 => row.iter_mut().for_each(|x| *x %= 8),
            _ => {}
        }
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `topk_rows` is bit-identical to per-row `dr_topk` in either direction
    /// for all six key types, both directions, random, ascending,
    /// descending and ≤ 8-distinct rows, uniform, degenerate and
    /// mixed-path per-row k, in both the exact and the approximate mode. A
    /// mixed-path matrix runs as one block, so under the approximate mode
    /// a single block holds skipped, fallback, exact and approximate rows.
    /// The float matrices are salted with NaNs of both signs.
    #[test]
    fn rows_are_bit_identical_to_per_row_runs(
        raw in proptest::collection::vec(any::<u32>(), 512..2048),
        rows in 2usize..6,
        shape in 0u8..4,
        k_frac in 0.0f64..1.0,
        largest in any::<bool>(),
        ks_kind in 0u8..3,
        approx in any::<bool>(),
    ) {
        let cols = raw.len() / rows;
        let data = &shape_rows(&raw[..rows * cols], cols, shape);
        let k = ((cols as f64 * k_frac) as usize).min(cols);
        let cfg = if approx { DrTopKConfig::approx(0.9) } else { DrTopKConfig::default() };
        let (ks, rows_per_block) = match ks_kind {
            0 => (RowK::Uniform(k), None),
            1 => (degenerate_ks(rows, cols, k), None),
            _ => (mixed_path_ks(rows, cols), Some(rows)),
        };
        if ks_kind == 2 && approx && rows >= 4 {
            let mut paths: Vec<_> = (0..4).map(|r| path_of(cols, ks.get(r), &cfg)).collect();
            paths.sort_unstable();
            prop_assert_eq!(paths, ["approx", "direct", "exact", "skip"]);
        }
        let shape = (rows, cols, rows_per_block);

        assert_rows_match_per_row::<u32>(data, shape, &ks, largest, &cfg);
        let as_u64: Vec<u64> = data.iter().map(|&x| (x as u64) << 17 | 0x9).collect();
        assert_rows_match_per_row::<u64>(&as_u64, shape, &ks, largest, &cfg);
        let as_i32: Vec<i32> = data.iter().map(|&x| x as i32).collect();
        assert_rows_match_per_row::<i32>(&as_i32, shape, &ks, largest, &cfg);
        let as_i64: Vec<i64> = data.iter().map(|&x| x as i64 - (1 << 35)).collect();
        assert_rows_match_per_row::<i64>(&as_i64, shape, &ks, largest, &cfg);
        // Raw bit reinterpretation already injects NaN/∞/subnormal keys;
        // salt every row with explicit NaNs of both signs on top.
        let mut as_f32: Vec<f32> = data.iter().map(|&x| f32::from_bits(x)).collect();
        for r in 0..rows {
            as_f32[r * cols] = f32::NAN;
            as_f32[r * cols + cols / 2] = -f32::NAN;
        }
        assert_rows_match_per_row::<f32>(&as_f32, shape, &ks, largest, &cfg);
        let mut as_f64: Vec<f64> = data
            .iter()
            .map(|&x| f64::from_bits((x as u64) << 32 | 0x7FF5))
            .collect();
        for r in 0..rows {
            as_f64[r * cols + 1] = f64::NAN;
            as_f64[r * cols + cols - 1] = -f64::NAN;
        }
        assert_rows_match_per_row::<f64>(&as_f64, shape, &ks, largest, &cfg);
    }
}

/// One block holding skipped, fallback, exact and approximate rows, on
/// random, ascending, descending and ≤ 8-distinct rows in both directions.
#[test]
fn one_block_mixes_every_row_path() {
    let (rows, cols) = (8, 300);
    let cfg = DrTopKConfig::approx(0.9);
    let ks = mixed_path_ks(rows, cols);
    let mut paths: Vec<_> = (0..4).map(|r| path_of(cols, ks.get(r), &cfg)).collect();
    paths.sort_unstable();
    assert_eq!(paths, ["approx", "direct", "exact", "skip"]);
    let raw = topk_datagen::uniform(rows * cols, 77);
    for shape in 0..4 {
        let data = shape_rows(&raw, cols, shape);
        let as_f32: Vec<f32> = data.iter().map(|&x| f32::from_bits(x)).collect();
        for largest in [true, false] {
            assert_rows_match_per_row::<u32>(&data, (rows, cols, Some(rows)), &ks, largest, &cfg);
            assert_rows_match_per_row::<f32>(&as_f32, (rows, cols, Some(rows)), &ks, largest, &cfg);
        }
    }
}

/// The pinned fusion proof: R rows on D devices run at most
/// `D · ⌈R / rows_per_block⌉`-many delegate passes — one fused pass per
/// row-block, never one per row — and the pass count is visible both in
/// the result metadata and as `fused pass` stages in the schedule.
#[test]
fn delegate_passes_scale_with_blocks_not_rows() {
    let devices_n = 2;
    let rows = 12;
    let cols = 1 << 12;
    let rpb = 3; // 4 blocks of 3 rows
    let c = pool(devices_n);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let data = topk_datagen::uniform(rows * cols, 0x5eed);
    let matrix = RowMatrix::new(&data, rows, cols);
    let got = topk_rows_on(
        &devices,
        matrix,
        &RowK::Uniform(32),
        &DrTopKConfig::default(),
        Some(rpb),
    );
    let blocks = rows.div_ceil(rpb);
    assert_eq!(got.num_blocks, blocks);
    assert_eq!(got.rows_per_block, rpb);
    assert!(
        got.delegate_passes <= devices_n * blocks && got.delegate_passes < rows,
        "{} passes for {rows} rows in {blocks} blocks on {devices_n} devices",
        got.delegate_passes
    );
    let pass_stages = got
        .stages
        .stages
        .iter()
        .filter(|s| s.label.contains("fused pass"))
        .count();
    assert_eq!(pass_stages, got.delegate_passes, "schedule agrees");
    // Every row still answers exactly.
    for r in 0..rows {
        assert_eq!(
            got.rows[r].values,
            topk_baselines::reference_topk(matrix.row(r), 32)
        );
    }
}

/// The fused plan is cheaper in the memory model, not just in pass count:
/// a fallback-heavy matrix (k ≈ cols/2 forces the inner multi-pass
/// algorithm per independent run) moves measurably fewer modeled
/// global-memory transactions through `topk_rows` than the same rows run
/// as R independent `dr_topk` calls.
#[test]
fn fused_rows_move_fewer_transactions_than_independent_runs() {
    let rows = 8;
    let cols = 1 << 12;
    let k = cols / 2;
    let c = pool(2);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let data = topk_datagen::customized(rows * cols, 21);
    let matrix = RowMatrix::new(&data, rows, cols);
    let cfg = DrTopKConfig::default();
    let fused = topk_rows_on(&devices, matrix, &RowK::Uniform(k), &cfg, None);
    let dev = device();
    let mut independent = 0u64;
    for r in 0..rows {
        let single = dr_topk(&dev, matrix.row(r), k, &cfg);
        assert_eq!(fused.rows[r].values, single.values, "row {r}");
        independent += single.stats.total_transactions();
    }
    let fused_txn = fused.stats.total_transactions();
    assert!(
        fused_txn < independent,
        "fused {fused_txn} transactions must undercut {independent} independent"
    );
}

/// Serial against threaded: a one-device pool runs both row blocks inline
/// on the calling thread, a two-device pool runs them on one thread per
/// device. The rows are byte-identical, the spliced schedules list the
/// same stages (kind, label, dependencies, counters) in the same order,
/// the block device 0 runs in both has bit-identical modeled times, and a
/// second threaded run repeats the first one's schedule byte for byte.
#[test]
fn inline_and_threaded_row_blocks_are_byte_identical() {
    let rows = 6;
    let cols = 1 << 11;
    let data = topk_datagen::normal(rows * cols, 13);
    let matrix = RowMatrix::new(&data, rows, cols);
    // Mixed paths in one matrix: skip, delegate, fallback, clamped.
    let ks = RowK::PerRow(vec![0, 16, cols / 2, cols, cols + 9, 16]);
    let cfg = DrTopKConfig::default();
    let one = pool(1);
    let two = pool(2);
    let run = |c: &GpuCluster| {
        let devices: Vec<&Device> = c.devices().iter().collect();
        topk_rows_on(&devices, matrix, &ks, &cfg, Some(3))
    };
    let serial = run(&one);
    let threaded = run(&two);
    assert_eq!(serial.num_blocks, 2);
    assert_eq!(threaded.num_blocks, 2);
    for r in 0..rows {
        assert_eq!(
            bits(&serial.rows[r].values),
            bits(&threaded.rows[r].values),
            "row {r}"
        );
        assert_eq!(
            serial.rows[r].kth_value.to_bits(),
            threaded.rows[r].kth_value.to_bits(),
            "row {r} threshold"
        );
    }
    assert_eq!(serial.stats, threaded.stats);
    assert_eq!(serial.delegate_passes, threaded.delegate_passes);
    let (s, t) = (&serial.stages.stages, &threaded.stages.stages);
    assert_eq!(s.len(), t.len());
    for (i, (s, t)) in s.iter().zip(t).enumerate() {
        assert_eq!(
            (s.kind, &s.label, &s.deps),
            (t.kind, &t.label, &t.deps),
            "stage {i}"
        );
        assert_eq!(s.stats, t.stats, "stage {i}");
        if t.resource == Resource::Compute(0) {
            assert_eq!(s.start_ms.to_bits(), t.start_ms.to_bits(), "stage {i}");
            assert_eq!(s.end_ms.to_bits(), t.end_ms.to_bits(), "stage {i}");
        }
    }
    assert!(
        serial.time_ms > threaded.time_ms,
        "two devices overlap the blocks"
    );
    assert_eq!(
        run(&two).stages.deterministic_summary(),
        threaded.stages.deterministic_summary(),
        "modeled schedule must not depend on the threads' timing"
    );
}

/// Every assignment of the row blocks' device chains to a three-device
/// pool — all six orders of the device slice — gives the reference
/// winners and the same modeled schedule byte for byte, and each physical
/// device records exactly the launches of the chain it was given.
#[test]
fn every_device_assignment_of_row_chains_gives_the_same_schedule() {
    let rows = 6;
    let cols = 1 << 10;
    let c = pool(3);
    let data = topk_datagen::uniform(rows * cols, 37);
    let matrix = RowMatrix::new(&data, rows, cols);
    let per_row = [8, 0, cols / 2, 8, cols, 8];
    let ks = RowK::PerRow(per_row.to_vec());
    let cfg = DrTopKConfig::default();
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let runs: Vec<_> = orders
        .iter()
        .map(|order| {
            c.reset_stats();
            let devices: Vec<&Device> = order.iter().map(|&d| c.device(d)).collect();
            let got = topk_rows_on(&devices, matrix, &ks, &cfg, Some(1));
            assert_eq!(got.num_blocks, rows);
            for (r, &k) in per_row.iter().enumerate() {
                assert_eq!(
                    got.rows[r].values,
                    topk_baselines::reference_topk(matrix.row(r), k),
                    "row {r} in order {order:?}"
                );
            }
            // Chain p ran on the device at slice position p.
            let chains: Vec<_> = devices
                .iter()
                .map(|d| {
                    let s = d.stats();
                    (s.kernels.len(), s.total, s.total_time_ms.to_bits())
                })
                .collect();
            (got.stages.deterministic_summary(), chains)
        })
        .collect();
    for (order, run) in orders.iter().zip(&runs) {
        assert_eq!(run, &runs[0], "order {order:?}");
    }
}

/// Total kernel launches across a cluster's devices since the last reset.
fn launches(c: &GpuCluster) -> usize {
    c.devices().iter().map(|d| d.stats().kernels.len()).sum()
}

/// Each block issues at most one launch per phase — the fused pass, first
/// top-k, concatenation and second top-k — however many rows it holds.
#[test]
fn row_blocks_launch_at_most_four_kernels_each() {
    let rows = 24;
    let cols = 1 << 11;
    let c = pool(2);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let data = topk_datagen::uniform(rows * cols, 41);
    let matrix = RowMatrix::new(&data, rows, cols);
    let mixed = RowK::PerRow((0..rows).map(|r| [0, 16, cols / 2, 3][r % 4]).collect());
    for (ks, cfg) in [
        (RowK::Uniform(16), DrTopKConfig::default()),
        (mixed, DrTopKConfig::default()),
        (RowK::Uniform(16), DrTopKConfig::approx(0.9)),
    ] {
        for rpb in [None, Some(5)] {
            c.reset_stats();
            let got = topk_rows_on(&devices, matrix, &ks, &cfg, rpb);
            assert!(
                launches(&c) <= 4 * got.num_blocks,
                "{} launches for {} blocks",
                launches(&c),
                got.num_blocks
            );
            for r in 0..rows {
                let k = ks.get(r);
                assert_eq!(got.rows[r].values.len(), k.min(cols), "row {r}");
            }
        }
    }
}

/// One block with more rows than the 2^14-warp launch cap: warps take
/// several rows each, and every row still answers exactly.
#[test]
fn a_block_past_the_warp_cap_answers_every_row() {
    let rows = 40_000;
    let cols = 16;
    let k = 2;
    let c = pool(1);
    let data = topk_datagen::moe_gating_logits(rows, cols, 1.0, 0xcafe);
    let matrix = RowMatrix::new(&data, rows, cols);
    let cfg = DrTopKConfig::default();
    let got = topk_rows(&c, matrix, &RowK::Uniform(k), &cfg);
    assert_eq!(got.num_blocks, 1);
    let first = c.device(0).stats().stats_for("drtopk_rows_first_topk");
    assert_eq!(first.warps_launched, 1 << 14, "the first top-k runs capped");
    let dev = device();
    for r in 0..rows {
        assert_eq!(
            bits(&got.rows[r].values),
            bits(&topk_baselines::reference_topk(matrix.row(r), k)),
            "row {r}"
        );
        if r % 97 == 0 {
            let single = dr_topk(&dev, matrix.row(r), k, &cfg);
            assert_eq!(bits(&got.rows[r].values), bits(&single.values), "row {r}");
            assert_eq!(got.rows[r].kth_value.to_bits(), single.kth_value.to_bits());
        }
    }
}

/// Every row-block kernel's counters and `time_ms` bits after one
/// `topk_rows` call on a fresh one-device pool; a kernel that did not run
/// must not appear.
fn assert_row_kernels_pinned<K: TopKKey>(
    matrix: RowMatrix<'_, K>,
    ks: &RowK,
    cfg: &DrTopKConfig,
    cases: &[(&str, KernelStats, u64)],
) {
    const KERNELS: [&str; 4] = [
        "drtopk_rows_fused_pass",
        "drtopk_rows_first_topk",
        "drtopk_rows_concat",
        "drtopk_rows_second_topk",
    ];
    let c = pool(1);
    topk_rows(&c, matrix, ks, cfg);
    let log = c.device(0).stats();
    for name in KERNELS {
        let Some((_, stats, time_bits)) = cases.iter().find(|(n, ..)| *n == name) else {
            assert_eq!(log.stats_for(name), KernelStats::default(), "{name} ran");
            continue;
        };
        assert_eq!(log.stats_for(name), *stats, "{name}");
        let time_ms = log.time_ms_for(name);
        assert_eq!(time_ms.to_bits(), *time_bits, "{name}: {time_ms} ms");
    }
}

/// The modeled cost of the row-block kernels is what they record on their
/// `WarpCtx`, not how the host computes each row's selection: every counter
/// and the `time_ms` bits of the fused pass, first top-k, concatenation and
/// second top-k kernels are pinned on three fixed matrices: a mixed-path
/// exact block (exact, skipped and fallback rows), an approximate block
/// (approximate, skipped and fallback rows) and a smallest-direction f32
/// block.
#[test]
fn row_kernel_model_is_pinned() {
    let cols = 1 << 12;
    let pinned =
        |warps, load_tx, store_tx, loaded, stored, shuffles, atomics, shared, alu| KernelStats {
            global_load_transactions: load_tx,
            global_store_transactions: store_tx,
            global_loaded_bytes: loaded,
            global_stored_bytes: stored,
            shuffle_instructions: shuffles,
            atomic_operations: atomics,
            shared_ops: shared,
            alu_ops: alu,
            warps_launched: warps,
            ..KernelStats::default()
        };
    let mixed = RowK::PerRow(vec![16, 0, cols / 2, 16, 100, cols]);
    let fused_pass = (
        "drtopk_rows_fused_pass",
        pinned(6, 640, 432, 81920, 55296, 0, 0, 0, 20480),
        0x3f61_95fd_9566_469e_u64,
    );
    let first_topk = (
        "drtopk_rows_first_topk",
        pinned(3, 24, 9, 3072, 1056, 372, 0, 6144, 768),
        0x3f60_7575_6158_deda,
    );
    let second_topk = (
        "drtopk_rows_second_topk",
        pinned(3, 6, 6, 532, 528, 372, 0, 3604, 0),
        0x3f60_6d1b_6caf_c29c,
    );

    let data = topk_datagen::uniform(6 * cols, 2021);
    assert_row_kernels_pinned(
        RowMatrix::new(&data, 6, cols),
        &mixed,
        &DrTopKConfig::default(),
        &[
            fused_pass,
            first_topk,
            (
                "drtopk_rows_concat",
                pinned(3, 30, 22, 2456, 180, 0, 22, 0, 592),
                0x3f60_6a31_02ef_dfe9,
            ),
            second_topk,
        ],
    );

    // Two approximate rows, a skipped row and a fallback row: the block
    // runs the candidate pass and the second top-k only.
    let data = topk_datagen::uniform(4 * cols, 2022);
    assert_row_kernels_pinned(
        RowMatrix::new(&data, 4, cols),
        &RowK::PerRow(vec![16, 0, cols / 2, 64]),
        &DrTopKConfig::approx(0.9),
        &[
            (
                "drtopk_rows_fused_pass",
                pinned(4, 384, 158, 49152, 20224, 0, 0, 0, 12288),
                0x3f60_fe65_b87f_c906,
            ),
            (
                "drtopk_rows_second_topk",
                pinned(2, 15, 3, 1920, 320, 248, 0, 3968, 0),
                0x3f60_6dbc_9b5b_881d,
            ),
        ],
    );

    let data = topk_datagen::uniform_f32(6 * cols, 2023);
    let smallest = DrTopKConfig {
        direction: Direction::Smallest,
        ..DrTopKConfig::default()
    };
    assert_row_kernels_pinned(
        RowMatrix::new(&data, 6, cols),
        &mixed,
        &smallest,
        &[
            fused_pass,
            first_topk,
            (
                "drtopk_rows_concat",
                pinned(3, 24, 17, 1924, 140, 0, 17, 0, 464),
                0x3f60_6875_d4da_4c1f,
            ),
            second_topk,
        ],
    );
}
