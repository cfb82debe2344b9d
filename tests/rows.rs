//! Differential conformance suite for the row-wise matrix top-k
//! ([`drtopk::core::topk_rows`]): every row of a `rows × cols` matrix must
//! be **bit-identical** to an independent per-row `dr_topk` /
//! `dr_topk_min` call — across all six key types, both directions,
//! NaN-laden float rows, uniform and per-row `k` (with `k = 0`, `k = cols`
//! and `k > cols` mixed into one matrix), and both the exact and the
//! recall-targeted approximate modes. The fused row-block plan is pinned
//! structurally too: delegate passes scale with blocks, never with rows,
//! and the fused plan moves measurably fewer modeled global-memory
//! transactions than independent per-row runs.
//!
//! A threaded run is also pinned against an insertion-order serial replay
//! of the same row graph: byte-equal
//! [`deterministic_summary`](drtopk::core::StageReport::deterministic_summary)
//! strings.

mod common;

use common::{bits, device};
use drtopk::core::{
    dr_topk, dr_topk_min, topk_rows_explore, topk_rows_on, DrTopKConfig, ExploreBudget,
};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use proptest::prelude::*;

fn pool(devices: usize) -> GpuCluster {
    GpuCluster::homogeneous(devices, DeviceSpec::v100s())
}

/// The differential oracle: `topk_rows` over a 2-device pool against one
/// independent `dr_topk` / `dr_topk_min`
/// call per row, compared through order-preserving bit images so NaNs are
/// concrete multiset elements.
fn assert_rows_match_per_row<K: TopKKey>(
    data: &[K],
    rows: usize,
    cols: usize,
    ks: &RowK,
    largest: bool,
    cfg: &DrTopKConfig,
) {
    let c = pool(2);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let matrix = RowMatrix::new(data, rows, cols);
    let got = if largest {
        topk_rows_on(&devices, matrix, ks, cfg, None)
    } else {
        topk_rows_on(&devices, matrix.as_desc(), ks, cfg, None).into_native()
    };
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
        let single = if largest {
            dr_topk(&dev, matrix.row(r), k, cfg)
        } else {
            dr_topk_min(&dev, matrix.row(r), k, cfg)
        };
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `topk_rows` is bit-identical to per-row `dr_topk` / `dr_topk_min`
    /// for all six key types, both directions, uniform and degenerate
    /// per-row k, in both the exact and the approximate mode. The float
    /// matrices are salted with NaNs of both signs.
    #[test]
    fn rows_are_bit_identical_to_per_row_runs(
        raw in proptest::collection::vec(any::<u32>(), 512..2048),
        rows in 2usize..6,
        k_frac in 0.0f64..1.0,
        largest in any::<bool>(),
        per_row_k in any::<bool>(),
        approx in any::<bool>(),
    ) {
        let cols = raw.len() / rows;
        let data = &raw[..rows * cols];
        let k = ((cols as f64 * k_frac) as usize).min(cols);
        let ks = if per_row_k {
            degenerate_ks(rows, cols, k)
        } else {
            RowK::Uniform(k)
        };
        let cfg = if approx { DrTopKConfig::approx(0.9) } else { DrTopKConfig::default() };

        assert_rows_match_per_row::<u32>(data, rows, cols, &ks, largest, &cfg);
        let as_u64: Vec<u64> = data.iter().map(|&x| (x as u64) << 17 | 0x9).collect();
        assert_rows_match_per_row::<u64>(&as_u64, rows, cols, &ks, largest, &cfg);
        let as_i32: Vec<i32> = data.iter().map(|&x| x as i32).collect();
        assert_rows_match_per_row::<i32>(&as_i32, rows, cols, &ks, largest, &cfg);
        let as_i64: Vec<i64> = data.iter().map(|&x| x as i64 - (1 << 35)).collect();
        assert_rows_match_per_row::<i64>(&as_i64, rows, cols, &ks, largest, &cfg);
        // Raw bit reinterpretation already injects NaN/∞/subnormal keys;
        // salt every row with explicit NaNs of both signs on top.
        let mut as_f32: Vec<f32> = data.iter().map(|&x| f32::from_bits(x)).collect();
        for r in 0..rows {
            as_f32[r * cols] = f32::NAN;
            as_f32[r * cols + cols / 2] = -f32::NAN;
        }
        assert_rows_match_per_row::<f32>(&as_f32, rows, cols, &ks, largest, &cfg);
        let mut as_f64: Vec<f64> = data
            .iter()
            .map(|&x| f64::from_bits((x as u64) << 32 | 0x7FF5))
            .collect();
        for r in 0..rows {
            as_f64[r * cols + 1] = f64::NAN;
            as_f64[r * cols + cols - 1] = -f64::NAN;
        }
        assert_rows_match_per_row::<f64>(&as_f64, rows, cols, &ks, largest, &cfg);
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

/// Serial against threaded, pinned in-process: a one-schedule exhaustive
/// budget replays exactly the insertion order on the calling thread, and
/// its modeled schedule must be byte-identical to a threaded run's; the
/// explorer's own threaded run must return the same winners.
#[test]
fn serial_and_threaded_row_graphs_are_byte_identical() {
    let rows = 6;
    let cols = 1 << 11;
    let c = pool(2);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let data = topk_datagen::normal(rows * cols, 13);
    let matrix = RowMatrix::new(&data, rows, cols);
    // Mixed paths in one graph: skip, delegate, fallback, clamped.
    let ks = RowK::PerRow(vec![0, 16, cols / 2, cols, cols + 9, 16]);
    let cfg = DrTopKConfig::default();
    let threaded = topk_rows_on(&devices, matrix, &ks, &cfg, Some(2));
    let (again, serial) = topk_rows_explore(
        &devices,
        matrix,
        &ks,
        &cfg,
        Some(2),
        ExploreBudget::Exhaustive { max_schedules: 1 },
    )
    .expect("one schedule cannot diverge from itself");
    assert_eq!(serial.schedules_run, 1);
    assert_eq!(
        serial.reference.deterministic_summary(),
        threaded.stages.deterministic_summary(),
        "modeled schedule must not depend on the dispatch order"
    );
    for r in 0..rows {
        assert_eq!(
            bits(&again.rows[r].values),
            bits(&threaded.rows[r].values),
            "row {r}"
        );
    }
    assert_eq!(serial.reference.phase_breakdown(), threaded.breakdown);
    assert_eq!(serial.reference.stats(), threaded.stats);
}

/// Small exhaustive interleaving check: every dispatch order the
/// per-resource workers could take for a two-block row graph produces the
/// same deterministic summary and the same per-row winners.
#[test]
fn explore_exhausts_row_graph_interleavings() {
    let rows = 4;
    let cols = 1 << 10;
    let c = pool(2);
    let devices: Vec<&Device> = c.devices().iter().collect();
    let data = topk_datagen::uniform(rows * cols, 37);
    let matrix = RowMatrix::new(&data, rows, cols);
    let (result, outcome) = topk_rows_explore(
        &devices,
        matrix,
        &RowK::PerRow(vec![8, 0, cols / 2, 8]),
        &DrTopKConfig::default(),
        Some(2),
        ExploreBudget::default(),
    )
    .expect("row graphs must be schedule-invariant");
    assert!(outcome.exhaustive, "two blocks must enumerate exhaustively");
    assert!(outcome.schedules_run >= 2);
    for r in 0..rows {
        let k = [8, 0, cols / 2, 8][r];
        assert_eq!(
            result.rows[r].values,
            topk_baselines::reference_topk(matrix.row(r), k),
            "row {r}"
        );
    }
}
