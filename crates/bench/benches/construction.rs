//! Host cost of delegate construction: nanoseconds per input element of
//! `build_delegate_vector`, wall-clock on the host, over key type {u32,
//! f32, u64, f64} × α 5–13 × β 1–4 × {uniform, ascending} input × both
//! directions, on 2^18 keys.
//!
//! This is the instrument behind the per-lane/chunk-skip crossover stated
//! on `delegates_into` (`crates/core/src/delegate.rs`). Ascending input is
//! the chunk-skip loop's worst case: every 32-element chunk beats the
//! running β-th best, so it walks each one element by element. The modeled
//! time of construction does not depend on the host loop, so this bench
//! reports measured time only and has no committed baseline; its numbers
//! belong to the host that printed them.
//!
//! A second table, `construction_coarsen`, times `coarsen_delegate_vector`
//! on u32 in both directions, in nanoseconds per finer delegate value it
//! reads, from the uniform input's vectors at (α′, β′) = (6, 2), (7, 3)
//! and (8, 4) to every α′ ≤ α ≤ 11 (α ≥ 7) and β ≤ min(β′, 3); its
//! `from` column names the source. Each coarse subrange merges
//! `2^(α−α′)` fine lists of β′ values, two lists of 2 at (6, 2) → α = 7
//! and one list at α = α′, so these cells show the host loop on the small
//! blocks the engine runs whenever a cached fine pass serves a coarser
//! request, from the same α and from β′ up to 4 as well.
//!
//! Every cell is the median of `ROUNDS` timed calls (default 7; pass a
//! number to change it). Each round times every cell once, so a drift of
//! the host's speed spreads over all cells instead of landing on a few.
//! The host loop has two builds with different per-lane limits, and the
//! CPU decides which one runs 32-bit keys (`avx2` when it has AVX2, else
//! `portable`; 64-bit keys always run the portable build), so each
//! table's first header cell names the build: tables of different builds
//! are not comparable cell by cell. One row per key, order (or
//! source), direction and β, one column per α:
//!
//! ```sh
//! cargo bench -p drtopk-bench --bench construction
//! cargo bench -p drtopk-bench --bench construction -- 15
//! ```

use std::time::Instant;

use drtopk_bench_harness::{device, emit, seed};
use drtopk_core::{
    build_delegate_vector, coarsen_delegate_vector, ConstructionMethod, DelegateVector, Direction,
    TopKKey,
};
use gpu_sim::Device;

const N: usize = 1 << 18;
const ALPHAS: std::ops::RangeInclusive<u32> = 5..=13;
const BETAS: std::ops::RangeInclusive<usize> = 1..=4;
/// The finer vectors the coarsening cells start from, as (α′, β′, label),
/// and their targets: every α of `COARSEN_ALPHAS` from α′ on and every β up
/// to `min(β′, COARSEN_MAX_BETA)`.
const COARSEN_FROM: [(u32, usize, &str); 3] = [(6, 2, "a6b2"), (7, 3, "a7b3"), (8, 4, "a8b4")];
const COARSEN_ALPHAS: std::ops::RangeInclusive<u32> = 7..=11;
const COARSEN_MAX_BETA: usize = 3;

/// One input: its labels (`order` is the coarsening source in the
/// coarsening table), the values one call reads and a closure that builds
/// its delegates once.
struct Cell {
    key: &'static str,
    order: &'static str,
    direction: Direction,
    beta: usize,
    alpha: u32,
    reads: usize,
    run: Box<dyn Fn(&Device)>,
}

/// Every (α, β, direction) cell of one input.
fn cells<K: TopKKey>(key: &'static str, order: &'static str, data: Vec<K>) -> Vec<Cell> {
    let data: &'static [K] = Vec::leak(data);
    let mut cells = Vec::new();
    for direction in [Direction::Largest, Direction::Smallest] {
        for beta in BETAS {
            for alpha in ALPHAS {
                cells.push(Cell {
                    key,
                    order,
                    direction,
                    beta,
                    alpha,
                    reads: N,
                    run: Box::new(move |device| {
                        let dv = build_delegate_vector(
                            device,
                            data,
                            alpha,
                            beta,
                            ConstructionMethod::Auto,
                            direction,
                        );
                        std::hint::black_box(dv.values);
                    }),
                });
            }
        }
    }
    cells
}

/// `data` as drawn and sorted ascending in its key order.
fn both_orders<K: TopKKey>(key: &'static str, data: Vec<K>) -> Vec<Cell> {
    let mut ascending = data.clone();
    ascending.sort_unstable_by_key(|v| v.to_bits());
    let mut all = cells(key, "uniform", data);
    all.extend(cells(key, "ascending", ascending));
    all
}

/// Every coarsening cell: `data`'s vector at each source of
/// [`COARSEN_FROM`] in each direction, coarsened to its targets.
fn coarsen_cells(device: &Device, data: &'static [u32]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (from_alpha, from_beta, from) in COARSEN_FROM {
        for direction in [Direction::Largest, Direction::Smallest] {
            let finer: &'static DelegateVector<u32> = Box::leak(Box::new(build_delegate_vector(
                device,
                data,
                from_alpha,
                from_beta,
                ConstructionMethod::Auto,
                direction,
            )));
            for beta in 1..=from_beta.min(COARSEN_MAX_BETA) {
                for alpha in from_alpha.max(*COARSEN_ALPHAS.start())..=*COARSEN_ALPHAS.end() {
                    cells.push(Cell {
                        key: "u32",
                        order: from,
                        direction,
                        beta,
                        alpha,
                        reads: finer.len(),
                        run: Box::new(move |device| {
                            let dv = coarsen_delegate_vector(device, finer, N, alpha, beta);
                            std::hint::black_box(dv.values);
                        }),
                    });
                }
            }
        }
    }
    cells
}

/// The build of the host loop that `delegates_into` runs 32-bit keys on
/// this CPU: the AVX2 build whenever the CPU has AVX2.
fn host_loop_build() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Emit table `name`, whose second column is called `order`: one row per
/// run of consecutive cells with the same labels, then each cell's median
/// in ns per value read under its α's column, and `-` where a row has no
/// cell for that α. The first header cell names the host loop's build.
fn emit_table(
    name: &str,
    order: &str,
    cells: &[Cell],
    ns: &mut [Vec<f64>],
    alphas: std::ops::RangeInclusive<u32>,
) {
    let alpha_names: Vec<String> = alphas.clone().map(|a| format!("alpha{a}")).collect();
    let key = format!("key ({} build)", host_loop_build());
    let mut header = vec![key.as_str(), order, "direction", "beta"];
    header.extend(alpha_names.iter().map(String::as_str));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (cell, times) in cells.iter().zip(ns) {
        let labels = [
            cell.key.to_string(),
            cell.order.to_string(),
            format!("{:?}", cell.direction),
            cell.beta.to_string(),
        ];
        if rows.last().is_none_or(|row| row[..4] != labels) {
            let mut row = labels.to_vec();
            row.resize(4 + alpha_names.len(), "-".to_string());
            rows.push(row);
        }
        let row = rows.last_mut().expect("pushed above");
        row[4 + (cell.alpha - alphas.start()) as usize] = format!("{:.3}", median(times));
    }
    emit(name, &header, &rows);
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = std::env::args()
        .skip(1)
        .find_map(|a| a.parse().ok())
        .unwrap_or(7)
        .max(1);
    let seed = seed();
    let wide: Vec<u64> = topk_datagen::uniform(2 * N, seed + 2)
        .chunks(2)
        .map(|p| (u64::from(p[0]) << 32) | u64::from(p[1]))
        .collect();
    let doubles: Vec<f64> = wide
        .iter()
        .map(|&x| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        .collect();
    let uniform = topk_datagen::uniform(N, seed);
    let device = device();
    let coarsen = coarsen_cells(&device, Vec::leak(uniform.clone()));
    let mut cells = both_orders("u32", uniform);
    cells.extend(both_orders("f32", topk_datagen::uniform_f32(N, seed + 1)));
    cells.extend(both_orders("u64", wide));
    cells.extend(both_orders("f64", doubles));
    let built = cells.len();
    cells.extend(coarsen);

    for cell in &cells {
        (cell.run)(&device); // warm-up: page in the input and the output
    }
    let mut ns = vec![Vec::with_capacity(rounds); cells.len()];
    for _ in 0..rounds {
        for (cell, times) in cells.iter().zip(&mut ns) {
            device.reset_stats();
            let start = Instant::now();
            (cell.run)(&device);
            times.push(start.elapsed().as_secs_f64() * 1e9 / cell.reads as f64);
        }
    }

    let (built_ns, coarsen_ns) = ns.split_at_mut(built);
    emit_table("construction", "order", &cells[..built], built_ns, ALPHAS);
    emit_table(
        "construction_coarsen",
        "from",
        &cells[built..],
        coarsen_ns,
        COARSEN_ALPHAS,
    );
}
