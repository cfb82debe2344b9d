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
//! Every cell is the median of `ROUNDS` timed calls (default 7; pass a
//! number to change it). Each round times every cell once, so a drift of
//! the host's speed spreads over all cells instead of landing on a few.
//! One row per key, order, direction and β, one column per α:
//!
//! ```sh
//! cargo bench -p drtopk-bench --bench construction
//! cargo bench -p drtopk-bench --bench construction -- 15
//! ```

use std::time::Instant;

use drtopk_bench_harness::{device, emit, seed};
use drtopk_core::{build_delegate_vector, ConstructionMethod, Direction, TopKKey};
use gpu_sim::Device;

const N: usize = 1 << 18;
const ALPHAS: std::ops::RangeInclusive<u32> = 5..=13;
const BETAS: std::ops::RangeInclusive<usize> = 1..=4;

/// One input: its labels and a closure that builds its delegates once.
struct Cell {
    key: &'static str,
    order: &'static str,
    direction: Direction,
    beta: usize,
    alpha: u32,
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
    let mut cells = both_orders("u32", topk_datagen::uniform(N, seed));
    cells.extend(both_orders("f32", topk_datagen::uniform_f32(N, seed + 1)));
    cells.extend(both_orders("u64", wide));
    cells.extend(both_orders("f64", doubles));

    let device = device();
    for cell in &cells {
        (cell.run)(&device); // warm-up: page in the input and the output
    }
    let mut ns = vec![Vec::with_capacity(rounds); cells.len()];
    for _ in 0..rounds {
        for (cell, times) in cells.iter().zip(&mut ns) {
            device.reset_stats();
            let start = Instant::now();
            (cell.run)(&device);
            times.push(start.elapsed().as_secs_f64() * 1e9 / N as f64);
        }
    }

    let per_row = ALPHAS.count();
    let mut header = vec!["key", "order", "direction", "beta"];
    let alpha_names: Vec<String> = ALPHAS.map(|a| format!("alpha{a}")).collect();
    header.extend(alpha_names.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = cells
        .chunks(per_row)
        .zip(ns.chunks_mut(per_row))
        .map(|(row, times)| {
            let first = &row[0];
            let mut line = vec![
                first.key.to_string(),
                first.order.to_string(),
                format!("{:?}", first.direction),
                first.beta.to_string(),
            ];
            assert!(row.iter().map(|c| c.alpha).eq(ALPHAS));
            line.extend(times.iter_mut().map(|t| format!("{:.3}", median(t))));
            line
        })
        .collect();
    emit("construction", &header, &rows);
}
