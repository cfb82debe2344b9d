//! Large-k scalability: delegate pipeline vs multi-pass radix select vs the
//! planner's modeled crossover ([`drtopk_core::choose_path_sampled`]),
//! swept over k ∈ 2⁶ … 2¹⁷ at fixed `|V|` on the uniform dataset and the
//! low-entropy adversarial dataset (few distinct values — the radix worst
//! case).
//!
//! Every cell runs all three paths ([`PathHint::Delegate`],
//! [`PathHint::Radix`], [`PathHint::Auto`]) on the same data and
//! self-verifies: all three must be bit-identical to the CPU reference, and
//! `Auto` must reproduce one of the two forced runs exactly (same modeled
//! transactions and makespan — the simulation is deterministic, so "picked
//! the same path" is an equality, not a tolerance). The sweep then asserts
//! the crossover acceptance criteria:
//!
//! * `Auto` matches the *better* forced path at every grid point (modeled
//!   makespan), and
//! * on the uniform dataset at k ≥ 10⁴ `Auto` strictly beats the
//!   delegate-forced run in **both** modeled transactions and makespan —
//!   the RadiK observation that the delegate construction stops paying for
//!   itself at large k. (On low-entropy data the radix chain degenerates,
//!   Auto correctly *stays* on delegates, and "strictly beats delegate" is
//!   unsatisfiable by construction — so the strict clause is scoped to
//!   uniform; the better-path clause still covers every cell.)
//!
//! Beyond the CSV every harness writes, this target records
//! `bench_results/large_k_sweep.json` under the shared drtopk-obs/v1
//! snapshot schema; the committed `large_k_sweep_baseline.json` is the
//! trajectory-tracking reference.
//!
//! Pass `--smoke` (the CI bench-smoke mode) to shrink the grid to a
//! seconds-scale run with every assertion still armed.

use std::io::Write as _;

use drtopk_bench_harness::*;
use drtopk_core::{choose_path_sampled, ChosenPath, DrTopKConfig, PathHint};
use gpu_sim::DeviceSpec;
use topk_baselines::reference_topk;
use topk_datagen::LOW_ENTROPY_DISTINCT;

/// Strict-win threshold of the acceptance criterion: above this k the
/// delegate path must lose to the crossover planner.
const STRICT_WIN_K: usize = 10_000;

struct Cell {
    dataset: &'static str,
    k: usize,
    delegate_ms: f64,
    delegate_tx: u64,
    radix_ms: f64,
    radix_tx: u64,
    auto_ms: f64,
    auto_tx: u64,
    auto_path: ChosenPath,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, k_exps) = if smoke {
        (1usize << 16, 6..=12u32)
    } else {
        (default_n().max(1 << 20), 6..=17u32)
    };
    let device = device();
    let spec = DeviceSpec::v100s();

    let datasets: [(&'static str, Vec<u32>); 2] = [
        ("uniform", topk_datagen::uniform(n, seed())),
        (
            "low_entropy",
            topk_datagen::low_entropy(n, LOW_ENTROPY_DISTINCT, seed()),
        ),
    ];

    let mut cells = Vec::new();
    for (name, data) in &datasets {
        for e in k_exps.clone() {
            let k = 1usize << e;
            if k >= n {
                break;
            }
            let expected = reference_topk(data, k);
            let run = |path: PathHint| {
                let cfg = DrTopKConfig {
                    path,
                    ..DrTopKConfig::default()
                };
                let r = drtopk_core::dr_topk(&device, data, k, &cfg);
                assert_eq!(
                    r.values, expected,
                    "{name}: {path} path wrong at k={k} (n={n})"
                );
                r
            };
            let del = run(PathHint::Delegate);
            let rad = run(PathHint::Radix);
            let auto = run(PathHint::Auto);
            // Same data-aware resolution the pipeline seam performs, so the
            // twin-equality asserts below are exact.
            let auto_path = choose_path_sampled(data, k, &spec);

            // Auto is one of the two forced runs, exactly.
            let (twin_ms, twin_tx) = match auto_path {
                ChosenPath::Delegate => (del.time_ms, del.stats.total_transactions()),
                ChosenPath::Radix => (rad.time_ms, rad.stats.total_transactions()),
            };
            assert_eq!(
                auto.stats.total_transactions(),
                twin_tx,
                "{name}: Auto diverged from its resolved path at k={k}"
            );
            assert!(
                (auto.time_ms - twin_ms).abs() < 1e-9,
                "{name}: Auto makespan diverged from its resolved path at k={k}"
            );
            // Auto matches the better forced path at every grid point.
            let best_ms = del.time_ms.min(rad.time_ms);
            assert!(
                auto.time_ms <= best_ms * (1.0 + 1e-9),
                "{name}: Auto ({} ms) missed the better path ({best_ms} ms) at k={k}",
                auto.time_ms
            );
            // Strict win over delegate-forced at large k, both metrics.
            // Scoped to uniform: on low_entropy Auto == delegate is the
            // *correct* outcome, so a strict win there is unsatisfiable.
            if *name == "uniform" && k >= STRICT_WIN_K {
                assert!(
                    auto.time_ms < del.time_ms
                        && auto.stats.total_transactions() < del.stats.total_transactions(),
                    "{name}: Auto must strictly beat delegate at k={k} \
                     (auto {} ms / {} tx, delegate {} ms / {} tx)",
                    auto.time_ms,
                    auto.stats.total_transactions(),
                    del.time_ms,
                    del.stats.total_transactions()
                );
            }

            cells.push(Cell {
                dataset: name,
                k,
                delegate_ms: del.time_ms,
                delegate_tx: del.stats.total_transactions(),
                radix_ms: rad.time_ms,
                radix_tx: rad.stats.total_transactions(),
                auto_ms: auto.time_ms,
                auto_tx: auto.stats.total_transactions(),
                auto_path,
            });
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.dataset.to_string(),
                c.k.to_string(),
                fmt(c.delegate_ms),
                fmt(c.radix_ms),
                fmt(c.auto_ms),
                c.delegate_tx.to_string(),
                c.radix_tx.to_string(),
                c.auto_tx.to_string(),
                c.auto_path.name().to_string(),
                fmt((1.0 - c.auto_ms / c.delegate_ms) * 100.0),
            ]
        })
        .collect();
    emit(
        "large_k_sweep",
        &[
            "dataset",
            "k",
            "delegate_ms",
            "radix_ms",
            "auto_ms",
            "delegate_tx",
            "radix_tx",
            "auto_tx",
            "auto_path",
            "auto_win_over_delegate_pct",
        ],
        &rows,
    );

    // Baseline JSON for trajectory tracking, under the shared obs snapshot
    // schema. The committed baseline comes from the full (non-smoke) run.
    use drtopk_obs::{Json, Snapshot};
    let cell_objs: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("dataset", Json::str(c.dataset)),
                ("k", Json::Int(c.k as i64)),
                ("delegate_ms", Json::Num(c.delegate_ms)),
                ("radix_ms", Json::Num(c.radix_ms)),
                ("auto_ms", Json::Num(c.auto_ms)),
                ("delegate_tx", Json::Int(c.delegate_tx as i64)),
                ("radix_tx", Json::Int(c.radix_tx as i64)),
                ("auto_tx", Json::Int(c.auto_tx as i64)),
                ("auto_path", Json::str(c.auto_path.name())),
            ])
        })
        .collect();
    let json = Snapshot::new("large_k_sweep")
        .field("n", Json::Int(n as i64))
        .field("seed", Json::Int(seed() as i64))
        .field("smoke", Json::Bool(smoke))
        .field("cells", Json::Arr(cell_objs))
        .to_pretty_string();
    let path = results_dir().join("large_k_sweep.json");
    let mut file = std::fs::File::create(&path).expect("cannot create JSON file");
    file.write_all(json.as_bytes()).unwrap();
    println!("[written to {}]", path.display());
}
