//! Table 3: global-memory load/store transactions of radix, bucket and
//! bitonic top-k with and without Dr. Top-k (UD dataset, k = 2^7).

use drtopk_bench_harness::*;
use drtopk_core::{DrTopKConfig, InnerAlgorithm};
use topk_datagen::Distribution;

fn main() {
    let n = default_n();
    let k = 1usize << 7;
    let data = dataset(Distribution::Uniform, n);
    let device = device();
    let mut rows = Vec::new();
    for algo in InnerAlgorithm::BASELINES {
        let base = run_baseline_checked(&device, algo, &data, k);
        let cfg = DrTopKConfig {
            inner: algo,
            ..DrTopKConfig::default()
        };
        let dr = run_drtopk_checked(&device, &data, k, &cfg);
        rows.push(vec![
            algo.name().into(),
            base.stats.global_load_transactions.to_string(),
            base.stats.global_store_transactions.to_string(),
            dr.stats.global_load_transactions.to_string(),
            dr.stats.global_store_transactions.to_string(),
            fmt(base.stats.global_load_transactions as f64
                / dr.stats.global_load_transactions.max(1) as f64),
            fmt(base.stats.global_store_transactions as f64
                / dr.stats.global_store_transactions.max(1) as f64),
        ]);
    }
    emit(
        "table3_transactions",
        &[
            "algorithm",
            "baseline_loads",
            "baseline_stores",
            "drtopk_loads",
            "drtopk_stores",
            "load_reduction",
            "store_reduction",
        ],
        &rows,
    );
}
