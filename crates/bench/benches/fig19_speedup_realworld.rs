//! Figure 19: speedup of Dr. Top-k-assisted algorithms on the real-world
//! dataset proxies (ANN_SIFT1B distances, ClueWeb09 degrees, TwitterCOVID-19
//! fear scores).

use drtopk_bench_harness::*;
use drtopk_core::{DrTopKConfig, InnerAlgorithm};
use topk_datagen::Distribution;

fn main() {
    // the AN proxy generates true 128-d distances, which is slower: use a
    // quarter of the default size for the real-world figure
    let n = (default_n() / 4).max(1 << 16);
    let device = device();
    let mut rows = Vec::new();
    for dist in Distribution::REAL_WORLD {
        let data = dataset(dist, n);
        for k in k_sweep(4) {
            for algo in InnerAlgorithm::BASELINES {
                let base = run_baseline_checked(&device, algo, &data, k);
                let cfg = DrTopKConfig {
                    inner: algo,
                    ..DrTopKConfig::default()
                };
                let dr = run_drtopk_checked(&device, &data, k, &cfg);
                rows.push(vec![
                    dist.abbrev().into(),
                    k.to_string(),
                    algo.name().into(),
                    fmt(base.time_ms),
                    fmt(dr.time_ms),
                    fmt(base.time_ms / dr.time_ms),
                ]);
            }
        }
    }
    emit(
        "fig19_speedup_realworld",
        &[
            "dataset",
            "k",
            "algorithm",
            "baseline_ms",
            "drtopk_ms",
            "speedup",
        ],
        &rows,
    );
}
