//! Figure 18: speedup of Dr. Top-k-assisted radix/bucket/bitonic top-k over
//! the corresponding stand-alone algorithm, for varying k on the synthetic
//! UD / ND / CD datasets.

use drtopk_bench_harness::*;
use drtopk_core::{DrTopKConfig, InnerAlgorithm};
use topk_datagen::Distribution;

fn main() {
    let n = default_n();
    let device = device();
    let mut rows = Vec::new();
    for dist in Distribution::SYNTHETIC {
        let data = dataset(dist, n);
        for k in k_sweep(2) {
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
        "fig18_speedup_synthetic",
        &[
            "dist",
            "k",
            "algorithm",
            "baseline_ms",
            "drtopk_ms",
            "speedup",
        ],
        &rows,
    );
}
