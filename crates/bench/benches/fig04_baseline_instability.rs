//! Figure 4: performance (in)stability of radix/bucket/bitonic top-k across
//! the UD / ND / CD distributions as k grows.

use drtopk_bench_harness::*;
use drtopk_core::InnerAlgorithm;
use topk_datagen::Distribution;

fn main() {
    let n = default_n();
    let device = device();
    let mut rows = Vec::new();
    for dist in Distribution::SYNTHETIC {
        let data = dataset(dist, n);
        for k in k_sweep(2) {
            for algo in InnerAlgorithm::BASELINES {
                let r = run_baseline_checked(&device, algo, &data, k);
                rows.push(vec![
                    dist.abbrev().to_string(),
                    k.to_string(),
                    algo.name().to_string(),
                    fmt(r.time_ms),
                ]);
            }
        }
    }
    emit(
        "fig04_baseline_instability",
        &["dist", "k", "algorithm", "time_ms"],
        &rows,
    );
}
