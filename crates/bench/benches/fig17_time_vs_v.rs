//! Figure 17: time consumption of Dr. Top-k-assisted algorithms vs the
//! state-of-the-art (and sort-and-choose) as |V| grows, k = 1024.

use drtopk_bench_harness::*;
use drtopk_core::{DrTopKConfig, InnerAlgorithm};
use topk_baselines::{reference_topk, sort_and_choose_topk};
use topk_datagen::Distribution;

fn main() {
    let device = device();
    let k = 1024usize;
    let mut rows = Vec::new();
    for exp in (v_exp().saturating_sub(4))..=v_exp() {
        let n = 1usize << exp;
        let data = dataset(Distribution::Uniform, n);
        let k = k.min(n / 4);
        let thrust = sort_and_choose_topk(&device, &data, k);
        assert_eq!(thrust.values, reference_topk(&data, k));
        rows.push(vec![
            n.to_string(),
            k.to_string(),
            "sort-and-choose".into(),
            fmt(thrust.time_ms),
        ]);
        for algo in InnerAlgorithm::BASELINES {
            let r = run_baseline_checked(&device, algo, &data, k);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                algo.name().into(),
                fmt(r.time_ms),
            ]);
        }
        for inner in InnerAlgorithm::BASELINES {
            let cfg = DrTopKConfig {
                inner,
                ..DrTopKConfig::default()
            };
            let r = run_drtopk_checked(&device, &data, k, &cfg);
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                format!("drtopk+{}", inner.name()),
                fmt(r.time_ms),
            ]);
        }
    }
    emit(
        "fig17_time_vs_v",
        &["n", "k", "algorithm", "time_ms"],
        &rows,
    );
}
