//! Figure 12: the flag-based in-place radix top-k (Dr. Top-k's optimization)
//! vs the GGKS in-place radix top-k on a uniformly distributed vector.

use drtopk_bench_harness::*;
use drtopk_core::flag_radix_topk;
use topk_baselines::{radix_topk, RadixVariant};
use topk_datagen::Distribution;

fn main() {
    let n = default_n().min(1 << 21); // the paper uses |V| = 2^21 here
    let data = dataset(Distribution::Uniform, n);
    let device = device();
    let mut rows = Vec::new();
    for k in k_sweep(2) {
        let k = k.min(n / 2);
        let flag = flag_radix_topk(&device, &data, k);
        let ggks = radix_topk(&device, &data, k, RadixVariant::InPlaceZeroing);
        assert_eq!(flag.values, ggks.values);
        rows.push(vec![
            k.to_string(),
            fmt(flag.time_ms),
            fmt(ggks.time_ms),
            fmt(ggks.time_ms / flag.time_ms),
        ]);
    }
    emit(
        "fig12_inplace_radix",
        &["k", "flag_radix_ms", "ggks_inplace_ms", "speedup"],
        &rows,
    );
}
