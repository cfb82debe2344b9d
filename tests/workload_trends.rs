//! Integration tests of the workload-reduction trends the paper reports
//! (Figures 20–22) and of the per-phase accounting.

use drtopk::core::{dr_topk, DrTopKConfig};
use drtopk::prelude::*;

fn device() -> Device {
    Device::new(DeviceSpec::v100s())
}

#[test]
fn workload_fraction_shrinks_as_v_grows() {
    // Figure 20: the (delegate + concatenated) / |V| ratio decreases with |V|.
    let device = device();
    let k = 1 << 10;
    let mut last = f64::INFINITY;
    for exp in [14u32, 16, 18, 20] {
        let n = 1usize << exp;
        let data = topk_datagen::uniform(n, 3);
        let r = dr_topk(&device, &data, k, &DrTopKConfig::default());
        let frac = r.workload.workload_fraction();
        assert!(
            frac < last,
            "fraction should shrink with |V|: {frac} at 2^{exp} vs {last}"
        );
        last = frac;
    }
}

#[test]
fn workload_fraction_grows_with_k() {
    // Figure 21: larger k means more delegates and more qualified subranges.
    // The trend is a property of the delegate pipeline, so pin the path —
    // under `PathHint::Auto` the largest-k point routes to the radix path.
    let device = device();
    let n = 1 << 18;
    let data = topk_datagen::uniform(n, 5);
    let config = DrTopKConfig {
        path: drtopk::core::PathHint::Delegate,
        ..DrTopKConfig::default()
    };
    let mut last = 0.0;
    for k_exp in [4u32, 8, 12, 14] {
        let r = dr_topk(&device, &data, 1 << k_exp, &config);
        let frac = r.workload.workload_fraction();
        assert!(
            frac >= last,
            "fraction should grow with k: {frac} at 2^{k_exp} vs {last}"
        );
        last = frac;
    }
}

#[test]
fn drtopk_moves_fewer_bytes_than_baselines() {
    // Table 3's essence: Dr. Top-k reduces load transactions against every
    // baseline, reduces store transactions against the GGKS in-place radix
    // top-k the paper profiles, and keeps its own store traffic (the
    // delegate vector) a small fraction of |V|.
    let device = device();
    let n = 1 << 18;
    let k = 128;
    let data = topk_datagen::uniform(n, 9);
    let dr = dr_topk(&device, &data, k, &DrTopKConfig::default());
    for algo in InnerAlgorithm::BASELINES {
        let base = algo.run(&device, &data, k);
        assert!(
            dr.stats.global_load_transactions < base.stats.global_load_transactions,
            "{algo}: loads {} vs {}",
            dr.stats.global_load_transactions,
            base.stats.global_load_transactions
        );
    }
    let ggks_inplace = radix_topk(
        &device,
        &data,
        k,
        topk_baselines::RadixVariant::InPlaceZeroing,
    );
    assert!(
        dr.stats.global_store_transactions < ggks_inplace.stats.global_store_transactions,
        "stores {} vs GGKS in-place {}",
        dr.stats.global_store_transactions,
        ggks_inplace.stats.global_store_transactions
    );
    assert!(
        dr.stats.global_stored_bytes < (n as u64 * 4) / 8,
        "Dr. Top-k's own stores must stay a small fraction of |V|: {} bytes",
        dr.stats.global_stored_bytes
    );
}

#[test]
fn drtopk_is_faster_than_every_baseline_at_moderate_k() {
    // Figure 17/18's essence at a single operating point. The advantage
    // grows with |V| (Figure 17); 2^21 is already past the crossover.
    let device = device();
    let n = 1 << 21;
    let k = 1024;
    let data = topk_datagen::uniform(n, 21);
    let dr = dr_topk(&device, &data, k, &DrTopKConfig::default());
    for algo in InnerAlgorithm::BASELINES {
        let base = algo.run(&device, &data, k);
        assert!(
            dr.time_ms < base.time_ms,
            "{algo}: Dr. Top-k {:.3} ms should beat baseline {:.3} ms",
            dr.time_ms,
            base.time_ms
        );
    }
}

#[test]
fn bitonic_baseline_is_distribution_stable_but_bucket_is_not() {
    // Figure 4's essence: bitonic's modeled time is identical across
    // distributions, bucket's varies (CD is its adversarial case).
    let device = device();
    let n = 1 << 19;
    let k = 256;
    let ud = topk_datagen::uniform(n, 4);
    let cd = topk_datagen::customized(n, 4);
    let bit_ud = bitonic_topk(&device, &ud, k);
    let bit_cd = bitonic_topk(&device, &cd, k);
    let rel = (bit_ud.time_ms - bit_cd.time_ms).abs() / bit_ud.time_ms;
    assert!(rel < 0.05, "bitonic should be stable, diff {rel}");
    let buc_ud = bucket_topk(&device, &ud, k);
    let buc_cd = bucket_topk(&device, &cd, k);
    assert!(
        buc_cd.time_ms > 1.3 * buc_ud.time_ms,
        "bucket on CD ({:.3} ms) should be clearly slower than on UD ({:.3} ms)",
        buc_cd.time_ms,
        buc_ud.time_ms
    );
}
