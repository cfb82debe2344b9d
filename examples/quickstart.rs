//! Quickstart: find the top-k elements of a large random vector with
//! Dr. Top-k and compare against a plain GPU radix top-k baseline.
//!
//! Run with: `cargo run --release --example quickstart [n_exp] [k]`

use drtopk::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let n = 1usize << n_exp;

    println!("generating {n} uniformly distributed u32 values (|V| = 2^{n_exp})...");
    let data = topk_datagen::uniform(n, 0xC0FFEE);

    let device = Device::new(DeviceSpec::v100s());
    println!("simulated device: {}", device.spec().name);

    // Dr. Top-k with the recommended configuration (Rule 4 α, β = 2,
    // delegate filtering, automatic construction kernel).
    let config = DrTopKConfig::auto(n, k);
    let result = dr_topk(&device, &data, k, &config);

    // Baseline: stand-alone radix top-k on the same device.
    let baseline = radix_topk(&device, &data, k, topk_baselines::RadixVariant::OutOfPlace);

    assert_eq!(result.values, baseline.values, "both must agree");
    assert_eq!(
        result.values,
        topk_baselines::reference_topk(&data, k),
        "and match the CPU ground truth"
    );

    println!(
        "\ntop-{k} (largest 5 shown): {:?}",
        &result.values[..5.min(k)]
    );
    println!("k-th largest value       : {}", result.kth_value);
    println!("\n--- modeled GPU cost ---");
    println!("Dr. Top-k (α = {}, β = {})", result.alpha, config.beta);
    println!(
        "  delegate construction : {:8.3} ms",
        result.breakdown.delegate_ms
    );
    println!(
        "  first top-k           : {:8.3} ms",
        result.breakdown.first_topk_ms
    );
    println!(
        "  concatenation         : {:8.3} ms",
        result.breakdown.concat_ms
    );
    println!(
        "  second top-k          : {:8.3} ms",
        result.breakdown.second_topk_ms
    );
    println!("  total                 : {:8.3} ms", result.time_ms);
    println!("stand-alone radix top-k : {:8.3} ms", baseline.time_ms);
    println!(
        "speedup                 : {:8.2}x",
        baseline.time_ms / result.time_ms
    );
    println!(
        "workload touched by the two top-k passes: {:.3}% of |V|",
        result.workload.workload_fraction() * 100.0
    );
}
