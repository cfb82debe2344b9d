//! Website degree centrality (the paper's ClueWeb09 use case): rank web
//! pages by degree and report the k best-connected hubs, comparing all
//! Dr. Top-k-assisted inner algorithms.
//!
//! Run with: `cargo run --release --example degree_centrality [n_exp] [k]`

use drtopk::core::InnerAlgorithm;
use drtopk::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let n = 1usize << n_exp;

    println!("generating a heavy-tailed degree vector for {n} pages...");
    let degrees = topk_datagen::web_degrees(n, 2021);
    let device = Device::new(DeviceSpec::v100s());

    let expected = topk_baselines::reference_topk(&degrees, k);
    println!(
        "\ntop-{k} hub degrees (largest 10): {:?}",
        &expected[..10.min(k)]
    );

    println!(
        "\n{:<28} {:>12} {:>14}",
        "configuration", "time (ms)", "workload (%|V|)"
    );
    for inner in InnerAlgorithm::ALL {
        let config = DrTopKConfig {
            inner,
            ..DrTopKConfig::default()
        };
        let result = dr_topk(&device, &degrees, k, &config);
        assert_eq!(result.values, expected);
        println!(
            "{:<28} {:>12.3} {:>14.3}",
            format!("Dr. Top-k + {inner}"),
            result.time_ms,
            result.workload.workload_fraction() * 100.0
        );
    }

    let baseline = InnerAlgorithm::Bucket.run(&device, &degrees, k);
    assert_eq!(baseline.values, expected);
    println!(
        "{:<28} {:>12.3} {:>14}",
        "stand-alone bucket top-k", baseline.time_ms, "100.000"
    );
}
