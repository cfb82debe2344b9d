//! COVID-19 Twitter analysis (the paper's TwitterCOVID-19 use case): find
//! the k *least fearful* tweets from a large vector of fear scores, on a
//! single device and distributed across a simulated multi-GPU cluster.
//!
//! Run with: `cargo run --release --example covid_tweets [n_exp] [k]`

use drtopk::core::{distributed_dr_topk, ReloadSchedule};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let n = 1usize << n_exp;

    println!("generating fear scores for {n} tweets...");
    let scores = topk_datagen::twitter_fear_scores(n, 1337);

    // "k least fearful" = k smallest scores: flip the key.
    let flipped: Vec<u32> = scores.iter().map(|&s| u32::MAX - s).collect();
    let device = Device::new(DeviceSpec::v100s());
    let single = dr_topk(&device, &flipped, k, &DrTopKConfig::auto(n, k));
    let mut least_fearful: Vec<u32> = single.values.iter().map(|&v| u32::MAX - v).collect();
    least_fearful.sort_unstable();

    let mut expected = scores.clone();
    expected.sort_unstable();
    expected.truncate(k);
    assert_eq!(least_fearful, expected);

    println!(
        "\n{k} least fearful tweet scores: {:?}",
        &least_fearful[..10.min(k)]
    );
    println!("single-device modeled time: {:.3} ms", single.time_ms);

    // The same query distributed over 4 simulated V100s.
    let cluster = GpuCluster::homogeneous(4, DeviceSpec::v100s());
    let distributed = distributed_dr_topk(
        &cluster,
        &flipped,
        k,
        &DrTopKConfig::auto(n, k),
        ReloadSchedule::default(),
        None,
    );
    let mut dist_scores: Vec<u32> = distributed.values.iter().map(|&v| u32::MAX - v).collect();
    dist_scores.sort_unstable();
    assert_eq!(dist_scores, expected);

    println!("\n--- 4-GPU distributed run ---");
    println!(
        "per-device compute (ms): {:?}",
        distributed
            .per_device_compute_ms
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
    );
    println!("communication: {:.3} ms", distributed.communication_ms);
    println!(
        "final top-k on primary: {:.3} ms",
        distributed.final_topk_ms
    );
    println!(
        "total: {:.3} ms (vs {:.3} ms on one device)",
        distributed.total_ms, single.time_ms
    );
}
