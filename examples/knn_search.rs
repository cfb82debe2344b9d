//! k-nearest-neighbour search (the paper's ANN_SIFT1B use case): compute the
//! distances between a query descriptor and a database of 128-dimensional
//! descriptors, then use Dr. Top-k to find the k *closest* vectors.
//!
//! Distances stay native `f32` end to end: `dr_topk` with
//! `direction: Direction::Smallest` answers top-k-smallest directly
//! through the generic-key pipeline, so no
//! caller-side bit flipping (the old `u32::MAX − d` hack) is needed. NaN
//! distances, if a computation ever produced one, would rank *after* every
//! real distance (see the NaN policy in `topk_baselines::key`).
//!
//! Run with: `cargo run --release --example knn_search [n_exp] [k]`

use drtopk::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(18);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let n = 1usize << n_exp;

    println!("computing L2 distances from the query to {n} SIFT-like descriptors...");
    let distances = topk_datagen::ann_sift_distances_f32(n, 7);

    let device = Device::new(DeviceSpec::v100s());
    let result = dr_topk(
        &device,
        &distances,
        k,
        &DrTopKConfig {
            direction: Direction::Smallest,
            ..DrTopKConfig::auto(n, k)
        },
    );

    // The smallest direction returns the k smallest distances, closest first.
    let nearest = &result.values;

    // verify against the CPU reference
    let mut expected = distances.clone();
    expected.sort_unstable_by(f32::total_cmp);
    expected.truncate(k);
    assert_eq!(nearest, &expected);

    println!("\n{k} nearest neighbours (L2 distances, closest first):");
    for (rank, d) in nearest.iter().take(10).enumerate() {
        println!("  #{:<3} distance = {d:.3}", rank + 1);
    }
    if k > 10 {
        println!("  ... ({} more)", k - 10);
    }
    println!(
        "\nmodeled GPU time: {:.3} ms (α = {})",
        result.time_ms, result.alpha
    );
    println!(
        "workload touched beyond the initial scan: {:.3}% of |V|",
        result.workload.workload_fraction() * 100.0
    );
}
