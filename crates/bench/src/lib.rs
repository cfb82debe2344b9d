//! # drtopk-bench — figure/table regeneration harness
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! bench target under `benches/` (run with `cargo bench -p drtopk-bench` or
//! `cargo bench --workspace`); each target prints the same rows/series the
//! paper reports and writes a CSV copy under `bench_results/`.
//!
//! The paper's experiments use `|V| = 2^30 … 2^33` on V100S GPUs; simulating
//! those sizes on a CPU is possible but slow, so the harness defaults to a
//! scaled-down `|V|` (2^22) that preserves every trend. Environment
//! variables adjust the scale:
//!
//! | variable | effect |
//! |---|---|
//! | `DRTOPK_V_EXP` | log2 of the default input size (default 22) |
//! | `DRTOPK_KMAX_EXP` | log2 of the largest k in sweeps (default `V_EXP − 6`) |
//! | `DRTOPK_FULL=1` | larger run: `|V| = 2^26` (still CPU-simulated; expect minutes per figure) |
//! | `DRTOPK_SEED` | dataset seed (default 42) |

use std::io::Write as _;
use std::path::PathBuf;

use drtopk_core::{dr_topk, DrTopKConfig, DrTopKResult};
use gpu_sim::{Device, DeviceSpec};
use topk_baselines::{BaselineAlgorithm, TopKResult};
use topk_datagen::Distribution;

/// Default dataset seed (override with `DRTOPK_SEED`).
pub fn seed() -> u64 {
    std::env::var("DRTOPK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// log2 of the default input-vector size.
pub fn v_exp() -> u32 {
    if std::env::var("DRTOPK_FULL").is_ok_and(|v| v == "1") {
        return 26;
    }
    std::env::var("DRTOPK_V_EXP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(22)
}

/// The default input-vector size `|V|`.
pub fn default_n() -> usize {
    1usize << v_exp()
}

/// log2 of the largest k used by k-sweeps.
pub fn kmax_exp() -> u32 {
    std::env::var("DRTOPK_KMAX_EXP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| v_exp().saturating_sub(6).max(4))
}

/// The k sweep used by most figures: powers of two `2^0 .. 2^kmax`, stepping
/// by `step` exponents.
pub fn k_sweep(step: u32) -> Vec<usize> {
    (0..=kmax_exp())
        .step_by(step.max(1) as usize)
        .map(|e| 1usize << e)
        .collect()
}

/// A fresh V100S device simulated with all host cores.
pub fn device() -> Device {
    Device::new(DeviceSpec::v100s())
}

/// Where CSV outputs are written: `DRTOPK_RESULTS_DIR` when set, else
/// `<workspace>/bench_results`. That default is fixed at compile time from
/// `CARGO_MANIFEST_DIR`, so a bench built from a copied tree (its warm
/// `target/` included) writes into the original checkout unless
/// `DRTOPK_RESULTS_DIR` is set.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DRTOPK_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results"));
    std::fs::create_dir_all(&dir).expect("cannot create bench_results directory");
    dir
}

/// Print a table to stdout and write it as `<name>.csv` under
/// [`results_dir`].
pub fn emit(name: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {name} ==");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
    let path = results_dir().join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path).expect("cannot create CSV file");
    writeln!(file, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(file, "{}", row.join(",")).unwrap();
    }
    println!("[written to {}]", path.display());
}

/// Format a float with 4 significant decimals for CSV output.
pub fn fmt(x: f64) -> String {
    format!("{x:.4}")
}

/// Run one Dr. Top-k configuration and sanity-check the result against the
/// CPU reference (the harness never reports numbers from a wrong answer).
pub fn run_drtopk_checked(
    device: &Device,
    data: &[u32],
    k: usize,
    config: &DrTopKConfig,
) -> DrTopKResult {
    let result = dr_topk(device, data, k, config);
    debug_assert_eq!(
        result.values,
        topk_baselines::reference_topk(data, k),
        "Dr. Top-k produced a wrong answer"
    );
    result
}

/// Run one baseline and sanity-check the result.
pub fn run_baseline_checked(
    device: &Device,
    algo: BaselineAlgorithm,
    data: &[u32],
    k: usize,
) -> TopKResult {
    let result = algo.run(device, data, k);
    debug_assert_eq!(
        result.values,
        topk_baselines::reference_topk(data, k),
        "baseline {algo} produced a wrong answer"
    );
    result
}

/// The per-phase breakdown row used by Figures 6, 7, 10 and 15.
pub(crate) fn breakdown_row(k: usize, r: &DrTopKResult) -> Vec<String> {
    vec![
        k.to_string(),
        fmt(r.breakdown.delegate_ms),
        fmt(r.breakdown.first_topk_ms),
        fmt(r.breakdown.concat_ms),
        fmt(r.breakdown.second_topk_ms),
        fmt(r.time_ms),
        r.workload.delegate_vector_len.to_string(),
        r.workload.concatenated_len.to_string(),
    ]
}

/// Header matching [`breakdown_row`].
pub(crate) const BREAKDOWN_HEADER: [&str; 8] = [
    "k",
    "delegate_ms",
    "first_topk_ms",
    "concat_ms",
    "second_topk_ms",
    "total_ms",
    "delegate_len",
    "concat_len",
];

/// Generate the dataset for a distribution at the given size.
pub fn dataset(dist: Distribution, n: usize) -> Vec<u32> {
    topk_datagen::generate(dist, n, seed())
}

/// Run a full breakdown sweep (one row per k) for a fixed configuration —
/// the shared engine behind Figures 6, 7, 10 and 15.
pub fn breakdown_sweep(
    name: &str,
    config_for_k: impl Fn(usize) -> DrTopKConfig,
    dist: Distribution,
) {
    let n = default_n();
    let data = dataset(dist, n);
    let device = device();
    let mut rows = Vec::new();
    for k in k_sweep(2) {
        let config = config_for_k(k);
        let r = run_drtopk_checked(&device, &data, k, &config);
        rows.push(breakdown_row(k, &r));
    }
    emit(name, &BREAKDOWN_HEADER, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_are_sane() {
        assert!(v_exp() >= 16);
        assert!(default_n() >= 1 << 16);
        assert!(kmax_exp() >= 4);
        let ks = k_sweep(2);
        assert_eq!(ks[0], 1);
        assert!(ks.len() >= 3);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn emit_writes_csv() {
        let dir = results_dir();
        emit(
            "unit_test_emit",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let path = dir.join("unit_test_emit.csv");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checked_runners_agree_with_reference() {
        let data = topk_datagen::uniform(1 << 12, 1);
        let dev = device();
        let r = run_drtopk_checked(&dev, &data, 32, &DrTopKConfig::default());
        assert_eq!(r.values.len(), 32);
        let b = run_baseline_checked(&dev, BaselineAlgorithm::Radix, &data, 32);
        assert_eq!(b.values, r.values);
    }
}
