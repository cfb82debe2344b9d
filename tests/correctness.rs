//! Cross-crate integration tests: every top-k implementation in the
//! workspace must return exactly the same multiset of values as the CPU
//! reference, across distributions, k values and configurations.

mod common;

use common::device;
use drtopk::core::{dr_topk, DrTopKConfig, InnerAlgorithm};
use drtopk::prelude::*;
use topk_baselines::reference_topk;
use topk_datagen::Distribution;

#[test]
fn every_algorithm_agrees_on_every_distribution() {
    let device = device();
    let n = 1 << 14;
    for dist in Distribution::SYNTHETIC
        .iter()
        .chain(Distribution::REAL_WORLD.iter())
    {
        let data = topk_datagen::generate(*dist, n, 11);
        for &k in &[1usize, 7, 128, 2048] {
            let expected = reference_topk(&data, k);
            for algo in InnerAlgorithm::ALL {
                assert_eq!(
                    algo.run(&device, &data, k).values,
                    expected,
                    "{algo} on {dist} k={k}"
                );
            }
            assert_eq!(
                sort_and_choose_topk(&device, &data, k).values,
                expected,
                "sort-and-choose on {dist} k={k}"
            );
            let dr = dr_topk(&device, &data, k, &DrTopKConfig::default());
            assert_eq!(dr.values, expected, "Dr. Top-k on {dist} k={k}");
        }
    }
}

#[test]
fn drtopk_configuration_matrix_is_exact() {
    let device = device();
    let data = topk_datagen::customized(1 << 15, 3);
    let k = 777;
    let expected = reference_topk(&data, k);
    for beta in [1usize, 2, 3] {
        for filtering in [false, true] {
            for alpha in [None, Some(5u32), Some(9)] {
                for inner in InnerAlgorithm::ALL {
                    let config = DrTopKConfig {
                        alpha,
                        beta,
                        filtering,
                        inner,
                        ..DrTopKConfig::default()
                    };
                    let got = dr_topk(&device, &data, k, &config);
                    assert_eq!(
                        got.values, expected,
                        "beta={beta} filtering={filtering} alpha={alpha:?} inner={inner}"
                    );
                }
            }
        }
    }
}

#[test]
fn facade_prelude_quickstart_flow_works() {
    // mirrors the README quickstart
    let data = topk_datagen::uniform(1 << 16, 0x5eed);
    let device = Device::new(DeviceSpec::v100s());
    let config = DrTopKConfig::auto(data.len(), 1024);
    let result = dr_topk(&device, &data, 1024, &config);
    assert_eq!(result.values, reference_topk(&data, 1024));
    assert!(result.time_ms > 0.0);
    assert!(result.workload.workload_fraction() < 0.5);
}

#[test]
fn adversarial_inputs() {
    let device = device();
    // all-equal, already sorted ascending/descending, single element,
    // extreme values, heavy ties around the threshold
    let cases: Vec<Vec<u32>> = vec![
        vec![42; 5000],
        (0..5000u32).collect(),
        (0..5000u32).rev().collect(),
        vec![7],
        vec![u32::MAX; 100],
        vec![0; 100],
        {
            let mut v = vec![1000u32; 3000];
            v.extend(vec![2000u32; 64]);
            v
        },
    ];
    for data in cases {
        for &k in &[1usize, 2, 63, 64, 65] {
            let k = k.min(data.len());
            let expected = reference_topk(&data, k);
            let got = dr_topk(&device, &data, k, &DrTopKConfig::default());
            assert_eq!(got.values, expected, "|V|={} k={k}", data.len());
            let got = bitonic_topk(&device, &data, k);
            assert_eq!(got.values, expected);
        }
    }
}

#[test]
fn results_report_consistent_metadata() {
    let device = device();
    let data = topk_datagen::uniform(1 << 15, 5);
    let k = 256;
    let r = dr_topk(&device, &data, k, &DrTopKConfig::default());
    assert_eq!(r.values.len(), k);
    assert_eq!(r.kth_value, r.values[k - 1]);
    assert!(
        r.values.windows(2).all(|w| w[0] >= w[1]),
        "descending order"
    );
    assert_eq!(r.workload.input_len, data.len());
    assert!(r.workload.delegate_vector_len < data.len());
    assert!((r.breakdown.total_ms() - r.time_ms).abs() < 1e-9);
    assert!(r.stats.total_transactions() > 0);
}
