//! The modeled cost of a kernel is what it records on its `WarpCtx`, not
//! how the host hands the kernel's output back to its caller. Every
//! counter and the `time_ms` bits of the launches below are pinned: the
//! first top-k with and without its last radix pass, the narrowing of a
//! shared first top-k in both directions, the concatenation with and
//! without filtering, and the bucket and bitonic baselines. A host-side
//! change must leave them bit-identical.

use drtopk::baselines::{reference_topk, reference_topk_min};
use drtopk::core::{
    build_delegate_vector, concatenate, dr_topk_planned, first_topk, ConstructionMethod,
    PlannedQuery, Shared, StageKind,
};
use drtopk::prelude::*;

fn device() -> Device {
    Device::new(DeviceSpec::v100s())
}

/// Every `KernelStats` field, in declaration order.
fn fields(s: KernelStats) -> [u64; 12] {
    [
        s.global_load_transactions,
        s.global_store_transactions,
        s.global_loaded_bytes,
        s.global_stored_bytes,
        s.shuffle_instructions,
        s.atomic_operations,
        s.atomic_serialized_ops,
        s.shared_ops,
        s.bank_conflicts,
        s.syncthreads,
        s.alu_ops,
        s.warps_launched,
    ]
}

fn check(case: &str, stats: KernelStats, time_ms: f64, want: [u64; 12], bits: u64) {
    assert_eq!(fields(stats), want, "{case}");
    assert_eq!(
        time_ms.to_bits(),
        bits,
        "{case}: {time_ms} ms = {:#x}",
        time_ms.to_bits()
    );
}

#[test]
fn first_topk_model_is_pinned() {
    let dev = device();
    // 2^18 keys at α = 5, β = 2: 16,384 delegates, two mark-pass warps
    let data = topk_datagen::uniform(1 << 18, 2021);
    let delegates = build_delegate_vector(
        &dev,
        &data,
        5,
        2,
        ConstructionMethod::Auto,
        Direction::Largest,
    );
    #[rustfmt::skip]
    let cases = [
        (false, [3560, 63, 331_680, 8000, 0, 581, 0, 0, 0, 0, 147_456, 10], 0x3f85_4cee_2479_9160_u64),
        (true, [3048, 63, 266_144, 8000, 0, 580, 0, 0, 0, 0, 114_688, 8], 0x3f81_0e06_4526_6d0e),
    ];
    for (skip, want, bits) in cases {
        let got = first_topk(&dev, &delegates, 1000, skip);
        check(&format!("skip={skip}"), got.stats, got.time_ms, want, bits);
    }
}

/// A first top-k shared at k = 20,000 and narrowed to k = 2,000 by
/// `dr_topk_planned` (three narrowing warps): the narrowing stage alone, then the whole query.
#[test]
fn narrowing_model_is_pinned() {
    let dev = device();
    let data = topk_datagen::uniform(1 << 18, 2022);
    #[rustfmt::skip]
    let cases = [
        (Direction::Largest, [1251, 126, 160_000, 16_000, 372, 0, 0, 83_072, 0, 0, 20_000, 3], 0x3f62_1f1d_a0df_e551_u64,
            [1674, 243, 201_944, 24_428, 372, 306, 0, 83_072, 0, 0, 38_432, 62], 0x3f8d_4204_bdfd_3aad_u64),
        (Direction::Smallest, [1251, 127, 160_000, 16_000, 372, 0, 0, 83_072, 0, 0, 20_000, 3], 0x3f62_1f1d_a0df_e551,
            [1702, 258, 202_468, 24_544, 372, 322, 0, 83_072, 0, 0, 38_553, 76], 0x3f8d_4388_c12c_3dbf),
    ];
    for (direction, narrow_want, narrow_bits, query_want, query_bits) in cases {
        let config = DrTopKConfig {
            direction,
            ..DrTopKConfig::default()
        };
        let unit = PlannedQuery::plan(data.len(), 20_000, &config);
        let delegates = build_delegate_vector(
            &dev,
            &data,
            unit.alpha,
            config.beta,
            config.construction,
            direction,
        );
        let first = first_topk(&dev, &delegates, 20_000, false);
        let planned = PlannedQuery::plan(data.len(), 2000, &unit.config);
        let got = dr_topk_planned(
            &dev,
            &data,
            Some(Shared::Selected(&delegates, &first)),
            &planned,
        );
        let expected = match direction {
            Direction::Largest => reference_topk(&data, 2000),
            Direction::Smallest => reference_topk_min(&data, 2000),
        };
        assert_eq!(got.values, expected, "{direction:?}");
        let narrow: Vec<_> = got
            .stages
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::FirstTopK)
            .collect();
        assert_eq!(narrow.len(), 1, "{direction:?}: one narrowing stage");
        check(
            &format!("narrow {direction:?}"),
            narrow[0].stats,
            got.breakdown.first_topk_ms,
            narrow_want,
            narrow_bits,
        );
        check(
            &format!("query {direction:?}"),
            got.stats,
            got.time_ms,
            query_want,
            query_bits,
        );
    }
}

#[test]
fn concatenate_model_is_pinned() {
    let dev = device();
    let data = topk_datagen::uniform(1 << 16, 2023);
    // every third of the 256 subranges of 256 keys, two partial delegates
    let ids: Vec<u32> = (0..256).step_by(3).collect();
    let partial = [u32::MAX, u32::MAX - 1];
    #[rustfmt::skip]
    let cases = [
        (false, [774, 688, 88_408, 88_064, 0, 86, 0, 0, 0, 0, 22_016, 86], 0x3f61_f459_c2ad_1655_u64),
        (true, [774, 209, 88_408, 21_744, 0, 86, 0, 0, 0, 0, 22_016, 86], 0x3f61_6257_3eaa_543d),
    ];
    for (filtering, want, bits) in cases {
        let got = concatenate(&dev, &data, 256, &ids, &partial, 3 << 30, filtering);
        assert_eq!(got.partial_delegates, 2);
        check(
            &format!("filtering={filtering}"),
            got.stats,
            got.time_ms,
            want,
            bits,
        );
    }
}

#[test]
fn bucket_model_is_pinned() {
    let dev = device();
    let uniform = topk_datagen::uniform(1 << 16, 2024);
    let skewed = topk_datagen::customized(1 << 16, 2024);
    #[rustfmt::skip]
    let cases = [
        (&uniform, 1000, [8209, 44, 1_050_404, 4916, 527, 2213, 0, 0, 0, 0, 525_423, 35], 0x3f8f_476a_2fdf_f882_u64),
        (&skewed, 100, [13_712, 2777, 1_753_968, 353_312, 496, 4685, 0, 0, 0, 0, 965_158, 56], 0x3f97_1400_aab7_a0ba),
    ];
    for (data, k, want, bits) in cases {
        let got = bucket_topk(&dev, data, k);
        assert_eq!(got.values, reference_topk(data, k));
        check(&format!("k={k}"), got.stats, got.time_ms, want, bits);
    }
}

#[test]
fn bitonic_model_is_pinned() {
    let dev = device();
    let data = topk_datagen::uniform(1 << 16, 2025);
    // k = 512 is past the full-occupancy k, so its merges pay the penalty
    #[rustfmt::skip]
    let cases = [
        (64, [4092, 2046, 523_776, 261_888, 0, 0, 0, 5_503_232, 0, 1023, 2_751_616, 1023], 0x3f97_2c31_fdf2_6bf4_u64),
        (512, [4064, 2032, 520_192, 260_096, 0, 0, 0, 19_619_840, 0, 127, 9_809_920, 127], 0x3f95_b769_2234_cd14),
    ];
    for (k, want, bits) in cases {
        let got = bitonic_topk(&dev, &data, k);
        assert_eq!(got.values, reference_topk(&data, k));
        check(&format!("k={k}"), got.stats, got.time_ms, want, bits);
    }
}
