//! Criterion micro-benchmarks: wall-clock cost of simulating Dr. Top-k and
//! the baselines at a fixed problem size. These measure the *simulator*
//! throughput (useful for tracking regressions in this repository); the
//! modeled GPU times reported by the figure benches are what reproduces the
//! paper.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use drtopk_core::{dr_topk, DrTopKConfig};
use gpu_sim::{Device, DeviceSpec};
use topk_baselines::{bitonic_topk, bucket_topk, radix_topk, RadixVariant};

fn bench_topk(c: &mut Criterion) {
    let n = 1 << 18;
    let k = 1024;
    let data = topk_datagen::uniform(n, 42);
    let device = Device::new(DeviceSpec::v100s());

    let mut group = c.benchmark_group("topk_n18_k1024");
    group.sample_size(10);
    group.bench_function("dr_topk_default", |b| {
        b.iter_batched(
            || (),
            |_| dr_topk(&device, &data, k, &DrTopKConfig::default()),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("baseline_radix", |b| {
        b.iter(|| radix_topk(&device, &data, k, RadixVariant::OutOfPlace))
    });
    group.bench_function("baseline_bucket", |b| {
        b.iter(|| bucket_topk(&device, &data, k))
    });
    group.bench_function("baseline_bitonic", |b| {
        b.iter(|| bitonic_topk(&device, &data, k))
    });
    group.finish();

    let mut group = c.benchmark_group("delegate_construction_n18");
    group.sample_size(10);
    group.bench_function("warp_shuffle_a8_b2", |b| {
        b.iter(|| {
            drtopk_core::build_delegate_vector(
                &device,
                &data,
                8,
                2,
                drtopk_core::ConstructionMethod::WarpShuffle,
                drtopk_core::Direction::Largest,
            )
        })
    });
    group.bench_function("coalesced_shared_a4_b2", |b| {
        b.iter(|| {
            drtopk_core::build_delegate_vector(
                &device,
                &data,
                4,
                2,
                drtopk_core::ConstructionMethod::CoalescedShared,
                drtopk_core::Direction::Largest,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
