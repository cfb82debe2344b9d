//! Serving a batch of heterogeneous top-k queries with the engine: a hot
//! shared corpus takes Zipf-distributed `k` traffic (mixed largest/smallest
//! directions) on a 4-device cluster, three times. The second, warm batch
//! shows the tuning-plan and delegate caches at work; the third re-asks the
//! warm corpus for a quarter of every k, so Rule 4 picks coarser subranges
//! and the cached passes are coarsened instead of rebuilt.
//!
//! Run with: `cargo run --release --example serve_batch [n_exp] [queries]`
//!
//! The example self-verifies every result against the CPU reference and
//! exits non-zero on any mismatch, or when the third round coarsens no
//! cached pass.

use drtopk::core::InnerAlgorithm;
use drtopk::engine::{Direction, Query, QueryBatch, TopKEngine};
use drtopk::prelude::*;
use drtopk::sim::GpuCluster;
use topk_datagen::{multi_query_workload, CorpusMix};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_exp: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(18);
    let num_queries: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let n = 1usize << n_exp;

    let corpus = topk_datagen::uniform(n, 0x5eed);
    let specs = multi_query_workload(num_queries, CorpusMix::Shared, 1 << 10, 1.0, 0.25, 0.0, 7);
    let engine = TopKEngine::new(GpuCluster::homogeneous(4, DeviceSpec::v100s()));

    println!("|V| = 2^{n_exp}, {num_queries} queries (Zipf k, 25% smallest-direction), 4 devices");
    for (round, k_divisor) in [("cold", 1), ("warm", 1), ("shifted", 4)] {
        let k_of = |spec: &topk_datagen::QuerySpec| spec.k.div_ceil(k_divisor);
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &corpus);
        for spec in &specs {
            batch.push(Query {
                corpus: c,
                k: k_of(spec),
                direction: if spec.largest {
                    Direction::Largest
                } else {
                    Direction::Smallest
                },
                inner: InnerAlgorithm::FlagRadix,
                mode: drtopk::core::Mode::Exact,
                path: drtopk::core::PathHint::Auto,
            });
        }
        let out = engine.run_batch(&batch).expect("batch must execute");

        for (i, spec) in specs.iter().enumerate() {
            let expect = if spec.largest {
                topk_baselines::reference_topk(&corpus, k_of(spec))
            } else {
                topk_baselines::reference_topk_min(&corpus, k_of(spec))
            };
            assert_eq!(out.results[i].values, expect, "query {i} ({spec:?})");
        }

        let r = &out.report;
        println!(
            "\n[{round}] all {} results verified against the CPU reference",
            r.num_queries
        );
        println!(
            "  units: {} ({} fused, {} sharded queries), occupancy {:.1} queries/unit",
            r.num_units, r.fused_units, r.sharded_queries, r.batch_occupancy
        );
        println!(
            "  delegate passes: {} run, {} fused/cached away",
            r.delegate_passes_run, r.delegate_passes_saved
        );
        println!(
            "  caches: tuning-plan {:.0}% hit, delegate {:.0}% hit ({} coarsened)",
            r.plan_cache.hit_rate() * 100.0,
            r.delegate_cache.hit_rate() * 100.0,
            r.delegate_cache.coarsened
        );
        println!(
            "  phases (ms): delegate {:.3}, first {:.3}, concat {:.3}, second {:.3}",
            r.phase_ms.delegate_ms,
            r.phase_ms.first_topk_ms,
            r.phase_ms.concat_ms,
            r.phase_ms.second_topk_ms
        );
        println!(
            "  makespan {:.3} ms → {:.0} queries/s (modeled)",
            r.total_ms, r.throughput_qps
        );
        if round == "shifted" {
            assert!(
                r.delegate_cache.coarsened > 0,
                "the shifted round must coarsen a cached pass"
            );
        }
    }
}
