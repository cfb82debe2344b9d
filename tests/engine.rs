//! Integration tests of the batched multi-query engine: fused batches must
//! be bit-identical to independent `dr_topk` calls (either direction) for
//! every key type, repeat traffic must hit the plan cache, and fusion must
//! be observably cheaper than per-query loops in global-memory
//! transactions.

mod common;

use common::{bits, engine};
use drtopk::core::{dr_topk, DrTopKConfig, PathHint};
use drtopk::engine::{Direction, EngineConfig, Query, QueryBatch, TopKEngine};
use drtopk::prelude::*;
use proptest::prelude::*;
use topk_baselines::{reference_topk, reference_topk_min};

/// Run `specs` (k, largest?) through one fused batch and through N
/// independent single-query calls, comparing bit patterns (so float NaNs
/// compare identically).
fn assert_batch_matches_independent<K: TopKKey>(data: &[K], specs: &[(usize, bool)]) {
    assert_batch_on_path_matches_independent(data, specs, PathHint::Auto);
}

/// [`assert_batch_matches_independent`] with the batch's queries pinned to
/// `path` (the independent calls keep the default, so every path must
/// agree with it).
fn assert_batch_on_path_matches_independent<K: TopKKey>(
    data: &[K],
    specs: &[(usize, bool)],
    path: PathHint,
) {
    let eng = engine(2);
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(1, data);
    for &(k, largest) in specs {
        batch.push(Query {
            corpus: c,
            k,
            direction: if largest {
                Direction::Largest
            } else {
                Direction::Smallest
            },
            inner: drtopk::core::InnerAlgorithm::FlagRadix,
            mode: drtopk::core::Mode::Exact,
            path,
        });
    }
    let out = eng.run_batch(&batch).expect("batch must execute");
    assert_eq!(out.results.len(), specs.len());

    let device = Device::new(DeviceSpec::v100s());
    for (i, &(k, largest)) in specs.iter().enumerate() {
        let direction = if largest {
            Direction::Largest
        } else {
            Direction::Smallest
        };
        let config = DrTopKConfig {
            direction,
            ..DrTopKConfig::default()
        };
        let independent = dr_topk(&device, data, k, &config).values;
        let got: Vec<_> = out.results[i].values.iter().map(|v| v.to_bits()).collect();
        let want: Vec<_> = independent.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "query {i} (k={k}, largest={largest})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fused shared-corpus batch is bit-identical to N independent calls
    /// for every key type — with mixed directions, duplicate queries and
    /// degenerate k = 0 / k > |V| members forced into every batch — on the
    /// generated corpus and on a tie-heavy one.
    #[test]
    fn fused_batch_equals_independent_calls_for_all_key_types(
        raw in proptest::collection::vec(any::<u32>(), 64..3000),
        ks in proptest::collection::vec(0usize..4000, 2..7),
        dirs in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let mut specs: Vec<(usize, bool)> = ks
            .iter()
            .zip(dirs.iter().cycle())
            .map(|(&k, &largest)| (k, largest))
            .collect();
        // duplicates and degenerate members, always present
        specs.push(specs[0]);
        specs.push((0, true));
        specs.push((raw.len() + 17, false)); // k > |V|, clamped

        assert_all_key_types(&raw, &specs, PathHint::Auto);

        // A tie-heavy corpus of at most 8 distinct values, so member
        // thresholds land inside tie runs. It is pinned to the delegate
        // path, where a fused unit's exact members narrow one shared first
        // top-k. Small copies of every k stay below the delegate count, and
        // the largest of them, the unit's k_max, runs in both directions.
        let ties: Vec<u32> = raw.iter().map(|&x| x % 8).collect();
        let small: Vec<(usize, bool)> =
            specs.iter().map(|&(k, largest)| (k % 32 + 1, largest)).collect();
        let k_top = small.iter().map(|&(k, _)| k).max().unwrap_or(1);
        let mut tie_specs = specs.clone();
        tie_specs.extend(small);
        tie_specs.extend([(k_top, true), (k_top, false)]);
        assert_all_key_types(&ties, &tie_specs, PathHint::Delegate);
    }
}

/// [`assert_batch_on_path_matches_independent`] over `raw` mapped through
/// each of the six key types.
fn assert_all_key_types(raw: &[u32], specs: &[(usize, bool)], path: PathHint) {
    assert_batch_on_path_matches_independent::<u32>(raw, specs, path);
    let as_u64: Vec<u64> = raw.iter().map(|&x| (x as u64) << 13 | 0x5).collect();
    assert_batch_on_path_matches_independent::<u64>(&as_u64, specs, path);
    let as_i32: Vec<i32> = raw.iter().map(|&x| x as i32).collect();
    assert_batch_on_path_matches_independent::<i32>(&as_i32, specs, path);
    let as_i64: Vec<i64> = raw.iter().map(|&x| x as i64 - (1 << 31)).collect();
    assert_batch_on_path_matches_independent::<i64>(&as_i64, specs, path);
    // raw bit reinterpretation: exercises NaN/∞/subnormal float keys
    let as_f32: Vec<f32> = raw.iter().map(|&x| f32::from_bits(x)).collect();
    assert_batch_on_path_matches_independent::<f32>(&as_f32, specs, path);
    let as_f64: Vec<f64> = raw
        .iter()
        .map(|&x| f64::from_bits(((x as u64) << 32) | x as u64))
        .collect();
    assert_batch_on_path_matches_independent::<f64>(&as_f64, specs, path);
}

#[test]
fn mixed_direction_batch_on_one_corpus_is_exact() {
    // Deterministic spot check of the property above, with both directions
    // interleaved on the same corpus in one batch.
    let data = topk_datagen::normal(1 << 14, 3);
    let specs = [
        (1usize, true),
        (500, false),
        (500, true),
        (1, false),
        (0, false),
        (1 << 15, true),
        (500, true), // duplicate
    ];
    assert_batch_matches_independent::<u32>(&data, &specs);
}

#[test]
fn fused_batch_moves_fewer_transactions_than_independent_runs() {
    // Acceptance criterion: a 32-query shared-corpus batch must show fewer
    // total global-memory transactions than 32 independent dr_topk runs,
    // because 31 of the 32 |V|-scan delegate passes are fused away.
    let n = 1 << 16;
    let data = topk_datagen::uniform(n, 42);
    let ks = topk_datagen::zipf_ks(32, 1 << 12, 1.0, 7);

    let eng = engine(1);
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(1, &data);
    for &k in &ks {
        batch.push_topk(c, k);
    }
    let out = eng.run_batch(&batch).unwrap();

    let device = Device::new(DeviceSpec::v100s());
    let config = DrTopKConfig::default();
    let mut independent = KernelStats::default();
    for &k in &ks {
        let r = dr_topk(&device, &data, k, &config);
        assert_eq!(
            r.values,
            out.results[ks.iter().position(|&x| x == k).unwrap()].values
        );
        independent += r.stats;
    }

    let fused = out.report.stats;
    assert!(
        fused.total_transactions() < independent.total_transactions(),
        "fused batch must move fewer transactions: {} vs {}",
        fused.total_transactions(),
        independent.total_transactions()
    );
    // the saving is structural, not marginal: at least 15 of the 32
    // delegate passes' worth of |V| reads are gone (the fused group's α is
    // sized for the batch's k_max, so each member pays slightly more in the
    // delegate-sized phases than a per-query-tuned independent run — the
    // 31 fused-away |V| scans dwarf that)
    let one_pass_loads = (n * 4) as u64 / 128;
    assert!(
        independent.global_load_transactions - fused.global_load_transactions > 15 * one_pass_loads,
        "expected ≥15 fused-away delegate passes, saved only {}",
        independent.global_load_transactions - fused.global_load_transactions
    );
    assert_eq!(out.report.delegate_passes_run, 1);
    assert_eq!(out.report.fused_units, 1);
    assert!((out.report.batch_occupancy - 32.0).abs() < 1e-12);
}

#[test]
fn repeated_traffic_hits_the_plan_cache_and_skips_retuning() {
    // Acceptance criterion: the plan cache reports a > 0 hit rate on
    // repeated traffic, and a repeated (n, k) shape skips re-tuning.
    let data = topk_datagen::uniform(1 << 15, 9);
    let eng = engine(2);
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(5, &data);
    batch.push_topk(c, 128);
    batch.push_topk_min(c, 128);

    let cold = eng.run_batch(&batch).unwrap();
    assert_eq!(cold.report.plan_cache.hits, 0);
    assert_eq!(cold.report.plan_cache.misses, 2); // one α per direction
    assert_eq!(cold.report.delegate_passes_run, 2);

    let warm = eng.run_batch(&batch).unwrap();
    assert!(warm.report.plan_cache.hit_rate() > 0.0);
    assert_eq!(warm.report.plan_cache.hits, 2);
    assert_eq!(warm.report.plan_cache.misses, 0, "no re-tuning on repeat");
    // the delegate cache also removes both construction passes
    assert_eq!(warm.report.delegate_passes_run, 0);
    assert!(warm.report.delegate_cache.hit_rate() > 0.0);
    assert_eq!(warm.results[0].values, cold.results[0].values);
    assert_eq!(warm.results[1].values, cold.results[1].values);
    // a different shape on the same corpus re-tunes exactly once
    let mut grown = QueryBatch::new();
    let c = grown.add_corpus(5, &data);
    grown.push_topk(c, 4096);
    let third = eng.run_batch(&grown).unwrap();
    assert_eq!(third.report.plan_cache.misses, 1);
}

#[test]
fn generated_workloads_run_end_to_end_on_a_cluster() {
    // The datagen workload generators drive the engine directly: Zipf ks,
    // clustered corpora, a quarter of the traffic smallest-direction.
    use topk_datagen::{multi_query_workload, CorpusMix};
    let corpora: Vec<Vec<u32>> = (0..4u64)
        .map(|i| topk_datagen::uniform(1 << 13, 50 + i))
        .collect();
    let specs = multi_query_workload(
        48,
        CorpusMix::Clustered { corpora: 4 },
        512,
        1.0,
        0.25,
        0.0,
        11,
    );

    let eng = engine(4);
    let mut batch = QueryBatch::new();
    let ids: Vec<usize> = corpora
        .iter()
        .enumerate()
        .map(|(i, d)| batch.add_corpus(i as u64, d))
        .collect();
    for spec in &specs {
        batch.push(Query {
            corpus: ids[spec.corpus],
            k: spec.k,
            direction: if spec.largest {
                Direction::Largest
            } else {
                Direction::Smallest
            },
            inner: drtopk::core::InnerAlgorithm::FlagRadix,
            mode: drtopk::core::Mode::Exact,
            path: PathHint::Auto,
        });
    }
    let out = eng.run_batch(&batch).unwrap();
    assert_eq!(out.results.len(), specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let expect = if spec.largest {
            topk_baselines::reference_topk(&corpora[spec.corpus], spec.k)
        } else {
            topk_baselines::reference_topk_min(&corpora[spec.corpus], spec.k)
        };
        assert_eq!(out.results[i].values, expect, "query {i}: {spec:?}");
    }
    // 4 corpora × ≤2 directions → at most 8 units for 48 queries
    assert!(out.report.num_units <= 8);
    assert!(out.report.batch_occupancy >= 6.0);
    assert!(out.report.throughput_qps > 0.0);
}

#[test]
fn mixed_exact_and_approx_traffic_fuses_separately_and_meets_targets() {
    use drtopk::core::measured_recall;
    use topk_baselines::{reference_topk, reference_topk_min};
    let eng = engine(2);
    let data = topk_datagen::uniform(1 << 16, 77);
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(9, &data);
    batch.push_topk(c, 64); // exact
    batch.push_topk(c, 400); // exact — fuses with the line above
    batch.push_topk_approx(c, 64, 0.95); // approx @0.95
    batch.push_topk_approx(c, 400, 0.95); // approx @0.95 — fuses with ^
    batch.push_topk_approx(c, 128, 0.90); // approx @0.90 — its own unit
    batch.push_topk_min_approx(c, 32, 0.95); // smallest-direction approx

    let out = eng.run_batch(&batch).unwrap();
    assert_eq!(out.report.num_queries, 6);
    assert_eq!(out.report.approx_queries, 4);
    // exact unit + approx@.95 unit + approx@.90 unit + smallest approx unit
    assert_eq!(out.report.fused_units, 4);

    // exact members stay exact
    assert_eq!(out.results[0].values, reference_topk(&data, 64));
    assert_eq!(out.results[1].values, reference_topk(&data, 400));
    assert_eq!(out.results[0].predicted_recall, 1.0);

    // approximate members meet their targets (and report honest predictions)
    for (idx, k, target) in [(2usize, 64usize, 0.95f64), (3, 400, 0.95), (4, 128, 0.90)] {
        let r = &out.results[idx];
        assert_eq!(r.values.len(), k, "query {idx}");
        assert!(r.predicted_recall >= target, "query {idx}");
        let recall = measured_recall(&r.values, &reference_topk(&data, k));
        assert!(recall >= target, "query {idx}: measured {recall}");
    }
    let min_r = &out.results[5];
    assert_eq!(min_r.values.len(), 32);
    assert!(min_r.predicted_recall >= 0.95);
    let recall = measured_recall(&min_r.values, &reference_topk_min(&data, 32));
    assert!(recall >= 0.95, "smallest-direction approx recall {recall}");

    // same-target approx queries shared one candidate pass
    assert!(out.report.delegate_passes_saved >= 1);

    // warm repeat traffic serves the approximate candidates from the
    // delegate cache — the corpus is never re-read at full length
    let warm = eng.run_batch(&batch).unwrap();
    assert_eq!(warm.report.delegate_passes_run, 0);
    assert!(warm.report.delegate_cache.hits >= 4);
    assert!(
        warm.report.stats.global_loaded_bytes < out.report.stats.global_loaded_bytes / 4,
        "warm {} vs cold {}",
        warm.report.stats.global_loaded_bytes,
        out.report.stats.global_loaded_bytes
    );
    for (w, c) in warm.results.iter().zip(&out.results) {
        assert_eq!(w.values, c.values, "warm results must be identical");
    }
}

#[test]
fn engine_delegate_cache_capacity_zero_disables_caching() {
    let data = topk_datagen::uniform(1 << 13, 1);
    let eng = TopKEngine::with_config(
        drtopk::sim::GpuCluster::homogeneous(1, DeviceSpec::v100s()),
        EngineConfig {
            delegate_cache_capacity: 0,
            ..EngineConfig::default()
        },
    );
    let mut batch = QueryBatch::new();
    let c = batch.add_corpus(1, &data);
    batch.push_topk(c, 64);
    eng.run_batch(&batch).unwrap();
    let again = eng.run_batch(&batch).unwrap();
    assert_eq!(again.report.delegate_cache.hits, 0);
    assert_eq!(again.report.delegate_passes_run, 1);
    // every built pass is turned away, and nothing is ever evicted
    assert_eq!(again.report.delegate_cache.rejected, 1);
    assert_eq!(again.report.delegate_cache.evicted, 0);
    // tuning plans still memoize — they are shape-keyed, not data-keyed
    assert_eq!(again.report.plan_cache.hits, 1);
}

/// A cyclic scan over twice as many corpora as the delegate cache holds:
/// batches of 8 single-corpus queries walk 64 corpora in order, against
/// the default 32 entries. An LRU evicts every corpus just before it comes
/// back and hits nothing; admission keeps the 32 corpora it admitted
/// first, so every lap after the first hits half its lookups.
#[test]
fn a_cyclic_scan_larger_than_the_delegate_cache_still_hits() {
    let corpora: Vec<Vec<u32>> = (0..64u64)
        .map(|i| topk_datagen::uniform(1 << 12, 500 + i))
        .collect();
    let eng = engine(2);
    assert_eq!(eng.config().delegate_cache_capacity, 32);
    let reports: Vec<_> = (0..3 * 8)
        .map(|b| {
            let mut batch = QueryBatch::new();
            for (c, data) in corpora.iter().enumerate().skip(8 * (b % 8)).take(8) {
                let id = batch.add_corpus(c as u64, data);
                batch.push_topk(id, 16);
            }
            eng.run_batch(&batch).unwrap().report.delegate_cache
        })
        .collect();
    let (first_lap, later) = reports.split_at(8);
    assert!(first_lap.iter().all(|r| r.hits == 0));
    let rejected: u64 = first_lap.iter().map(|r| r.rejected).sum();
    assert_eq!(
        rejected, 32,
        "the second half of the first lap is turned away"
    );
    let hits: u64 = later.iter().map(|r| r.hits).sum();
    let lookups: u64 = later.iter().map(|r| r.hits + r.misses).sum();
    let hit_rate = hits as f64 / lookups as f64;
    assert!(hit_rate >= 0.4, "hit rate {hit_rate} after the first lap");
    assert!(later.iter().all(|r| r.evicted == 0));
}

/// Admission is decided on the calling thread in plan order, so two fresh
/// engines given the same stream make the same decisions: a few hot
/// corpora at shifting k's (finer passes replace coarser ones), plus a
/// scan of one-shot corpora (rejected, or evicting a colder entry) through
/// an 8-entry cache on 2 devices, give equal cache reports batch by batch
/// and byte-identical deterministic traces.
#[test]
fn delegate_cache_admission_is_deterministic() {
    use std::sync::Arc;
    let corpora: Vec<Vec<u32>> = (0..36u64)
        .map(|i| topk_datagen::uniform(1 << 12, 700 + i))
        .collect();
    let run = || {
        let eng = TopKEngine::with_config(
            drtopk::sim::GpuCluster::homogeneous(2, DeviceSpec::v100s()),
            EngineConfig {
                delegate_cache_capacity: 8,
                ..EngineConfig::default()
            },
        );
        let recorder = Arc::new(TraceRecorder::deterministic());
        eng.attach_recorder(recorder.clone());
        let reports: Vec<_> = (0..32usize)
            .map(|b| {
                let mut batch = QueryBatch::new();
                for (hot, data) in corpora.iter().enumerate().take(4) {
                    let id = batch.add_corpus(hot as u64, data);
                    batch.push_topk(id, 1 + (b * 37 + hot * 11) % 200);
                    batch.push_topk_min(id, 1 + (b * 13 + hot) % 50);
                }
                for scan in [4 + b % 32, 4 + (b + 16) % 32] {
                    let id = batch.add_corpus(scan as u64, &corpora[scan]);
                    batch.push_topk(id, 32);
                }
                eng.run_batch(&batch).unwrap().report.delegate_cache
            })
            .collect();
        (reports, recorder.chrome_trace_json())
    };
    let (reports, trace) = run();
    assert!(reports.iter().any(|r| r.evicted > 0));
    assert!(reports.iter().any(|r| r.rejected > 0));
    assert!(reports.iter().any(|r| r.coarsened > 0));
    let (again, again_trace) = run();
    assert_eq!(reports, again);
    assert!(trace == again_trace, "deterministic traces differ");
}

/// Delegate-cache outcomes must not depend on which pool worker reaches the
/// shared cache first: the same 40-batch clustered stream (exact and
/// approximate traffic in both directions, 2 devices) on two fresh engines
/// reports equal cache counts and delegate passes, and bit-equal totals.
#[test]
fn delegate_cache_outcomes_do_not_depend_on_thread_timing() {
    use topk_datagen::{multi_query_workload, CorpusMix};
    let corpora: Vec<Vec<u32>> = (0..4u64)
        .map(|i| topk_datagen::uniform(1 << 14, 300 + i))
        .collect();
    let run = || {
        let eng = engine(2);
        (0..40u64)
            .map(|b| {
                let specs = multi_query_workload(
                    64,
                    CorpusMix::Clustered { corpora: 4 },
                    1024,
                    1.0,
                    0.25,
                    0.1,
                    101 + b,
                );
                let mut batch = QueryBatch::new();
                let ids: Vec<usize> = corpora
                    .iter()
                    .enumerate()
                    .map(|(i, d)| batch.add_corpus(i as u64, d))
                    .collect();
                for s in &specs {
                    let c = ids[s.corpus];
                    match (s.largest, s.approx_recall_bp) {
                        (true, None) => batch.push_topk(c, s.k),
                        (false, None) => batch.push_topk_min(c, s.k),
                        (true, Some(bp)) => batch.push_topk_approx(c, s.k, f64::from(bp) / 1e4),
                        (false, Some(bp)) => {
                            batch.push_topk_min_approx(c, s.k, f64::from(bp) / 1e4)
                        }
                    };
                }
                let r = eng.run_batch(&batch).expect("batch must execute").report;
                (
                    b,
                    r.delegate_cache.hits,
                    r.delegate_cache.misses,
                    r.delegate_passes_run,
                    r.total_ms.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// A warm corpus asked for smaller k's coarsens its cached passes instead
/// of rescanning: the second batch, exact and approximate in both
/// directions, runs no delegate pass, its exact values equal the reference,
/// and every value is bit-identical to a fresh engine's.
#[test]
fn a_warm_corpus_serves_smaller_ks_by_coarsening_its_cached_passes() {
    let data = topk_datagen::uniform(1 << 16, 23);
    let batch_of = |ks: &[usize]| {
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(5, &data);
        for &k in ks {
            batch.push_topk(c, k);
            batch.push_topk_min(c, k);
            batch.push_topk_approx(c, k, 0.9);
            batch.push_topk_min_approx(c, k, 0.9);
        }
        batch
    };
    let eng = engine(2);
    eng.run_batch(&batch_of(&[256, 300])).unwrap();
    let smaller = [8, 40];
    let warm = eng.run_batch(&batch_of(&smaller)).unwrap();
    let cache = warm.report.delegate_cache;
    assert_eq!(warm.report.delegate_passes_run, 0);
    // one hit per unit: exact and approximate, in both directions
    assert_eq!((cache.hits, cache.misses, cache.coarsened), (4, 0, 4));

    let fresh = engine(2).run_batch(&batch_of(&smaller)).unwrap();
    assert!(fresh.report.delegate_passes_run > 0);
    for (i, (w, f)) in warm.results.iter().zip(&fresh.results).enumerate() {
        assert_eq!(bits(&w.values), bits(&f.values), "query {i}");
    }
    for (j, &k) in smaller.iter().enumerate() {
        assert_eq!(warm.results[4 * j].values, reference_topk(&data, k));
        assert_eq!(warm.results[4 * j + 1].values, reference_topk_min(&data, k));
    }
}
