//! # drtopk-engine — batched multi-query top-k serving over the device cluster
//!
//! The Dr. Top-k pipeline answers *one* query on *one* vector. This crate
//! turns the reproduction into a server-shaped system: a [`TopKEngine`]
//! accepts a [`QueryBatch`] of heterogeneous queries — each with its own
//! corpus, `k`, [`Direction`] and inner algorithm — plans them, executes
//! the plan over a [`gpu_sim::GpuCluster`] worker pool, and returns
//! per-query results plus an engine-level [`EngineReport`] (throughput,
//! batch occupancy, cache hit rates, per-phase times).
//!
//! ## Architecture
//!
//! ```text
//!   QueryBatch ──▶ planner ──▶ ExecutionPlan ──▶ scheduler ──▶ results
//!                    │  ▲                          │
//!                    ▼  │ memoized α (+ k')        │ one Device per worker
//!              tuning-plan cache             delegate cache
//!              (n, k, mode, key type,        (corpus id, α, β, key type,
//!               direction, device)            direction)
//! ```
//!
//! * **Planner** ([`plan`]) — groups same-corpus, same-direction,
//!   same-mode queries into *fused units* that share one delegate pass
//!   sized by the group's `k_max`. This is the batched row-wise idea
//!   behind **RTop-K**: the dominant cost of GPU top-k at serving scale is
//!   launching and scanning per query, so amortize the full-vector scan
//!   across every query that can legally share it (here: the `|V|`-read
//!   delegate construction, after which each query runs only the cheap
//!   delegate-sized phases). Recall-targeted approximate queries
//!   ([`drtopk_core::Mode::Approx`]) fuse separately from exact traffic
//!   and per distinct target — one pass sized by the loosest target of a
//!   mixed group would under-serve its tighter members — with the shared
//!   candidate pass sized by the largest member budget (a larger budget
//!   only raises recall). Corpora that exceed a device's memory are
//!   routed to *sharded units* instead, which take the whole cluster
//!   through [`drtopk_core::distributed_dr_topk`] (approximate sharded
//!   queries run the approximate pipeline per sub-vector, so the target
//!   is met shard-wise and therefore overall). Sharded queries are
//!   deduplicated (identical queries are answered once) but distinct
//!   sharded queries do not yet share a delegate pass — the distributed
//!   pipeline has no planned-query seam; that is the natural next
//!   extension. **Row-matrix queries** ([`QueryBatch::push_rows`]) fuse by
//!   the same `(corpus, direction, mode)` key into `RowUnit`s: each runs
//!   on one pool device as row blocks run by plain calls
//!   ([`drtopk_core::topk_rows`]) — one fused delegate pass per row-block,
//!   never one per row — and its result carries one per-row selection
//!   ([`RowQueryResult`]). Rows count as queries in the metrics and
//!   throughput, without widening the metric catalog.
//! * **Scheduler** ([`TopKEngine::run_batch`]) — a worker pool with one
//!   simulated [`gpu_sim::Device`] per worker; fused units are pulled from
//!   a shared queue for dynamic load balance. This is the scheduling idea
//!   behind **RadiK**: many independent selections of wildly different
//!   cost coexist on a device pool, so assign work greedily rather than
//!   statically. Worker failures surface per device
//!   ([`gpu_sim::try_run_on_each`]) instead of poisoning the
//!   batch.
//! * **Plan cache** (`PlanCache`) — two memoizations keyed for repeat
//!   traffic: `(n, k, key type, direction, device) → α` skips
//!   `auto_alpha` re-derivation, and `(corpus id, length, α, β, key type,
//!   direction) →` [`drtopk_core::DelegateVector`] skips delegate
//!   reconstruction for
//!   unchanged corpora entirely, so a warm engine answers a repeated query
//!   without ever re-reading the corpus at full length. A request at a
//!   coarser α or smaller β than a cached vector of its corpus is derived
//!   from that vector's delegates
//!   ([`drtopk_core::coarsen_delegate_vector`]).
//!
//! Correctness is anchored by construction: a query's direction is one
//! more field of the core request ([`drtopk_core::DrTopKConfig::direction`]),
//! and every unit runs a core runner with it — fused members run the
//! ordinary planned pipeline ([`drtopk_core::dr_topk_planned`]) against a
//! shared delegate vector built for their direction, and exact members
//! narrow one shared first top-k taken on it — so every result is
//! bit-identical to an independent [`drtopk_core::dr_topk`] call with the
//! same direction. The workspace property tests pin this for all six key
//! types, mixed directions, duplicate queries and degenerate `k`.
//!
//! ## Quickstart
//!
//! ```
//! use drtopk_engine::{QueryBatch, TopKEngine};
//! use gpu_sim::{DeviceSpec, GpuCluster};
//!
//! let engine = TopKEngine::new(GpuCluster::homogeneous(2, DeviceSpec::v100s()));
//! let corpus: Vec<u32> = (0..100_000u32).map(|x| x.wrapping_mul(2654435761)).collect();
//!
//! let mut batch = QueryBatch::new();
//! let c = batch.add_corpus(1, &corpus); // stable id → delegate cache works
//! batch.push_topk(c, 10);
//! batch.push_topk(c, 500);
//! batch.push_topk_min(c, 3);
//!
//! let out = engine.run_batch(&batch).unwrap();
//! assert_eq!(out.results[0].values, topk_baselines::reference_topk(&corpus, 10));
//! assert_eq!(out.results[2].values, topk_baselines::reference_topk_min(&corpus, 3));
//! // the two largest-direction queries shared one delegate pass
//! assert!(out.report.batch_occupancy > 1.0);
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod exec;
pub mod plan;
pub mod query;
pub mod report;

pub use drtopk_core::{Direction, PathHint};
pub use engine::{EngineConfig, EngineError, TopKEngine};
pub use query::{Corpus, Query, QueryBatch, RowQuery};
pub use report::{BatchOutput, CacheReport, EngineReport, ExecPath, QueryResult, RowQueryResult};
