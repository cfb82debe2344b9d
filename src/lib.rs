//! # Dr. Top-k — delegate-centric top-k (SC '21) reproduction
//!
//! This facade crate re-exports every sub-crate of the workspace so that a
//! downstream user can depend on a single crate:
//!
//! * [`sim`] — the GPU execution-model substrate ([`gpu_sim`]): devices,
//!   warps, memory-transaction accounting and the timing model.
//! * [`core`] — the paper's contribution ([`drtopk_core`]): delegate vector
//!   construction, β delegates, delegate-filtered concatenation, α tuning,
//!   the flag-based in-place radix top-k, distributed Dr. Top-k, and — going
//!   beyond the paper — the recall-targeted approximate mode and the
//!   row-wise matrix top-k (`topk_rows`) for MoE-gating-shaped workloads.
//! * [`baselines`] — the state-of-the-art algorithms Dr. Top-k assists and
//!   is compared with ([`topk_baselines`]): radix, bucket, bitonic and
//!   sort-and-choose.
//! * [`datagen`] — the synthetic (UD/ND/CD) and real-world-proxy datasets
//!   used by the paper's evaluation ([`topk_datagen`]).
//! * [`bmw`] — the Block-Max WAND information-retrieval baseline used in
//!   Figure 24 ([`bmw_baseline`]).
//! * [`engine`] — the batched multi-query serving engine
//!   ([`drtopk_engine`]): planner, scheduler and plan cache that fuse
//!   same-corpus queries into shared delegate passes and shard
//!   over-capacity corpora across the cluster.
//! * [`obs`] — observability ([`drtopk_obs`]): stage-graph tracing with
//!   Chrome Trace (Perfetto) export, the lock-free metrics registry behind
//!   `EngineReport::metrics`, and the shared versioned JSON snapshot
//!   schema (see `docs/OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use drtopk::prelude::*;
//!
//! // 1M uniformly distributed u32 values.
//! let data = topk_datagen::uniform(1 << 20, 0x5eed);
//! let device = Device::new(DeviceSpec::v100s());
//!
//! // Dr. Top-k assisted radix top-k with automatic α / β configuration.
//! let config = DrTopKConfig::auto(data.len(), 1024);
//! let result = dr_topk(&device, &data, 1024, &config);
//!
//! // The result is exactly the 1024 largest elements.
//! let mut expected = data.clone();
//! expected.sort_unstable_by(|a, b| b.cmp(a));
//! expected.truncate(1024);
//! let mut got = result.values.clone();
//! got.sort_unstable_by(|a, b| b.cmp(a));
//! assert_eq!(got, expected);
//! ```

pub use bmw_baseline as bmw;
pub use drtopk_core as core;
pub use drtopk_engine as engine;
pub use drtopk_obs as obs;
pub use gpu_sim as sim;
pub use topk_baselines as baselines;
pub use topk_datagen as datagen;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use bmw_baseline::{BmwIndex, BmwStats};
    pub use drtopk_core::{
        dr_topk, measured_recall, topk_rows, Direction, DrTopKConfig, DrTopKResult, InnerAlgorithm,
        Mode, RecallTarget, RowK, RowMatrix, RowTopKResult,
    };
    pub use drtopk_engine::{QueryBatch, RowQuery, TopKEngine};
    pub use drtopk_obs::{MetricName, MetricsRegistry, TraceRecorder, TraceSink};
    pub use gpu_sim::{Device, DeviceSpec, KernelStats};
    pub use topk_baselines::{
        bitonic_topk, bucket_topk, radix_topk, sort_and_choose_topk, TopKKey,
    };
    pub use topk_datagen::{self, Distribution};
}
