//! # drtopk-core — Dr. Top-k: delegate-centric top-k workload reduction
//!
//! This crate implements the primary contribution of *"Dr. Top-k:
//! Delegate-Centric Top-k on GPUs"* (SC '21) on the [`gpu_sim`] substrate:
//!
//! * **Delegate-centric workload reduction** — the input vector is split
//!   into `2^α`-element subranges; the top-β *delegates* of each subrange
//!   form a small delegate vector; a first top-k on the delegates decides
//!   which subranges can contribute at all (Rules 1 and 3), a filtering
//!   threshold prunes their elements (Rule 2), and a second top-k on the tiny
//!   concatenated vector produces the answer ([`pipeline`], [`delegate`],
//!   [`first_topk()`], [`mod@concat`]).
//! * **α tuning** — the convex cost model of Section 5.2 and the closed-form
//!   Rule 4 optimum ([`tuning`]).
//! * **Optimized in-place radix top-k** — flag-based candidate tracking with
//!   zero selection-phase stores ([`radix_flags`], Figure 12).
//! * **Construction optimizations** — warp-centric shuffle reduction and the
//!   coalesced-shared/strided-compute kernel for small subranges
//!   ([`delegate`], Section 5.3).
//! * **Distributed Dr. Top-k** — multi-device execution with asynchronous
//!   gathering and reload-overhead modeling ([`distributed`], Section 5.4).
//! * **Large-k path crossover** — a staged multi-pass radix-select
//!   pipeline as a second execution path, chosen per input, k and
//!   device by a modeled crossover ([`choose_path_sampled`], [`PathHint`];
//!   going beyond the paper, following RadiK's large-k observation).
//! * **Generic keys and both directions** — every entry point is generic
//!   over [`TopKKey`] (`u32`/`u64`/`i32`/`i64`/`f32`/`f64`), and
//!   [`DrTopKConfig::direction`] selects top-k-*largest* (default) or
//!   top-k-*smallest* (k-NN distances) on native keys with no caller-side
//!   bit tricks ([`mod@direction`]).
//! * **Recall-targeted approximate selection** — the [`Mode`] knob on
//!   [`DrTopKConfig`] (or [`DrTopKConfig::approx`]) trades exactness for
//!   speed: per-bucket candidates sized by an analytic recall model
//!   replace the concatenation/refill passes entirely ([`approx`], going
//!   beyond the paper).
//!
//! ## Entry points
//!
//! One runner per target, each taking the request as a [`DrTopKConfig`]:
//! [`dr_topk`] and [`dr_topk_planned`] on one device, [`distributed_dr_topk`]
//! on a cluster, and [`topk_rows`] and [`topk_rows_on`] on a row matrix.
//!
//! ## Quickstart
//!
//! ```
//! use drtopk_core::{dr_topk, DrTopKConfig};
//! use gpu_sim::{Device, DeviceSpec};
//!
//! let device = Device::new(DeviceSpec::v100s());
//! let data: Vec<u32> = (0..100_000u32).map(|x| x.wrapping_mul(2654435761)).collect();
//!
//! let result = dr_topk(&device, &data, 10, &DrTopKConfig::default());
//! assert_eq!(result.values.len(), 10);
//! assert_eq!(result.values, topk_baselines::reference_topk(&data, 10));
//! // the delegate + concatenated workload is a small fraction of |V|
//! assert!(result.workload.workload_fraction() < 0.2);
//! ```

#![deny(missing_docs)]

pub mod approx;
pub mod concat;
pub mod delegate;
pub mod direction;
pub mod distributed;
pub mod first_topk;
pub mod pipeline;
pub mod radix_flags;
mod radix_path;
pub mod rows;
pub mod stages;
pub mod tuning;
pub mod verify;

pub use approx::{expected_recall, measured_recall, Mode, RecallTarget};
pub use concat::{concatenate, Concatenated};
pub use delegate::{
    build_delegate_vector, coarsen_delegate_vector, ConstructionMethod, DelegateVector,
};
pub use direction::Direction;
pub use distributed::{capacity_in_keys, distributed_dr_topk, DistributedResult, ReloadSchedule};
pub use first_topk::{first_topk, FirstTopK};
pub use pipeline::{
    dr_topk, dr_topk_planned, DrTopKConfig, DrTopKResult, InnerAlgorithm, PhaseBreakdown,
    PlannedQuery, Shared, WorkloadStats,
};
pub use radix_flags::{flag_radix_select_kth, flag_radix_topk};
pub use rows::{topk_rows, topk_rows_on, RowK, RowMatrix, RowTopKResult};
pub use stages::{
    ExecutedStage, Resource, Serial, StageKind, StageOutcome, StageReport, TransferLane,
};
pub use topk_baselines::{KeyBits, TopKKey};
pub use tuning::{
    auto_alpha, choose_path_sampled, is_convex_in_alpha, model_optimal_alpha,
    optimal_approx_tuning, predicted_approx_cost, predicted_cost, rule4_alpha, ApproxTuning,
    ChosenPath, PathHint, PredictedCost, PAPER_RULE4_CONST,
};
pub use verify::{verify_specs, Diagnostic, DiagnosticCode, StageSpec, VerifyOptions};
