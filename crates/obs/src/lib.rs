//! # drtopk-obs — observability for the Dr. Top-k stack
//!
//! Three pillars, re-exported at the crate root:
//!
//! * **Tracing** ([`trace`]): a [`TraceSink`] trait the stage runners emit
//!   into, and a [`TraceRecorder`] that exports Chrome Trace
//!   Event Format JSON — one track per modeled resource, a parallel track
//!   group for measured wall-clock, and a deterministic mode CI can
//!   byte-diff.
//! * **Metrics** ([`metrics`]): lock-free counters, gauges and log-bucketed
//!   [`Histogram`]s behind the [`MetricsRegistry`], whose families are
//!   closed over the [`MetricName`] catalog (drift-tested against
//!   `docs/OBSERVABILITY.md`).
//! * **Export** ([`json`]): an ordered, dependency-free [`Json`] value with
//!   deterministic serialization, a minimal parser, the shared versioned
//!   [`Snapshot`] schema ([`SCHEMA_VERSION`]), and a
//!   [`validate_chrome_trace`] structural checker.
//!
//! This crate is a *leaf*: it depends only on the vendored `parking_lot`
//! facade, so `drtopk-core`, `drtopk-engine`, `gpu-sim` and the benches can
//! all feed it without dependency cycles. Stage kinds and resources arrive
//! as their stable string names.
//!
//! ```
//! use drtopk_obs::{SpanRecord, TraceRecorder, TraceSink};
//!
//! let rec = TraceRecorder::deterministic();
//! rec.span(SpanRecord {
//!     seq: 0,
//!     kind: "local_topk".into(),
//!     label: "dev0 chunk0".into(),
//!     track: "compute[0]".into(),
//!     deps: vec![],
//!     start_ms: 0.0,
//!     end_ms: 1.5,
//!     measured_start_ms: 0.0,
//!     measured_end_ms: 0.0,
//!     queue_wait_ms: 0.0,
//! });
//! let json = rec.chrome_trace_json();
//! drtopk_obs::validate_chrome_trace(&json).unwrap();
//! ```

#![deny(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::{validate_chrome_trace, Json, Snapshot, TraceCheck, SCHEMA_VERSION};
pub use metrics::{
    Counter, Histogram, HistogramSummary, MetricName, MetricUnit, MetricsRegistry, MetricsSnapshot,
    WorkerSnapshot,
};
pub use trace::{EventKind, ExecEvent, SpanRecord, TraceRecorder, TraceSink};
