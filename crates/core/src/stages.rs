//! The stage IR, the modeled replay, and the serial recorder that every
//! single-device pipeline uses.
//!
//! Every Dr. Top-k run reports its work as stages:
//!
//! * a stage ([`StageKind`] + [`Resource`] + its dependencies) is one
//!   schedulable piece of work — a paper phase
//!   ([`StageKind::DelegateConstruction`], [`StageKind::FirstTopK`], …),
//!   the approximate mode's bucket-top-k′ candidate pass, or an out-of-core
//!   chunk load — bound to a [`Resource`] (a device's compute queue or a
//!   transfer lane) and to the stages it depends on;
//! * a single-device pipeline (the exact pipeline and its fallback, the
//!   approximate mode, the radix path, an engine pool unit, one device's
//!   share of a row matrix) is a chain of dependent phases on one compute
//!   queue, so it runs them as plain calls and records each through
//!   [`Serial`];
//! * the distributed runner's stages can overlap — chunk loads on
//!   host→device lanes, per-device compute, per-source gathers — so it
//!   records each device's chain as plain calls and then *replays* the
//!   whole list in modeled time on per-resource [`gpu_sim::Stream`]s
//!   (`replay`): stages on the same resource serialize, stages on
//!   different resources overlap as far as their dependencies allow —
//!   which is exactly how double-buffered chunked ingestion hides
//!   host→device transfers behind compute.
//!
//! # Modeled vs measured time
//!
//! Every stage interval exists in two clocks. *Modeled* milliseconds come
//! from the simulator's analytic timing model and are **deterministic**:
//! they depend only on the recorded stages, in list order, never on how the
//! host threads interleaved, so `makespan_ms`, per-stage
//! `start_ms`/`end_ms`, phase breakdowns and kernel counters are
//! bit-identical run to run (see [`StageReport::deterministic_summary`]).
//! *Measured* milliseconds are host wall-clock timestamps taken around each
//! stage's work
//! ([`ExecutedStage::measured_start_ms`] / [`ExecutedStage::measured_end_ms`],
//! [`StageReport::measured_makespan_ms`]) and vary run to run.
//!
//! The [`StageReport`] is the one instrumentation point: it carries every
//! executed stage's interval, the modeled makespan, the compute/transfer
//! split, the overlap efficiency, and a [`PhaseBreakdown`] derived from the
//! stage kinds — the pipeline, approximate, distributed and engine reports
//! are all views of it.

use std::time::Instant;

use drtopk_obs::{SpanRecord, TraceSink};
use gpu_sim::{KernelStats, StreamSet};

use crate::pipeline::PhaseBreakdown;
use crate::verify::{debug_assert_verified, verify_specs, Diagnostic, StageSpec, VerifyOptions};

/// Which paper phase (or infrastructure step) a stage implements.
///
/// The mapping from the paper's Figure 3(b) phases (and the extensions this
/// reproduction adds) to stage kinds is one-to-one; `docs/PAPER_MAP.md`
/// tabulates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Delegate vector construction (Sections 4.1/5.3) — the β-delegate
    /// `|V|`-scan.
    DelegateConstruction,
    /// First top-k on the delegate vector (Section 4.2).
    FirstTopK,
    /// Rule 1–3 subrange concatenation with Rule 2 filtering (Section 4.3).
    Concatenate,
    /// Second top-k on the concatenated vector (Section 4.4) — also the
    /// direct inner-algorithm run on the fallback path.
    SecondTopK,
    /// The approximate mode's per-bucket top-k′ candidate pass (the
    /// delegate kernels run with β = k′; replaces phases 2–4 entirely).
    BucketTopKPrime,
    /// Host→device ingestion of one out-of-core sub-vector chunk.
    ChunkLoad,
    /// One chunk's whole local Dr. Top-k pipeline in the distributed
    /// runner (attributed to selection compute in coarse breakdowns; the
    /// distributed result refines it from the per-chunk results).
    LocalTopK,
    /// Per-device merge of several chunks' local top-k's (Section 5.4).
    LocalMerge,
    /// Asynchronous gather of one device's k winners to the primary
    /// (Section 5.4) — one stage per source device, each on its own
    /// interconnect lane, so per-device gathers overlap.
    Gather,
    /// Final top-k over the `#devices × k` candidates on the primary.
    FinalTopK,
    /// One MSD digit-histogram pass of the multi-pass radix-select path
    /// (the large-k escape hatch; see `docs/ARCHITECTURE.md`): a full scan
    /// of the surviving candidates counting 256-way digit occupancy.
    RadixHistogram,
    /// The refine step after a digit-histogram pass: locate the digit
    /// bucket containing the k-th element from the histogram prefix and
    /// compact the surviving candidates out-of-place.
    RadixRefine,
    /// Gather of the elements above the resolved radix threshold (plus
    /// tie refill up to exactly `k`) from the original vector.
    CandidateGather,
    /// Final ordering of the `k` gathered radix candidates — the terminal
    /// stage of the radix-select pipeline.
    RadixSelect,
}

impl StageKind {
    /// Every stage kind, in declaration order. Kept exhaustive by a
    /// compile-time match in the docs drift tests: adding a variant without
    /// extending this list (and `docs/PAPER_MAP.md`) fails the build or the
    /// suite.
    pub const ALL: [StageKind; 14] = [
        StageKind::DelegateConstruction,
        StageKind::FirstTopK,
        StageKind::Concatenate,
        StageKind::SecondTopK,
        StageKind::BucketTopKPrime,
        StageKind::ChunkLoad,
        StageKind::LocalTopK,
        StageKind::LocalMerge,
        StageKind::Gather,
        StageKind::FinalTopK,
        StageKind::RadixHistogram,
        StageKind::RadixRefine,
        StageKind::CandidateGather,
        StageKind::RadixSelect,
    ];

    /// Whether stages of this kind represent data movement rather than
    /// kernel execution.
    pub fn is_transfer(self) -> bool {
        matches!(self, StageKind::ChunkLoad | StageKind::Gather)
    }

    /// Display name used by reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::DelegateConstruction => "delegate_construction",
            StageKind::FirstTopK => "first_topk",
            StageKind::Concatenate => "concatenate",
            StageKind::SecondTopK => "second_topk",
            StageKind::BucketTopKPrime => "bucket_topk_prime",
            StageKind::ChunkLoad => "chunk_load",
            StageKind::LocalTopK => "local_topk",
            StageKind::LocalMerge => "local_merge",
            StageKind::Gather => "gather",
            StageKind::FinalTopK => "final_topk",
            StageKind::RadixHistogram => "radix_histogram",
            StageKind::RadixRefine => "radix_refine",
            StageKind::CandidateGather => "candidate_gather",
            StageKind::RadixSelect => "radix_select",
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A modeled transfer lane (one independent copy queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferLane {
    /// Host memory → device `dst` (each device has its own PCIe lane, as
    /// the Table 2 reload model assumes).
    HostToDevice(usize),
    /// Device `src` → host memory.
    DeviceToHost(usize),
    /// The device↔device interconnect lane *sourced* at device `src`. The
    /// Section 5.4 gather is asynchronous: every secondary device pushes
    /// its k winners to the primary on its own lane, so per-device gathers
    /// overlap instead of serializing on one shared queue.
    Interconnect(usize),
}

/// The hardware queue a stage occupies. Stages tagged with the same
/// resource serialize in modeled time; stages on different resources
/// overlap as far as their dependencies allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The compute queue of one device (index within the cluster; 0 for
    /// single-device graphs).
    Compute(usize),
    /// A transfer lane.
    Transfer(TransferLane),
}

impl Resource {
    /// Stable track label used by trace exports: `compute[d]` for compute
    /// queues, `h2d[d]` / `d2h[d]` / `ic[d]` for the transfer lanes.
    pub fn label(&self) -> String {
        match self {
            Resource::Compute(d) => format!("compute[{d}]"),
            Resource::Transfer(TransferLane::HostToDevice(d)) => format!("h2d[{d}]"),
            Resource::Transfer(TransferLane::DeviceToHost(d)) => format!("d2h[{d}]"),
            Resource::Transfer(TransferLane::Interconnect(d)) => format!("ic[{d}]"),
        }
    }
}

/// What executing one stage produced: the kernel counters it accumulated
/// and its modeled duration. Buffers travel through the caller's own
/// variables, not through the outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageOutcome {
    /// Counters accumulated by the stage's kernels (empty for pure
    /// transfers).
    pub stats: KernelStats,
    /// Modeled duration of the stage in milliseconds.
    pub time_ms: f64,
}

impl StageOutcome {
    /// The outcome of a phase that took `time_ms` and counted `stats`.
    pub(crate) fn new(stats: KernelStats, time_ms: f64) -> Self {
        StageOutcome { stats, time_ms }
    }
}

pub(crate) fn ms_since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64() * 1e3
}

/// The deterministic modeled replay of recorded stages: each stage, in list
/// order, starts on its resource's [`gpu_sim::Stream`] once its
/// dependencies have finished and runs for the duration it recorded
/// (`end_ms − start_ms`). Stages on one resource serialize; stages on
/// different resources overlap as far as their dependencies allow, which is
/// how double-buffered chunk loads hide behind compute. Dependencies must
/// name earlier stages. Measured fields pass through unchanged, so the
/// modeled report does not depend on how the host ran the work.
pub(crate) fn replay(recorded: Vec<ExecutedStage>) -> StageReport {
    let mut streams: StreamSet<Resource> = StreamSet::new();
    let mut finished: Vec<gpu_sim::Event> = Vec::with_capacity(recorded.len());
    let mut stages: Vec<ExecutedStage> = Vec::with_capacity(recorded.len());
    let mut measured_makespan_ms: f64 = 0.0;
    for stage in recorded {
        let stream = streams.stream_mut(stage.resource);
        for &dep in &stage.deps {
            stream.wait_event(&finished[dep]);
        }
        let start_ms = stream.cursor_ms();
        let done = stream.launch(stage.duration_ms());
        measured_makespan_ms = measured_makespan_ms.max(stage.measured_end_ms);
        stages.push(ExecutedStage {
            start_ms,
            end_ms: done.ready_at_ms(),
            ..stage
        });
        finished.push(done);
    }
    let makespan_ms = streams.makespan_ms();
    let serial_ms: f64 = stages.iter().map(ExecutedStage::duration_ms).sum();
    debug_assert!(
        makespan_ms <= serial_ms + 1e-9 * serial_ms.max(1.0),
        "modeled makespan ({makespan_ms} ms) must never exceed the serialized cost \
         ({serial_ms} ms); overlap can only hide time"
    );
    StageReport {
        stages,
        makespan_ms,
        measured_makespan_ms,
    }
}

/// One stage as it was actually scheduled.
#[derive(Debug, Clone)]
pub struct ExecutedStage {
    /// The stage's kind.
    pub kind: StageKind,
    /// Display label (defaults to the kind's name; chunked stages carry
    /// their chunk index).
    pub label: String,
    /// The resource the stage occupied.
    pub resource: Resource,
    /// Indices (within the report's stage list) of the stages this stage
    /// declared as dependencies.
    pub deps: Vec<usize>,
    /// Modeled start time, ms (deterministic).
    pub start_ms: f64,
    /// Modeled completion time, ms (deterministic).
    pub end_ms: f64,
    /// Host wall-clock at which the stage's work started, in ms since the
    /// run's epoch. **Not deterministic** — varies run to run.
    pub measured_start_ms: f64,
    /// Host wall-clock at which the stage's work returned, in ms since the
    /// run's epoch. **Not deterministic** — varies run to run.
    pub measured_end_ms: f64,
    /// Kernel counters the stage accumulated.
    pub stats: KernelStats,
}

impl ExecutedStage {
    /// The stage's modeled duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// The stage's measured host wall-clock duration in milliseconds.
    pub fn measured_ms(&self) -> f64 {
        self.measured_end_ms - self.measured_start_ms
    }

    /// A stage as its work recorded it, before `replay` places it: its
    /// modeled interval is `[0, outcome.time_ms)`.
    pub(crate) fn recorded(
        kind: StageKind,
        label: impl Into<String>,
        resource: Resource,
        deps: Vec<usize>,
        outcome: StageOutcome,
        measured_start_ms: f64,
        measured_end_ms: f64,
    ) -> Self {
        ExecutedStage {
            kind,
            label: label.into(),
            resource,
            deps,
            start_ms: 0.0,
            end_ms: outcome.time_ms,
            measured_start_ms,
            measured_end_ms,
            stats: outcome.stats,
        }
    }
}

/// A run's instrumentation: every scheduled stage plus the modeled
/// makespan. All per-phase, compute-vs-transfer and overlap reporting in
/// the crate (and the engine) derives from this one structure.
///
/// Modeled fields (`makespan_ms`, per-stage `start_ms`/`end_ms`, stats,
/// everything derived from them) are deterministic; the `measured_*`
/// fields reflect host wall-clock and vary run to run.
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Every executed stage, in insertion (= replay) order.
    pub stages: Vec<ExecutedStage>,
    /// Modeled end-to-end time: the latest stage completion across all
    /// resources. Deterministic.
    pub makespan_ms: f64,
    /// Measured end-to-end host wall-clock: the latest measured stage
    /// completion. When devices run their stages on their own host threads
    /// (the distributed runner, row blocks on several devices), they
    /// overlap in wall-clock and this falls below the sum of the stages'
    /// measured durations; for a one-device schedule it is the serialized
    /// sum. **Not deterministic.**
    pub measured_makespan_ms: f64,
}

impl StageReport {
    /// Sum of the durations of all transfer stages.
    pub fn transfer_ms(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| matches!(s.resource, Resource::Transfer(_)))
            .map(ExecutedStage::duration_ms)
            .sum()
    }

    /// What the graph would cost with no overlap at all: the sum of every
    /// stage's duration.
    pub fn serial_ms(&self) -> f64 {
        self.stages.iter().map(ExecutedStage::duration_ms).sum()
    }

    /// Fraction of the serialized cost hidden by overlap:
    /// `1 − makespan / serial`, in `[0, 1)`; 0 for an empty or fully
    /// serial schedule.
    pub fn overlap_efficiency(&self) -> f64 {
        let serial = self.serial_ms();
        if serial <= 0.0 {
            return 0.0;
        }
        (1.0 - self.makespan_ms / serial).max(0.0)
    }

    /// Kernel counters summed over every stage.
    pub fn stats(&self) -> KernelStats {
        self.stages.iter().map(|s| s.stats).sum()
    }

    /// Re-verify the executed schedule with default [`VerifyOptions`]: the
    /// report carries every stage's kind/resource/dependency wiring, so the
    /// same static checks that gate execution (see [`crate::verify`]) can
    /// run after the fact — e.g. in tests that only kept the report.
    pub fn verify(&self) -> Vec<Diagnostic> {
        self.verify_with(&VerifyOptions::default())
    }

    /// Re-verify the executed schedule with explicit [`VerifyOptions`].
    pub fn verify_with(&self, opts: &VerifyOptions) -> Vec<Diagnostic> {
        let specs: Vec<StageSpec> = self
            .stages
            .iter()
            .map(|s| StageSpec {
                kind: s.kind,
                label: s.label.clone(),
                resource: s.resource,
                deps: s.deps.clone(),
            })
            .collect();
        verify_specs(&specs, opts)
    }

    /// A byte-stable rendering of every *deterministic* field of the
    /// report: stage kinds, labels, resources, dependencies, modeled
    /// intervals (as exact bit patterns) and kernel counters, plus the
    /// modeled makespan. Two runs of the same request — whatever order the
    /// host ran its devices in — must produce identical strings; the
    /// determinism CI step and the repeated-run test diff exactly this.
    /// Measured wall-clock fields are deliberately excluded.
    pub fn deterministic_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stages={} makespan_bits={:016x} makespan_ms={}",
            self.stages.len(),
            self.makespan_ms.to_bits(),
            self.makespan_ms
        );
        for (i, s) in self.stages.iter().enumerate() {
            let _ = writeln!(
                out,
                "[{i}] {} '{}' {:?} deps={:?} start_bits={:016x} end_bits={:016x} stats={:?}",
                s.kind,
                s.label,
                s.resource,
                s.deps,
                s.start_ms.to_bits(),
                s.end_ms.to_bits(),
                s.stats
            );
        }
        out
    }

    /// Emit every stage as a [`SpanRecord`] into a [`TraceSink`], in
    /// insertion (= replay) order with unshifted intervals — so recorded
    /// spans carry the report's modeled `start_ms`/`end_ms` **bit-for-bit**.
    /// `queue_wait_ms` is the modeled gap between a stage's readiness (all
    /// dependencies complete) and its start, i.e. time spent waiting for
    /// its resource.
    pub(crate) fn record_into(&self, sink: &dyn TraceSink) {
        self.record_shifted(sink, 0.0);
    }

    /// Like `StageReport::record_into` but with every interval (modeled
    /// *and* measured) shifted by `offset_ms` — used by the engine to place
    /// per-unit stage reports onto the batch timeline at their scheduled
    /// worker start times. An offset of exactly `0.0` preserves the
    /// original `f64` bit patterns.
    pub fn record_shifted(&self, sink: &dyn TraceSink, offset_ms: f64) {
        for (i, s) in self.stages.iter().enumerate() {
            let ready_ms = s
                .deps
                .iter()
                .map(|&d| self.stages[d].end_ms)
                .fold(0.0, f64::max);
            sink.span(SpanRecord {
                seq: i,
                kind: s.kind.name().to_string(),
                label: s.label.clone(),
                track: s.resource.label(),
                deps: s.deps.clone(),
                start_ms: s.start_ms + offset_ms,
                end_ms: s.end_ms + offset_ms,
                measured_start_ms: s.measured_start_ms + offset_ms,
                measured_end_ms: s.measured_end_ms + offset_ms,
                queue_wait_ms: (s.start_ms - ready_ms).max(0.0),
            });
        }
    }

    /// Derive the paper-phase breakdown from the stage kinds:
    /// [`StageKind::DelegateConstruction`] and
    /// [`StageKind::BucketTopKPrime`] charge delegate time,
    /// [`StageKind::FirstTopK`] / [`StageKind::Concatenate`] /
    /// [`StageKind::SecondTopK`] their namesakes, every selection stage of
    /// the distributed runner ([`StageKind::LocalTopK`],
    /// [`StageKind::LocalMerge`], [`StageKind::FinalTopK`]) second-top-k
    /// time, and the transfer kinds ([`StageKind::ChunkLoad`],
    /// [`StageKind::Gather`]) the breakdown's transfer slot. The radix
    /// path maps onto the same four compute slots: the narrowing passes
    /// ([`StageKind::RadixHistogram`], [`StageKind::RadixRefine`]) play
    /// the role of the first selection, [`StageKind::CandidateGather`]
    /// that of concatenation, and [`StageKind::RadixSelect`] that of the
    /// final selection.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let mut b = PhaseBreakdown::default();
        for s in &self.stages {
            let d = s.duration_ms();
            match s.kind {
                StageKind::DelegateConstruction | StageKind::BucketTopKPrime => {
                    b.delegate_ms += d;
                }
                StageKind::FirstTopK | StageKind::RadixHistogram | StageKind::RadixRefine => {
                    b.first_topk_ms += d;
                }
                StageKind::Concatenate | StageKind::CandidateGather => b.concat_ms += d,
                StageKind::SecondTopK
                | StageKind::LocalTopK
                | StageKind::LocalMerge
                | StageKind::FinalTopK
                | StageKind::RadixSelect => b.second_topk_ms += d,
                StageKind::ChunkLoad | StageKind::Gather => b.transfer_ms += d,
            }
        }
        b
    }
}

/// The stage recorder of a single-device pipeline: each stage's work runs
/// as a plain call, in order, and is recorded on one device's compute
/// queue.
///
/// On one in-order queue the modeled replay reduces to
/// `cursor += duration`, so a running sum of durations gives every modeled
/// start, end and the makespan bit for bit as the replay would. The exact, fallback, approximate and radix pipelines record their
/// phases with [`Serial::stage`]; the engine records a pool unit's shared
/// steps the same way and splices each member's own report in with
/// [`Serial::append`]. Measured times are host wall-clock since
/// [`Serial::new`].
pub struct Serial {
    resource: Resource,
    epoch: Instant,
    report: StageReport,
    /// The first stage of the current chain; it waits on nothing.
    chain_start: usize,
}

impl Serial {
    /// An empty schedule on `device`'s compute queue.
    pub fn new(device: usize) -> Self {
        Self::since(device, Instant::now())
    }

    /// [`Serial::new`] with measured times taken since `epoch`, so the
    /// schedules of several devices share one clock.
    pub(crate) fn since(device: usize, epoch: Instant) -> Self {
        Serial {
            resource: Resource::Compute(device),
            epoch,
            report: StageReport::default(),
            chain_start: 0,
        }
    }

    /// Start a new chain: the next stage waits on nothing, as a first stage
    /// does. Independent work that shares the queue (one row block after
    /// another) still starts where the previous work ends.
    pub(crate) fn begin_chain(&mut self) {
        self.chain_start = self.report.stages.len();
    }

    /// Run `work` as the next stage, which waits on the previous one (the
    /// first stage of a chain waits on nothing), and return what the work
    /// produced besides its outcome.
    pub fn stage<T>(
        &mut self,
        kind: StageKind,
        label: impl Into<String>,
        work: impl FnOnce() -> (T, StageOutcome),
    ) -> T {
        let measured_start_ms = ms_since(self.epoch);
        let (value, outcome) = work();
        let measured_end_ms = ms_since(self.epoch);
        debug_assert!(
            outcome.time_ms >= 0.0 && outcome.time_ms.is_finite(),
            "stage durations must be finite and non-negative, got {}",
            outcome.time_ms
        );
        let report = &mut self.report;
        let start_ms = report.makespan_ms;
        report.makespan_ms += outcome.time_ms;
        report.measured_makespan_ms = report.measured_makespan_ms.max(measured_end_ms);
        let len = report.stages.len();
        let deps = (len > self.chain_start)
            .then(|| len - 1)
            .into_iter()
            .collect();
        report.stages.push(ExecutedStage {
            kind,
            label: label.into(),
            resource: self.resource,
            deps,
            start_ms,
            end_ms: report.makespan_ms,
            measured_start_ms,
            measured_end_ms,
            stats: outcome.stats,
        });
        value
    }

    /// Run `work`, which returns a report of its own (a whole pipeline run
    /// on the same device), and append that report's stages: shifted to
    /// start where the schedule ends, re-tagged with this device, and
    /// re-indexed into this schedule. Its root stages wait on `deps`
    /// (indices into this schedule); its internal dependencies are kept.
    pub fn append<T>(&mut self, deps: &[usize], work: impl FnOnce() -> (T, StageReport)) -> T {
        let measured_offset_ms = ms_since(self.epoch);
        let (value, inner) = work();
        let report = &mut self.report;
        let (base, offset_ms) = (report.stages.len(), report.makespan_ms);
        for stage in inner.stages {
            let deps = if stage.deps.is_empty() {
                deps.to_vec()
            } else {
                stage.deps.iter().map(|d| d + base).collect()
            };
            let measured_end_ms = stage.measured_end_ms + measured_offset_ms;
            report.measured_makespan_ms = report.measured_makespan_ms.max(measured_end_ms);
            report.stages.push(ExecutedStage {
                resource: self.resource,
                deps,
                start_ms: stage.start_ms + offset_ms,
                end_ms: stage.end_ms + offset_ms,
                measured_start_ms: stage.measured_start_ms + measured_offset_ms,
                measured_end_ms,
                ..stage
            });
        }
        report.makespan_ms = offset_ms + inner.makespan_ms;
        value
    }

    /// The recorded report. Debug builds verify it first: [`Serial::append`]
    /// re-wires dependencies, and index arithmetic is what the verifier
    /// exists to catch.
    pub fn finish(self) -> StageReport {
        debug_assert_verified("serial stage report", || self.report.verify());
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{distributed_dr_topk, ReloadSchedule};
    use crate::pipeline::DrTopKConfig;
    use gpu_sim::{DeviceSpec, GpuCluster};

    fn outcome(ms: f64) -> StageOutcome {
        StageOutcome::new(KernelStats::default(), ms)
    }

    /// A stage of `ms` modeled milliseconds, recorded at measured time 0.
    fn rec(kind: StageKind, resource: Resource, deps: &[usize], ms: f64) -> ExecutedStage {
        ExecutedStage::recorded(
            kind,
            kind.name(),
            resource,
            deps.to_vec(),
            outcome(ms),
            0.0,
            0.0,
        )
    }

    /// A radix-shaped chain (a shape the verifier accepts at any length)
    /// with zero durations and sums that depend on their order:
    /// `(0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)`, and each `1e-17` vanishes
    /// into the running sum.
    const CHAIN: [(StageKind, f64); 8] = [
        (StageKind::RadixHistogram, 0.1),
        (StageKind::RadixRefine, 0.2),
        (StageKind::RadixHistogram, 0.3),
        (StageKind::RadixRefine, 1e-17),
        (StageKind::RadixHistogram, 0.0),
        (StageKind::RadixRefine, 0.0),
        (StageKind::CandidateGather, 0.1),
        (StageKind::RadixSelect, 1e-17),
    ];

    #[test]
    fn serial_stages_replay_exactly_like_the_executor() {
        let mut recorded = Vec::new();
        let mut serial = Serial::new(0);
        for (i, (kind, ms)) in CHAIN.into_iter().enumerate() {
            let stats = KernelStats {
                alu_ops: i as u64,
                ..KernelStats::default()
            };
            let label = format!("stage {i}");
            let deps: Vec<usize> = i.checked_sub(1).into_iter().collect();
            recorded.push(ExecutedStage {
                label: label.clone(),
                stats,
                ..rec(kind, Resource::Compute(0), &deps, ms)
            });
            serial.stage(kind, label, || ((), StageOutcome::new(stats, ms)));
        }
        let serial = serial.finish();
        let replayed = replay(recorded);
        assert_eq!(
            replayed.deterministic_summary(),
            serial.deterministic_summary()
        );
        let sum = CHAIN.iter().fold(0.0f64, |acc, (_, ms)| acc + ms);
        assert_eq!(serial.makespan_ms.to_bits(), sum.to_bits());
    }

    /// An appended report keeps its internal dependencies (re-indexed), its
    /// roots wait on the given stages, every interval is `inner + offset`,
    /// and every stage moves to the recorder's device.
    #[test]
    fn serial_append_shifts_and_rewires_a_nested_report() {
        let mut member = Serial::new(0);
        for (kind, ms) in [
            (StageKind::FirstTopK, 0.2),
            (StageKind::Concatenate, 0.3),
            (StageKind::SecondTopK, 1e-17),
        ] {
            member.stage(kind, kind.name(), || ((), outcome(ms)));
        }
        let nested = member.finish();
        let mut serial = Serial::new(3);
        serial.stage(StageKind::DelegateConstruction, "pass", || {
            ((), outcome(0.1))
        });
        assert_eq!(serial.append(&[0], || ("member", nested.clone())), "member");
        let report = serial.finish();
        let deps: Vec<&[usize]> = report.stages.iter().map(|s| &s.deps[..]).collect();
        assert_eq!(deps, [&[][..], &[0], &[1], &[2]]);
        assert!(report
            .stages
            .iter()
            .all(|s| s.resource == Resource::Compute(3)));
        for (outer, inner) in report.stages[1..].iter().zip(&nested.stages) {
            assert_eq!(outer.label, inner.label);
            assert_eq!(outer.start_ms.to_bits(), (inner.start_ms + 0.1).to_bits());
            assert_eq!(outer.end_ms.to_bits(), (inner.end_ms + 0.1).to_bits());
        }
        let makespan_ms = 0.1 + nested.makespan_ms;
        assert_eq!(report.makespan_ms.to_bits(), makespan_ms.to_bits());
        assert!(report.verify().is_empty());
    }

    #[test]
    fn serial_chain_on_one_resource_sums() {
        let mut log = Vec::new();
        let mut serial = Serial::new(0);
        for (kind, name, ms) in [
            (StageKind::DelegateConstruction, "delegate", 2.0),
            (StageKind::FirstTopK, "first", 1.0),
            (StageKind::Concatenate, "concat", 0.0),
            (StageKind::SecondTopK, "second", 0.5),
        ] {
            serial.stage(kind, kind.name(), || {
                log.push(name);
                ((), outcome(ms))
            });
        }
        let report = serial.finish();
        assert_eq!(log, vec!["delegate", "first", "concat", "second"]);
        assert_eq!(report.makespan_ms, 3.5);
        assert_eq!(report.serial_ms(), 3.5);
        assert_eq!(report.overlap_efficiency(), 0.0);
        assert_eq!(report.transfer_ms(), 0.0);
        let b = report.phase_breakdown();
        assert_eq!(b.delegate_ms, 2.0);
        assert_eq!(b.first_topk_ms, 1.0);
        assert_eq!(b.second_topk_ms, 0.5);
        assert_eq!(b.transfer_ms, 0.0);
    }

    #[test]
    fn transfers_overlap_compute_across_resources() {
        // load0 [0,3) ∥ nothing; compute0 [3,7); load1 [3,6) overlaps
        // compute0; compute1 [7,11). Makespan 11 vs serial 14.
        let report = replay(two_resource_schedule(&[0.0; 5]));
        assert_eq!(report.makespan_ms, 11.0);
        assert_eq!(report.serial_ms(), 14.0);
        assert!((report.overlap_efficiency() - 3.0 / 14.0).abs() < 1e-12);
        assert_eq!(report.transfer_ms(), 6.0);
        assert_eq!(report.phase_breakdown().transfer_ms, 6.0);
        // the second load started while compute 0 was still running
        assert!(report.stages[2].start_ms < report.stages[1].end_ms);
    }

    #[test]
    fn same_resource_stages_serialize_without_explicit_deps() {
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let report = replay(vec![
            rec(StageKind::ChunkLoad, lane, &[], 2.0),
            rec(StageKind::ChunkLoad, lane, &[], 2.0),
            rec(StageKind::LocalTopK, Resource::Compute(0), &[0, 1], 0.0),
            rec(StageKind::FinalTopK, Resource::Compute(0), &[2], 0.0),
        ]);
        assert_eq!(report.stages[1].start_ms, 2.0);
        assert_eq!(report.makespan_ms, 4.0);
    }

    #[test]
    fn empty_graph_reports_zeroes() {
        let report = replay(Vec::new());
        assert!(report.stages.is_empty());
        assert_eq!(report.makespan_ms, 0.0);
        assert_eq!(report.measured_makespan_ms, 0.0);
        assert_eq!(report.overlap_efficiency(), 0.0);
        assert!(report.stats().is_empty());
        assert_eq!(report.phase_breakdown(), PhaseBreakdown::default());
    }

    #[test]
    fn labels_and_kinds_are_reported() {
        let load = ExecutedStage {
            label: "chunk 3 load".to_string(),
            ..rec(
                StageKind::ChunkLoad,
                Resource::Transfer(TransferLane::HostToDevice(1)),
                &[],
                1.0,
            )
        };
        let report = replay(vec![
            load,
            rec(StageKind::LocalTopK, Resource::Compute(1), &[0], 1.0),
            rec(StageKind::FinalTopK, Resource::Compute(1), &[1], 0.5),
        ]);
        assert_eq!(report.stages[0].label, "chunk 3 load");
        assert_eq!(report.stages[0].kind, StageKind::ChunkLoad);
        assert!(report.stages[0].kind.is_transfer());
        assert_eq!(report.stages[2].label, "final_topk");
        assert_eq!(
            format!("{}", StageKind::BucketTopKPrime),
            "bucket_topk_prime"
        );
    }

    /// Two chunk loads on one host→device lane, each feeding a compute
    /// stage, and a final selection over both; `measured[i]` is when the
    /// host ran stage `i` (a one-millisecond stage).
    fn two_resource_schedule(measured: &[f64; 5]) -> Vec<ExecutedStage> {
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let c0 = Resource::Compute(0);
        [
            rec(StageKind::ChunkLoad, lane, &[], 3.0),
            rec(StageKind::LocalTopK, c0, &[0], 4.0),
            rec(StageKind::ChunkLoad, lane, &[], 3.0),
            rec(StageKind::LocalTopK, c0, &[2], 4.0),
            rec(StageKind::FinalTopK, c0, &[1, 3], 0.0),
        ]
        .into_iter()
        .zip(measured)
        .map(|(stage, &at)| ExecutedStage {
            measured_start_ms: at,
            measured_end_ms: at + 1.0,
            ..stage
        })
        .collect()
    }

    /// Host timings of the two-resource schedule: every stage one after
    /// another in list order, the loads run ahead of the computes, and the
    /// second load overtaking the first compute.
    const HOST_ORDERS: [[f64; 5]; 3] = [
        [0.0, 1.0, 2.0, 3.0, 4.0],
        [0.0, 0.5, 0.2, 1.5, 2.5],
        [0.0, 2.0, 1.0, 3.0, 4.0],
    ];

    /// The modeled replay depends only on the recorded list: whether the
    /// host ran the stages one after another or overlapped them, every
    /// deterministic field is the same, and the measured fields pass
    /// through as recorded.
    #[test]
    fn threaded_and_serial_executors_agree_on_everything_deterministic() {
        let serial = replay(two_resource_schedule(&HOST_ORDERS[0]));
        for measured in &HOST_ORDERS[1..] {
            let overlapped = replay(two_resource_schedule(measured));
            assert_eq!(
                serial.deterministic_summary(),
                overlapped.deterministic_summary()
            );
            assert_eq!(
                serial.makespan_ms.to_bits(),
                overlapped.makespan_ms.to_bits()
            );
            for (stage, &at) in overlapped.stages.iter().zip(measured) {
                assert_eq!(stage.measured_start_ms, at);
                assert_eq!(stage.measured_ms(), 1.0);
            }
            let last = measured.iter().fold(0.0f64, |a, &b| a.max(b + 1.0));
            assert_eq!(overlapped.measured_makespan_ms, last);
        }
        assert_eq!(serial.measured_makespan_ms, 5.0);
        assert_eq!(serial.serial_ms(), 14.0);
    }

    #[test]
    fn attached_recorder_sees_the_report_bit_for_bit() {
        let rec = drtopk_obs::TraceRecorder::deterministic();
        let report = replay(two_resource_schedule(&HOST_ORDERS[1]));
        report.record_into(&rec);
        let spans = rec.spans();
        assert_eq!(spans.len(), report.stages.len());
        for (span, stage) in spans.iter().zip(&report.stages) {
            assert_eq!(span.start_ms.to_bits(), stage.start_ms.to_bits());
            assert_eq!(span.end_ms.to_bits(), stage.end_ms.to_bits());
            assert_eq!(span.kind, stage.kind.name());
            assert_eq!(span.label, stage.label);
            assert_eq!(span.track, stage.resource.label());
            assert_eq!(span.deps, stage.deps);
            assert!(span.queue_wait_ms >= 0.0);
        }
        // Deterministic mode: no events, measured fields zeroed.
        assert!(rec.events().is_empty());
        assert!(spans.iter().all(|s| s.measured_end_ms == 0.0));
    }

    /// Every host timing of the two-resource schedule exports the same
    /// deterministic trace.
    #[test]
    fn deterministic_traces_are_byte_identical_across_executors() {
        let trace_of = |measured: &[f64; 5]| {
            let rec = drtopk_obs::TraceRecorder::deterministic();
            replay(two_resource_schedule(measured)).record_into(&rec);
            rec.chrome_trace_json()
        };
        let serial = trace_of(&HOST_ORDERS[0]);
        for measured in &HOST_ORDERS[1..] {
            assert_eq!(serial, trace_of(measured));
        }
        drtopk_obs::validate_chrome_trace(&serial).unwrap();
    }

    fn cluster(devices: usize, capacity: usize) -> GpuCluster {
        let c = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
        for d in c.devices() {
            d.set_capacity_elems(capacity);
        }
        c
    }

    /// A live distributed run reports one dispatch event per stage, at the
    /// stage's measured start.
    #[test]
    fn full_recorder_collects_dispatch_events() {
        let rec = drtopk_obs::TraceRecorder::new();
        let data = topk_datagen::uniform(1 << 12, 5);
        let got = distributed_dr_topk(
            &cluster(2, 1 << 10),
            &data,
            16,
            &DrTopKConfig::default(),
            ReloadSchedule::DoubleBuffered,
            Some(&rec),
        );
        let dispatches: Vec<_> = rec
            .events()
            .into_iter()
            .filter(|e| e.kind == drtopk_obs::EventKind::Dispatch)
            .collect();
        assert_eq!(dispatches.len(), got.stages.stages.len(), "one per stage");
        for (event, stage) in dispatches.iter().zip(&got.stages.stages) {
            assert_eq!(event.label, stage.label);
            assert_eq!(event.at_ms, stage.measured_start_ms);
        }
        // In debug builds the verifier gate reports its pass too.
        #[cfg(debug_assertions)]
        assert!(rec
            .events()
            .iter()
            .any(|e| e.kind == drtopk_obs::EventKind::VerifierPass));
    }

    /// Two devices run their chunk chains on their own host threads, so
    /// their measured intervals overlap and the measured makespan lands
    /// below the sum of the stages' measured durations. Retried to shrug
    /// off scheduler jitter on loaded hosts.
    #[test]
    fn threaded_executor_overlaps_real_wall_clock() {
        let capacity = 1 << 16;
        let data = topk_datagen::uniform(capacity * 4, 23);
        let c = cluster(2, capacity);
        let mut attempts = Vec::new();
        for _ in 0..3 {
            let got = distributed_dr_topk(
                &c,
                &data,
                64,
                &DrTopKConfig::default(),
                ReloadSchedule::DoubleBuffered,
                None,
            );
            let report = got.stages;
            let serial: f64 = report.stages.iter().map(ExecutedStage::measured_ms).sum();
            attempts.push((report.measured_makespan_ms, serial));
            if report.measured_makespan_ms < serial {
                return;
            }
        }
        panic!("no attempt overlapped wall-clock: {attempts:?}");
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the sleep is the wall-clock noise under test
    fn deterministic_summary_excludes_measured_fields() {
        let summary = |sleep_ms: u64| {
            let mut serial = Serial::new(0);
            serial.stage(StageKind::SecondTopK, "second_topk", || {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                ((), outcome(1.5))
            });
            serial.finish().deterministic_summary()
        };
        let a = summary(2);
        let b = summary(0);
        assert_eq!(
            a, b,
            "wall-clock differences must not leak into the summary"
        );
        assert!(a.contains("second_topk"));
    }
}
