//! The stage IR, the stage-graph executor, and the serial recorder that
//! every single-device pipeline uses.
//!
//! Every Dr. Top-k run reports its work as stages:
//!
//! * a stage ([`StageKind`] + [`Resource`] + its work) is one schedulable
//!   piece of work — a paper phase ([`StageKind::DelegateConstruction`],
//!   [`StageKind::FirstTopK`], …), the approximate mode's bucket-top-k′
//!   candidate pass, or an out-of-core chunk load — bound to a
//!   [`Resource`] (a device's compute queue or a transfer lane) and to the
//!   stages it depends on;
//! * a single-device pipeline (the exact pipeline and its fallback, the
//!   approximate mode, the radix path, an engine pool unit) is a chain of
//!   dependent phases on one compute queue, so it runs them as plain calls
//!   and records each through [`Serial`], which builds the same
//!   [`StageReport`] the executor would;
//! * a [`StageGraph`] collects stages that can overlap — the distributed
//!   runner's chunk loads and per-device compute, the row-matrix blocks
//!   spread over several devices — plus a caller-owned context the stage
//!   closures read and write their buffers through;
//! * [`StageGraph::execute`] dispatches ready stages onto one host worker
//!   thread per modeled resource, with dependency events gating
//!   cross-resource handoff — so real wall-clock tracks the modeled
//!   makespan instead of the sum of all stages — and then *replays* the
//!   graph deterministically in modeled time on per-resource
//!   [`gpu_sim::Stream`]s: stages on the same resource serialize, stages on
//!   different resources overlap as far as their dependencies allow —
//!   which is exactly how double-buffered chunked ingestion hides
//!   host→device transfers behind compute. A graph that touches a single
//!   resource runs inline on the calling thread instead.
//! * `StageGraph::execute_in_order` runs the closures on the calling
//!   thread in one explicit dispatch order — the replay primitive of the
//!   schedule model checker ([`crate::explore`]).
//!
//! # Modeled vs measured time
//!
//! Every stage interval exists in two clocks. *Modeled* milliseconds come
//! from the simulator's analytic timing model and are **deterministic**: the
//! replay runs in insertion order regardless of how the host threads
//! interleaved, so `makespan_ms`, per-stage `start_ms`/`end_ms`, phase
//! breakdowns and kernel counters are bit-identical run to run (see
//! [`StageReport::deterministic_summary`]). *Measured* milliseconds are host
//! wall-clock timestamps taken around each closure
//! ([`ExecutedStage::measured_start_ms`] / [`ExecutedStage::measured_end_ms`],
//! [`StageReport::measured_makespan_ms`]) and vary run to run.
//!
//! Because graph stage closures run concurrently, they take `&C` (not
//! `&mut C`) and must be `Send`; the caller partitions or synchronizes the
//! context — per-device buffer slots behind `std::sync::Mutex`, say — so
//! that independent stages never contend for the same slot.
//!
//! The [`StageReport`] is the one instrumentation point: it carries every
//! executed stage's interval, the modeled makespan, the compute/transfer
//! split, the overlap efficiency, and a [`PhaseBreakdown`] derived from the
//! stage kinds — the pipeline, approximate, distributed and engine reports
//! are all views of it.

// Approved `std::sync` lock holder (see clippy.toml + ARCHITECTURE.md):
// the executor's slot table is the synchronization primitive everything
// else builds on.
#![allow(clippy::disallowed_types)]

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use drtopk_obs::{EventKind, ExecEvent, SpanRecord, TraceSink};
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
/// and its modeled duration. Buffers travel through the graph's context,
/// not through the outcome.
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

/// Handle to a stage within its graph, used to declare dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(usize);

type BoxedStage<'g, C> = Box<dyn FnOnce(&C) -> StageOutcome + Send + 'g>;
type PanicPayload = Box<dyn Any + Send>;

struct StageNode<'g, C> {
    kind: StageKind,
    label: String,
    resource: Resource,
    deps: Vec<usize>,
    run: BoxedStage<'g, C>,
}

/// The scheduling-relevant part of a stage, split from its closure so the
/// worker threads can consult dependencies while closures are moved into
/// per-resource worklists.
struct StageMeta {
    kind: StageKind,
    label: String,
    resource: Resource,
    deps: Vec<usize>,
}

/// What one closure invocation produced, plus its host wall-clock interval
/// relative to the executor's epoch.
struct RunRecord {
    outcome: StageOutcome,
    measured_start_ms: f64,
    measured_end_ms: f64,
}

/// Completion state of one stage slot under the threaded executor.
enum Slot {
    /// Not run yet.
    Pending,
    /// Ran to completion.
    Done(RunRecord),
    /// Panicked, or depends (transitively) on a stage that panicked.
    Poisoned,
}

fn ms_since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64() * 1e3
}

/// Emit a live executor event iff a sink is attached *and* wants events
/// (deterministic recorders do not — event timing is wall-clock). The
/// label is only cloned on the enabled path.
fn emit_event(sink: Option<&dyn TraceSink>, kind: EventKind, label: &str, at_ms: f64) {
    if let Some(s) = sink {
        if s.wants_events() {
            s.event(ExecEvent {
                kind,
                label: label.to_string(),
                at_ms,
            });
        }
    }
}

/// A DAG of [`Stage`](StageKind)s over a caller-owned context `C`.
///
/// Stages must be added in a topological order (every dependency's
/// [`StageId`] comes from an earlier `add` call on *this* graph — validated
/// at `add` time). Stage closures receive `&C` and communicate buffers
/// through it; because the threaded executor runs independent stages
/// concurrently, closures must be `Send` and any mutable state inside `C`
/// must be partitioned (per-device slots) or synchronized (`Mutex`). The
/// closure's return value is only the stage's instrumentation.
pub struct StageGraph<'g, C> {
    stages: Vec<StageNode<'g, C>>,
    /// Optional telemetry receiver; `None` (the default) costs one branch
    /// per emission site and nothing else.
    sink: Option<&'g dyn TraceSink>,
}

impl<'g, C> Default for StageGraph<'g, C> {
    fn default() -> Self {
        StageGraph::new()
    }
}

impl<'g, C> StageGraph<'g, C> {
    /// An empty graph.
    pub fn new() -> Self {
        StageGraph {
            stages: Vec::new(),
            sink: None,
        }
    }

    /// Attach a [`TraceSink`]: every `execute*` entry point will then
    /// record one span per executed stage (via
    /// [`StageReport::record_shifted`]) and live executor events —
    /// dispatches, dependency-gate wakes, and debug-build verifier passes.
    /// Detached graphs skip all of it.
    pub fn set_trace_sink(&mut self, sink: &'g dyn TraceSink) {
        self.sink = Some(sink);
    }

    /// Number of stages added so far.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when no stage has been added.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Add a stage with an explicit display label. `deps` are the stages
    /// whose completion this stage must wait for *across* resources;
    /// same-resource ordering is implicit (a resource is an in-order
    /// queue).
    ///
    /// # Panics
    ///
    /// Panics when a dependency does not name an earlier stage of this
    /// graph — e.g. a [`StageId`] minted by a *different* graph. Catching
    /// this at `add` time turns what used to be a bare out-of-bounds index
    /// deep inside `execute` into an immediate, attributable error.
    pub fn add_labeled(
        &mut self,
        kind: StageKind,
        label: impl Into<String>,
        resource: Resource,
        deps: &[StageId],
        run: impl FnOnce(&C) -> StageOutcome + Send + 'g,
    ) -> StageId {
        for dep in deps {
            assert!(
                dep.0 < self.stages.len(),
                "stage dependency StageId({}) does not name an earlier stage of this graph \
                 (the graph has {} stage(s)); StageIds are only valid within the graph whose \
                 `add` call minted them",
                dep.0,
                self.stages.len()
            );
        }
        let id = self.stages.len();
        self.stages.push(StageNode {
            kind,
            label: label.into(),
            resource,
            deps: deps.iter().map(|d| d.0).collect(),
            run: Box::new(run),
        });
        StageId(id)
    }

    /// Add a stage labeled by its kind.
    pub fn add(
        &mut self,
        kind: StageKind,
        resource: Resource,
        deps: &[StageId],
        run: impl FnOnce(&C) -> StageOutcome + Send + 'g,
    ) -> StageId {
        self.add_labeled(kind, kind.name(), resource, deps, run)
    }

    /// The scheduling-relevant description of every stage — kinds, labels,
    /// resources, dependencies — with the work closures stripped. This is
    /// the input shape of [`crate::verify::verify_specs`] and the
    /// schedule-enumeration substrate of [`crate::explore`].
    pub fn specs(&self) -> Vec<StageSpec> {
        self.stages
            .iter()
            .map(|node| StageSpec {
                kind: node.kind,
                label: node.label.clone(),
                resource: node.resource,
                deps: node.deps.clone(),
            })
            .collect()
    }

    /// Statically verify the graph with default [`VerifyOptions`],
    /// returning every [`Diagnostic`] (empty = clean). See
    /// [`crate::verify`] for the checks and their stable codes. In debug
    /// builds every `execute*` entry point runs this automatically and
    /// panics on findings.
    pub fn verify(&self) -> Vec<Diagnostic> {
        self.verify_with(&VerifyOptions::default())
    }

    /// Statically verify the graph with explicit [`VerifyOptions`] (e.g. a
    /// staging-buffer count enabling the `V010` double-buffer hazard
    /// analysis).
    pub fn verify_with(&self, opts: &VerifyOptions) -> Vec<Diagnostic> {
        verify_specs(&self.specs(), opts)
    }

    /// Debug-build gate: panic before running any closure when the graph
    /// fails verification. Release builds skip the check entirely. A clean
    /// pass is reported to an attached sink as a
    /// [`EventKind::VerifierPass`] event (at `t = 0`: verification precedes
    /// the executor epoch).
    fn debug_verify(&self) {
        debug_assert_verified("stage graph", || self.verify());
        if cfg!(debug_assertions) && self.sink.is_some() {
            emit_event(
                self.sink,
                EventKind::VerifierPass,
                &format!("{} stage(s) verified", self.stages.len()),
                0.0,
            );
        }
    }

    fn into_parts(self) -> (Vec<StageMeta>, Vec<BoxedStage<'g, C>>) {
        let mut metas = Vec::with_capacity(self.stages.len());
        let mut runs = Vec::with_capacity(self.stages.len());
        for node in self.stages {
            metas.push(StageMeta {
                kind: node.kind,
                label: node.label,
                resource: node.resource,
                deps: node.deps,
            });
            runs.push(node.run);
        }
        (metas, runs)
    }

    /// The single-resource path of [`StageGraph::execute`]: every closure
    /// on the calling thread, in insertion order, with no thread machinery
    /// (so closure panics propagate unchanged). Row graphs on one device
    /// (`topk_rows_on` with a single device) take it. Kept apart from
    /// `execute_in_order`'s replay loop on purpose: sharing that loop with
    /// an identity order once measured about 50% slower CPU time per call
    /// on `perfbench`'s `single_query` workload (2-core host), back when
    /// the exact pipeline still ran as a graph; all of it was inside the
    /// kernel bodies, and the cause was not isolated.
    fn run_serial(self, ctx: &C) -> StageReport {
        let sink = self.sink;
        let (metas, runs) = self.into_parts();
        let epoch = Instant::now();
        let records = runs
            .into_iter()
            .enumerate()
            .map(|(i, run)| {
                let measured_start_ms = ms_since(epoch);
                emit_event(
                    sink,
                    EventKind::Dispatch,
                    &metas[i].label,
                    measured_start_ms,
                );
                let outcome = run(ctx);
                RunRecord {
                    outcome,
                    measured_start_ms,
                    measured_end_ms: ms_since(epoch),
                }
            })
            .collect();
        finish_report(metas, records, sink)
    }

    /// Execute the graph.
    ///
    /// Host-side, ready stages dispatch onto one worker thread per modeled
    /// resource — dependency events gate cross-resource handoff, exactly
    /// like kernels launched on CUDA streams after `cudaStreamWaitEvent`s —
    /// so real wall-clock tracks the modeled makespan. A graph that touches
    /// a single resource (or none) runs inline on the calling thread, in
    /// insertion order: a lone worker could only replay that order anyway.
    /// Afterwards the graph is replayed in insertion order on modeled
    /// per-resource streams, so every modeled field of the report is
    /// deterministic regardless of how the host threads interleaved.
    ///
    /// The workers gate dependencies through a slot table + condvar. This
    /// is deadlock-free because `add_labeled`
    /// guarantees every dependency index is smaller than the stage's own
    /// index and each worker walks its list in insertion order: the
    /// globally smallest unfinished stage always has every dependency
    /// finished, so its worker can run it.
    #[allow(clippy::disallowed_methods)] // the stage executor is one of the two host-parallel layers
    pub fn execute(self, ctx: &C) -> StageReport
    where
        C: Sync,
    {
        self.debug_verify();
        let mut resources: Vec<Resource> = Vec::new();
        for node in &self.stages {
            if !resources.contains(&node.resource) {
                resources.push(node.resource);
            }
        }
        if resources.len() <= 1 {
            return self.run_serial(ctx);
        }
        let sink = self.sink;
        let (metas, runs) = self.into_parts();
        let n = metas.len();
        type Worklist<'g, C> = Vec<(usize, BoxedStage<'g, C>)>;
        let mut worklists: Vec<(Resource, Worklist<'g, C>)> =
            resources.into_iter().map(|r| (r, Vec::new())).collect();
        for (i, run) in runs.into_iter().enumerate() {
            let resource = metas[i].resource;
            worklists
                .iter_mut()
                .find(|(r, _)| *r == resource)
                .expect("every stage's resource was collected above")
                .1
                .push((i, run));
        }
        let slots: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| Slot::Pending).collect());
        let progressed = Condvar::new();
        let panics: Mutex<Vec<(usize, PanicPayload)>> = Mutex::new(Vec::new());
        let epoch = Instant::now();
        std::thread::scope(|scope| {
            for (_, work) in worklists {
                let metas = &metas;
                let slots = &slots;
                let progressed = &progressed;
                let panics = &panics;
                scope.spawn(move || {
                    for (i, run) in work {
                        let mut dep_poisoned;
                        let mut gated = false;
                        {
                            let mut guard = slots.lock().unwrap();
                            'scan: loop {
                                dep_poisoned = false;
                                for &dep in &metas[i].deps {
                                    match guard[dep] {
                                        Slot::Pending => {
                                            gated = true;
                                            guard = progressed.wait(guard).unwrap();
                                            continue 'scan;
                                        }
                                        Slot::Poisoned => dep_poisoned = true,
                                        Slot::Done(_) => {}
                                    }
                                }
                                break;
                            }
                        }
                        if gated {
                            emit_event(
                                sink,
                                EventKind::DepGateWake,
                                &metas[i].label,
                                ms_since(epoch),
                            );
                        }
                        let slot = if dep_poisoned {
                            Slot::Poisoned
                        } else {
                            let measured_start_ms = ms_since(epoch);
                            emit_event(
                                sink,
                                EventKind::Dispatch,
                                &metas[i].label,
                                measured_start_ms,
                            );
                            match std::panic::catch_unwind(AssertUnwindSafe(|| run(ctx))) {
                                Ok(outcome) => Slot::Done(RunRecord {
                                    outcome,
                                    measured_start_ms,
                                    measured_end_ms: ms_since(epoch),
                                }),
                                Err(payload) => {
                                    panics.lock().unwrap().push((i, payload));
                                    Slot::Poisoned
                                }
                            }
                        };
                        slots.lock().unwrap()[i] = slot;
                        progressed.notify_all();
                    }
                });
            }
        });
        let mut panics = panics.into_inner().unwrap();
        if !panics.is_empty() {
            // Re-raise the earliest stage's panic — the one an
            // insertion-order run would have hit first.
            panics.sort_by_key(|(i, _)| *i);
            std::panic::resume_unwind(panics.remove(0).1);
        }
        let records = slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(record) => record,
                Slot::Pending | Slot::Poisoned => {
                    unreachable!("non-panicking graphs complete every stage")
                }
            })
            .collect();
        finish_report(metas, records, sink)
    }

    /// Execute the stage closures on the calling thread in an explicit
    /// dispatch `order` — the schedule-replay primitive behind
    /// [`crate::explore::explore_schedules`]. The report is byte-identical
    /// (modeled fields) to [`StageGraph::execute`]'s: the modeled replay
    /// always runs in insertion order.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a dispatch order the threaded workers
    /// could take: it must be a permutation of `0..len()` in which every
    /// stage appears after all of its dependencies *and* after every
    /// earlier-inserted stage on its own resource (workers drain their
    /// worklists in FIFO order). Does not require `C: Sync` — everything
    /// runs on the calling thread.
    pub(crate) fn execute_in_order(self, ctx: &C, order: &[usize]) -> StageReport {
        self.debug_verify();
        let sink = self.sink;
        let (metas, runs) = self.into_parts();
        let n = metas.len();
        assert_eq!(
            order.len(),
            n,
            "dispatch order names {} stage(s) but the graph has {n}",
            order.len()
        );
        let mut done = vec![false; n];
        for &i in order {
            assert!(i < n, "dispatch order names stage {i} of a {n}-stage graph");
            assert!(!done[i], "dispatch order runs stage {i} twice");
            for &dep in &metas[i].deps {
                assert!(
                    done[dep],
                    "dispatch order runs stage {i} ('{}') before its dependency {dep}",
                    metas[i].label
                );
            }
            for (j, meta) in metas.iter().enumerate().take(i) {
                assert!(
                    meta.resource != metas[i].resource || done[j],
                    "dispatch order runs stage {i} ('{}') before stage {j} on the same \
                     resource; per-resource dispatch is FIFO in insertion order",
                    metas[i].label
                );
            }
            done[i] = true;
        }
        let mut runs: Vec<Option<BoxedStage<'g, C>>> = runs.into_iter().map(Some).collect();
        let mut records: Vec<Option<RunRecord>> = (0..n).map(|_| None).collect();
        let epoch = Instant::now();
        for &i in order {
            let run = runs[i].take().expect("order is a permutation");
            let measured_start_ms = ms_since(epoch);
            emit_event(
                sink,
                EventKind::Dispatch,
                &metas[i].label,
                measured_start_ms,
            );
            let outcome = run(ctx);
            records[i] = Some(RunRecord {
                outcome,
                measured_start_ms,
                measured_end_ms: ms_since(epoch),
            });
        }
        let records = records
            .into_iter()
            .map(|r| r.expect("every stage was dispatched"))
            .collect();
        finish_report(metas, records, sink)
    }
}

/// [`build_report`] plus span emission: both entry points funnel through
/// here, so an attached sink sees exactly the report's stages, in insertion
/// order — which is what makes deterministic traces byte-identical across
/// runs and dispatch orders.
fn finish_report(
    metas: Vec<StageMeta>,
    records: Vec<RunRecord>,
    sink: Option<&dyn TraceSink>,
) -> StageReport {
    let report = build_report(metas, records);
    if let Some(sink) = sink {
        report.record_into(sink);
    }
    report
}

/// Deterministic modeled replay: schedule every stage in insertion order on
/// its resource's stream, independent of how the host threads interleaved.
fn build_report(metas: Vec<StageMeta>, records: Vec<RunRecord>) -> StageReport {
    let mut streams: StreamSet<Resource> = StreamSet::new();
    let mut finished: Vec<gpu_sim::Event> = Vec::with_capacity(metas.len());
    let mut executed: Vec<ExecutedStage> = Vec::with_capacity(metas.len());
    let mut measured_makespan_ms: f64 = 0.0;
    for (meta, record) in metas.into_iter().zip(records) {
        let stream = streams.stream_mut(meta.resource);
        for &dep in &meta.deps {
            stream.wait_event(&finished[dep]);
        }
        let start_ms = stream.cursor_ms();
        let done = stream.launch(record.outcome.time_ms);
        measured_makespan_ms = measured_makespan_ms.max(record.measured_end_ms);
        executed.push(ExecutedStage {
            kind: meta.kind,
            label: meta.label,
            resource: meta.resource,
            deps: meta.deps,
            start_ms,
            end_ms: done.ready_at_ms(),
            measured_start_ms: record.measured_start_ms,
            measured_end_ms: record.measured_end_ms,
            stats: record.outcome.stats,
        });
        finished.push(done);
    }
    let makespan_ms = streams.makespan_ms();
    let serial_ms: f64 = executed.iter().map(ExecutedStage::duration_ms).sum();
    debug_assert!(
        makespan_ms <= serial_ms + 1e-9 * serial_ms.max(1.0),
        "modeled makespan ({makespan_ms} ms) must never exceed the serialized cost \
         ({serial_ms} ms); overlap can only hide time"
    );
    StageReport {
        stages: executed,
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
    /// Host wall-clock at which the stage closure started, in ms since the
    /// executor's epoch. **Not deterministic** — varies run to run.
    pub measured_start_ms: f64,
    /// Host wall-clock at which the stage closure returned, in ms since
    /// the executor's epoch. **Not deterministic** — varies run to run.
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
}

/// The executor's instrumentation: every scheduled stage plus the modeled
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
    /// completion. When [`StageGraph::execute`] runs stages of different
    /// resources on their own workers, they overlap in wall-clock and this
    /// falls below the sum of the stages' measured durations; for
    /// single-resource graphs and `StageGraph::execute_in_order` it is the
    /// serialized sum. **Not deterministic.**
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
    /// modeled makespan. Two runs of the same graph — in any dispatch
    /// order, any thread count — must produce identical strings; the
    /// determinism CI step and the executor stress test diff exactly this.
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
/// On one in-order queue the executor's modeled replay reduces to
/// `cursor += duration`, so a running sum of durations gives every modeled
/// start, end and the makespan bit for bit as [`StageGraph::execute`]
/// would. The exact, fallback, approximate and radix pipelines record their
/// phases with [`Serial::stage`]; the engine records a pool unit's shared
/// steps the same way and splices each member's own report in with
/// [`Serial::append`]. Measured times are host wall-clock since
/// [`Serial::new`].
pub struct Serial {
    resource: Resource,
    epoch: Instant,
    report: StageReport,
}

impl Serial {
    /// An empty schedule on `device`'s compute queue.
    pub fn new(device: usize) -> Self {
        Serial {
            resource: Resource::Compute(device),
            epoch: Instant::now(),
            report: StageReport::default(),
        }
    }

    /// Run `work` as the next stage, which waits on the previous one (a
    /// first stage waits on nothing), and return what the work produced
    /// besides its outcome.
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
        let deps = report.stages.len().checked_sub(1).into_iter().collect();
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

    fn outcome(ms: f64) -> StageOutcome {
        StageOutcome::new(KernelStats::default(), ms)
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
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let mut serial = Serial::new(0);
        let mut prev: Vec<StageId> = Vec::new();
        for (i, (kind, ms)) in CHAIN.into_iter().enumerate() {
            let alu_ops = i as u64;
            let done = StageOutcome::new(
                KernelStats {
                    alu_ops,
                    ..KernelStats::default()
                },
                ms,
            );
            let label = format!("stage {i}");
            prev = vec![g.add_labeled(kind, &label, Resource::Compute(0), &prev, move |_| done)];
            serial.stage(kind, label, || ((), done));
        }
        let recorded = serial.finish();
        let executed = g.execute(&());
        assert_eq!(
            executed.deterministic_summary(),
            recorded.deterministic_summary()
        );
        let sum = CHAIN.iter().fold(0.0f64, |acc, (_, ms)| acc + ms);
        assert_eq!(recorded.makespan_ms.to_bits(), sum.to_bits());
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
        let mut g: StageGraph<'_, Mutex<Vec<&'static str>>> = StageGraph::new();
        let a = g.add(
            StageKind::DelegateConstruction,
            Resource::Compute(0),
            &[],
            |log| {
                log.lock().unwrap().push("delegate");
                outcome(2.0)
            },
        );
        let b = g.add(StageKind::FirstTopK, Resource::Compute(0), &[a], |log| {
            log.lock().unwrap().push("first");
            outcome(1.0)
        });
        let c = g.add(StageKind::Concatenate, Resource::Compute(0), &[b], |log| {
            log.lock().unwrap().push("concat");
            outcome(0.0)
        });
        g.add(StageKind::SecondTopK, Resource::Compute(0), &[c], |log| {
            log.lock().unwrap().push("second");
            outcome(0.5)
        });
        let log = Mutex::new(Vec::new());
        let report = g.execute(&log);
        assert_eq!(
            log.into_inner().unwrap(),
            vec!["delegate", "first", "concat", "second"]
        );
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
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let l0 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(3.0));
        let c0 = g.add(StageKind::LocalTopK, Resource::Compute(0), &[l0], |_| {
            outcome(4.0)
        });
        let l1 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(3.0));
        let c1 = g.add(StageKind::LocalTopK, Resource::Compute(0), &[l1], |_| {
            outcome(4.0)
        });
        g.add(
            StageKind::FinalTopK,
            Resource::Compute(0),
            &[c0, c1],
            |_| outcome(0.0),
        );
        let report = g.execute(&());
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
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let l0 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(2.0));
        let l1 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(2.0));
        let c = g.add(
            StageKind::LocalTopK,
            Resource::Compute(0),
            &[l0, l1],
            |_| outcome(0.0),
        );
        g.add(StageKind::FinalTopK, Resource::Compute(0), &[c], |_| {
            outcome(0.0)
        });
        let report = g.execute(&());
        assert_eq!(report.stages[1].start_ms, 2.0);
        assert_eq!(report.makespan_ms, 4.0);
    }

    #[test]
    fn empty_graph_reports_zeroes() {
        let g: StageGraph<'_, ()> = StageGraph::new();
        assert!(g.is_empty());
        let report = g.execute(&());
        assert!(report.stages.is_empty());
        assert_eq!(report.makespan_ms, 0.0);
        assert_eq!(report.measured_makespan_ms, 0.0);
        assert_eq!(report.overlap_efficiency(), 0.0);
        assert!(report.stats().is_empty());
        assert_eq!(report.phase_breakdown(), PhaseBreakdown::default());
    }

    #[test]
    fn labels_and_kinds_are_reported() {
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let load = g.add_labeled(
            StageKind::ChunkLoad,
            "chunk 3 load",
            Resource::Transfer(TransferLane::HostToDevice(1)),
            &[],
            |_| outcome(1.0),
        );
        let local = g.add(StageKind::LocalTopK, Resource::Compute(1), &[load], |_| {
            outcome(1.0)
        });
        g.add(StageKind::FinalTopK, Resource::Compute(1), &[local], |_| {
            outcome(0.5)
        });
        let report = g.execute(&());
        assert_eq!(report.stages[0].label, "chunk 3 load");
        assert_eq!(report.stages[0].kind, StageKind::ChunkLoad);
        assert!(report.stages[0].kind.is_transfer());
        assert_eq!(
            format!("{}", StageKind::BucketTopKPrime),
            "bucket_topk_prime"
        );
    }

    /// The same two-resource graph, buildable repeatedly for
    /// dispatch-order equivalence tests.
    fn two_resource_graph(g: &mut StageGraph<'_, Mutex<Vec<u32>>>) {
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let l0 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(3.0));
        let c0 = g.add(StageKind::LocalTopK, Resource::Compute(0), &[l0], |log| {
            log.lock().unwrap().push(10);
            outcome(4.0)
        });
        let l1 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(3.0));
        let c1 = g.add(StageKind::LocalTopK, Resource::Compute(0), &[l1], |log| {
            log.lock().unwrap().push(20);
            outcome(4.0)
        });
        g.add(
            StageKind::FinalTopK,
            Resource::Compute(0),
            &[c0, c1],
            |log| {
                let sum = log.lock().unwrap().iter().sum();
                log.lock().unwrap().push(sum);
                outcome(1.0)
            },
        );
    }

    /// The serial side is `execute_in_order` in insertion order: every
    /// closure on the calling thread, one after another.
    #[test]
    fn threaded_and_serial_executors_agree_on_everything_deterministic() {
        let mut serial_graph = StageGraph::new();
        two_resource_graph(&mut serial_graph);
        let serial_log = Mutex::new(Vec::new());
        let serial = serial_graph.execute_in_order(&serial_log, &[0, 1, 2, 3, 4]);

        let mut threaded_graph = StageGraph::new();
        two_resource_graph(&mut threaded_graph);
        let threaded_log = Mutex::new(Vec::new());
        let threaded = threaded_graph.execute(&threaded_log);

        // Same context bits: the compute stages are chained on one
        // resource, so their side effects land in the same order.
        assert_eq!(
            serial_log.into_inner().unwrap(),
            threaded_log.into_inner().unwrap()
        );
        // Byte-identical modeled report.
        assert_eq!(
            serial.deterministic_summary(),
            threaded.deterministic_summary()
        );
        assert_eq!(serial.makespan_ms, threaded.makespan_ms);
        // Measured fields exist and are sane either way.
        for report in [&serial, &threaded] {
            for s in &report.stages {
                assert!(s.measured_end_ms >= s.measured_start_ms);
            }
            assert!(report.measured_makespan_ms >= 0.0);
        }
    }

    /// Every dispatch order the model checker can replay agrees with the
    /// threaded run, whose log is the chained compute stages' output.
    #[test]
    fn explore_executor_matches_threaded_results_and_summary() {
        let mut threaded_graph = StageGraph::new();
        two_resource_graph(&mut threaded_graph);
        let threaded_log = Mutex::new(Vec::new());
        let threaded = threaded_graph.execute(&threaded_log);
        assert_eq!(threaded_log.into_inner().unwrap(), vec![10, 20, 30]);

        let outcome = crate::explore::explore_schedules(
            || {
                let mut g = StageGraph::new();
                two_resource_graph(&mut g);
                (g, Mutex::new(Vec::new()))
            },
            |log: &Mutex<Vec<u32>>, _| log.lock().unwrap().clone(),
            crate::explore::ExploreBudget::default(),
        )
        .expect("the two-resource graph is schedule-invariant");
        // The second load may overtake the first compute stage or not.
        assert_eq!(outcome.schedules_run, 2);
        assert!(outcome.exhaustive);
        assert_eq!(
            threaded.deterministic_summary(),
            outcome.reference.deterministic_summary()
        );
    }

    #[test]
    fn attached_recorder_sees_the_report_bit_for_bit() {
        let rec = drtopk_obs::TraceRecorder::deterministic();
        let mut g = StageGraph::new();
        two_resource_graph(&mut g);
        g.set_trace_sink(&rec);
        let log = Mutex::new(Vec::new());
        let report = g.execute(&log);
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

    /// The threaded run and both legal single-thread dispatch orders
    /// (insertion order, and the second load overtaking the first compute
    /// stage) export the same deterministic trace.
    #[test]
    fn deterministic_traces_are_byte_identical_across_executors() {
        let trace_of = |order: Option<&[usize]>| {
            let rec = drtopk_obs::TraceRecorder::deterministic();
            let mut g = StageGraph::new();
            two_resource_graph(&mut g);
            g.set_trace_sink(&rec);
            let log = Mutex::new(Vec::new());
            match order {
                Some(order) => g.execute_in_order(&log, order),
                None => g.execute(&log),
            };
            rec.chrome_trace_json()
        };
        let serial = trace_of(Some(&[0, 1, 2, 3, 4]));
        assert_eq!(serial, trace_of(None));
        assert_eq!(serial, trace_of(Some(&[0, 2, 1, 3, 4])));
        drtopk_obs::validate_chrome_trace(&serial).unwrap();
    }

    #[test]
    fn full_recorder_collects_dispatch_events() {
        let rec = drtopk_obs::TraceRecorder::new();
        let mut g = StageGraph::new();
        two_resource_graph(&mut g);
        g.set_trace_sink(&rec);
        let log = Mutex::new(Vec::new());
        g.execute(&log);
        let dispatches = rec
            .events()
            .iter()
            .filter(|e| e.kind == drtopk_obs::EventKind::Dispatch)
            .count();
        assert_eq!(dispatches, 5, "one dispatch per stage");
        // In debug builds the verifier gate reports its pass too.
        #[cfg(debug_assertions)]
        assert!(rec
            .events()
            .iter()
            .any(|e| e.kind == drtopk_obs::EventKind::VerifierPass));
    }

    #[test]
    #[should_panic(expected = "per-resource dispatch is FIFO")]
    fn execute_in_order_rejects_fifo_violations() {
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let l0 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(1.0));
        let l1 = g.add(StageKind::ChunkLoad, lane, &[], |_| outcome(1.0));
        let c = g.add(
            StageKind::LocalTopK,
            Resource::Compute(0),
            &[l0, l1],
            |_| outcome(1.0),
        );
        g.add(StageKind::FinalTopK, Resource::Compute(0), &[c], |_| {
            outcome(1.0)
        });
        // Stage 1 before stage 0 on the shared host→device lane: no worker
        // could dispatch that.
        g.execute_in_order(&(), &[1, 0, 2, 3]);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // sleeps *are* the workload here
    fn threaded_executor_overlaps_real_wall_clock() {
        // Two independent 25 ms sleeps on different resources (a chunk
        // load feeding device 1, and device 0's own compute): the threaded
        // executor runs them concurrently, so the measured makespan lands
        // below the ~50 ms serialized sum. Retried to shrug off scheduler
        // jitter on loaded CI hosts.
        let sleepy = |ms: u64| {
            move |_: &()| {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                outcome(ms as f64)
            }
        };
        let mut attempts = Vec::new();
        for _ in 0..3 {
            let mut g: StageGraph<'_, ()> = StageGraph::new();
            let load = g.add(
                StageKind::ChunkLoad,
                Resource::Transfer(TransferLane::HostToDevice(1)),
                &[],
                sleepy(25),
            );
            let c0 = g.add(StageKind::LocalTopK, Resource::Compute(0), &[], sleepy(25));
            let c1 = g.add(StageKind::LocalTopK, Resource::Compute(1), &[load], |_| {
                outcome(0.0)
            });
            g.add(
                StageKind::FinalTopK,
                Resource::Compute(0),
                &[c0, c1],
                |_| outcome(0.0),
            );
            let report = g.execute(&());
            let serial: f64 = report.stages.iter().map(ExecutedStage::measured_ms).sum();
            attempts.push((report.measured_makespan_ms, serial));
            if report.measured_makespan_ms < serial {
                return;
            }
        }
        panic!("no attempt overlapped wall-clock: {attempts:?}");
    }

    #[test]
    #[should_panic(expected = "does not name an earlier stage")]
    fn cross_graph_stage_ids_are_rejected_at_add_time() {
        let mut other: StageGraph<'_, ()> = StageGraph::new();
        other.add(StageKind::FirstTopK, Resource::Compute(0), &[], |_| {
            outcome(1.0)
        });
        let foreign = other.add(StageKind::SecondTopK, Resource::Compute(0), &[], |_| {
            outcome(1.0)
        });
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        // `foreign` indexes stage 1 of `other`; `g` has no stages yet.
        g.add(
            StageKind::FirstTopK,
            Resource::Compute(0),
            &[foreign],
            |_| outcome(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "boom in stage closure")]
    fn threaded_executor_propagates_closure_panics() {
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        let bad = g.add(
            StageKind::ChunkLoad,
            Resource::Transfer(TransferLane::HostToDevice(0)),
            &[],
            |_| panic!("boom in stage closure"),
        );
        // A dependent on another resource must not deadlock waiting for
        // the poisoned stage.
        let local = g.add(StageKind::LocalTopK, Resource::Compute(0), &[bad], |_| {
            outcome(1.0)
        });
        g.add(StageKind::FinalTopK, Resource::Compute(0), &[local], |_| {
            outcome(1.0)
        });
        g.execute(&());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the sleep is the wall-clock noise under test
    fn deterministic_summary_excludes_measured_fields() {
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        g.add(StageKind::SecondTopK, Resource::Compute(0), &[], |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            outcome(1.5)
        });
        let a = g.execute(&()).deterministic_summary();
        let mut g: StageGraph<'_, ()> = StageGraph::new();
        g.add(StageKind::SecondTopK, Resource::Compute(0), &[], |_| {
            outcome(1.5)
        });
        let b = g.execute(&()).deterministic_summary();
        assert_eq!(
            a, b,
            "wall-clock differences must not leak into the summary"
        );
        assert!(a.contains("second_topk"));
    }
}
