//! Static verification of stage graphs — machine-checked structural
//! invariants with stable diagnostic codes.
//!
//! Every execution path in this workspace (exact, approximate, distributed,
//! row blocks, engine-fused units) *generates* its stage schedule
//! programmatically, so a planner bug no longer looks like "wrong stages" —
//! it looks like a queue that could never start, a phantom transfer on the
//! wrong lane, or a write-after-read on a staging buffer. This module
//! checks a schedule and reports every violation as a [`Diagnostic`] with
//! a stable [`DiagnosticCode`] (`V001`, `V002`, …) so tests can pin the
//! exact failure class:
//!
//! * **Shape** — dependency indices in range (`V001`), no dependency cycle
//!   (`V002`), no orphan stage whose output nothing consumes (`V003`).
//! * **Resource tags** — transfer kinds on transfer lanes and compute kinds
//!   on compute queues (`V004`), the *right* lane per kind (`V005`), chunk
//!   loads consumed on the device their lane feeds (`V006`).
//! * **Gather wiring** — a gather must have a source (`V007`, the PR-6
//!   "absent source" semantics) and its interconnect lane must match the
//!   device that produced its input (`V008`).
//! * **Deadlock freedom** — every resource is an in-order queue, which adds
//!   implicit insertion-order edges within every resource; a cycle through
//!   those queue edges (with an acyclic dependency graph) is a schedule no
//!   in-order device queue could run (`V009`).
//! * **Double-buffer hazards** — under a bounded staging-buffer count, a
//!   chunk load that reuses a buffer must be ordered after every consumer
//!   of the load it evicts (`V010`).
//! * **Paper-phase ordering** — delegate → first top-k → concatenate →
//!   second top-k chains must be well-formed, and the distributed kinds
//!   must chain load → local → merge → gather → final (`V011`).
//! * **Radix-chain integrity** — every radix narrowing stage (histogram,
//!   refine, candidate gather) must eventually feed a radix select
//!   (`V012`): narrowing work whose result never reaches a final selection
//!   is a broken large-k pipeline.
//!
//! [`StageReport::verify`](crate::stages::StageReport::verify) hands its
//! own stage list to [`verify_stages`]; in debug builds every runner
//! verifies the schedule it recorded (the distributed runner with its
//! staging-buffer count) and panics on any diagnostic, so the whole test
//! suite doubles as a verification corpus.
//! `docs/DIAGNOSTICS.md` tabulates every code.

use crate::stages::{ExecutedStage, Resource, StageKind, TransferLane};

/// Stable, machine-readable class of one verifier finding. The `V…` code
/// string ([`DiagnosticCode::code`]) is part of the crate's API: tests and
/// tooling match on it, and `docs/DIAGNOSTICS.md` documents every code
/// (a drift test keeps the table honest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// `V001` — a dependency index does not name a stage of the graph.
    DanglingDep,
    /// `V002` — the dependency edges contain a cycle (includes
    /// self-dependencies); no schedule can satisfy it.
    DepCycle,
    /// `V003` — a non-terminal stage has no dependents: its output is
    /// computed and then thrown away. Only [`StageKind::SecondTopK`],
    /// [`StageKind::FinalTopK`] and [`StageKind::RadixSelect`] may be
    /// sinks — they produce the answer.
    OrphanStage,
    /// `V004` — a transfer kind sits on a compute queue, or a compute kind
    /// on a transfer lane.
    ResourceKindMismatch,
    /// `V005` — a transfer kind sits on the wrong lane *class*: chunk
    /// loads belong on host→device lanes, gathers on interconnect lanes.
    WrongLane,
    /// `V006` — a chunk load on device `d`'s host→device lane feeds a
    /// compute stage on a *different* device's queue.
    CrossDeviceChunk,
    /// `V007` — a gather stage with no dependencies: there is no source
    /// whose winners it could move. Absent sources must emit no gather
    /// stage at all (the distributed planner's contract since PR 7).
    GatherWithoutSource,
    /// `V008` — a gather on `Interconnect(s)` whose input was produced on
    /// a device other than `s`: the modeled lane does not match the real
    /// data flow.
    GatherSourceMismatch,
    /// `V009` — the dependency edges are acyclic, but combined with each
    /// resource's in-order queue they form a cycle: no queue could start
    /// its next stage, as an in-order device queue would wait forever.
    QueueDeadlock,
    /// `V010` — under the declared staging-buffer count, a chunk load
    /// reuses a buffer before every consumer of the evicted load is
    /// ordered ahead of it: a write-after-read hazard.
    DoubleBufferHazard,
    /// `V011` — a paper-phase ordering violation: a stage depends on a
    /// kind that cannot legally precede it (e.g. a second top-k fed
    /// directly by a first top-k with no concatenation).
    PhaseOrder,
    /// `V012` — a radix-path stage ([`StageKind::RadixHistogram`],
    /// [`StageKind::RadixRefine`] or [`StageKind::CandidateGather`]) from
    /// which no [`StageKind::RadixSelect`] is reachable through dependent
    /// edges: the narrowing work never feeds a final selection, so the
    /// radix chain is broken.
    RadixChainBroken,
}

impl DiagnosticCode {
    /// Every diagnostic code, in `V001…` order. Kept exhaustive by a
    /// compile-time match in the drift tests: adding a variant without
    /// extending this list (and `docs/DIAGNOSTICS.md`) fails the build or
    /// the suite.
    pub const ALL: [DiagnosticCode; 12] = [
        DiagnosticCode::DanglingDep,
        DiagnosticCode::DepCycle,
        DiagnosticCode::OrphanStage,
        DiagnosticCode::ResourceKindMismatch,
        DiagnosticCode::WrongLane,
        DiagnosticCode::CrossDeviceChunk,
        DiagnosticCode::GatherWithoutSource,
        DiagnosticCode::GatherSourceMismatch,
        DiagnosticCode::QueueDeadlock,
        DiagnosticCode::DoubleBufferHazard,
        DiagnosticCode::PhaseOrder,
        DiagnosticCode::RadixChainBroken,
    ];

    /// The stable `V…` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticCode::DanglingDep => "V001",
            DiagnosticCode::DepCycle => "V002",
            DiagnosticCode::OrphanStage => "V003",
            DiagnosticCode::ResourceKindMismatch => "V004",
            DiagnosticCode::WrongLane => "V005",
            DiagnosticCode::CrossDeviceChunk => "V006",
            DiagnosticCode::GatherWithoutSource => "V007",
            DiagnosticCode::GatherSourceMismatch => "V008",
            DiagnosticCode::QueueDeadlock => "V009",
            DiagnosticCode::DoubleBufferHazard => "V010",
            DiagnosticCode::PhaseOrder => "V011",
            DiagnosticCode::RadixChainBroken => "V012",
        }
    }

    /// Short kebab-case name, used alongside the code in rendered
    /// diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            DiagnosticCode::DanglingDep => "dangling-dep",
            DiagnosticCode::DepCycle => "dep-cycle",
            DiagnosticCode::OrphanStage => "orphan-stage",
            DiagnosticCode::ResourceKindMismatch => "resource-kind-mismatch",
            DiagnosticCode::WrongLane => "wrong-lane",
            DiagnosticCode::CrossDeviceChunk => "cross-device-chunk",
            DiagnosticCode::GatherWithoutSource => "gather-without-source",
            DiagnosticCode::GatherSourceMismatch => "gather-source-mismatch",
            DiagnosticCode::QueueDeadlock => "queue-deadlock",
            DiagnosticCode::DoubleBufferHazard => "double-buffer-hazard",
            DiagnosticCode::PhaseOrder => "phase-order",
            DiagnosticCode::RadixChainBroken => "radix-chain-broken",
        }
    }
}

impl std::fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One verifier finding: a stable code, the offending stage (when the
/// finding is attributable to one), and a human-readable message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable failure class.
    pub code: DiagnosticCode,
    /// Index of the offending stage within the verified list, when the
    /// finding is attributable to a single stage.
    pub stage: Option<usize>,
    /// Human-readable description, with stage labels interpolated.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stage {
            Some(i) => write!(f, "{} @ stage {}: {}", self.code, i, self.message),
            None => write!(f, "{}: {}", self.code, self.message),
        }
    }
}

/// Knobs for context the graph alone does not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyOptions {
    /// Number of staging buffers each host→device lane cycles through
    /// (`Some(1)` for [`ReloadSchedule::Serial`], `Some(2)` for
    /// [`ReloadSchedule::DoubleBuffered`] — see
    /// [`ReloadSchedule::staging_buffers`]). `None` (the default for
    /// graphs with no reload schedule) skips the `V010` hazard analysis.
    ///
    /// [`ReloadSchedule::Serial`]: crate::distributed::ReloadSchedule::Serial
    /// [`ReloadSchedule::DoubleBuffered`]: crate::distributed::ReloadSchedule::DoubleBuffered
    /// [`ReloadSchedule::staging_buffers`]: crate::distributed::ReloadSchedule::staging_buffers
    pub staging_buffers: Option<usize>,
}

/// Which stage kinds a stage of `kind` may legally depend on — the
/// dependency-side encoding of the paper's phase order (`V011`). The rules
/// admit every graph the planners and the engine build, including a
/// composed engine unit where a member's own delegate pass chains behind
/// the unit's shared pass.
fn allowed_dep_kinds(kind: StageKind) -> &'static [StageKind] {
    use StageKind::*;
    match kind {
        // A rebuild pass may chain behind a shared pass (a composed engine
        // unit).
        DelegateConstruction | BucketTopKPrime => &[DelegateConstruction, BucketTopKPrime],
        // Normally fed by the β-delegate pass; in a composed engine unit an
        // exact-fallback member's first top-k can chain behind the unit's
        // shared k′ candidate pass instead, and a member that narrows the
        // unit's shared first top-k chains behind that selection.
        FirstTopK => &[DelegateConstruction, BucketTopKPrime, FirstTopK],
        Concatenate => &[FirstTopK],
        // Fed by the concatenation (exact), the candidate pass (approx), or
        // the shared delegate pass of a composed engine unit (a fallback
        // member's root); no deps on a lone fallback run.
        SecondTopK => &[Concatenate, BucketTopKPrime, DelegateConstruction],
        // A load waits (at most) for the compute that frees its staging
        // buffer.
        ChunkLoad => &[LocalTopK],
        LocalTopK => &[ChunkLoad],
        LocalMerge => &[LocalTopK, LocalMerge],
        Gather => &[LocalTopK, LocalMerge],
        FinalTopK => &[LocalTopK, LocalMerge, Gather],
        // The radix-select chain: the first histogram pass has no deps (or
        // waits on the chunk load that staged its input); each later pass
        // follows the previous refine; the gather follows the last refine;
        // the final select follows the gather.
        RadixHistogram => &[RadixRefine, ChunkLoad],
        RadixRefine => &[RadixHistogram],
        CandidateGather => &[RadixRefine],
        RadixSelect => &[CandidateGather],
    }
}

/// Kinds that may legally be sinks (no dependents): they produce the
/// query's answer. Everything else computes an intermediate someone must
/// consume.
fn is_terminal_kind(kind: StageKind) -> bool {
    matches!(
        kind,
        StageKind::SecondTopK | StageKind::FinalTopK | StageKind::RadixSelect
    )
}

/// Kahn's algorithm over `adj` (edge `u → v` means *u before v*): returns
/// the set of nodes on (or downstream-locked into) cycles, empty when the
/// graph is acyclic.
fn cyclic_nodes(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    let mut indeg = vec![0usize; n];
    for edges in adj {
        for &t in edges {
            indeg[t] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = ready.pop() {
        seen += 1;
        for &t in &adj[u] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    if seen == n {
        Vec::new()
    } else {
        (0..n).filter(|&i| indeg[i] > 0).collect()
    }
}

/// True when `to` is reachable from `from` over `adj` (reflexively).
fn reaches(adj: &[Vec<usize>], from: usize, to: usize) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(u) = stack.pop() {
        for &t in &adj[u] {
            if t == to {
                return true;
            }
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    false
}

/// The debug-build verification gate every replayed distributed schedule
/// and every [`Serial`](crate::stages::Serial) report goes through: panic
/// naming `what` and listing every diagnostic `verify` returns. Release builds
/// skip the check without calling `verify`.
#[track_caller]
pub(crate) fn debug_assert_verified(what: &str, verify: impl FnOnce() -> Vec<Diagnostic>) {
    if cfg!(debug_assertions) {
        let diags = verify();
        assert!(
            diags.is_empty(),
            "{what} failed verification:\n{}",
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Verify a stage list, returning every finding (empty = clean). Only each
/// stage's kind, label, resource and dependencies are read; tests build
/// lists by hand to verify raw (possibly deliberately broken) shapes.
///
/// Checks run in dependency order: if dependency indices are out of range
/// (`V001`) nothing else is checkable and the function returns early;
/// a dependency cycle (`V002`) suppresses the queue-deadlock and
/// staging-buffer analyses it would subsume; a queue deadlock (`V009`)
/// suppresses the staging-buffer analysis (which needs a schedulable
/// graph). All per-stage checks (`V003`–`V008`, `V011`, `V012`) always
/// run.
pub fn verify_stages(stages: &[ExecutedStage], opts: &VerifyOptions) -> Vec<Diagnostic> {
    let n = stages.len();
    let mut diags: Vec<Diagnostic> = Vec::new();

    // V001 — indices must be usable before anything else is.
    for (i, s) in stages.iter().enumerate() {
        for &d in &s.deps {
            if d >= n {
                diags.push(Diagnostic {
                    code: DiagnosticCode::DanglingDep,
                    stage: Some(i),
                    message: format!(
                        "'{}' depends on stage index {d}, but the graph has only {n} stage(s)",
                        s.label
                    ),
                });
            }
        }
    }
    if !diags.is_empty() {
        return diags;
    }

    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in stages.iter().enumerate() {
        for &d in &s.deps {
            dependents[d].push(i);
        }
    }

    // V004 / V005 — resource-tag consistency.
    for (i, s) in stages.iter().enumerate() {
        match (s.kind.is_transfer(), s.resource) {
            (true, Resource::Compute(d)) => diags.push(Diagnostic {
                code: DiagnosticCode::ResourceKindMismatch,
                stage: Some(i),
                message: format!(
                    "transfer stage '{}' ({}) sits on compute queue {d}, not a transfer lane",
                    s.label, s.kind
                ),
            }),
            (false, Resource::Transfer(lane)) => diags.push(Diagnostic {
                code: DiagnosticCode::ResourceKindMismatch,
                stage: Some(i),
                message: format!(
                    "compute stage '{}' ({}) sits on transfer lane {lane:?}",
                    s.label, s.kind
                ),
            }),
            (true, Resource::Transfer(lane)) => {
                let lane_ok = match s.kind {
                    StageKind::ChunkLoad => matches!(lane, TransferLane::HostToDevice(_)),
                    StageKind::Gather => matches!(lane, TransferLane::Interconnect(_)),
                    _ => true,
                };
                if !lane_ok {
                    diags.push(Diagnostic {
                        code: DiagnosticCode::WrongLane,
                        stage: Some(i),
                        message: format!(
                            "'{}' ({}) sits on lane {lane:?}; chunk loads belong on \
                             HostToDevice lanes and gathers on Interconnect lanes",
                            s.label, s.kind
                        ),
                    });
                }
            }
            (false, Resource::Compute(_)) => {}
        }
    }

    // V006 — a chunk load must feed compute on the device its lane targets.
    for (i, s) in stages.iter().enumerate() {
        let Resource::Transfer(TransferLane::HostToDevice(dst)) = s.resource else {
            continue;
        };
        if s.kind != StageKind::ChunkLoad {
            continue;
        }
        for &c in &dependents[i] {
            if let Resource::Compute(dev) = stages[c].resource {
                if dev != dst {
                    diags.push(Diagnostic {
                        code: DiagnosticCode::CrossDeviceChunk,
                        stage: Some(i),
                        message: format!(
                            "'{}' loads onto device {dst}'s lane but is consumed by '{}' \
                             on device {dev}'s compute queue",
                            s.label, stages[c].label
                        ),
                    });
                }
            }
        }
    }

    // V007 / V008 — gather wiring.
    for (i, s) in stages.iter().enumerate() {
        if s.kind != StageKind::Gather {
            continue;
        }
        if s.deps.is_empty() {
            diags.push(Diagnostic {
                code: DiagnosticCode::GatherWithoutSource,
                stage: Some(i),
                message: format!(
                    "'{}' gathers from no source; devices without data must emit no \
                     gather stage at all",
                    s.label
                ),
            });
        }
        if let Resource::Transfer(TransferLane::Interconnect(src)) = s.resource {
            for &d in &s.deps {
                if let Resource::Compute(dev) = stages[d].resource {
                    if dev != src {
                        diags.push(Diagnostic {
                            code: DiagnosticCode::GatherSourceMismatch,
                            stage: Some(i),
                            message: format!(
                                "'{}' occupies device {src}'s interconnect lane but its \
                                 input '{}' was produced on device {dev}",
                                s.label, stages[d].label
                            ),
                        });
                    }
                }
            }
        }
    }

    // V011 — paper-phase ordering (dependency-side rules).
    for (i, s) in stages.iter().enumerate() {
        for &d in &s.deps {
            if !allowed_dep_kinds(s.kind).contains(&stages[d].kind) {
                diags.push(Diagnostic {
                    code: DiagnosticCode::PhaseOrder,
                    stage: Some(i),
                    message: format!(
                        "{} stage '{}' may not depend on {} stage '{}'",
                        s.kind, s.label, stages[d].kind, stages[d].label
                    ),
                });
            }
        }
        if s.kind == StageKind::Concatenate && s.deps.is_empty() {
            diags.push(Diagnostic {
                code: DiagnosticCode::PhaseOrder,
                stage: Some(i),
                message: format!(
                    "concatenation stage '{}' has no first-top-k input to concatenate from",
                    s.label
                ),
            });
        }
    }

    // V012 — radix-chain integrity: every narrowing stage must reach a
    // radix select through dependent edges. Reachability (not exactly-one)
    // keeps composed/merged schedules legal.
    let selects: Vec<usize> = stages
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == StageKind::RadixSelect)
        .map(|(i, _)| i)
        .collect();
    for (i, s) in stages.iter().enumerate() {
        if !matches!(
            s.kind,
            StageKind::RadixHistogram | StageKind::RadixRefine | StageKind::CandidateGather
        ) {
            continue;
        }
        if !selects.iter().any(|&t| reaches(&dependents, i, t)) {
            diags.push(Diagnostic {
                code: DiagnosticCode::RadixChainBroken,
                stage: Some(i),
                message: format!(
                    "{} stage '{}' never feeds a radix select; its narrowing work is lost",
                    s.kind, s.label
                ),
            });
        }
    }

    // V003 — orphans: non-terminal stages nothing consumes.
    for (i, s) in stages.iter().enumerate() {
        if dependents[i].is_empty() && !is_terminal_kind(s.kind) {
            diags.push(Diagnostic {
                code: DiagnosticCode::OrphanStage,
                stage: Some(i),
                message: format!(
                    "{} stage '{}' has no dependents; its output is discarded",
                    s.kind, s.label
                ),
            });
        }
    }

    // V002 — dependency cycles make the remaining analyses meaningless.
    let mut dep_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in stages.iter().enumerate() {
        for &d in &s.deps {
            dep_adj[d].push(i);
        }
    }
    let cyc = cyclic_nodes(n, &dep_adj);
    if !cyc.is_empty() {
        diags.push(Diagnostic {
            code: DiagnosticCode::DepCycle,
            stage: cyc.first().copied(),
            message: format!("dependency edges form a cycle through stages {cyc:?}"),
        });
        return diags;
    }

    // V009 — deps ∪ per-resource FIFO order must stay acyclic: each
    // resource runs its stages in insertion order, so insertion order
    // within a resource is an implicit edge.
    let mut combined = dep_adj;
    let mut last_on_resource: Vec<(Resource, usize)> = Vec::new();
    for (i, s) in stages.iter().enumerate() {
        match last_on_resource.iter_mut().find(|(r, _)| *r == s.resource) {
            Some((_, prev)) => {
                combined[*prev].push(i);
                *prev = i;
            }
            None => last_on_resource.push((s.resource, i)),
        }
    }
    let qcyc = cyclic_nodes(n, &combined);
    if !qcyc.is_empty() {
        diags.push(Diagnostic {
            code: DiagnosticCode::QueueDeadlock,
            stage: qcyc.first().copied(),
            message: format!(
                "dependencies are acyclic, but combined with per-resource FIFO dispatch \
                 stages {qcyc:?} wait on each other forever"
            ),
        });
        return diags;
    }

    // V010 — write-after-read on the staging buffers: with B buffers per
    // host→device lane, the lane's load #l evicts load #(l − B)'s buffer
    // and must therefore be ordered after every consumer of that load.
    if let Some(buffers) = opts.staging_buffers {
        let buffers = buffers.max(1);
        let mut lanes: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, s) in stages.iter().enumerate() {
            if s.kind != StageKind::ChunkLoad {
                continue;
            }
            if let Resource::Transfer(TransferLane::HostToDevice(d)) = s.resource {
                match lanes.iter_mut().find(|(dev, _)| *dev == d) {
                    Some((_, loads)) => loads.push(i),
                    None => lanes.push((d, vec![i])),
                }
            }
        }
        for (dev, loads) in lanes {
            for l in buffers..loads.len() {
                let evicted = loads[l - buffers];
                for &consumer in &dependents[evicted] {
                    if !reaches(&combined, consumer, loads[l]) {
                        diags.push(Diagnostic {
                            code: DiagnosticCode::DoubleBufferHazard,
                            stage: Some(loads[l]),
                            message: format!(
                                "'{}' reuses one of device {dev}'s {buffers} staging \
                                 buffer(s), overwriting '{}' before its consumer '{}' is \
                                 guaranteed to have read it",
                                stages[loads[l]].label,
                                stages[evicted].label,
                                stages[consumer].label
                            ),
                        });
                    }
                }
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::stages::StageOutcome;

    /// A zero-duration stage labelled with its kind's name.
    fn spec(kind: StageKind, resource: Resource, deps: &[usize]) -> ExecutedStage {
        ExecutedStage::recorded(
            kind,
            kind.name(),
            resource,
            deps.to_vec(),
            StageOutcome::default(),
            0.0,
            0.0,
        )
    }

    fn codes(diags: &[Diagnostic]) -> Vec<DiagnosticCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn the_exact_pipeline_shape_is_clean() {
        let c = Resource::Compute(0);
        let stages = vec![
            spec(StageKind::DelegateConstruction, c, &[]),
            spec(StageKind::FirstTopK, c, &[0]),
            spec(StageKind::Concatenate, c, &[1]),
            spec(StageKind::SecondTopK, c, &[2]),
        ];
        assert!(verify_stages(&stages, &VerifyOptions::default()).is_empty());
    }

    #[test]
    fn dangling_deps_short_circuit() {
        let stages = vec![spec(StageKind::SecondTopK, Resource::Compute(0), &[7])];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert_eq!(codes(&diags), vec![DiagnosticCode::DanglingDep]);
        assert_eq!(diags[0].stage, Some(0));
        assert_eq!(diags[0].code.code(), "V001");
    }

    #[test]
    fn dependency_cycles_are_v002() {
        let c = Resource::Compute(0);
        let stages = vec![
            spec(StageKind::LocalMerge, c, &[1]),
            spec(StageKind::LocalMerge, c, &[0]),
            spec(StageKind::FinalTopK, c, &[0, 1]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert!(codes(&diags).contains(&DiagnosticCode::DepCycle));
    }

    #[test]
    fn fifo_order_deadlocks_are_v009_not_v002() {
        // Deps alone are acyclic (one edge 1 → 0), but stage 0 precedes
        // stage 1 in their shared queue's FIFO order: a real deadlock.
        let c = Resource::Compute(0);
        let stages = vec![
            spec(StageKind::LocalMerge, c, &[1]),
            spec(StageKind::LocalTopK, c, &[]),
            spec(StageKind::FinalTopK, c, &[0]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert!(codes(&diags).contains(&DiagnosticCode::QueueDeadlock));
        assert!(!codes(&diags).contains(&DiagnosticCode::DepCycle));
    }

    #[test]
    fn orphans_mismatches_and_lanes_each_get_their_code() {
        let h2d = Resource::Transfer(TransferLane::HostToDevice(0));
        let diags = verify_stages(
            &[spec(StageKind::ChunkLoad, h2d, &[])],
            &VerifyOptions::default(),
        );
        assert_eq!(codes(&diags), vec![DiagnosticCode::OrphanStage]);

        let diags = verify_stages(
            &[spec(StageKind::SecondTopK, h2d, &[])],
            &VerifyOptions::default(),
        );
        assert_eq!(codes(&diags), vec![DiagnosticCode::ResourceKindMismatch]);

        let diags = verify_stages(
            &[spec(StageKind::ChunkLoad, Resource::Compute(0), &[])],
            &VerifyOptions::default(),
        );
        assert!(codes(&diags).contains(&DiagnosticCode::ResourceKindMismatch));

        let ic = Resource::Transfer(TransferLane::Interconnect(1));
        let mut load = spec(StageKind::ChunkLoad, ic, &[]);
        load.label = "misplaced load".into();
        let ltk = spec(StageKind::LocalTopK, Resource::Compute(1), &[0]);
        let fin = spec(StageKind::FinalTopK, Resource::Compute(1), &[1]);
        let diags = verify_stages(&[load, ltk, fin], &VerifyOptions::default());
        assert!(codes(&diags).contains(&DiagnosticCode::WrongLane));
    }

    #[test]
    fn cross_device_chunk_consumption_is_v006() {
        let stages = vec![
            spec(
                StageKind::ChunkLoad,
                Resource::Transfer(TransferLane::HostToDevice(1)),
                &[],
            ),
            spec(StageKind::LocalTopK, Resource::Compute(0), &[0]),
            spec(StageKind::FinalTopK, Resource::Compute(0), &[1]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert_eq!(codes(&diags), vec![DiagnosticCode::CrossDeviceChunk]);
    }

    #[test]
    fn gather_wiring_violations_are_v007_and_v008() {
        let diags = verify_stages(
            &[
                spec(
                    StageKind::Gather,
                    Resource::Transfer(TransferLane::Interconnect(1)),
                    &[],
                ),
                spec(StageKind::FinalTopK, Resource::Compute(0), &[0]),
            ],
            &VerifyOptions::default(),
        );
        assert_eq!(codes(&diags), vec![DiagnosticCode::GatherWithoutSource]);

        let diags = verify_stages(
            &[
                spec(StageKind::LocalTopK, Resource::Compute(2), &[]),
                spec(
                    StageKind::Gather,
                    Resource::Transfer(TransferLane::Interconnect(1)),
                    &[0],
                ),
                spec(StageKind::FinalTopK, Resource::Compute(0), &[1]),
            ],
            &VerifyOptions::default(),
        );
        assert_eq!(codes(&diags), vec![DiagnosticCode::GatherSourceMismatch]);
    }

    #[test]
    fn phase_order_violations_are_v011() {
        let c = Resource::Compute(0);
        // Second top-k fed directly by the first top-k: the concatenation
        // phase was skipped outright.
        let stages = vec![
            spec(StageKind::DelegateConstruction, c, &[]),
            spec(StageKind::FirstTopK, c, &[0]),
            spec(StageKind::SecondTopK, c, &[1]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert_eq!(codes(&diags), vec![DiagnosticCode::PhaseOrder]);

        // A concatenation with nothing to concatenate from.
        let stages = vec![
            spec(StageKind::Concatenate, c, &[]),
            spec(StageKind::SecondTopK, c, &[0]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert_eq!(codes(&diags), vec![DiagnosticCode::PhaseOrder]);
    }

    /// The double-buffered distributed shape on one device: resident chunk
    /// 0, streamed chunks 1–3, loads waiting on the compute that frees
    /// their staging buffer.
    fn double_buffered_lane() -> Vec<ExecutedStage> {
        let lane = Resource::Transfer(TransferLane::HostToDevice(0));
        let c = Resource::Compute(0);
        vec![
            spec(StageKind::LocalTopK, c, &[]),     // 0: chunk 0 compute
            spec(StageKind::ChunkLoad, lane, &[]),  // 1: chunk 1 load
            spec(StageKind::LocalTopK, c, &[1]),    // 2: chunk 1 compute
            spec(StageKind::ChunkLoad, lane, &[0]), // 3: chunk 2 load
            spec(StageKind::LocalTopK, c, &[3]),    // 4: chunk 2 compute
            spec(StageKind::ChunkLoad, lane, &[2]), // 5: chunk 3 load
            spec(StageKind::LocalTopK, c, &[5]),    // 6: chunk 3 compute
            spec(StageKind::LocalMerge, c, &[0, 2, 4, 6]), // 7
            spec(StageKind::FinalTopK, c, &[7]),    // 8
        ]
    }

    #[test]
    fn staging_buffer_hazards_are_v010() {
        let stages = double_buffered_lane();
        let two = VerifyOptions {
            staging_buffers: Some(2),
        };
        assert!(verify_stages(&stages, &two).is_empty());

        // The same graph declared to own a single staging buffer: chunk 2's
        // load overwrites chunk 1 while chunk 1 may still be computing.
        let one = VerifyOptions {
            staging_buffers: Some(1),
        };
        let diags = verify_stages(&stages, &one);
        assert!(codes(&diags).contains(&DiagnosticCode::DoubleBufferHazard));

        // Dropping the buffer-release edge is caught even with 2 buffers.
        let mut missing = double_buffered_lane();
        missing[5].deps.clear();
        let diags = verify_stages(&missing, &two);
        assert!(codes(&diags).contains(&DiagnosticCode::DoubleBufferHazard));
    }

    #[test]
    fn the_radix_pipeline_shape_is_clean() {
        let c = Resource::Compute(0);
        // Two narrowing passes, then gather + select — the single-device
        // radix graph shape the large-k path builds.
        let stages = vec![
            spec(StageKind::RadixHistogram, c, &[]),
            spec(StageKind::RadixRefine, c, &[0]),
            spec(StageKind::RadixHistogram, c, &[1]),
            spec(StageKind::RadixRefine, c, &[2]),
            spec(StageKind::CandidateGather, c, &[3]),
            spec(StageKind::RadixSelect, c, &[4]),
        ];
        assert!(verify_stages(&stages, &VerifyOptions::default()).is_empty());
    }

    #[test]
    fn broken_radix_chains_are_v012() {
        let c = Resource::Compute(0);
        // The gather feeds a second top-k instead of a radix select: every
        // narrowing stage upstream loses its select.
        let stages = vec![
            spec(StageKind::RadixHistogram, c, &[]),
            spec(StageKind::RadixRefine, c, &[0]),
            spec(StageKind::CandidateGather, c, &[1]),
            spec(StageKind::SecondTopK, c, &[]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert!(codes(&diags).contains(&DiagnosticCode::RadixChainBroken));
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == DiagnosticCode::RadixChainBroken)
                .count(),
            3,
            "every narrowing stage of the broken chain is reported"
        );
        assert_eq!(DiagnosticCode::RadixChainBroken.code(), "V012");
        assert_eq!(
            DiagnosticCode::RadixChainBroken.name(),
            "radix-chain-broken"
        );
    }

    #[test]
    fn radix_select_may_be_a_sink_but_its_feeders_may_not() {
        let c = Resource::Compute(0);
        // A lone select is a legal terminal (degenerate one-stage graph)...
        let stages = vec![spec(StageKind::RadixSelect, c, &[])];
        assert!(verify_stages(&stages, &VerifyOptions::default()).is_empty());
        // ...but a refine nothing consumes is both an orphan and a broken
        // chain.
        let stages = vec![
            spec(StageKind::RadixHistogram, c, &[]),
            spec(StageKind::RadixRefine, c, &[0]),
        ];
        let diags = verify_stages(&stages, &VerifyOptions::default());
        assert!(codes(&diags).contains(&DiagnosticCode::OrphanStage));
        assert!(codes(&diags).contains(&DiagnosticCode::RadixChainBroken));
    }

    #[test]
    fn diagnostics_render_with_their_code() {
        let diags = verify_stages(
            &[spec(StageKind::SecondTopK, Resource::Compute(0), &[9])],
            &VerifyOptions::default(),
        );
        let rendered = format!("{}", diags[0]);
        assert!(
            rendered.starts_with("V001 dangling-dep @ stage 0"),
            "{rendered}"
        );
    }
}
