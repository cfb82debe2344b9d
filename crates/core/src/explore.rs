//! Schedule-space exploration — a loom-style model checker for the
//! threaded stage-graph executor.
//!
//! The threaded executor ([`StageGraph::execute`]) dispatches stages onto
//! one host worker per resource; which *global* interleaving actually runs
//! depends on OS scheduling. Correctness therefore rests on a claim the
//! test suite cannot check by running the executor a few times: **every**
//! dispatch order the workers could take yields the same result. This
//! module checks exactly that claim, the way [loom] checks atomics — by
//! enumerating the schedule space and running each schedule for real:
//!
//! 1. Build the graph once and extract its [`StageSpec`]s.
//! 2. Depth-first enumerate the distinct dispatch orders the per-resource
//!    FIFO workers could take: at every step the *ready set* is the stages
//!    whose dependencies are complete and whose resource has no earlier
//!    pending stage; each choice forks a branch. A state with pending
//!    stages and an empty ready set is a deadlock and fails exploration
//!    immediately.
//! 3. Run every enumerated order serially through
//!    `StageGraph::execute_in_order` on a freshly built graph + context,
//!    and require (a) byte-identical
//!    [`deterministic_summary`](crate::stages::StageReport::deterministic_summary)
//!    strings and (b) equal caller-defined result fingerprints (bit
//!    patterns of the winners, say) across **all** interleavings.
//!
//! The first divergence aborts exploration with a [`Divergence`] naming
//! the schedule and what differed — a seeded missing-dependency bug
//! surfaces here as two interleavings disagreeing on the result. Graphs
//! whose schedule count exceeds the budget fall back to seeded random
//! sampling ([`ExploreBudget::Sampled`]) so exploration stays bounded.
//!
//! [loom]: https://github.com/tokio-rs/loom

use crate::stages::{StageGraph, StageReport};
use crate::verify::StageSpec;

/// How much of the schedule space to cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreBudget {
    /// Enumerate every distinct dispatch order, up to `max_schedules`;
    /// beyond the cap, exploration stops early and reports
    /// [`ExploreOutcome::exhaustive`] `= false`.
    Exhaustive {
        /// Hard cap on enumerated schedules.
        max_schedules: usize,
    },
    /// Run `schedules` uniformly sampled dispatch orders from a seeded
    /// xorshift generator — bounded and reproducible, for graphs whose
    /// full schedule space is astronomical.
    Sampled {
        /// Number of sampled schedules to run.
        schedules: usize,
        /// RNG seed (0 is remapped to a fixed nonzero constant; xorshift
        /// has an absorbing all-zero state).
        seed: u64,
    },
}

impl Default for ExploreBudget {
    fn default() -> Self {
        ExploreBudget::Exhaustive {
            max_schedules: 4096,
        }
    }
}

/// What a successful exploration covered.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Number of distinct dispatch orders actually run.
    pub schedules_run: usize,
    /// Whether the run covered the *entire* schedule space (always `false`
    /// for [`ExploreBudget::Sampled`]; `false` for
    /// [`ExploreBudget::Exhaustive`] when the cap was hit).
    pub exhaustive: bool,
    /// Number of stages in the explored graph.
    pub stages: usize,
    /// The reference report (from the first schedule) every other schedule
    /// was compared against.
    pub reference: StageReport,
}

/// Two interleavings disagreed — the executor's determinism claim is
/// falsified for this graph.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index (in enumeration order) of the diverging schedule; schedule 0
    /// is the reference.
    pub schedule_index: usize,
    /// The diverging dispatch order (stage indices in dispatch sequence).
    pub order: Vec<usize>,
    /// What differed: `"deterministic summary"`, `"result fingerprint"`,
    /// or `"deadlock"`.
    pub what: String,
    /// The reference schedule's value (or a description, for deadlocks).
    pub expected: String,
    /// The diverging schedule's value.
    pub found: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule #{} (dispatch order {:?}) diverged on {}: expected {}, found {}",
            self.schedule_index, self.order, self.what, self.expected, self.found
        )
    }
}

impl std::error::Error for Divergence {}

/// The dispatch frontier: stages whose dependencies are all complete and
/// whose resource has no earlier pending stage (workers drain their
/// worklists in insertion order).
fn ready_set(specs: &[StageSpec], done: &[bool]) -> Vec<usize> {
    (0..specs.len())
        .filter(|&i| {
            !done[i]
                && specs[i].deps.iter().all(|&d| done[d])
                && (0..i).all(|j| done[j] || specs[j].resource != specs[i].resource)
        })
        .collect()
}

/// Depth-first enumeration of distinct dispatch orders, capped at
/// `max_schedules`. Returns `(orders, exhaustive)`; an order shorter than
/// the stage count marks a deadlocked branch (empty ready set with pending
/// stages).
fn enumerate_orders(specs: &[StageSpec], max_schedules: usize) -> (Vec<Vec<usize>>, bool) {
    let n = specs.len();
    let mut orders: Vec<Vec<usize>> = Vec::new();
    let mut exhaustive = true;
    let mut done = vec![false; n];
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    fn dfs(
        specs: &[StageSpec],
        done: &mut Vec<bool>,
        prefix: &mut Vec<usize>,
        orders: &mut Vec<Vec<usize>>,
        exhaustive: &mut bool,
        max_schedules: usize,
    ) {
        if orders.len() >= max_schedules {
            *exhaustive = false;
            return;
        }
        if prefix.len() == specs.len() {
            orders.push(prefix.clone());
            return;
        }
        let ready = ready_set(specs, done);
        if ready.is_empty() {
            // Deadlocked branch: record the stuck prefix as-is; the caller
            // turns it into a Divergence.
            orders.push(prefix.clone());
            return;
        }
        for i in ready {
            done[i] = true;
            prefix.push(i);
            dfs(specs, done, prefix, orders, exhaustive, max_schedules);
            prefix.pop();
            done[i] = false;
        }
    }
    dfs(
        specs,
        &mut done,
        &mut prefix,
        &mut orders,
        &mut exhaustive,
        max_schedules,
    );
    (orders, exhaustive)
}

/// One seeded random dispatch order (uniform choice from the ready set at
/// every step). Returns the order plus the advanced RNG state; a deadlock
/// shows up as a short order exactly like in the DFS.
fn sample_order(specs: &[StageSpec], state: &mut u64) -> Vec<usize> {
    let n = specs.len();
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let ready = ready_set(specs, &done);
        if ready.is_empty() {
            break;
        }
        // xorshift64 — no external RNG crates in this workspace.
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let pick = ready[(*state % ready.len() as u64) as usize];
        done[pick] = true;
        order.push(pick);
    }
    order
}

/// Explore the schedule space of the graph `build` constructs.
///
/// `build` must construct a fresh, identical `(graph, context)` pair on
/// every call — one per schedule. `fingerprint` maps the post-execution
/// context and report to a caller-defined equality witness (e.g. the bit
/// patterns of the winners); it must itself be deterministic.
///
/// Returns the coverage summary on success, or the first [`Divergence`]
/// (boxed — it carries the full diverging order) when any interleaving
/// deadlocks, produces a different deterministic summary, or produces a
/// different fingerprint than schedule 0.
///
/// # Panics
///
/// Panics when `build` returns graphs of different shapes across calls
/// (the dispatch orders of one shape are invalid for another) and in debug
/// builds when the graph fails [`StageGraph::verify`].
pub fn explore_schedules<'g, C, R, B, F>(
    mut build: B,
    mut fingerprint: F,
    budget: ExploreBudget,
) -> Result<ExploreOutcome, Box<Divergence>>
where
    B: FnMut() -> (StageGraph<'g, C>, C),
    F: FnMut(&C, &StageReport) -> R,
    R: PartialEq + std::fmt::Debug,
{
    let (probe_graph, probe_ctx) = build();
    let specs = probe_graph.specs();
    let n = specs.len();
    // The probe pair runs the first schedule; later schedules rebuild.
    let mut probe = Some((probe_graph, probe_ctx));
    let (orders, exhaustive) = match budget {
        ExploreBudget::Exhaustive { max_schedules } => {
            enumerate_orders(&specs, max_schedules.max(1))
        }
        ExploreBudget::Sampled { schedules, seed } => {
            let mut state = if seed == 0 { 0x9e3779b97f4a7c15 } else { seed };
            let orders = (0..schedules.max(1))
                .map(|_| sample_order(&specs, &mut state))
                .collect();
            (orders, false)
        }
    };

    let mut reference: Option<(String, R, StageReport)> = None;
    let mut schedules_run = 0usize;
    for (schedule_index, order) in orders.iter().enumerate() {
        if order.len() < n {
            return Err(Box::new(Divergence {
                schedule_index,
                order: order.clone(),
                what: "deadlock".into(),
                expected: format!("all {n} stage(s) dispatched"),
                found: format!(
                    "stuck after {} stage(s): dependencies and FIFO order leave no \
                     dispatchable stage",
                    order.len()
                ),
            }));
        }
        let (graph, ctx) = match probe.take() {
            Some(pair) => pair,
            None => build(),
        };
        let report = graph.execute_in_order(&ctx, order);
        let summary = report.deterministic_summary();
        let print = fingerprint(&ctx, &report);
        schedules_run += 1;
        match &reference {
            None => reference = Some((summary, print, report)),
            Some((ref_summary, ref_print, _)) => {
                if summary != *ref_summary {
                    return Err(Box::new(Divergence {
                        schedule_index,
                        order: order.clone(),
                        what: "deterministic summary".into(),
                        expected: ref_summary.clone(),
                        found: summary,
                    }));
                }
                if print != *ref_print {
                    return Err(Box::new(Divergence {
                        schedule_index,
                        order: order.clone(),
                        what: "result fingerprint".into(),
                        expected: format!("{ref_print:?}"),
                        found: format!("{print:?}"),
                    }));
                }
            }
        }
    }
    let reference = reference.map(|(_, _, report)| report).unwrap_or_default();
    Ok(ExploreOutcome {
        schedules_run,
        exhaustive,
        stages: n,
        reference,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test contexts are stage-graph contexts
mod tests {
    use super::*;
    use crate::stages::{Resource, StageKind, StageOutcome};
    use std::sync::Mutex;

    fn outcome(ms: f64) -> StageOutcome {
        StageOutcome {
            stats: Default::default(),
            time_ms: ms,
        }
    }

    /// Two independent 2-stage chains on two compute queues plus a final
    /// join: the ready set always holds one stage per unfinished chain, so
    /// the dispatch orders are the interleavings of two length-2 sequences
    /// — C(4,2) = 6 of them.
    fn two_chain_build() -> (StageGraph<'static, Mutex<Vec<u64>>>, Mutex<Vec<u64>>) {
        let mut g: StageGraph<'static, Mutex<Vec<u64>>> = StageGraph::new();
        let a0 = g.add(StageKind::LocalTopK, Resource::Compute(0), &[], |log| {
            log.lock().unwrap().push(1);
            outcome(1.0)
        });
        let a1 = g.add(StageKind::LocalMerge, Resource::Compute(0), &[a0], |log| {
            log.lock().unwrap().push(2);
            outcome(1.0)
        });
        let b0 = g.add(StageKind::LocalTopK, Resource::Compute(1), &[], |log| {
            log.lock().unwrap().push(10);
            outcome(1.0)
        });
        let b1 = g.add(StageKind::LocalMerge, Resource::Compute(1), &[b0], |log| {
            log.lock().unwrap().push(20);
            outcome(1.0)
        });
        g.add(
            StageKind::FinalTopK,
            Resource::Compute(0),
            &[a1, b1],
            |log| {
                let sum: u64 = log.lock().unwrap().iter().sum();
                log.lock().unwrap().push(sum);
                outcome(1.0)
            },
        );
        (g, Mutex::new(Vec::new()))
    }

    #[test]
    fn enumerates_exactly_the_interleavings_of_two_chains() {
        let outcome = explore_schedules(
            two_chain_build,
            |ctx, _| *ctx.lock().unwrap().last().unwrap(),
            ExploreBudget::default(),
        )
        .expect("independent chains are schedule-invariant");
        assert_eq!(outcome.schedules_run, 6, "C(4,2) interleavings");
        assert!(outcome.exhaustive);
        assert_eq!(outcome.stages, 5);
        assert_eq!(outcome.reference.stages.len(), 5);
    }

    #[test]
    fn a_tight_cap_reports_non_exhaustive_coverage() {
        let outcome = explore_schedules(
            two_chain_build,
            |_, report| report.makespan_ms.to_bits(),
            ExploreBudget::Exhaustive { max_schedules: 3 },
        )
        .expect("the first three interleavings agree");
        assert_eq!(outcome.schedules_run, 3);
        assert!(!outcome.exhaustive);
    }

    #[test]
    fn sampling_is_seeded_and_bounded() {
        let run = |seed| {
            explore_schedules(
                two_chain_build,
                // The final stage's sum is order-invariant (unlike the raw
                // log, which the divergence test below exploits).
                |ctx, _| *ctx.lock().unwrap().last().unwrap(),
                ExploreBudget::Sampled { schedules: 8, seed },
            )
            .expect("schedule-invariant graph")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.schedules_run, 8);
        assert!(!a.exhaustive);
        assert_eq!(
            a.reference.deterministic_summary(),
            b.reference.deterministic_summary()
        );
        // Seed 0 must not wedge the xorshift state.
        let z = run(0);
        assert_eq!(z.schedules_run, 8);
    }

    #[test]
    fn order_dependent_side_effects_surface_as_a_fingerprint_divergence() {
        // The two chain heads race on a shared Vec with *no* dependency
        // between them; the final stage sums the log, which is
        // order-invariant, but the fingerprint reads the raw log order.
        let err = explore_schedules(
            two_chain_build,
            |ctx, _| ctx.lock().unwrap().clone(),
            ExploreBudget::default(),
        )
        .expect_err("the raw interleaving log differs across schedules");
        assert_eq!(err.what, "result fingerprint");
        assert!(err.schedule_index > 0);
        let rendered = format!("{err}");
        assert!(rendered.contains("result fingerprint"), "{rendered}");
    }
}
