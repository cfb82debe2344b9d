//! The Dr. Top-k pipeline: delegate construction → first top-k →
//! concatenation → second top-k (Figure 3b), with per-phase breakdowns and
//! workload statistics.
//!
//! Every entry point is generic over [`TopKKey`], so the same pipeline
//! serves `u32`/`u64`/`i32`/`i64`/`f32`/`f64` workloads; the `u32`
//! monomorphization is byte-for-byte the historical one. [`dr_topk`]
//! answers top-k-*largest* by default and top-k-*smallest* (e.g. k-NN
//! distances) when [`DrTopKConfig::direction`] says so: the same machinery
//! runs over a zero-copy order-reversing view of the input (see
//! [`crate::direction`]).

use gpu_sim::{Device, KernelStats};
use std::cmp::Reverse;
use topk_baselines::{bitonic_topk, bucket_topk, radix_topk, RadixVariant, TopKKey, TopKResult};

use crate::approx::{dr_topk_approx_planned, expected_recall, required_budget, Mode, RecallTarget};
use crate::concat::concatenate;
use crate::delegate::{construct, ConstructionMethod, DelegateVector, Delegates};
use crate::direction::{as_desc, Direction};
use crate::first_topk::{narrow_first_topk, select_first_topk, FirstTopK};
use crate::radix_flags::flag_radix_topk;
use crate::radix_path::radix_dr_topk;
use crate::stages::{Serial, StageKind, StageOutcome, StageReport};
use crate::tuning::{auto_alpha, optimal_approx_tuning, ChosenPath, PathHint, PAPER_RULE4_CONST};

/// The top-k algorithms Dr. Top-k assists: the one that runs the second
/// top-k ([`DrTopKConfig::inner`]), and the same algorithm run stand-alone
/// on the whole input ([`InnerAlgorithm::run`]) as the baseline of Figures
/// 4 and 17–19.
///
/// ```
/// use drtopk_core::{dr_topk, DrTopKConfig, InnerAlgorithm};
/// use gpu_sim::{Device, DeviceSpec};
///
/// let device = Device::new(DeviceSpec::v100s());
/// let data: Vec<u32> = (0..50_000u32).map(|x| x.wrapping_mul(2654435761)).collect();
/// let alone = InnerAlgorithm::Bucket.run(&device, &data, 16);
/// let config = DrTopKConfig { inner: InnerAlgorithm::Bucket, ..DrTopKConfig::default() };
/// let assisted = dr_topk(&device, &data, 16, &config);
/// assert_eq!(alone.values, assisted.values);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InnerAlgorithm {
    /// The paper's optimized flag-based in-place radix top-k (default).
    FlagRadix,
    /// GGKS radix top-k.
    Radix,
    /// GGKS bucket top-k.
    Bucket,
    /// Bitonic top-k.
    Bitonic,
}

impl InnerAlgorithm {
    /// All inner algorithms evaluated by the paper's figures.
    pub const ALL: [InnerAlgorithm; 4] = [
        InnerAlgorithm::FlagRadix,
        InnerAlgorithm::Radix,
        InnerAlgorithm::Bucket,
        InnerAlgorithm::Bitonic,
    ];

    /// The three state-of-the-art algorithms the paper's §6 assists
    /// (Figures 4 and 17–19; the paper's own flag radix is not among them).
    pub const BASELINES: [InnerAlgorithm; 3] = [
        InnerAlgorithm::Radix,
        InnerAlgorithm::Bucket,
        InnerAlgorithm::Bitonic,
    ];

    /// Display name used by the harnesses.
    pub fn name(&self) -> &'static str {
        match self {
            InnerAlgorithm::FlagRadix => "flag-radix",
            InnerAlgorithm::Radix => "radix",
            InnerAlgorithm::Bucket => "bucket",
            InnerAlgorithm::Bitonic => "bitonic",
        }
    }

    /// Run this algorithm's top-k on `data`, on any key type.
    pub fn run<K: TopKKey>(&self, device: &Device, data: &[K], k: usize) -> TopKResult<K> {
        match self {
            InnerAlgorithm::FlagRadix => flag_radix_topk(device, data, k),
            InnerAlgorithm::Radix => radix_topk(device, data, k, RadixVariant::OutOfPlace),
            InnerAlgorithm::Bucket => bucket_topk(device, data, k),
            InnerAlgorithm::Bitonic => bitonic_topk(device, data, k),
        }
    }
}

impl std::fmt::Display for InnerAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a Dr. Top-k run.
#[derive(Debug, Clone)]
pub struct DrTopKConfig {
    /// Subrange exponent α (subrange size `2^α`). `None` applies Rule 4 with
    /// the paper's tuned constant, [`PAPER_RULE4_CONST`].
    pub alpha: Option<u32>,
    /// Number of delegates per subrange (β). The paper's sweep (Figure 9)
    /// finds β = 2 the best overall configuration.
    pub beta: usize,
    /// Delegate-top-k-enabled filtering (Rule 2). On by default.
    pub filtering: bool,
    /// Delegate construction kernel selection.
    pub construction: ConstructionMethod,
    /// Algorithm used for the second top-k. Row-blocks
    /// ([`topk_rows`](crate::rows::topk_rows)) ignore it and always use
    /// their warp-per-row selection: every inner algorithm is exact, so a
    /// row's values do not depend on it.
    pub inner: InnerAlgorithm,
    /// Skip the last radix pass of the first top-k (the paper enables this
    /// once β delegates + filtering absorb the lost precision on uniform-like
    /// data). Off by default, because on highly concentrated value
    /// distributions (e.g. ND) the relaxed threshold admits far too many
    /// subranges. The result stays exact either way: the relaxed threshold
    /// only admits more subranges into the second top-k.
    pub skip_last_first_pass: bool,
    /// Which execution path to run: the delegate pipeline, the multi-pass
    /// radix-select pipeline, or (the default) whichever
    /// [`choose_path_sampled`](crate::tuning::choose_path_sampled)
    /// predicts cheaper for the query's input and k on the executing
    /// device. Exact mode only: approximate plans and shared-delegate
    /// callers always use the delegate machinery.
    pub path: PathHint,
    /// Exact selection (the paper's pipeline, default) or recall-targeted
    /// approximate selection (see [`crate::approx`]). In the approximate
    /// mode the planner derives `alpha` and `beta` from the recall model
    /// (unless `alpha` is pinned, in which case only the per-bucket budget
    /// is derived), and the concatenation/refill phases are skipped.
    pub mode: Mode,
    /// Select the k largest keys (default, descending) or the k smallest
    /// (ascending). Every runner honours it.
    ///
    /// Top-k smallest is the natural entry point for k-nearest-neighbour
    /// search over native distances, with no caller-side bit flipping.
    ///
    /// ```
    /// use drtopk_core::{dr_topk, Direction, DrTopKConfig};
    /// use gpu_sim::{Device, DeviceSpec};
    ///
    /// let device = Device::new(DeviceSpec::v100s());
    /// let distances: Vec<f32> = (0..50_000u32)
    ///     .map(|x| (x.wrapping_mul(2654435761) % 100_000) as f32 * 0.125)
    ///     .collect();
    /// let config = DrTopKConfig { direction: Direction::Smallest, ..DrTopKConfig::default() };
    /// let nearest = dr_topk(&device, &distances, 10, &config);
    /// assert_eq!(nearest.values, topk_baselines::reference_topk_min(&distances, 10));
    /// assert!(nearest.values.windows(2).all(|w| w[0] <= w[1])); // closest first
    /// ```
    pub direction: Direction,
}

impl Default for DrTopKConfig {
    fn default() -> Self {
        DrTopKConfig {
            alpha: None,
            beta: 2,
            filtering: true,
            construction: ConstructionMethod::Auto,
            inner: InnerAlgorithm::FlagRadix,
            skip_last_first_pass: false,
            path: PathHint::Auto,
            mode: Mode::Exact,
            direction: Direction::Largest,
        }
    }
}

impl DrTopKConfig {
    /// The recommended configuration for a given problem size: Rule 4 α
    /// **eagerly resolved** from `n` and `k` (with the paper's tuned
    /// constant and the default β = 2), filtering on, automatic
    /// construction-kernel choice.
    ///
    /// The eagerly resolved α is identical to what the lazy
    /// [`Default`] configuration would resolve for the same `(n, k)`, but
    /// it is pinned in [`alpha`](DrTopKConfig::alpha), so the configuration
    /// can be logged, compared, or reused on same-shaped inputs without
    /// re-deriving it. Degenerate sizes are clamped the same way
    /// [`resolve_alpha`](DrTopKConfig::resolve_alpha) clamps them.
    pub fn auto(n: usize, k: usize) -> Self {
        let base = DrTopKConfig::default();
        let alpha = base.resolve_alpha(n, k);
        DrTopKConfig {
            alpha: Some(alpha),
            ..base
        }
    }

    /// The recommended recall-targeted approximate configuration: like
    /// [`Default`], but with [`mode`](DrTopKConfig::mode) set to
    /// `Mode::Approx` at the given expected-recall floor (a fraction in
    /// `(0, 1]`; 1.0 runs the exact pipeline). The planner derives the
    /// bucketing and per-bucket candidate budget from the recall model per
    /// query shape: the input is split into buckets, the top-`k'`
    /// candidates of each bucket are extracted, and the inner algorithm
    /// selects the top-k of the candidates — the exact pipeline's
    /// concatenation and refill passes never run.
    ///
    /// ```
    /// use drtopk_core::{dr_topk, measured_recall, DrTopKConfig};
    /// use gpu_sim::{Device, DeviceSpec};
    ///
    /// let device = Device::new(DeviceSpec::v100s());
    /// let data: Vec<u32> = (0..1u32 << 16).map(|x| x.wrapping_mul(2654435761)).collect();
    ///
    /// let got = dr_topk(&device, &data, 64, &DrTopKConfig::approx(0.95));
    /// assert_eq!(got.values.len(), 64);
    ///
    /// let exact = topk_baselines::reference_topk(&data, 64);
    /// assert!(measured_recall(&got.values, &exact) >= 0.9);
    /// // the second stage ran on a candidate vector, not the input
    /// assert!(got.workload.delegate_vector_len < data.len() / 4);
    /// assert_eq!(got.workload.concatenated_len, 0);
    /// ```
    pub fn approx(target_recall: f64) -> Self {
        DrTopKConfig {
            mode: Mode::Approx {
                target_recall: RecallTarget::from_fraction(target_recall),
            },
            ..DrTopKConfig::default()
        }
    }

    /// The initial maximum-delegate design of Section 4.1 (β = 1, no
    /// filtering) — the configuration behind Figure 6.
    pub fn max_delegate_only() -> Self {
        DrTopKConfig {
            beta: 1,
            filtering: false,
            ..DrTopKConfig::default()
        }
    }

    /// Maximum delegate with delegate-top-k-enabled filtering (Figure 7).
    pub fn with_filtering_only() -> Self {
        DrTopKConfig {
            beta: 1,
            filtering: true,
            ..DrTopKConfig::default()
        }
    }

    /// β delegate without filtering (one of the Figure 22 configurations).
    pub fn beta_only(beta: usize) -> Self {
        DrTopKConfig {
            beta,
            filtering: false,
            ..DrTopKConfig::default()
        }
    }

    /// Resolve the subrange exponent for an input of `n` elements.
    pub fn resolve_alpha(&self, n: usize, k: usize) -> u32 {
        match self.alpha {
            Some(a) => a,
            None => auto_alpha(n.max(2), k.max(1), self.beta, PAPER_RULE4_CONST),
        }
    }
}

/// Modeled time of each pipeline phase, in milliseconds.
///
/// Since the stage-graph refactor this is a *derived view* of a
/// [`StageReport`] (see
/// [`StageReport::phase_breakdown`](crate::stages::StageReport::phase_breakdown)):
/// compute phases and data movement are reported separately rather than
/// transfer time being folded into whichever phase happened to wait on it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Delegate vector construction (also the approximate mode's
    /// bucket-top-k′ candidate pass).
    pub delegate_ms: f64,
    /// First top-k (on the delegate vector).
    pub first_topk_ms: f64,
    /// Concatenation of the qualified subranges.
    pub concat_ms: f64,
    /// Second top-k (on the concatenated vector; includes the distributed
    /// runner's local/merge/final selection stages).
    pub second_topk_ms: f64,
    /// Host↔device and inter-device data movement (out-of-core chunk
    /// loads, the distributed gather). Zero for fully device-resident
    /// single-device runs.
    pub transfer_ms: f64,
}

impl PhaseBreakdown {
    /// Sum of all phases, *as if executed serially*. When transfers
    /// overlap compute (double-buffered ingestion) the run's real modeled
    /// makespan is lower; see
    /// [`StageReport::makespan_ms`](crate::stages::StageReport).
    pub fn total_ms(&self) -> f64 {
        self.delegate_ms
            + self.first_topk_ms
            + self.concat_ms
            + self.second_topk_ms
            + self.transfer_ms
    }

    /// `(phase name, ms)` pairs in pipeline order — the one place the
    /// field list is enumerated, so JSON snapshot exporters (benches, the
    /// engine report) cannot drift from the struct.
    pub fn entries(&self) -> [(&'static str, f64); 5] {
        [
            ("delegate_ms", self.delegate_ms),
            ("first_topk_ms", self.first_topk_ms),
            ("concat_ms", self.concat_ms),
            ("second_topk_ms", self.second_topk_ms),
            ("transfer_ms", self.transfer_ms),
        ]
    }
}

/// Field-wise sum: folds per-unit or per-chunk breakdowns into a total.
impl std::ops::AddAssign for PhaseBreakdown {
    fn add_assign(&mut self, rhs: PhaseBreakdown) {
        self.delegate_ms += rhs.delegate_ms;
        self.first_topk_ms += rhs.first_topk_ms;
        self.concat_ms += rhs.concat_ms;
        self.second_topk_ms += rhs.second_topk_ms;
        self.transfer_ms += rhs.transfer_ms;
    }
}

/// Workload statistics: the vector sizes each phase operated on (the
/// quantities plotted in Figures 20 and 21).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Input vector size |V|.
    pub input_len: usize,
    /// Delegate vector size (first top-k workload).
    pub delegate_vector_len: usize,
    /// Concatenated vector size (second top-k workload).
    pub concatenated_len: usize,
    /// Number of subranges the input was split into.
    pub num_subranges: usize,
    /// Number of subranges that fully qualified for concatenation.
    pub fully_taken_subranges: usize,
    /// Whether the Rule 3 special case fired (no fully-taken subranges: the
    /// concatenation scan and the second top-k were skipped entirely).
    pub second_topk_skipped: bool,
    /// Whether the delegate machinery was bypassed entirely and the inner
    /// algorithm ran directly on the input (tiny input, or `k` too large
    /// for delegate pruning to help). When set, `delegate_vector_len` and
    /// `concatenated_len` are both 0 — no delegate vector was built and no
    /// concatenation happened — so
    /// [`workload_fraction`](WorkloadStats::workload_fraction) honestly
    /// reports 0: the pipeline added no workload beyond the inner
    /// algorithm's own scan.
    pub fell_back: bool,
}

impl WorkloadStats {
    /// (delegate + concatenated) / |V| — the workload ratio the paper tracks.
    /// Always ≤ 1.0 on the fallback path (it is 0.0 there: nothing beyond
    /// the inner algorithm's own scan was touched).
    pub fn workload_fraction(&self) -> f64 {
        if self.input_len == 0 {
            return 0.0;
        }
        (self.delegate_vector_len + self.concatenated_len) as f64 / self.input_len as f64
    }
}

/// Result of a Dr. Top-k run.
#[derive(Debug, Clone)]
pub struct DrTopKResult<K: TopKKey = u32> {
    /// The selected values, best first: the k largest in descending order,
    /// or the k smallest in ascending order for [`Direction::Smallest`].
    pub values: Vec<K>,
    /// The k-th selected value (the selection threshold).
    pub kth_value: K,
    /// Subrange exponent α that was actually used.
    pub alpha: u32,
    /// Per-phase modeled times.
    pub breakdown: PhaseBreakdown,
    /// Vector-size statistics.
    pub workload: WorkloadStats,
    /// Counters accumulated across every kernel of the run.
    pub stats: KernelStats,
    /// Total modeled time in milliseconds (the stage schedule's makespan;
    /// equal to [`PhaseBreakdown::total_ms`] for fully serial
    /// single-device runs).
    pub time_ms: f64,
    /// The executed stage schedule this result was derived from — one
    /// entry per paper phase, with modeled start/end times and counters.
    pub stages: StageReport,
}

impl<K: TopKKey> DrTopKResult<K> {
    /// A run's result, with its time, phase breakdown and counters read off
    /// the stage report it recorded.
    pub(crate) fn from_report(
        (values, kth_value): (Vec<K>, K),
        alpha: u32,
        workload: WorkloadStats,
        stages: StageReport,
    ) -> Self {
        DrTopKResult {
            values,
            kth_value,
            alpha,
            breakdown: stages.phase_breakdown(),
            workload,
            stats: stages.stats(),
            time_ms: stages.makespan_ms,
            stages,
        }
    }
}

/// A query bound to a fully resolved execution plan: `k` clamped to the
/// input length, α pinned, and the delegate-vs-fallback decision already
/// made.
///
/// [`dr_topk`] is exactly [`PlannedQuery::plan`] followed by
/// [`dr_topk_planned`]; the two halves are public so a batching engine can
/// plan many queries against the same corpus up front and then execute them
/// against **one shared delegate vector** (built once with
/// [`build_delegate_vector`](crate::delegate::build_delegate_vector), or
/// recalled from a cache) instead of paying a full `|V|`-scan delegate
/// construction per query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The query's k, clamped to the input length the plan was made for.
    pub k: usize,
    /// Resolved subrange exponent (Rule 4 or the caller's explicit α).
    pub alpha: u32,
    /// Whether the delegate machinery applies. `false` means the inner
    /// algorithm runs directly on the input: the input is tiny, `k` is not
    /// smaller than the input, or `k` is not smaller than the delegate
    /// vector itself (Rule 2's threshold would not exist).
    pub use_delegates: bool,
    /// What the recall model predicts this plan returns: 1.0 for every
    /// exact plan (including approximate queries that fell back to the
    /// exact machinery), the modeled expected recall for a bucket-based
    /// approximate plan.
    pub predicted_recall: f64,
    /// The configuration the plan was resolved from, with α pinned so
    /// re-planning the same query is free. For approximate plans `beta`
    /// holds the derived per-bucket candidate budget, and `mode` is
    /// normalised to [`Mode::Exact`] when the approximate machinery could
    /// not apply (so execution routing can trust it).
    pub config: DrTopKConfig,
}

impl PlannedQuery {
    /// Resolve the execution plan of one query (`k` over an `n`-element
    /// input) under `config`. This performs the α resolution and the
    /// degenerate-split analysis of [`dr_topk`] without touching
    /// any data.
    pub fn plan(n: usize, k: usize, config: &DrTopKConfig) -> PlannedQuery {
        assert!(config.beta >= 1, "beta must be at least 1");
        let k = k.min(n);
        if let Some(target) = config.mode.strict_target() {
            if let Some(planned) = PlannedQuery::plan_approx(n, k, target, config) {
                return planned;
            }
            // The approximate machinery cannot apply (tiny input, k too
            // close to n, or no candidate set smaller than the input):
            // fall back to the exact path, whose recall trivially meets
            // any target. The mode is normalised so execution follows the
            // plan, not the original request.
            let exact_config = DrTopKConfig {
                mode: Mode::Exact,
                ..config.clone()
            };
            return PlannedQuery::plan(n, k, &exact_config);
        }
        let alpha = config.resolve_alpha(n, k);
        // Degenerate split: if the subrange count would be 1, the input is
        // tiny, or k is not smaller than the delegate vector itself (in
        // which case Rule 2's threshold — the k-th delegate — does not
        // exist and pruning is impossible anyway), the delegate machinery
        // cannot help — fall back to the inner algorithm directly, which is
        // what a production library should do.
        // An α outside construction's `1..32` has no delegate split at all
        // (and `1 << α` may not even fit), so it takes the same direct run.
        let use_delegates = (1..32).contains(&alpha) && {
            let subrange_size = 1usize << alpha;
            let num_subranges = n.div_ceil(subrange_size);
            let delegate_capacity =
                num_subranges.saturating_sub(1) * config.beta.min(subrange_size) + 1;
            k > 0 && n > subrange_size && n > k && k < delegate_capacity
        };
        PlannedQuery {
            k,
            alpha,
            use_delegates,
            predicted_recall: 1.0,
            config: DrTopKConfig {
                alpha: Some(alpha),
                ..config.clone()
            },
        }
    }

    /// Resolve a bucket-based approximate plan, or `None` when the
    /// approximate machinery cannot apply to this shape.
    ///
    /// With `config.alpha` unpinned the bucketing comes from
    /// [`optimal_approx_tuning`]; with a pinned α (how the engine holds a
    /// fused group on one shared candidate vector) only the per-bucket
    /// budget is derived, from the recall model at that α.
    fn plan_approx(
        n: usize,
        k: usize,
        target: RecallTarget,
        config: &DrTopKConfig,
    ) -> Option<PlannedQuery> {
        let (alpha, budget, predicted_recall) = match config.alpha {
            None => {
                let t = optimal_approx_tuning(n, k, target)?;
                (t.alpha, t.budget, t.predicted_recall)
            }
            Some(alpha) => {
                let bucket_size = 1usize.checked_shl(alpha)?;
                if k == 0 || k >= n || bucket_size >= n {
                    return None;
                }
                let num_buckets = n.div_ceil(bucket_size);
                // Same variance guard as `optimal_approx_tuning`: with
                // fewer than 2k buckets the recall model constrains only
                // the mean while the loss concentrates in hot buckets, so
                // a pinned α that cannot give 2k buckets falls back to
                // the exact machinery instead of over-promising.
                if num_buckets < 2 * k {
                    return None;
                }
                let budget = required_budget(k, num_buckets, target.with_planning_headroom());
                if budget > bucket_size
                    || num_buckets * budget >= n
                    || (num_buckets - 1) * budget + 1 < k
                {
                    return None;
                }
                (alpha, budget, expected_recall(k, num_buckets, budget))
            }
        };
        Some(PlannedQuery {
            k,
            alpha,
            use_delegates: true,
            predicted_recall,
            config: DrTopKConfig {
                alpha: Some(alpha),
                beta: budget,
                ..config.clone()
            },
        })
    }
}

/// Run Dr. Top-k on `data`: the k largest keys (or the k smallest, per
/// [`DrTopKConfig::direction`], whose docs show a k-nearest-neighbour
/// call) with per-phase breakdowns and workload statistics.
///
/// ```
/// use drtopk_core::{dr_topk, DrTopKConfig};
/// use gpu_sim::{Device, DeviceSpec};
///
/// let device = Device::new(DeviceSpec::v100s());
/// let data: Vec<u32> = (0..50_000u32).map(|x| x.wrapping_mul(2654435761)).collect();
/// let result = dr_topk(&device, &data, 5, &DrTopKConfig::default());
/// assert_eq!(result.values, topk_baselines::reference_topk(&data, 5));
/// assert_eq!(result.kth_value, result.values[4]);
/// ```
pub fn dr_topk<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    config: &DrTopKConfig,
) -> DrTopKResult<K> {
    let planned = PlannedQuery::plan(data.len(), k, config);
    dr_topk_planned(device, data, None, &planned)
}

/// Work a [`PlannedQuery`] reuses instead of doing it itself, so that many
/// queries over one corpus pay for it once (see [`dr_topk_planned`]).
#[derive(Debug, Clone, Copy)]
pub enum Shared<'a, K: TopKKey> {
    /// A delegate vector built once for many queries: the query skips
    /// phase 1, delegate construction.
    Delegates(&'a DelegateVector<K>),
    /// A delegate vector plus a first top-k already run on it by
    /// [`first_topk`](crate::first_topk::first_topk) at a k at least the
    /// query's (a fused unit's largest): the query also skips phase 2's
    /// selection, and narrows that first top-k to its own k in one pass
    /// over its winners. Exact plans only.
    Selected(&'a DelegateVector<K>, &'a FirstTopK<K>),
}

/// Execute a [`PlannedQuery`] on `data`, optionally reusing [`Shared`]
/// work.
///
/// When `shared` is `Some`, phase 1 (delegate construction) is skipped
/// entirely: the query charges **zero** delegate time and delegate kernel
/// counters to its own result — the provider of the shared vector accounts
/// for that one-time cost (this is how the batching engine amortizes one
/// delegate pass over a whole same-corpus batch, and how a delegate cache
/// makes repeat traffic on an unchanged corpus skip the `|V|` scan
/// altogether). With [`Shared::Selected`] the shared first top-k's
/// selection is likewise the provider's cost; the query charges only its
/// narrowing pass. The shared vector's direction, α, β and subrange count
/// are asserted against the plan; that it was built from *this* `data`,
/// and a shared first top-k from that vector, is an unchecked caller
/// contract — delegates of different same-length data pass the asserts
/// and silently select over the wrong corpus.
pub fn dr_topk_planned<K: TopKKey>(
    device: &Device,
    data: &[K],
    shared: Option<Shared<'_, K>>,
    planned: &PlannedQuery,
) -> DrTopKResult<K> {
    let config = &planned.config;
    let (shared_delegates, shared_first) = match shared {
        None => (None, None),
        Some(Shared::Delegates(delegates)) => (Some(delegates), None),
        Some(Shared::Selected(delegates, first)) => (Some(delegates), Some(first)),
    };
    if let Some(shared) = shared_delegates {
        assert_eq!(
            shared.direction, config.direction,
            "shared delegate vector was built for a different direction"
        );
        if planned.use_delegates && !data.is_empty() {
            assert_eq!(
                shared.subrange_size,
                1usize << planned.alpha,
                "shared delegate vector was built with a different alpha"
            );
            // An approximate plan accepts a larger candidate budget (more
            // candidates only raise recall); an exact plan needs its own β.
            if config.mode.strict_target().is_some() {
                assert!(
                    shared_first.is_none(),
                    "an approximate plan runs no first top-k to share"
                );
                assert!(
                    shared.beta >= config.beta,
                    "shared candidate budget {} is below the plan's {}",
                    shared.beta,
                    config.beta
                );
            } else {
                assert_eq!(
                    shared.beta, config.beta,
                    "shared delegate vector was built with a different beta"
                );
            }
            assert_eq!(
                shared.num_subranges,
                data.len().div_ceil(shared.subrange_size),
                "shared delegate vector does not cover this input"
            );
        }
    }
    let shared = shared_delegates.map(DelegateVector::view);
    match config.direction {
        Direction::Largest => run_planned(device, data, shared, shared_first, planned),
        Direction::Smallest => run_planned(
            device,
            as_desc(data),
            shared.map(Delegates::as_desc),
            shared_first.map(FirstTopK::to_desc).as_ref(),
            planned,
        )
        .into_native(),
    }
}

/// [`dr_topk_planned`] below the direction boundary: selects the largest
/// keys of `data` in `K`'s order, whatever the plan's direction says.
pub(crate) fn run_planned<K: TopKKey>(
    device: &Device,
    data: &[K],
    shared_delegates: Option<Delegates<'_, K>>,
    shared_first: Option<&FirstTopK<K>>,
    planned: &PlannedQuery,
) -> DrTopKResult<K> {
    let config = &planned.config;
    let k = planned.k.min(data.len());
    if k == 0 || data.is_empty() {
        let nothing = (Vec::new(), K::default());
        return DrTopKResult::from_report(
            nothing,
            0,
            WorkloadStats::default(),
            StageReport::default(),
        );
    }
    assert!(config.beta >= 1, "beta must be at least 1");
    let alpha = planned.alpha;

    if planned.use_delegates && config.mode.strict_target().is_some() {
        // Recall-targeted approximate path: per-bucket candidates, then the
        // inner top-k — no first top-k, no concatenation, no refill. The
        // path hint does not apply here (the bucket machinery has no radix
        // twin).
        return dr_topk_approx_planned(device, data, shared_delegates, planned);
    }

    // Exact-mode path routing: a pinned hint is obeyed, `Auto` defers to
    // the data-aware modeled crossover on the executing device's profile
    // (a sampled survival probe keeps duplicate-heavy inputs on the
    // delegate side; see `choose_path_sampled`). The crossover also covers
    // plans whose delegate machinery degenerated to one direct inner run —
    // since the sampled filter made the radix path a single input scan
    // plus O(k), it can beat even that at large k. A provided shared
    // delegate vector pins the delegate path — its construction is already
    // paid for, so escaping to radix would only waste it.
    if shared_delegates.is_none()
        && (config.path == PathHint::Radix
            || config.path.resolve_for(data, k, device.spec(), &mut None) == ChosenPath::Radix)
    {
        return radix_dr_topk(device, data, k, config);
    }

    if !planned.use_delegates {
        // Fallback: the inner algorithm runs directly on the input (one
        // stage). The workload statistics report the fallback honestly: no
        // delegate vector, no concatenation, one effective subrange.
        let mut serial = Serial::new(0);
        let inner = serial.stage(StageKind::SecondTopK, StageKind::SecondTopK.name(), || {
            let inner = config.inner.run(device, data, k);
            let outcome = StageOutcome::new(inner.stats, inner.time_ms);
            (inner, outcome)
        });
        let workload = WorkloadStats {
            input_len: data.len(),
            delegate_vector_len: 0,
            concatenated_len: 0,
            num_subranges: 1,
            fully_taken_subranges: 0,
            second_topk_skipped: false,
            fell_back: true,
        };
        let selected = (inner.values, inner.kth_value);
        return DrTopKResult::from_report(selected, alpha, workload, serial.finish());
    }

    // The exact pipeline: one stage per paper phase, run back to back on
    // this device's compute queue, each waiting on the one before.
    let mut serial = Serial::new(0);
    // Phase 1: delegate vector construction — the stage exists only when
    // the caller did not supply a shared vector (a shared pass's one-time
    // construction cost is accounted by its provider, not per query).
    let built;
    let delegates = match shared_delegates {
        Some(shared) => shared,
        None => {
            let kind = StageKind::DelegateConstruction;
            built = serial.stage(kind, kind.name(), || {
                let built = construct(device, data, alpha, config.beta, config.construction);
                let outcome = StageOutcome::new(built.stats, built.time_ms);
                (built, outcome)
            });
            built.view()
        }
    };

    // Phase 2: first top-k on the delegate vector, or the narrowing of a
    // shared one.
    let first = serial.stage(StageKind::FirstTopK, StageKind::FirstTopK.name(), || {
        let first = match shared_first {
            Some(unit) => narrow_first_topk(device, delegates, unit, k),
            None => select_first_topk(device, delegates, k, config.skip_last_first_pass),
        };
        let outcome = StageOutcome::new(first.stats, first.time_ms);
        (first, outcome)
    });

    // Phase 3: concatenation (Rule 1/3 subrange selection + Rule 2 filter).
    let concatenated = serial.stage(
        StageKind::Concatenate,
        StageKind::Concatenate.name(),
        || {
            let concatenated = concatenate(
                device,
                data,
                delegates.subrange_size,
                &first.fully_taken_subranges,
                &first.partial_delegate_values,
                first.threshold,
                config.filtering,
            );
            let outcome = StageOutcome::new(concatenated.stats, concatenated.time_ms);
            (concatenated, outcome)
        },
    );

    // Phase 4: second top-k on the concatenated vector — a zero-cost
    // stage when no subrange was fully taken and the taken delegates alone
    // already answer the query exactly (Figure 8b).
    let second_skipped = first.fully_taken_subranges.is_empty()
        && first.exact_threshold
        && concatenated.elements.len() == k;
    let selected = serial.stage(StageKind::SecondTopK, StageKind::SecondTopK.name(), || {
        if second_skipped {
            let mut vals = concatenated.elements.clone();
            vals.sort_unstable_by_key(|v| Reverse(v.to_bits()));
            let kth_value = vals.last().copied().unwrap_or_default();
            ((vals, kth_value), StageOutcome::default())
        } else {
            let inner = config.inner.run(device, &concatenated.elements, k);
            let outcome = StageOutcome::new(inner.stats, inner.time_ms);
            ((inner.values, inner.kth_value), outcome)
        }
    });
    let workload = WorkloadStats {
        input_len: data.len(),
        delegate_vector_len: delegates.len(),
        concatenated_len: concatenated.elements.len(),
        num_subranges: delegates.num_subranges,
        fully_taken_subranges: first.fully_taken_subranges.len(),
        second_topk_skipped: second_skipped,
        fell_back: false,
    };
    DrTopKResult::from_report(selected, alpha, workload, serial.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use topk_baselines::{reference_topk, reference_topk_min};
    use topk_datagen::Distribution;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn phase_breakdowns_add_field_by_field() {
        let mut total = PhaseBreakdown::default();
        let a = PhaseBreakdown {
            delegate_ms: 1.0,
            first_topk_ms: 2.0,
            concat_ms: 0.25,
            second_topk_ms: 4.0,
            transfer_ms: 0.5,
        };
        total += a;
        assert_eq!(total, a, "adding to zero is the identity");
        total += PhaseBreakdown {
            delegate_ms: 0.5,
            transfer_ms: 1.5,
            ..PhaseBreakdown::default()
        };
        assert_eq!(
            total,
            PhaseBreakdown {
                delegate_ms: 1.5,
                first_topk_ms: 2.0,
                concat_ms: 0.25,
                second_topk_ms: 4.0,
                transfer_ms: 2.0,
            }
        );
        assert_eq!(total.total_ms(), 9.75);
    }

    #[test]
    fn default_config_matches_reference_across_distributions_and_k() {
        let dev = device();
        for dist in Distribution::SYNTHETIC {
            let data = topk_datagen::generate(dist, 1 << 15, 11);
            for &k in &[1usize, 2, 64, 1000, 1 << 12] {
                let got = dr_topk(&dev, &data, k, &DrTopKConfig::default());
                assert_eq!(got.values, reference_topk(&data, k), "{dist} k={k}");
                assert_eq!(got.kth_value, *got.values.last().unwrap());
            }
        }
    }

    #[test]
    fn all_config_variants_are_correct() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 77);
        let k = 333;
        let expected = reference_topk(&data, k);
        let configs = [
            DrTopKConfig::max_delegate_only(),
            DrTopKConfig::with_filtering_only(),
            DrTopKConfig::beta_only(2),
            DrTopKConfig::beta_only(3),
            DrTopKConfig {
                beta: 4,
                ..DrTopKConfig::default()
            },
            DrTopKConfig {
                alpha: Some(6),
                ..DrTopKConfig::default()
            },
            DrTopKConfig {
                skip_last_first_pass: true,
                ..DrTopKConfig::default()
            },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            let got = dr_topk(&dev, &data, k, cfg);
            assert_eq!(got.values, expected, "config #{i}: {cfg:?}");
        }
    }

    /// Bit images, so float NaNs compare equal to themselves.
    fn bits<K: TopKKey>(values: &[K]) -> Vec<K::Bits> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_inner_algorithm_matches_the_reference_alone_and_assisted() {
        fn check<K: TopKKey>(dev: &Device, data: &[K], k: usize, keys: &str) {
            let largest = bits(&reference_topk(data, k));
            let smallest = bits(&reference_topk_min(data, k));
            for inner in InnerAlgorithm::ALL {
                let alone = inner.run(dev, data, k);
                assert_eq!(bits(&alone.values), largest, "{inner} alone on {keys}");
                for (direction, want) in [
                    (Direction::Largest, &largest),
                    (Direction::Smallest, &smallest),
                ] {
                    let cfg = DrTopKConfig {
                        inner,
                        direction,
                        ..DrTopKConfig::default()
                    };
                    let assisted = dr_topk(dev, data, k, &cfg);
                    assert_eq!(
                        &bits(&assisted.values),
                        want,
                        "{inner} assisted on {keys}, {direction:?}"
                    );
                }
            }
        }
        let dev = device();
        let ints = topk_datagen::uniform(1 << 13, 77);
        check(&dev, &ints, 99, "u32");
        // Values in [-1000, 0] with ±0 planted densely enough that the
        // top-99 boundary falls among them, and NaNs of both signs.
        let mut floats: Vec<f32> = ints
            .iter()
            .map(|&x| (x % 4001) as f32 * 0.25 - 1000.0)
            .collect();
        for i in 0..60 {
            floats[i * 131] = 0.0;
            floats[i * 131 + 57] = -0.0;
        }
        floats[8000] = f32::NAN;
        floats[8100] = -f32::NAN;
        check(&dev, &floats, 99, "f32");
        let wide: Vec<u64> = ints
            .iter()
            .zip(topk_datagen::uniform(1 << 13, 78))
            .map(|(&hi, lo)| (u64::from(hi) << 32) | u64::from(lo))
            .collect();
        check(&dev, &wide, 99, "u64");
    }

    #[test]
    fn all_inner_algorithms_are_correct() {
        let dev = device();
        let data = topk_datagen::normal(1 << 14, 5);
        let k = 200;
        let expected = reference_topk(&data, k);
        for inner in InnerAlgorithm::ALL {
            let cfg = DrTopKConfig {
                inner,
                ..DrTopKConfig::default()
            };
            assert_eq!(dr_topk(&dev, &data, k, &cfg).values, expected, "{inner}");
        }
    }

    #[test]
    fn real_world_proxies_are_correct() {
        let dev = device();
        for dist in Distribution::REAL_WORLD {
            let data = topk_datagen::generate(dist, 1 << 13, 3);
            let got = dr_topk(&dev, &data, 128, &DrTopKConfig::default());
            assert_eq!(got.values, reference_topk(&data, 128), "{dist}");
        }
    }

    #[test]
    fn generic_keys_match_reference() {
        let dev = device();
        let signed: Vec<i64> = topk_datagen::uniform(1 << 14, 23)
            .into_iter()
            .map(|x| x as i64 - (1 << 31))
            .collect();
        assert_eq!(
            dr_topk(&dev, &signed, 100, &DrTopKConfig::default()).values,
            reference_topk(&signed, 100)
        );
        let floats: Vec<f32> = topk_datagen::uniform(1 << 14, 29)
            .into_iter()
            .map(|x| (x as f32 / u32::MAX as f32) * 2000.0 - 1000.0)
            .collect();
        for inner in InnerAlgorithm::ALL {
            let cfg = DrTopKConfig {
                inner,
                ..DrTopKConfig::default()
            };
            assert_eq!(
                dr_topk(&dev, &floats, 64, &cfg).values,
                reference_topk(&floats, 64),
                "{inner} over f32"
            );
        }
    }

    #[test]
    fn dr_topk_min_returns_smallest_ascending() {
        let dev = device();
        let distances: Vec<f32> = topk_datagen::uniform(1 << 14, 31)
            .into_iter()
            .map(|x| (x % 100_000) as f32 * 0.125)
            .collect();
        let smallest = DrTopKConfig {
            direction: Direction::Smallest,
            ..DrTopKConfig::default()
        };
        let got = dr_topk(&dev, &distances, 50, &smallest);
        assert_eq!(got.values, reference_topk_min(&distances, 50));
        assert_eq!(got.kth_value, *got.values.last().unwrap());
        // u32 keys work through the same entry point
        let ints = topk_datagen::uniform(1 << 13, 5);
        let got = dr_topk(&dev, &ints, 17, &smallest);
        assert_eq!(got.values, reference_topk_min(&ints, 17));
    }

    #[test]
    fn dr_topk_min_ranks_nan_distances_last() {
        let dev = device();
        let mut distances: Vec<f32> = (0..4096).map(|i| 1.0 + (i % 977) as f32).collect();
        distances[7] = f32::NAN;
        distances[999] = f32::NAN;
        let smallest = DrTopKConfig {
            direction: Direction::Smallest,
            ..DrTopKConfig::default()
        };
        let got = dr_topk(&dev, &distances, 64, &smallest);
        assert!(
            got.values.iter().all(|v| !v.is_nan()),
            "NaN distances must never displace genuine neighbours"
        );
        assert_eq!(got.values, reference_topk_min(&distances, 64));
    }

    #[test]
    fn workload_reduction_is_substantial() {
        let dev = device();
        let n = 1 << 18;
        let data = topk_datagen::uniform(n, 9);
        let got = dr_topk(&dev, &data, 128, &DrTopKConfig::default());
        let frac = got.workload.workload_fraction();
        assert!(
            frac < 0.10,
            "delegate+concatenated should be a small fraction of |V|, got {frac}"
        );
        assert_eq!(got.workload.input_len, n);
        assert!(got.workload.delegate_vector_len > 0);
        assert!(got.workload.num_subranges > 1);
        assert!(!got.workload.fell_back);
    }

    #[test]
    fn filtering_shrinks_the_concatenated_vector() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 31);
        let k = 512;
        let without = dr_topk(&dev, &data, k, &DrTopKConfig::max_delegate_only());
        let with = dr_topk(&dev, &data, k, &DrTopKConfig::with_filtering_only());
        assert_eq!(without.values, with.values);
        assert!(
            with.workload.concatenated_len < without.workload.concatenated_len,
            "filtering: {} vs {}",
            with.workload.concatenated_len,
            without.workload.concatenated_len
        );
    }

    #[test]
    fn beta_delegate_reduces_concatenation_further() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 13);
        let k = 512;
        let beta1 = dr_topk(&dev, &data, k, &DrTopKConfig::with_filtering_only());
        let beta2 = dr_topk(&dev, &data, k, &DrTopKConfig::default());
        assert_eq!(beta1.values, beta2.values);
        // β = 2 lets Dr. Top-k skip subranges whose second delegate did not
        // qualify, so fewer subranges are fully taken.
        assert!(
            beta2.workload.fully_taken_subranges <= beta1.workload.fully_taken_subranges,
            "beta2 {} vs beta1 {}",
            beta2.workload.fully_taken_subranges,
            beta1.workload.fully_taken_subranges
        );
    }

    #[test]
    fn tiny_inputs_fall_back_to_inner_algorithm() {
        let dev = device();
        let data: Vec<u32> = (0..100u32).collect();
        let got = dr_topk(&dev, &data, 50, &DrTopKConfig::default());
        assert_eq!(got.values, reference_topk(&data, 50));
        let got = dr_topk(&dev, &data, 100, &DrTopKConfig::default());
        assert_eq!(got.values, reference_topk(&data, 100));
        assert!(dr_topk(&dev, &data, 0, &DrTopKConfig::default())
            .values
            .is_empty());
        assert!(dr_topk::<u32>(&dev, &[], 5, &DrTopKConfig::default())
            .values
            .is_empty());
    }

    #[test]
    fn fallback_stats_are_honest() {
        // Regression: the fallback path used to report
        // `concatenated_len = |V|` with `delegate_vector_len = 0`, making
        // `workload_fraction()` 1.0 while also claiming `num_subranges: 1`
        // against a resolved α that implies many subranges.
        let dev = device();
        let data: Vec<u32> = (0..100u32).collect();
        let got = dr_topk(&dev, &data, 50, &DrTopKConfig::default());
        let w = got.workload;
        assert!(w.fell_back, "k = |V|/2 on a tiny input must fall back");
        assert!(
            w.workload_fraction() <= 1.0,
            "fallback workload fraction {} must stay ≤ 1.0",
            w.workload_fraction()
        );
        assert_eq!(w.delegate_vector_len, 0, "no delegate vector was built");
        assert_eq!(w.concatenated_len, 0, "no concatenation happened");
        assert_eq!(w.num_subranges, 1);
        assert_eq!(w.fully_taken_subranges, 0);
        assert_eq!(w.input_len, data.len());
        // the non-fallback path keeps reporting real workloads
        let big = topk_datagen::uniform(1 << 15, 3);
        let got = dr_topk(&dev, &big, 64, &DrTopKConfig::default());
        assert!(!got.workload.fell_back);
        assert!(got.workload.delegate_vector_len > 0);
    }

    #[test]
    fn auto_config_pins_the_rule4_alpha() {
        // `auto(n, k)` must wire n and k into an eagerly resolved Rule 4 α
        // identical to what the lazy default would compute.
        let n = 1 << 20;
        let k = 1 << 7;
        let auto = DrTopKConfig::auto(n, k);
        let lazy = DrTopKConfig::default();
        assert_eq!(auto.alpha, Some(lazy.resolve_alpha(n, k)));
        assert_eq!(auto.resolve_alpha(n, k), lazy.resolve_alpha(n, k));
        // the pinned α is used even if the input later differs in size
        assert_eq!(auto.resolve_alpha(1 << 10, 1), auto.alpha.unwrap());
        // everything else matches the recommended defaults
        assert_eq!(auto.beta, lazy.beta);
        assert!(auto.filtering);
        // degenerate sizes are clamped, not panicking
        let tiny = DrTopKConfig::auto(0, 0);
        assert!(tiny.alpha.is_some());
        let dev = device();
        let data = topk_datagen::uniform(n, 41);
        let got = dr_topk(&dev, &data, k, &auto);
        assert_eq!(got.alpha, auto.alpha.unwrap());
        assert_eq!(got.values, reference_topk(&data, k));
    }

    #[test]
    fn duplicate_heavy_inputs_are_exact() {
        let dev = device();
        let mut data = vec![7u32; 1 << 14];
        for (i, x) in data.iter_mut().enumerate().take(100) {
            *x = 1000 + i as u32;
        }
        let got = dr_topk(&dev, &data, 150, &DrTopKConfig::default());
        assert_eq!(got.values, reference_topk(&data, 150));
    }

    #[test]
    fn breakdown_and_time_are_consistent() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 2);
        let got = dr_topk(&dev, &data, 256, &DrTopKConfig::default());
        let b = got.breakdown;
        assert!(b.delegate_ms > 0.0);
        assert!(b.first_topk_ms > 0.0);
        assert!((b.total_ms() - got.time_ms).abs() < 1e-9);
        assert!(got.stats.global_load_transactions > 0);
    }

    #[test]
    fn planned_query_splits_dr_topk_exactly() {
        // dr_topk == plan + execute: same values, same breakdown,
        // same counters — the seam adds nothing and loses nothing.
        let dev = device();
        let data = topk_datagen::uniform(1 << 15, 17);
        for k in [1usize, 64, 1 << 10] {
            let cfg = DrTopKConfig::default();
            let planned = PlannedQuery::plan(data.len(), k, &cfg);
            let via_seam = dr_topk_planned(&dev, &data, None, &planned);
            let direct = dr_topk(&dev, &data, k, &cfg);
            assert_eq!(via_seam.values, direct.values, "k={k}");
            assert_eq!(via_seam.alpha, direct.alpha);
            assert_eq!(via_seam.stats, direct.stats);
            assert_eq!(via_seam.workload, direct.workload);
            assert!((via_seam.time_ms - direct.time_ms).abs() < 1e-12);
        }
    }

    #[test]
    fn planned_query_decides_fallback_like_the_pipeline() {
        let cfg = DrTopKConfig::default();
        // tiny input → fallback
        assert!(!PlannedQuery::plan(100, 50, &cfg).use_delegates);
        // k == n → fallback
        assert!(!PlannedQuery::plan(1 << 14, 1 << 14, &cfg).use_delegates);
        // k == 0 → fallback (degenerate, returns empty anyway)
        assert!(!PlannedQuery::plan(1 << 14, 0, &cfg).use_delegates);
        // ordinary query → delegates
        let p = PlannedQuery::plan(1 << 20, 128, &cfg);
        assert!(p.use_delegates);
        // α is pinned into the returned config, so re-planning is free
        assert_eq!(p.config.alpha, Some(p.alpha));
        assert_eq!(p.k, 128);
    }

    #[test]
    fn shared_delegates_produce_identical_values_with_zero_delegate_cost() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 15, 23);
        let cfg = DrTopKConfig::default();
        // one shared delegate pass, sized by the largest k of the "batch"
        let ks = [16usize, 128, 1000];
        let k_max = 1000;
        let group = PlannedQuery::plan(data.len(), k_max, &cfg);
        let delegates = construct(&dev, &data, group.alpha, cfg.beta, cfg.construction);
        let first = crate::first_topk::first_topk(&dev, &delegates, k_max, false);
        for k in ks {
            // per-query plan under the group's pinned α
            let planned = PlannedQuery::plan(data.len(), k, &group.config);
            let shared =
                dr_topk_planned(&dev, &data, Some(Shared::Delegates(&delegates)), &planned);
            assert_eq!(shared.values, reference_topk(&data, k), "k={k}");
            // the shared pass charges no delegate time/bytes to the query
            assert_eq!(shared.breakdown.delegate_ms, 0.0);
            // but the first-top-k workload is still reported
            assert_eq!(shared.workload.delegate_vector_len, delegates.len());
            // and the query's own counters exclude the |V|-scan construction
            let independent = dr_topk(&dev, &data, k, &group.config);
            assert_eq!(shared.values, independent.values);
            assert!(
                shared.stats.global_loaded_bytes < independent.stats.global_loaded_bytes,
                "shared-delegate query must not re-pay the |V| construction scan"
            );
            // a first top-k shared at k_max, narrowed to k: the same
            // answer and workload, for one launch instead of a radix
            // select plus a mark pass
            let selected = Shared::Selected(&delegates, &first);
            let narrowed = dr_topk_planned(&dev, &data, Some(selected), &planned);
            assert_eq!(narrowed.values, shared.values, "k={k}");
            assert_eq!(narrowed.workload, shared.workload, "k={k}");
            assert!(narrowed.breakdown.first_topk_ms > 0.0);
            assert!(narrowed.breakdown.first_topk_ms < shared.breakdown.first_topk_ms);
        }
    }

    #[test]
    #[should_panic(expected = "different direction")]
    fn shared_delegates_of_the_other_direction_panic() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 12, 3);
        let delegates = construct(&dev, &data, 6, 2, ConstructionMethod::Auto);
        let planned = PlannedQuery::plan(
            data.len(),
            32,
            &DrTopKConfig {
                alpha: Some(6),
                direction: Direction::Smallest,
                ..DrTopKConfig::default()
            },
        );
        dr_topk_planned(&dev, &data, Some(Shared::Delegates(&delegates)), &planned);
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn shared_delegates_with_wrong_alpha_panic() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 12, 3);
        let delegates = construct(&dev, &data, 6, 2, ConstructionMethod::Auto);
        let planned = PlannedQuery::plan(
            data.len(),
            32,
            &DrTopKConfig {
                alpha: Some(7),
                ..DrTopKConfig::default()
            },
        );
        dr_topk_planned(&dev, &data, Some(Shared::Delegates(&delegates)), &planned);
    }

    #[test]
    fn explicit_alpha_is_respected() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 2);
        let got = dr_topk(
            &dev,
            &data,
            64,
            &DrTopKConfig {
                alpha: Some(7),
                ..DrTopKConfig::default()
            },
        );
        assert_eq!(got.alpha, 7);
        assert_eq!(got.workload.num_subranges, (1 << 14) / (1 << 7));
    }
}
