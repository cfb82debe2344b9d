//! Recall-targeted approximate top-k: bucket-based two-stage selection with
//! an analytic recall model.
//!
//! Dr. Top-k's delegate phase is already a two-stage filter; recent work
//! ("A Faster Generalized Two-Stage Approximate Top-K", "Approximate Top-k
//! for Increased Parallelism") shows that relaxing exactness to a *recall
//! target* unlocks further savings by shrinking the second stage. The
//! approximate mode reuses the delegate machinery as a bucketed candidate
//! generator and then stops:
//!
//! 1. **Bucketing** — the input is partitioned into `2^α`-element buckets
//!    (the exact pipeline's subranges), and the top `k'` elements of each
//!    bucket — the candidate *budget* — are extracted with the ordinary
//!    delegate-construction kernels (β = `k'`).
//! 2. **Candidate top-k** — the inner algorithm selects the top-k of the
//!    `⌈|V|/2^α⌉ · k'` candidates directly. The exact pipeline's first
//!    top-k, Rule 1–3 concatenation and refill passes are **skipped
//!    entirely** — nothing after the construction scan ever touches the
//!    input again.
//!
//! The only elements that can be missed are true top-k elements that were
//! crowded out of their bucket by more than `k' − 1` larger bucket-mates.
//! Under the standard exchangeability assumption (the top-k are spread over
//! buckets uniformly at random — true for the shuffled/seeded corpora the
//! evaluation uses, and for any hash-partitioned input), the number of
//! top-k elements in one bucket is `X ~ Binomial(k, 1/b)` and the expected
//! recall is closed-form:
//!
//! ```text
//! E[recall] = (b / k) · E[min(X, k')]        b = number of buckets
//! ```
//!
//! [`expected_recall`] evaluates that model, `required_budget` inverts it
//! (the smallest `k'` meeting a target), and
//! [`optimal_approx_tuning`](crate::tuning::optimal_approx_tuning) picks the
//! `(α, k')` pair that minimises the candidate count subject to the target.
//! A target of 1.0 ([`RecallTarget::EXACT`]) short-circuits to the exact
//! pipeline, so `Mode::Approx { target_recall: 1.0 }` is bit-identical to
//! [`Mode::Exact`] (pinned by property tests over every key type).
//!
//! **Departure from the paper**: the paper's pipeline is exact — Rules 1–3
//! guarantee no qualified element is dropped. The approximate mode trades
//! that guarantee for a *modeled* one, and inherits the contiguous-bucket
//! layout of the delegate phase: on adversarially ordered inputs (e.g. a
//! sorted vector, where the whole top-k sits in one bucket) the
//! exchangeability assumption breaks and measured recall can fall below the
//! model's prediction. Shuffle or hash-partition such inputs first, or use
//! the exact mode.

use gpu_sim::Device;

use crate::delegate::{construct, Delegates};
use crate::pipeline::{DrTopKResult, PlannedQuery, WorkloadStats};
use crate::stages::{Serial, StageKind, StageOutcome};
use topk_baselines::TopKKey;

/// A recall target in `(0, 1]`, stored in basis points (1/100th of a
/// percent) so targets stay `Eq`/`Ord`/`Hash` — the engine fuses approximate
/// queries by `(corpus, direction, recall target)` and caches tuning plans
/// per target, which `f64` keys would not allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecallTarget(u16);

impl RecallTarget {
    /// The exact target: recall 1.0. `Mode::Approx` with this target runs
    /// the exact pipeline and is bit-identical to [`Mode::Exact`].
    pub const EXACT: RecallTarget = RecallTarget(10_000);

    /// Build a target from a fraction in `(0, 1]` (e.g. `0.95`), rounded to
    /// the nearest basis point (minimum 1).
    ///
    /// # Panics
    /// Panics when `fraction` is not within `(0, 1]`.
    pub(crate) fn from_fraction(fraction: f64) -> RecallTarget {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "recall target must be within (0, 1], got {fraction}"
        );
        RecallTarget(((fraction * 10_000.0).round() as u16).clamp(1, 10_000))
    }

    /// The target as a fraction in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        self.0 as f64 / 10_000.0
    }

    /// True when the target demands recall 1.0 (the exact pipeline runs).
    pub(crate) fn is_exact(self) -> bool {
        self.0 == 10_000
    }

    /// The inflated *internal* target the planner sizes budgets for: the
    /// recall model predicts the **expected** recall, so a budget sized
    /// exactly at the target would land below it on roughly half of all
    /// inputs. Planning instead spends only a quarter of the miss
    /// allowance — `1 − (1 − target)/4` — leaving the rest as headroom for
    /// sampling variance around the mean (a target of 0.95 plans for
    /// 0.9875). The cost impact is small: the required budget grows by at
    /// most one or two candidates per bucket at serving shapes.
    pub(crate) fn with_planning_headroom(self) -> RecallTarget {
        if self.is_exact() {
            return self;
        }
        let inflated = 1.0 - (1.0 - self.fraction()) / 4.0;
        // never round up into the exact target: a strict approximate
        // request stays an approximate plan
        RecallTarget(((inflated * 10_000.0).round() as u16).clamp(self.0, 9_999))
    }
}

impl std::fmt::Display for RecallTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4}", self.fraction())
    }
}

/// Whether a query demands the exact answer or only a recall target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Mode {
    /// The paper's exact pipeline: every returned element is truly among
    /// the top-k.
    #[default]
    Exact,
    /// Bucket-based approximate selection sized so the *expected* recall
    /// (fraction of the true top-k returned) meets the target. A target of
    /// 1.0 runs the exact pipeline.
    Approx {
        /// The expected-recall floor the candidate budget is sized for.
        target_recall: RecallTarget,
    },
}

impl Mode {
    /// The recall target of a strictly approximate mode: `Some(target)` for
    /// `Approx` with target < 1.0, `None` for `Exact` and for
    /// `Approx { target_recall: 1.0 }` (which runs the exact pipeline).
    pub fn strict_target(self) -> Option<RecallTarget> {
        match self {
            Mode::Approx { target_recall } if !target_recall.is_exact() => Some(target_recall),
            _ => None,
        }
    }
}

/// Expected recall of bucket-based selection: the expected fraction of the
/// true top-k returned when the input is split into `num_buckets` buckets
/// and the top `budget` elements of each bucket become candidates.
///
/// Under the exchangeability assumption (see the module docs) the number of
/// true top-k elements in one bucket is `X ~ Binomial(k, 1/num_buckets)`
/// and the expected recall is `(num_buckets / k) · E[min(X, budget)]`.
/// Degenerate inputs are total: `k = 0` and `budget ≥ k` both return 1.0.
///
/// ```
/// use drtopk_core::expected_recall;
///
/// // k = 256 over 4096 buckets: a budget of 1 already catches ~97%.
/// let r = expected_recall(256, 4096, 1);
/// assert!(r > 0.96 && r < 1.0);
/// // a budget of k can never miss
/// assert_eq!(expected_recall(256, 4096, 256), 1.0);
/// ```
pub fn expected_recall(k: usize, num_buckets: usize, budget: usize) -> f64 {
    assert!(num_buckets >= 1, "need at least one bucket");
    if k == 0 || budget >= k {
        return 1.0;
    }
    if budget == 0 {
        return 0.0;
    }
    if num_buckets == 1 {
        // everything lands in the single bucket; only `budget` survive
        return budget as f64 / k as f64;
    }
    let p = 1.0 / num_buckets as f64;
    let q = 1.0 - p;
    // E[min(X, budget)] via the binomial pmf recurrence
    // pmf(x+1) = pmf(x) · (k − x)/(x + 1) · p/q, truncated once x > budget
    // (the remaining tail contributes `budget · P(X > budget)`).
    let mut pmf = q.powi(k as i32); // P(X = 0)
    let mut cdf = pmf;
    let mut e_min = 0.0;
    for x in 0..budget.min(k) {
        // move to P(X = x + 1)
        pmf *= (k - x) as f64 / (x + 1) as f64 * (p / q);
        let next = x + 1;
        if next <= budget {
            e_min += next as f64 * pmf;
            cdf += pmf;
        }
    }
    // tail: every bucket holding more than `budget` still yields `budget`
    e_min += budget as f64 * (1.0 - cdf).max(0.0);
    (num_buckets as f64 / k as f64 * e_min).clamp(0.0, 1.0)
}

/// The smallest per-bucket candidate budget whose [`expected_recall`] meets
/// `target` for `k` winners over `num_buckets` buckets. Always at most `k`
/// (a budget of `k` is exact: no bucket can crowd out more than it holds).
pub(crate) fn required_budget(k: usize, num_buckets: usize, target: RecallTarget) -> usize {
    assert!(num_buckets >= 1, "need at least one bucket");
    if k == 0 {
        return 1;
    }
    let goal = target.fraction();
    // expected_recall is monotone in the budget: binary search the smallest
    // budget meeting the goal.
    let (mut lo, mut hi) = (1usize, k);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if expected_recall(k, num_buckets, mid) >= goal {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Measured recall of an approximate result against the exact one: the
/// multiset-intersection size over the exact result's length (1.0 for empty
/// exact results). Both slices are compared in the key's total order, so
/// duplicate and NaN keys are counted faithfully.
pub fn measured_recall<K: TopKKey>(approx: &[K], exact: &[K]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let mut got: Vec<K::Bits> = approx.iter().map(|v| v.to_bits()).collect();
    let mut want: Vec<K::Bits> = exact.iter().map(|v| v.to_bits()).collect();
    got.sort_unstable();
    want.sort_unstable();
    let (mut i, mut j, mut hits) = (0usize, 0usize, 0usize);
    while i < got.len() && j < want.len() {
        match got[i].cmp(&want[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits += 1;
                i += 1;
                j += 1;
            }
        }
    }
    hits as f64 / exact.len() as f64
}

/// Execute the approximate half of a [`PlannedQuery`] (the plan's config
/// must carry a strict `Mode::Approx` target; `beta` is the per-bucket
/// candidate budget the plan resolved).
///
/// When `shared_delegates` is `Some`, the candidate-construction scan is
/// skipped and charged to the provider, exactly like the exact pipeline's
/// shared-delegate seam — this is how the engine amortizes one bucket scan
/// over a fused approximate group and how a warm delegate cache serves
/// repeat approximate traffic without re-reading the corpus. The shared
/// vector's shape was checked against the plan by
/// [`dr_topk_planned`](crate::pipeline::dr_topk_planned).
pub(crate) fn dr_topk_approx_planned<K: TopKKey>(
    device: &Device,
    data: &[K],
    shared_delegates: Option<Delegates<'_, K>>,
    planned: &PlannedQuery,
) -> DrTopKResult<K> {
    let config = &planned.config;
    debug_assert!(
        config.mode.strict_target().is_some(),
        "approx execution requires a strict approximate mode"
    );
    let k = planned.k.min(data.len());
    let alpha = planned.alpha;
    let budget = config.beta;

    // The approximate pipeline as two stages: the bucket-top-k′ candidate
    // pass (absent when a shared, already-built vector is supplied — its
    // cost belongs to the provider), then the inner top-k straight over
    // the candidates. No first top-k, no concatenation, no refill — the
    // input is never touched again after the first stage.
    let mut serial = Serial::new(0);
    let built;
    let candidates = match shared_delegates {
        Some(shared) => shared,
        None => {
            let kind = StageKind::BucketTopKPrime;
            built = serial.stage(kind, kind.name(), || {
                let built = construct(device, data, alpha, budget, config.construction);
                let outcome = StageOutcome::new(built.stats, built.time_ms);
                (built, outcome)
            });
            built.view()
        }
    };
    let inner = serial.stage(StageKind::SecondTopK, StageKind::SecondTopK.name(), || {
        let inner = config.inner.run(device, candidates.values, k);
        let outcome = StageOutcome::new(inner.stats, inner.time_ms);
        (inner, outcome)
    });
    let workload = WorkloadStats {
        input_len: data.len(),
        delegate_vector_len: candidates.len(),
        concatenated_len: 0,
        num_subranges: candidates.num_subranges,
        fully_taken_subranges: 0,
        second_topk_skipped: false,
        fell_back: false,
    };

    let selected = (inner.values, inner.kth_value);
    DrTopKResult::from_report(selected, alpha, workload, serial.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::pipeline::{dr_topk, DrTopKConfig};
    use gpu_sim::DeviceSpec;
    use topk_baselines::{reference_topk, reference_topk_min};

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    #[test]
    fn recall_target_roundtrips_and_orders() {
        let t = RecallTarget::from_fraction(0.95);
        assert_eq!(t.0, 9500);
        assert!((t.fraction() - 0.95).abs() < 1e-12);
        assert!(!t.is_exact());
        assert!(RecallTarget::EXACT.is_exact());
        assert!(t < RecallTarget::EXACT);
        assert_eq!(RecallTarget::from_fraction(1.0), RecallTarget::EXACT);
        assert_eq!(format!("{}", t), "0.9500");
        // tiny fractions clamp to one basis point rather than zero
        assert_eq!(RecallTarget::from_fraction(1e-9).0, 1);
    }

    #[test]
    #[should_panic(expected = "recall target must be within")]
    fn zero_recall_target_panics() {
        RecallTarget::from_fraction(0.0);
    }

    #[test]
    fn planning_headroom_spends_a_quarter_of_the_allowance() {
        let t = RecallTarget::from_fraction(0.95).with_planning_headroom();
        assert_eq!(t.0, 9875);
        let t = RecallTarget::from_fraction(0.9).with_planning_headroom();
        assert_eq!(t.0, 9750);
        // never inflates into exactness
        let t = RecallTarget::from_fraction(0.9999).with_planning_headroom();
        assert_eq!(t.0, 9999);
        assert!(!t.is_exact());
        assert!(RecallTarget::EXACT.with_planning_headroom().is_exact());
    }

    #[test]
    fn mode_strictness() {
        assert_eq!(Mode::Exact.strict_target(), None);
        assert_eq!(
            Mode::Approx {
                target_recall: RecallTarget::EXACT
            }
            .strict_target(),
            None
        );
        let t = RecallTarget::from_fraction(0.9);
        assert_eq!(Mode::Approx { target_recall: t }.strict_target(), Some(t));
        assert_eq!(Mode::default(), Mode::Exact);
    }

    #[test]
    fn expected_recall_matches_hand_computation() {
        // k = 1: always found regardless of budget
        assert_eq!(expected_recall(1, 16, 1), 1.0);
        // budget ≥ k is exact
        assert_eq!(expected_recall(10, 4, 10), 1.0);
        // one bucket: only `budget` of the k survive
        assert!((expected_recall(10, 1, 3) - 0.3).abs() < 1e-12);
        // k = 2, b = 2, budget = 1: miss exactly when both land together
        // (probability 1/2), and then one of the two is still returned:
        // E[recall] = 1 − 1/2 · 1/2 = 0.75
        assert!((expected_recall(2, 2, 1) - 0.75).abs() < 1e-12);
        // zero budget finds nothing
        assert_eq!(expected_recall(10, 4, 0), 0.0);
        // k = 0 is trivially complete
        assert_eq!(expected_recall(0, 4, 1), 1.0);
    }

    #[test]
    fn expected_recall_matches_monte_carlo() {
        // Cross-check the closed form against simulation for a few shapes.
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for (k, b, budget) in [(16usize, 8usize, 2usize), (64, 32, 3), (256, 512, 1)] {
            let trials = 4000;
            let mut total = 0.0;
            for _ in 0..trials {
                let mut counts = vec![0usize; b];
                for _ in 0..k {
                    counts[(next() % b as u64) as usize] += 1;
                }
                let found: usize = counts.iter().map(|&c| c.min(budget)).sum();
                total += found as f64 / k as f64;
            }
            let simulated = total / trials as f64;
            let model = expected_recall(k, b, budget);
            assert!(
                (simulated - model).abs() < 0.02,
                "k={k} b={b} k'={budget}: model {model} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn expected_recall_is_monotone_in_budget_and_buckets() {
        let k = 128;
        let mut last = 0.0;
        for budget in 1..=k {
            let r = expected_recall(k, 64, budget);
            assert!(r >= last - 1e-12, "budget {budget}");
            last = r;
        }
        let mut last = 0.0;
        for bexp in 1..=14u32 {
            let r = expected_recall(k, 1 << bexp, 1);
            assert!(r >= last - 1e-12, "buckets 2^{bexp}");
            last = r;
        }
    }

    #[test]
    fn required_budget_is_minimal() {
        for (k, b) in [(32usize, 64usize), (256, 1024), (100, 7)] {
            for bp in [9000u16, 9500, 9900, 10_000] {
                let target = RecallTarget(bp);
                let budget = required_budget(k, b, target);
                assert!(budget >= 1 && budget <= k);
                assert!(
                    expected_recall(k, b, budget) >= target.fraction(),
                    "k={k} b={b} target={target}: budget {budget} misses"
                );
                if budget > 1 {
                    assert!(
                        expected_recall(k, b, budget - 1) < target.fraction(),
                        "k={k} b={b} target={target}: budget {budget} not minimal"
                    );
                }
            }
        }
        // exact target forces budget = k on a single bucket
        assert_eq!(required_budget(10, 1, RecallTarget::EXACT), 10);
    }

    #[test]
    fn measured_recall_counts_multisets() {
        assert_eq!(measured_recall::<u32>(&[], &[]), 1.0);
        assert_eq!(measured_recall(&[5u32, 5, 3], &[5, 5, 3]), 1.0);
        assert!((measured_recall(&[5u32, 5, 1], &[5, 5, 3]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(measured_recall(&[9u32], &[5, 5, 3]), 0.0);
        // duplicates are not double counted
        assert!((measured_recall(&[5u32, 5, 5], &[5, 4, 3]) - 1.0 / 3.0).abs() < 1e-12);
        // float keys compare in the total order (NaN equals NaN)
        let a = [f32::NAN, 1.0];
        assert_eq!(measured_recall(&a, &a), 1.0);
    }

    #[test]
    fn approx_meets_target_on_uniform_data() {
        let dev = device();
        let n = 1 << 18;
        let data = topk_datagen::uniform(n, 0xAB);
        for &k in &[32usize, 256] {
            for &target in &[0.9f64, 0.95, 0.99] {
                let exact = reference_topk(&data, k);
                let got = dr_topk(&dev, &data, k, &DrTopKConfig::approx(target));
                assert_eq!(got.values.len(), k);
                let recall = measured_recall(&got.values, &exact);
                assert!(
                    recall >= target - 0.03,
                    "k={k} target={target}: measured {recall}"
                );
                // the candidate set really is the whole workload: nothing
                // was concatenated, nothing fell back
                assert_eq!(got.workload.concatenated_len, 0);
                assert!(!got.workload.fell_back);
                assert!(got.workload.delegate_vector_len > 0);
                assert!(got.workload.delegate_vector_len < n);
            }
        }
    }

    #[test]
    fn approx_values_are_sorted_and_bounded_by_exact() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 3);
        let k = 100;
        let got = dr_topk(&dev, &data, k, &DrTopKConfig::approx(0.9));
        // descending, and each value no larger than the exact counterpart
        assert!(got.values.windows(2).all(|w| w[0] >= w[1]));
        let exact = reference_topk(&data, k);
        for (g, e) in got.values.iter().zip(&exact) {
            assert!(g <= e, "approx value {g} exceeds exact {e}");
        }
        assert_eq!(got.kth_value, *got.values.last().unwrap());
    }

    #[test]
    fn approx_min_direction_works_through_the_mode_knob() {
        let dev = device();
        let distances: Vec<f32> = topk_datagen::uniform(1 << 16, 17)
            .into_iter()
            .map(|x| (x % 1_000_000) as f32 * 0.5)
            .collect();
        let cfg = DrTopKConfig {
            direction: Direction::Smallest,
            ..DrTopKConfig::approx(0.95)
        };
        let got = dr_topk(&dev, &distances, 64, &cfg);
        assert_eq!(got.values.len(), 64);
        assert!(got.values.windows(2).all(|w| w[0] <= w[1]));
        let recall = measured_recall(&got.values, &reference_topk_min(&distances, 64));
        assert!(recall >= 0.9, "min-direction recall {recall}");
    }

    #[test]
    fn exact_target_is_bit_identical_to_exact_mode() {
        let dev = device();
        let data = topk_datagen::normal(1 << 15, 9);
        let k = 200;
        let exact = dr_topk(&dev, &data, k, &DrTopKConfig::default());
        let via_approx = dr_topk(&dev, &data, k, &DrTopKConfig::approx(1.0));
        assert_eq!(exact.values, via_approx.values);
        assert_eq!(exact.stats, via_approx.stats);
        assert_eq!(exact.workload, via_approx.workload);
    }

    #[test]
    fn infeasible_shapes_fall_back_to_the_exact_answer() {
        let dev = device();
        let data: Vec<u32> = (0..100u32).collect();
        // k so close to n that no recall-meeting candidate set is smaller
        // than the input: the plan falls back and the answer is exact.
        let got = dr_topk(&dev, &data, 90, &DrTopKConfig::approx(0.9));
        assert_eq!(got.values, reference_topk(&data, 90));
        assert!(got.workload.fell_back);
        // k = n, k = 0 and empty inputs degrade exactly like the exact mode
        let got = dr_topk(&dev, &data, 100, &DrTopKConfig::approx(0.9));
        assert_eq!(got.values, reference_topk(&data, 100));
        assert!(dr_topk(&dev, &data, 0, &DrTopKConfig::approx(0.9))
            .values
            .is_empty());
        assert!(dr_topk::<u32>(&dev, &[], 5, &DrTopKConfig::approx(0.9))
            .values
            .is_empty());
    }

    #[test]
    fn small_feasible_shapes_still_return_k_values() {
        // n = 512, k = 16 is small but plannable (≥ 2k buckets exist); the
        // result must still be k values drawn from the input.
        let dev = device();
        let data = topk_datagen::uniform(512, 31);
        let got = dr_topk(&dev, &data, 16, &DrTopKConfig::approx(0.9));
        assert_eq!(got.values.len(), 16);
        assert!(!got.workload.fell_back);
        assert!(got.workload.num_subranges >= 32, "≥ 2k buckets");
        assert!(got.values.iter().all(|v| data.contains(v)));
        // k too large for a 2k-bucket split → the plan normalises to the
        // exact machinery (delegate pipeline or inner-direct) and the
        // answer is exact
        let got = dr_topk(&dev, &data, 200, &DrTopKConfig::approx(0.9));
        assert_eq!(got.values, reference_topk(&data, 200));
        assert!(got.workload.concatenated_len > 0 || got.workload.fell_back);
    }

    #[test]
    fn approx_moves_fewer_transactions_than_exact_second_phase() {
        // The one-shot savings are the exact pipeline's first top-k +
        // concatenation + second top-k; the construction scan is common.
        let dev = device();
        let data = topk_datagen::uniform(1 << 18, 5);
        let k = 256;
        let exact = dr_topk(&dev, &data, k, &DrTopKConfig::default());
        let approx = dr_topk(&dev, &data, k, &DrTopKConfig::approx(0.95));
        let t = |r: &DrTopKResult<u32>| {
            r.stats.global_load_transactions + r.stats.global_store_transactions
        };
        assert!(
            t(&approx) < t(&exact),
            "approx {} vs exact {}",
            t(&approx),
            t(&exact)
        );
    }
}
