//! Subrange-size (α) tuning: the analytic cost model of Section 5.2 and
//! Rule 4, plus an empirical oracle search.
//!
//! The total Dr. Top-k time is
//! `T = T_Delegate + T_FirstK + T_Concat + T_SecondK` (Equation 1), each term
//! expressed in global-memory accesses and shuffle instructions
//! (Equations 2–5). `T` is convex in α (Equations 8–9), so the optimum is the
//! zero of the derivative, giving Rule 4 / Equation 11:
//!
//! ```text
//! α = ½ · (log2 |V| − log2 k + const)
//! ```
//!
//! The paper sets `const = 3` on the V100S after performance tuning; the
//! analytic value `log2(6·C_global + 31·C_shfl) − log2(6·C_global)` is also
//! available from [`gpu_sim::DeviceSpec::rule4_const_analytic`].

use gpu_sim::DeviceSpec;
use topk_baselines::radix::{sample_top_digits, BITS_PER_PASS, SAMPLE_SIZE};
use topk_baselines::{KeyBits, TopKKey};

use crate::approx::{expected_recall, required_budget, RecallTarget};

/// The `const` term of Rule 4 that the paper reports as the tuned value for
/// its V100S platform.
pub const PAPER_RULE4_CONST: f64 = 3.0;

/// Predicted per-phase cost of Dr. Top-k in abstract *cycles* (Equations
/// 2–5), for maximum delegate (β = 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedCost {
    /// Delegate vector construction (Equation 2).
    pub delegate: f64,
    /// First top-k (Equation 3).
    pub first_topk: f64,
    /// Concatenation (Equation 4).
    pub concat: f64,
    /// Second top-k (Equation 5).
    pub second_topk: f64,
}

impl PredictedCost {
    /// Total predicted cost (Equation 6).
    pub fn total(&self) -> f64 {
        self.delegate + self.first_topk + self.concat + self.second_topk
    }
}

/// Evaluate the Section 5.2 cost model for subrange exponent `alpha`,
/// query size `k`, input size `n` and the device constants of `spec`.
pub fn predicted_cost(alpha: f64, k: usize, n: usize, spec: &DeviceSpec) -> PredictedCost {
    let c_global = spec.c_global_cycles;
    let c_shfl = spec.c_shfl_cycles;
    let v = n as f64;
    let k = k as f64;
    let sub = 2f64.powf(alpha);

    // Equation 2: read |V|, write |V|/2^α delegates, 31 shuffles per subrange.
    let delegate = (1.0 + 1.0 / sub) * v * c_global + 31.0 * (v / sub) * c_shfl;
    // Equation 3: the in-place radix first top-k reads the delegate vector
    // five times (4 digit passes + 1 identification pass) and writes k
    // (value, subrange-id) pairs.
    let first_topk = 5.0 * (v / sub) * c_global + 2.0 * k * c_global;
    // Equation 4: read k subrange indices, copy k subranges in and out.
    let concat = k * c_global + 2.0 * k * sub * c_global;
    // Equation 5: the second top-k reads the concatenated vector four times.
    let second_topk = 4.0 * k * sub * c_global;

    PredictedCost {
        delegate,
        first_topk,
        concat,
        second_topk,
    }
}

/// Rule 4 (Equation 11): the optimal subrange exponent as a real number.
pub fn rule4_alpha(n: usize, k: usize, const_term: f64) -> f64 {
    assert!(n > 0 && k > 0);
    0.5 * ((n as f64).log2() - (k as f64).log2() + const_term)
}

/// The auto-tuned integer α used by [`crate::DrTopKConfig::auto`]: Rule 4
/// with the paper's tuned constant, rounded to the nearest integer and
/// clamped to a sane range (at least 1, at most log2 |V| − 1 so there are
/// always ≥ 2 subranges, and never below log2 β so a subrange can hold its
/// β delegates).
pub fn auto_alpha(n: usize, k: usize, beta: usize, const_term: f64) -> u32 {
    assert!(n > 1, "need at least two elements to partition");
    let k = k.clamp(1, n);
    let raw = rule4_alpha(n, k, const_term);
    let max_alpha = ((n as f64).log2().floor() as u32).saturating_sub(1).max(1);
    let min_alpha = (beta.max(1) as f64).log2().ceil() as u32;
    (raw.round() as i64).clamp(min_alpha.max(1) as i64, max_alpha as i64) as u32
}

/// The resolved bucketing of one recall-targeted approximate query: the
/// subrange exponent, the per-bucket candidate budget, and what the recall
/// model predicts for that pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxTuning {
    /// Bucket exponent (bucket size `2^alpha`).
    pub alpha: u32,
    /// Per-bucket candidate budget `k'` (the construction β).
    pub budget: usize,
    /// Number of buckets `⌈n / 2^alpha⌉`.
    pub num_buckets: usize,
    /// Candidate-vector size the second stage selects over (upper bound
    /// `num_buckets × budget`; short tail buckets may contribute less).
    pub candidates: usize,
    /// The recall the analytic model predicts for `(alpha, budget)` — at
    /// least the target by construction.
    pub predicted_recall: f64,
}

/// Pick the `(α, k')` pair for a recall-targeted approximate query: the
/// bucketing that **minimises the candidate count** subject to
/// [`expected_recall`] meeting `target`, over bucketings with at least
/// `2k` buckets.
///
/// Unlike Rule 4, the optimum needs no device constants: every candidate
/// costs one extra construction store plus ~5 candidate-top-k accesses
/// regardless of the split (both terms scale with `num_buckets × budget`),
/// so minimising the candidate count minimises every device's cost (the
/// tests check this against the full per-phase model). Ties prefer the larger α
/// (fewer buckets ⇒ fewer warp reductions during construction).
///
/// The `num_buckets ≥ 2k` floor is a variance guard, following the
/// bucketed approximate-top-k literature: [`expected_recall`] constrains
/// only the *mean*, and with few buckets the loss is concentrated — a
/// single hot bucket overflowing its budget drops several winners at
/// once, so measured recall swings far around the prediction. With ≥ 2k
/// buckets (mean occupancy ≤ ½) the loss is a sum of many small
/// independent overflow events and concentrates tightly.
///
/// Returns `None` when no bucketing helps: the input is too small to
/// partition into `2k` buckets, `k` is not smaller than the input, or
/// every recall-meeting candidate set would be at least as large as the
/// input itself (the caller should fall back to the exact path, whose
/// recall trivially meets any target).
pub fn optimal_approx_tuning(n: usize, k: usize, target: RecallTarget) -> Option<ApproxTuning> {
    if k == 0 || n < 4 || k >= n {
        return None;
    }
    // Size budgets for the inflated planning target (see
    // [`RecallTarget::with_planning_headroom`]); the reported
    // `predicted_recall` is the honest model value for the chosen budget.
    let planning_target = target.with_planning_headroom();
    let max_alpha = ((n as f64).log2().floor() as u32).saturating_sub(1).max(1);
    let mut best: Option<ApproxTuning> = None;
    for alpha in 1..=max_alpha {
        let bucket_size = 1usize << alpha;
        if bucket_size >= n {
            break;
        }
        let num_buckets = n.div_ceil(bucket_size);
        if num_buckets < 2 || num_buckets < 2 * k {
            break;
        }
        let budget = required_budget(k, num_buckets, planning_target);
        if budget > bucket_size {
            // a bucket cannot hold the budget the model demands here
            continue;
        }
        let candidates = num_buckets * budget;
        // the second stage must still be a real reduction, and it must be
        // able to produce k winners even with a short tail bucket
        if candidates >= n || (num_buckets - 1) * budget + 1 < k {
            continue;
        }
        let tuning = ApproxTuning {
            alpha,
            budget,
            num_buckets,
            candidates,
            predicted_recall: expected_recall(k, num_buckets, budget),
        };
        // strict `<`: on a candidate-count tie the later (larger) α wins,
        // matching the documented preference for fewer buckets
        best = match best {
            Some(b) if b.candidates < candidates => Some(b),
            _ => Some(tuning),
        };
    }
    best
}

/// Which execution path a query is pinned to.
///
/// The delegate pipeline (the paper's design) wins at small-to-moderate k;
/// hierarchical multi-pass radix select keeps scaling as k grows into the
/// 10⁴–10⁵ range where delegate/bucket approaches degrade (RadiK's
/// observation — see PAPER_MAP.md). `Auto` defers the decision to
/// [`choose_path_sampled`] at execution time, where the input, the key
/// width and the device profile are known; the pinned variants exist so
/// tests and benches can force either path.
///
/// Approximate-mode plans ignore the hint: the recall-targeted bucket
/// machinery has no radix twin. A shared delegate vector also pins the
/// delegate path — the caller already paid for construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PathHint {
    /// Let [`choose_path_sampled`] pick per input, k and device.
    #[default]
    Auto,
    /// Always run the delegate pipeline (Figure 3b).
    Delegate,
    /// Always run the hierarchical multi-pass radix-select pipeline.
    Radix,
}

impl PathHint {
    /// Every hint, in declaration order.
    pub const ALL: [PathHint; 3] = [PathHint::Auto, PathHint::Delegate, PathHint::Radix];

    /// Display name used by harnesses and snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            PathHint::Auto => "auto",
            PathHint::Delegate => "delegate",
            PathHint::Radix => "radix",
        }
    }

    /// Data-aware resolution: pins map to themselves, `Auto` defers to
    /// [`choose_path_sampled`] over the actual input — so a duplicate-heavy
    /// corpus stays on the delegate path even at k far past the
    /// well-distributed crossover.
    ///
    /// `survival` holds the input's sampled survival: an `Auto` resolution
    /// that needs it (one at which radix can win, see
    /// `choose_path_with_survival`) and finds `None` reads the strided
    /// sample of `data` and stores the estimate, and one that finds `Some`
    /// reuses it. The estimate depends on `data` alone, so a caller
    /// resolving many queries over one input keeps one slot for it and
    /// samples it at most once; `&mut None` samples on every call that
    /// needs it.
    pub fn resolve_for<K: TopKKey>(
        &self,
        data: &[K],
        k: usize,
        spec: &DeviceSpec,
        survival: &mut Option<f64>,
    ) -> ChosenPath {
        match self {
            PathHint::Auto => {
                choose_path_with_survival(data.len(), k, <K::Bits as KeyBits>::BITS, spec, || {
                    *survival.get_or_insert_with(|| estimate_radix_survival(data))
                })
            }
            PathHint::Delegate => ChosenPath::Delegate,
            PathHint::Radix => ChosenPath::Radix,
        }
    }
}

impl std::fmt::Display for PathHint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The execution path [`choose_path_sampled`] resolved a query to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChosenPath {
    /// The delegate pipeline.
    Delegate,
    /// The multi-pass radix-select pipeline.
    Radix,
}

impl ChosenPath {
    /// Display name used by harnesses and snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            ChosenPath::Delegate => "delegate",
            ChosenPath::Radix => "radix",
        }
    }
}

impl std::fmt::Display for ChosenPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Predicted per-stage cost of the multi-pass radix-select path in abstract
/// cycles, mirroring the Equations 2–5 shape of [`PredictedCost`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct RadixPredictedCost {
    /// Digit-histogram passes (read the shrinking candidate set once per
    /// pass; pass 0 also writes the fused sampled-filter output).
    pub histogram: f64,
    /// Candidate refinement passes (re-read the candidates — the filter
    /// output after a pass-0 hit — and write the survivors plus the
    /// collected above-threshold elements out of place).
    pub compact: f64,
    /// Candidate assembly (read the collected above-set, write exactly k
    /// candidates — `O(k)`, no input re-scan).
    pub gather: f64,
    /// Final ordering of the gathered k (a small radix top-k).
    pub select: f64,
}

impl RadixPredictedCost {
    /// Total predicted cost.
    fn total(&self) -> f64 {
        self.histogram + self.compact + self.gather + self.select
    }
}

/// Kernel launches the delegate pipeline issues, as charged by the modeled
/// crossover: delegate-vector construction, the five-pass in-place first
/// top-k, subrange concatenation, the five-pass second top-k, and the
/// refill/identification step.
const DELEGATE_MODEL_LAUNCHES: f64 = 13.0;

/// Kernel launches the radix path issues for a given number of digit
/// passes: the sample probe, a histogram + refine pair per pass, the
/// `O(k)` gather, and the ~5-launch inner select.
fn radix_model_launches(passes: u32) -> f64 {
    2.0 * f64::from(passes) + 7.0
}

/// Modeled makespan in microseconds: `cycles / C_global` global accesses
/// of `key_bytes` each over the device's effective bandwidth, plus the
/// fixed per-kernel launch overhead. This is what makes the crossover
/// scale-aware: at small `|V|` the launch term dominates and the delegate
/// pipeline's shorter schedule wins even when radix moves fewer bytes.
fn modeled_path_us(cycles: f64, launches: f64, key_bytes: f64, spec: &DeviceSpec) -> f64 {
    let bytes_per_us = spec.mem_bandwidth_gbps * spec.mem_efficiency * 1e3;
    (cycles / spec.c_global_cycles) * key_bytes / bytes_per_us + launches * spec.launch_overhead_us
}

/// Evaluate the radix-path cost model for an `n`-element input of
/// `key_bits`-wide keys and the device constants of `spec`, under a
/// per-pass candidate `survival` fraction (as sampled by
/// [`estimate_radix_survival`]; `2^-BITS_PER_PASS` on well-distributed
/// keys).
///
/// The model mirrors the staged pipeline stage by stage: pass 0 reads the
/// input once and writes the fused sampled-filter output (sized
/// `max(2k, n/128, n·survival)` — the filter's headroom target, its
/// minimum sample floor, or the chosen bucket itself, whichever is
/// largest); each refine pass reads the current candidates and writes the
/// `survival`-fraction survivors; the gather and select are `O(k)`. When
/// the predicted filter output exceeds `n/4` the filter is modeled as
/// disabled — exactly the pipeline's bail-out — and every pass re-reads
/// the full, barely-shrinking candidate set, which is what prices
/// duplicate-heavy adversarial keys out of the radix path. Unlike Rule 4
/// there is no free parameter to tune: the cost is fixed by
/// `(n, k, key_bits, survival)`, and k enters only through the filter
/// width and the `O(k)` tail, never multiplied by a subrange size.
fn radix_predicted_cost(
    n: usize,
    k: usize,
    key_bits: u32,
    spec: &DeviceSpec,
    survival: f64,
) -> RadixPredictedCost {
    let c_global = spec.c_global_cycles;
    let nf = n.max(1) as f64;
    let kf = k.min(n) as f64;
    let s = survival.clamp(1.0 / nf, 1.0);
    let passes = key_bits.div_ceil(BITS_PER_PASS);
    let kept_frac = (crate::radix_path::FILTER_HEADROOM as f64 * kf / nf)
        .max(crate::radix_path::MIN_SAMPLE_TARGET as f64 / SAMPLE_SIZE as f64)
        .max(s);
    let filter_on = kept_frac <= 1.0 / crate::radix_path::FILTER_BAILOUT_DIV as f64;
    let mut histogram = 0.0;
    let mut compact = 0.0;
    let mut remaining = nf;
    for pass in 0..passes {
        if remaining <= 1.0 {
            // the k-th value is pinned down early (the staged pipeline's
            // no-op tail stages)
            break;
        }
        let survivors = (remaining * s).max(1.0);
        if pass == 0 && filter_on {
            let kept = nf * kept_frac;
            histogram += (remaining + kept) * c_global;
            compact += (kept + survivors) * c_global;
        } else {
            histogram += remaining * c_global;
            compact += (remaining + survivors) * c_global;
        }
        remaining = survivors;
    }
    let gather = 2.0 * kf * c_global;
    let select = 5.0 * kf * c_global;
    RadixPredictedCost {
        histogram,
        compact,
        gather,
        select,
    }
}

/// Estimate the radix path's per-pass candidate survival from the data: a
/// deterministic strided sample's top-digit histogram, reduced to the
/// largest single-bucket share.
///
/// Uniform keys land near `2^-BITS_PER_PASS` (every bucket holds a
/// sample-noise-sized share); low-entropy keys that concentrate in one top
/// digit return close to 1.0, which prices every radix pass at a full
/// re-scan and disables the modeled filter — the planner then keeps such
/// inputs on the delegate path at every k. The sample is strided (no RNG),
/// so the estimate — and therefore [`choose_path_sampled`] — is a pure
/// function of the data.
pub(crate) fn estimate_radix_survival<K: TopKKey>(data: &[K]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let sample_n = data.len().min(SAMPLE_SIZE);
    let hist = sample_top_digits(data);
    f64::from(hist.iter().copied().max().unwrap_or(0)) / sample_n as f64
}

/// The smallest survival [`estimate_radix_survival`] returns: the largest
/// of its `2^BITS_PER_PASS` top-digit bins holds at least that share of the
/// sample. It is also the per-pass survival of well-distributed keys, where
/// only the bucket holding the k-th value survives; adversarially
/// low-entropy keys shrink much slower (up to not at all), which is what
/// routes them back to the delegate path.
const MIN_RADIX_SURVIVAL: f64 = 1.0 / (1u64 << BITS_PER_PASS) as f64;

/// The planner crossover: pick the cheaper execution path for a top-k query
/// of `k` over `n` keys of `key_bits` bits on the device described by
/// `spec`, under the sampled `survival` fraction, which is asked for only
/// when the shape is not degenerate.
///
/// Compares the Equations 2–5 delegate model at the Rule 4 α (the α the
/// pipeline itself would resolve) against
/// `radix_predicted_cost`, both converted to modeled
/// microseconds — global traffic over the device's effective bandwidth
/// plus per-kernel launch overhead (`modeled_path_us`). Both models are built from
/// the same per-device constants, so the crossover moves with the
/// hardware profile. The delegate side grows like `√(n·k)` (concatenation
/// and second top-k at the shrinking Rule 4 subrange size) while the
/// radix side is one input scan plus `O(k)`, so on well-distributed keys
/// every device has a single crossover k; on low-survival-shrink
/// (duplicate-heavy) keys the radix side prices at several full scans and
/// the delegate path wins everywhere.
///
/// Degenerate shapes (`k == 0`, `k ≥ n`, tiny inputs) return
/// [`ChosenPath::Delegate`]: the delegate pipeline owns the fallback
/// machinery for them.
///
/// `survival` is asked for only when radix wins at
/// [`MIN_RADIX_SURVIVAL`]: no sampled survival is smaller, and radix's cost
/// never falls as the survival grows, so a radix path that loses at the
/// bound loses at every sample. The decision is the one a sampled survival
/// gives. On 2^18 32-bit keys radix wins at the bound only from k = 9,729
/// on a V100S and from k = 2,723 on the catalog's smallest device, so a
/// serving query (k ≤ 1,024) reads no sample.
fn choose_path_with_survival(
    n: usize,
    k: usize,
    key_bits: u32,
    spec: &DeviceSpec,
    survival: impl FnOnce() -> f64,
) -> ChosenPath {
    if k == 0 || n < 4 || k >= n {
        return ChosenPath::Delegate;
    }
    let delegate = delegate_path_us(n, k, key_bits, spec);
    if radix_path_us(n, k, key_bits, spec, MIN_RADIX_SURVIVAL) < delegate
        && radix_path_us(n, k, key_bits, spec, survival()) < delegate
    {
        ChosenPath::Radix
    } else {
        ChosenPath::Delegate
    }
}

/// Modeled microseconds of the delegate path at the Rule 4 α.
fn delegate_path_us(n: usize, k: usize, key_bits: u32, spec: &DeviceSpec) -> f64 {
    let alpha = auto_alpha(n, k, 2, PAPER_RULE4_CONST);
    modeled_path_us(
        predicted_cost(alpha as f64, k, n, spec).total(),
        DELEGATE_MODEL_LAUNCHES,
        f64::from(key_bits) / f64::from(u8::BITS),
        spec,
    )
}

/// Modeled microseconds of the radix path at a per-pass `survival`.
fn radix_path_us(n: usize, k: usize, key_bits: u32, spec: &DeviceSpec, survival: f64) -> f64 {
    modeled_path_us(
        radix_predicted_cost(n, k, key_bits, spec, survival).total(),
        radix_model_launches(key_bits.div_ceil(BITS_PER_PASS)),
        f64::from(key_bits) / f64::from(u8::BITS),
        spec,
    )
}

/// Data-aware crossover: measure the per-pass survival from the input via
/// `estimate_radix_survival`, then resolve through
/// `choose_path_with_survival`. This is what `PathHint::Auto` resolves
/// to, sampling on every call at which radix can win
/// ([`PathHint::resolve_for`] takes a slot that keeps the sample) — it
/// keeps duplicate-heavy inputs on the delegate path at every k while
/// letting well-distributed inputs escape to radix past the crossover.
pub fn choose_path_sampled<K: TopKKey>(data: &[K], k: usize, spec: &DeviceSpec) -> ChosenPath {
    PathHint::Auto.resolve_for(data, k, spec, &mut None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize the analytic model over integer α (the model-side optimum
    /// Rule 4 is cross-checked against).
    fn model_optimal_alpha(n: usize, k: usize, spec: &DeviceSpec) -> u32 {
        let max_alpha = ((n as f64).log2().floor() as u32).saturating_sub(1).max(1);
        (1..=max_alpha)
            .min_by(|&a, &b| {
                let ca = predicted_cost(a as f64, k, n, spec).total();
                let cb = predicted_cost(b as f64, k, n, spec).total();
                ca.partial_cmp(&cb).unwrap()
            })
            .unwrap_or(1)
    }

    /// Predicted per-phase cost of the approximate mode in abstract cycles,
    /// mirroring [`predicted_cost`]'s Equations 2–5 shape: the construction
    /// term generalises Equation 2 to β = `budget` delegates per bucket, the
    /// first-top-k and concatenation terms are zero (those phases are skipped),
    /// and the second top-k reads the `(|V|/2^α)·k'` candidate vector five
    /// times (4 digit passes + 1 identification pass) and writes k winners.
    fn predicted_approx_cost(
        alpha: f64,
        budget: usize,
        k: usize,
        n: usize,
        spec: &DeviceSpec,
    ) -> PredictedCost {
        let c_global = spec.c_global_cycles;
        let c_shfl = spec.c_shfl_cycles;
        let v = n as f64;
        let kf = k as f64;
        let sub = 2f64.powf(alpha);
        let candidates = (v / sub) * budget as f64;

        // Equation 2 generalised: read |V|, write budget candidates per bucket,
        // 31 shuffles per reduction × budget reductions per bucket.
        let delegate =
            (1.0 + budget as f64 / sub) * v * c_global + 31.0 * budget as f64 * (v / sub) * c_shfl;
        let second_topk = 5.0 * candidates * c_global + 2.0 * kf * c_global;

        PredictedCost {
            delegate,
            first_topk: 0.0,
            concat: 0.0,
            second_topk,
        }
    }

    /// Numerically verify convexity of the model total around the evaluated α
    /// grid (second difference ≥ 0). Returns true when the sampled curve is
    /// convex.
    fn is_convex_in_alpha(k: usize, n: usize, spec: &DeviceSpec, alphas: &[f64]) -> bool {
        if alphas.len() < 3 {
            return true;
        }
        let costs: Vec<f64> = alphas
            .iter()
            .map(|&a| predicted_cost(a, k, n, spec).total())
            .collect();
        costs
            .windows(3)
            .all(|w| w[0] + w[2] >= 2.0 * w[1] - 1e-6 * w[1])
    }

    #[test]
    fn rule4_matches_hand_computation() {
        // |V| = 2^30, k = 2^13, const = 3  ->  α = (30 - 13 + 3)/2 = 10
        assert_eq!(rule4_alpha(1 << 30, 1 << 13, 3.0), 10.0);
        // |V| = 2^30, k = 2^24, const = 2  ->  α = 4 (the paper's example)
        assert_eq!(rule4_alpha(1 << 30, 1 << 24, 2.0), 4.0);
    }

    #[test]
    fn alpha_decreases_as_k_grows() {
        let n = 1 << 30;
        let mut last = f64::INFINITY;
        for exp in [0u32, 5, 10, 15, 20, 24] {
            let a = rule4_alpha(n, 1 << exp, PAPER_RULE4_CONST);
            assert!(a <= last);
            last = a;
        }
    }

    #[test]
    fn auto_alpha_is_clamped_and_respects_beta() {
        // huge k drives the raw α below 1; clamp to at least log2 β
        assert!(auto_alpha(1 << 20, 1 << 19, 1, 3.0) >= 1);
        assert!(auto_alpha(1 << 20, 1 << 19, 4, 3.0) >= 2);
        // tiny k cannot exceed log2 n - 1
        assert!(auto_alpha(1 << 10, 1, 1, 30.0) <= 9);
        // typical case matches Rule 4 rounding
        assert_eq!(auto_alpha(1 << 30, 1 << 13, 1, 3.0), 10);
    }

    #[test]
    fn predicted_cost_phases_move_in_opposite_directions() {
        let spec = DeviceSpec::v100s();
        let n = 1 << 30;
        let k = 1 << 13;
        let small = predicted_cost(4.0, k, n, &spec);
        let large = predicted_cost(16.0, k, n, &spec);
        // larger subranges: cheaper delegate construction + first top-k,
        // more expensive concatenation + second top-k (Figure 13's shape)
        assert!(large.delegate < small.delegate);
        assert!(large.first_topk < small.first_topk);
        assert!(large.concat > small.concat);
        assert!(large.second_topk > small.second_topk);
    }

    #[test]
    fn model_total_is_convex_in_alpha() {
        let spec = DeviceSpec::v100s();
        let alphas: Vec<f64> = (1..=26).map(|a| a as f64).collect();
        for (n, k) in [
            (1usize << 30, 1usize << 13),
            (1 << 26, 1 << 20),
            (1 << 22, 128),
        ] {
            assert!(is_convex_in_alpha(k, n, &spec, &alphas), "n={n} k={k}");
        }
    }

    #[test]
    fn rule4_and_model_optimum_agree_within_two() {
        // Rule 4 is derived from the model, so with the analytic constant the
        // two optima must be close (the paper's Figure 14 makes the same
        // comparison against an empirical oracle).
        let spec = DeviceSpec::v100s();
        let const_analytic = spec.rule4_const_analytic();
        for kexp in [5u32, 10, 15, 20] {
            let n = 1 << 26;
            let k = 1usize << kexp;
            let model = model_optimal_alpha(n, k, &spec) as i64;
            let rule = rule4_alpha(n, k, const_analytic).round() as i64;
            assert!(
                (model - rule).abs() <= 2,
                "k=2^{kexp}: model α={model}, Rule 4 α={rule}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn rule4_rejects_zero_sizes() {
        rule4_alpha(0, 10, 3.0);
    }

    #[test]
    fn rule4_handles_fractional_optima() {
        // |V| = 2^20, k = 2^7, const = 3  ->  α = (20 − 7 + 3)/2 = 8
        assert_eq!(rule4_alpha(1 << 20, 1 << 7, 3.0), 8.0);
        // odd sum: |V| = 2^21, k = 2^8, const = 2  ->  α = 15/2 = 7.5
        assert_eq!(rule4_alpha(1 << 21, 1 << 8, 2.0), 7.5);
        // k = |V| collapses the log difference to the constant alone
        assert_eq!(rule4_alpha(1 << 16, 1 << 16, 3.0), 1.5);
        // const = 0 gives the pure half-gap
        assert_eq!(rule4_alpha(1 << 24, 1 << 4, 0.0), 10.0);
    }

    #[test]
    fn auto_alpha_rounds_to_nearest_integer() {
        // raw α = 7.5 rounds to 8 (round-half-up of f64::round)
        assert_eq!(auto_alpha(1 << 21, 1 << 8, 1, 2.0), 8);
        // raw α = (22 − 9 + 3)/2 = 8.0 stays 8
        assert_eq!(auto_alpha(1 << 22, 1 << 9, 1, 3.0), 8);
        // oversized k is clamped to n before the formula is applied
        assert_eq!(
            auto_alpha(1 << 16, usize::MAX, 1, 3.0),
            auto_alpha(1 << 16, 1 << 16, 1, 3.0)
        );
    }

    #[test]
    fn predicted_cost_matches_hand_computed_equations() {
        // A spec with C_global = 400, C_shfl = 1 (the V100S constants), at
        // α = 10, k = 2^13 = 8192, |V| = 2^30, sub = 2^10 = 1024:
        let spec = DeviceSpec::v100s();
        assert_eq!(spec.c_global_cycles, 400.0);
        assert_eq!(spec.c_shfl_cycles, 1.0);
        let n = 1usize << 30;
        let k = 1usize << 13;
        let got = predicted_cost(10.0, k, n, &spec);
        let v = n as f64;
        let kf = k as f64;
        let sub = 1024.0;
        // Eq. 2: (1 + 1/2^α)|V|·C_g + 31(|V|/2^α)·C_s
        let delegate = (1.0 + 1.0 / sub) * v * 400.0 + 31.0 * (v / sub) * 1.0;
        // Eq. 3: 5(|V|/2^α)·C_g + 2k·C_g
        let first = 5.0 * (v / sub) * 400.0 + 2.0 * kf * 400.0;
        // Eq. 4: k·C_g + 2k·2^α·C_g
        let concat = kf * 400.0 + 2.0 * kf * sub * 400.0;
        // Eq. 5: 4k·2^α·C_g
        let second = 4.0 * kf * sub * 400.0;
        assert_eq!(got.delegate, delegate);
        assert_eq!(got.first_topk, first);
        assert_eq!(got.concat, concat);
        assert_eq!(got.second_topk, second);
        assert_eq!(got.total(), delegate + first + concat + second);
    }

    #[test]
    fn convexity_holds_on_a_fine_grid_for_every_preset() {
        // Quarter-integer grid over the α range every preset can reach.
        let alphas: Vec<f64> = (4..=104).map(|q| q as f64 * 0.25).collect();
        for spec in [
            DeviceSpec::v100s(),
            DeviceSpec::titan_xp(),
            DeviceSpec::a100(),
        ] {
            for (n, k) in [(1usize << 30, 1usize << 13), (1 << 24, 1 << 10)] {
                assert!(
                    is_convex_in_alpha(k, n, &spec, &alphas),
                    "model not convex for {} n={n} k={k}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn rule4_analytic_constant_is_near_the_papers_tuned_value() {
        // log2(6·400 + 31·1) − log2(6·400) ≈ 0.0186 per the V100S constants;
        // the paper then tunes const to 3 empirically, so the two must both
        // lie in a small non-negative range that keeps α well-defined.
        let c = DeviceSpec::v100s().rule4_const_analytic();
        let expected = (6.0f64 * 400.0 + 31.0).log2() - (6.0f64 * 400.0).log2();
        assert!((c - expected).abs() < 1e-12);
        assert!((0.0..PAPER_RULE4_CONST).contains(&c));
    }

    #[test]
    fn approx_tuning_meets_target_and_minimises_candidates() {
        let n = 1 << 22;
        let k = 256;
        let target = RecallTarget::from_fraction(0.95);
        let t = optimal_approx_tuning(n, k, target).expect("large input must tune");
        assert!(t.predicted_recall >= 0.95);
        assert_eq!(t.num_buckets, n.div_ceil(1 << t.alpha));
        assert_eq!(t.candidates, t.num_buckets * t.budget);
        assert!(t.candidates < n / 16, "the second stage must shrink a lot");
        // every other feasible α needs at least as many candidates (the
        // planner sizes for the inflated planning target, over bucketings
        // with at least 2k buckets)
        for alpha in 1..=21u32 {
            let b = n.div_ceil(1usize << alpha);
            if b < 2 || b < 2 * k {
                continue;
            }
            let budget = required_budget(k, b, target.with_planning_headroom());
            if budget > (1usize << alpha) || b * budget >= n || (b - 1) * budget + 1 < k {
                continue;
            }
            assert!(
                b * budget >= t.candidates,
                "α={alpha} gives {} candidates, tuned α={} gives {}",
                b * budget,
                t.alpha,
                t.candidates
            );
        }
    }

    #[test]
    fn approx_tuning_tightens_with_the_target() {
        let n = 1 << 20;
        let k = 128;
        let loose = optimal_approx_tuning(n, k, RecallTarget::from_fraction(0.9)).unwrap();
        let tight = optimal_approx_tuning(n, k, RecallTarget::from_fraction(0.99)).unwrap();
        assert!(
            tight.candidates >= loose.candidates,
            "tight {} vs loose {}",
            tight.candidates,
            loose.candidates
        );
        assert!(loose.predicted_recall >= 0.9);
        assert!(tight.predicted_recall >= 0.99);
    }

    #[test]
    fn approx_tuning_degenerates_to_none() {
        let target = RecallTarget::from_fraction(0.95);
        assert!(optimal_approx_tuning(2, 1, target).is_none());
        assert!(optimal_approx_tuning(1 << 20, 0, target).is_none());
        assert!(optimal_approx_tuning(100, 100, target).is_none());
        assert!(optimal_approx_tuning(100, 1 << 20, target).is_none());
    }

    #[test]
    fn approx_cost_model_is_cheaper_than_exact_at_serving_shapes() {
        // The whole point: at n = 2^26, k = 256, the approximate second
        // stage is far below the exact concat + second top-k.
        let spec = DeviceSpec::v100s();
        let n = 1usize << 26;
        let k = 256;
        let t = optimal_approx_tuning(n, k, RecallTarget::from_fraction(0.95)).unwrap();
        let approx = predicted_approx_cost(t.alpha as f64, t.budget, k, n, &spec);
        let exact_alpha = auto_alpha(n, k, 1, PAPER_RULE4_CONST);
        let exact = predicted_cost(exact_alpha as f64, k, n, &spec);
        assert!(approx.total() < exact.total());
        // the post-construction phases shrink by far more than 25%
        let approx_tail = approx.second_topk;
        let exact_tail = exact.first_topk + exact.concat + exact.second_topk;
        assert!(
            approx_tail < 0.75 * exact_tail,
            "approx tail {approx_tail} vs exact tail {exact_tail}"
        );
        assert_eq!(approx.first_topk, 0.0);
        assert_eq!(approx.concat, 0.0);
    }

    #[test]
    fn model_optimal_alpha_stays_in_partition_bounds() {
        let spec = DeviceSpec::v100s();
        for nexp in [4u32, 10, 20, 26] {
            let n = 1usize << nexp;
            for k in [1usize, 16, n / 4] {
                let a = model_optimal_alpha(n, k.max(1), &spec);
                assert!(a >= 1, "α must keep subranges non-trivial");
                assert!(
                    a <= nexp.saturating_sub(1).max(1),
                    "α must leave ≥ 2 subranges"
                );
            }
        }
    }

    #[test]
    fn path_hint_defaults_to_auto_and_pins_resolve_to_themselves() {
        assert_eq!(PathHint::default(), PathHint::Auto);
        let spec = DeviceSpec::v100s();
        let data = topk_datagen::uniform(1 << 20, 3);
        for k in [64usize, 1 << 17] {
            assert_eq!(
                PathHint::Delegate.resolve_for(&data, k, &spec, &mut None),
                ChosenPath::Delegate
            );
            assert_eq!(
                PathHint::Radix.resolve_for(&data, k, &spec, &mut None),
                ChosenPath::Radix
            );
            assert_eq!(
                PathHint::Auto.resolve_for(&data, k, &spec, &mut None),
                choose_path_sampled(&data, k, &spec)
            );
        }
        // The slot memoizes the sample: pins, degenerate shapes and a k at
        // which radix loses even at the smallest survival (64) leave it
        // empty, the first `Auto` resolution that needs the sample fills
        // it, and a filled slot decides in place of the data.
        let mut survival = None;
        PathHint::Radix.resolve_for(&data, 1 << 17, &spec, &mut survival);
        PathHint::Auto.resolve_for(&data, 0, &spec, &mut survival);
        PathHint::Auto.resolve_for(&data, 64, &spec, &mut survival);
        assert_eq!(survival, None);
        assert_eq!(
            PathHint::Auto.resolve_for(&data, 1 << 17, &spec, &mut survival),
            ChosenPath::Radix
        );
        assert_eq!(survival, Some(estimate_radix_survival(&data)));
        assert_eq!(
            PathHint::Auto.resolve_for(&data, 1 << 17, &spec, &mut Some(1.0)),
            ChosenPath::Delegate,
            "a stored survival of 1.0 prices radix out at any k"
        );
        assert_eq!(PathHint::ALL.len(), 3);
        assert_eq!(PathHint::Auto.name(), "auto");
        assert_eq!(ChosenPath::Radix.name(), "radix");
        assert_eq!(format!("{}", PathHint::Radix), "radix");
        assert_eq!(format!("{}", ChosenPath::Delegate), "delegate");
    }

    #[test]
    fn radix_cost_is_one_input_scan_plus_linear_k_terms() {
        let spec = DeviceSpec::v100s();
        let n = 1usize << 24;
        let c = radix_predicted_cost(n, 1 << 10, 32, &spec, MIN_RADIX_SURVIVAL);
        let scan = n as f64 * spec.c_global_cycles;
        // pass 0 reads the input once and the fused filter shrinks every
        // later stage to noise: the total sits just above one full scan
        assert!(c.total() > 1.0 * scan, "total {} vs scan {scan}", c.total());
        assert!(c.total() < 1.1 * scan, "total {} vs scan {scan}", c.total());
        // k enters through the filter width and the O(k) gather/select
        // tail: monotone, and still under two scans at k = n/16
        let big_k = radix_predicted_cost(n, 1 << 20, 32, &spec, MIN_RADIX_SURVIVAL);
        assert!(big_k.total() > c.total());
        assert!(big_k.total() < 2.0 * scan, "total {}", big_k.total());
        // 64-bit keys pay more passes, but the geometric shrink pins the
        // candidates down long before the extra passes can cost anything
        let wide = radix_predicted_cost(n, 1 << 10, 64, &spec, MIN_RADIX_SURVIVAL);
        assert!(wide.total() >= c.total());
        assert!(wide.total() < 1.05 * c.total());
        // a survival of 1.0 (every key in one top bucket) disables the
        // modeled filter and re-scans the full input every pass
        let worst = radix_predicted_cost(n, 1 << 10, 32, &spec, 1.0);
        assert!(worst.total() > 10.0 * scan, "total {}", worst.total());
    }

    #[test]
    fn radix_cost_is_monotone_in_survival() {
        // `choose_path_with_survival` prices radix at the smallest survival
        // before it reads a sample; that decides only if no larger survival
        // costs less.
        for spec in DeviceSpec::catalog() {
            for nexp in [2u32, 4, 10, 18, 22, 26] {
                let n = 1usize << nexp;
                let mut survivals: Vec<f64> = (0..=4 * (nexp + 1))
                    .map(|i| (-f64::from(i) / 4.0).exp2())
                    .collect();
                let filter_off = 1.0 / crate::radix_path::FILTER_BAILOUT_DIV as f64;
                survivals.extend([
                    0.0,
                    1.0 / n as f64,
                    MIN_RADIX_SURVIVAL,
                    filter_off,
                    filter_off * (1.0 + f64::EPSILON),
                ]);
                survivals.sort_by(f64::total_cmp);
                for key_bits in [32, 64] {
                    for k in [1, 64, 1 << 10, n / 16, n / 3, n - 1] {
                        let costs: Vec<(f64, f64)> = survivals
                            .iter()
                            .map(|&s| {
                                (
                                    radix_predicted_cost(n, k, key_bits, &spec, s).total(),
                                    radix_path_us(n, k, key_bits, &spec, s),
                                )
                            })
                            .collect();
                        for (w, s) in costs.windows(2).zip(survivals.windows(2)) {
                            assert!(
                                w[0].0 <= w[1].0 && w[0].1 <= w[1].1,
                                "{} n={n} k={k} bits={key_bits}: survival {} costs {:?}, {} costs {:?}",
                                spec.name,
                                s[0],
                                w[0],
                                s[1],
                                w[1]
                            );
                        }
                    }
                }
            }
        }
    }

    /// The decision of an `Auto` resolution that always reads the sample.
    fn always_sampled<K: TopKKey>(data: &[K], k: usize, spec: &DeviceSpec) -> ChosenPath {
        let (n, bits) = (data.len(), <K::Bits as KeyBits>::BITS);
        if k == 0 || n < 4 || k >= n {
            return ChosenPath::Delegate;
        }
        let survival = estimate_radix_survival(data);
        if radix_path_us(n, k, bits, spec, survival) < delegate_path_us(n, k, bits, spec) {
            ChosenPath::Radix
        } else {
            ChosenPath::Delegate
        }
    }

    /// Over a k sweep, `Auto` resolves `data` as [`always_sampled`] does,
    /// and it reads the sample only when radix wins at the bound; returns
    /// the ks that read it.
    fn sample_skip_agrees<K: TopKKey>(data: &[K], case: &str) -> Vec<usize> {
        let n = data.len();
        let mut ks = vec![0, n - 1, n, n + 1];
        ks.extend((0..usize::BITS - n.leading_zeros()).flat_map(|e| [1 << e, 3 << e >> 1]));
        ks.retain(|&k| k <= n + 1);
        let mut sampled = Vec::new();
        for spec in DeviceSpec::catalog() {
            for &k in &ks {
                let want = always_sampled(data, k, &spec);
                let mut slot = None;
                let got = PathHint::Auto.resolve_for(data, k, &spec, &mut slot);
                assert_eq!(got, want, "{case} n={n} k={k} on {}", spec.name);
                assert_eq!(choose_path_sampled(data, k, &spec), want);
                let bits = <K::Bits as KeyBits>::BITS;
                let bound_wins = k > 0
                    && n >= 4
                    && k < n
                    && radix_path_us(n, k, bits, &spec, MIN_RADIX_SURVIVAL)
                        < delegate_path_us(n, k, bits, &spec);
                assert_eq!(slot.is_some(), bound_wins, "{case} n={n} k={k}");
                if slot.is_some() {
                    sampled.push(k);
                }
            }
        }
        sampled
    }

    #[test]
    fn skipping_the_sample_agrees_with_always_sampling() {
        let mut rng = topk_datagen::rng::Xoshiro256StarStar::seed_from_u64(71);
        for nexp in 4..=22 {
            let n = 1usize << nexp;
            let uniform: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let step = u64::MAX / n as u64;
            let ascending: Vec<u64> = (0..n as u64).map(|i| i * step).collect();
            let few: Vec<u64> = uniform.iter().map(|&x| x % 8 * (u64::MAX / 8)).collect();
            for (order, keys) in [
                ("uniform", uniform),
                ("ascending", ascending),
                ("<= 8 distinct", few),
            ] {
                let narrow: Vec<u32> = keys.iter().map(|&x| (x >> 32) as u32).collect();
                let sampled = sample_skip_agrees(&narrow, &format!("u32 {order}"));
                if nexp == 18 && order == "uniform" {
                    assert!(
                        sampled.iter().all(|&k| k > 1024),
                        "a serving query reads no sample: {sampled:?}"
                    );
                }
                sample_skip_agrees(&keys, &format!("u64 {order}"));
            }
        }
        // on 2^18 32-bit keys radix loses at the bound up to k = 1,024 on
        // every catalog device, so no serving query reads a sample
        let n = 1 << 18;
        for spec in DeviceSpec::catalog() {
            for k in 1..=1024 {
                assert_eq!(uniform_crossover(n, k, 32, &spec), ChosenPath::Delegate);
            }
        }
        let spec = DeviceSpec::v100s();
        assert_eq!(uniform_crossover(n, 9_728, 32, &spec), ChosenPath::Delegate);
        assert_eq!(uniform_crossover(n, 9_729, 32, &spec), ChosenPath::Radix);
    }

    #[test]
    fn survival_estimate_separates_uniform_from_low_entropy() {
        let uniform = topk_datagen::uniform(1 << 16, 5);
        let s = estimate_radix_survival(&uniform);
        assert!(s < 0.05, "uniform keys spread over the buckets: {s}");
        // all keys share the top byte: the sample sees one bucket
        let low: Vec<u32> = (0..1u32 << 14).map(|i| u32::MAX - (i % 16)).collect();
        assert_eq!(estimate_radix_survival(&low), 1.0);
        assert_eq!(estimate_radix_survival::<u32>(&[]), 1.0);
        // strided sampling is deterministic
        assert_eq!(s, estimate_radix_survival(&uniform));
    }

    #[test]
    fn sampled_crossover_keeps_low_entropy_keys_on_delegates() {
        let spec = DeviceSpec::v100s();
        let n = 1 << 20;
        let uniform = topk_datagen::uniform(n, 11);
        let low: Vec<u32> = (0..n as u32).map(|i| u32::MAX - (i % 16)).collect();
        for kexp in [6u32, 10, 14, 17] {
            let k = 1usize << kexp;
            assert_eq!(
                choose_path_sampled(&low, k, &spec),
                ChosenPath::Delegate,
                "duplicate-heavy keys must never escape to radix (k={k})"
            );
            assert_eq!(
                PathHint::Auto.resolve_for(&low, k, &spec, &mut None),
                ChosenPath::Delegate
            );
        }
        // well-distributed keys still cross over at large k
        assert_eq!(
            choose_path_sampled(&uniform, 1 << 17, &spec),
            ChosenPath::Radix
        );
        assert_eq!(
            PathHint::Radix.resolve_for(&uniform, 64, &spec, &mut None),
            ChosenPath::Radix,
            "pins ignore the data"
        );
        assert_eq!(
            PathHint::Delegate.resolve_for(&uniform, 1 << 17, &spec, &mut None),
            ChosenPath::Delegate
        );
    }

    /// The crossover at the survival of well-distributed keys.
    fn uniform_crossover(n: usize, k: usize, key_bits: u32, spec: &DeviceSpec) -> ChosenPath {
        choose_path_with_survival(n, k, key_bits, spec, || MIN_RADIX_SURVIVAL)
    }

    #[test]
    fn choose_path_crosses_over_once_per_device() {
        // Small k → delegate, huge k → radix, and the decision flips exactly
        // once along the k grid, for every catalog device.
        for spec in DeviceSpec::catalog() {
            let n = 1usize << 22;
            let choices: Vec<ChosenPath> = (4..=20)
                .map(|kexp| uniform_crossover(n, 1usize << kexp, 32, &spec))
                .collect();
            assert_eq!(
                choices.first(),
                Some(&ChosenPath::Delegate),
                "{}: k = 16 must stay on the paper's path",
                spec.name
            );
            assert_eq!(
                choices.last(),
                Some(&ChosenPath::Radix),
                "{}: k = 2^20 must escape to radix",
                spec.name
            );
            let flips = choices.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(flips, 1, "{}: one crossover, got {choices:?}", spec.name);
        }
    }

    #[test]
    fn choose_path_degenerates_to_delegate() {
        let spec = DeviceSpec::v100s();
        assert_eq!(
            uniform_crossover(1 << 20, 0, 32, &spec),
            ChosenPath::Delegate
        );
        assert_eq!(uniform_crossover(2, 1, 32, &spec), ChosenPath::Delegate);
        let n = 1 << 20;
        assert_eq!(uniform_crossover(n, n, 32, &spec), ChosenPath::Delegate);
        assert_eq!(uniform_crossover(n, n + 5, 32, &spec), ChosenPath::Delegate);
    }
}
