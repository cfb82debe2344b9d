//! The planner and the tuning-plan / delegate caches.
//!
//! Planning turns a heterogeneous [`QueryBatch`] into an
//! `ExecutionPlan` of independent units:
//!
//! * **Fused units** — all same-corpus, same-direction, same-mode queries
//!   that resolve to the same execution path share one unit. A delegate
//!   unit shares one delegate pass (the RTop-K-style batched row: the
//!   pass is sized by the group's `k_max`, then each exact query runs its
//!   own first top-k / concatenation / second top-k against the shared
//!   delegate vector, while each approximate query selects straight from
//!   the shared candidate vector); a radix unit runs each member's
//!   multi-pass radix select and has no pass.
//! * **Sharded units** — queries whose corpus exceeds a device's memory
//!   capacity run over the *whole* cluster through the distributed
//!   machinery instead (RadiK-style: many independent selections are
//!   scheduled, but an over-capacity one takes every device).
//!
//! An exact query's path is its [`PathHint`] resolved at the query's own
//! k. `Auto` prices the modeled crossover at the corpus's sampled radix
//! survival, a pure function of the corpus, so the planner samples each
//! corpus at most once per batch: one survival slot per corpus index,
//! filled by the first query that needs it and read by the rest
//! ([`PathHint::resolve_for`]).
//!
//! Two memoizations make repeat traffic cheap:
//!
//! * the **tuning-plan cache** maps `(n, k, mode, key type, direction,
//!   device)` to the resolved Rule-4 α (exact) or recall-model `(α, k')`
//!   (approximate), so a repeated query shape skips the derivation;
//! * the **delegate cache** maps `(corpus id, length, α, β, key type,
//!   direction)` to the built [`DelegateVector`]. An exact entry spares an
//!   unchanged corpus its delegate pass altogether; failing that, an entry
//!   of the same corpus at a finer α′ ≤ α with β′ ≥ β is coarsened to the
//!   requested `(α, β)`
//!   ([`coarsen_delegate_vector`](drtopk_core::coarsen_delegate_vector)),
//!   which reads its delegates instead of the corpus. Rule 4 gives each k
//!   its own α, so one cached fine pass serves a corpus's coarser
//!   requests. A full delegate cache admits a new pass TinyLFU-style
//!   (Einziger, Friedman and Manes, 2017): a finer pass replaces its
//!   corpus's coarser entries, and any other pass displaces the
//!   least-recently-used entry only when a small frequency sketch counts
//!   its corpus as strictly hotter, so a scan of one-shot corpora cannot
//!   flush the entries that repeat traffic hits.

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use drtopk_core::{
    optimal_approx_tuning, ChosenPath, DelegateVector, Direction, DrTopKConfig, Mode, PathHint,
    PlannedQuery,
};
use gpu_sim::DeviceSpec;
use topk_baselines::TopKKey;

use crate::query::QueryBatch;

/// Key of the tuning-plan cache: one resolved α per problem shape per
/// device model. The mode is part of the shape: an approximate query's
/// bucketing comes from the recall model (per target), not from Rule 4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    n: usize,
    k: usize,
    key_type: TypeId,
    direction: Direction,
    device: String,
    mode: Mode,
}

/// A memoized tuning decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TuningPlan {
    /// Resolved subrange exponent.
    pub alpha: u32,
    /// Delegates per subrange the plan assumes. For an approximate plan
    /// this is the recall-model candidate budget `k'`.
    pub beta: usize,
}

/// Key of the delegate cache: a pass is reusable only by queries of the
/// same key type and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DelegateKey {
    corpus_id: u64,
    len: usize,
    alpha: u32,
    beta: usize,
    key_type: TypeId,
    direction: Direction,
}

impl DelegateKey {
    /// Same corpus, length, key type and direction: `self` and `other`
    /// differ at most in `(α, β)`.
    fn same_corpus(&self, other: &DelegateKey) -> bool {
        *other
            == DelegateKey {
                alpha: other.alpha,
                beta: other.beta,
                ..*self
            }
    }
}

/// Rows of the [`FrequencySketch`].
const SKETCH_ROWS: usize = 4;

/// A count-min sketch of delegate-cache lookups per `(corpus id, length,
/// direction)`: [`SKETCH_ROWS`] rows of saturating `u8` counters, each row
/// a power of two at least 16 × the cache capacity wide, indexed by a
/// fixed hash, so its size never depends on how many corpora it has seen
/// and its counts do not depend on the process. A corpus's estimate is its
/// smallest counter, an upper bound on its true count. Every counter
/// halves after each 10 × capacity lookups, so old traffic fades.
#[derive(Debug, Default)]
struct FrequencySketch {
    /// Row-major, `SKETCH_ROWS × (mask + 1)`; empty at capacity 0.
    counters: Vec<u8>,
    mask: usize,
    /// Lookups since the last halving, and the lookups between halvings.
    lookups: usize,
    period: usize,
}

impl FrequencySketch {
    fn for_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return FrequencySketch::default();
        }
        let width = (16 * capacity).next_power_of_two();
        FrequencySketch {
            counters: vec![0; SKETCH_ROWS * width],
            mask: width - 1,
            lookups: 0,
            period: 10 * capacity,
        }
    }

    /// The counter of `key`'s corpus in each row.
    fn slots(&self, key: &DelegateKey) -> [usize; SKETCH_ROWS] {
        let direction = u64::from(key.direction == Direction::Smallest);
        let corpus = mix64(key.corpus_id ^ mix64(((key.len as u64) << 1) | direction));
        std::array::from_fn(|row| {
            let seed = (row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            row * (self.mask + 1) + (mix64(corpus ^ seed) as usize & self.mask)
        })
    }

    fn record(&mut self, key: &DelegateKey) {
        if self.counters.is_empty() {
            return;
        }
        for slot in self.slots(key) {
            self.counters[slot] = self.counters[slot].saturating_add(1);
        }
        self.lookups += 1;
        if self.lookups == self.period {
            self.lookups = 0;
            for counter in &mut self.counters {
                *counter >>= 1;
            }
        }
    }

    /// `key`'s corpus count; only a cache with slots asks.
    fn estimate(&self, key: &DelegateKey) -> u8 {
        self.slots(key)
            .into_iter()
            .map(|slot| self.counters[slot])
            .fold(u8::MAX, u8::min)
    }
}

/// The splitmix64 finalizer: a fixed, well-mixing 64-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What [`PlanCache::put_delegates`] did with a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The pass is cached; `evicted` entries left to make room for it.
    Inserted { evicted: usize },
    /// The pass is not cached (it still serves the batch that built it).
    Rejected,
}

/// A delegate-cache hit: the vector a unit asked for, or a finer vector of
/// the same corpus that the unit coarsens
/// ([`coarsen_delegate_vector`](drtopk_core::coarsen_delegate_vector)).
#[derive(Debug, Clone)]
pub(crate) enum CachedDelegates<K: TopKKey> {
    /// The exact `(α, β)` entry: the unit runs no pass.
    Exact(Arc<DelegateVector<K>>),
    /// An entry at α′ ≤ α with β′ ≥ β: the unit's pass coarsens it.
    Finer(Arc<DelegateVector<K>>),
}

/// The engine's memoization state: tuning plans plus cached delegate
/// vectors, with hit/miss counters for both.
///
/// A delegate lookup is served by the exact `(α, β)` entry or, failing
/// that, by the finer entry of the same corpus with the fewest delegates
/// ([`CachedDelegates`]); only vectors built from the corpus are inserted.
///
/// The delegate cache keeps a recency order (a hit refreshes the served
/// entry) and a [`FrequencySketch`] of every lookup per corpus. While a
/// slot is free every pass is inserted. A full cache places a new pass by
/// TinyLFU-style admission ([`put_delegates`](PlanCache::put_delegates)):
/// a finer pass replaces the coarser entries of its corpus, a pass whose
/// corpus is strictly hotter than the least-recently-used entry's evicts
/// that entry, and any other pass is rejected. A cyclic scan over more
/// corpora than slots therefore keeps the corpora it first admitted, where
/// a plain LRU would evict each entry just before its next use.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    plans: HashMap<PlanKey, TuningPlan>,
    delegates: HashMap<DelegateKey, Arc<dyn Any + Send + Sync>>,
    /// Recency order: least-recently-used at the front, most-recent at the
    /// back. Capacities are small (tens), so the O(len) reorder on hit is
    /// noise next to the |V|-scan a miss costs.
    delegate_order: VecDeque<DelegateKey>,
    delegate_capacity: usize,
    /// Lookups per corpus, for admission.
    frequency: FrequencySketch,
    plan_hits: u64,
    plan_misses: u64,
    delegate_hits: u64,
    delegate_misses: u64,
}

impl PlanCache {
    /// A cache that keeps at most `delegate_capacity` delegate vectors
    /// (tuning plans are tiny and unbounded).
    pub(crate) fn with_delegate_capacity(delegate_capacity: usize) -> Self {
        PlanCache {
            delegate_capacity,
            frequency: FrequencySketch::for_capacity(delegate_capacity),
            ..PlanCache::default()
        }
    }

    /// Resolve the α (and, for approximate shapes, the candidate budget)
    /// for `(n, k, mode)` under `base`, through the memo: a hit skips the
    /// `auto_alpha` / recall-model derivation entirely.
    pub(crate) fn resolve_tuning<K: TopKKey>(
        &mut self,
        n: usize,
        k: usize,
        mode: Mode,
        direction: Direction,
        device: &str,
        base: &DrTopKConfig,
    ) -> TuningPlan {
        let key = PlanKey {
            n,
            k,
            key_type: TypeId::of::<K>(),
            direction,
            device: device.to_string(),
            mode,
        };
        if let Some(&plan) = self.plans.get(&key) {
            self.plan_hits += 1;
            return plan;
        }
        self.plan_misses += 1;
        let plan = match mode.strict_target() {
            Some(target) => match optimal_approx_tuning(n, k.max(1), target) {
                Some(t) => TuningPlan {
                    alpha: t.alpha,
                    beta: t.budget,
                },
                // infeasible shape: members will fall back to exact plans,
                // so hold the group on the exact Rule-4 bucketing
                None => TuningPlan {
                    alpha: base.resolve_alpha(n.max(2), k.max(1)),
                    beta: base.beta,
                },
            },
            None => TuningPlan {
                alpha: base.resolve_alpha(n.max(2), k.max(1)),
                beta: base.beta,
            },
        };
        self.plans.insert(key, plan);
        plan
    }

    /// Move `key` to the most-recently-used end of the recency queue.
    fn touch(&mut self, key: &DelegateKey) {
        if let Some(pos) = self.delegate_order.iter().position(|k| k == key) {
            self.delegate_order.remove(pos);
        }
        self.delegate_order.push_back(*key);
    }

    /// Look up the delegate vector of `(corpus_id, len, alpha, beta)` in
    /// `direction`, counting a hit or a miss, and count the lookup against
    /// its corpus in the frequency sketch, hit or miss. The exact entry
    /// wins; failing that, any entry of the same corpus, length, key type
    /// and direction at α′ ≤ α with β′ ≥ β serves as a coarsening source,
    /// and the one with the fewest delegates is taken. Either hit
    /// refreshes the served entry's recency.
    pub(crate) fn get_delegates<K: TopKKey>(
        &mut self,
        corpus_id: u64,
        len: usize,
        alpha: u32,
        beta: usize,
        direction: Direction,
    ) -> Option<CachedDelegates<K>> {
        let key = DelegateKey {
            corpus_id,
            len,
            alpha,
            beta,
            key_type: TypeId::of::<K>(),
            direction,
        };
        self.frequency.record(&key);
        let served = if self.delegates.contains_key(&key) {
            Some(key)
        } else {
            // same corpus, length, key type and direction; finer α′, β′
            self.delegates
                .keys()
                .filter(|k| key.same_corpus(k) && k.alpha <= alpha && k.beta >= beta)
                .min_by_key(|k| {
                    let entries = self.delegates[*k]
                        .downcast_ref::<DelegateVector<K>>()
                        .map_or(0, DelegateVector::len);
                    (entries, k.alpha, k.beta)
                })
                .copied()
        };
        let Some(served) = served else {
            self.delegate_misses += 1;
            return None;
        };
        self.delegate_hits += 1;
        self.touch(&served);
        let vector = Arc::clone(&self.delegates[&served])
            .downcast::<DelegateVector<K>>()
            .expect("delegate cache entry type is pinned by its key");
        Some(if served == key {
            CachedDelegates::Exact(vector)
        } else {
            CachedDelegates::Finer(vector)
        })
    }

    /// Offer a freshly built delegate vector to the cache. An admitted
    /// vector enters at the most-recently-used position; the first rule
    /// that applies places it:
    /// 1. a free slot, or an entry under the same key, takes it;
    /// 2. in a full cache, it replaces every entry of its corpus, length,
    ///    key type and direction that it dominates (α′ ≥ α and β′ ≤ β: it
    ///    serves all their lookups by coarsening);
    /// 3. in a full cache, it evicts the least-recently-used entry when the
    ///    frequency sketch counts its corpus strictly hotter than the
    ///    victim's;
    /// 4. otherwise it is rejected.
    pub(crate) fn put_delegates<K: TopKKey>(
        &mut self,
        corpus_id: u64,
        len: usize,
        alpha: u32,
        beta: usize,
        delegates: Arc<DelegateVector<K>>,
    ) -> Admission {
        if self.delegate_capacity == 0 {
            return Admission::Rejected;
        }
        let key = DelegateKey {
            corpus_id,
            len,
            alpha,
            beta,
            key_type: TypeId::of::<K>(),
            direction: delegates.direction,
        };
        let mut evicted = Vec::new();
        if self.delegates.len() == self.delegate_capacity && !self.delegates.contains_key(&key) {
            evicted.extend(
                self.delegate_order
                    .iter()
                    .filter(|k| key.same_corpus(k) && k.alpha >= alpha && k.beta <= beta),
            );
            if evicted.is_empty() {
                let victim = self.delegate_order[0];
                if self.frequency.estimate(&key) <= self.frequency.estimate(&victim) {
                    return Admission::Rejected;
                }
                evicted.push(victim);
            }
        }
        for old in &evicted {
            self.delegates.remove(old);
        }
        self.delegate_order.retain(|k| !evicted.contains(k));
        self.delegates.insert(key, delegates);
        self.touch(&key);
        Admission::Inserted {
            evicted: evicted.len(),
        }
    }
}

/// A group of same-corpus, same-direction, same-mode queries fused behind
/// one delegate (or candidate) pass.
#[derive(Debug, Clone)]
pub(crate) struct FusedUnit {
    /// Corpus index within the batch.
    pub corpus: usize,
    /// Direction shared by every query of the unit.
    pub direction: Direction,
    /// Mode shared by every query of the unit. Approximate groups fuse per
    /// distinct recall target — sizing one shared pass by the loosest
    /// target of a mixed group would under-serve the tighter members.
    pub mode: Mode,
    /// Indices (into the batch's query list) of the member queries.
    pub queries: Vec<usize>,
    /// The group's resolved subrange exponent.
    pub alpha: u32,
    /// Delegates per subrange of the shared pass: β for an exact group,
    /// the largest member candidate budget `k'` for an approximate group
    /// (a bigger budget only raises every member's recall).
    pub beta: usize,
    /// Per-member execution plans, parallel to `queries`.
    pub planned: Vec<PlannedQuery>,
    /// True when at least one member actually uses the delegate machinery
    /// (otherwise no delegate pass is built at all).
    pub needs_delegates: bool,
    /// The execution path every member of this unit resolved to at plan
    /// time. Queries are fused by resolved path, so a unit is homogeneous:
    /// delegate units share one delegate pass, radix units share a unit
    /// with no pass at all (each member runs the multi-pass radix-select
    /// pipeline on the worker's device).
    pub path: ChosenPath,
}

/// A single over-capacity query that takes the whole cluster through the
/// distributed path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardedUnit {
    /// Index (into the batch's query list) of the query.
    pub query: usize,
}

/// A group of same-corpus, same-direction, same-mode **row-matrix**
/// queries scheduled together on one pool device.
///
/// Each member runs as its own row-block run (members may reshape
/// the corpus differently, e.g. `8×1024` vs `4×2048`), planned internally
/// by [`drtopk_core::topk_rows`]'s per-row machinery — the planner's job
/// here is grouping and scheduling, not per-row tuning.
#[derive(Debug, Clone)]
pub(crate) struct RowUnit {
    /// Corpus index within the batch.
    pub corpus: usize,
    /// Indices (into the batch's row-query list) of the member queries.
    pub members: Vec<usize>,
}

/// One independently schedulable piece of a batch.
#[derive(Debug, Clone)]
pub(crate) enum PlanUnit {
    /// Fused same-corpus group: runs on one device of the worker pool.
    Fused(FusedUnit),
    /// Over-capacity query: runs across the whole cluster.
    Sharded(ShardedUnit),
    /// Row-matrix group: runs on one device of the worker pool as
    /// row-block runs.
    Rows(RowUnit),
}

/// The planner's output for one batch.
#[derive(Debug, Clone)]
pub(crate) struct ExecutionPlan {
    /// All units: fused first, in `(corpus index, direction)` order
    /// (deterministic, independent of query submission order), then
    /// sharded units in query order, then row-matrix units in
    /// `(corpus index, direction)` order.
    pub units: Vec<PlanUnit>,
    /// Tuning-plan cache hits during this planning pass.
    pub plan_hits: u64,
    /// Tuning-plan cache misses during this planning pass.
    pub plan_misses: u64,
}

impl ExecutionPlan {
    /// Number of fused units.
    pub fn fused_units(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, PlanUnit::Fused(_)))
            .count()
    }

    /// Number of sharded queries.
    pub fn sharded_queries(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, PlanUnit::Sharded(_)))
            .count()
    }
}

/// Plan a batch: group fusible queries, shard over-capacity ones, and
/// resolve every group's α through the tuning-plan cache.
pub(crate) fn plan_batch<K: TopKKey>(
    batch: &QueryBatch<'_, K>,
    base: &DrTopKConfig,
    shard_threshold: usize,
    device: &DeviceSpec,
    cache: &mut PlanCache,
) -> ExecutionPlan {
    let hits_before = cache.plan_hits;
    let misses_before = cache.plan_misses;

    // Group fusible queries by (corpus, direction, mode, resolved path);
    // BTreeMap keeps the plan deterministic. Exact and approximate traffic
    // never share a pass, approximate traffic fuses per distinct recall
    // target, and delegate-path queries never fuse with radix-path ones
    // (a radix member would not touch the shared delegate pass, and a
    // delegate member in a radix unit would have no pass to share).
    let mut groups: BTreeMap<(usize, Direction, Mode, ChosenPath), Vec<usize>> = BTreeMap::new();
    let mut sharded: Vec<ShardedUnit> = Vec::new();
    // Each corpus's sampled survival, by corpus index: read on the first
    // query that needs it and reused by the rest of the batch.
    let mut survival: Vec<Option<f64>> = vec![None; batch.corpora.len()];
    for (idx, q) in batch.queries.iter().enumerate() {
        let data = batch.corpora[q.corpus].data;
        let n = data.len();
        if n > shard_threshold {
            sharded.push(ShardedUnit { query: idx });
        } else {
            // Resolve the hint per query against the pool device profile
            // and the actual corpus (the sampled survival probe keeps
            // duplicate-heavy corpora on the delegate side): the crossover
            // depends on this query's own k, not the group's. Approximate
            // queries ignore the hint entirely.
            let path = if q.mode.strict_target().is_some() {
                ChosenPath::Delegate
            } else {
                q.path
                    .resolve_for(data, q.k.min(n), device, &mut survival[q.corpus])
            };
            groups
                .entry((q.corpus, q.direction, q.mode, path))
                .or_default()
                .push(idx);
        }
    }

    let mut units: Vec<PlanUnit> = Vec::with_capacity(groups.len() + sharded.len());
    for ((corpus, direction, mode, path), queries) in groups {
        let n = batch.corpora[corpus].data.len();
        let k_max = queries
            .iter()
            .map(|&qi| batch.queries[qi].k.min(n))
            .max()
            .unwrap_or(0);
        let tuning = cache.resolve_tuning::<K>(n, k_max, mode, direction, &device.name, base);
        // Pin every member to the group's resolved path so execution cannot
        // re-resolve differently (the member seam in `dr_topk_planned`
        // honors the pin; degenerate members still take their fallbacks).
        let member_path = match path {
            ChosenPath::Delegate => PathHint::Delegate,
            ChosenPath::Radix => PathHint::Radix,
        };
        let planned: Vec<PlannedQuery> = queries
            .iter()
            .map(|&qi| {
                let q = &batch.queries[qi];
                let member_config = DrTopKConfig {
                    alpha: Some(tuning.alpha),
                    inner: q.inner,
                    mode: q.mode,
                    path: member_path,
                    direction,
                    ..base.clone()
                };
                PlannedQuery::plan(n, q.k, &member_config)
            })
            .collect();
        // Radix units never build a delegate pass: their members select
        // via digit histograms over the raw corpus instead.
        let needs_delegates =
            path == ChosenPath::Delegate && planned.iter().any(|p| p.use_delegates);
        // The shared pass must cover every member: for an approximate
        // group that is the largest member budget (each member's own
        // budget is derived at the group α; a larger shared budget only
        // raises its recall).
        let beta = planned
            .iter()
            .filter(|p| p.use_delegates && p.config.mode.strict_target().is_some())
            .map(|p| p.config.beta)
            .fold(tuning.beta, usize::max);
        units.push(PlanUnit::Fused(FusedUnit {
            corpus,
            direction,
            mode,
            queries,
            alpha: tuning.alpha,
            beta,
            planned,
            needs_delegates,
            path,
        }));
    }
    units.extend(sharded.into_iter().map(PlanUnit::Sharded));

    // Row-matrix queries fuse by the same (corpus, direction, mode) key.
    // Per-row tuning happens inside the row-block machinery at execution
    // (α depends on each member's `cols`, which members of one corpus may
    // reshape differently), so planning only groups and orders them.
    let mut row_groups: BTreeMap<(usize, Direction, Mode), Vec<usize>> = BTreeMap::new();
    for (idx, q) in batch.row_queries.iter().enumerate() {
        row_groups
            .entry((q.corpus, q.direction, q.mode))
            .or_default()
            .push(idx);
    }
    units.extend(
        row_groups
            .into_iter()
            .map(|((corpus, _, _), members)| PlanUnit::Rows(RowUnit { corpus, members })),
    );

    ExecutionPlan {
        units,
        plan_hits: cache.plan_hits - hits_before,
        plan_misses: cache.plan_misses - misses_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, RowQuery};
    use drtopk_core::InnerAlgorithm;

    fn base() -> DrTopKConfig {
        DrTopKConfig::default()
    }

    #[test]
    fn same_corpus_same_direction_queries_fuse() {
        let data: Vec<u32> = (0..1 << 14).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(7, &data);
        for k in [4usize, 64, 256] {
            batch.push_topk(c, k);
        }
        batch.push_topk_min(c, 16);
        let mut cache = PlanCache::with_delegate_capacity(8);
        let plan = plan_batch(
            &batch,
            &base(),
            usize::MAX,
            &DeviceSpec::v100s(),
            &mut cache,
        );
        // three largest queries fuse; the smallest query is its own unit
        assert_eq!(plan.fused_units(), 2);
        assert_eq!(plan.sharded_queries(), 0);
        let PlanUnit::Fused(first) = &plan.units[0] else {
            panic!("expected fused unit")
        };
        assert_eq!(first.queries, vec![0, 1, 2]);
        assert_eq!(first.planned.iter().map(|p| p.k).max(), Some(256));
        assert_eq!(first.planned.len(), 3);
        assert!(first.needs_delegates);
        // every member shares the group α
        assert!(first.planned.iter().all(|p| p.alpha == first.alpha));
    }

    #[test]
    fn over_capacity_corpora_are_sharded() {
        let data: Vec<u32> = (0..1 << 12).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_topk(c, 8);
        batch.push_topk(c, 9);
        let mut cache = PlanCache::default();
        let plan = plan_batch(&batch, &base(), 1 << 10, &DeviceSpec::v100s(), &mut cache);
        assert_eq!(plan.fused_units(), 0);
        assert_eq!(plan.sharded_queries(), 2);
    }

    #[test]
    fn tuning_plans_are_memoized_per_shape_and_direction() {
        let data: Vec<u32> = (0..1 << 14).collect();
        let mut cache = PlanCache::default();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_topk(c, 100);
        let p1 = plan_batch(
            &batch,
            &base(),
            usize::MAX,
            &DeviceSpec::v100s(),
            &mut cache,
        );
        assert_eq!((p1.plan_hits, p1.plan_misses), (0, 1));
        // identical shape: pure hit
        let p2 = plan_batch(
            &batch,
            &base(),
            usize::MAX,
            &DeviceSpec::v100s(),
            &mut cache,
        );
        assert_eq!((p2.plan_hits, p2.plan_misses), (1, 0));
        // the opposite direction is a different plan key
        let mut batch_min = QueryBatch::new();
        let c = batch_min.add_corpus(1, &data);
        batch_min.push_topk_min(c, 100);
        let p3 = plan_batch(
            &batch_min,
            &base(),
            usize::MAX,
            &DeviceSpec::v100s(),
            &mut cache,
        );
        assert_eq!((p3.plan_hits, p3.plan_misses), (0, 1));
        // a different device label is a different plan key
        let p4 = plan_batch(
            &batch,
            &base(),
            usize::MAX,
            &DeviceSpec::titan_xp(),
            &mut cache,
        );
        assert_eq!((p4.plan_hits, p4.plan_misses), (0, 1));
        assert_eq!(cache.plans.len(), 3);
    }

    #[test]
    fn degenerate_members_do_not_force_a_delegate_pass() {
        // k = 0 members and k > |V| members plan cleanly; a group of only
        // degenerate queries needs no delegates.
        let data: Vec<u32> = (0..100).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push(Query {
            corpus: c,
            k: 0,
            direction: Direction::Largest,
            inner: InnerAlgorithm::FlagRadix,
            mode: Mode::Exact,
            path: PathHint::Auto,
        });
        batch.push_topk(c, 1000); // clamps to |V| = 100 → fallback
        let mut cache = PlanCache::default();
        let plan = plan_batch(
            &batch,
            &base(),
            usize::MAX,
            &DeviceSpec::v100s(),
            &mut cache,
        );
        let PlanUnit::Fused(unit) = &plan.units[0] else {
            panic!("expected fused unit")
        };
        assert!(!unit.needs_delegates);
        assert_eq!(unit.planned.iter().map(|p| p.k).max(), Some(100));
    }

    #[test]
    fn each_query_resolves_as_the_sampled_crossover_on_its_own_corpus_and_k() {
        let spec = DeviceSpec::v100s();
        let n = 1 << 18;
        let uniform = topk_datagen::uniform(n, 41);
        // 64 distinct well-spread values, each repeated n / 64 times
        let duplicates: Vec<u32> = (0..n).map(|i| uniform[i % 64]).collect();
        let few_distinct: Vec<u32> = uniform.iter().map(|x| x % 8).collect();
        let mut batch = QueryBatch::new();
        let corpora = [
            batch.add_corpus(1, &uniform),
            batch.add_corpus(2, &duplicates),
            batch.add_corpus(3, &few_distinct),
        ];
        for k in [1usize, 100, 1 << 12, 1 << 15, 1 << 17] {
            for corpus in corpora {
                for path in PathHint::ALL {
                    batch.push(Query {
                        corpus,
                        k,
                        direction: Direction::Largest,
                        inner: InnerAlgorithm::FlagRadix,
                        mode: Mode::Exact,
                        path,
                    });
                }
            }
        }
        let expected: Vec<ChosenPath> = batch
            .queries
            .iter()
            .map(|q| match q.path {
                PathHint::Auto => {
                    drtopk_core::choose_path_sampled(batch.corpora[q.corpus].data, q.k, &spec)
                }
                PathHint::Delegate => ChosenPath::Delegate,
                PathHint::Radix => ChosenPath::Radix,
            })
            .collect();
        let auto_on = |corpus: usize, path: ChosenPath| {
            batch
                .queries
                .iter()
                .zip(&expected)
                .any(|(q, &p)| q.corpus == corpus && q.path == PathHint::Auto && p == path)
        };
        assert!(
            auto_on(corpora[0], ChosenPath::Delegate) && auto_on(corpora[0], ChosenPath::Radix),
            "the ks straddle the uniform corpus's crossover"
        );
        assert!(!auto_on(corpora[2], ChosenPath::Radix));

        let mut cache = PlanCache::default();
        let plan = plan_batch(&batch, &base(), usize::MAX, &spec, &mut cache);
        // one unit per (corpus, expected path), holding exactly its queries
        let mut want: BTreeMap<(usize, ChosenPath), Vec<usize>> = BTreeMap::new();
        for (qi, q) in batch.queries.iter().enumerate() {
            want.entry((q.corpus, expected[qi])).or_default().push(qi);
        }
        let got: BTreeMap<(usize, ChosenPath), Vec<usize>> = plan
            .units
            .iter()
            .map(|u| match u {
                PlanUnit::Fused(f) => ((f.corpus, f.path), f.queries.clone()),
                _ => panic!("every query is fused"),
            })
            .collect();
        assert_eq!(plan.units.len(), got.len(), "no (corpus, path) is split");
        assert_eq!(got, want);
    }

    #[test]
    fn row_queries_group_by_corpus_direction_and_mode() {
        let data: Vec<u32> = (0..1 << 12).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(3, &data);
        batch.push_topk(c, 8); // vector traffic coexists
        batch.push_rows(c, 16, 256, drtopk_core::RowK::Uniform(4));
        batch.push_rows(c, 8, 512, drtopk_core::RowK::Uniform(2)); // same key, other shape
        batch.push_row_query(RowQuery::new(
            c,
            16,
            256,
            drtopk_core::RowK::Uniform(4),
            Direction::Smallest,
        ));
        let mut cache = PlanCache::default();
        let plan = plan_batch(
            &batch,
            &base(),
            usize::MAX,
            &DeviceSpec::v100s(),
            &mut cache,
        );
        assert_eq!(plan.fused_units(), 1);
        let row_units = plan
            .units
            .iter()
            .filter(|u| matches!(u, PlanUnit::Rows(_)))
            .count();
        assert_eq!(row_units, 2, "largest pair fuses, smallest is its own unit");
        let PlanUnit::Rows(largest) = &plan.units[1] else {
            panic!("expected the largest-direction row unit after the fused unit")
        };
        assert_eq!(largest.members, vec![0, 1]);
        assert_eq!(batch.row_queries[1].direction, Direction::Largest);
        let PlanUnit::Rows(smallest) = &plan.units[2] else {
            panic!("expected the smallest-direction row unit last")
        };
        assert_eq!(smallest.members, vec![2]);
        assert_eq!(batch.row_queries[2].direction, Direction::Smallest);
    }

    fn build_entry(data: &[u32]) -> Arc<drtopk_core::DelegateVector<u32>> {
        build_at(data, 6, 2)
    }

    fn build_at(data: &[u32], alpha: u32, beta: usize) -> Arc<drtopk_core::DelegateVector<u32>> {
        let dev = gpu_sim::Device::new(gpu_sim::DeviceSpec::v100s());
        Arc::new(drtopk_core::build_delegate_vector(
            &dev,
            data,
            alpha,
            beta,
            drtopk_core::ConstructionMethod::Auto,
            Direction::Largest,
        ))
    }

    /// What a largest-direction lookup of corpus 0 at `(alpha, beta)`
    /// served: whether it was the exact entry, and the served entry's α′
    /// and β′.
    fn served(
        cache: &mut PlanCache,
        len: usize,
        alpha: u32,
        beta: usize,
    ) -> Option<(bool, u32, usize)> {
        served_from(cache, 0, len, alpha, beta)
    }

    /// [`served`] for corpus `id`.
    fn served_from(
        cache: &mut PlanCache,
        id: u64,
        len: usize,
        alpha: u32,
        beta: usize,
    ) -> Option<(bool, u32, usize)> {
        let (exact, vector) =
            match cache.get_delegates::<u32>(id, len, alpha, beta, Direction::Largest)? {
                CachedDelegates::Exact(v) => (true, v),
                CachedDelegates::Finer(v) => (false, v),
            };
        Some((exact, vector.subrange_size.trailing_zeros(), vector.beta))
    }

    #[test]
    fn delegate_cache_prefers_the_exact_entry_then_the_smallest_finer_one() {
        let data: Vec<u32> = (0..4096).collect();
        let len = data.len();
        let mut cache = PlanCache::with_delegate_capacity(8);
        // 256, 512, 128 and 512 delegates
        for (alpha, beta) in [(4, 1), (5, 4), (6, 2), (6, 8)] {
            cache.put_delegates(0, len, alpha, beta, build_at(&data, alpha, beta));
        }
        // the exact key wins over every finer entry
        assert_eq!(served(&mut cache, len, 6, 2), Some((true, 6, 2)));
        // every entry could serve (8, 1); the smallest does
        assert_eq!(served(&mut cache, len, 8, 1), Some((false, 6, 2)));
        // only entries with β′ ≥ 3 and α′ ≤ 5 can serve (5, 3)
        assert_eq!(served(&mut cache, len, 5, 3), Some((false, 5, 4)));
        assert_eq!(served(&mut cache, len, 7, 5), Some((false, 6, 8)));
        assert_eq!((cache.delegate_hits, cache.delegate_misses), (4, 0));
        // a finer hit refreshes the served entry's recency
        let newest = cache.delegate_order.back().map(|k| (k.alpha, k.beta));
        assert_eq!(newest, Some((6, 8)));
    }

    #[test]
    fn delegate_cache_never_serves_a_mismatched_entry() {
        let data: Vec<u32> = (0..4096).collect();
        let len = data.len();
        let mut cache = PlanCache::with_delegate_capacity(8);
        cache.put_delegates(0, len, 6, 2, build_at(&data, 6, 2));
        // a coarser α′ or a smaller β′
        assert_eq!(served(&mut cache, len, 5, 2), None);
        assert_eq!(served(&mut cache, len, 7, 3), None);
        // another direction, length, key type or corpus
        let misses = [
            cache.get_delegates::<u32>(0, len, 7, 2, Direction::Smallest),
            cache.get_delegates::<u32>(0, len - 1, 7, 2, Direction::Largest),
            cache.get_delegates::<u32>(1, len, 7, 2, Direction::Largest),
        ];
        assert!(misses.iter().all(Option::is_none));
        assert!(cache
            .get_delegates::<i32>(0, len, 7, 2, Direction::Largest)
            .is_none());
        assert_eq!((cache.delegate_hits, cache.delegate_misses), (0, 6));
        // the matching request is served by coarsening
        assert_eq!(served(&mut cache, len, 7, 2), Some((false, 6, 2)));
    }

    /// What `execute_plan` does for a unit whose pass is not cached: a
    /// lookup that misses, then (after the pool) the built pass offered to
    /// the cache. `alpha` 6, `beta` 2, the largest direction.
    fn miss_then_put(cache: &mut PlanCache, id: u64, data: &[u32]) -> Admission {
        let len = data.len();
        assert!(cache
            .get_delegates::<u32>(id, len, 6, 2, Direction::Largest)
            .is_none());
        cache.put_delegates(id, len, 6, 2, build_entry(data))
    }

    fn cached(cache: &mut PlanCache, id: u64, len: usize) -> bool {
        cache
            .get_delegates::<u32>(id, len, 6, 2, Direction::Largest)
            .is_some()
    }

    #[test]
    fn delegate_cache_evicts_least_recently_used() {
        let data: Vec<u32> = (0..4096).collect();
        let len = data.len();
        let mut cache = PlanCache::with_delegate_capacity(2);
        for id in 0..2u64 {
            assert_eq!(
                miss_then_put(&mut cache, id, &data),
                Admission::Inserted { evicted: 0 }
            );
        }
        // corpus 2 is looked up twice, the residents once each: it is
        // hotter than the victim, and with no hits in between the victim is
        // the least recently used (= first inserted) entry, corpus 0
        assert!(!cached(&mut cache, 2, len));
        assert_eq!(
            miss_then_put(&mut cache, 2, &data),
            Admission::Inserted { evicted: 1 }
        );
        assert_eq!(cache.delegates.len(), 2);
        assert!(!cached(&mut cache, 0, len));
        assert!(cached(&mut cache, 1, len));
        assert!(cached(&mut cache, 2, len));
        assert_eq!((cache.delegate_hits, cache.delegate_misses), (2, 5));
    }

    #[test]
    fn delegate_cache_keeps_the_hot_entry_under_pressure() {
        // Corpus 0 is the hottest entry of repeat-heavy traffic and the
        // oldest. Neither a one-shot corpus nor a returning one may evict
        // it: the first is rejected, the second evicts the idle corpus 1.
        let data: Vec<u32> = (0..4096).collect();
        let len = data.len();
        let mut cache = PlanCache::with_delegate_capacity(2);
        miss_then_put(&mut cache, 0, &data);
        miss_then_put(&mut cache, 1, &data);
        // repeat traffic on corpus 0 refreshes its recency
        for _ in 0..3 {
            assert!(cached(&mut cache, 0, len));
        }
        // corpus 2 streams past once: no hotter than the victim, corpus 1
        assert_eq!(miss_then_put(&mut cache, 2, &data), Admission::Rejected);
        // and returns: now it is, and corpus 1 is evicted, not 0
        assert_eq!(
            miss_then_put(&mut cache, 2, &data),
            Admission::Inserted { evicted: 1 }
        );
        assert!(cached(&mut cache, 0, len));
        assert!(!cached(&mut cache, 1, len));
        // recency order, least recently used first
        let order: Vec<u64> = cache.delegate_order.iter().map(|k| k.corpus_id).collect();
        assert_eq!(
            order,
            vec![2, 0],
            "coldest first, hottest (most recent) last"
        );
    }

    #[test]
    fn delegate_cache_reinsert_refreshes_recency_without_growth() {
        // Two units of one batch that need the same pass both miss and
        // both offer it: the second offer replaces the first in place.
        let data: Vec<u32> = (0..4096).collect();
        let len = data.len();
        let mut cache = PlanCache::with_delegate_capacity(2);
        for id in [1, 0, 0] {
            assert!(!cached(&mut cache, id, len));
        }
        for id in [1, 0, 0] {
            let admitted = cache.put_delegates(id, len, 6, 2, build_entry(&data));
            assert_eq!(admitted, Admission::Inserted { evicted: 0 });
        }
        assert_eq!(cache.delegates.len(), 2);
        assert_eq!(cache.delegate_order.len(), 2);
        // 0 is the most recent, so a hotter third corpus evicts 1
        for _ in 0..2 {
            assert!(!cached(&mut cache, 2, len));
        }
        assert_eq!(
            miss_then_put(&mut cache, 2, &data),
            Admission::Inserted { evicted: 1 }
        );
        assert!(cached(&mut cache, 0, len));
        assert!(!cached(&mut cache, 1, len));
        assert_eq!(cache.delegate_order.len(), 2);
    }

    #[test]
    fn a_finer_pass_replaces_its_corpus_coarser_entries_only_in_a_full_cache() {
        let data: Vec<u32> = (0..4096).collect();
        let len = data.len();
        let mut cache = PlanCache::with_delegate_capacity(3);
        let offer = |cache: &mut PlanCache, id: u64, alpha: u32, beta: usize| {
            assert_eq!(served_from(cache, id, len, alpha, beta), None);
            cache.put_delegates(id, len, alpha, beta, build_at(&data, alpha, beta))
        };
        // with a free slot a finer pass is inserted beside the coarser one
        for (id, alpha, beta) in [(0, 8, 1), (1, 8, 1), (0, 7, 2)] {
            assert_eq!(
                offer(&mut cache, id, alpha, beta),
                Admission::Inserted { evicted: 0 }
            );
        }
        // full: (6, 2) dominates both of corpus 0's entries (α′ ≥ 6 and
        // β′ ≤ 2) and takes their place; corpus 1 stays
        assert_eq!(
            offer(&mut cache, 0, 6, 2),
            Admission::Inserted { evicted: 2 }
        );
        assert_eq!(cache.delegates.len(), 2);
        assert_eq!(served_from(&mut cache, 1, len, 8, 1), Some((true, 8, 1)));
        // the finer entry serves what the replaced ones served
        assert_eq!(served(&mut cache, len, 8, 1), Some((false, 6, 2)));
        assert_eq!(served(&mut cache, len, 7, 2), Some((false, 6, 2)));
        assert_eq!(
            offer(&mut cache, 2, 6, 2),
            Admission::Inserted { evicted: 0 }
        );
        // full again: (5, 1) dominates nothing (β′ = 2 > 1), so the sketch
        // decides, and corpus 0 (6 lookups) is hotter than the
        // least-recently-used entry's corpus 1 (2 lookups)
        assert_eq!(
            offer(&mut cache, 0, 5, 1),
            Admission::Inserted { evicted: 1 }
        );
        assert_eq!(served_from(&mut cache, 1, len, 8, 1), None);
        // a first-seen corpus is no hotter than the victim: rejected
        assert_eq!(offer(&mut cache, 3, 6, 2), Admission::Rejected);
        assert_eq!(cache.delegates.len(), 3);
    }

    #[test]
    fn the_frequency_sketch_counts_per_corpus_saturates_and_halves() {
        let data: Vec<u32> = (0..64).collect();
        let mut cache = PlanCache::with_delegate_capacity(32);
        let len = data.len();
        let key = |id: u64, len: usize, direction| DelegateKey {
            corpus_id: id,
            len,
            alpha: 6,
            beta: 2,
            key_type: TypeId::of::<u32>(),
            direction,
        };
        // one count per lookup, whatever the (α, β) and key type
        for (alpha, beta) in [(6, 2), (9, 1), (4, 3)] {
            cache.get_delegates::<u32>(7, len, alpha, beta, Direction::Largest);
        }
        cache.get_delegates::<f32>(7, len, 6, 2, Direction::Largest);
        let estimate = |cache: &PlanCache, id, len, direction| {
            cache.frequency.estimate(&key(id, len, direction))
        };
        assert_eq!(estimate(&cache, 7, len, Direction::Largest), 4);
        // a corpus is counted per length and direction
        assert_eq!(estimate(&cache, 7, len, Direction::Smallest), 0);
        assert_eq!(estimate(&cache, 7, len + 1, Direction::Largest), 0);
        assert_eq!(estimate(&cache, 8, len, Direction::Largest), 0);
        // saturating at 255; every counter halves at the 320th lookup
        for _ in 4..300 {
            cache.get_delegates::<u32>(7, len, 6, 2, Direction::Largest);
        }
        assert_eq!(estimate(&cache, 7, len, Direction::Largest), u8::MAX);
        for _ in 300..320 {
            cache.get_delegates::<u32>(8, len, 6, 2, Direction::Largest);
        }
        assert_eq!(estimate(&cache, 7, len, Direction::Largest), u8::MAX / 2);
        assert_eq!(estimate(&cache, 8, len, Direction::Largest), 10);
    }

    #[test]
    fn memory_stays_bounded_over_many_distinct_corpora() {
        let data: Vec<u32> = (0..64).collect();
        let entry = build_entry(&data);
        let capacity = 4;
        let mut cache = PlanCache::with_delegate_capacity(capacity);
        let sketch_len = cache.frequency.counters.len();
        assert_eq!(sketch_len, 4 * 64);
        let (mut evicted, mut rejected) = (0, 0);
        for id in 0..100_000u64 {
            // corpus id / 4 comes back four times, so some passes evict
            for id in [id, id / 4] {
                if cache
                    .get_delegates::<u32>(id, data.len(), 6, 2, Direction::Largest)
                    .is_none()
                {
                    match cache.put_delegates(id, data.len(), 6, 2, Arc::clone(&entry)) {
                        Admission::Inserted { evicted: n } => evicted += n,
                        Admission::Rejected => rejected += 1,
                    }
                }
                assert!(cache.delegates.len() <= capacity);
                assert_eq!(cache.delegate_order.len(), cache.delegates.len());
            }
        }
        assert!(evicted > 0 && rejected > 0);
        assert_eq!(cache.frequency.counters.len(), sketch_len);
        assert_eq!(cache.frequency.counters.capacity(), sketch_len);
    }

    #[test]
    fn a_zero_capacity_cache_stores_nothing() {
        let data: Vec<u32> = (0..4096).collect();
        let mut cache = PlanCache::with_delegate_capacity(0);
        for _ in 0..3 {
            assert_eq!(miss_then_put(&mut cache, 0, &data), Admission::Rejected);
        }
        assert!(cache.delegates.is_empty() && cache.delegate_order.is_empty());
        assert!(cache.frequency.counters.is_empty());
        assert_eq!((cache.delegate_hits, cache.delegate_misses), (0, 3));
    }
}
