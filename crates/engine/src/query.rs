//! Query and batch types: the engine's input surface.
//!
//! A [`QueryBatch`] is a set of *corpora* (the vectors to select over) plus
//! a set of *queries*, each naming a corpus by index and carrying its own
//! `k`, [`Direction`] and inner algorithm. Heterogeneity is the point: one
//! batch may mix top-k-largest and top-k-smallest queries, tiny and huge
//! `k`, and different second-phase algorithms — the planner sorts out what
//! can be fused and what cannot.

use drtopk_core::{Direction, DrTopKConfig, InnerAlgorithm, Mode, PathHint, RowK};
use topk_baselines::TopKKey;

/// One top-k query of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Index of the corpus this query selects over (see
    /// [`QueryBatch::add_corpus`]).
    pub corpus: usize,
    /// Number of winners requested. `0` yields an empty result; values
    /// larger than the corpus are clamped, exactly like [`drtopk_core::dr_topk`].
    pub k: usize,
    /// Largest or smallest.
    pub direction: Direction,
    /// The algorithm that runs the second top-k for this query.
    pub inner: InnerAlgorithm,
    /// Exact selection or a recall target. Approximate queries are fused
    /// separately from exact ones (and per distinct target): a shared
    /// candidate pass sized for the *loosest* recall of a mixed group would
    /// silently under-serve the tighter members, so the planner never
    /// builds one.
    pub mode: Mode,
    /// Which execution path the query runs: the delegate pipeline, the
    /// large-k multi-pass radix path, or (the default) the planner's
    /// modeled crossover. The planner resolves the hint per query at plan
    /// time and fuses queries by the *resolved* path — delegate-path
    /// queries share a delegate pass, radix-path queries share a unit
    /// without one. Approximate queries ignore the hint (the bucket
    /// machinery has no radix twin).
    pub path: PathHint,
}

impl Query {
    /// A query with the default flag-radix inner algorithm and the
    /// planner's automatic path.
    pub(crate) fn new(corpus: usize, k: usize, direction: Direction, mode: Mode) -> Query {
        Query {
            corpus,
            k,
            direction,
            inner: InnerAlgorithm::FlagRadix,
            mode,
            path: PathHint::Auto,
        }
    }
}

/// One row-matrix top-k query: the corpus reinterpreted as a row-major
/// `rows × cols` matrix, selecting every row's top-k in one planned unit
/// (see [`drtopk_core::topk_rows`]).
///
/// Row queries are fused by `(corpus, direction, mode)` exactly like
/// vector queries and run on one pool device as a single row-block stage
/// graph — one fused delegate pass per row-block, never one per row. They
/// always run corpus-resident: a corpus larger than the worker device's
/// memory surfaces a per-device [`crate::EngineError`] (there is no
/// sharded row path yet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowQuery {
    /// Index of the corpus this query selects over.
    pub corpus: usize,
    /// Number of matrix rows; `rows * cols` must equal the corpus length.
    pub rows: usize,
    /// Number of matrix columns (elements per row).
    pub cols: usize,
    /// Uniform or per-row k (clamped per row, exactly like vector queries).
    pub ks: RowK,
    /// Largest or smallest, applied to every row.
    pub direction: Direction,
    /// Exact selection or a recall target, applied to every row.
    pub mode: Mode,
}

impl RowQuery {
    /// An exact row query.
    pub(crate) fn new(
        corpus: usize,
        rows: usize,
        cols: usize,
        ks: RowK,
        direction: Direction,
    ) -> RowQuery {
        RowQuery {
            corpus,
            rows,
            cols,
            ks,
            direction,
            mode: Mode::Exact,
        }
    }
}

/// A corpus registered with a batch: a borrowed key slice plus a
/// caller-provided stable identity used by the engine's delegate cache.
///
/// The `id` is the cache key for reusing work across batches: two batches
/// presenting the same `(id, len)` are assumed to present the **same
/// data** — bump the id whenever the underlying vector changes.
#[derive(Debug, Clone, Copy)]
pub struct Corpus<'a, K: TopKKey> {
    /// Caller-assigned stable identity: the delegate cache's key.
    pub id: u64,
    /// The keys to select over.
    pub data: &'a [K],
}

/// A batch of heterogeneous top-k queries over a set of corpora.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch<'a, K: TopKKey> {
    pub(crate) corpora: Vec<Corpus<'a, K>>,
    pub(crate) queries: Vec<Query>,
    pub(crate) row_queries: Vec<RowQuery>,
}

impl<'a, K: TopKKey> QueryBatch<'a, K> {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch {
            corpora: Vec::new(),
            queries: Vec::new(),
            row_queries: Vec::new(),
        }
    }

    /// Register a corpus with a stable identity and return its index.
    /// Presenting the same `id` with the same length in a later batch lets
    /// the engine reuse the cached delegate vector instead of rebuilding it.
    pub fn add_corpus(&mut self, id: u64, data: &'a [K]) -> usize {
        self.corpora.push(Corpus { id, data });
        self.corpora.len() - 1
    }

    /// Append a query; returns its index, which is also the index of its
    /// result in [`crate::BatchOutput::results`].
    pub fn push(&mut self, query: Query) -> usize {
        assert!(
            query.corpus < self.corpora.len(),
            "query references corpus {} but only {} corpora are registered",
            query.corpus,
            self.corpora.len()
        );
        self.queries.push(query);
        self.queries.len() - 1
    }

    /// Convenience: append a top-k-largest query with the default
    /// flag-radix inner algorithm.
    pub fn push_topk(&mut self, corpus: usize, k: usize) -> usize {
        self.push(Query::new(corpus, k, Direction::Largest, Mode::Exact))
    }

    /// Convenience: append a top-k-smallest query with the default
    /// flag-radix inner algorithm.
    pub fn push_topk_min(&mut self, corpus: usize, k: usize) -> usize {
        self.push(Query::new(corpus, k, Direction::Smallest, Mode::Exact))
    }

    /// Convenience: append a recall-targeted approximate top-k-largest
    /// query (`target_recall` is a fraction in `(0, 1]`; 1.0 is exact).
    pub fn push_topk_approx(&mut self, corpus: usize, k: usize, target_recall: f64) -> usize {
        let mode = DrTopKConfig::approx(target_recall).mode;
        self.push(Query::new(corpus, k, Direction::Largest, mode))
    }

    /// Convenience: append a recall-targeted approximate top-k-smallest
    /// query.
    pub fn push_topk_min_approx(&mut self, corpus: usize, k: usize, target_recall: f64) -> usize {
        let mode = DrTopKConfig::approx(target_recall).mode;
        self.push(Query::new(corpus, k, Direction::Smallest, mode))
    }

    /// Append a row-matrix query; returns its index, which is also the
    /// index of its result in [`crate::BatchOutput::row_results`].
    ///
    /// # Panics
    ///
    /// Panics when the corpus index is out of range, when `rows * cols`
    /// does not equal the corpus length, or when a
    /// [`RowK::PerRow`] vector's length differs from `rows`.
    pub fn push_row_query(&mut self, query: RowQuery) -> usize {
        assert!(
            query.corpus < self.corpora.len(),
            "row query references corpus {} but only {} corpora are registered",
            query.corpus,
            self.corpora.len()
        );
        let len = self.corpora[query.corpus].data.len();
        assert_eq!(
            query.rows * query.cols,
            len,
            "row query shape {}x{} must cover corpus {} exactly ({} keys)",
            query.rows,
            query.cols,
            query.corpus,
            len
        );
        query.ks.validate(query.rows);
        self.row_queries.push(query);
        self.row_queries.len() - 1
    }

    /// Convenience: append a row-wise top-k-**largest** query over the
    /// corpus viewed as a row-major `rows × cols` matrix.
    pub fn push_rows(&mut self, corpus: usize, rows: usize, cols: usize, ks: RowK) -> usize {
        self.push_row_query(RowQuery::new(corpus, rows, cols, ks, Direction::Largest))
    }

    /// The registered corpora.
    pub fn corpora(&self) -> &[Corpus<'a, K>] {
        &self.corpora
    }

    /// The queued queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The queued row-matrix queries.
    pub(crate) fn row_queries(&self) -> &[RowQuery] {
        &self.row_queries
    }

    /// Number of single-vector queries in the batch (row-matrix queries
    /// are not counted).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the batch holds no queries of either kind.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty() && self.row_queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_assigns_indices() {
        let data: Vec<u32> = (0..128).collect();
        let other: Vec<u32> = (0..64).collect();
        let mut batch = QueryBatch::new();
        let c0 = batch.add_corpus(1, &data);
        let c1 = batch.add_corpus(2, &other);
        assert_eq!((c0, c1), (0, 1));
        assert_eq!(batch.push_topk(c0, 10), 0);
        assert_eq!(batch.push_topk_min(c1, 5), 1);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.queries()[0].direction, Direction::Largest);
        assert_eq!(batch.queries()[1].direction, Direction::Smallest);
        assert_eq!(batch.corpora()[0].id, 1);
        assert_eq!(batch.corpora()[1].id, 2);
    }

    #[test]
    #[should_panic(expected = "references corpus")]
    fn out_of_range_corpus_panics_at_push() {
        let mut batch = QueryBatch::<u32>::new();
        batch.push_topk(0, 10);
    }

    #[test]
    fn row_queries_validate_and_index() {
        let data: Vec<u32> = (0..128).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        assert_eq!(batch.push_rows(c, 8, 16, RowK::Uniform(4)), 0);
        assert_eq!(
            batch.push_row_query(RowQuery::new(
                c,
                4,
                32,
                RowK::PerRow(vec![1, 2, 3, 4]),
                Direction::Smallest
            )),
            1
        );
        assert_eq!(batch.row_queries().len(), 2);
        assert_eq!(batch.len(), 0, "row queries are counted separately");
        assert!(!batch.is_empty());
        assert_eq!(batch.row_queries()[1].direction, Direction::Smallest);
    }

    #[test]
    #[should_panic(expected = "must cover corpus")]
    fn row_query_shape_mismatch_panics() {
        let data: Vec<u32> = (0..100).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_rows(c, 8, 16, RowK::Uniform(4));
    }

    #[test]
    #[should_panic(expected = "per-row k vector length")]
    fn row_query_bad_per_row_k_panics() {
        let data: Vec<u32> = (0..128).collect();
        let mut batch = QueryBatch::new();
        let c = batch.add_corpus(1, &data);
        batch.push_rows(c, 8, 16, RowK::PerRow(vec![1, 2]));
    }
}
