//! WAND and Block-Max WAND query evaluation with workload accounting.
//!
//! For the single-term case used in the Figure 24 comparison, the query's
//! top-k answer is simply the k highest-scoring documents of the posting
//! list. WAND/BMW maintain a size-k heap whose minimum is the threshold λ;
//! a document is *fully evaluated* (its exact score inspected and the heap
//! possibly updated) only if its upper bound beats λ:
//!
//! * plain WAND uses the list-wide maximum as the upper bound, so it fully
//!   evaluates almost every document until λ rises (it lives in this
//!   module's tests, as the reference BMW's pruning is checked against);
//! * BMW uses the block maximum, allowing it to skip to the next block when
//!   the current block's maximum cannot beat λ — but within a promising
//!   block it still proceeds document by document.
//!
//! [`BmwStats::fully_evaluated`] is the workload Figure 24 compares against
//! Dr. Top-k's (delegate vector + concatenated vector) workload.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use topk_baselines::TopKKey;

use crate::index::BmwIndex;

/// Workload counters of a WAND/BMW evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BmwStats<S: TopKKey = u32> {
    /// Documents whose exact score was inspected ("fully evaluated" in the
    /// paper's terminology).
    pub fully_evaluated: u64,
    /// Documents skipped by block-level pruning without being inspected.
    pub skipped: u64,
    /// Number of block-max comparisons performed.
    pub block_checks: u64,
    /// Final threshold λ (the k-th best score found).
    pub final_threshold: S,
}

/// Result of a WAND/BMW top-k evaluation.
#[derive(Debug, Clone)]
pub struct BmwResult<S: TopKKey = u32> {
    /// The k best (score, doc id) pairs, sorted by descending score.
    pub top: Vec<(S, u32)>,
    /// Workload counters.
    pub stats: BmwStats<S>,
}

fn heap_topk<S: TopKKey>(
    index: &BmwIndex<S>,
    k: usize,
    mut upper_bound_of: impl FnMut(usize, &mut BmwStats<S>) -> S,
    allow_block_skip: bool,
) -> BmwResult<S> {
    let mut stats = BmwStats::default();
    // the heap orders (score bits, doc id): bits order == score total order
    let mut heap: BinaryHeap<Reverse<(S::Bits, u32)>> = BinaryHeap::with_capacity(k + 1);
    let postings = index.postings();
    let k = k.min(postings.len());
    if k == 0 {
        return BmwResult {
            top: Vec::new(),
            stats,
        };
    }

    let mut pos = 0usize;
    while pos < postings.len() {
        // λ is only consulted once the heap is full, so the placeholder for
        // a partially filled heap is never compared against.
        let lambda = heap
            .peek()
            .map(|Reverse((s, _))| *s)
            .unwrap_or(S::default().to_bits());
        let ub = upper_bound_of(pos, &mut stats);
        if heap.len() >= k && ub.to_bits() <= lambda {
            // the upper bound cannot improve the heap
            if allow_block_skip {
                // BMW: skip the rest of the block in one jump
                let next = index.next_block_start(pos);
                stats.skipped += (next.min(postings.len()) - pos) as u64;
                pos = next;
            } else {
                // WAND with a list-wide bound: nothing can be skipped
                // structurally, the document is simply not evaluated
                stats.skipped += 1;
                pos += 1;
            }
            continue;
        }
        // full evaluation of this document
        stats.fully_evaluated += 1;
        let p = postings[pos];
        if heap.len() < k {
            heap.push(Reverse((p.score.to_bits(), p.doc_id)));
        } else if p.score.to_bits() > lambda {
            heap.pop();
            heap.push(Reverse((p.score.to_bits(), p.doc_id)));
        }
        pos += 1;
    }

    let mut top: Vec<(S, u32)> = heap
        .into_iter()
        .map(|Reverse((s, d))| (S::from_bits(s), d))
        .collect();
    top.sort_unstable_by_key(|&(s, d)| Reverse((s.to_bits(), d)));
    stats.final_threshold = top.last().map(|&(s, _)| s).unwrap_or_default();
    BmwResult { top, stats }
}

/// Block-Max WAND: the upper bound of a document is its block's maximum and
/// failing blocks are skipped wholesale.
pub fn bmw_topk<S: TopKKey>(index: &BmwIndex<S>, k: usize) -> BmwResult<S> {
    heap_topk(
        index,
        k,
        |pos, stats| {
            stats.block_checks += 1;
            index.block_max(index.block_of(pos))
        },
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain WAND: the upper bound of every document is the list-wide maximum.
    fn wand_topk<S: TopKKey>(index: &BmwIndex<S>, k: usize) -> BmwResult<S> {
        let list_max = index
            .postings()
            .iter()
            .map(|p| p.score)
            .max_by_key(|s| s.to_bits())
            .unwrap_or_default();
        heap_topk(
            index,
            k,
            |_pos, stats| {
                stats.block_checks += 1;
                list_max
            },
            false,
        )
    }

    fn scores_topk(scores: &[u32], k: usize) -> Vec<u32> {
        let mut s = scores.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.truncate(k);
        s
    }

    #[test]
    fn bmw_and_wand_return_the_true_topk() {
        let scores = topk_datagen::uniform(1 << 12, 7);
        let index = BmwIndex::from_scores(&scores, 64);
        for &k in &[1usize, 10, 100] {
            let bmw = bmw_topk(&index, k);
            let wand = wand_topk(&index, k);
            let expected = scores_topk(&scores, k);
            let got_bmw: Vec<u32> = bmw.top.iter().map(|&(s, _)| s).collect();
            let got_wand: Vec<u32> = wand.top.iter().map(|&(s, _)| s).collect();
            assert_eq!(got_bmw, expected, "bmw k={k}");
            assert_eq!(got_wand, expected, "wand k={k}");
            assert_eq!(bmw.stats.final_threshold, *expected.last().unwrap());
        }
    }

    #[test]
    fn float_bm25_scores_rank_identically_to_reference() {
        // the ported score path: native f32 BM25-like scores, no integer
        // quantization anywhere
        let scores = topk_datagen::bm25_scores(1 << 12, 17);
        let index = BmwIndex::from_scores(&scores, 64);
        for &k in &[1usize, 16, 100] {
            let bmw = bmw_topk(&index, k);
            let mut expected = scores.clone();
            expected.sort_unstable_by(|a, b| b.total_cmp(a));
            expected.truncate(k);
            let got: Vec<f32> = bmw.top.iter().map(|&(s, _)| s).collect();
            assert_eq!(got, expected, "k={k}");
            assert_eq!(bmw.stats.final_threshold, *expected.last().unwrap());
        }
        let with_skips = bmw_topk(&index, 8);
        assert!(with_skips.stats.skipped > 0, "block maxima must prune");
    }

    #[test]
    fn bmw_skips_blocks_and_wand_does_not() {
        let scores = topk_datagen::uniform(1 << 14, 3);
        let index = BmwIndex::from_scores(&scores, 128);
        let k = 16;
        let bmw = bmw_topk(&index, k);
        let wand = wand_topk(&index, k);
        assert!(bmw.stats.skipped > 0, "BMW must skip whole blocks");
        assert!(
            bmw.stats.fully_evaluated < wand.stats.fully_evaluated,
            "block maxima must reduce the evaluated workload: {} vs {}",
            bmw.stats.fully_evaluated,
            wand.stats.fully_evaluated
        );
        // both inspect every document at most once
        assert!(bmw.stats.fully_evaluated + bmw.stats.skipped >= index.len() as u64);
    }

    #[test]
    fn bmw_still_evaluates_more_than_dr_topk_style_subrange_skipping() {
        // The crux of Figure 24: even with block maxima, BMW walks documents
        // one by one inside promising blocks, so its evaluated workload stays
        // a significant fraction of |V| for uniform data, far above the
        // delegate + concatenated workload.
        let n = 1 << 14;
        let scores = topk_datagen::uniform(n, 11);
        let index = BmwIndex::from_scores(&scores, 64);
        let k = 64;
        let bmw = bmw_topk(&index, k);
        // Dr. Top-k workload at α per Rule 4 would be ~|V|/2^α + O(k·2^α),
        // i.e. a few percent of |V|; BMW stays above 10% on uniform data.
        assert!(
            bmw.stats.fully_evaluated > (n as u64) / 10,
            "evaluated only {} of {n}",
            bmw.stats.fully_evaluated
        );
    }

    #[test]
    fn edge_cases() {
        let index = BmwIndex::<u32>::from_scores(&[], 8);
        assert!(bmw_topk(&index, 4).top.is_empty());
        let index = BmwIndex::from_scores(&[5, 5, 5, 5], 2);
        let r = bmw_topk(&index, 10);
        assert_eq!(r.top.len(), 4);
        assert!(r.top.iter().all(|&(s, _)| s == 5));
        assert_eq!(bmw_topk(&index, 0).top.len(), 0);
    }

    #[test]
    fn descending_input_is_the_worst_case_for_bmw() {
        // With descending scores the heap threshold is already maximal after
        // the first block, letting BMW skip almost everything.
        let scores: Vec<u32> = (0..4096u32).rev().collect();
        let index = BmwIndex::from_scores(&scores, 64);
        let r = bmw_topk(&index, 32);
        assert!(r.stats.skipped > 3500);
        // Ascending scores are the opposite: λ trails the data, every block
        // looks promising and almost everything is evaluated.
        let ascending: Vec<u32> = (0..4096u32).collect();
        let index = BmwIndex::from_scores(&ascending, 64);
        let r = bmw_topk(&index, 32);
        assert!(r.stats.fully_evaluated > 3500);
    }
}
