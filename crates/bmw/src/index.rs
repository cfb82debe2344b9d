//! Block-max posting-list index.
//!
//! A posting list is a docID-ordered sequence of (docID, score) pairs,
//! partitioned into fixed-size blocks; each block stores its maximum score.
//! For the Figure 24 comparison the "documents" are simply the positions of
//! the Dr. Top-k input vector and the scores are its values, mirroring the
//! paper's setting where both approaches answer the same top-k query.
//!
//! The score type is any [`TopKKey`], so the index ranks native `f32` BM25
//! scores exactly as it ranks the integer proxies (block maxima and the
//! heap threshold compare in the key's total order).

use topk_baselines::TopKKey;

/// One (document id, score) posting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Posting<S: TopKKey = u32> {
    /// Document identifier (monotonically increasing within a list).
    pub(crate) doc_id: u32,
    /// Score of the term in this document.
    pub(crate) score: S,
}

/// A block-max indexed posting list.
#[derive(Debug, Clone)]
pub struct BmwIndex<S: TopKKey = u32> {
    postings: Vec<Posting<S>>,
    block_size: usize,
    block_max: Vec<S>,
}

fn max_score<S: TopKKey>(block: &[Posting<S>]) -> S {
    block
        .iter()
        .map(|p| p.score)
        .max_by_key(|s| s.to_bits())
        .unwrap_or_default()
}

impl<S: TopKKey> BmwIndex<S> {
    /// Build an index over the scores of a value vector: document `i` gets
    /// score `scores[i]`.
    pub fn from_scores(scores: &[S], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let postings: Vec<Posting<S>> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Posting {
                doc_id: i as u32,
                score: s,
            })
            .collect();
        let block_max = postings.chunks(block_size).map(max_score).collect();
        BmwIndex {
            postings,
            block_size,
            block_max,
        }
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_max.len()
    }

    /// All postings, in doc-id order.
    pub(crate) fn postings(&self) -> &[Posting<S>] {
        &self.postings
    }

    /// Maximum score of block `b`.
    pub(crate) fn block_max(&self, b: usize) -> S {
        self.block_max[b]
    }

    /// Block index containing posting position `pos`.
    pub(crate) fn block_of(&self, pos: usize) -> usize {
        pos / self.block_size
    }

    /// Position (within the postings) of the first posting of the block
    /// *after* the one containing `pos` — i.e. where a block-level skip
    /// lands.
    pub(crate) fn next_block_start(&self, pos: usize) -> usize {
        (self.block_of(pos) + 1) * self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_block_maxima_from_scores() {
        let scores = vec![5, 1, 9, 3, 7, 2, 8];
        let idx = BmwIndex::from_scores(&scores, 3);
        assert_eq!(idx.len(), 7);
        assert_eq!(idx.num_blocks(), 3);
        assert_eq!(idx.block_max(0), 9);
        assert_eq!(idx.block_max(1), 7);
        assert_eq!(idx.block_max(2), 8);
        assert_eq!(idx.block_of(4), 1);
        assert_eq!(idx.next_block_start(4), 6);
        assert_eq!(idx.block_size, 3);
        assert!(!idx.is_empty());
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn rejects_zero_block_size() {
        BmwIndex::from_scores(&[1, 2, 3], 0);
    }

    #[test]
    fn empty_scores() {
        let idx = BmwIndex::<u32>::from_scores(&[], 4);
        assert!(idx.is_empty());
        assert_eq!(idx.num_blocks(), 0);
    }

    #[test]
    fn float_scores_build_total_order_block_maxima() {
        let scores = vec![0.5f32, -1.0, 2.25, f32::NEG_INFINITY, 0.0, 1.5];
        let idx = BmwIndex::from_scores(&scores, 2);
        assert_eq!(idx.num_blocks(), 3);
        assert_eq!(idx.block_max(0), 0.5);
        assert_eq!(idx.block_max(1), 2.25);
        assert_eq!(idx.block_max(2), 1.5);
    }
}
