//! # bmw-baseline — Block-Max WAND for the Figure 24 workload comparison
//!
//! Section 4.4 of the paper contrasts Dr. Top-k with BMW (Ding & Suel,
//! SIGIR'11), the classic information-retrieval algorithm that also exploits
//! per-block maxima: BMW partitions each posting list into blocks, stores
//! the maximum score of every block, and skips a *document* when the sum of
//! the block maxima covering it cannot beat the current top-k threshold λ.
//!
//! The key distinction the paper demonstrates (Figure 24) is that BMW is
//! *element-centric*: even when a block's maximum is promising, BMW still
//! evaluates the documents of that block one at a time, whereas Dr. Top-k
//! uses one delegate comparison to admit or skip an entire subrange. The
//! comparison metric is therefore the **fully evaluated workload** — how many
//! elements each approach actually has to look at after its pruning — which
//! this crate measures for BMW over the same score vectors Dr. Top-k is
//! evaluated on (the single-term query case, where the score vector *is* the
//! posting list).

pub mod index;
pub mod wand;

pub use index::BmwIndex;
pub use wand::{bmw_topk, BmwResult, BmwStats};
