//! Delegate vector construction (Sections 4.1, 4.3 and 5.3 of the paper).
//!
//! The input vector is partitioned into subranges of `2^α` elements. From
//! each subrange the construction extracts its top `β` elements — the
//! *delegates* — together with the subrange id, producing the delegate
//! vector the first top-k runs on.
//!
//! Two construction kernels are modeled:
//!
//! * **warp-centric** ([`ConstructionMethod::WarpShuffle`]) — one warp scans
//!   one subrange; each lane keeps a running maximum and the warp combines
//!   lanes with `__shfl_sync` butterfly reductions (31 shuffles per reduction,
//!   β reductions per subrange). This is the paper's baseline construction
//!   and achieves near-peak bandwidth for large subranges.
//! * **coalesced-load-to-shared + strided-compute**
//!   ([`ConstructionMethod::CoalescedShared`]) — for small subranges
//!   (α ≤ 5, which Rule 4 produces when k is large) a warp first stages 32
//!   subranges in shared memory with fully coalesced loads (padded to avoid
//!   bank conflicts) and then each *thread* extracts the delegates of one
//!   subrange privately, eliminating the shuffle traffic entirely
//!   (Section 5.3, Figure 15).
//!
//! ## Model versus host work
//!
//! The host may compute a kernel's outputs any way it likes, inside the
//! launch or after it: the model is only what the kernel records on its
//! [`WarpCtx`](gpu_sim::WarpCtx) — loads, stores, shuffles, shared-memory
//! traffic, barriers and ALU work. Both methods therefore share one host
//! extraction loop, record the same per-subrange counts (`min(β, len)`
//! delegates: β 31-shuffle reductions for `WarpShuffle`, one coalesced
//! store), and differ only in the rest of their accounting. A faster host
//! loop changes wall-clock time without moving a counter or a modeled
//! millisecond (the pinned `KernelStats` unit tests of construction and
//! coarsening guard this).
//!
//! The host loop is `delegates_into`, which picks one of two loops from the
//! shape it is given:
//!
//! * **per-lane** — β ≤ 4 and subranges up to a limit that depends on the
//!   key width, β and the build (the measured crossover, stated on
//!   `delegates_into`): a branch-free running top-β in each of 8 lanes,
//!   each element passing through β compare-exchanges in radix space, then
//!   a pairwise fold of the lanes. This is the host analogue of RTop-K's
//!   per-lane selection (`PAPERS.md`). In the portable build the
//!   compare-exchange of 32-bit keys is mask arithmetic (`order_pair`),
//!   because the baseline x86-64 target (SSE2) has no unsigned 32-bit
//!   vector max or min: written with `Ord::max`/`Ord::min` the loop stays
//!   scalar, written with masks it vectorizes. For 32-bit keys on a CPU
//!   with AVX2, `delegates_into` runs an AVX2 build whose per-lane loop is
//!   written with AVX2 intrinsics (`per_lane_top_avx2`): one
//!   `vpmaxud`/`vpminud` pair per compare-exchange on 8-lane registers,
//!   and the lane fold in registers too. It keeps its lead over chunk-skip
//!   up to 2^16 elements at β = 1, 2^13 at β = 2 and 2^11 at β 3–4 (2^9
//!   or 2^10 in the portable build). Both builds return the same bits.
//! * **chunk-skip** (`top_beta_into`) — everything else. It applies the
//!   paper's maximum-delegate filtering one level down: after seeding the β
//!   slots it scans each subrange in warp-wide chunks of 32 elements, tests
//!   each chunk branch-free for a key that beats the current β-th best, and
//!   looks at the individual elements only of a chunk that holds one.
//!
//! The launch only records, and the host loop runs once, after the
//! launch, over the whole input. Each warp charges its run of subranges,
//! and every warp with the same number of whole subranges charges the
//! same: so the launch is charged in closed form
//! ([`Device::launch_alike`]), running one warp for each run of alike
//! warps (the warps with one subrange more than the rest, the rest, and
//! the last warp, which holds the ragged subrange if any) rather than
//! one per warp (up to 2^14 of them). Debug builds run every warp and
//! check it. Warps take contiguous runs of whole subranges in warp order,
//! so that one host call returns exactly what per-warp calls would have
//! concatenated, and it saves a call, a `Vec` growth check and a loop
//! choice per warp. The subrange ids are a function of the shape alone
//! and are built once too (`delegate_subrange_ids`).
//!
//! ## Delegates of delegates
//!
//! Rule 1 holds for delegates too: a coarse subrange's top-β lies in the
//! union of its parts' top-β′ lists for any β′ ≥ β. So
//! [`coarsen_delegate_vector`] derives the vector at `(α, β)` from one of
//! the same input at α′ ≤ α, β′ ≥ β, bit-identical to a fresh build and
//! reading `β′·|V|/2^α′` values instead of `|V|`. The serving engine uses
//! it to answer a cached corpus at every coarser α and smaller β.
//!
//! The finer vector stores each fine subrange's list best first, so the
//! host does not select a coarse block again element by element: it
//! merges the block's lists, as the second stage of Key et al.'s
//! approximate top-k merges sorted per-bucket lists (`PAPERS.md`). For
//! β ≤ 4, lists of at least β values and at most two lists per block (any
//! number at β = 1), it folds each list's β-prefix into the running top-β
//! with the per-lane loop's `merge_top` network, skipping a list whose
//! head does not beat the running β-th best; at α = α′ that is a prefix
//! copy. Longer blocks, larger β and a ragged final block go through
//! `delegates_into`, whose eight-lane loop wins once a block holds four or
//! more lists of two or more delegates (`merge_lists_into`).

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256i, _mm256_cvtsi256_si32, _mm256_max_epu32, _mm256_min_epu32, _mm256_permute2x128_si256,
    _mm256_setzero_si256, _mm256_shuffle_epi32,
};

use gpu_sim::warp::SHUFFLES_PER_WARP_REDUCTION;
use gpu_sim::{Device, KernelStats, WARP_SIZE};
use topk_baselines::{KeyBits, TopKKey};

use crate::direction::{as_desc, Direction};

/// How the delegate vector is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructionMethod {
    /// One warp per subrange, shuffle-based reduction (baseline).
    WarpShuffle,
    /// Coalesced staging of 32 subranges into shared memory, one thread per
    /// subrange (the Section 5.3 optimization).
    CoalescedShared,
    /// Pick automatically: [`CoalescedShared`](ConstructionMethod::CoalescedShared)
    /// when the subrange is too small to keep a warp busy (α ≤ 5), otherwise
    /// [`WarpShuffle`](ConstructionMethod::WarpShuffle).
    Auto,
}

impl ConstructionMethod {
    /// Resolve [`ConstructionMethod::Auto`] for a given subrange exponent.
    pub fn resolve(self, alpha: u32) -> ConstructionMethod {
        match self {
            ConstructionMethod::Auto => {
                if alpha <= 5 {
                    ConstructionMethod::CoalescedShared
                } else {
                    ConstructionMethod::WarpShuffle
                }
            }
            other => other,
        }
    }
}

/// The delegate vector: `β` (value, subrange id) entries per subrange,
/// stored as two parallel columns (structure of arrays).
#[derive(Debug, Clone)]
pub struct DelegateVector<K: TopKKey = u32> {
    /// Delegate values, `β` consecutive entries per subrange: each
    /// subrange's best β native keys in [`direction`](Self::direction)'s
    /// order, best first (descending for the largest, ascending for the
    /// smallest).
    pub values: Vec<K>,
    /// Subrange id of each delegate entry (parallel to `values`).
    pub subrange_ids: Vec<u32>,
    /// Number of delegates extracted per subrange.
    pub beta: usize,
    /// Subrange size `2^α`.
    pub subrange_size: usize,
    /// Number of subranges (`⌈|V| / 2^α⌉`).
    pub num_subranges: usize,
    /// The direction the delegates were extracted for; only plans of that
    /// direction may share the vector.
    pub direction: Direction,
    /// Counters accumulated by the kernel that produced the vector (the
    /// construction, or [`coarsen_delegate_vector`]'s coarsening).
    pub stats: KernelStats,
    /// Modeled time of that kernel in milliseconds.
    pub time_ms: f64,
}

impl<K: TopKKey> DelegateVector<K> {
    /// Total number of delegate entries (`num_subranges × β`, minus the
    /// entries that short final subranges could not fill).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the delegate vector is empty (empty input).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The vector as the pipeline reads it, in `K`'s own order.
    pub(crate) fn view(&self) -> Delegates<'_, K> {
        Delegates {
            values: &self.values,
            subrange_ids: &self.subrange_ids,
            beta: self.beta,
            subrange_size: self.subrange_size,
            num_subranges: self.num_subranges,
        }
    }
}

/// A borrowed delegate vector: its values in the key order being selected
/// (best first per subrange), with the shape they were extracted for. The
/// first top-k and the approximate pass read delegates through it, so a
/// smallest-direction vector of native keys is read as `Desc` keys without
/// a copy ([`Delegates::as_desc`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delegates<'a, K> {
    pub(crate) values: &'a [K],
    pub(crate) subrange_ids: &'a [u32],
    pub(crate) beta: usize,
    pub(crate) subrange_size: usize,
    pub(crate) num_subranges: usize,
}

impl<K> Delegates<'_, K> {
    /// Total number of delegate entries.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// Append the top-β of every `subrange_size`-element subrange of `data` to
/// `out`, subrange by subrange and best first, with the same bits as
/// [`top_beta_into`] on each subrange. The one host extraction loop of
/// delegate construction and of the row-block fused pass ([`crate::rows`]).
///
/// For 32-bit keys on a CPU with AVX2 the loop runs the AVX2 build
/// ([`delegates_into_avx2`]): its per-lane loop is written with AVX2
/// intrinsics ([`per_lane_avx2`]), and it runs chunk-skip as the portable
/// build compiles it ([`chunk_skip_into`]). 64-bit keys, and every key on
/// another CPU, run the portable build ([`portable_into`]). The builds
/// return the same bits; only their speed, and so their per-lane limits,
/// differ. 64-bit keys stay
/// portable: SSE2 has no 64-bit compare, AVX2 only a signed one, and in a
/// build of this loop for every key width, 64-bit keys ran up to twice as
/// slow as the portable build on some cells (u64, smallest direction,
/// β = 1) while others halved.
///
/// The loop is chosen from the shape: subranges of β to
/// [`per_lane_max_subrange`] elements with β ≤ 4 run the branch-free
/// per-lane loop ([`per_lane_top`]), everything else the chunk-skip loop.
/// In a small subrange most 32-element chunks beat the running β-th best,
/// so chunk-skip walks them element by element on unpredictable branches;
/// in a large one it mostly skips, and its one vectorized test per chunk
/// beats the per-lane loop's β compare-exchanges per element. The limit is
/// the largest power-of-two subrange at which the per-lane loop beats
/// chunk-skip by at least 10% on uniform input for every key type of that
/// width, in both directions, and each build has its own. Measured with
/// the `construction` bench (`crates/bench/benches/construction.rs`: whole
/// `build_delegate_vector` call on 2^18 uniform keys, ns per element,
/// medians of ten interleaved runs of 15 rounds, 2-core x86-64 host),
/// per-lane against chunk-skip in the largest direction. The portable
/// build:
///
/// | keys | β | α = 9 | α = 10 | α = 11 | limit |
/// |---|---|---|---|---|---|
/// | u32 | 1 | 0.44 / 0.50 | 0.45 / 0.31 | 0.42 / 0.23 | 2^9 |
/// | f32 | 1 | 0.52 / 0.79 | 0.48 / 0.57 | 0.45 / 0.44 | 2^9 |
/// | u32 | 2 | 0.51 / 0.96 | 0.51 / 0.60 | 0.47 / 0.40 | 2^10 |
/// | f32 | 2 | 0.64 / 1.24 | 0.63 / 0.84 | 0.62 / 0.60 | 2^10 |
/// | u32 | 3 | 0.79 / 1.38 | 0.71 / 0.90 | 0.69 / 0.55 | 2^9 |
/// | f32 | 3 | 0.91 / 1.77 | 0.86 / 1.14 | 0.85 / 0.78 | 2^9 |
/// | u32 | 4 | 1.02 / 1.56 | 0.98 / 0.97 | 0.93 / 0.61 | 2^9 |
/// | f32 | 4 | 1.32 / 1.98 | 1.25 / 1.29 | 1.21 / 0.95 | 2^9 |
/// | u64 | 1 | 0.49 / 0.74 | 0.52 / 0.57 | 0.51 / 0.52 | 2^8 |
/// | f64 | 1 | 1.53 / 1.45 | 1.48 / 1.27 | 1.41 / 1.17 | 2^8 |
///
/// Chunk-skip's chunk test is an or of compares, which vectorizes for
/// every 32-bit key type; the earlier chunk maximum stayed scalar for
/// plain u32 and cost it 1.83 ns per element at β = 1 and α = 9, so the
/// limits of 32-bit β = 1 and 64-bit β = 1 fell from 2^10 and 2^9. The
/// smallest direction decides u32 at β = 3 and α = 10 (0.75 against 0.82)
/// and u64 at β = 1 and α = 9 (0.65 against 0.66), and u32 at β = 1 and
/// α = 9 passes by a hair (0.44 against 0.50): single runs put it on
/// either side. 64-bit keys with β ≥ 2 fell from 256 to 128 elements:
/// their compare-exchange stays scalar ([`order_pair`]), and at α = 8
/// chunk-skip costs 1.41 on u64 at β = 2 against the per-lane loop's 1.36,
/// while at α = 7 the per-lane loop wins every 64-bit cell by at least
/// 10%. The per-lane loop costs the same on any input; chunk-skip's cost
/// follows the data, and on ascending input, where every chunk holds a new
/// candidate, the per-lane loop is 1.3–4.9 times faster at α 9–11.
///
/// The AVX2 build (32-bit keys only), from two builds whose AVX2 limit
/// was 0 (always chunk-skip, as the portable build compiles it) and 2^20
/// (always per-lane), with the bench's α range raised to 16 (medians of
/// ten alternating runs of 15 rounds), uniform input, largest direction:
///
/// | keys | β | α = 11 | α = 12 | α = 13 | α = 14 | α = 16 | limit |
/// |---|---|---|---|---|---|---|---|
/// | u32 | 1 | 0.05 / 0.19 | 0.05 / 0.15 | 0.05 / 0.13 | 0.05 / 0.12 | 0.06 / 0.11 | 2^16 |
/// | f32 | 1 | 0.10 / 0.39 | 0.10 / 0.33 | 0.10 / 0.30 | 0.10 / 0.28 | 0.10 / 0.26 | 2^16 |
/// | u32 | 2 | 0.09 / 0.32 | 0.09 / 0.23 | 0.09 / 0.16 | 0.09 / 0.14 | 0.09 / 0.12 | 2^13 |
/// | f32 | 2 | 0.14 / 0.55 | 0.14 / 0.42 | 0.14 / 0.35 | 0.13 / 0.31 | 0.13 / 0.27 | 2^13 |
/// | u32 | 3 | 0.15 / 0.43 | 0.14 / 0.28 | 0.15 / 0.20 | 0.14 / 0.15 | 0.14 / 0.12 | 2^11 |
/// | f32 | 3 | 0.18 / 0.69 | 0.17 / 0.49 | 0.17 / 0.38 | 0.17 / 0.32 | 0.17 / 0.28 | 2^11 |
/// | u32 | 4 | 0.19 / 0.52 | 0.19 / 0.33 | 0.19 / 0.23 | 0.18 / 0.17 | 0.18 / 0.13 | 2^11 |
/// | f32 | 4 | 0.22 / 0.84 | 0.21 / 0.57 | 0.21 / 0.43 | 0.21 / 0.35 | 0.21 / 0.29 | 2^11 |
///
/// By the uniform rule alone u32 would set the limits at 2^16 (β = 1, the
/// bench's largest subrange), 2^14, 2^13 and 2^12 (the smallest direction
/// decides β 2–4). The AVX2 limits also keep chunk-skip's best case: on
/// input sorted best first (ascending keys, smallest direction) no chunk
/// after the first beats the floor, and chunk-skip costs 0.11–0.12 on u32
/// at α 11–16 against the per-lane loop's 0.06 at β = 1, 0.12 at β = 2,
/// 0.17 at β = 3 and 0.22 at β = 4. At β = 1 the per-lane loop wins that
/// input too. At β = 2 it costs 1.02–1.04 times chunk-skip at α 12–13 and
/// 1.09 at α = 14, so the limit is 2^13. At β 3–4 it costs 1.5–2 times
/// from α = 12 on, so those limits stay at 2^11. Below them the per-lane
/// loop loses only on that input (0.17 and 0.22 against 0.12 at α = 11),
/// and at α = 11 it is 2.8 times faster than chunk-skip on uniform u32
/// and 8–15 times faster on ascending u32 in the largest direction, where
/// every chunk holds a new candidate.
#[inline]
pub(crate) fn delegates_into<K: TopKKey>(
    data: &[K],
    subrange_size: usize,
    beta: usize,
    out: &mut Vec<K>,
) {
    #[cfg(target_arch = "x86_64")]
    if K::Bits::BITS == 32 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: `delegates_into_avx2` needs AVX2 only, and the running
        // CPU has it (checked just above).
        return unsafe { delegates_into_avx2(data, subrange_size, beta, out) };
    }
    portable_into(data, subrange_size, beta, out);
}

/// The portable build of [`delegates_into`]: the per-lane loop
/// ([`per_lane_into`]) up to the portable limits, chunk-skip
/// ([`top_beta_into`]) otherwise.
#[inline(always)]
fn portable_into<K: TopKKey>(data: &[K], subrange_size: usize, beta: usize, out: &mut Vec<K>) {
    out.reserve(data.len().div_ceil(subrange_size) * beta);
    if (beta..=per_lane_max_subrange(Build::Portable, beta, K::Bits::BITS)).contains(&subrange_size)
    {
        match beta {
            1 => return per_lane_into::<K, 1>(data, subrange_size, out),
            2 => return per_lane_into::<K, 2>(data, subrange_size, out),
            3 => return per_lane_into::<K, 3>(data, subrange_size, out),
            4 => return per_lane_into::<K, 4>(data, subrange_size, out),
            _ => {}
        }
    }
    for subrange in data.chunks(subrange_size) {
        top_beta_into(subrange, beta, out);
    }
}

/// The AVX2 build of [`delegates_into`] (32-bit keys): the per-lane loop
/// on 8-lane `vpmaxud`/`vpminud` ([`per_lane_avx2`]) up to the AVX2
/// limits, chunk-skip as the portable build compiles it
/// ([`chunk_skip_into`]) otherwise. Outside AVX2 code a call is `unsafe`:
/// the caller must have checked that the CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn delegates_into_avx2<K: TopKKey>(
    data: &[K],
    subrange_size: usize,
    beta: usize,
    out: &mut Vec<K>,
) {
    debug_assert_eq!(K::Bits::BITS, 32);
    out.reserve(data.len().div_ceil(subrange_size) * beta);
    if (beta..=per_lane_max_subrange(Build::Avx2, beta, 32)).contains(&subrange_size) {
        let (whole, rest) = data.split_at(data.len() - data.len() % subrange_size);
        match beta {
            1 => per_lane_avx2::<K, 1>(whole, subrange_size, out),
            2 => per_lane_avx2::<K, 2>(whole, subrange_size, out),
            3 => per_lane_avx2::<K, 3>(whole, subrange_size, out),
            4 => per_lane_avx2::<K, 4>(whole, subrange_size, out),
            _ => return chunk_skip_into(data, subrange_size, beta, out),
        }
        return top_beta_into(rest, beta, out);
    }
    chunk_skip_into(data, subrange_size, beta, out);
}

/// A build of the host loop; it sets the per-lane limits.
#[derive(Clone, Copy)]
enum Build {
    /// Compiled for the crate's target (SSE2 on baseline x86-64):
    /// [`portable_into`].
    Portable,
    /// AVX2 ([`delegates_into_avx2`]); 32-bit keys only.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
}

/// [`top_beta_into`] on every subrange, as the portable build compiles it:
/// never inlined, so the AVX2 build calls it. LLVM's AVX2 form of the
/// chunk test narrows each compare mask with two shuffles (`vextracti128`,
/// `vpackssdw`) before the or, and on the `construction` bench it was
/// 8–19% slower than the SSE2 form on uniform u32 at α 11–13.
#[inline(never)]
fn chunk_skip_into<K: TopKKey>(data: &[K], subrange_size: usize, beta: usize, out: &mut Vec<K>) {
    for subrange in data.chunks(subrange_size) {
        top_beta_into(subrange, beta, out);
    }
}

/// Largest subrange the per-lane loop takes for `beta` ≤ 4 delegates of
/// `bits`-bit keys in `build` (the measured crossover, see
/// [`delegates_into`]).
const fn per_lane_max_subrange(build: Build, beta: usize, bits: u32) -> usize {
    match (build, bits, beta) {
        (Build::Avx2, 32, 1) => 1 << 16,
        (Build::Avx2, 32, 2) => 1 << 13,
        (Build::Avx2, 32, _) => 1 << 11,
        (_, 32, 2) => 1 << 10,
        (_, 32, _) => 1 << 9,
        (_, _, 1) => 1 << 8,
        _ => 1 << 7,
    }
}

/// Running selections of the per-lane loop.
const LANES: usize = 8;

/// [`delegates_into`] on the per-lane loop: every full subrange through
/// [`per_lane_top`], a short final one through [`top_beta_into`].
#[inline(always)]
fn per_lane_into<K: TopKKey, const B: usize>(data: &[K], subrange_size: usize, out: &mut Vec<K>) {
    let mut subranges = data.chunks_exact(subrange_size);
    for subrange in &mut subranges {
        out.extend(per_lane_top::<K, B>(subrange).map(K::from_bits));
    }
    top_beta_into(subranges.remainder(), B, out);
}

/// The top-`B` keys of `slice` (at least `B` elements), best first, in
/// radix space. Element `i` goes to lane `i % LANES`, whose `B` descending
/// slots it passes through as one max/min pair per slot, so the running
/// selection takes no branch; at the end the lanes fold pairwise into lane
/// 0 ([`merge_top`]).
///
/// The slots start at `Bits::ZERO`, the minimum of the radix space. With at
/// least `B` real elements a filler can only tie a real zero, so the
/// result's bits are those of the slice's top-`B`.
#[inline(always)]
fn per_lane_top<K: TopKKey, const B: usize>(slice: &[K]) -> [K::Bits; B] {
    debug_assert!(slice.len() >= B);
    // slot-major: slot j of every lane side by side
    let mut slots = [[K::Bits::ZERO; LANES]; B];
    let mut chunks = slice.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut x: [K::Bits; LANES] = std::array::from_fn(|l| chunk[l].to_bits());
        for slot in &mut slots {
            for l in 0..LANES {
                order_pair(&mut slot[l], &mut x[l]);
            }
        }
    }
    for (l, &key) in chunks.remainder().iter().enumerate() {
        let mut x = key.to_bits();
        for slot in &mut slots {
            order_pair(&mut slot[l], &mut x);
        }
    }
    let mut lanes: [[K::Bits; B]; LANES] =
        std::array::from_fn(|l| std::array::from_fn(|j| slots[j][l]));
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            lanes[l] = merge_top(lanes[l], lanes[l + width]);
        }
        width /= 2;
    }
    lanes[0]
}

/// The top `B` of two descending `B`-lists, descending: the larger of each
/// pair `a[i]`, `b[B-1-i]` is exactly the top `B` of both (the first step
/// of a bitonic merge), and a compare-exchange network sorts them.
#[inline(always)]
fn merge_top<T: KeyBits, const B: usize>(a: [T; B], b: [T; B]) -> [T; B] {
    let mut c = a;
    for (slot, &other) in c.iter_mut().zip(b.iter().rev()) {
        let mut other = other;
        order_pair(slot, &mut other);
    }
    for pass in 1..B {
        for i in 0..B - pass {
            let (left, right) = c.split_at_mut(i + 1);
            order_pair(&mut left[i], &mut right[0]);
        }
    }
    c
}

/// The AVX2 build's per-lane loop over whole `subrange_size`-element
/// subranges: [`per_lane_top_avx2`] on each. Never inlined, so that each
/// β has one instance for `scripts/check_avx2_codegen.sh` to read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn per_lane_avx2<K: TopKKey, const B: usize>(data: &[K], subrange_size: usize, out: &mut Vec<K>) {
    for subrange in data.chunks_exact(subrange_size) {
        out.extend(per_lane_top_avx2::<K, B>(subrange).map(K::from_bits));
    }
}

/// [`per_lane_top`] on AVX2 for 32-bit keys, written with intrinsics: slot
/// `j` of all 8 lanes is one ymm register, so each compare-exchange is one
/// `vpmaxud`/`vpminud` pair whose loop-carried part is the one `vpmaxud`.
/// LLVM does not get there from [`per_lane_top`]'s source: it lowers the
/// mask form of [`order_pair`] to a six-op xor swap (`vpminud`,
/// `vpcmpeqd`, `vpxor`, `vpandn`, `vpxor`, `vpxor`), and the
/// `Ord::max`/`Ord::min` form stays scalar (`cmov`) at β 3–4, where the
/// lane-by-lane fold makes its cost model price the vector loop at no
/// gain. A short final chunk is padded with zero bits, which like the
/// slots' starting value can only tie a real zero. The fold exchanges
/// lanes `l` and `l ^ w` for w = 4, 2, 1 ([`merge_lanes_avx2`]), after
/// which every lane holds the top-`B`; the result's bits are those of
/// [`per_lane_top`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn per_lane_top_avx2<K: TopKKey, const B: usize>(slice: &[K]) -> [K::Bits; B] {
    debug_assert!(slice.len() >= B);
    let bits = |x: K| x.to_bits().to_u128() as u32;
    // SAFETY: any 32 bytes are a valid `__m256i`
    let lanes = |v: [u32; LANES]| unsafe { std::mem::transmute::<[u32; LANES], __m256i>(v) };
    let mut slots = [_mm256_setzero_si256(); B];
    let mut insert = |mut x: __m256i| {
        for slot in &mut slots {
            let hi = _mm256_max_epu32(*slot, x);
            x = _mm256_min_epu32(*slot, x);
            *slot = hi;
        }
    };
    let mut chunks = slice.chunks_exact(LANES);
    for chunk in &mut chunks {
        insert(lanes(std::array::from_fn(|l| bits(chunk[l]))));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        insert(lanes(std::array::from_fn(|l| {
            rest.get(l).map_or(0, |&x| bits(x))
        })));
    }
    let slots = merge_lanes_avx2(slots, |v| _mm256_permute2x128_si256::<1>(v, v));
    let slots = merge_lanes_avx2(slots, |v| _mm256_shuffle_epi32::<0b01_00_11_10>(v));
    let slots = merge_lanes_avx2(slots, |v| _mm256_shuffle_epi32::<0b10_11_00_01>(v));
    std::array::from_fn(|j| K::Bits::from_u128(_mm256_cvtsi256_si32(slots[j]) as u32 as u128))
}

/// One step of the AVX2 lane fold: every lane merges its descending `B`
/// slots with those of the lane that `swap` moves onto it, by
/// [`merge_top`]'s network with one `vpmaxud`/`vpminud` pair per
/// compare-exchange.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn merge_lanes_avx2<const B: usize>(
    slots: [__m256i; B],
    swap: impl Fn(__m256i) -> __m256i,
) -> [__m256i; B] {
    let mut c: [__m256i; B] =
        std::array::from_fn(|j| _mm256_max_epu32(slots[j], swap(slots[B - 1 - j])));
    for pass in 1..B {
        for i in 0..B - pass {
            (c[i], c[i + 1]) = (
                _mm256_max_epu32(c[i], c[i + 1]),
                _mm256_min_epu32(c[i], c[i + 1]),
            );
        }
    }
    c
}

/// Branch-free compare-exchange in radix space: the larger key to `hi`, the
/// smaller to `lo`. Keys of at most 32 bits use mask arithmetic — `m` is
/// all ones when `lo > hi`, and xoring both with `d = (hi ^ lo) & m` swaps
/// them — rather than `Ord::max`/`Ord::min`. The portable build needs the
/// mask form: the baseline x86-64 target (SSE2) has no unsigned 32-bit
/// vector max or min, so the `Ord` form lowers to scalar `cmp`/`cmov`
/// while the mask form vectorizes (a biased signed compare, an `and` and
/// `xor`s). The AVX2 build does not use this function in its per-lane
/// loop ([`per_lane_top_avx2`]): compiled with AVX2, LLVM lowers the mask
/// form to a six-op xor swap, not to `vpmaxud`/`vpminud`. SSE2 has no
/// 64-bit compare at all, so wider keys stay scalar either way, and there
/// the two `cmov`s of the `Ord` form beat the mask's longer chain
/// (measured on the construction bench,
/// `crates/bench/benches/construction.rs`).
#[inline(always)]
fn order_pair<T: KeyBits>(hi: &mut T, lo: &mut T) {
    let (a, b) = (*hi, *lo);
    if T::BITS > 32 {
        (*hi, *lo) = (Ord::max(a, b), Ord::min(a, b));
    } else {
        let m = if b > a { T::MAX } else { T::ZERO };
        let d = (a ^ b) & m;
        (*hi, *lo) = (a ^ d, b ^ d);
    }
}

/// Append the top `beta` values of `slice` (β ≥ 1) to `out`, in descending
/// key order; a slice shorter than β appends all of its values. Comparisons
/// run in the key's order-preserving radix space, and an element that ties
/// one already kept lands after it.
///
/// The first β elements seed a β-slot tail of `out`; the rest are scanned in
/// [`WARP_SIZE`]-element chunks, each tested branch-free for a key above the
/// tail's last (β-th best) key, so only chunks holding a new candidate take
/// the per-element insertion path. The chunk-skip loop of
/// [`delegates_into`], and its fallback for a short final subrange.
#[inline]
fn top_beta_into<K: TopKKey>(slice: &[K], beta: usize, out: &mut Vec<K>) {
    let seed = beta.min(slice.len());
    let base = out.len();
    for &x in &slice[..seed] {
        out.push(x);
        let tail = &mut out[base..];
        sift_up(tail, tail.len() - 1, x);
    }
    if seed == slice.len() {
        return;
    }
    let tail = &mut out[base..];
    let mut floor = tail[beta - 1].to_bits();
    let mut chunks = slice[beta..].chunks_exact(WARP_SIZE);
    for chunk in &mut chunks {
        // an or of compares, not the chunk maximum: the same test, but it
        // vectorizes for u32 keys, whose maximum stays scalar on SSE2
        if chunk
            .iter()
            .fold(false, |any, x| any | (x.to_bits() > floor))
        {
            floor = insert_above(tail, chunk, floor);
        }
    }
    insert_above(tail, chunks.remainder(), floor);
}

/// Insert every element of `xs` whose key beats `floor` (the key of the last
/// slot) into the full descending slot array `tail`, dropping the last slot
/// each time. Returns the new floor.
#[inline]
fn insert_above<K: TopKKey>(tail: &mut [K], xs: &[K], mut floor: K::Bits) -> K::Bits {
    let last = tail.len() - 1;
    for &x in xs {
        if x.to_bits() > floor {
            sift_up(tail, last, x);
            floor = tail[last].to_bits();
        }
    }
    floor
}

/// Place `x` into the descending `tail` by shifting every strictly smaller
/// key in `tail[..=from]` one slot right; `tail[from]` is overwritten.
#[inline]
fn sift_up<K: TopKKey>(tail: &mut [K], from: usize, x: K) {
    let xb = x.to_bits();
    let mut i = from;
    while i > 0 && tail[i - 1].to_bits() < xb {
        tail[i] = tail[i - 1];
        i -= 1;
    }
    tail[i] = x;
}

/// The subrange id of every delegate entry of a `len`-element vector: each
/// subrange `s` contributes `min(β, len_s)` entries, and only the last
/// subrange can be shorter than `subrange_size`.
pub(crate) fn delegate_subrange_ids(len: usize, subrange_size: usize, beta: usize) -> Vec<u32> {
    let per = beta.min(subrange_size);
    let last = beta.min(len % subrange_size);
    let mut ids = vec![0; len / subrange_size * per + last];
    for (s, run) in ids.chunks_mut(per).enumerate() {
        run.fill(s as u32);
    }
    ids
}

/// Build the delegate vector of `data` for subrange size `2^alpha` and `beta`
/// delegates per subrange: each subrange's β best keys in `direction`'s
/// order. Only plans of the same direction may share the result (see
/// [`dr_topk_planned`](crate::pipeline::dr_topk_planned)).
pub fn build_delegate_vector<K: TopKKey>(
    device: &Device,
    data: &[K],
    alpha: u32,
    beta: usize,
    method: ConstructionMethod,
    direction: Direction,
) -> DelegateVector<K> {
    match direction {
        Direction::Largest => construct(device, data, alpha, beta, method),
        Direction::Smallest => construct(device, as_desc(data), alpha, beta, method).into_native(),
    }
}

/// The construction kernel: the top-β of every subrange in `K`'s order.
pub(crate) fn construct<K: TopKKey>(
    device: &Device,
    data: &[K],
    alpha: u32,
    beta: usize,
    method: ConstructionMethod,
) -> DelegateVector<K> {
    assert!(beta >= 1, "beta must be at least 1");
    assert!((1..32).contains(&alpha), "alpha must be in 1..32");
    let subrange_size = 1usize << alpha;
    let num_subranges = data.len().div_ceil(subrange_size);
    let method = method.resolve(alpha);

    if data.is_empty() {
        return DelegateVector {
            values: Vec::new(),
            subrange_ids: Vec::new(),
            beta,
            subrange_size,
            num_subranges: 0,
            direction: Direction::Largest,
            stats: KernelStats::default(),
            time_ms: 0.0,
        };
    }

    // Each simulated warp handles a contiguous run of subranges. The grid
    // holds at most 2^14 warps, so at small α a warp takes many subranges
    // (and stages them in groups under CoalescedShared): the cap is part
    // of the model that `construction_model_is_pinned` pins.
    let num_warps = num_subranges.clamp(1, 1 << 14);

    let (kernel_name, staged_subranges) = match method {
        ConstructionMethod::WarpShuffle => ("drtopk_delegate_construction_warp", 1),
        // The warp stages WARP_SIZE subranges at a time.
        ConstructionMethod::CoalescedShared => {
            ("drtopk_delegate_construction_coalesced", WARP_SIZE)
        }
        ConstructionMethod::Auto => unreachable!("resolved above"),
    };

    // One (key, subrange id) pair per delegate entry, expressed in u32-sized
    // words so the charged store bytes stay exact for 8-byte keys.
    let kv_words = 1 + std::mem::size_of::<K>() / std::mem::size_of::<u32>();

    let runs = alike_runs(num_subranges, num_warps);
    let launch = device.launch_alike(kernel_name, num_warps, &runs, |ctx| {
        let subranges = ctx.chunk_of(num_subranges);
        let own =
            &data[subranges.start * subrange_size..(subranges.end * subrange_size).min(data.len())];
        for group in own.chunks(staged_subranges * subrange_size) {
            let staged = ctx.read_coalesced(group);
            ctx.record_alu(staged.len() as u64);
            if method == ConstructionMethod::CoalescedShared {
                // shared-memory staging: one store per element (padded →
                // conflict free), then each thread reads its subrange back
                // (strided by the padded pitch → conflict free).
                ctx.record_shared(2 * staged.len() as u64);
                ctx.syncthreads();
            }
            for subrange in staged.chunks(subrange_size) {
                let kept = beta.min(subrange.len());
                if method == ConstructionMethod::WarpShuffle {
                    // β warp reductions to agree on the top-β of the subrange
                    ctx.record_shuffles(kept as u64 * SHUFFLES_PER_WARP_REDUCTION);
                }
                // delegate (value, id) pairs written to global memory
                ctx.record_store_coalesced::<u32>(kv_words * kept);
            }
        }
    });
    // Warps take contiguous runs of whole subranges in warp order, so one
    // call over the input is the concatenation of the per-warp calls.
    let mut values = Vec::with_capacity(num_subranges * beta);
    delegates_into(data, subrange_size, beta, &mut values);

    DelegateVector {
        values,
        subrange_ids: delegate_subrange_ids(data.len(), subrange_size, beta),
        beta,
        subrange_size,
        num_subranges,
        direction: Direction::Largest,
        stats: launch.stats,
        time_ms: launch.time_ms,
    }
}

/// The runs of alike warps when `num_warps` warps take `chunk_of`'s runs of
/// `num_subranges` subranges: the first warps, with one more subrange each;
/// the full warps after them; and the last warp, whose final subrange may
/// be ragged. Only the last warp can hold the ragged subrange, so every
/// warp of the first two runs records the same as that run's first.
fn alike_runs(num_subranges: usize, num_warps: usize) -> [usize; 3] {
    [0, num_subranges % num_warps, num_warps - 1]
}

/// Derive the delegate vector at subrange size `2^alpha` and `beta`
/// delegates per subrange from `finer`, a vector of the same `len`-element
/// input at a finer or equal subrange size (α′ ≤ α) with at least as many
/// delegates per subrange (β′ ≥ β), in `finer`'s direction.
///
/// Rule 1 applied to the delegates themselves: a coarse subrange is
/// `2^(α−α′)` consecutive fine ones, and its top-β lies in the union of
/// their top-β′ lists. Those lists are stored contiguously and best first,
/// so every full coarse subrange is one block of `2^(α−α′)` lists of
/// `min(β′, 2^α′)` values, and its top-β is a merge of the lists'
/// β-prefixes: for β ≤ 4 and blocks of at most two lists (any number at
/// β = 1) a fold of the prefixes with a branch-free merge network, and
/// otherwise the construction's host loop over the block. The result is
/// bit-identical to [`build_delegate_vector`] at `(alpha, beta)` on the
/// input, and reads `finer.len()` values instead of `len`.
///
/// The launch (`drtopk_delegate_coarsen`) records one coalesced read of the
/// finer values per warp and the usual (value, id) store per delegate,
/// charged one warp per run of alike warps as in construction; the host
/// merge runs once, after it.
///
/// # Panics
///
/// When `beta` is 0, `alpha` is outside `1..32`, or `finer` is coarser
/// than `alpha`, holds fewer than `beta` delegates per subrange, or was not
/// built over `len` elements.
pub fn coarsen_delegate_vector<K: TopKKey>(
    device: &Device,
    finer: &DelegateVector<K>,
    len: usize,
    alpha: u32,
    beta: usize,
) -> DelegateVector<K> {
    let finer_view = finer.view();
    match finer.direction {
        Direction::Largest => coarsen(device, finer_view, len, alpha, beta),
        Direction::Smallest => {
            coarsen(device, finer_view.as_desc(), len, alpha, beta).into_native()
        }
    }
}

/// The coarsening kernel: the top-β of every `2^alpha`-element subrange in
/// `K`'s order, from `finer`'s delegates (see [`coarsen_delegate_vector`]).
fn coarsen<K: TopKKey>(
    device: &Device,
    finer: Delegates<'_, K>,
    len: usize,
    alpha: u32,
    beta: usize,
) -> DelegateVector<K> {
    assert!(beta >= 1, "beta must be at least 1");
    assert!((1..32).contains(&alpha), "alpha must be in 1..32");
    let subrange_size = 1usize << alpha;
    assert!(
        finer.subrange_size <= subrange_size && finer.beta >= beta,
        "coarsening needs a finer or equal subrange size and at least beta delegates"
    );
    assert_eq!(
        finer.num_subranges,
        len.div_ceil(finer.subrange_size),
        "the finer vector was built over another length"
    );
    let num_subranges = len.div_ceil(subrange_size);
    // Each fine subrange's list, and the delegate values of one full
    // coarse subrange.
    let list = finer.beta.min(finer.subrange_size);
    let block = subrange_size / finer.subrange_size * list;
    let kv_words = 1 + std::mem::size_of::<K>() / std::mem::size_of::<u32>();

    // Each warp takes `ctx.chunk_of`'s run of coarse subranges; the launch
    // runs one warp per run of alike warps (`alike_runs`).
    let num_warps = num_subranges.clamp(1, 1 << 14);
    let runs = alike_runs(num_subranges, num_warps);
    let launch = device.launch_alike("drtopk_delegate_coarsen", num_warps, &runs, |ctx| {
        let subranges = ctx.chunk_of(num_subranges);
        let own =
            &finer.values[subranges.start * block..(subranges.end * block).min(finer.values.len())];
        let staged = ctx.read_coalesced(own);
        ctx.record_alu(staged.len() as u64);
        for subrange in staged.chunks(block) {
            ctx.record_store_coalesced::<u32>(kv_words * beta.min(subrange.len()));
        }
    });
    let mut values = Vec::with_capacity(num_subranges * beta);
    merge_lists_into(finer.values, list, block, beta, &mut values);

    DelegateVector {
        values,
        subrange_ids: delegate_subrange_ids(len, subrange_size, beta),
        beta,
        subrange_size,
        num_subranges,
        direction: Direction::Largest,
        stats: launch.stats,
        time_ms: launch.time_ms,
    }
}

/// Append the top-β of every `block`-value run of `values` to `out`, best
/// first, where each run is a sequence of descending lists of `list`
/// values (only the very last list may be shorter): the host loop of
/// [`coarsen_delegate_vector`], whose fine lists are stored best first.
///
/// For β ≤ 4, lists of at least β values and runs of at most two lists
/// (any number at β = 1), each full run folds its lists' β-prefixes
/// ([`fold_prefixes_into`]); a run of one list is its β-prefix. Everything
/// else, and a ragged final run, goes through [`delegates_into`] with
/// subranges of `block` values. A fold pays a scalar merge network per
/// list; the per-lane loop pays a fixed fold of its eight lanes per run and
/// then β vector compare-exchanges per value, so it wins on longer runs
/// unless β = 1, where a merge is one compare. Measured on the
/// `construction` bench's coarsening table (u32, 2^18 keys, six
/// alternating runs of 15 rounds, as a share of the time of a coarsening
/// that ran `delegates_into` on each run inside the launch): one or two
/// lists per run folded in 0.20–0.51; at four lists and β ≥ 2, folding
/// took 0.82–1.14 and `delegates_into` after the launch 0.74–0.87; at
/// β = 1 folding took 0.34–0.93 at every run length up to 32 lists.
fn merge_lists_into<K: TopKKey>(
    values: &[K],
    list: usize,
    block: usize,
    beta: usize,
    out: &mut Vec<K>,
) {
    let folds = beta <= 4 && list >= beta && (beta == 1 || block <= 2 * list);
    let (runs, rest) = values.split_at(if folds {
        values.len() - values.len() % block
    } else {
        0
    });
    match beta {
        1 => fold_prefixes_into::<K, 1>(runs, list, block, out),
        2 => fold_prefixes_into::<K, 2>(runs, list, block, out),
        3 => fold_prefixes_into::<K, 3>(runs, list, block, out),
        4 => fold_prefixes_into::<K, 4>(runs, list, block, out),
        _ => {}
    }
    delegates_into(rest, block, beta, out);
}

/// The top-`B` of every `block`-value run of `runs`, each made of
/// descending lists of `list` ≥ `B` values: the first list's `B`-prefix,
/// then each later list's folded in with [`merge_top`] when its head beats
/// the running `B`-th best (otherwise no key of the list can enter).
fn fold_prefixes_into<K: TopKKey, const B: usize>(
    runs: &[K],
    list: usize,
    block: usize,
    out: &mut Vec<K>,
) {
    let prefix = |list: &[K]| -> [K::Bits; B] {
        let head = &list[..B];
        std::array::from_fn(|i| head[i].to_bits())
    };
    for run in runs.chunks_exact(block) {
        let mut lists = run.chunks_exact(list);
        let first = prefix(lists.next().expect("a run holds at least one list"));
        let top = lists.fold(first, |top, list| {
            if list[0].to_bits() > top[B - 1] {
                merge_top(top, prefix(list))
            } else {
                top
            }
        });
        out.extend(top.map(K::from_bits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use topk_baselines::Desc;

    fn device() -> Device {
        Device::new(DeviceSpec::v100s())
    }

    fn reference_delegates(data: &[u32], alpha: u32, beta: usize) -> (Vec<u32>, Vec<u32>) {
        let size = 1usize << alpha;
        let mut values = Vec::new();
        let mut ids = Vec::new();
        for (s, chunk) in data.chunks(size).enumerate() {
            let mut sorted: Vec<u32> = chunk.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.truncate(beta);
            for v in sorted {
                values.push(v);
                ids.push(s as u32);
            }
        }
        (values, ids)
    }

    #[test]
    fn max_delegate_matches_reference() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 3);
        for alpha in [4u32, 8, 10] {
            let dv = construct(&dev, &data, alpha, 1, ConstructionMethod::WarpShuffle);
            let (vals, ids) = reference_delegates(&data, alpha, 1);
            assert_eq!(dv.values, vals, "alpha={alpha}");
            assert_eq!(dv.subrange_ids, ids);
            assert_eq!(dv.num_subranges, data.len().div_ceil(1 << alpha));
        }
    }

    #[test]
    fn beta_delegates_match_reference_for_both_methods() {
        let dev = device();
        let data = topk_datagen::customized(10_000, 5);
        for beta in [2usize, 3] {
            for method in [
                ConstructionMethod::WarpShuffle,
                ConstructionMethod::CoalescedShared,
            ] {
                let dv = construct(&dev, &data, 6, beta, method);
                let (vals, ids) = reference_delegates(&data, 6, beta);
                assert_eq!(dv.values, vals, "beta={beta} {method:?}");
                assert_eq!(dv.subrange_ids, ids);
            }
        }
    }

    #[test]
    fn short_final_subrange_is_handled() {
        let dev = device();
        let data: Vec<u32> = (0..1000u32).collect(); // not a multiple of 2^α
        let dv = construct(&dev, &data, 8, 2, ConstructionMethod::Auto);
        assert_eq!(dv.num_subranges, 4);
        // last subrange has 1000 - 768 = 232 elements, still 2 delegates
        assert_eq!(dv.len(), 8);
        assert_eq!(dv.values[6], 999);
        assert_eq!(dv.values[7], 998);
        assert_eq!(dv.subrange_ids[6], 3);
    }

    #[test]
    fn subrange_smaller_than_beta_yields_fewer_entries() {
        let dev = device();
        let data: Vec<u32> = vec![10, 20, 30, 40, 50];
        let dv = construct(&dev, &data, 2, 3, ConstructionMethod::WarpShuffle);
        // subrange 0 = [10,20,30,40] -> 3 delegates; subrange 1 = [50] -> 1
        assert_eq!(dv.values, vec![40, 30, 20, 50]);
        assert_eq!(dv.subrange_ids, vec![0, 0, 0, 1]);
    }

    #[test]
    fn auto_switches_method_on_alpha() {
        assert_eq!(
            ConstructionMethod::Auto.resolve(4),
            ConstructionMethod::CoalescedShared
        );
        assert_eq!(
            ConstructionMethod::Auto.resolve(12),
            ConstructionMethod::WarpShuffle
        );
        assert_eq!(
            ConstructionMethod::WarpShuffle.resolve(4),
            ConstructionMethod::WarpShuffle
        );
    }

    #[test]
    fn coalesced_method_eliminates_shuffles() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 1);
        let warp = construct(&dev, &data, 4, 2, ConstructionMethod::WarpShuffle);
        let coal = construct(&dev, &data, 4, 2, ConstructionMethod::CoalescedShared);
        assert_eq!(warp.values, coal.values);
        assert!(warp.stats.shuffle_instructions > 0);
        assert_eq!(coal.stats.shuffle_instructions, 0);
        assert!(coal.stats.shared_ops > 0);
        // the optimization is what Figure 15 shows: less modeled time for
        // small subranges / β delegates
        assert!(coal.time_ms < warp.time_ms);
    }

    #[test]
    fn construction_reads_whole_vector_once() {
        let dev = device();
        let n = 1 << 16;
        let data = topk_datagen::uniform(n, 1);
        let dv = construct(&dev, &data, 8, 1, ConstructionMethod::WarpShuffle);
        let loaded = dv.stats.global_loaded_bytes;
        assert!(
            loaded >= (n * 4) as u64 && loaded < (n * 4) as u64 * 11 / 10,
            "expected ~|V| loads, got {loaded}"
        );
        // stores are only the delegate entries
        assert!(dv.stats.global_stored_bytes <= (dv.len() * 8 + 64) as u64);
    }

    #[test]
    fn coarsening_reads_the_finer_delegates_once() {
        let dev = device();
        let data = topk_datagen::uniform((1 << 16) + 77, 9);
        let finer = construct(&dev, &data, 4, 3, ConstructionMethod::Auto);
        let coarse = coarsen_delegate_vector(&dev, &finer, data.len(), 9, 2);
        let fresh = construct(&dev, &data, 9, 2, ConstructionMethod::Auto);
        assert_eq!(coarse.values, fresh.values);
        assert_eq!(coarse.subrange_ids, fresh.subrange_ids);
        assert_eq!(
            (coarse.beta, coarse.subrange_size, coarse.num_subranges),
            (fresh.beta, fresh.subrange_size, fresh.num_subranges)
        );
        assert_eq!(coarse.stats.global_loaded_bytes, (finer.len() * 4) as u64);
        assert_eq!(
            coarse.stats.global_stored_bytes,
            fresh.stats.global_stored_bytes
        );
        assert!(coarse.time_ms < fresh.time_ms);
    }

    /// Coarsening equals a fresh build on both sides of every choice its
    /// host merge makes: one to eight lists per block, β from 1 to 6 (the
    /// fold takes β ≤ 4), lists shorter than β (α′ = 1), ragged final
    /// blocks whose last list is short, tied keys and sorted input, in
    /// both directions.
    #[test]
    fn coarsening_matches_a_fresh_build_on_every_merge_path() {
        let dev = device();
        for (fine_alpha, fine_beta) in [(1u32, 3usize), (2, 2), (3, 4), (4, 6)] {
            for alpha in fine_alpha..=fine_alpha + 3 {
                let size = 1usize << alpha;
                for tail in [0, 1, size / 2 + 1] {
                    let uniform = topk_datagen::uniform(24 * size + tail, u64::from(alpha) + 40);
                    let few = few_distinct(&uniform);
                    let mut ascending = uniform.clone();
                    ascending.sort_unstable();
                    for (order, data) in [
                        ("uniform", &uniform),
                        ("<= 8 distinct", &few),
                        ("ascending", &ascending),
                    ] {
                        for direction in [Direction::Largest, Direction::Smallest] {
                            let build = |alpha, beta| {
                                let method = ConstructionMethod::Auto;
                                build_delegate_vector(&dev, data, alpha, beta, method, direction)
                            };
                            let finer = build(fine_alpha, fine_beta);
                            for beta in 1..=fine_beta {
                                let coarse =
                                    coarsen_delegate_vector(&dev, &finer, data.len(), alpha, beta);
                                let fresh = build(alpha, beta);
                                let case = format!(
                                    "({fine_alpha}, {fine_beta}) -> ({alpha}, {beta}) \
                                     tail={tail} {order} {direction:?}"
                                );
                                assert_eq!(coarse.values, fresh.values, "{case}");
                                assert_eq!(coarse.subrange_ids, fresh.subrange_ids, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finer or equal subrange size")]
    fn coarsening_a_coarser_vector_panics() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 12, 9);
        let coarser = construct(&dev, &data, 8, 2, ConstructionMethod::Auto);
        coarsen_delegate_vector(&dev, &coarser, data.len(), 6, 2);
    }

    #[test]
    fn empty_input() {
        let dev = device();
        let dv = construct::<u32>(&dev, &[], 8, 2, ConstructionMethod::Auto);
        assert!(dv.is_empty());
        assert_eq!(dv.num_subranges, 0);
    }

    #[test]
    #[should_panic(expected = "beta must be at least 1")]
    fn zero_beta_panics() {
        let dev = device();
        construct(&dev, &[1, 2, 3], 2, 0, ConstructionMethod::Auto);
    }

    /// Sort-then-truncate reference for [`top_beta_into`], in bits.
    fn reference_top_beta<K: TopKKey>(slice: &[K], beta: usize) -> Vec<K::Bits> {
        let mut bits: Vec<K::Bits> = slice.iter().map(|x| x.to_bits()).collect();
        bits.sort_unstable_by(|a, b| b.cmp(a));
        bits.truncate(beta);
        bits
    }

    /// Call `extract` with a sentinel prefix in `out` and compare what it
    /// appends, in bits, with `expected`; the prefix must survive untouched.
    fn assert_appends<K: TopKKey>(
        extract: impl FnOnce(&mut Vec<K>),
        expected: Vec<K::Bits>,
        case: &str,
    ) {
        let sentinel = K::from_bits(K::Bits::MAX);
        let mut out = vec![sentinel; 3];
        extract(&mut out);
        let got: Vec<K::Bits> = out.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            &got[..3],
            &[sentinel.to_bits(); 3],
            "prefix clobbered: {case}"
        );
        assert_eq!(got[3..], expected, "{case}");
    }

    /// Sweep [`top_beta_into`] and [`delegates_into`] against the reference
    /// over β ∈ 1..=8 and 64, every length 0..=300 plus lengths past 512
    /// (ragged against the 32-element chunks and the per-lane loop's lanes,
    /// and below β), and random / ascending / descending / constant / at
    /// most 8 distinct values (see [`few_distinct`]).
    /// `delegates_into` runs at subrange sizes on both sides of the 64-bit
    /// per-lane limit for β ≥ 2 (256 elements), with ragged final
    /// subranges; [`per_lane_at_limits`] covers every limit. Random inputs
    /// mix uniformly random bit patterns with `specials`.
    fn sweep_top_beta<K: TopKKey>(specials: &[K], seed: u64) {
        let mut rng = topk_datagen::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let mut draw = || {
            if !specials.is_empty() && rng.next_bounded(4) == 0 {
                specials[rng.next_bounded(specials.len() as u64) as usize]
            } else {
                K::from_bits(K::Bits::from_u64(rng.next_u64()))
            }
        };
        let ty = std::any::type_name::<K>();
        for len in (0..=300usize).chain([513, 700, 1100]) {
            let random: Vec<K> = (0..len).map(|_| draw()).collect();
            let mut ascending = random.clone();
            topk_baselines::sort_keys_asc(&mut ascending);
            let mut descending = random.clone();
            topk_baselines::sort_keys_desc(&mut descending);
            let constant = vec![random.first().copied().unwrap_or_default(); len];
            let few = few_distinct(&random);
            for (order, input) in [
                ("random", &random),
                ("ascending", &ascending),
                ("descending", &descending),
                ("constant", &constant),
                ("<= 8 distinct", &few),
            ] {
                for beta in (1..=8).chain([64]) {
                    assert_appends(
                        |out| top_beta_into(input, beta, out),
                        reference_top_beta(input, beta),
                        &format!("{ty} len={len} beta={beta} {order}"),
                    );
                    // every 8th length up to 300 keeps the sweep fast in
                    // debug builds; the sizes vary the ragged tails anyway
                    if len <= 300 && len % 8 != 1 {
                        continue;
                    }
                    for size in [1, 3, 8, 29, 256, 257, 512] {
                        let expected = input
                            .chunks(size)
                            .flat_map(|s| reference_top_beta(s, beta))
                            .collect();
                        assert_appends(
                            |out| delegates_into(input, size, beta, out),
                            expected,
                            &format!("{ty} len={len} size={size} beta={beta} {order}"),
                        );
                    }
                }
            }
        }
    }

    /// `data` folded onto at most 8 of its own values, so chunk maxima and
    /// per-lane slots tie.
    fn few_distinct<K: TopKKey>(data: &[K]) -> Vec<K> {
        let palette = &data[..data.len().min(8)];
        data.iter()
            .map(|v| palette[(v.to_bits().to_u128() % palette.len() as u128) as usize])
            .collect()
    }

    #[test]
    fn top_beta_into_matches_sort_then_truncate_for_every_key_type() {
        sweep_top_beta::<u32>(&[0, 1, u32::MAX, u32::MAX - 1], 1);
        sweep_top_beta::<u64>(&[0, 1, u64::MAX, 1 << 32], 2);
        sweep_top_beta::<i32>(&[i32::MIN, -1, 0, 1, i32::MAX], 3);
        sweep_top_beta::<i64>(&[i64::MIN, -1, 0, 1, i64::MAX], 4);
        let f32_specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
        ];
        sweep_top_beta::<f32>(&f32_specials, 5);
        sweep_top_beta::<f64>(
            &[
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(1),
                -f64::MIN_POSITIVE / 4.0,
            ],
            6,
        );
        let desc_specials: Vec<Desc<f32>> = f32_specials.iter().map(|&x| Desc(x)).collect();
        sweep_top_beta::<Desc<f32>>(&desc_specials, 7);
        sweep_top_beta::<Desc<i64>>(&[Desc(i64::MIN), Desc(0), Desc(i64::MAX)], 8);
    }

    /// [`per_lane_top`] at run-time `beta`.
    fn per_lane_bits<K: TopKKey>(slice: &[K], beta: usize) -> Vec<K::Bits> {
        match beta {
            1 => per_lane_top::<K, 1>(slice).to_vec(),
            2 => per_lane_top::<K, 2>(slice).to_vec(),
            3 => per_lane_top::<K, 3>(slice).to_vec(),
            4 => per_lane_top::<K, 4>(slice).to_vec(),
            _ => unreachable!("the per-lane loop takes β ≤ 4"),
        }
    }

    /// At the subrange sizes one below, at and one above each per-lane limit
    /// of both builds (β 1–4), [`per_lane_top`] gives the bits of
    /// [`top_beta_into`], on random, sorted, ≤ 8-distinct and all-equal
    /// inputs (all zero bits — the slots' starting value — all one bits,
    /// and one repeated key).
    /// `delegates_into` at the same sizes, over two full subranges and a
    /// short final one, matches the per-subrange reference.
    fn per_lane_at_limits<K: TopKKey>(seed: u64) {
        let mut rng = topk_datagen::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let ty = std::any::type_name::<K>();
        for beta in 1..=4 {
            for size in limit_sizes(beta, K::Bits::BITS) {
                let random: Vec<K> = (0..size)
                    .map(|_| K::from_bits(K::Bits::from_u64(rng.next_u64())))
                    .collect();
                let mut ascending = random.clone();
                topk_baselines::sort_keys_asc(&mut ascending);
                let descending: Vec<K> = ascending.iter().rev().copied().collect();
                let inputs = [
                    ("random", random.clone()),
                    ("ascending", ascending),
                    ("descending", descending),
                    ("<= 8 distinct", few_distinct(&random)),
                    ("zero bits", vec![K::from_bits(K::Bits::ZERO); size]),
                    ("one bits", vec![K::from_bits(K::Bits::MAX); size]),
                    ("one key", vec![random[0]; size]),
                ];
                for (order, input) in inputs {
                    let case = format!("{ty} size={size} beta={beta} {order}");
                    let mut want = Vec::new();
                    top_beta_into(&input, beta, &mut want);
                    let want: Vec<K::Bits> = want.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(per_lane_bits(&input, beta), want, "{case}");
                    let data: Vec<K> = [&input[..], &input[..], &input[..size / 2]].concat();
                    let expected = data
                        .chunks(size)
                        .flat_map(|s| reference_top_beta(s, beta))
                        .collect();
                    assert_appends(
                        |out| delegates_into(&data, size, beta, out),
                        expected,
                        &case,
                    );
                }
            }
        }
    }

    /// One below, at and one above the per-lane limit of `beta` delegates
    /// of `bits`-bit keys in both builds, ascending without repeats.
    fn limit_sizes(beta: usize, bits: u32) -> Vec<usize> {
        let mut sizes: Vec<usize> = [Build::Portable, Build::Avx2]
            .into_iter()
            .flat_map(|build| {
                let limit = per_lane_max_subrange(build, beta, bits);
                [limit - 1, limit, limit + 1]
            })
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// [`delegates_into`], on whichever build this CPU dispatches to,
    /// appends the same bits as the portable build called directly, for β
    /// 1–6 at subrange sizes from β to 2^16 (around both builds' limits),
    /// with a ragged final subrange, on uniform, ascending, descending and
    /// ≤ 8-distinct inputs. Random inputs mix uniformly random bit
    /// patterns with `specials`.
    fn dispatched_equals_portable<K: TopKKey>(specials: &[K], seed: u64) {
        let mut rng = topk_datagen::rng::Xoshiro256StarStar::seed_from_u64(seed);
        let mut draw = || {
            if rng.next_bounded(4) == 0 {
                specials[rng.next_bounded(specials.len() as u64) as usize]
            } else {
                K::from_bits(K::Bits::from_u64(rng.next_u64()))
            }
        };
        let longest = 3 << 16;
        let uniform: Vec<K> = (0..longest).map(|_| draw()).collect();
        let mut ascending = uniform.clone();
        topk_baselines::sort_keys_asc(&mut ascending);
        let descending: Vec<K> = ascending.iter().rev().copied().collect();
        let few = few_distinct(&uniform);
        let ty = std::any::type_name::<K>();
        for beta in 1..=6 {
            let mut sizes = limit_sizes(beta, K::Bits::BITS);
            sizes.extend([beta, beta + 1, 31, 33, 1 << 13]);
            sizes.retain(|&size| size >= beta);
            for (i, size) in sizes.into_iter().enumerate() {
                // two full subranges, then a final one of 1, β − 1 (none at
                // β = 1) or about half of `size` values
                let tail = [1, beta - 1, size / 2][i % 3];
                let len = 2 * size + tail;
                for (order, input) in [
                    ("uniform", &uniform[..len]),
                    ("ascending", &ascending[ascending.len() - len..]),
                    ("descending", &descending[..len]),
                    ("<= 8 distinct", &few[..len]),
                ] {
                    let mut want = Vec::new();
                    portable_into(input, size, beta, &mut want);
                    let want: Vec<K::Bits> = want.iter().map(|x| x.to_bits()).collect();
                    assert_appends(
                        |out| delegates_into(input, size, beta, out),
                        want,
                        &format!("{ty} size={size} len={len} beta={beta} {order}"),
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_and_portable_host_loops_are_bit_identical() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("no AVX2 on this CPU: only the portable build ran, checked against itself");
        }
        dispatched_equals_portable::<u32>(&[0, 1, u32::MAX - 1, u32::MAX], 21);
        dispatched_equals_portable::<i32>(&[i32::MIN, -1, 0, 1, i32::MAX], 22);
        dispatched_equals_portable::<u64>(&[0, 1, 1 << 32, u64::MAX], 23);
        dispatched_equals_portable::<i64>(&[i64::MIN, -1, 0, 1, i64::MAX], 24);
        let f32_specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0x7F80_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
        ];
        let f64_specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FF0_0000_0000_0001),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 4.0,
        ];
        dispatched_equals_portable::<f32>(&f32_specials, 25);
        dispatched_equals_portable::<f64>(&f64_specials, 26);
        dispatched_equals_portable::<Desc<u32>>(&[Desc(0), Desc(u32::MAX)], 27);
        dispatched_equals_portable::<Desc<i32>>(&[Desc(i32::MIN), Desc(0), Desc(i32::MAX)], 28);
        dispatched_equals_portable::<Desc<u64>>(&[Desc(0), Desc(u64::MAX)], 29);
        dispatched_equals_portable::<Desc<i64>>(&[Desc(i64::MIN), Desc(0), Desc(i64::MAX)], 30);
        dispatched_equals_portable(&f32_specials.map(Desc), 31);
        dispatched_equals_portable(&f64_specials.map(Desc), 32);
    }

    #[test]
    fn per_lane_loop_equals_chunk_skip_around_every_limit() {
        per_lane_at_limits::<u32>(11);
        per_lane_at_limits::<f32>(12);
        per_lane_at_limits::<u64>(13);
        per_lane_at_limits::<Desc<i64>>(14);
    }

    #[test]
    fn both_methods_agree_for_every_small_alpha_with_ragged_tails() {
        let dev = device();
        for alpha in 1u32..=6 {
            let size = 1usize << alpha;
            // 70 subranges spill past one 32-subrange staging group, and the
            // ragged tails cover short final subranges on both sides of β
            for tail in [0, 1, size / 2, size - 1] {
                let uniform = topk_datagen::uniform(70 * size + tail, u64::from(alpha) + 10);
                let mut ascending = uniform.clone();
                ascending.sort_unstable();
                let descending: Vec<u32> = ascending.iter().rev().copied().collect();
                let few = few_distinct(&uniform);
                let orders = [
                    ("uniform", &uniform),
                    ("ascending", &ascending),
                    ("descending", &descending),
                    ("<= 8 distinct", &few),
                ];
                for ((order, data), beta) in orders
                    .into_iter()
                    .flat_map(|o| [1usize, 2, 3, 5].map(|beta| (o, beta)))
                {
                    let warp = construct(&dev, data, alpha, beta, ConstructionMethod::WarpShuffle);
                    let coal =
                        construct(&dev, data, alpha, beta, ConstructionMethod::CoalescedShared);
                    let (vals, ids) = reference_delegates(data, alpha, beta);
                    let case = format!("alpha={alpha} tail={tail} beta={beta} {order}");
                    assert_eq!(warp.values, vals, "{case}");
                    assert_eq!(warp.subrange_ids, ids, "{case}");
                    assert_eq!(coal.values, warp.values, "{case}");
                    assert_eq!(coal.subrange_ids, warp.subrange_ids, "{case}");
                }
            }
        }
    }

    /// Construct `data`'s delegates and compare every `KernelStats` field —
    /// `[load tx, store tx, loaded, stored, shuffles, shared, syncs, alu,
    /// warps]` — and the bits of the modeled time with pinned values.
    fn assert_pinned<K: TopKKey>(
        data: &[K],
        alpha: u32,
        beta: usize,
        method: ConstructionMethod,
        counters: [u64; 9],
        time_bits: u64,
    ) {
        let [load_tx, store_tx, loaded, stored, shuffles, shared, syncs, alu, warps] = counters;
        let stats = KernelStats {
            global_load_transactions: load_tx,
            global_store_transactions: store_tx,
            global_loaded_bytes: loaded,
            global_stored_bytes: stored,
            shuffle_instructions: shuffles,
            shared_ops: shared,
            syncthreads: syncs,
            alu_ops: alu,
            warps_launched: warps,
            ..KernelStats::default()
        };
        let dv = construct(&device(), data, alpha, beta, method);
        let case = format!(
            "{} n={} alpha={alpha} beta={beta} {method:?}",
            std::any::type_name::<K>(),
            data.len()
        );
        assert_eq!(dv.stats, stats, "{case}");
        assert_eq!(dv.time_ms.to_bits(), time_bits, "{case}: {} ms", dv.time_ms);
    }

    /// The modeled cost of delegate construction is what the kernel records
    /// on its `WarpCtx`, not how the host computes the delegates. These
    /// counters and times were captured before the host extraction loop was
    /// rewritten (three times: the chunk-skip loop, the per-lane loop for
    /// small subranges, then its mask compare-exchange and raised
    /// crossover); a host-side change must leave them bit-identical. The
    /// last two inputs pin the edges of the warps' runs of subranges: one
    /// ragged warp, and a whole multiple of 2^14 subranges.
    #[test]
    fn construction_model_is_pinned() {
        use ConstructionMethod::{CoalescedShared, WarpShuffle};
        const W: u64 = 1 << 14;
        // the second input gives every warp two staging groups under
        // CoalescedShared
        let u = topk_datagen::uniform(200_002, 2021);
        #[rustfmt::skip]
        let cases = [
            (3, 3, WarpShuffle, [25_001, 25_001, 800_008, 600_016, 2_325_062, 0, 0, 200_002, W], 0x3f98_94fb_f135_f10d_u64),
            (3, 3, CoalescedShared, [16_384, 25_001, 800_008, 600_016, 0, 400_004, 16_384, 200_002, W], 0x3f72_6d8e_4324_41fe),
        ];
        for (alpha, beta, method, counters, time_bits) in cases {
            assert_pinned(&u, alpha, beta, method, counters, time_bits);
        }
        let u = topk_datagen::uniform(1_400_003, 2021);
        #[rustfmt::skip]
        let cases = [
            (1, 2, WarpShuffle, [700_002, 700_002, 5_600_012, 11_200_024, 43_400_093, 0, 0, 1_400_003, W], 0x3fdb_f3fb_ef1d_1217_u64),
            (1, 2, CoalescedShared, [49_152, 700_002, 5_600_012, 11_200_024, 0, 2_800_006, 32_768, 1_400_003, W], 0x3fa5_afc2_7631_b585),
        ];
        for (alpha, beta, method, counters, time_bits) in cases {
            assert_pinned(&u, alpha, beta, method, counters, time_bits);
        }
        // the per-lane loop's range: β ∈ {1, 4} at α = 5 and α = 8
        let u = topk_datagen::uniform(300_007, 2021);
        #[rustfmt::skip]
        let cases = [
            (5, 1, CoalescedShared, [9_376, 9_376, 1_200_028, 75_008, 0, 600_014, 9_376, 300_007, 9_376], 0x3f6d_f30d_fcd1_90b5_u64),
            (5, 4, WarpShuffle, [9_376, 9_376, 1_200_028, 300_032, 1_162_624, 0, 0, 300_007, 9_376], 0x3f8b_3e45_0804_38ea),
            (8, 1, WarpShuffle, [9_376, 1_172, 1_200_028, 9_376, 36_332, 0, 0, 300_007, 1_172], 0x3f6d_95ca_d2ba_af31),
            (8, 4, CoalescedShared, [9_376, 1_172, 1_200_028, 37_504, 0, 600_014, 1_172, 300_007, 1_172], 0x3f6c_c076_4c37_b9b3),
        ];
        for (alpha, beta, method, counters, time_bits) in cases {
            assert_pinned(&u, alpha, beta, method, counters, time_bits);
        }
        // f32 whose final subrange (3 elements) is shorter than β = 4
        let f: Vec<f32> = topk_datagen::uniform(16 * 1000 + 3, 7)
            .into_iter()
            .map(f32::from_bits)
            .collect();
        assert_pinned(
            &f,
            4,
            4,
            CoalescedShared,
            [
                1_001, 1_001, 64_012, 32_024, 0, 32_006, 1_001, 16_003, 1_001,
            ],
            0x3f61_6e28_c0a1_d489,
        );
        // u64 keys: two store words per delegate, 8-byte loads
        let w: Vec<u64> = topk_datagen::uniform(2 * (64 * 700 + 17), 11)
            .chunks(2)
            .map(|p| (u64::from(p[0]) << 32) | u64::from(p[1]))
            .collect();
        assert_pinned(
            &w,
            6,
            2,
            WarpShuffle,
            [2_802, 701, 358_536, 16_824, 43_462, 0, 0, 44_817, 701],
            0x3f66_a07c_8ac7_cc75,
        );
        // one ragged warp: the input is shorter than one subrange
        let short = topk_datagen::uniform(200, 2021);
        #[rustfmt::skip]
        let cases = [
            (8, 3, WarpShuffle, [7, 1, 800, 24, 93, 0, 0, 200, 1], 0x3f60_65cc_4b1a_862c_u64),
            (8, 3, CoalescedShared, [7, 1, 800, 24, 0, 400, 1, 200, 1], 0x3f60_646b_220a_c26a),
        ];
        for (alpha, beta, method, counters, time_bits) in cases {
            assert_pinned(&short, alpha, beta, method, counters, time_bits);
        }
        // exactly 2 · 2^14 subranges: every warp takes two, none a third
        let exact = topk_datagen::uniform(1 << 16, 2021);
        #[rustfmt::skip]
        let cases = [
            (1, 2, WarpShuffle, [32_768, 32_768, 262_144, 524_288, 2_031_616, 0, 0, 65_536, W], 0x3f96_e371_5400_3255_u64),
            (1, 2, CoalescedShared, [16_384, 32_768, 262_144, 524_288, 0, 131_072, 16_384, 65_536, W], 0x3f73_b9f1_27f5_e84e),
        ];
        for (alpha, beta, method, counters, time_bits) in cases {
            assert_pinned(&exact, alpha, beta, method, counters, time_bits);
        }
    }

    /// Coarsen `data`'s vector at `from` = (α′, β′) to `to` = (α, β) in
    /// both directions and compare every `KernelStats` field (ordered as in
    /// [`assert_pinned`]) and the bits of the modeled time with pinned
    /// values; the model does not depend on the direction.
    fn assert_coarsen_pinned<K: TopKKey>(
        data: &[K],
        from: (u32, usize),
        to: (u32, usize),
        counters: [u64; 9],
        time_bits: u64,
    ) {
        let [load_tx, store_tx, loaded, stored, shuffles, shared, syncs, alu, warps] = counters;
        let stats = KernelStats {
            global_load_transactions: load_tx,
            global_store_transactions: store_tx,
            global_loaded_bytes: loaded,
            global_stored_bytes: stored,
            shuffle_instructions: shuffles,
            shared_ops: shared,
            syncthreads: syncs,
            alu_ops: alu,
            warps_launched: warps,
            ..KernelStats::default()
        };
        let dev = device();
        for direction in [Direction::Largest, Direction::Smallest] {
            let finer = build_delegate_vector(
                &dev,
                data,
                from.0,
                from.1,
                ConstructionMethod::Auto,
                direction,
            );
            let coarse = coarsen_delegate_vector(&dev, &finer, data.len(), to.0, to.1);
            let case = format!(
                "{} n={} {from:?} -> {to:?} {direction:?}",
                std::any::type_name::<K>(),
                data.len()
            );
            assert_eq!(coarse.stats, stats, "{case}");
            assert_eq!(
                coarse.time_ms.to_bits(),
                time_bits,
                "{case}: {} ms",
                coarse.time_ms
            );
        }
    }

    /// The modeled cost of `drtopk_delegate_coarsen` is what the kernel
    /// records, not how the host takes each coarse block's top-β. These
    /// counters and times were captured while the host still ran
    /// `delegates_into` over the finer values; a host-side change must
    /// leave them bit-identical. The sources cover the shapes the serving
    /// engine coarsens most, a β′ above 2^α′ (α′ = 1, so each fine list
    /// holds 2 values), ragged final subranges, coarse and fine, and the
    /// edges of the warps' runs: one ragged warp, and whole multiples of
    /// 2^14 coarse subranges.
    #[test]
    fn coarsen_model_is_pinned() {
        // 2^18 + 67: the final coarse subrange is ragged at every α here
        let u = topk_datagen::uniform((1 << 18) + 67, 2021);
        #[rustfmt::skip]
        let cases = [
            ((6, 2), (7, 2), [2_049, 2_049, 32_784, 32_784, 0, 0, 0, 8_196, 2_049], 0x3f62_2427_26b5_766f_u64),
            ((7, 3), (7, 2), [2_049, 2_049, 24_588, 32_784, 0, 0, 0, 6_147, 2_049], 0x3f62_2397_ea6c_f0c4),
            ((7, 4), (12, 3), [257, 65, 32_784, 1_560, 0, 0, 0, 8_196, 65], 0x3f60_b027_5612_b5df),
            ((1, 3), (4, 2), [16_384, 16_389, 1_048_844, 262_224, 0, 0, 0, 262_211, 16_384], 0x3f6e_a597_338d_cc05),
        ];
        for (from, to, counters, time_bits) in cases {
            assert_coarsen_pinned(&u, from, to, counters, time_bits);
        }
        // f32 whose final fine subrange at α′ = 7 holds 3 values, fewer
        // than β′ = 4, and whose final α′ = 1 subrange holds one
        let f: Vec<f32> = topk_datagen::uniform(128 * 700 + 3, 7)
            .into_iter()
            .map(f32::from_bits)
            .collect();
        #[rustfmt::skip]
        let cases = [
            ((7, 3), (7, 2), [701, 701, 8_412, 11_216, 0, 0, 0, 2_103, 701], 0x3f60_fc03_9882_89fa_u64),
            ((7, 4), (12, 3), [88, 22, 11_212, 528, 0, 0, 0, 2_803, 22], 0x3f60_7cea_881c_5825),
            ((1, 4), (3, 3), [11_201, 11_201, 358_412, 268_824, 0, 0, 0, 89_603, 11_201], 0x3f6a_09aa_d95c_fe08),
        ];
        for (from, to, counters, time_bits) in cases {
            assert_coarsen_pinned(&f, from, to, counters, time_bits);
        }
        // u64 keys: two store words per delegate, 8-byte loads
        let w: Vec<u64> = topk_datagen::uniform(2 * (4096 * 20 + 130), 11)
            .chunks(2)
            .map(|p| (u64::from(p[0]) << 32) | u64::from(p[1]))
            .collect();
        #[rustfmt::skip]
        let cases = [
            ((6, 2), (7, 2), [642, 642, 20_528, 15_408, 0, 0, 0, 2_566, 642], 0x3f60_ef40_7150_ecc9_u64),
            ((7, 3), (7, 2), [642, 642, 15_400, 15_408, 0, 0, 0, 1_925, 642], 0x3f60_ef13_a22c_9e7c),
            ((7, 4), (12, 3), [161, 21, 20_528, 756, 0, 0, 0, 2_566, 21], 0x3f60_91dd_0b2f_cc36),
            ((1, 3), (5, 1), [5_129, 2_565, 656_400, 30_780, 0, 0, 0, 82_050, 2_565], 0x3f66_619a_05f0_8c7f),
        ];
        for (from, to, counters, time_bits) in cases {
            assert_coarsen_pinned(&w, from, to, counters, time_bits);
        }
        // one ragged warp: the input is shorter than one coarse subrange
        let short = topk_datagen::uniform(200, 2021);
        #[rustfmt::skip]
        let cases = [
            ((3, 2), (8, 2), [2, 1, 200, 16, 0, 0, 0, 50, 1], 0x3f60_62cb_0f06_40bb_u64),
            ((1, 3), (8, 1), [7, 1, 800, 8, 0, 0, 0, 200, 1], 0x3f60_6423_335f_cf42),
        ];
        for (from, to, counters, time_bits) in cases {
            assert_coarsen_pinned(&short, from, to, counters, time_bits);
        }
        // exactly 2 · 2^14 and 2^14 coarse subranges: every warp takes
        // two, or one
        let exact = topk_datagen::uniform(1 << 17, 2021);
        #[rustfmt::skip]
        let cases = [
            ((1, 2), (2, 1), [16_384, 32_768, 524_288, 262_144, 0, 0, 0, 131_072, 16_384], 0x3f72_bf66_fa51_b1ec_u64),
            ((2, 3), (3, 2), [16_384, 16_384, 393_216, 262_144, 0, 0, 0, 98_304, 16_384], 0x3f6e_7849_7624_01f5),
        ];
        for (from, to, counters, time_bits) in cases {
            assert_coarsen_pinned(&exact, from, to, counters, time_bits);
        }
    }
}
