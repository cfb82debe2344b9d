//! Warp-level execution context and instrumented primitives.
//!
//! Simulated kernels are *warp programs*: the launcher calls the kernel
//! closure once per warp (once per run of alike warps for a data-oblivious
//! kernel, [`crate::Device::launch_alike`]), and the closure uses the
//! [`WarpCtx`] passed to it
//! to perform (and account for) global-memory accesses, shared-memory
//! traffic, shuffle-based intra-warp communication, atomics and barriers.
//!
//! Accounting follows the model the paper uses in Section 5.2:
//!
//! * a **coalesced** access by a warp moves ⌈bytes / 128⌉ transactions of a
//!   128-byte cache line each;
//! * a **random** (non-coalesced) access costs one 32-byte sector transaction
//!   per element;
//! * a full warp reduction via `__shfl_sync` costs `Σ_{1≤i≤5} 32/2^i = 31`
//!   shuffle instructions (Equation 2 of the paper).

use crate::spec::DeviceSpec;
use crate::stats::KernelStats;

/// Number of threads in a warp. Fixed at 32, matching NVIDIA hardware and the
/// constants in the paper's cost model.
pub const WARP_SIZE: usize = 32;

/// Size in bytes of one coalesced global-memory transaction (a cache line).
pub(crate) const TRANSACTION_BYTES: u64 = 128;

/// Size in bytes of one non-coalesced (sector) transaction.
pub(crate) const SECTOR_BYTES: u64 = 32;

/// Number of shuffle instructions a full-warp butterfly reduction issues
/// (`Σ_{1≤i≤5} 32/2^i = 31`, as counted in Equation 2).
pub const SHUFFLES_PER_WARP_REDUCTION: u64 = 31;

/// Execution context handed to a kernel closure, one per simulated warp.
///
/// The context carries the warp's identity within the launch grid and a
/// private [`KernelStats`] accumulator; the launcher merges the accumulators
/// of all warps when the launch completes, so no synchronization happens on
/// the instrumentation path.
pub struct WarpCtx<'a> {
    /// Index of this warp within the launch grid, `0..num_warps`.
    pub warp_id: usize,
    /// Total number of warps in the launch grid.
    pub num_warps: usize,
    pub(crate) stats: KernelStats,
    spec: &'a DeviceSpec,
}

impl<'a> WarpCtx<'a> {
    pub(crate) fn new(warp_id: usize, num_warps: usize, spec: &'a DeviceSpec) -> Self {
        WarpCtx {
            warp_id,
            num_warps,
            stats: KernelStats {
                warps_launched: 1,
                ..KernelStats::default()
            },
            spec,
        }
    }

    /// The hardware description of the device this warp runs on.
    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    /// Counters accumulated by this warp so far.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    pub(crate) fn into_stats(self) -> KernelStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Global memory
    // ------------------------------------------------------------------

    /// Read a contiguous slice from global memory in a coalesced manner and
    /// return it. Accounts ⌈bytes/128⌉ load transactions.
    pub fn read_coalesced<'b, T: Copy>(&mut self, buf: &'b [T]) -> &'b [T] {
        self.record_load_coalesced::<T>(buf.len());
        buf
    }

    /// Account for a coalesced load of `len` elements of type `T` without
    /// touching data (used when the data movement is done by safe Rust code
    /// outside the context, e.g. iterating a sub-slice).
    pub fn record_load_coalesced<T>(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        self.stats.global_loaded_bytes += bytes;
        self.stats.global_load_transactions += bytes.div_ceil(TRANSACTION_BYTES);
    }

    /// Account for a coalesced store of `len` elements of type `T`.
    pub fn record_store_coalesced<T>(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        self.stats.global_stored_bytes += bytes;
        self.stats.global_store_transactions += bytes.div_ceil(TRANSACTION_BYTES);
    }

    /// Account for `count` random (non-coalesced) element loads.
    pub fn record_load_random<T>(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        let per_elem = (std::mem::size_of::<T>() as u64).min(SECTOR_BYTES);
        self.stats.global_loaded_bytes += per_elem * count as u64;
        self.stats.global_load_transactions += count as u64;
    }

    // ------------------------------------------------------------------
    // Intra-warp communication (shuffles)
    // ------------------------------------------------------------------

    /// Account for `n` raw `__shfl_sync` instructions.
    pub fn record_shuffles(&mut self, n: u64) {
        self.stats.shuffle_instructions += n;
    }

    /// Full-warp maximum reduction over up to 32 lane values via shuffles.
    /// Returns the maximum and accounts 31 shuffle instructions, matching the
    /// paper's per-subrange accounting. Generic over any totally ordered
    /// word (`u32` values, or the radix-space bits of a wider key type).
    pub fn warp_reduce_max<T: Copy + Ord>(&mut self, lane_value: T) -> T {
        self.record_shuffles(SHUFFLES_PER_WARP_REDUCTION);
        lane_value
    }

    /// Full-warp minimum reduction over explicit lane values (≤ 32 lanes).
    pub fn warp_reduce_min_lanes<T: Copy + Ord>(&mut self, lane_values: &[T]) -> T {
        assert!(!lane_values.is_empty(), "warp reduction over zero lanes");
        assert!(lane_values.len() <= WARP_SIZE);
        self.record_shuffles(SHUFFLES_PER_WARP_REDUCTION);
        *lane_values.iter().min().unwrap()
    }

    // ------------------------------------------------------------------
    // Atomics
    // ------------------------------------------------------------------

    /// Account for `n` global atomic operations. The kernel does the data
    /// movement itself, on what its closure captures (a position counter,
    /// a histogram): warps run one after another, so the host needs no
    /// atomic for it.
    pub fn record_atomics(&mut self, n: u64) {
        self.stats.atomic_operations += n;
    }

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    /// Account for `n` shared-memory load/store operations (no conflicts).
    pub fn record_shared(&mut self, n: u64) {
        self.stats.shared_ops += n;
    }

    /// `__syncthreads()` — one CTA-wide barrier.
    pub fn syncthreads(&mut self) {
        self.stats.syncthreads += 1;
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Account for `n` arithmetic/logic operations explicitly attributed by
    /// the kernel (the timing model weights these far below memory).
    pub fn record_alu(&mut self, n: u64) {
        self.stats.alu_ops += n;
    }

    /// Split a total element count into this warp's contiguous chunk using a
    /// balanced block distribution. Returns `start..end` indices.
    pub fn chunk_of(&self, total: usize) -> std::ops::Range<usize> {
        chunk_range(total, self.num_warps, self.warp_id)
    }
}

/// Balanced block distribution of `total` items over `parts` parts; returns
/// the range owned by `part`.
pub fn chunk_range(total: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    assert!(parts > 0);
    assert!(part < parts);
    let base = total / parts;
    let rem = total % parts;
    let start = part * base + part.min(rem);
    let len = base + usize::from(part < rem);
    start..(start + len).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_spec(spec: &DeviceSpec) -> WarpCtx<'_> {
        WarpCtx::new(0, 4, spec)
    }

    #[test]
    fn coalesced_load_counts_cache_lines() {
        let spec = DeviceSpec::v100s();
        let mut ctx = ctx_with_spec(&spec);
        let data = vec![1u32; 64]; // 256 bytes = 2 cache lines
        let s = ctx.read_coalesced(&data);
        assert_eq!(s.len(), 64);
        assert_eq!(ctx.stats().global_load_transactions, 2);
        assert_eq!(ctx.stats().global_loaded_bytes, 256);
    }

    #[test]
    fn partial_cache_line_rounds_up() {
        let spec = DeviceSpec::v100s();
        let mut ctx = ctx_with_spec(&spec);
        ctx.record_load_coalesced::<u32>(33); // 132 bytes -> 2 transactions
        assert_eq!(ctx.stats().global_load_transactions, 2);
    }

    #[test]
    fn zero_length_access_is_free() {
        let spec = DeviceSpec::v100s();
        let mut ctx = ctx_with_spec(&spec);
        ctx.record_load_coalesced::<u32>(0);
        ctx.record_store_coalesced::<u64>(0);
        ctx.record_load_random::<u32>(0);
        assert!(ctx.stats().total_transactions() == 0);
    }

    #[test]
    fn random_access_counts_per_element() {
        let spec = DeviceSpec::v100s();
        let mut ctx = ctx_with_spec(&spec);
        ctx.record_load_random::<u32>(9);
        assert_eq!(ctx.stats().global_load_transactions, 9);
        assert_eq!(ctx.stats().global_loaded_bytes, 36);
    }

    #[test]
    fn warp_reduction_counts_31_shuffles() {
        let spec = DeviceSpec::v100s();
        let mut ctx = ctx_with_spec(&spec);
        assert_eq!(ctx.warp_reduce_max(31u32), 31);
        assert_eq!(ctx.stats().shuffle_instructions, 31);
        let lanes: Vec<u32> = (0..32).collect();
        assert_eq!(ctx.warp_reduce_min_lanes(&lanes), 0);
        assert_eq!(ctx.stats().shuffle_instructions, 62);
    }

    #[test]
    #[should_panic(expected = "zero lanes")]
    fn empty_reduction_panics() {
        let spec = DeviceSpec::v100s();
        let mut ctx = ctx_with_spec(&spec);
        ctx.warp_reduce_min_lanes::<u32>(&[]);
    }

    #[test]
    fn chunk_range_covers_everything_without_overlap() {
        let total = 1003;
        let parts = 7;
        let mut covered = 0;
        let mut prev_end = 0;
        for p in 0..parts {
            let r = chunk_range(total, parts, p);
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
            covered += r.len();
        }
        assert_eq!(covered, total);
        assert_eq!(prev_end, total);
    }

    #[test]
    fn chunk_of_uses_warp_id() {
        let spec = DeviceSpec::v100s();
        let ctx = WarpCtx::new(3, 4, &spec);
        assert_eq!(ctx.chunk_of(400), 300..400);
    }
}
