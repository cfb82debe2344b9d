//! Device-global writable buffers shared between the warps of a kernel.
//!
//! The warps of one launch run in warp order on the launching thread, but a
//! kernel closure reaches its buffers through `&`, and on the modeled device
//! these writes are atomic operations that the timing model charges for. So
//! the buffers stay atomic: shared writes need no `&mut`, and each access
//! carries its modeled atomic accounting. Two primitives cover every pattern
//! the paper's kernels need:
//!
//! * [`AtomicCounter`] — a single `u64` used to hand out output positions
//!   (the paper's concatenation step "resorts to atomic operations to
//!   calculate the location for each eligible element").
//! * [`AtomicBuffer`] — an array of `u32` words written with relaxed atomic
//!   stores (histograms, delegate vectors, concatenated vectors).
//!
//! Both types optionally take a [`WarpCtx`] so the access is charged to the
//! kernel's counters.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::warp::WarpCtx;

/// A single shared counter, typically used to allocate positions in an
/// output buffer from many warps concurrently.
#[derive(Debug, Default)]
pub struct AtomicCounter {
    value: AtomicU64,
}

impl AtomicCounter {
    /// Create a counter starting at `initial`.
    pub fn new(initial: u64) -> Self {
        AtomicCounter {
            value: AtomicU64::new(initial),
        }
    }

    /// Atomically add `n`, returning the previous value, and charge one
    /// atomic operation plus one sector store to the warp.
    pub fn fetch_add(&self, ctx: &mut WarpCtx<'_>, n: u64) -> u64 {
        ctx.record_atomics(1);
        self.value.fetch_add(n, Ordering::Relaxed)
    }

    /// Atomically record the maximum of the current value and `v`.
    pub fn fetch_max(&self, ctx: &mut WarpCtx<'_>, v: u64) -> u64 {
        ctx.record_atomics(1);
        self.value.fetch_max(v, Ordering::Relaxed)
    }

    /// Read the counter outside a kernel (host side, not charged).
    pub fn load(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset the counter (host side).
    pub fn store(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed)
    }
}

/// A fixed-size device buffer of 32-bit words writable from any warp.
///
/// Reads and writes use relaxed atomics, which is the correct model for a
/// GPU global-memory buffer written by data-parallel threads without
/// ordering requirements (ordering across kernel launches is provided by the
/// launch boundary itself, as on real hardware).
#[derive(Debug)]
pub struct AtomicBuffer {
    words: Box<[AtomicU32]>,
}

impl AtomicBuffer {
    /// Allocate a zero-initialised buffer of `len` words.
    pub fn zeroed(len: usize) -> Self {
        let words: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        AtomicBuffer {
            words: words.into_boxed_slice(),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Store a word from a kernel. Charged as one random (sector) store.
    pub fn store(&self, ctx: &mut WarpCtx<'_>, idx: usize, value: u32) {
        ctx.record_store_random::<u32>(1);
        self.words[idx].store(value, Ordering::Relaxed);
    }

    /// Load a word from a kernel. Charged as one random (sector) load.
    pub fn load(&self, ctx: &mut WarpCtx<'_>, idx: usize) -> u32 {
        ctx.record_load_random::<u32>(1);
        self.words[idx].load(Ordering::Relaxed)
    }

    /// Atomic add on a word (histogram building). Charged as one atomic.
    pub fn fetch_add(&self, ctx: &mut WarpCtx<'_>, idx: usize, value: u32) -> u32 {
        ctx.record_atomics(1);
        self.words[idx].fetch_add(value, Ordering::Relaxed)
    }

    /// Atomic max on a word. Charged as one atomic.
    pub fn fetch_max(&self, ctx: &mut WarpCtx<'_>, idx: usize, value: u32) -> u32 {
        ctx.record_atomics(1);
        self.words[idx].fetch_max(value, Ordering::Relaxed)
    }

    /// Read the whole buffer back on the host (not charged to any kernel).
    pub fn to_vec(&self) -> Vec<u32> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Read a single word on the host (not charged).
    pub fn get(&self, idx: usize) -> u32 {
        self.words[idx].load(Ordering::Relaxed)
    }

    /// Reset all words to zero on the host (not charged).
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    fn with_ctx<R>(f: impl FnOnce(&mut WarpCtx<'_>) -> R) -> (R, crate::stats::KernelStats) {
        let spec = DeviceSpec::v100s();
        let mut ctx = WarpCtx::new(0, 1, &spec);
        let r = f(&mut ctx);
        let stats = *ctx.stats();
        (r, stats)
    }

    #[test]
    fn counter_hands_out_unique_positions() {
        let counter = AtomicCounter::new(0);
        let (positions, stats) = with_ctx(|ctx| {
            (0..10)
                .map(|_| counter.fetch_add(ctx, 2))
                .collect::<Vec<_>>()
        });
        assert_eq!(positions, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
        assert_eq!(counter.load(), 20);
        assert_eq!(stats.atomic_operations, 10);
    }

    #[test]
    fn counter_fetch_max_and_store() {
        let counter = AtomicCounter::new(5);
        let ((), _) = with_ctx(|ctx| {
            counter.fetch_max(ctx, 3);
            counter.fetch_max(ctx, 9);
        });
        assert_eq!(counter.load(), 9);
        counter.store(1);
        assert_eq!(counter.load(), 1);
    }

    #[test]
    fn buffer_store_load_roundtrip() {
        let buf = AtomicBuffer::zeroed(8);
        let (v, stats) = with_ctx(|ctx| {
            buf.store(ctx, 3, 42);
            buf.load(ctx, 3)
        });
        assert_eq!(v, 42);
        assert_eq!(buf.to_vec(), vec![0, 0, 0, 42, 0, 0, 0, 0]);
        assert_eq!(stats.global_store_transactions, 1);
        assert_eq!(stats.global_load_transactions, 1);
        buf.clear();
        assert_eq!(buf.get(3), 0);
    }

    #[test]
    fn buffer_histogram_with_fetch_add() {
        let hist = AtomicBuffer::zeroed(4);
        let ((), stats) = with_ctx(|ctx| {
            for v in [0usize, 1, 1, 3, 3, 3] {
                hist.fetch_add(ctx, v, 1);
            }
        });
        assert_eq!(hist.to_vec(), vec![1, 2, 0, 3]);
        assert_eq!(stats.atomic_operations, 6);
    }

    #[test]
    fn buffer_fetch_max() {
        let buf = AtomicBuffer::zeroed(2);
        let ((), _) = with_ctx(|ctx| {
            buf.store(ctx, 0, 5);
            buf.store(ctx, 1, 5);
            buf.fetch_max(ctx, 0, 9);
            buf.fetch_max(ctx, 1, 2);
        });
        assert_eq!(buf.to_vec(), vec![9, 5]);
    }

    #[test]
    fn empty_buffers() {
        assert!(AtomicBuffer::zeroed(0).is_empty());
        assert_eq!(AtomicBuffer::zeroed(0).len(), 0);
    }
}
