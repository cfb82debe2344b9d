//! Kernel and device level instrumentation counters.
//!
//! [`KernelStats`] plays the role of `nvprof` in the paper: it counts global
//! load/store transactions (Table 3), shuffle instructions and atomics (the
//! quantities the Section 5.2 cost model is built from). Each warp
//! accumulates into a private copy which the launcher merges, so counting
//! adds no synchronization to the simulated kernel's hot path.

use std::ops::{Add, AddAssign};

/// Per-kernel (or per-warp, before merging) instrumentation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of global-memory *load* transactions (128-byte granularity for
    /// coalesced accesses, one transaction per access for random accesses).
    pub global_load_transactions: u64,
    /// Number of global-memory *store* transactions.
    pub global_store_transactions: u64,
    /// Bytes loaded from global memory.
    pub global_loaded_bytes: u64,
    /// Bytes stored to global memory.
    pub global_stored_bytes: u64,
    /// Warp shuffle (`__shfl_sync`) instructions executed.
    pub shuffle_instructions: u64,
    /// Global atomic operations (atomicAdd etc.).
    pub atomic_operations: u64,
    /// Length of the longest same-address atomic dependency chain: atomics
    /// to the same word serialize, so this is the lower bound on the number
    /// of serialized atomic rounds (models histogram contention on skewed
    /// distributions, the mechanism behind the bucket/radix instability in
    /// Figure 4 of the paper).
    pub atomic_serialized_ops: u64,
    /// Shared-memory load/store operations.
    pub shared_ops: u64,
    /// Shared-memory bank conflicts (extra serialized accesses).
    pub bank_conflicts: u64,
    /// `__syncthreads()` barriers executed.
    pub syncthreads: u64,
    /// Arithmetic / logic operations explicitly attributed by kernels.
    pub alu_ops: u64,
    /// Number of simulated warps that executed work in this kernel.
    pub warps_launched: u64,
}

impl KernelStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total global memory transactions (loads + stores), the quantity
    /// Table 3 of the paper reports.
    pub fn total_transactions(&self) -> u64 {
        self.global_load_transactions + self.global_store_transactions
    }

    /// Total bytes moved through global memory.
    pub fn total_bytes(&self) -> u64 {
        self.global_loaded_bytes + self.global_stored_bytes
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.global_load_transactions += other.global_load_transactions;
        self.global_store_transactions += other.global_store_transactions;
        self.global_loaded_bytes += other.global_loaded_bytes;
        self.global_stored_bytes += other.global_stored_bytes;
        self.shuffle_instructions += other.shuffle_instructions;
        self.atomic_operations += other.atomic_operations;
        self.atomic_serialized_ops += other.atomic_serialized_ops;
        self.shared_ops += other.shared_ops;
        self.bank_conflicts += other.bank_conflicts;
        self.syncthreads += other.syncthreads;
        self.alu_ops += other.alu_ops;
        self.warps_launched += other.warps_launched;
    }

    /// These counters `n` times over: what a run of `n` warps records when
    /// each records these.
    pub(crate) fn scaled(&self, n: u64) -> KernelStats {
        KernelStats {
            global_load_transactions: self.global_load_transactions * n,
            global_store_transactions: self.global_store_transactions * n,
            global_loaded_bytes: self.global_loaded_bytes * n,
            global_stored_bytes: self.global_stored_bytes * n,
            shuffle_instructions: self.shuffle_instructions * n,
            atomic_operations: self.atomic_operations * n,
            atomic_serialized_ops: self.atomic_serialized_ops * n,
            shared_ops: self.shared_ops * n,
            bank_conflicts: self.bank_conflicts * n,
            syncthreads: self.syncthreads * n,
            alu_ops: self.alu_ops * n,
            warps_launched: self.warps_launched * n,
        }
    }

    /// True when no activity has been recorded.
    pub fn is_empty(&self) -> bool {
        *self == KernelStats::default()
    }
}

impl Add for KernelStats {
    type Output = KernelStats;
    fn add(mut self, rhs: KernelStats) -> KernelStats {
        self.merge(&rhs);
        self
    }
}

impl AddAssign for KernelStats {
    fn add_assign(&mut self, rhs: KernelStats) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for KernelStats {
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> Self {
        iter.fold(KernelStats::default(), |acc, s| acc + s)
    }
}

/// A record of one kernel launch kept in the device log.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Name given at launch time (e.g. `"delegate_construction"`).
    pub name: String,
    /// Counters accumulated by the launch.
    pub stats: KernelStats,
    /// Modeled execution time in milliseconds.
    pub time_ms: f64,
    /// Host wall-clock time spent simulating the kernel, in milliseconds.
    pub wall_ms: f64,
}

/// Aggregated statistics for a whole device (all launches since creation or
/// since the last [`DeviceStats::reset`]).
#[derive(Debug, Default, Clone)]
pub struct DeviceStats {
    /// Per-launch log, in launch order.
    pub kernels: Vec<KernelRecord>,
    /// Sum of all kernel counters.
    pub total: KernelStats,
    /// Sum of modeled kernel times in milliseconds.
    pub total_time_ms: f64,
}

impl DeviceStats {
    /// Record one kernel launch.
    pub fn record(&mut self, record: KernelRecord) {
        self.total.merge(&record.stats);
        self.total_time_ms += record.time_ms;
        self.kernels.push(record);
    }

    /// Clear the log and counters.
    pub fn reset(&mut self) {
        self.kernels.clear();
        self.total = KernelStats::default();
        self.total_time_ms = 0.0;
    }

    /// Sum the modeled time of all launches whose name contains `needle`.
    /// Used by the figure harnesses to build per-phase breakdowns
    /// (e.g. everything named `"first_topk*"`).
    pub fn time_ms_for(&self, needle: &str) -> f64 {
        self.kernels
            .iter()
            .filter(|k| k.name.contains(needle))
            .map(|k| k.time_ms)
            .sum()
    }

    /// Sum the counters of all launches whose name contains `needle`.
    pub fn stats_for(&self, needle: &str) -> KernelStats {
        self.kernels
            .iter()
            .filter(|k| k.name.contains(needle))
            .map(|k| k.stats)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(loads: u64, stores: u64) -> KernelStats {
        KernelStats {
            global_load_transactions: loads,
            global_store_transactions: stores,
            global_loaded_bytes: loads * 128,
            global_stored_bytes: stores * 128,
            shuffle_instructions: 7,
            atomic_operations: 3,
            atomic_serialized_ops: 2,
            shared_ops: 11,
            bank_conflicts: 1,
            syncthreads: 2,
            alu_ops: 100,
            warps_launched: 4,
        }
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = sample(10, 5);
        let b = sample(1, 2);
        a.merge(&b);
        assert_eq!(a.global_load_transactions, 11);
        assert_eq!(a.global_store_transactions, 7);
        assert_eq!(a.global_loaded_bytes, 11 * 128);
        assert_eq!(a.shuffle_instructions, 14);
        assert_eq!(a.atomic_operations, 6);
        assert_eq!(a.atomic_serialized_ops, 4);
        assert_eq!(a.shared_ops, 22);
        assert_eq!(a.bank_conflicts, 2);
        assert_eq!(a.syncthreads, 4);
        assert_eq!(a.alu_ops, 200);
        assert_eq!(a.warps_launched, 8);
    }

    #[test]
    fn scaled_equals_repeated_merges() {
        let one = sample(10, 5);
        let mut three = one;
        three.merge(&one);
        three.merge(&one);
        assert_eq!(one.scaled(3), three);
        assert_eq!(one.scaled(1), one);
        assert!(one.scaled(0).is_empty());
    }

    #[test]
    fn totals() {
        let s = sample(10, 5);
        assert_eq!(s.total_transactions(), 15);
        assert_eq!(s.total_bytes(), 15 * 128);
        assert!(!s.is_empty());
        assert!(KernelStats::default().is_empty());
    }

    #[test]
    fn add_and_sum_traits() {
        let total: KernelStats = vec![sample(1, 1), sample(2, 2), sample(3, 3)]
            .into_iter()
            .sum();
        assert_eq!(total.global_load_transactions, 6);
        let combined = sample(1, 0) + sample(0, 1);
        assert_eq!(combined.total_transactions(), 2);
    }

    #[test]
    fn device_stats_record_and_filter() {
        let mut ds = DeviceStats::default();
        ds.record(KernelRecord {
            name: "delegate_construction".into(),
            stats: sample(100, 10),
            time_ms: 1.5,
            wall_ms: 0.1,
        });
        ds.record(KernelRecord {
            name: "first_topk_radix_pass0".into(),
            stats: sample(50, 5),
            time_ms: 0.5,
            wall_ms: 0.05,
        });
        ds.record(KernelRecord {
            name: "first_topk_radix_pass1".into(),
            stats: sample(25, 2),
            time_ms: 0.25,
            wall_ms: 0.02,
        });
        assert_eq!(ds.kernels.len(), 3);
        assert!((ds.total_time_ms - 2.25).abs() < 1e-12);
        assert!((ds.time_ms_for("first_topk") - 0.75).abs() < 1e-12);
        assert_eq!(ds.stats_for("first_topk").global_load_transactions, 75);
        assert_eq!(ds.total.global_load_transactions, 175);

        ds.reset();
        assert!(ds.kernels.is_empty());
        assert_eq!(ds.total_time_ms, 0.0);
        assert!(ds.total.is_empty());
    }
}
