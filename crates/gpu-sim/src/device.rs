//! The simulated device and its kernel launcher.
//!
//! A [`Device`] owns a [`DeviceSpec`] and a log of every kernel launched on
//! it ([`DeviceStats`]). Kernels are warp-centric closures executed once per
//! warp; a launch runs its warps in warp order on the calling thread and
//! merges each warp's instrumentation counters as it goes. A kernel writes
//! its output into what it captures, and a launch returns only its cost.
//! Host parallelism lives one level up, in the cluster's per-device run,
//! never inside a launch.
//!
//! A data-oblivious kernel, whose warps come in runs that each record the
//! same counters, is charged in closed form instead
//! ([`Device::launch_alike`]): the launch runs one warp per run and adds
//! that warp's counters times the run's length. Debug builds run every
//! other warp too and assert that it recorded what its run's first warp
//! did, so a kernel whose warps are not alike fails its tests.

use std::time::Instant;

use parking_lot::Mutex;

use crate::spec::DeviceSpec;
use crate::stats::{DeviceStats, KernelRecord, KernelStats};
use crate::timing::estimate_time_ms;
use crate::warp::WarpCtx;

/// The cost of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchResult {
    /// Counters accumulated across all warps of the launch.
    pub stats: KernelStats,
    /// Modeled execution time of the kernel in milliseconds.
    pub time_ms: f64,
    /// Host wall-clock time spent simulating the kernel, in milliseconds.
    pub wall_ms: f64,
}

/// A simulated GPU.
pub struct Device {
    spec: DeviceSpec,
    stats: Mutex<DeviceStats>,
    /// Maximum number of `u32` elements this device is allowed to hold at
    /// once. Defaults to the spec's capacity; experiments (Table 2) shrink it
    /// to reproduce the out-of-memory / reload regime at reduced scale.
    capacity_elems: Mutex<usize>,
}

impl Device {
    /// Create a device with the given hardware spec. Its kernels run on
    /// whichever host thread launches them.
    pub fn new(spec: DeviceSpec) -> Self {
        let capacity = spec.capacity_u32_elems(0.25);
        Device {
            spec,
            stats: Mutex::new(DeviceStats::default()),
            capacity_elems: Mutex::new(capacity),
        }
    }

    /// Hardware description of the device.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current device memory capacity expressed in `u32` elements.
    pub fn capacity_elems(&self) -> usize {
        *self.capacity_elems.lock()
    }

    /// Override the device memory capacity (in `u32` elements). Used by the
    /// multi-GPU scalability experiment to reproduce the reload-overhead
    /// regime with scaled-down inputs.
    pub fn set_capacity_elems(&self, elems: usize) {
        *self.capacity_elems.lock() = elems;
    }

    /// Snapshot of the accumulated per-kernel log.
    pub fn stats(&self) -> DeviceStats {
        self.stats.lock().clone()
    }

    /// Clear the per-kernel log and counters.
    pub fn reset_stats(&self) {
        self.stats.lock().reset();
    }

    /// Record a non-kernel cost (e.g. a host↔device transfer) in the device
    /// log so it shows up in breakdowns and total time.
    pub fn record_external(&self, name: &str, stats: KernelStats, time_ms: f64) {
        self.stats.lock().record(KernelRecord {
            name: name.to_string(),
            stats,
            time_ms,
            wall_ms: 0.0,
        });
    }

    /// Launch a warp-centric kernel: `kernel` is called once per warp with a
    /// [`WarpCtx`], for warps `0..num_warps` in order on the calling thread.
    /// The `FnMut` bound is that contract: one warp's call returns before
    /// the next begins, so a kernel writes its output straight into what
    /// it captures (a `Vec` it appends to, a histogram it adds to) and
    /// charges the modeled atomics that claim those positions with
    /// [`WarpCtx::record_atomics`]. Returns the merged counters and the
    /// modeled time, and logs them as one [`KernelRecord`].
    pub fn launch<F>(&self, name: &str, num_warps: usize, mut kernel: F) -> LaunchResult
    where
        F: FnMut(&mut WarpCtx<'_>),
    {
        let started = Instant::now();
        let mut stats = KernelStats::default();
        for warp_id in 0..num_warps {
            let mut ctx = WarpCtx::new(warp_id, num_warps, &self.spec);
            kernel(&mut ctx);
            stats.merge(&ctx.into_stats());
        }
        self.record_launch(name, started, stats)
    }

    /// Launch a kernel whose warps come in runs of alike warps, charged in
    /// closed form: `runs` holds the first warp of each run, from 0 up, and
    /// run `i` spans `runs[i]..runs[i + 1]` (the last one ends at
    /// `num_warps`). Empty runs are skipped. `kernel` runs for the first
    /// warp of each run, and that warp's counters count once per warp of
    /// the run. The kernel only records: the `Fn` bound keeps it from
    /// writing into what it captures, so a launch computes the same
    /// outputs however many of its warps run. Returns and logs what
    /// [`Device::launch`] would.
    ///
    /// Debug builds also run every other warp of each run and panic when
    /// one records other counters than its run's first warp.
    ///
    /// # Panics
    ///
    /// When `runs` is empty while `num_warps` is not, does not start at
    /// warp 0, decreases, or names a warp past `num_warps`.
    pub fn launch_alike<F>(
        &self,
        name: &str,
        num_warps: usize,
        runs: &[usize],
        kernel: F,
    ) -> LaunchResult
    where
        F: Fn(&mut WarpCtx<'_>),
    {
        assert!(
            runs.first().map_or(num_warps == 0, |&first| first == 0)
                && runs.windows(2).all(|pair| pair[0] <= pair[1])
                && runs.last().is_none_or(|&last| last <= num_warps),
            "runs {runs:?} are not the first warps of runs over 0..{num_warps}"
        );
        let started = Instant::now();
        let mut stats = KernelStats::default();
        for (i, &first) in runs.iter().enumerate() {
            let end = runs.get(i + 1).copied().unwrap_or(num_warps);
            if first == end {
                continue;
            }
            let mut ctx = WarpCtx::new(first, num_warps, &self.spec);
            kernel(&mut ctx);
            let warp = ctx.into_stats();
            #[cfg(debug_assertions)]
            for warp_id in first + 1..end {
                let mut ctx = WarpCtx::new(warp_id, num_warps, &self.spec);
                kernel(&mut ctx);
                assert_eq!(
                    ctx.into_stats(),
                    warp,
                    "`{name}`: warp {warp_id} is not alike warp {first}, the first of its run"
                );
            }
            stats.merge(&warp.scaled((end - first) as u64));
        }
        self.record_launch(name, started, stats)
    }

    /// Log a launch's merged counters as one [`KernelRecord`] and return
    /// its cost.
    fn record_launch(&self, name: &str, started: Instant, stats: KernelStats) -> LaunchResult {
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let time_ms = estimate_time_ms(&stats, &self.spec);
        self.stats.lock().record(KernelRecord {
            name: name.to_string(),
            stats,
            time_ms,
            wall_ms,
        });
        LaunchResult {
            stats,
            time_ms,
            wall_ms,
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("spec", &self.spec.name)
            .field("capacity_elems", &self.capacity_elems())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_collects_outputs_in_warp_order() {
        let device = Device::new(DeviceSpec::v100s());
        let mut ids = Vec::new();
        let result = device.launch("identity", 100, |ctx| ids.push(ctx.warp_id));
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
        assert_eq!(result.stats.warps_launched, 100);
    }

    #[test]
    fn launch_zero_warps_is_ok() {
        let device = Device::new(DeviceSpec::v100s());
        let mut calls = 0;
        let result = device.launch("empty", 0, |_| calls += 1);
        assert_eq!(calls, 0);
        assert!(result.stats.is_empty());
    }

    #[test]
    fn one_launch_logs_one_record_with_the_merged_counters() {
        let device = Device::new(DeviceSpec::v100s());
        let data = vec![1u32; 1024];
        let launch = device.launch("scan", 4, |ctx| {
            ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
            ctx.record_atomics(ctx.warp_id as u64);
        });
        let want = KernelStats {
            global_load_transactions: 4 * 8,
            global_loaded_bytes: 4096,
            atomic_operations: 6,
            warps_launched: 4,
            ..KernelStats::default()
        };
        assert_eq!(launch.stats, want);
        let log = device.stats();
        assert_eq!(log.kernels.len(), 1);
        assert_eq!(log.kernels[0].name, "scan");
        assert_eq!(log.kernels[0].stats, want);
        assert_eq!(log.kernels[0].time_ms.to_bits(), launch.time_ms.to_bits());
        assert_eq!(log.total, want);
    }

    #[test]
    fn device_log_accumulates_and_resets() {
        let device = Device::new(DeviceSpec::v100s());
        let data = vec![1u32; 1024];
        device.launch("a", 4, |ctx| {
            ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
        });
        device.launch("b", 4, |ctx| {
            ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
        });
        let log = device.stats();
        assert_eq!(log.kernels.len(), 2);
        assert!(log.total_time_ms > 0.0);
        assert_eq!(log.total.global_loaded_bytes, 2 * 4096);
        device.reset_stats();
        assert!(device.stats().kernels.is_empty());
    }

    #[test]
    fn warps_run_in_order_on_the_calling_thread() {
        let device = Device::new(DeviceSpec::v100s());
        let caller = std::thread::current().id();
        let mut threads = Vec::new();
        device.launch("whoami", 64, |_| threads.push(std::thread::current().id()));
        assert_eq!(threads.len(), 64);
        assert!(threads.iter().all(|&id| id == caller));
    }

    /// The concatenation's pattern: each warp claims its output positions
    /// from a captured cursor, charged as one atomic, and stores there.
    #[test]
    fn captured_cursor_hands_out_positions_in_warp_order() {
        let device = Device::new(DeviceSpec::v100s());
        for run in 0..3 {
            let mut cursor = 0usize;
            let mut out = vec![0u32; 256];
            let launch = device.launch("concat", 64, |ctx| {
                ctx.record_atomics(1);
                let pos = cursor;
                cursor += 4;
                for i in 0..4u32 {
                    out[pos + i as usize] = ctx.warp_id as u32 * 10 + i;
                }
                ctx.record_store_coalesced::<u32>(4);
            });
            assert_eq!(cursor, 256);
            assert_eq!(launch.stats.atomic_operations, 64);
            let expected: Vec<u32> = (0..64u32)
                .flat_map(|w| (0..4u32).map(move |i| w * 10 + i))
                .collect();
            assert_eq!(out, expected, "positions in warp order, run {run}");
        }
    }

    /// The bucket histogram's pattern: each warp counts into a local
    /// histogram, then adds every non-empty bin into a captured one,
    /// charged as one atomic per add.
    #[test]
    fn captured_histogram_charges_one_atomic_per_add() {
        let device = Device::new(DeviceSpec::v100s());
        let data = [0usize, 1, 1, 3, 3, 3, 1, 3];
        let mut histogram = [0u32; 4];
        let launch = device.launch("hist", 2, |ctx| {
            let mut local = [0u32; 4];
            for &b in &data[ctx.chunk_of(data.len())] {
                local[b] += 1;
            }
            for (sum, &count) in histogram.iter_mut().zip(&local) {
                if count > 0 {
                    ctx.record_atomics(1);
                    *sum += count;
                }
            }
        });
        assert_eq!(histogram, [1, 3, 0, 4]);
        // warp 0 saw bins 0, 1 and 3; warp 1 saw bins 1 and 3
        assert_eq!(launch.stats.atomic_operations, 5);
    }

    /// A data-oblivious kernel shaped like delegate construction: each warp
    /// reads its run of 8-element subranges of `len` elements and stores
    /// two values per subrange (fewer for the ragged last one).
    fn subrange_charges(len: usize) -> impl Fn(&mut WarpCtx<'_>) {
        move |ctx| {
            let subranges = ctx.chunk_of(len.div_ceil(8));
            let own = (subranges.end * 8).min(len) - subranges.start * 8;
            ctx.record_load_coalesced::<u32>(own);
            for subrange in 0..subranges.len() {
                let kept = (own - 8 * subrange).min(2);
                ctx.record_store_coalesced::<u32>(kept);
                ctx.record_shuffles(31 * kept as u64);
            }
        }
    }

    #[test]
    fn launch_alike_equals_launch_on_an_alike_kernel() {
        // (elements, warps, runs): three non-empty runs (1004 subranges,
        // 3 warps of 144, 3 of 143, a ragged last one); an empty first run
        // (700 subranges, 7 warps of 100); one warp; no warps
        let cases: [(usize, usize, &[usize]); 4] = [
            (8 * 1003 + 3, 7, &[0, 3, 6]),
            (8 * 699 + 5, 7, &[0, 0, 6]),
            (8 * 20 + 1, 1, &[0, 0, 0]),
            (0, 0, &[0]),
        ];
        for (len, num_warps, runs) in cases {
            let (looped, alike) = (
                Device::new(DeviceSpec::v100s()),
                Device::new(DeviceSpec::v100s()),
            );
            let want = looped.launch("charges", num_warps, subrange_charges(len));
            let got = alike.launch_alike("charges", num_warps, runs, subrange_charges(len));
            let case = format!("{len} elements over {num_warps} warps, runs {runs:?}");
            assert_eq!(got.stats, want.stats, "{case}");
            assert_eq!(got.time_ms.to_bits(), want.time_ms.to_bits(), "{case}");
            assert_eq!(got.stats.warps_launched, num_warps as u64, "{case}");
            let (want_log, got_log) = (looped.stats(), alike.stats());
            assert_eq!(got_log.kernels.len(), 1, "{case}");
            let (w, g) = (&want_log.kernels[0], &got_log.kernels[0]);
            assert_eq!((&g.name, g.stats), (&w.name, w.stats), "{case}");
            assert_eq!(g.time_ms.to_bits(), w.time_ms.to_bits(), "{case}");
            assert_eq!(got_log.total, want_log.total, "{case}");
        }
    }

    #[test]
    fn launch_alike_runs_one_warp_per_run_and_debug_runs_all() {
        let device = Device::new(DeviceSpec::v100s());
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let charges = subrange_charges(8 * 1003 + 3);
        device.launch_alike("charges", 7, &[0, 3, 6], |ctx| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            charges(ctx);
        });
        let want = if cfg!(debug_assertions) { 7 } else { 3 };
        assert_eq!(calls.into_inner(), want);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "warp 1 is not alike warp 0")]
    fn launch_alike_catches_a_warp_unlike_its_run() {
        let device = Device::new(DeviceSpec::v100s());
        device.launch_alike("skewed", 4, &[0, 3], |ctx| {
            ctx.record_atomics(ctx.warp_id as u64);
        });
    }

    #[test]
    #[should_panic(expected = "are not the first warps of runs")]
    fn launch_alike_rejects_runs_that_skip_warp_0() {
        let device = Device::new(DeviceSpec::v100s());
        device.launch_alike("charges", 4, &[1, 3], subrange_charges(64));
    }

    #[test]
    fn record_external_shows_in_log() {
        let device = Device::new(DeviceSpec::v100s());
        device.record_external("host_to_device", KernelStats::default(), 12.5);
        let log = device.stats();
        assert_eq!(log.kernels.len(), 1);
        assert!((log.total_time_ms - 12.5).abs() < 1e-12);
        assert!((log.time_ms_for("host_to_device") - 12.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_override() {
        let device = Device::new(DeviceSpec::v100s());
        let default_cap = device.capacity_elems();
        assert!(default_cap > 1 << 30);
        device.set_capacity_elems(1 << 20);
        assert_eq!(device.capacity_elems(), 1 << 20);
    }
}
