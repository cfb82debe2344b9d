//! The simulated device and its kernel launcher.
//!
//! A [`Device`] owns a [`DeviceSpec`] and a log of every kernel launched on
//! it ([`DeviceStats`]). Kernels are warp-centric closures executed once per
//! warp; a launch runs its warps in warp order on the calling thread and
//! merges each warp's instrumentation counters as it goes. Host parallelism
//! lives one level up, in the stage executor and the cluster's per-device
//! run, never inside a launch.

use std::time::Instant;

use parking_lot::Mutex;

use crate::spec::DeviceSpec;
use crate::stats::{DeviceStats, KernelRecord, KernelStats};
use crate::timing::estimate_time_ms;
use crate::warp::WarpCtx;

/// Result of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult<R> {
    /// Per-warp outputs, in warp-id order.
    pub output: Vec<R>,
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
    /// [`WarpCtx`], in warp order on the calling thread. Returns the per-warp
    /// outputs in warp order plus the merged counters and the modeled time.
    pub fn launch<R, F>(&self, name: &str, num_warps: usize, kernel: F) -> LaunchResult<R>
    where
        F: Fn(&mut WarpCtx<'_>) -> R,
    {
        let started = Instant::now();
        let mut stats = KernelStats::default();
        let mut output: Vec<R> = Vec::with_capacity(num_warps);
        for warp_id in 0..num_warps {
            let mut ctx = WarpCtx::new(warp_id, num_warps, &self.spec);
            output.push(kernel(&mut ctx));
            stats.merge(&ctx.into_stats());
        }

        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let time_ms = estimate_time_ms(&stats, &self.spec);
        self.stats.lock().record(KernelRecord {
            name: name.to_string(),
            stats,
            time_ms,
            wall_ms,
        });
        LaunchResult {
            output,
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
    use crate::memory::{AtomicBuffer, AtomicCounter};

    #[test]
    fn launch_collects_outputs_in_warp_order() {
        let device = Device::new(DeviceSpec::v100s());
        let result = device.launch("identity", 100, |ctx| ctx.warp_id);
        assert_eq!(result.output, (0..100).collect::<Vec<_>>());
        assert_eq!(result.stats.warps_launched, 100);
    }

    #[test]
    fn launch_zero_warps_is_ok() {
        let device = Device::new(DeviceSpec::v100s());
        let result: LaunchResult<()> = device.launch("empty", 0, |_| ());
        assert!(result.output.is_empty());
        assert!(result.stats.is_empty() || result.stats.warps_launched == 0);
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
        let threads = device.launch("whoami", 64, |_| std::thread::current().id());
        assert!(threads.output.iter().all(|&id| id == caller));

        for run in 0..3 {
            let counter = AtomicCounter::new(0);
            let out = AtomicBuffer::zeroed(256);
            device.launch("concat", 64, |ctx| {
                // each warp writes 4 entries at atomically allocated positions
                for i in 0..4u32 {
                    let pos = counter.fetch_add(ctx, 1) as usize;
                    out.store(ctx, pos, ctx.warp_id as u32 * 10 + i);
                }
            });
            assert_eq!(counter.load(), 256);
            let expected: Vec<u32> = (0..64u32)
                .flat_map(|w| (0..4u32).map(move |i| w * 10 + i))
                .collect();
            assert_eq!(out.to_vec(), expected, "positions in warp order, run {run}");
        }
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
