//! Multi-device cluster model.
//!
//! Section 5.4 of the paper distributes Dr. Top-k over up to 16 V100 GPUs on
//! 4 compute nodes, using asynchronous MPI to gather each device's local
//! top-k onto a primary device. This module provides:
//!
//! * [`GpuCluster`] — a set of [`Device`]s plus an [`InterconnectSpec`]
//!   describing intra-node (NVLink-class) and inter-node (network) links;
//! * a parallel [`try_run_on_each`] helper (and [`GpuCluster::try_run_on_all`]
//!   over a whole cluster) that executes one closure per device on host
//!   threads (the "each GPU computes its local top-k" step);
//! * transfer-time models for device↔device messages and host→device
//!   reloads, used to produce the Communication and Reload Overhead columns
//!   of Table 2.

use crate::device::Device;
use crate::spec::DeviceSpec;
use crate::timing::host_transfer_time_ms;

/// A failure reported by one device's worker during
/// [`GpuCluster::try_run_on_all`], carrying the id of the device whose
/// closure failed so callers can retry, exclude or report that device
/// without losing the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceError<E> {
    /// Index of the failing device within the cluster.
    pub device: usize,
    /// The error the worker closure returned.
    pub error: E,
}

impl<E: std::fmt::Display> std::fmt::Display for DeviceError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device {}: {}", self.device, self.error)
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for DeviceError<E> {}

/// Link characteristics of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectSpec {
    /// Devices installed per compute node.
    pub devices_per_node: usize,
    /// One-way latency between two devices on the same node, microseconds.
    pub intra_node_latency_us: f64,
    /// Bandwidth between two devices on the same node, GB/s.
    pub intra_node_bandwidth_gbps: f64,
    /// One-way latency between devices on different nodes, microseconds.
    pub inter_node_latency_us: f64,
    /// Bandwidth between devices on different nodes, GB/s.
    pub inter_node_bandwidth_gbps: f64,
}

impl Default for InterconnectSpec {
    fn default() -> Self {
        // NVLink-class intra-node links and a 100 Gb/s-class network between
        // nodes, matching the platform class used in the paper (4 V100 per
        // node, 4 nodes).
        InterconnectSpec {
            devices_per_node: 4,
            intra_node_latency_us: 8.0,
            intra_node_bandwidth_gbps: 50.0,
            inter_node_latency_us: 25.0,
            inter_node_bandwidth_gbps: 12.0,
        }
    }
}

/// Direction of a modeled transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// Device-to-device message (MPI send/recv between ranks).
    DeviceToDevice { src: usize, dst: usize },
    /// Host memory to a device (used for sub-vector reloads).
    HostToDevice { dst: usize },
    /// Device back to host memory.
    DeviceToHost { src: usize },
}

/// A collection of simulated devices connected by a modeled interconnect.
pub struct GpuCluster {
    devices: Vec<Device>,
    interconnect: InterconnectSpec,
}

impl GpuCluster {
    /// Build a homogeneous cluster of `n` devices with the given spec and
    /// default interconnect.
    pub fn homogeneous(n: usize, spec: DeviceSpec) -> Self {
        assert!(n > 0, "a cluster needs at least one device");
        let devices = (0..n).map(|_| Device::new(spec.clone())).collect();
        GpuCluster {
            devices,
            interconnect: InterconnectSpec::default(),
        }
    }

    /// Modeled per-message ingest/processing cost at a gather's primary
    /// rank, in milliseconds — charged once per asynchronous gather
    /// message on top of the wire transfer time.
    pub const MESSAGE_OVERHEAD_MS: f64 = 0.01;

    /// Build a cluster from explicit devices and interconnect.
    pub fn new(devices: Vec<Device>, interconnect: InterconnectSpec) -> Self {
        assert!(!devices.is_empty(), "a cluster needs at least one device");
        GpuCluster {
            devices,
            interconnect,
        }
    }

    /// Number of devices in the cluster.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of compute nodes occupied by the cluster.
    pub(crate) fn num_nodes(&self) -> usize {
        self.devices
            .len()
            .div_ceil(self.interconnect.devices_per_node.max(1))
    }

    /// Access one device.
    pub fn device(&self, idx: usize) -> &Device {
        &self.devices[idx]
    }

    /// Access all devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Interconnect description.
    pub fn interconnect(&self) -> &InterconnectSpec {
        &self.interconnect
    }

    /// Which node a device lives on.
    pub(crate) fn node_of(&self, device: usize) -> usize {
        device / self.interconnect.devices_per_node.max(1)
    }

    /// Reset the kernel logs of every device.
    pub fn reset_stats(&self) {
        for d in &self.devices {
            d.reset_stats();
        }
    }

    /// Modeled one-way transfer time for `bytes` moved along `direction`,
    /// in milliseconds.
    pub fn transfer_time_ms(&self, direction: TransferDirection, bytes: u64) -> f64 {
        match direction {
            TransferDirection::DeviceToDevice { src, dst } => {
                if src == dst {
                    return 0.0;
                }
                let (lat_us, bw_gbps) = if self.node_of(src) == self.node_of(dst) {
                    (
                        self.interconnect.intra_node_latency_us,
                        self.interconnect.intra_node_bandwidth_gbps,
                    )
                } else {
                    (
                        self.interconnect.inter_node_latency_us,
                        self.interconnect.inter_node_bandwidth_gbps,
                    )
                };
                lat_us * 1e-3 + bytes as f64 / (bw_gbps * 1e9) * 1e3
            }
            TransferDirection::HostToDevice { dst } => {
                host_transfer_time_ms(bytes, self.devices[dst].spec())
            }
            TransferDirection::DeviceToHost { src } => {
                host_transfer_time_ms(bytes, self.devices[src].spec())
            }
        }
    }

    /// Model a transfer *and* record it in the destination/source device's
    /// kernel log (as [`Device::record_external`] would), returning the
    /// modeled milliseconds. This is the one-call form the chunked
    /// ingestion stages use: the transfer shows up both in the stage
    /// schedule and in the device's own log.
    pub fn record_transfer(&self, name: &str, direction: TransferDirection, bytes: u64) -> f64 {
        let t = self.transfer_time_ms(direction, bytes);
        let device = match direction {
            TransferDirection::DeviceToDevice { dst, .. } => dst,
            TransferDirection::HostToDevice { dst } => dst,
            TransferDirection::DeviceToHost { src } => src,
        };
        self.devices[device].record_external(name, crate::stats::KernelStats::default(), t);
        t
    }

    /// Run `work` once per device, in parallel on host threads; see
    /// [`try_run_on_each`].
    pub fn try_run_on_all<R, E, F>(&self, work: F) -> Result<Vec<R>, DeviceError<E>>
    where
        R: Send,
        E: Send,
        F: Fn(usize, &Device) -> Result<R, E> + Sync,
    {
        let devices: Vec<&Device> = self.devices.iter().collect();
        try_run_on_each(&devices, work)
    }
}

/// Run `work` once per device of `devices`, in parallel on host threads (a
/// single device runs inline, on the calling thread). Every worker runs to
/// completion even when another device's worker fails; the results are
/// returned in device order, or the error of the lowest-indexed failing
/// device is surfaced as a [`DeviceError`] so the caller knows *which*
/// device to blame (and can retry elsewhere) instead of the whole run being
/// poisoned.
#[allow(clippy::disallowed_methods)] // the per-device run is the one host-parallel layer
pub fn try_run_on_each<R, E, F>(devices: &[&Device], work: F) -> Result<Vec<R>, DeviceError<E>>
where
    R: Send,
    E: Send,
    F: Fn(usize, &Device) -> Result<R, E> + Sync,
{
    let n = devices.len();
    let mut results: Vec<Option<Result<R, E>>> = if n == 1 {
        vec![Some(work(0, devices[0]))]
    } else {
        let mut slots: Vec<Option<Result<R, E>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = devices
                .iter()
                .enumerate()
                .map(|(idx, &dev)| (idx, scope.spawn(move || work(idx, dev))))
                .collect();
            for (idx, h) in handles {
                let r = h
                    .join()
                    .unwrap_or_else(|_| panic!("worker of device {idx} panicked"));
                slots[idx] = Some(r);
            }
        });
        slots
    };
    // Surface the lowest-indexed failure deterministically.
    for (device, slot) in results.iter_mut().enumerate() {
        if let Some(Err(_)) = slot {
            let Some(Err(error)) = slot.take() else {
                unreachable!()
            };
            return Err(DeviceError { device, error });
        }
    }
    Ok(results
        .into_iter()
        .map(|r| {
            r.expect("every device produced a result")
                .unwrap_or_else(|_| unreachable!())
        })
        .collect())
}

impl std::fmt::Debug for GpuCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuCluster")
            .field("num_devices", &self.num_devices())
            .field("num_nodes", &self.num_nodes())
            .field("device", &self.devices[0].spec().name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_layout() {
        let cluster = GpuCluster::homogeneous(16, DeviceSpec::v100s());
        assert_eq!(cluster.num_devices(), 16);
        assert_eq!(cluster.num_nodes(), 4);
        assert_eq!(cluster.node_of(0), 0);
        assert_eq!(cluster.node_of(3), 0);
        assert_eq!(cluster.node_of(4), 1);
        assert_eq!(cluster.node_of(15), 3);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_panics() {
        GpuCluster::homogeneous(0, DeviceSpec::v100s());
    }

    #[test]
    fn intra_node_is_faster_than_inter_node() {
        let cluster = GpuCluster::homogeneous(8, DeviceSpec::v100s());
        let bytes = 1 << 20;
        let intra =
            cluster.transfer_time_ms(TransferDirection::DeviceToDevice { src: 0, dst: 1 }, bytes);
        let inter =
            cluster.transfer_time_ms(TransferDirection::DeviceToDevice { src: 0, dst: 7 }, bytes);
        assert!(intra < inter);
        let same =
            cluster.transfer_time_ms(TransferDirection::DeviceToDevice { src: 2, dst: 2 }, bytes);
        assert_eq!(same, 0.0);
    }

    #[test]
    fn host_transfer_is_much_slower_than_nvlink() {
        let cluster = GpuCluster::homogeneous(4, DeviceSpec::v100s());
        let bytes = 256 << 20;
        let h2d = cluster.transfer_time_ms(TransferDirection::HostToDevice { dst: 0 }, bytes);
        let d2d =
            cluster.transfer_time_ms(TransferDirection::DeviceToDevice { src: 0, dst: 1 }, bytes);
        assert!(h2d > d2d);
        let d2h = cluster.transfer_time_ms(TransferDirection::DeviceToHost { src: 0 }, bytes);
        assert!((d2h - h2d).abs() < 1e-9);
    }

    #[test]
    fn record_transfer_logs_on_the_touched_device() {
        let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
        let bytes = 1 << 20;
        let t = cluster.record_transfer(
            "chunk_load",
            TransferDirection::HostToDevice { dst: 1 },
            bytes,
        );
        assert_eq!(
            t,
            cluster.transfer_time_ms(TransferDirection::HostToDevice { dst: 1 }, bytes)
        );
        assert!(cluster.device(0).stats().kernels.is_empty());
        let log = cluster.device(1).stats();
        assert_eq!(log.kernels.len(), 1);
        assert_eq!(log.kernels[0].name, "chunk_load");
        assert!((log.time_ms_for("chunk_load") - t).abs() < 1e-12);
    }

    #[test]
    fn try_run_on_all_surfaces_the_failing_device_id() {
        let cluster = GpuCluster::homogeneous(5, DeviceSpec::v100s());
        // device 3 fails; everything else succeeds — the error names device 3
        let got = cluster.try_run_on_all(|idx, _dev| {
            if idx == 3 {
                Err(format!("simulated ECC fault on {idx}"))
            } else {
                Ok(idx * 10)
            }
        });
        let err = got.expect_err("device 3 must fail the run");
        assert_eq!(err.device, 3);
        assert!(err.error.contains("ECC fault"));
        assert_eq!(format!("{err}"), "device 3: simulated ECC fault on 3");

        // several failures: the lowest device id wins deterministically
        let got = cluster.try_run_on_all(|idx, _dev| if idx % 2 == 0 { Err(idx) } else { Ok(()) });
        assert_eq!(got.expect_err("even devices fail").device, 0);

        // all-success path returns device-ordered results
        let got: Result<Vec<usize>, DeviceError<String>> =
            cluster.try_run_on_all(|idx, _dev| Ok(idx));
        assert_eq!(got.unwrap(), vec![0, 1, 2, 3, 4]);

        // single-device clusters take the inline path
        let single = GpuCluster::homogeneous(1, DeviceSpec::v100s());
        let err = single
            .try_run_on_all(|idx, _dev| Err::<(), _>(idx + 100))
            .expect_err("sole device fails");
        assert_eq!(err.device, 0);
        assert_eq!(err.error, 100);
    }

    #[test]
    fn try_run_on_all_failure_does_not_lose_other_devices_work() {
        // A failing worker must not prevent the other devices from running
        // to completion (their kernel logs prove they did the work).
        let cluster = GpuCluster::homogeneous(4, DeviceSpec::v100s());
        let data = vec![1u32; 1024];
        let got = cluster.try_run_on_all(|idx, dev| {
            dev.launch("probe", 2, |ctx| {
                ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
            });
            if idx == 1 {
                Err("late failure")
            } else {
                Ok(())
            }
        });
        assert_eq!(got.expect_err("device 1 fails").device, 1);
        for d in cluster.devices() {
            assert_eq!(d.stats().kernels.len(), 1, "every device ran its kernel");
        }
    }

    #[test]
    fn run_on_all_returns_in_device_order() {
        let cluster = GpuCluster::homogeneous(6, DeviceSpec::titan_xp());
        let results = cluster
            .try_run_on_all(|idx, dev| {
                let data = vec![idx as u32; 1024];
                let launch = dev.launch("scan", 2, |ctx| {
                    ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
                });
                Ok::<_, ()>((idx, launch.stats.warps_launched))
            })
            .unwrap();
        assert_eq!(results.len(), 6);
        for (i, (idx, warps)) in results.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*warps, 2);
        }
        // every device logged a kernel
        for d in cluster.devices() {
            assert_eq!(d.stats().kernels.len(), 1);
        }
        cluster.reset_stats();
        for d in cluster.devices() {
            assert!(d.stats().kernels.is_empty());
        }
    }
}
