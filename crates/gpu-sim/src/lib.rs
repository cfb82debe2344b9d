//! # gpu-sim — a software SIMT execution model
//!
//! The Dr. Top-k paper (SC '21) is evaluated on NVIDIA V100S / Titan Xp GPUs
//! with CUDA kernels. This crate is the substitute substrate used by the
//! reproduction: a *software* model of a CUDA-like device that
//!
//! * executes **warp-centric kernels** (a kernel is a function of a warp id,
//!   run for every warp of a launch grid, in warp order on the launching
//!   host thread, writing its output into what it captures; a
//!   data-oblivious kernel is charged in closed form, one warp per run of
//!   alike warps, by [`Device::launch_alike`]),
//! * **instruments** every global-memory transaction, shared-memory access,
//!   shuffle instruction and atomic operation exactly the way the paper's own
//!   cost model (Section 5.2) accounts for them, and
//! * converts those counters into an **estimated kernel time** through an
//!   analytic timing model parameterised by a [`DeviceSpec`] (V100S,
//!   Titan Xp, A100 presets).
//!
//! The absolute times produced by the model are not meant to match the
//! paper's testbed; the *relative* behaviour (which algorithm wins, where the
//! crossovers are, how workload scales with `k` and `|V|`) is preserved
//! because it is a function of exactly the quantities this crate measures.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`spec`] | [`DeviceSpec`]: hardware parameters and presets |
//! | [`stats`] | [`KernelStats`] / [`DeviceStats`]: transaction counters |
//! | [`warp`] | [`WarpCtx`]: instrumented warp-level primitives (coalesced and random accesses, shuffle reductions, atomic and shared-memory counts) |
//! | [`device`] | [`Device`]: kernel launcher + per-kernel log |
//! | [`timing`] | the analytic timing model |
//! | [`multi`] | [`GpuCluster`]: multiple devices, the MPI-like interconnect model and the per-device [`try_run_on_each`] |
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Device, DeviceSpec};
//!
//! let device = Device::new(DeviceSpec::v100s());
//! let data: Vec<u32> = (0..4096u32).collect();
//!
//! // One warp per 128-element subrange; each warp writes the subrange max.
//! let mut maxima = Vec::new();
//! let launch = device.launch("subrange_max", data.len() / 128, |ctx| {
//!     let sub = ctx.read_coalesced(&data[ctx.warp_id * 128..(ctx.warp_id + 1) * 128]);
//!     let lane_max = sub.iter().copied().max().unwrap();
//!     maxima.push(ctx.warp_reduce_max(lane_max));
//! });
//! assert_eq!(maxima.len(), 32);
//! assert_eq!(maxima[0], 127);
//! assert!(launch.stats.global_load_transactions > 0);
//! assert!(launch.time_ms > 0.0);
//! ```

pub mod device;
pub mod multi;
pub mod spec;
pub mod stats;
pub mod timing;
pub mod warp;

pub use device::{Device, LaunchResult};
pub use multi::{try_run_on_each, DeviceError, GpuCluster, InterconnectSpec, TransferDirection};
pub use spec::DeviceSpec;
pub use stats::{DeviceStats, KernelRecord, KernelStats};
pub use timing::estimate_time_ms;
pub use warp::{chunk_range, WarpCtx, WARP_SIZE};
