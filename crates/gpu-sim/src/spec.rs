//! Device hardware specifications.
//!
//! A [`DeviceSpec`] collects the hardware parameters that the paper's cost
//! model (Section 5.2) and the timing model in [`crate::timing`] consume:
//! memory bandwidth, clock frequency, the per-access cost of a global memory
//! transaction (`C_global`), the cost of a CUDA shuffle (`C_shfl`), shared
//! memory size, and the amount of parallelism available (SMs × cores).

/// Hardware description of a simulated GPU.
///
/// The presets mirror the devices used in the paper's evaluation
/// (Platform I: Tesla V100S, Platform II: Titan Xp) plus an A100 preset for
/// forward-looking experiments. All fields are public so experiments can
/// construct hypothetical devices.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human readable device name, e.g. `"V100S"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Threads per warp. Always 32 on NVIDIA hardware.
    pub warp_size: u32,
    /// Maximum resident warps per SM (occupancy ceiling).
    pub max_warps_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Peak global memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Fraction of peak bandwidth a well-tuned streaming kernel achieves.
    /// The paper reports 84% of peak for delegate vector construction.
    pub mem_efficiency: f64,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm_bytes: u32,
    /// L2 cache size in bytes.
    pub l2_bytes: u32,
    /// Cycles for one global-memory access (`C_global` in Rule 4).
    pub c_global_cycles: f64,
    /// Issue cycles per warp shuffle instruction per SM (`C_shfl` in Rule 4,
    /// interpreted as a throughput cost).
    pub c_shfl_cycles: f64,
    /// Cycles per shared-memory lane operation (throughput cost per bank).
    pub c_shared_cycles: f64,
    /// Latency in cycles of one serialized (same-address) atomic operation.
    pub c_atomic_cycles: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Host ↔ device transfer bandwidth in GB/s (PCIe / NVLink to host).
    pub host_bandwidth_gbps: f64,
}

impl DeviceSpec {
    /// Tesla V100S (Volta) — the paper's Platform I device.
    ///
    /// 80 SMs × 64 cores @ 1.5 GHz, 32 GB HBM2 @ 1134 GB/s, 96 KB shared
    /// memory per SM, 6144 KB L2.
    pub fn v100s() -> Self {
        DeviceSpec {
            name: "V100S".to_string(),
            num_sms: 80,
            cores_per_sm: 64,
            warp_size: 32,
            max_warps_per_sm: 64,
            clock_ghz: 1.5,
            global_mem_bytes: 32 * (1 << 30),
            mem_bandwidth_gbps: 1134.0,
            mem_efficiency: 0.84,
            shared_mem_per_sm_bytes: 96 * 1024,
            l2_bytes: 6144 * 1024,
            c_global_cycles: 400.0,
            c_shfl_cycles: 1.0,
            c_shared_cycles: 1.0,
            c_atomic_cycles: 60.0,
            launch_overhead_us: 2.0,
            host_bandwidth_gbps: 12.0,
        }
    }

    /// Titan Xp (Pascal) — the paper's Platform II device.
    ///
    /// 30 SMs × 128 cores @ ~1.58 GHz, 12 GB GDDR5X @ 547.7 GB/s.
    pub fn titan_xp() -> Self {
        DeviceSpec {
            name: "TitanXp".to_string(),
            num_sms: 30,
            cores_per_sm: 128,
            warp_size: 32,
            max_warps_per_sm: 64,
            clock_ghz: 1.582,
            global_mem_bytes: 12 * (1 << 30),
            mem_bandwidth_gbps: 547.7,
            mem_efficiency: 0.80,
            shared_mem_per_sm_bytes: 96 * 1024,
            l2_bytes: 3072 * 1024,
            c_global_cycles: 440.0,
            c_shfl_cycles: 1.3,
            c_shared_cycles: 1.2,
            c_atomic_cycles: 70.0,
            launch_overhead_us: 2.5,
            host_bandwidth_gbps: 12.0,
        }
    }

    /// A100 (Ampere) preset — mentioned in the paper's introduction as the
    /// most recent device (312 TFLOPS, 2039 GB/s); useful for what-if runs.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100".to_string(),
            num_sms: 108,
            cores_per_sm: 64,
            warp_size: 32,
            max_warps_per_sm: 64,
            clock_ghz: 1.41,
            global_mem_bytes: 80 * (1 << 30),
            mem_bandwidth_gbps: 2039.0,
            mem_efficiency: 0.86,
            shared_mem_per_sm_bytes: 164 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            c_global_cycles: 380.0,
            c_shfl_cycles: 0.9,
            c_shared_cycles: 0.9,
            c_atomic_cycles: 55.0,
            launch_overhead_us: 1.5,
            host_bandwidth_gbps: 25.0,
        }
    }

    /// H100 SXM (Hopper) preset — the successor generation to the paper's
    /// testbed: 132 SMs × 128 cores, 80 GB HBM3 @ 3350 GB/s.
    pub(crate) fn h100() -> Self {
        DeviceSpec {
            name: "H100".to_string(),
            num_sms: 132,
            cores_per_sm: 128,
            warp_size: 32,
            max_warps_per_sm: 64,
            clock_ghz: 1.78,
            global_mem_bytes: 80 * (1 << 30),
            mem_bandwidth_gbps: 3350.0,
            mem_efficiency: 0.88,
            shared_mem_per_sm_bytes: 228 * 1024,
            l2_bytes: 50 * 1024 * 1024,
            c_global_cycles: 360.0,
            c_shfl_cycles: 0.8,
            c_shared_cycles: 0.8,
            c_atomic_cycles: 50.0,
            launch_overhead_us: 1.2,
            host_bandwidth_gbps: 55.0,
        }
    }

    /// B200-class (Blackwell) preset — 148 SMs × 128 cores, 192 GB HBM3e
    /// @ 8000 GB/s; the largest-memory, highest-bandwidth point of the
    /// catalog for forward-looking crossover sweeps.
    pub(crate) fn b200() -> Self {
        DeviceSpec {
            name: "B200".to_string(),
            num_sms: 148,
            cores_per_sm: 128,
            warp_size: 32,
            max_warps_per_sm: 64,
            clock_ghz: 1.8,
            global_mem_bytes: 192 * (1u64 << 30),
            mem_bandwidth_gbps: 8000.0,
            mem_efficiency: 0.88,
            shared_mem_per_sm_bytes: 228 * 1024,
            l2_bytes: 126 * 1024 * 1024,
            c_global_cycles: 340.0,
            c_shfl_cycles: 0.7,
            c_shared_cycles: 0.7,
            c_atomic_cycles: 45.0,
            launch_overhead_us: 1.0,
            host_bandwidth_gbps: 60.0,
        }
    }

    /// The real-device catalog: every preset this crate ships, oldest to
    /// newest. Device-comparison sweeps (`fig23_device_comparison`) and the
    /// per-device crossover tests iterate this instead of hard-coding
    /// individual presets, so a new preset is picked up everywhere at once.
    pub fn catalog() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::titan_xp(),
            DeviceSpec::v100s(),
            DeviceSpec::a100(),
            DeviceSpec::h100(),
            DeviceSpec::b200(),
        ]
    }

    /// Total number of CUDA cores.
    pub(crate) fn total_cores(&self) -> u32 {
        self.num_sms * self.cores_per_sm
    }

    /// Maximum number of resident warps across the whole device
    /// (latency-hiding parallelism).
    pub(crate) fn max_resident_warps(&self) -> u32 {
        self.num_sms * self.max_warps_per_sm
    }

    /// Effective (achievable) memory bandwidth in bytes per second.
    pub fn effective_bandwidth_bytes_per_s(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e9 * self.mem_efficiency
    }

    /// How many `u32` elements fit in global memory, leaving `reserve`
    /// fraction of the memory for intermediate buffers.
    pub fn capacity_u32_elems(&self, reserve: f64) -> usize {
        let usable = self.global_mem_bytes as f64 * (1.0 - reserve);
        (usable / 4.0) as usize
    }

    /// The `Const` term of Rule 4:
    /// `log2(6·C_global + 31·C_shfl) − log2(6·C_global)`.
    ///
    /// The paper reports that `const = 3` fits the V100S after performance
    /// tuning (the analytic value is adjusted by the Δ′ term in Eq. 11);
    /// [`crate::timing`] exposes both the analytic and tuned values.
    pub fn rule4_const_analytic(&self) -> f64 {
        let num = 6.0 * self.c_global_cycles + 31.0 * self.c_shfl_cycles;
        let den = 6.0 * self.c_global_cycles;
        (num / den).log2()
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::v100s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100s_matches_paper_numbers() {
        let spec = DeviceSpec::v100s();
        assert_eq!(spec.num_sms, 80);
        assert_eq!(spec.cores_per_sm, 64);
        assert_eq!(spec.total_cores(), 5120);
        assert_eq!(spec.warp_size, 32);
        assert_eq!(spec.global_mem_bytes, 32 * (1 << 30));
        assert!((spec.mem_bandwidth_gbps - 1134.0).abs() < 1e-9);
        assert_eq!(spec.shared_mem_per_sm_bytes, 96 * 1024);
        assert_eq!(spec.l2_bytes, 6144 * 1024);
    }

    #[test]
    fn titan_xp_bandwidth_ratio_matches_paper() {
        // The paper attributes the V100S / Titan Xp performance gap (1.3×–1.8×)
        // to the 1134 / 547.7 bandwidth ratio (~2.07×).
        let v = DeviceSpec::v100s();
        let t = DeviceSpec::titan_xp();
        let ratio = v.mem_bandwidth_gbps / t.mem_bandwidth_gbps;
        assert!(ratio > 2.0 && ratio < 2.1);
    }

    #[test]
    fn concurrent_warps_positive() {
        for spec in DeviceSpec::catalog() {
            let concurrent = spec.total_cores() / spec.warp_size;
            assert!(concurrent >= 1, "{}", spec.name);
            assert!(spec.max_resident_warps() >= concurrent, "{}", spec.name);
        }
    }

    #[test]
    fn catalog_covers_every_preset_with_distinct_names() {
        let catalog = DeviceSpec::catalog();
        assert_eq!(catalog.len(), 5);
        let names: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["TitanXp", "V100S", "A100", "H100", "B200"]);
        // the catalog is ordered oldest→newest: bandwidth and memory are
        // monotone non-decreasing across generations
        for pair in catalog.windows(2) {
            assert!(pair[1].mem_bandwidth_gbps >= pair[0].mem_bandwidth_gbps);
            assert!(pair[1].global_mem_bytes >= pair[0].global_mem_bytes);
        }
        // every preset yields sane derived quantities
        for spec in &catalog {
            assert!(spec.effective_bandwidth_bytes_per_s() > 0.0);
            assert!(spec.rule4_const_analytic() > 0.0);
            assert!(spec.capacity_u32_elems(0.25) > 0);
        }
    }

    #[test]
    fn rule4_const_is_positive_and_small() {
        let spec = DeviceSpec::v100s();
        let c = spec.rule4_const_analytic();
        assert!(c > 0.0, "const must be positive");
        assert!(c < 4.0, "const should be a small number of bits, got {c}");
    }

    #[test]
    fn capacity_reserves_memory() {
        let spec = DeviceSpec::v100s();
        let full = spec.capacity_u32_elems(0.0);
        let half = spec.capacity_u32_elems(0.5);
        assert!(half < full);
        assert_eq!(full, (32u64 * (1 << 30) / 4) as usize);
    }
}
