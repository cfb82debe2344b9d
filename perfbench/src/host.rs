//! The host fingerprint stamped on every result, so numbers from different
//! machines, toolchains or sources are never compared silently.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: String,
    pub source_digest: String,
}

impl Fingerprint {
    pub fn capture() -> Fingerprint {
        let root = repo_root();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: git_commit(&root).unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(&root)),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the path and bytes of every library source file, so a
/// result names the code it measured even where there is no commit.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(bytes) = fs::read(file) {
            feed(
                file.strip_prefix(root)
                    .unwrap_or(file)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// Ticks of all CPUs, from the first line of `/proc/stat`: those the
/// hypervisor stole, and those of every kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// All zero where `/proc/stat` cannot be read.
    pub fn read() -> CpuTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal, then guest time,
        // which user and nice already hold.
        let ticks: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|t| t.parse().unwrap_or(0))
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// The share of all CPU ticks since `earlier` that were stolen, in %.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        crate::stats::ratio(
            self.steal.saturating_sub(earlier.steal) as f64 * 100.0,
            self.total.saturating_sub(earlier.total) as f64,
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
