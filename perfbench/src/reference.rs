//! A fixed reference computation, timed beside the calls, that reads how
//! fast the host runs at the moment.
//!
//! On a shared host the CPU time of the same work drifts by up to half
//! over minutes: other tenants share the cores, their caches, the memory
//! bandwidth and the clock. That is more than any bound a benchmark may
//! set. The reference does a fixed amount of work of the library's kind —
//! a streaming scan over as many bytes as the workload's inputs and a
//! sort, on as many freshly spawned threads as a simulated device uses, in
//! several rounds the way a device spawns its threads for every launch —
//! so its CPU time drifts with the host, as a workload with that much
//! data does, and not with the library. Multiplying a run's CPU times by
//! [`REFERENCE_MS`] over the reference's median CPU time in the same run
//! cancels most of the drift, and states the result in milliseconds of a
//! host on which the reference takes `REFERENCE_MS`.

use std::hint::black_box;

use crate::cpu::Stopwatch;
use crate::stats::{median, ratio};

/// CPU ms one reference sample takes on the host the scale is pinned to:
/// about its median on the 2-core host the benchmark was written on.
pub const REFERENCE_MS: f64 = 4.0;
/// Elements each thread scans, at least (1 MB) and at most (16 MB).
const SCAN_LEN: std::ops::RangeInclusive<usize> = (1 << 18)..=(1 << 22);
/// Elements each thread sorts.
const SORT_LEN: usize = 1 << 14;
/// Rounds of freshly spawned threads one sample takes.
const ROUNDS: usize = 4;

/// Per-thread input buffers, built once, and the samples taken so far.
pub struct Reference {
    buffers: Vec<Vec<u32>>,
    samples: Vec<f64>,
}

impl Reference {
    /// A reference whose threads together scan about `resident_bytes`.
    pub fn new(resident_bytes: usize) -> Reference {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let scan_len = (resident_bytes / 4 / threads).clamp(*SCAN_LEN.start(), *SCAN_LEN.end());
        let buffers = (0..threads)
            .map(|t| {
                let mut x = 0x9E37_79B9_u32 ^ (t as u32 + 1);
                (0..scan_len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        x
                    })
                    .collect()
            })
            .collect();
        Reference {
            buffers,
            samples: Vec::new(),
        }
    }

    /// Run the reference once and record its CPU time.
    pub fn sample(&mut self) {
        let watch = Stopwatch::start();
        for round in 0..ROUNDS {
            std::thread::scope(|s| {
                for buffer in &self.buffers {
                    let part = buffer.len() / ROUNDS;
                    let chunk = &buffer[round * part..(round + 1) * part];
                    s.spawn(move || black_box(work(black_box(chunk))));
                }
            });
        }
        self.samples.push(watch.stop().1);
    }

    /// Samples taken so far.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Median CPU ms of the samples.
    pub fn median_ms(&self) -> f64 {
        median(self.samples.clone())
    }

    /// The factor that states this run's CPU times on the pinned host.
    pub fn scale(&self) -> f64 {
        ratio(REFERENCE_MS, self.median_ms())
    }
}

/// One thread's share of a round: scan `data`, then sort a slice of it.
fn work(data: &[u32]) -> u64 {
    let (sum, max) = data.iter().fold((0u64, 0u32), |(sum, max), &v| {
        (sum.wrapping_add(u64::from(v)), max.max(v))
    });
    let mut sorted = data[..SORT_LEN / ROUNDS].to_vec();
    sorted.sort_unstable();
    sum ^ u64::from(max) ^ u64::from(sorted[sorted.len() / 2])
}
