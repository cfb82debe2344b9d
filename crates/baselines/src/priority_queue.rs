//! Priority-queue (min-heap) top-k — the textbook CPU algorithm.
//!
//! The paper's introduction describes this as the most efficient approach on
//! single- and multi-core systems, but one that does not map to GPUs because
//! merging thousands of thread-local queues requires expensive global
//! synchronization. It is included here both as a CPU reference point and to
//! let the examples/benches show the CPU-vs-GPU crossover.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::key::TopKKey;
use crate::result::TopKResult;
use gpu_sim::KernelStats;

/// Single-threaded min-heap top-k over `data`.
///
/// A size-`k` min-heap slides over the input; each element larger than the
/// heap minimum replaces it. The heap orders elements by their
/// [`TopKKey::to_bits`] image, which gives floats the documented
/// `total_cmp` order. `stats` stays empty (no simulated device is
/// involved); `time_ms` is the measured host wall-clock time.
pub fn priority_queue_topk<K: TopKKey>(data: &[K], k: usize) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let started = Instant::now();
    let mut heap: BinaryHeap<Reverse<K::Bits>> = BinaryHeap::with_capacity(k + 1);
    for &x in data.iter().take(k) {
        heap.push(Reverse(x.to_bits()));
    }
    for &x in data.iter().skip(k) {
        // peek is O(1); only elements beating the current minimum pay the
        // O(log k) heap update.
        if x.to_bits() > heap.peek().expect("heap is non-empty").0 {
            heap.pop();
            heap.push(Reverse(x.to_bits()));
        }
    }
    let values: Vec<K> = heap.into_iter().map(|Reverse(v)| K::from_bits(v)).collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    TopKResult::from_values(values, KernelStats::default(), wall_ms)
}

/// Multi-threaded min-heap top-k: each worker keeps a local heap over its
/// chunk, and the local results are merged at the end — the structure whose
/// GPU-scale synchronization cost the paper calls out.
pub fn parallel_priority_queue_topk<K: TopKKey>(
    data: &[K],
    k: usize,
    workers: usize,
) -> TopKResult<K> {
    let k = k.min(data.len());
    if k == 0 {
        return TopKResult::from_values(Vec::new(), KernelStats::default(), 0.0);
    }
    let workers = workers.max(1).min(data.len());
    let started = Instant::now();
    let mut partials: Vec<Vec<K>> = Vec::with_capacity(workers);
    scoped_partial_topk(data, k, workers, &mut partials);
    let mut merged: Vec<K> = partials.into_iter().flatten().collect();
    merged.sort_unstable_by_key(|v| Reverse(v.to_bits()));
    merged.truncate(k);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    TopKResult::from_values(merged, KernelStats::default(), wall_ms)
}

#[allow(clippy::disallowed_methods)] // the paper's multi-threaded CPU comparison
fn scoped_partial_topk<K: TopKKey>(
    data: &[K],
    k: usize,
    workers: usize,
    partials: &mut Vec<Vec<K>>,
) {
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let range = gpu_sim::chunk_range(data.len(), workers, w);
            let chunk = &data[range];
            handles.push(scope.spawn(move || priority_queue_topk(chunk, k).values));
        }
        for h in handles {
            partials.push(h.join().expect("priority-queue worker panicked"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::reference_topk;

    #[test]
    fn sequential_matches_reference() {
        let data = topk_datagen::uniform(1 << 14, 42);
        for &k in &[1usize, 7, 255, 5000] {
            assert_eq!(
                priority_queue_topk(&data, k).values,
                reference_topk(&data, k)
            );
        }
        assert!(priority_queue_topk(&data, 0).is_empty());
        assert_eq!(
            priority_queue_topk(&[3, 1], 10).values,
            vec![3, 1],
            "k larger than |V| clamps"
        );
    }

    #[test]
    fn parallel_matches_reference() {
        let data = topk_datagen::customized(1 << 14, 5);
        for &workers in &[1usize, 2, 7, 16] {
            for &k in &[1usize, 64, 1000] {
                assert_eq!(
                    parallel_priority_queue_topk(&data, k, workers).values,
                    reference_topk(&data, k),
                    "workers={workers} k={k}"
                );
            }
        }
    }

    #[test]
    fn handles_duplicates() {
        let data = vec![9u32; 100];
        assert_eq!(priority_queue_topk(&data, 3).values, vec![9, 9, 9]);
        assert_eq!(
            parallel_priority_queue_topk(&data, 3, 4).values,
            vec![9, 9, 9]
        );
    }

    #[test]
    fn records_wall_clock_time() {
        let data = topk_datagen::uniform(1 << 16, 3);
        let r = priority_queue_topk(&data, 128);
        assert!(r.time_ms >= 0.0);
        assert!(r.stats.is_empty());
    }
}
