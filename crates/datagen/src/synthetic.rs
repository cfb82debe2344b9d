//! Synthetic value distributions from Section 6 of the paper.
//!
//! * **UD** — uniform over `[0, 2^32 − 1]`.
//! * **ND** — normal with mean `10^8` and standard deviation `10`, rounded
//!   to `u32`. Because almost all values share their high-order bits, ND is
//!   the distribution where radix/bucket top-k carry most elements from one
//!   iteration to the next.
//! * **CD** — the paper's "customized distribution", constructed so that the
//!   bucket containing the k-th element keeps the majority of the elements
//!   at every iteration while every other bucket still receives at least one
//!   element: a very dense cluster at the top of the value range plus a thin
//!   uniform sprinkle across the rest of the range.

use crate::parallel_fill;
use crate::realworld::chunk_seed;
use crate::rng::Xoshiro256StarStar;

/// Mean of the ND distribution (`10^8`), as specified in the paper.
pub(crate) const NORMAL_MEAN: f64 = 1.0e8;
/// Standard deviation of the ND distribution.
pub(crate) const NORMAL_STD_DEV: f64 = 10.0;

/// Exponent of the CD distribution: values are
/// `u32::MAX − ⌊2^32 · u^CD_EXPONENT⌋ − jitter`. The exponent is chosen so
/// that, at every 256-way bucket refinement of the value range, the majority
/// (≈ `256^(−1/CD_EXPONENT)` ≈ 70%) of the remaining elements stay inside the
/// bucket that contains the k-th largest element, which is the paper's
/// definition of the customized distribution; an 8-bit jitter term breaks
/// exact ties at the finest scale so the distribution stays a proper
/// multiset rather than collapsing onto `u32::MAX`.
pub(crate) const CD_EXPONENT: i32 = 16;

/// Width of the tie-breaking jitter applied by the CD generator.
pub(crate) const CD_JITTER: u32 = 256;

/// Uniformly distributed `u32` values (the UD dataset).
pub fn uniform(n: usize, seed: u64) -> Vec<u32> {
    parallel_fill(n, seed, |rng, out| {
        for v in out.iter_mut() {
            *v = rng.next_u32();
        }
    })
}

/// Uniformly distributed `f32` values in `[0, 1)` — the float counterpart of
/// [`uniform`], for exercising the generic-key pipeline on native floats.
///
/// Built from 24 high mantissa bits directly (`m / 2^24` is exact in `f32`),
/// so the half-open bound is strict: a wider draw cast down to `f32` could
/// round up to exactly `1.0`.
pub fn uniform_f32(n: usize, seed: u64) -> Vec<f32> {
    parallel_fill(n, seed, |rng, out| {
        for v in out.iter_mut() {
            *v = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        }
    })
}

/// Normally distributed values, `N(10^8, 10)`, clamped to `u32` (the ND
/// dataset).
pub fn normal(n: usize, seed: u64) -> Vec<u32> {
    parallel_fill(n, seed, |rng, out| {
        let mut i = 0;
        while i < out.len() {
            let (a, b) = rng.next_normal_pair();
            out[i] = to_u32(NORMAL_MEAN + NORMAL_STD_DEV * a);
            i += 1;
            if i < out.len() {
                out[i] = to_u32(NORMAL_MEAN + NORMAL_STD_DEV * b);
                i += 1;
            }
        }
    })
}

/// The paper's customized distribution (CD): adversarial for bucket top-k.
///
/// Values are `u32::MAX − Y − jitter` with `Y = ⌊2^32 · u^CD_EXPONENT⌋`,
/// i.e. a power law concentrated just below `u32::MAX` *at every scale*:
/// whenever the current value range is split into 256 equal buckets, the
/// majority of the elements land in the top bucket (the one that will
/// contain the k-th largest element) while the long tail keeps every other
/// bucket non-empty — the construction the paper describes: "every bucket
/// other than the bucket containing the k-th element will always have at
/// least one element in every iteration and majority of the elements is
/// present in the bucket with the k-th element".
pub fn customized(n: usize, seed: u64) -> Vec<u32> {
    parallel_fill(n, seed, move |rng, out| {
        for v in out.iter_mut() {
            let u = rng.next_f64();
            let y = (u.powi(CD_EXPONENT) * u32::MAX as f64) as u64;
            let jitter = rng.next_bounded(CD_JITTER as u64);
            *v = u32::MAX - (y + jitter).min(u32::MAX as u64) as u32;
        }
    })
}

/// Default palette size of the [`low_entropy`] generator: small enough
/// that every radix digit of every pass is shared by thousands of
/// duplicates, large enough that a top-k query still has ordering work
/// to do.
pub const LOW_ENTROPY_DISTINCT: usize = 16;

/// A low-entropy adversarial dataset: `n` draws from a palette of only
/// `distinct_values` distinct values, packed contiguously just below
/// `u32::MAX`.
///
/// This is the worst case for multi-pass radix select, for two
/// compounding reasons:
///
/// * the palette values share all their high-order bits (they differ only
///   in the last `⌈log2 distinct_values⌉` bits), so every early
///   histogram pass puts *all* elements in one digit bucket and refines
///   nothing — the pipeline pays its full per-pass scan for zero
///   candidate shrinkage until the final byte; and
/// * each value is duplicated ≈ `n / distinct_values` times, so the
///   candidate set at the k-th boundary never shrinks below the duplicate
///   mass of the boundary value — the final selection must break a huge
///   tie instead of reading off a singleton.
///
/// Deterministic in `(n, distinct_values, seed)` and independent of
/// thread count, like every generator here.
///
/// # Panics
///
/// Panics when `distinct_values` is zero or exceeds `2^32` (the palette
/// must fit in the `u32` value space).
pub fn low_entropy(n: usize, distinct_values: usize, seed: u64) -> Vec<u32> {
    assert!(distinct_values >= 1, "need at least one distinct value");
    assert!(
        distinct_values as u128 <= 1u128 << 32,
        "distinct_values must fit in the u32 value space"
    );
    let d = distinct_values as u64;
    parallel_fill(n, seed, move |rng, out| {
        for v in out.iter_mut() {
            *v = u32::MAX - rng.next_bounded(d) as u32;
        }
    })
}

/// Default skew of the [`zipf`] generator (the classic web-traffic
/// exponent).
pub const ZIPF_EXPONENT: f64 = 1.1;

/// Zipf-distributed `u32` values: value `v ∈ 1..=max_value` is drawn with
/// probability `∝ 1/v^exponent` (continuous bounded-power-law inverse CDF,
/// floored to integers), so small values dominate while the large values
/// that a top-k query hunts are rare and scattered uniformly over the
/// vector — the value-skewed corpus shape used by the approximate-mode
/// recall evaluation (positions are i.i.d., so the bucket exchangeability
/// assumption of the recall model holds by construction).
///
/// Sampling is O(1) per draw with no per-support table — `max_value` may
/// be `u32::MAX` — unlike [`crate::workload::zipf_ks`], whose exact
/// discrete table is the right tool for small supports (k sweeps).
///
/// Like every generator here the output is a pure function of
/// `(n, max_value, exponent, seed)` and independent of thread count.
pub fn zipf(n: usize, max_value: u32, exponent: f64, seed: u64) -> Vec<u32> {
    assert!(max_value >= 1, "max_value must be at least 1");
    assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
    // Inverse CDF of the density ∝ v^-s on [1, B+1):
    //   s = 1:  v = (B+1)^u                  (log-uniform)
    //   s ≠ 1:  v = [1 + u((B+1)^(1-s) − 1)]^(1/(1-s))
    let top = max_value as f64 + 1.0;
    parallel_fill(n, seed, move |rng, out| {
        for slot in out.iter_mut() {
            let u = rng.next_f64();
            let v = if (exponent - 1.0).abs() < 1e-12 {
                top.powf(u)
            } else {
                let one_minus_s = 1.0 - exponent;
                (1.0 + u * (top.powf(one_minus_s) - 1.0)).powf(1.0 / one_minus_s)
            };
            *slot = (v as u32).clamp(1, max_value);
        }
    })
}

/// Largest number of boosted "hot" experts per row of
/// [`moe_gating_logits`] (each row draws 1..=this many, capped by the
/// expert count).
pub(crate) const MOE_MAX_HOT_EXPERTS: usize = 4;

/// Base logit boost applied to each hot expert of a row (before the
/// temperature scaling); each boost is jittered up to 2× so hot experts
/// are clearly separated from the Gaussian bulk without being ties.
pub(crate) const MOE_HOT_BOOST: f32 = 4.0;

/// A row-major `rows × experts` matrix of MoE router logits — the
/// softmax-input shape that row-wise top-k gating consumes
/// (`drtopk_core::topk_rows` over this matrix picks each token's experts).
///
/// Each row is i.i.d. standard-normal logits plus 1–4 boosted hot experts
/// (the dominant-expert structure routers actually produce), all divided
/// by `temperature`: a low temperature sharpens the winners, a high one
/// flattens the row toward uniform — the logits are exactly what a
/// `softmax(z / T)` gate would consume.
///
/// Deterministic in `(rows, experts, temperature, seed)` and independent
/// of thread count: the Gaussian bulk rides the chunked
/// [`parallel_fill`](crate) streams and the hot-expert pass derives one
/// RNG stream per row.
///
/// # Panics
///
/// Panics when `temperature` is not a finite positive number.
pub fn moe_gating_logits(rows: usize, experts: usize, temperature: f32, seed: u64) -> Vec<f32> {
    assert!(
        temperature.is_finite() && temperature > 0.0,
        "temperature must be a finite positive number"
    );
    let mut out: Vec<f32> = parallel_fill(rows * experts, seed, |rng, out| {
        let mut i = 0;
        while i < out.len() {
            let (a, b) = rng.next_normal_pair();
            out[i] = a as f32;
            i += 1;
            if i < out.len() {
                out[i] = b as f32;
                i += 1;
            }
        }
    });
    if experts > 0 {
        // A distinct stream namespace from the bulk fill (chunk indices
        // start at 0 there too), so row streams never alias chunk streams.
        const HOT_STREAM: u64 = 0x6d6f655f686f74; // "moe_hot"
        for r in 0..rows {
            let mut rng = Xoshiro256StarStar::seed_from_u64(chunk_seed(seed ^ HOT_STREAM, r));
            let hot = 1 + rng.next_bounded(MOE_MAX_HOT_EXPERTS.min(experts) as u64) as usize;
            let row = &mut out[r * experts..(r + 1) * experts];
            for _ in 0..hot {
                let e = rng.next_bounded(experts as u64) as usize;
                row[e] += MOE_HOT_BOOST * (1.0 + rng.next_f64() as f32);
            }
        }
    }
    let inv_t = 1.0 / temperature;
    for v in &mut out {
        *v *= inv_t;
    }
    out
}

fn to_u32(x: f64) -> u32 {
    if x <= 0.0 {
        0
    } else if x >= u32::MAX as f64 {
        u32::MAX
    } else {
        x as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_spread() {
        let a = uniform(1 << 16, 1);
        let b = uniform(1 << 16, 1);
        let c = uniform(1 << 16, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mean = a.iter().map(|&v| v as f64).sum::<f64>() / a.len() as f64;
        let expected = u32::MAX as f64 / 2.0;
        assert!((mean - expected).abs() / expected < 0.02);
    }

    #[test]
    fn normal_concentrates_around_mean() {
        let v = normal(1 << 16, 7);
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!((mean - NORMAL_MEAN).abs() < 1.0, "mean {mean}");
        let min = *v.iter().min().unwrap() as f64;
        let max = *v.iter().max().unwrap() as f64;
        // within ~6 sigma of the mean
        assert!(min > NORMAL_MEAN - 100.0);
        assert!(max < NORMAL_MEAN + 100.0);
    }

    #[test]
    fn customized_majority_stays_in_top_bucket_at_every_scale() {
        let n = 1 << 16;
        let v = customized(n, 11);
        // At refinement level j the bucket of interest is the top 256^-j
        // slice of the value range; ~(256^(-1/CD_EXPONENT))^j of all elements
        // should stay inside it.
        let retention = 256f64.powf(-1.0 / CD_EXPONENT as f64);
        for j in 1..=3u32 {
            let width = (1u64 << 32) / 256u64.pow(j);
            let lo = (u32::MAX as u64 + 1 - width) as u32;
            let inside = v.iter().filter(|&&x| x >= lo).count() as f64 / n as f64;
            let expected = retention.powi(j as i32);
            assert!(
                (inside - expected).abs() < 0.05,
                "level {j}: inside fraction {inside}, expected ~{expected}"
            );
            assert!(
                inside > 0.3,
                "majority-ish retention at level {j}: {inside}"
            );
        }
        // the tail keeps lower buckets populated
        assert!(v.iter().any(|&x| x < u32::MAX / 2));
        // the jitter keeps the top of the range from collapsing onto a
        // single duplicated value
        let max_dups = v.iter().filter(|&&x| x == u32::MAX).count() as f64 / n as f64;
        assert!(
            max_dups < 0.01,
            "too many exact duplicates of MAX: {max_dups}"
        );
    }

    #[test]
    fn zero_length_inputs_are_fine() {
        assert!(uniform(0, 3).is_empty());
        assert!(normal(0, 3).is_empty());
        assert!(customized(0, 3).is_empty());
        assert!(uniform_f32(0, 3).is_empty());
        assert!(low_entropy(0, 4, 3).is_empty());
    }

    #[test]
    fn low_entropy_is_deterministic_duplicated_and_bit_shared() {
        let n = 1 << 14;
        let d = LOW_ENTROPY_DISTINCT;
        let v = low_entropy(n, d, 5);
        assert_eq!(v, low_entropy(n, d, 5));
        assert_ne!(v, low_entropy(n, d, 6));
        // the palette is exactly the top `d` values of the u32 range
        let lo = u32::MAX - (d as u32 - 1);
        assert!(v.iter().all(|&x| x >= lo));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), d, "palette size");
        // heavy duplicates: every palette value carries ~n/d copies
        for &p in &sorted {
            let copies = v.iter().filter(|&&x| x == p).count();
            assert!(
                copies > n / (4 * d),
                "value {p} underrepresented: {copies} copies"
            );
        }
        // all high-order bits are shared — radix passes refine nothing
        // until the final byte
        assert!(v.iter().all(|&x| x >> 8 == u32::MAX >> 8));
    }

    #[test]
    fn low_entropy_degenerate_palettes() {
        // a single-value palette collapses onto u32::MAX
        assert!(low_entropy(1 << 10, 1, 9).iter().all(|&x| x == u32::MAX));
    }

    #[test]
    #[should_panic(expected = "at least one distinct value")]
    fn low_entropy_rejects_empty_palette() {
        low_entropy(16, 0, 1);
    }

    #[test]
    fn uniform_f32_is_deterministic_and_in_unit_interval() {
        let a = uniform_f32(1 << 14, 5);
        assert_eq!(a, uniform_f32(1 << 14, 5));
        assert_ne!(a, uniform_f32(1 << 14, 6));
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = a.iter().map(|&x| x as f64).sum::<f64>() / a.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let n = 1 << 16;
        let v = zipf(n, 1 << 16, ZIPF_EXPONENT, 5);
        assert_eq!(v, zipf(n, 1 << 16, ZIPF_EXPONENT, 5));
        assert_ne!(v, zipf(n, 1 << 16, ZIPF_EXPONENT, 6));
        assert!(v.iter().all(|&x| (1..=1 << 16).contains(&x)));
        // mass concentrates on small values, the top-k tail is rare
        let small = v.iter().filter(|&&x| x <= 32).count();
        let large = v.iter().filter(|&&x| x > (1 << 15)).count();
        assert!(small > 10 * large.max(1), "small {small} vs large {large}");
        // but the tail exists: a top-k query has real work to do
        assert!(large > 0);
        assert!(zipf(0, 100, 1.0, 1).is_empty());
    }

    #[test]
    fn moe_gating_logits_shape_determinism_and_temperature() {
        let rows = 64;
        let experts = 128;
        let a = moe_gating_logits(rows, experts, 1.0, 9);
        assert_eq!(a.len(), rows * experts);
        assert_eq!(a, moe_gating_logits(rows, experts, 1.0, 9));
        assert_ne!(a, moe_gating_logits(rows, experts, 1.0, 10));
        // temperature only rescales: T = 2 halves every logit
        let cool = moe_gating_logits(rows, experts, 2.0, 9);
        for (x, y) in a.iter().zip(&cool) {
            assert!((x * 0.5 - y).abs() < 1e-6);
        }
        // every row has a clear hot expert well above the N(0,1) bulk
        for r in 0..rows {
            let row = &a[r * experts..(r + 1) * experts];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(max >= MOE_HOT_BOOST, "row {r} max {max}");
        }
        // degenerate shapes are fine
        assert!(moe_gating_logits(0, experts, 1.0, 1).is_empty());
        assert!(moe_gating_logits(rows, 0, 1.0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "temperature must be")]
    fn moe_gating_logits_rejects_zero_temperature() {
        moe_gating_logits(4, 4, 0.0, 1);
    }

    #[test]
    fn odd_lengths_are_fine() {
        assert_eq!(normal(7, 3).len(), 7);
        assert_eq!(uniform(1, 3).len(), 1);
        assert_eq!(customized(13, 3).len(), 13);
    }
}
