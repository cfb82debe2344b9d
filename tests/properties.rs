//! Property-based tests (proptest) of the paper's rules and of the core data
//! structures' invariants.

use drtopk::core::{
    build_delegate_vector, coarsen_delegate_vector, dr_topk, first_topk, flag_radix_select_kth,
    flag_radix_topk, rule4_alpha, ConstructionMethod, DrTopKConfig,
};
use drtopk::prelude::*;
use proptest::prelude::*;
use topk_baselines::{reference_kth, reference_topk};

fn device() -> Device {
    Device::new(DeviceSpec::v100s())
}

/// Both construction kernels, in both directions, give every subrange's β
/// best keys in the direction's order (descending for the largest,
/// ascending for the smallest), compared through their bit images against
/// a per-subrange sort.
fn assert_delegates_exact<K: TopKKey>(
    device: &Device,
    data: &[K],
    alpha: u32,
    beta: usize,
) -> Result<(), String> {
    for direction in [Direction::Largest, Direction::Smallest] {
        let mut expected = Vec::new();
        let mut expected_ids = Vec::new();
        for (s, subrange) in data.chunks(1 << alpha).enumerate() {
            let mut bits = bits_of(subrange);
            bits.sort_unstable();
            if direction == Direction::Largest {
                bits.reverse();
            }
            bits.truncate(beta);
            expected_ids.extend(std::iter::repeat_n(s as u32, bits.len()));
            expected.extend(bits);
        }
        for method in [
            ConstructionMethod::WarpShuffle,
            ConstructionMethod::CoalescedShared,
        ] {
            let dv = build_delegate_vector(device, data, alpha, beta, method, direction);
            if bits_of(&dv.values) != expected {
                return Err(format!("{direction:?} {method:?}: values differ"));
            }
            if dv.subrange_ids != expected_ids {
                return Err(format!("{direction:?} {method:?}: subrange ids differ"));
            }
        }
    }
    Ok(())
}

/// Longest input [`ragged_len`] returns for α ≤ 12.
const MAX_RAGGED: usize = 4 << 12;

/// `full` full subranges of `2^alpha` elements plus a short final one of
/// `1 + ⌊tail · (2^alpha − 1)⌋` elements (`tail` in `[0, 1)`).
fn ragged_len(alpha: u32, full: usize, tail: f64) -> usize {
    let size = 1usize << alpha;
    full * size + 1 + (tail * (size - 1) as f64) as usize
}

/// Coarsening a vector built at `(fine_alpha, fine_beta)` to `(alpha,
/// beta)` gives, in both directions, exactly the vector a fresh build at
/// `(alpha, beta)` gives: the same value bits, subrange ids and shape.
fn assert_coarsening_exact<K: TopKKey>(
    device: &Device,
    data: &[K],
    (fine_alpha, fine_beta): (u32, usize),
    (alpha, beta): (u32, usize),
) -> Result<(), String> {
    let shape = |dv: &drtopk::core::DelegateVector<K>| {
        (dv.beta, dv.subrange_size, dv.num_subranges, dv.direction)
    };
    for direction in [Direction::Largest, Direction::Smallest] {
        let build = |alpha, beta| {
            build_delegate_vector(
                device,
                data,
                alpha,
                beta,
                ConstructionMethod::Auto,
                direction,
            )
        };
        let finer = build(fine_alpha, fine_beta);
        let got = coarsen_delegate_vector(device, &finer, data.len(), alpha, beta);
        let want = build(alpha, beta);
        if bits_of(&got.values) != bits_of(&want.values) {
            return Err(format!("{direction:?}: values differ"));
        }
        if got.subrange_ids != want.subrange_ids || shape(&got) != shape(&want) {
            return Err(format!("{direction:?}: subrange ids or shape differ"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dr. Top-k returns exactly the reference top-k for arbitrary vectors,
    /// k, α, β and filtering choices (Rules 1–3 never lose an element).
    #[test]
    fn drtopk_equals_reference(
        data in proptest::collection::vec(any::<u32>(), 1..4000),
        k_frac in 0.0f64..1.0,
        alpha in 2u32..8,
        beta in 1usize..4,
        filtering in any::<bool>(),
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let device = device();
        let config = DrTopKConfig {
            alpha: Some(alpha),
            beta,
            filtering,
            ..DrTopKConfig::default()
        };
        let got = dr_topk(&device, &data, k, &config);
        prop_assert_eq!(got.values, reference_topk(&data, k));
    }

    /// The flag-based radix selection finds exactly the k-th largest value.
    #[test]
    fn flag_radix_select_equals_reference(
        data in proptest::collection::vec(any::<u32>(), 1..3000),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let device = device();
        let got = flag_radix_select_kth(&device, &data, k, false);
        prop_assert_eq!(got.threshold, reference_kth(&data, k));
        let topk = flag_radix_topk(&device, &data, k);
        prop_assert_eq!(topk.values, reference_topk(&data, k));
    }

    /// Rule 2: the k-th delegate never exceeds the k-th element of V, so
    /// filtering by it can never discard a true top-k element.
    #[test]
    fn rule2_threshold_is_a_lower_bound(
        data in proptest::collection::vec(any::<u32>(), 64..3000),
        alpha in 2u32..7,
        beta in 1usize..3,
        k in 1usize..64,
    ) {
        let device = device();
        let k = k.min(data.len());
        let delegates = build_delegate_vector(
            &device, &data, alpha, beta, ConstructionMethod::Auto, Direction::Largest,
        );
        // Rule 2 presupposes that the k-th delegate exists (k <= |D|); the
        // pipeline falls back to a plain top-k otherwise.
        prop_assume!(k <= delegates.len());
        let first = first_topk(&device, &delegates, k, false);
        let true_kth = reference_kth(&data, k);
        prop_assert!(first.threshold <= true_kth,
            "delegate threshold {} must not exceed the true k-th {}", first.threshold, true_kth);
    }

    /// Delegate construction is exact: the β delegates of every subrange are
    /// its β best elements in either direction, bit for bit, and both
    /// construction kernels agree. Subranges reach 2^12 elements and β
    /// reaches 6, so every per-lane limit (2^8 to 2^10 elements with β ≤ 4,
    /// by β and key width) is drawn from both sides, and every input holds
    /// two or three full subranges plus a short final one ([`ragged_len`]).
    /// Float inputs carry NaN payloads of both signs, ±0 and subnormals.
    /// Every draw also runs sorted both ways and folded onto at most 8
    /// distinct values (see [`orderings`]).
    #[test]
    fn delegate_construction_is_exact(
        data in proptest::collection::vec(any::<u32>(), MAX_RAGGED),
        floats in proptest::collection::vec(f32_with_specials(), MAX_RAGGED),
        wide in proptest::collection::vec(any::<i64>(), MAX_RAGGED),
        alpha in 1u32..13,
        beta in 1usize..7,
        full in 2usize..4,
        tail in 0.0f64..1.0,
    ) {
        let device = device();
        let len = ragged_len(alpha, full, tail);
        let (data, floats, wide) =
            (orderings(&data[..len]), orderings(&floats[..len]), orderings(&wide[..len]));
        for (i, order) in ORDERINGS.iter().enumerate() {
            let table = [
                ("u32", assert_delegates_exact(&device, &data[i], alpha, beta)),
                ("f32", assert_delegates_exact(&device, &floats[i], alpha, beta)),
                ("i64", assert_delegates_exact(&device, &wide[i], alpha, beta)),
            ];
            for (key, outcome) in table {
                if let Err(msg) = outcome {
                    prop_assert!(
                        false,
                        "{} {} len={} alpha={} beta={}: {}",
                        key,
                        order,
                        len,
                        alpha,
                        beta,
                        msg
                    );
                }
            }
        }
    }

    /// Delegates of delegates (Rule 1 one level up): a vector at α′ ≤ α
    /// with β′ ≥ β coarsens to exactly the vector a fresh build at (α, β)
    /// gives, bit for bit, in both directions, over u32, f32 with NaN
    /// payloads and ±0, and i64, in all four [`orderings`]. Subranges reach
    /// 2^12 elements and every input holds two or three full coarse
    /// subranges plus a short final one ([`ragged_len`]), so both the fresh
    /// build and the coarsening's blocks fall on both sides of every
    /// per-lane limit.
    /// Every draw also coarsens from α′ = 1 with β′ = β + 2, where the fine
    /// subranges hold fewer elements than β′.
    #[test]
    fn coarsening_equals_a_fresh_build(
        data in proptest::collection::vec(any::<u32>(), MAX_RAGGED),
        floats in proptest::collection::vec(f32_with_specials(), MAX_RAGGED),
        wide in proptest::collection::vec(any::<i64>(), MAX_RAGGED),
        alpha in 1u32..13,
        alpha_step in 0u32..4,
        beta in 1usize..6,
        beta_step in 0usize..4,
        full in 2usize..4,
        tail in 0.0f64..1.0,
    ) {
        let device = device();
        let fine_alpha = alpha.saturating_sub(alpha_step).max(1);
        let len = ragged_len(alpha, full, tail);
        let (data, floats, wide) =
            (orderings(&data[..len]), orderings(&floats[..len]), orderings(&wide[..len]));
        for fine in [(fine_alpha, beta + beta_step), (1, beta + 2)] {
            for (i, order) in ORDERINGS.iter().enumerate() {
                let table = [
                    ("u32", assert_coarsening_exact(&device, &data[i], fine, (alpha, beta))),
                    ("f32", assert_coarsening_exact(&device, &floats[i], fine, (alpha, beta))),
                    ("i64", assert_coarsening_exact(&device, &wide[i], fine, (alpha, beta))),
                ];
                for (key, outcome) in table {
                    if let Err(msg) = outcome {
                        prop_assert!(
                            false,
                            "{} {} len={} {:?} -> ({}, {}): {}",
                            key,
                            order,
                            len,
                            fine,
                            alpha,
                            beta,
                            msg
                        );
                    }
                }
            }
        }
    }

    /// Rule 4 behaves monotonically: α never increases when k grows and
    /// never decreases when |V| grows.
    #[test]
    fn rule4_monotonicity(
        n_exp in 10u32..31,
        k_exp in 0u32..24,
        const_term in 0.0f64..4.0,
    ) {
        prop_assume!(k_exp < n_exp);
        let n = 1usize << n_exp;
        let k = 1usize << k_exp;
        let a = rule4_alpha(n, k, const_term);
        prop_assert!(rule4_alpha(n * 2, k, const_term) >= a);
        if k >= 2 {
            prop_assert!(rule4_alpha(n, k / 2, const_term) >= a);
        }
    }

    /// The baselines agree with each other on arbitrary data (differential
    /// testing of radix vs bucket vs bitonic).
    #[test]
    fn baselines_agree(
        data in proptest::collection::vec(any::<u32>(), 1..2500),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let device = device();
        let expected = reference_topk(&data, k);
        let radix = radix_topk(&device, &data, k, topk_baselines::RadixVariant::OutOfPlace);
        let bucket = bucket_topk(&device, &data, k, &topk_baselines::BucketConfig::default());
        let bitonic = bitonic_topk(&device, &data, k, &topk_baselines::BitonicConfig::default());
        prop_assert_eq!(radix.values, expected.clone());
        prop_assert_eq!(bucket.values, expected.clone());
        prop_assert_eq!(bitonic.values, expected);
    }
}

// ---------------------------------------------------------------------------
// Generic-key properties: every TopKKey impl must drive dr_topk, every
// baseline and the flag-based select to the same answer as the CPU
// reference, including float specials (NaN / ±0 / ±∞), i64 negatives and
// u64 values with high bits set.
// ---------------------------------------------------------------------------

use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use topk_baselines::{
    bitonic_topk as generic_bitonic, bucket_topk as generic_bucket, priority_queue_topk,
    radix_topk as generic_radix, reference_topk_min, sort_and_choose_topk, BitonicConfig,
    BucketConfig, RadixVariant, TopKKey,
};

/// Names of the [`orderings`], in order.
const ORDERINGS: [&str; 4] = ["as drawn", "ascending", "descending", "<= 8 distinct"];

/// One draw in the orders construction must survive: as drawn; ascending,
/// where every 32-element chunk beats the floor (chunk-skip's worst case);
/// descending; and folded onto at most 8 of its own values, so chunk
/// maxima tie.
fn orderings<K: TopKKey>(draw: &[K]) -> [Vec<K>; 4] {
    let mut ascending = draw.to_vec();
    ascending.sort_unstable_by_key(|v| v.to_bits());
    let descending = ascending.iter().rev().copied().collect();
    let palette = &draw[..draw.len().min(8)];
    let few = draw
        .iter()
        .map(|v| palette[(v.to_bits().to_u128() % palette.len() as u128) as usize])
        .collect();
    [draw.to_vec(), ascending, descending, few]
}

/// Compare key vectors through their order-preserving bit images, so NaN
/// (which is `!=` itself as a float) still compares as a concrete multiset
/// element.
fn bits_of<K: TopKKey>(v: &[K]) -> Vec<K::Bits> {
    v.iter().map(|x| TopKKey::to_bits(*x)).collect()
}

/// f32 values with a heavy dose of the IEEE specials: NaN (both signs,
/// varied payloads), ±∞, ±0 and subnormals, on top of ordinary finite
/// values.
fn f32_with_specials() -> impl proptest::strategy::Strategy<Value = f32> {
    FnStrategy(|rng: &mut TestRng| match rng.next_below(12) {
        0 => f32::NAN,
        1 => -f32::NAN,
        2 => f32::from_bits(0x7FC0_0000 | (rng.next_u64() as u32 & 0x3F_FFFF)),
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => 0.0,
        6 => -0.0,
        7 => f32::from_bits(rng.next_u64() as u32 & 0x007F_FFFF), // subnormal
        8 => f32::from_bits(0xFFC0_0000 | (rng.next_u64() as u32 & 0x3F_FFFF)),
        _ => (rng.next_unit_f64() as f32 - 0.5) * 2.0e6,
    })
}

/// Check one key type end to end: dr_topk, all four baselines, the CPU
/// priority queue and the flag-radix top-k against the reference.
fn assert_all_agree<K: TopKKey>(device: &Device, data: &[K], k: usize) -> Result<(), String> {
    let expected = bits_of(&reference_topk(data, k));
    let mut got: Vec<(&str, Vec<K::Bits>)> = vec![
        (
            "dr_topk",
            bits_of(&dr_topk(device, data, k, &DrTopKConfig::default()).values),
        ),
        (
            "flag_radix",
            bits_of(&flag_radix_topk(device, data, k).values),
        ),
        (
            "radix",
            bits_of(&generic_radix(device, data, k, RadixVariant::OutOfPlace).values),
        ),
        (
            "radix_in_place",
            bits_of(&generic_radix(device, data, k, RadixVariant::InPlaceZeroing).values),
        ),
        (
            "bucket",
            bits_of(&generic_bucket(device, data, k, &BucketConfig::default()).values),
        ),
        (
            "bitonic",
            bits_of(&generic_bitonic(device, data, k, &BitonicConfig::default()).values),
        ),
        (
            "sort_and_choose",
            bits_of(&sort_and_choose_topk(device, data, k).values),
        ),
        (
            "priority_queue",
            bits_of(&priority_queue_topk(data, k).values),
        ),
    ];
    for (name, bits) in got.drain(..) {
        if bits != expected {
            return Err(format!("{name} disagrees with the reference for k={k}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// f32 keys (with NaN / ±0 / ±∞ / subnormals): every algorithm agrees
    /// with the total_cmp-ordered reference.
    #[test]
    fn f32_keys_agree_everywhere(
        data in proptest::collection::vec(f32_with_specials(), 1..1500),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let device = device();
        if let Err(msg) = assert_all_agree(&device, &data, k) {
            prop_assert!(false, "{}", msg);
        }
        // min-queries rank positive NaNs last
        let smallest = DrTopKConfig {
            direction: Direction::Smallest,
            ..DrTopKConfig::default()
        };
        let min = dr_topk(&device, &data, k, &smallest);
        prop_assert_eq!(bits_of(&min.values), bits_of(&reference_topk_min(&data, k)));
    }

    /// i64 keys: negatives sort below positives through the sign-flip
    /// transform.
    #[test]
    fn i64_keys_agree_everywhere(
        data in proptest::collection::vec(any::<i64>(), 1..1500),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let device = device();
        if let Err(msg) = assert_all_agree(&device, &data, k) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert!(
            reference_topk_min(&data, 1)[0] <= reference_topk(&data, 1)[0]
        );
    }

    /// u64 keys: the full 64-bit radix space (8 selection passes) works,
    /// including values with high bits set.
    #[test]
    fn u64_keys_agree_everywhere(
        data in proptest::collection::vec(any::<u64>(), 1..1500),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let device = device();
        if let Err(msg) = assert_all_agree(&device, &data, k) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// The f32 ↔ bits bijection round-trips bit-exactly and preserves the
    /// total_cmp order on arbitrary values (including NaN payloads).
    #[test]
    fn f32_bijection_is_order_preserving(
        a in f32_with_specials(),
        b in f32_with_specials(),
    ) {
        let (ab, bb) = (TopKKey::to_bits(a), TopKKey::to_bits(b));
        prop_assert_eq!(<f32 as TopKKey>::from_bits(ab).to_bits(), a.to_bits());
        prop_assert_eq!(ab.cmp(&bb), a.total_cmp(&b));
    }
}

// ---------------------------------------------------------------------------
// Radix-path properties: the forced multi-pass radix pipeline
// (`PathHint::Radix`) must be bit-identical to the forced delegate pipeline
// and the CPU reference for every key type, in both directions, including
// float specials and degenerate k (0, |V|, > |V|). `Auto` must reproduce
// whichever forced path the sampled crossover resolves, exactly.
// ---------------------------------------------------------------------------

use drtopk::core::{
    choose_path_sampled, distributed_dr_topk, dr_topk_planned, topk_rows_on, ChosenPath, PathHint,
    PlannedQuery, ReloadSchedule, Shared,
};
use drtopk::sim::GpuCluster;

/// f64 twin of [`f32_with_specials`]: NaN payloads of both signs, ±∞, ±0,
/// subnormals.
fn f64_with_specials() -> impl proptest::strategy::Strategy<Value = f64> {
    FnStrategy(|rng: &mut TestRng| match rng.next_below(12) {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::from_bits(0x7FF8_0000_0000_0000 | (rng.next_u64() & 0x7_FFFF_FFFF_FFFF)),
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => 0.0,
        6 => -0.0,
        7 => f64::from_bits(rng.next_u64() & 0x000F_FFFF_FFFF_FFFF), // subnormal
        8 => f64::from_bits(0xFFF8_0000_0000_0000 | (rng.next_u64() & 0x7_FFFF_FFFF_FFFF)),
        _ => (rng.next_unit_f64() - 0.5) * 2.0e12,
    })
}

/// Forced radix ≡ forced delegate ≡ reference, in both directions, and
/// `Auto` ≡ its resolved twin — all compared through order-preserving bit
/// images so NaN floats stay comparable.
fn assert_radix_path_agrees<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
) -> Result<(), String> {
    let force = |path: PathHint| DrTopKConfig {
        path,
        ..DrTopKConfig::default()
    };
    let expected = bits_of(&reference_topk(data, k));
    let del = bits_of(&dr_topk(device, data, k, &force(PathHint::Delegate)).values);
    let rad = bits_of(&dr_topk(device, data, k, &force(PathHint::Radix)).values);
    let auto = bits_of(&dr_topk(device, data, k, &force(PathHint::Auto)).values);
    if del != expected {
        return Err(format!("delegate-forced disagrees with reference at k={k}"));
    }
    if rad != expected {
        return Err(format!("radix-forced disagrees with reference at k={k}"));
    }
    // Auto is one of the two forced paths — which one is the model's call,
    // but bit-identity to the reference is unconditional.
    if auto != expected {
        return Err(format!("Auto disagrees with reference at k={k}"));
    }
    // Smallest direction: the reversed key order must flow through the
    // radix stages unchanged (NaNs rank last on min-queries).
    let expected_min = bits_of(&reference_topk_min(data, k));
    let smallest = DrTopKConfig {
        direction: Direction::Smallest,
        ..force(PathHint::Radix)
    };
    let rad_min = bits_of(&dr_topk(device, data, k, &smallest).values);
    if rad_min != expected_min {
        return Err(format!("radix-forced min-query disagrees at k={k}"));
    }
    Ok(())
}

/// Every runner answers a `direction: Smallest` request with exactly
/// `reference_topk_min`, bit for bit (values and the k-th value): `dr_topk`,
/// `dr_topk_planned` against a shared smallest-direction delegate vector,
/// `distributed_dr_topk` out of core under both reload schedules, and
/// `topk_rows_on` over the data reshaped into rows.
fn assert_smallest_on_every_runner<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
) -> Result<(), String> {
    let smallest = DrTopKConfig {
        direction: Direction::Smallest,
        ..DrTopKConfig::default()
    };
    let expected = bits_of(&reference_topk_min(data, k));
    let check = |runner: &str, values: &[K], kth: K| -> Result<(), String> {
        if bits_of(values) != expected {
            return Err(format!(
                "{runner} disagrees with reference_topk_min at k={k}"
            ));
        }
        if expected.last().is_some_and(|&e| e != kth.to_bits()) {
            return Err(format!("{runner} reports the wrong k-th value at k={k}"));
        }
        Ok(())
    };

    let got = dr_topk(device, data, k, &smallest);
    check("dr_topk", &got.values, got.kth_value)?;

    // A small pinned α keeps the delegate machinery (and so the shared
    // vector) in play on short inputs.
    let planned = PlannedQuery::plan(
        data.len(),
        k,
        &DrTopKConfig {
            alpha: Some(3),
            ..smallest.clone()
        },
    );
    let shared = build_delegate_vector(
        device,
        data,
        planned.alpha,
        planned.config.beta,
        planned.config.construction,
        Direction::Smallest,
    );
    let got = dr_topk_planned(device, data, Some(Shared::Delegates(&shared)), &planned);
    check("dr_topk_planned (shared)", &got.values, got.kth_value)?;

    let cluster = GpuCluster::homogeneous(2, DeviceSpec::v100s());
    for d in cluster.devices() {
        // several chunks per device
        d.set_capacity_elems((data.len() / 3).max(2));
    }
    for schedule in [ReloadSchedule::Serial, ReloadSchedule::DoubleBuffered] {
        let got = distributed_dr_topk(&cluster, data, k, &smallest, schedule, None);
        check(
            &format!("distributed_dr_topk ({schedule})"),
            &got.values,
            got.kth_value,
        )?;
    }

    let rows = if data.len() >= 4 { 4 } else { 1 };
    let cols = data.len() / rows;
    let matrix = RowMatrix::new(&data[..rows * cols], rows, cols);
    let got = topk_rows_on(&[device], matrix, &RowK::Uniform(k), &smallest, None);
    for (r, row) in got.rows.iter().enumerate() {
        let want = bits_of(&reference_topk_min(matrix.row(r), k));
        if bits_of(&row.values) != want {
            return Err(format!("topk_rows_on row {r} disagrees at k={k}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The smallest direction on every runner, over one input table of all
    /// six key types: integers of both widths and signs, and floats with
    /// NaN payloads of both signs, ±0, ±∞ and subnormals.
    #[test]
    fn smallest_direction_agrees_on_every_runner_for_six_key_types(
        ints in proptest::collection::vec(any::<u64>(), 1..800),
        data32 in proptest::collection::vec(f32_with_specials(), 1..800),
        data64 in proptest::collection::vec(f64_with_specials(), 1..800),
        k_frac in 0.0f64..1.0,
    ) {
        let device = device();
        let k_of = |n: usize| ((n as f64 * k_frac) as usize).clamp(1, n);
        let u32s: Vec<u32> = ints.iter().map(|&x| x as u32).collect();
        let i32s: Vec<i32> = ints.iter().map(|&x| x as i32).collect();
        let i64s: Vec<i64> = ints.iter().map(|&x| x as i64).collect();
        let k = k_of(ints.len());
        let table = [
            ("u32", assert_smallest_on_every_runner(&device, &u32s, k)),
            ("i32", assert_smallest_on_every_runner(&device, &i32s, k)),
            ("u64", assert_smallest_on_every_runner(&device, &ints, k)),
            ("i64", assert_smallest_on_every_runner(&device, &i64s, k)),
            ("f32", assert_smallest_on_every_runner(&device, &data32, k_of(data32.len()))),
            ("f64", assert_smallest_on_every_runner(&device, &data64, k_of(data64.len()))),
        ];
        for (key, outcome) in table {
            if let Err(msg) = outcome {
                prop_assert!(false, "{}: {}", key, msg);
            }
        }
    }
}

/// Degenerate-k grid shared by every key type: 0, 1, mid, |V|, > |V|.
fn degenerate_ks(n: usize) -> [usize; 5] {
    [0, 1.min(n), n / 2, n, n + 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// u32 / i32 keys through the radix path, arbitrary data and k
    /// (including the degenerate grid).
    #[test]
    fn radix_path_agrees_u32_i32(
        data in proptest::collection::vec(any::<u32>(), 1..2000),
        k_frac in 0.0f64..1.0,
    ) {
        let device = device();
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        if let Err(msg) = assert_radix_path_agrees(&device, &data, k) {
            prop_assert!(false, "{}", msg);
        }
        let signed: Vec<i32> = data.iter().map(|&x| x as i32).collect();
        for dk in degenerate_ks(signed.len()) {
            if let Err(msg) = assert_radix_path_agrees(&device, &signed, dk) {
                prop_assert!(false, "i32: {}", msg);
            }
        }
    }

    /// u64 / i64 keys: the wide-key radix chain (8 passes) stays
    /// bit-identical, negatives included.
    #[test]
    fn radix_path_agrees_u64_i64(
        data in proptest::collection::vec(any::<u64>(), 1..2000),
        k_frac in 0.0f64..1.0,
    ) {
        let device = device();
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        if let Err(msg) = assert_radix_path_agrees(&device, &data, k) {
            prop_assert!(false, "{}", msg);
        }
        let signed: Vec<i64> = data.iter().map(|&x| x as i64).collect();
        for dk in degenerate_ks(signed.len()) {
            if let Err(msg) = assert_radix_path_agrees(&device, &signed, dk) {
                prop_assert!(false, "i64: {}", msg);
            }
        }
    }

    /// f32 / f64 keys with IEEE specials: NaN payloads survive the radix
    /// digit chain and the candidate gather bit-exactly.
    #[test]
    fn radix_path_agrees_floats_with_specials(
        data32 in proptest::collection::vec(f32_with_specials(), 1..1500),
        data64 in proptest::collection::vec(f64_with_specials(), 1..1500),
        k_frac in 0.0f64..1.0,
    ) {
        let device = device();
        let k32 = ((data32.len() as f64 * k_frac) as usize).clamp(1, data32.len());
        if let Err(msg) = assert_radix_path_agrees(&device, &data32, k32) {
            prop_assert!(false, "f32: {}", msg);
        }
        let k64 = ((data64.len() as f64 * k_frac) as usize).clamp(1, data64.len());
        if let Err(msg) = assert_radix_path_agrees(&device, &data64, k64) {
            prop_assert!(false, "f64: {}", msg);
        }
    }
}

/// The Auto crossover pin, consistent with the modeled microsecond
/// crossover: on large uniform inputs small k resolves to delegates and
/// very large k to radix, duplicate-heavy inputs stay on delegates at any
/// k, and `Auto`'s pipeline output is bit-identical either way.
#[test]
fn auto_crossover_pins_match_the_model() {
    let device = device();
    let spec = device.spec();
    let n = 1usize << 20;
    let uniform = topk_datagen::uniform(n, 7);
    let low = topk_datagen::low_entropy(n, topk_datagen::LOW_ENTROPY_DISTINCT, 7);
    assert_eq!(
        choose_path_sampled(&uniform, 64, spec),
        ChosenPath::Delegate,
        "small k on uniform must stay on delegates"
    );
    assert_eq!(
        choose_path_sampled(&uniform, 1 << 17, spec),
        ChosenPath::Radix,
        "large k on uniform must cross to radix"
    );
    for k in [64usize, 1 << 17] {
        assert_eq!(
            choose_path_sampled(&low, k, spec),
            ChosenPath::Delegate,
            "low-entropy data must stay on delegates at k={k}"
        );
    }
    // And the routed runs agree with the reference at the crossover's two
    // extremes on both datasets.
    for data in [&uniform, &low] {
        for k in [64usize, 1 << 17] {
            let auto = dr_topk(&device, data, k, &DrTopKConfig::default());
            assert_eq!(auto.values, reference_topk(data, k));
        }
    }
}

// ---------------------------------------------------------------------------
// Host-speed threshold: the row-block kernels select each row's threshold
// with `radix_select_threshold`; it must equal the flag radix select's
// threshold for every key type, with and without the skipped last pass,
// and the exact one must equal the GGKS baseline's under both variants.
// ---------------------------------------------------------------------------

use drtopk::core::radix_flags::radix_select_threshold;
use topk_baselines::radix_select_kth;

fn assert_threshold_agrees<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
) -> Result<(), String> {
    for skip_last_pass in [false, true] {
        let flag = flag_radix_select_kth(device, data, k, skip_last_pass);
        let host = radix_select_threshold(data, k, skip_last_pass);
        if host.to_bits() != flag.threshold.to_bits() {
            return Err(format!(
                "k={k} skip_last_pass={skip_last_pass}: host {:?} vs flag {:?}",
                host.to_bits(),
                flag.threshold.to_bits()
            ));
        }
        if skip_last_pass {
            continue;
        }
        for variant in [RadixVariant::OutOfPlace, RadixVariant::InPlaceZeroing] {
            let ggks = radix_select_kth(device, data, k, variant);
            if ggks.threshold.to_bits() != host.to_bits() {
                return Err(format!(
                    "k={k} {variant:?}: baseline {:?} vs host {:?}",
                    ggks.threshold.to_bits(),
                    host.to_bits()
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All six key types; the float vectors carry NaN payloads of both signs
    /// (every third value is negated), ±0, ±∞ and subnormals.
    #[test]
    fn host_threshold_equals_flag_radix_select(
        ints in proptest::collection::vec(any::<u64>(), 1..1200),
        f32s in proptest::collection::vec(f32_with_specials(), 1..1200),
        f64s in proptest::collection::vec(f64_with_specials(), 1..1200),
        k_frac in 0.0f64..1.0,
    ) {
        let device = device();
        let k_of = |n: usize| ((n as f64 * k_frac) as usize).clamp(1, n);
        let k = k_of(ints.len());
        let u32s: Vec<u32> = ints.iter().map(|&x| x as u32).collect();
        let i32s: Vec<i32> = ints.iter().map(|&x| (x >> 32) as i32).collect();
        let i64s: Vec<i64> = ints.iter().map(|&x| x as i64).collect();
        let f32s: Vec<f32> = f32s.iter().enumerate().map(|(i, &x)| if i % 3 == 0 { -x } else { x }).collect();
        let f64s: Vec<f64> = f64s.iter().enumerate().map(|(i, &x)| if i % 3 == 0 { -x } else { x }).collect();
        let checks = [
            assert_threshold_agrees(&device, &ints, k),
            assert_threshold_agrees(&device, &u32s, k),
            assert_threshold_agrees(&device, &i32s, k),
            assert_threshold_agrees(&device, &i64s, k),
            assert_threshold_agrees(&device, &f32s, k_of(f32s.len())),
            assert_threshold_agrees(&device, &f64s, k_of(f64s.len())),
        ];
        for check in checks {
            if let Err(msg) = check {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Survivor lists: the flag select narrows later passes to per-warp lists of
// the elements that still share the flag. Over inputs spanning several
// warps, its outcome — threshold, every counter, modeled time — must be the
// one a select that re-histograms the whole input every pass returns.
// ---------------------------------------------------------------------------

use topk_baselines::radix::{
    choose_digit, digit_histogram, DigitPrefix, Keep, BITS_PER_PASS, ELEMS_PER_WARP,
};
use topk_baselines::{KeyBits, SelectOutcome};

/// The flag select with no survivor lists: every pass scans all of `data`.
fn full_rescan_select<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    skip_last_pass: bool,
) -> SelectOutcome<K> {
    let mut stats = KernelStats::default();
    let mut time_ms = 0.0;
    let mut flag = DigitPrefix::default();
    let mut k_remaining = k;
    for pass in 0..K::Bits::BITS / BITS_PER_PASS - u32::from(skip_last_pass) {
        let (histogram, launch) = digit_histogram(
            device,
            "flag_radix_select",
            data,
            None,
            flag,
            pass,
            Keep::Nothing,
        );
        stats += launch.stats;
        time_ms += launch.time_ms;
        let (digit, above) = choose_digit(&histogram, k_remaining);
        k_remaining -= above;
        flag.push(pass, digit);
    }
    SelectOutcome {
        threshold: K::from_bits(flag.value()),
        stats,
        time_ms,
    }
}

/// Up to five warps of keys made from random 64-bit words by `key`, in one
/// of three shapes: every word fresh (the first passes already narrow),
/// words sharing all but their low 8–24 bits (the first passes keep nearly
/// everything, later ones narrow), or a palette of at most eight words (no
/// pass narrows).
fn multi_warp_keys<K>(key: fn(u64) -> K) -> impl proptest::strategy::Strategy<Value = Vec<K>> {
    FnStrategy(move |rng: &mut TestRng| {
        let n = 1 + rng.next_below(5 * ELEMS_PER_WARP as u64) as usize;
        match rng.next_below(3) {
            0 => (0..n).map(|_| key(rng.next_u64())).collect(),
            1 => {
                let base = rng.next_u64();
                let mask = (1u64 << (8 + rng.next_below(17))) - 1;
                (0..n)
                    .map(|_| key(base ^ (rng.next_u64() & mask)))
                    .collect()
            }
            _ => {
                let palette: Vec<u64> =
                    (0..1 + rng.next_below(8)).map(|_| rng.next_u64()).collect();
                (0..n)
                    .map(|_| key(palette[rng.next_below(palette.len() as u64) as usize]))
                    .collect()
            }
        }
    })
}

fn assert_select_matches_rescan<K: TopKKey>(
    device: &Device,
    data: &[K],
    k_frac: f64,
) -> Result<(), String> {
    let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
    for skip_last_pass in [false, true] {
        let got = flag_radix_select_kth(device, data, k, skip_last_pass);
        let want = full_rescan_select(device, data, k, skip_last_pass);
        let case = format!("n={} k={k} skip_last_pass={skip_last_pass}", data.len());
        if got.threshold.to_bits() != want.threshold.to_bits() {
            return Err(format!(
                "{case}: threshold {:?} vs {:?}",
                got.threshold.to_bits(),
                want.threshold.to_bits()
            ));
        }
        if got.stats != want.stats {
            return Err(format!("{case}: {:?} vs {:?}", got.stats, want.stats));
        }
        if got.time_ms.to_bits() != want.time_ms.to_bits() {
            return Err(format!("{case}: {} vs {} ms", got.time_ms, want.time_ms));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flag_select_equals_full_rescan_u32(
        data in multi_warp_keys(|w| w as u32),
        k_frac in 0.0f64..1.0,
    ) {
        let checked = assert_select_matches_rescan(&device(), &data, k_frac);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn flag_select_equals_full_rescan_i64(
        data in multi_warp_keys(|w| w as i64),
        k_frac in 0.0f64..1.0,
    ) {
        let checked = assert_select_matches_rescan(&device(), &data, k_frac);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Random bit patterns: NaNs of both signs, negatives and subnormals.
    #[test]
    fn flag_select_equals_full_rescan_f32(
        data in multi_warp_keys(|w| f32::from_bits(w as u32)),
        k_frac in 0.0f64..1.0,
    ) {
        let checked = assert_select_matches_rescan(&device(), &data, k_frac);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
