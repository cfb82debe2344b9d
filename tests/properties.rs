//! Property-based tests (proptest) of the paper's rules and of the core data
//! structures' invariants.

use drtopk::core::{
    build_delegate_vector, dr_topk, first_topk, flag_radix_select_kth, flag_radix_topk,
    rule4_alpha, ConstructionMethod, DrTopKConfig,
};
use drtopk::prelude::*;
use proptest::prelude::*;
use topk_baselines::{reference_kth, reference_topk};

fn device() -> Device {
    Device::new(DeviceSpec::v100s())
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
        let delegates = build_delegate_vector(&device, &data, alpha, beta, ConstructionMethod::Auto);
        // Rule 2 presupposes that the k-th delegate exists (k <= |D|); the
        // pipeline falls back to a plain top-k otherwise.
        prop_assume!(k <= delegates.len());
        let first = first_topk(&device, &delegates, k, false);
        let true_kth = reference_kth(&data, k);
        prop_assert!(first.threshold <= true_kth,
            "delegate threshold {} must not exceed the true k-th {}", first.threshold, true_kth);
    }

    /// Delegate construction is exact: the β delegates of every subrange are
    /// its β largest elements, and both construction kernels agree.
    #[test]
    fn delegate_construction_is_exact(
        data in proptest::collection::vec(any::<u32>(), 1..2000),
        alpha in 2u32..7,
        beta in 1usize..4,
    ) {
        let device = device();
        let warp = build_delegate_vector(&device, &data, alpha, beta, ConstructionMethod::WarpShuffle);
        let shared = build_delegate_vector(&device, &data, alpha, beta, ConstructionMethod::CoalescedShared);
        prop_assert_eq!(&warp.values, &shared.values);
        prop_assert_eq!(&warp.subrange_ids, &shared.subrange_ids);
        let size = 1usize << alpha;
        for (s, chunk) in data.chunks(size).enumerate() {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.truncate(beta);
            let got: Vec<u32> = warp.values.iter().zip(&warp.subrange_ids)
                .filter(|&(_, &id)| id as usize == s)
                .map(|(&v, _)| v)
                .collect();
            prop_assert_eq!(got, sorted, "subrange {}", s);
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
        let min = dr_topk_min(&device, &data, k, &DrTopKConfig::default());
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

use drtopk::core::{choose_path_sampled, dr_topk_min, ChosenPath, PathHint};

/// f64 twin of [`f32_with_specials`]: NaN payloads, ±∞, ±0, subnormals.
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
    // Min-direction: the Desc wrapper must flow through the radix stages
    // unchanged (NaNs rank last on min-queries).
    let expected_min = bits_of(&reference_topk_min(data, k));
    let rad_min = bits_of(&dr_topk_min(device, data, k, &force(PathHint::Radix)).values);
    if rad_min != expected_min {
        return Err(format!("radix-forced min-query disagrees at k={k}"));
    }
    Ok(())
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
