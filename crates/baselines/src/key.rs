//! The [`TopKKey`] trait: order-preserving bijections into an unsigned radix
//! space, making every top-k algorithm in the workspace generic over the key
//! type.
//!
//! Dr. Top-k's pipeline (and all the baselines it assists) only ever needs
//! two capabilities from a key: a *total order* and a *radix decomposition*
//! consistent with that order. Both are provided by mapping each key through
//! an order-preserving bijection onto an unsigned integer of the same width
//! (the key's [`TopKKey::Bits`]):
//!
//! * `u32` / `u64` — the identity;
//! * `i32` / `i64` — flip the sign bit (`x ^ MIN`), the classic two's
//!   complement → biased transform;
//! * `f32` / `f64` — the IEEE-754 total-order transform: positive floats get
//!   their sign bit set, negative floats are bitwise inverted. The induced
//!   order is exactly [`f32::total_cmp`] / [`f64::total_cmp`].
//!
//! ## NaN ordering policy (floats)
//!
//! Float keys are ordered by the IEEE-754 **totalOrder** predicate, i.e. the
//! order of [`f32::total_cmp`]:
//!
//! ```text
//! -NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < +NaN
//! ```
//!
//! Consequently a *top-k largest* query ranks positive NaNs above `+∞`,
//! while a *top-k smallest* query (e.g. `dr_topk` with
//! [`Direction::Smallest`] over k-NN distances, which are non-negative,
//! possibly `NaN` when a computation misfired) ranks
//! positive NaNs **last** — after every real distance — so NaNs never
//! displace a genuine neighbour. Distinct NaN payloads round-trip bit-exactly
//! through the bijection; no canonicalization is performed. `-0.0` and `+0.0`
//! are distinct keys, with `-0.0 < +0.0`.
//!
//! [`Direction::Smallest`]: https://docs.rs/drtopk-core
//!
//! ## Contract
//!
//! For every implementation the following must hold (and is exercised by the
//! unit tests below plus the workspace-level property tests):
//!
//! 1. **Bijection** — `from_bits(to_bits(x))` is bit-identical to `x` for
//!    every value, including every NaN payload;
//! 2. **Order preservation** — `a` precedes `b` in the key's documented
//!    total order iff `a.to_bits() < b.to_bits()` as unsigned integers;
//! 3. **Zero cost for `u32`** — `to_bits`/`from_bits` are the identity, so
//!    the monomorphized `u32` pipeline is byte-for-byte the pre-generic one.

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, BitOrAssign, BitXor, Not, Shl, Shr};

/// Unsigned integer types usable as a radix space (`u32`, `u64`).
///
/// This is the minimal integer surface the radix/bucket/flag selection
/// kernels need: bitwise ops, shifts by a `u32`, ordering, and widening
/// conversions for exact range arithmetic.
pub trait KeyBits:
    Copy
    + Default
    + Ord
    + Eq
    + Hash
    + Debug
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitOrAssign
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    /// Width of the radix space in bits.
    const BITS: u32;
    /// All-zero bit pattern (the minimum of the space).
    const ZERO: Self;
    /// All-one bit pattern (the maximum of the space).
    const MAX: Self;

    /// Truncating conversion from `u64` (used to build digit masks).
    fn from_u64(x: u64) -> Self;
    /// Widening conversion to `u128` for exact range arithmetic.
    fn to_u128(self) -> u128;
    /// Truncating conversion from `u128` (inverse of [`Self::to_u128`] for
    /// in-range values).
    fn from_u128(x: u128) -> Self;
    /// Subtraction modulo `2^BITS`.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// The low bits as a digit index (callers mask before converting).
    fn as_digit(self) -> usize {
        self.to_u128() as usize
    }
}

impl KeyBits for u32 {
    const BITS: u32 = 32;
    const ZERO: Self = 0;
    const MAX: Self = u32::MAX;

    #[inline(always)]
    fn from_u64(x: u64) -> Self {
        x as u32
    }

    #[inline(always)]
    fn to_u128(self) -> u128 {
        self as u128
    }

    #[inline(always)]
    fn from_u128(x: u128) -> Self {
        x as u32
    }

    #[inline(always)]
    fn wrapping_sub(self, rhs: Self) -> Self {
        u32::wrapping_sub(self, rhs)
    }
}

impl KeyBits for u64 {
    const BITS: u32 = 64;
    const ZERO: Self = 0;
    const MAX: Self = u64::MAX;

    #[inline(always)]
    fn from_u64(x: u64) -> Self {
        x
    }

    #[inline(always)]
    fn to_u128(self) -> u128 {
        self as u128
    }

    #[inline(always)]
    fn from_u128(x: u128) -> Self {
        x as u64
    }

    #[inline(always)]
    fn wrapping_sub(self, rhs: Self) -> Self {
        u64::wrapping_sub(self, rhs)
    }
}

/// A key type every top-k algorithm in the workspace can select over.
///
/// See the [module documentation](self) for the bijection contract and the
/// float NaN ordering policy.
pub trait TopKKey: Copy + Default + PartialEq + PartialOrd + Debug + Send + Sync + 'static {
    /// The unsigned radix space this key maps into.
    type Bits: KeyBits;

    /// Order-preserving bijection into the radix space.
    fn to_bits(self) -> Self::Bits;

    /// Inverse of [`Self::to_bits`].
    fn from_bits(bits: Self::Bits) -> Self;

    /// Total-order comparison induced by the bijection.
    #[inline(always)]
    fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to_bits().cmp(&other.to_bits())
    }
}

impl TopKKey for u32 {
    type Bits = u32;

    #[inline(always)]
    fn to_bits(self) -> u32 {
        self
    }

    #[inline(always)]
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl TopKKey for u64 {
    type Bits = u64;

    #[inline(always)]
    fn to_bits(self) -> u64 {
        self
    }

    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl TopKKey for i32 {
    type Bits = u32;

    #[inline(always)]
    fn to_bits(self) -> u32 {
        (self as u32) ^ (1 << 31)
    }

    #[inline(always)]
    fn from_bits(bits: u32) -> Self {
        (bits ^ (1 << 31)) as i32
    }
}

impl TopKKey for i64 {
    type Bits = u64;

    #[inline(always)]
    fn to_bits(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }

    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        (bits ^ (1 << 63)) as i64
    }
}

impl TopKKey for f32 {
    type Bits = u32;

    #[inline(always)]
    fn to_bits(self) -> u32 {
        let b = f32::to_bits(self);
        // IEEE-754 total-order transform: negatives are bitwise inverted
        // (reversing their magnitude order), non-negatives get the sign bit.
        if b >> 31 == 1 {
            !b
        } else {
            b ^ (1 << 31)
        }
    }

    #[inline(always)]
    fn from_bits(bits: u32) -> Self {
        if bits >> 31 == 1 {
            f32::from_bits(bits ^ (1 << 31))
        } else {
            f32::from_bits(!bits)
        }
    }
}

impl TopKKey for f64 {
    type Bits = u64;

    #[inline(always)]
    fn to_bits(self) -> u64 {
        let b = f64::to_bits(self);
        if b >> 63 == 1 {
            !b
        } else {
            b ^ (1 << 63)
        }
    }

    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        if bits >> 63 == 1 {
            f64::from_bits(bits ^ (1 << 63))
        } else {
            f64::from_bits(!bits)
        }
    }
}

/// Order-reversing adapter: `Desc<K>` is a [`TopKKey`] whose order is the
/// *reverse* of `K`'s, obtained by complementing the bits (itself an
/// order-reversing bijection of the radix space).
///
/// This is how Dr. Top-k's runners answer top-k-*smallest* requests with
/// the top-k-largest machinery and zero per-element work: the layout is
/// `#[repr(transparent)]`, so a `&[K]` reinterprets as `&[Desc<K>]` without
/// copying or flipping anything in memory.
///
/// `PartialEq`/`PartialOrd` are implemented via the (complemented) bits, so
/// `Desc(a) < Desc(b)` iff `b` precedes `a` in `K`'s order — the contract
/// rule 2 of the [module documentation](self) holds for `Desc` too. A side
/// effect of bit-space equality is that for float keys equal-bit NaNs
/// compare equal and `-0.0 != 0.0`, consistent with the total order.
#[derive(Debug, Clone, Copy, Default)]
#[repr(transparent)]
pub struct Desc<K>(pub K);

impl<K: TopKKey> PartialEq for Desc<K> {
    fn eq(&self, other: &Self) -> bool {
        TopKKey::to_bits(*self) == TopKKey::to_bits(*other)
    }
}

impl<K: TopKKey> PartialOrd for Desc<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(TopKKey::to_bits(*self).cmp(&TopKKey::to_bits(*other)))
    }
}

impl<K: TopKKey> TopKKey for Desc<K> {
    type Bits = K::Bits;

    #[inline(always)]
    fn to_bits(self) -> K::Bits {
        !self.0.to_bits()
    }

    #[inline(always)]
    fn from_bits(bits: K::Bits) -> Self {
        Desc(K::from_bits(!bits))
    }
}

/// Sort a key slice in descending key order (largest first).
pub fn sort_keys_desc<K: TopKKey>(keys: &mut [K]) {
    keys.sort_unstable_by_key(|k| std::cmp::Reverse(k.to_bits()));
}

/// Sort a key slice in ascending key order (smallest first).
pub fn sort_keys_asc<K: TopKKey>(keys: &mut [K]) {
    keys.sort_unstable_by_key(|k| k.to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-disambiguated `to_bits` (floats also have an inherent
    /// `to_bits`, which is *not* the order-preserving one).
    fn kbits<K: TopKKey>(k: K) -> K::Bits {
        TopKKey::to_bits(k)
    }

    fn assert_order_preserving<K: TopKKey>(sorted: &[K]) {
        for w in sorted.windows(2) {
            assert!(
                w[0].to_bits() < w[1].to_bits(),
                "bits order must follow key order: {:?} !< {:?}",
                w[0],
                w[1]
            );
        }
    }

    fn assert_round_trip<K: TopKKey>(values: &[K]) {
        for &v in values {
            let rt = K::from_bits(v.to_bits());
            // compare through bits so NaN payloads are checked bit-exactly
            assert_eq!(rt.to_bits(), v.to_bits(), "round trip of {v:?}");
        }
    }

    #[test]
    fn unsigned_keys_are_identity() {
        assert_eq!(7u32.to_bits(), 7);
        assert_eq!(u32::from_bits(7), 7);
        assert_eq!(7u64.to_bits(), 7);
        assert_order_preserving(&[0u32, 1, 2, u32::MAX]);
        assert_order_preserving(&[0u64, 1, 1 << 40, u64::MAX]);
        assert_round_trip(&[0u64, u64::MAX, 1 << 63]);
    }

    #[test]
    fn signed_keys_preserve_order_across_zero() {
        assert_order_preserving(&[i32::MIN, -1, 0, 1, i32::MAX]);
        assert_order_preserving(&[i64::MIN, -(1 << 40), -1, 0, 1, i64::MAX]);
        assert_round_trip(&[i32::MIN, -1, 0, i32::MAX]);
        assert_round_trip(&[i64::MIN, -1, 0, i64::MAX]);
    }

    #[test]
    fn float_keys_follow_total_cmp() {
        let sorted = [
            -f32::NAN,
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        assert_order_preserving(&sorted);
        assert_round_trip(&sorted);
        // the induced order is exactly total_cmp
        for a in sorted {
            for b in sorted {
                assert_eq!(kbits(a).cmp(&kbits(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn f64_keys_follow_total_cmp() {
        let sorted = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            2.5,
            f64::INFINITY,
            f64::NAN,
        ];
        assert_order_preserving(&sorted);
        assert_round_trip(&sorted);
        for a in sorted {
            for b in sorted {
                assert_eq!(kbits(a).cmp(&kbits(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn nan_payloads_round_trip_bit_exactly() {
        for raw in [0x7FC0_0001u32, 0x7F80_0F00, 0xFFC0_0002, 0xFF80_1234] {
            let v = f32::from_bits(raw);
            assert!(v.is_nan());
            let rt = <f32 as TopKKey>::from_bits(TopKKey::to_bits(v));
            assert_eq!(rt.to_bits(), raw, "payload {raw:#x} must survive");
        }
    }

    #[test]
    fn desc_reverses_the_order() {
        let asc = [1.0f32, 2.0, 3.0];
        let desc: Vec<Desc<f32>> = asc.iter().map(|&x| Desc(x)).collect();
        for w in desc.windows(2) {
            assert!(w[0].to_bits() > w[1].to_bits());
        }
        assert_round_trip(&desc);
        // PartialOrd follows the reversed (bits) order, matching contract
        // rule 2, not the wrapped key's order.
        assert!(Desc(1.0f32) > Desc(2.0f32));
        assert!(Desc(5i64) < Desc(-5i64));
        assert_eq!(Desc(f32::NAN), Desc(f32::NAN));
        assert_ne!(Desc(-0.0f32), Desc(0.0f32));
        // repr(transparent): same size and alignment as the wrapped key
        assert_eq!(std::mem::size_of::<Desc<f64>>(), std::mem::size_of::<f64>());
    }

    #[test]
    fn sort_helpers_sort_both_ways() {
        let mut v = [3.0f32, f32::NAN, -1.0, 0.0];
        sort_keys_asc(&mut v);
        assert_eq!(&v[..3], &[-1.0, 0.0, 3.0]);
        assert!(v[3].is_nan());
        sort_keys_desc(&mut v);
        assert!(v[0].is_nan());
        assert_eq!(&v[1..], &[3.0, 0.0, -1.0]);
    }

    #[test]
    fn key_cmp_matches_bits() {
        assert_eq!((-3i64).key_cmp(&4), std::cmp::Ordering::Less);
        assert_eq!(4u32.key_cmp(&4), std::cmp::Ordering::Equal);
        assert_eq!(
            f32::NAN.key_cmp(&f32::INFINITY),
            std::cmp::Ordering::Greater
        );
    }
}
