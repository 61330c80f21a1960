//! Property-based tests for `ppgr-bigint` arithmetic invariants.

use ppgr_bigint::{modular, BigUint, Montgomery};
use proptest::prelude::*;

/// Strategy: arbitrary BigUint up to `limbs` limbs.
fn biguint(limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..=limbs).prop_map(BigUint::from_limbs)
}

/// Strategy: an odd modulus of exactly 16, 32 or 48 limbs (the DL groups'
/// widths, each with its own const-width kernel), two operands of the same
/// width, which may exceed the modulus, and a 64-bit exponent.
fn dl_width_case() -> impl Strategy<Value = (BigUint, BigUint, BigUint, u64)> {
    prop::collection::vec(any::<u64>(), 3 * 48 + 2).prop_map(|v| {
        let width = 16 * (1 + (v[3 * 48] % 3) as usize);
        let mut m = v[..width].to_vec();
        m[0] |= 1;
        m[width - 1] |= 1 << 63;
        let a = v[48..48 + width].to_vec();
        let b = v[96..96 + width].to_vec();
        (
            BigUint::from_limbs(m),
            BigUint::from_limbs(a),
            BigUint::from_limbs(b),
            v[3 * 48 + 1],
        )
    })
}

/// Square-and-multiply on plain `BigUint` products and remainders: the
/// reference that shares no code with `Montgomery`.
fn plain_modpow(base: &BigUint, exp: u64, m: &BigUint) -> BigUint {
    let mut acc = BigUint::one() % m;
    let mut b = base % m;
    for i in 0..64 - exp.leading_zeros() {
        if exp >> i & 1 == 1 {
            acc = &(&acc * &b) % m;
        }
        b = &(&b * &b) % m;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(a in biguint(6), b in biguint(6)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(5), b in biguint(5), c in biguint(5)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_round_trip(a in biguint(6), b in biguint(6)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in biguint(5), b in biguint(5)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in biguint(4), b in biguint(4), c in biguint(4)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn karatsuba_regime_matches_u128_checks(a in any::<u128>(), b in any::<u64>()) {
        // Cross-check multi-limb against native arithmetic where it fits.
        let big = BigUint::from(a) * BigUint::from(b as u128);
        let lo = (a & ((1u128 << 64) - 1)) as u64;
        let hi = (a >> 64) as u64;
        let expect = BigUint::from(lo as u128 * b as u128)
            + BigUint::from(hi as u128 * b as u128).shl(64);
        prop_assert_eq!(big, expect);
    }

    #[test]
    fn div_rem_invariant(a in biguint(8), b in biguint(4)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_round_trip(a in biguint(5), s in 0usize..200) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in biguint(4), s in 0usize..100) {
        prop_assert_eq!(a.shl(s), &a * &BigUint::power_of_two(s));
    }

    #[test]
    fn bytes_round_trip(a in biguint(6)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_round_trip(a in biguint(6)) {
        prop_assert_eq!(BigUint::from_hex_str(&a.to_hex_str()).unwrap(), a);
    }

    #[test]
    fn dec_round_trip(a in biguint(4)) {
        prop_assert_eq!(BigUint::from_dec_str(&a.to_dec_str()).unwrap(), a);
    }

    #[test]
    fn gcd_divides_both(a in biguint(3), b in biguint(3)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn montgomery_mul_matches_plain(
        a in biguint(4),
        b in biguint(4),
        m in biguint(3),
        wide in dl_width_case(),
    ) {
        let (wm, wa, wb, e) = wide;
        let wide_mont = Montgomery::new(wm.clone());
        prop_assert_eq!(wide_mont.mul(&wa, &wb), &(&wa * &wb) % &wm);
        prop_assert_eq!(wide_mont.sqr(&wa), &(&wa * &wa) % &wm);
        prop_assert_eq!(
            wide_mont.pow(&wa, &BigUint::from(e)),
            plain_modpow(&wa, e, &wm)
        );
        let m = if m.is_even() { &m + &BigUint::one() } else { m };
        prop_assume!(m > BigUint::one());
        let mont = Montgomery::new(m.clone());
        prop_assert_eq!(mont.mul(&a, &b), &(&a * &b) % &m);
    }

    #[test]
    fn modpow_multiplies_exponents(a in biguint(2), e1 in 0u64..50, e2 in 0u64..50, m in biguint(2)) {
        let m = if m.is_even() { &m + &BigUint::one() } else { m };
        prop_assume!(m > BigUint::one());
        // (a^e1)^e2 = a^(e1·e2) mod m
        let lhs = a
            .modpow(&BigUint::from(e1), &m)
            .modpow(&BigUint::from(e2), &m);
        let rhs = a.modpow(&BigUint::from(e1 * e2), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in biguint(3)) {
        // 2^127 - 1 is prime, so any nonzero a mod p is invertible.
        let p = BigUint::power_of_two(127).checked_sub(&BigUint::one()).unwrap();
        let a = &a % &p;
        prop_assume!(!a.is_zero());
        let inv = a.modinv(&p).unwrap();
        prop_assert_eq!(&(&a * &inv) % &p, BigUint::one());
    }

    #[test]
    fn jacobi_is_multiplicative(a in biguint(2), b in biguint(2)) {
        let p = BigUint::from(1_000_003u64);
        let ja = modular::jacobi(&a, &p);
        let jb = modular::jacobi(&b, &p);
        let jab = modular::jacobi(&(&a * &b), &p);
        prop_assert_eq!(jab, ja * jb);
    }

    #[test]
    fn sqrt_of_square_is_root(a in biguint(2)) {
        let p = BigUint::from(1_000_033u64); // ≡ 1 (mod 4): exercises full Tonelli–Shanks
        let a = &a % &p;
        let sq = &(&a * &a) % &p;
        let r = modular::sqrt_mod_prime(&sq, &p).unwrap();
        prop_assert!(r == a || &(&r + &a) % &p == BigUint::zero());
    }

    #[test]
    fn centered_i128_embedding(v in any::<i64>()) {
        use ppgr_bigint::FpCtx;
        let f = FpCtx::new(BigUint::power_of_two(127).checked_sub(&BigUint::one()).unwrap());
        prop_assert_eq!(f.from_i128(v as i128).to_i128_centered(), Some(v as i128));
    }
}
