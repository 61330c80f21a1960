//! Property-based tests for `ppgr-bigint` arithmetic invariants.

use ppgr_bigint::{modular, with_kernel, BigUint, FieldKernel, Montgomery, Montgomery4};
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

/// The secp160r1, secp224r1 and secp256r1 field primes: `p − 1 = 2^s·m`
/// with `s = 1`, `96` and `1`, so both shapes of the square root run.
const CURVE_PRIMES: [&str; 3] = [
    "ffffffffffffffffffffffffffffffff7fffffff",
    "ffffffffffffffffffffffffffffffff000000000000000000000001",
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
];

/// The RFC 2409 1024-bit and RFC 3526 2048-bit MODP safe primes.
const DL_PRIMES: [&str; 2] = [
    "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
     29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
     EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
     E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
     EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE65381
     FFFFFFFF FFFFFFFF",
    "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
     29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
     EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
     E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
     EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
     C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
     83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
     670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
     E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
     DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
     15728E5A 8AACAA68 FFFFFFFF FFFFFFFF",
];

fn prime(hex: &str) -> BigUint {
    BigUint::from_hex_str(hex).unwrap()
}

/// The two DL primes and the three curve primes.
fn all_primes() -> Vec<BigUint> {
    DL_PRIMES
        .iter()
        .chain(&CURVE_PRIMES)
        .map(|h| prime(h))
        .collect()
}

/// Euler's criterion `a^((p−1)/2) mod p` as `-1`, `0` or `1`, computed with
/// `Montgomery::pow`: the reference for the Jacobi symbol and the square
/// root modulo a prime.
fn euler(a: &BigUint, p: &BigUint) -> i32 {
    let e = Montgomery::new(p.clone()).pow(a, &p.shr(1));
    if e.is_zero() {
        0
    } else if e.is_one() {
        1
    } else {
        assert_eq!(&e + &BigUint::one(), *p, "Euler's criterion is ±1 or 0");
        -1
    }
}

/// The Jacobi symbol by the remainder recursion on plain `BigUint` values
/// (one heap `%` per step): the reference for composite moduli, where
/// Euler's criterion does not apply.
fn jacobi_by_remainders(a: &BigUint, n: &BigUint) -> i32 {
    let mut a = a % n;
    let mut n = n.clone();
    let mut sign = 1;
    while !a.is_zero() {
        let tz = a.trailing_zeros();
        if tz % 2 == 1 && matches!(n.limbs()[0] & 7, 3 | 5) {
            sign = -sign;
        }
        a = a.shr(tz);
        if a.limbs()[0] & 3 == 3 && n.limbs()[0] & 3 == 3 {
            sign = -sign;
        }
        std::mem::swap(&mut a, &mut n);
        a = &a % &n;
    }
    if n.is_one() {
        sign
    } else {
        0
    }
}

#[test]
fn jacobi_matches_eulers_criterion_at_the_edges() {
    for p in all_primes() {
        let one = BigUint::one();
        let two = BigUint::from(2u64);
        for a in [
            one.clone(),
            two.clone(),
            BigUint::from(4u64),
            &p - &two,
            &p - &one,
        ] {
            assert_eq!(modular::jacobi(&a, &p), euler(&a, &p), "a = {a:?}");
        }
        assert_eq!(modular::jacobi(&BigUint::zero(), &p), 0);
        assert_eq!(modular::jacobi(&p, &p), 0);
    }
}

/// The moduli the field kernels are tested on: the three curve primes
/// (the P-160 kernel, and CIOS at four limbs for P-224 and P-256), then
/// random odd moduli of one, two and three limbs, which CIOS runs at four
/// limbs too (`R = 2^256`).
fn kernel_modulus(which: usize, limbs: &[u64]) -> BigUint {
    match which {
        0..=2 => prime(CURVE_PRIMES[which]),
        _ => {
            let mut m = limbs[..which - 2].to_vec();
            m[0] |= 1;
            *m.last_mut().unwrap() |= 1 << 63;
            BigUint::from_limbs(m)
        }
    }
}

/// A kernel operand below `p`: `0`, `1`, `p − 1`, `p − 2`, a value whose
/// third limb is at least `2^31` (on P-160 the top limb, where a small
/// multiple's fold carries), or a random residue.
fn kernel_operand(p: &BigUint, pick: u8, random: &BigUint) -> BigUint {
    let one = BigUint::one();
    match pick % 6 {
        0 => BigUint::zero(),
        1 => one,
        2 => p - &one,
        3 => p - &(&one + &one),
        4 => {
            let mut limbs = random.limbs().to_vec();
            limbs.resize(3, 0);
            limbs[2] = limbs[2] as u32 as u64 | 1 << 31;
            &BigUint::from_limbs(limbs) % p
        }
        _ => random % p,
    }
}

#[test]
fn kernel_sqrt_of_zero_is_zero() {
    for hex in CURVE_PRIMES {
        let f = Montgomery4::new(prime(hex));
        assert_eq!(
            with_kernel!(&f, |k| k.sqrt(&f.zero_elem())),
            Some(f.zero_elem())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jacobi_is_eulers_criterion_modulo_the_dl_and_curve_primes(
        a in biguint(32),
        which in 0usize..5,
    ) {
        let p = &all_primes()[which];
        let a = &a % p;
        prop_assert_eq!(modular::jacobi(&a, p), euler(&a, p));
    }

    #[test]
    fn jacobi_matches_the_remainder_recursion(a in biguint(4), n in biguint(3)) {
        // Any odd n > 0, prime or not, and a that may exceed it.
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        prop_assert_eq!(modular::jacobi(&a, &n), jacobi_by_remainders(&a, &n));
    }

    #[test]
    fn small_context_pow_matches_the_wide_one(
        a in biguint(4),
        e in biguint(4),
        which in 0usize..3,
    ) {
        // Exponents of every length up to 256 bits, so every top-window
        // width and the short-exponent path run.
        let p = prime(CURVE_PRIMES[which]);
        let f = Montgomery4::new(p.clone());
        let a = &a % &p;
        let pow = with_kernel!(&f, |k| k.leave(&k.pow(&k.enter(&a), &e)));
        prop_assert_eq!(pow, Montgomery::new(p).pow(&a, &e));
    }

    #[test]
    fn field_kernels_match_the_wide_context(
        which in 0usize..6,
        limbs in prop::collection::vec(any::<u64>(), 3),
        pick_a in any::<u8>(),
        a in biguint(4),
        pick_b in any::<u8>(),
        b in biguint(4),
    ) {
        let p = kernel_modulus(which, &limbs);
        let wide = Montgomery::new(p.clone());
        let (a, b) = (kernel_operand(&p, pick_a, &a), kernel_operand(&p, pick_b, &b));
        let (wa, wb) = (wide.enter(&a), wide.enter(&b));
        let f = Montgomery4::new(p.clone());
        with_kernel!(&f, |k| {
            let (ka, kb) = (k.enter(&a), k.enter(&b));
            let results = [
                (k.mul(&ka, &kb), wide.mmul(&wa, &wb), "mul"),
                (k.sqr(&ka), wide.msqr(&wa), "sqr"),
                (k.add(&ka, &kb), wide.madd(&wa, &wb), "add"),
                (k.sub(&ka, &kb), wide.msub(&wa, &wb), "sub"),
                (k.sub(&kb, &ka), wide.msub(&wb, &wa), "reversed sub"),
                (k.small::<2>(&ka), wide.msmall(&wa, 2), "2·"),
                (k.small::<3>(&ka), wide.msmall(&wa, 3), "3·"),
                (k.small::<4>(&ka), wide.msmall(&wa, 4), "4·"),
                (k.small::<8>(&ka), wide.msmall(&wa, 8), "8·"),
            ];
            for (got, want, op) in results {
                prop_assert_eq!(k.leave(&got), wide.leave(&want), "{} mod {:?}", op, p);
                // Results are canonical: the domain maps fix them.
                prop_assert_eq!(k.enter(&k.leave(&got)), got, "{} mod {:?}", op, p);
            }
            prop_assert_eq!(k.leave(&k.one()), BigUint::one());
        });
    }

    #[test]
    fn kernel_sqrt_roots_exactly_the_residues_of_the_curve_fields(
        a in biguint(4),
        which in 0usize..3,
    ) {
        let p = prime(CURVE_PRIMES[which]);
        let f = Montgomery4::new(p.clone());
        let a = &a % &p;
        let am = f.enter(&a);
        let sqr = |x| with_kernel!(&f, |k| k.sqr(&x));
        let sqrt = |x| with_kernel!(&f, |k| k.sqrt(&x));
        let square = sqr(am);
        let r = sqrt(square);
        prop_assert!(r.is_some(), "a square has a root");
        prop_assert_eq!(sqr(r.unwrap()), square);
        let root = sqrt(am);
        prop_assert_eq!(root.is_none(), euler(&a, &p) == -1);
        if let Some(r) = root {
            prop_assert_eq!(sqr(r), am);
        }
    }

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
