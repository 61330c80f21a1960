//! Property-based tests for `ppgr-bigint` arithmetic invariants.

use ppgr_bigint::{modular, with_kernel, BigUint, FieldKernel, Montgomery};
use proptest::prelude::*;

/// Strategy: arbitrary BigUint up to `limbs` limbs.
fn biguint(limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..=limbs).prop_map(BigUint::from_limbs)
}

/// Strategy: an odd modulus of exactly 16, 32 or 48 limbs (the DL groups'
/// widths, each with a kernel of its own) or of 5–15 limbs (which the
/// 16-limb kernel runs padded), two operands of the same width, which may
/// exceed the modulus, and a 64-bit exponent.
fn dl_width_case() -> impl Strategy<Value = (BigUint, BigUint, BigUint, u64)> {
    prop::collection::vec(any::<u64>(), 3 * 48 + 2).prop_map(|v| {
        let pick = v[3 * 48] % 4;
        let width = match pick {
            3 => 5 + (v[3 * 48] >> 2) as usize % 11,
            _ => 16 * (1 + pick as usize),
        };
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
/// reference that shares no code with `Montgomery` or its kernels.
fn plain_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut acc = BigUint::one() % m;
    let mut b = base % m;
    for i in 0..exp.bits() {
        if exp.bit(i) {
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

/// The RFC 3526 3072-bit MODP safe prime.
const MODP_3072: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
    C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
    83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
    670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
    E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
    DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
    15728E5A 8AAAC42D AD33170D 04507A33 A85521AB DF1CBA64
    ECFB8504 58DBEF0A 8AEA7157 5D060C7D B3970F85 A6E1E4C7
    ABF5AE8C DB0933D7 1E8C94E0 4A25619D CEE3D226 1AD2EE6B
    F12FFA06 D98A0864 D8760273 3EC86A64 521F2B18 177B200C
    BBE11757 7A615D6C 770988C0 BAD946E2 08E24FA0 74E5AB31
    43DB5BFC E0FD108E 4B82D120 A93AD2CA FFFFFFFF FFFFFFFF";

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
/// [`plain_modpow`]: the reference for the Jacobi symbol and the square
/// root modulo a prime.
fn euler(a: &BigUint, p: &BigUint) -> i32 {
    let e = plain_modpow(a, &p.shr(1), p);
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
        let f = Montgomery::new(prime(hex));
        assert!(with_kernel!(curve: &f, |k| k.sqrt(&k.zero()) == Some(k.zero())));
    }
}

/// The moduli the wide kernels invert under: the three DL primes, and the
/// Mersenne prime `2^521 − 1`, nine limbs, which the 16-limb kernel runs
/// padded.
fn wide_primes() -> Vec<BigUint> {
    let m521 = &BigUint::power_of_two(521) - &BigUint::one();
    DL_PRIMES
        .iter()
        .chain([&MODP_3072])
        .map(|h| prime(h))
        .chain([m521])
        .collect()
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
    fn curve_kernel_pow_matches_plain_modpow(
        a in biguint(4),
        e in biguint(4),
        which in 0usize..3,
    ) {
        // Exponents of every length up to 256 bits, so every top-window
        // width and the short-exponent path run.
        let p = prime(CURVE_PRIMES[which]);
        let f = Montgomery::new(p.clone());
        let a = &a % &p;
        let pow = with_kernel!(curve: &f, |k| k.leave(&k.pow(&k.enter(&a), e.limbs())));
        prop_assert_eq!(pow, plain_modpow(&a, &e, &p));
    }

    #[test]
    fn curve_kernels_match_plain_arithmetic(
        which in 0usize..6,
        limbs in prop::collection::vec(any::<u64>(), 3),
        pick_a in any::<u8>(),
        a in biguint(4),
        pick_b in any::<u8>(),
        b in biguint(4),
    ) {
        let p = kernel_modulus(which, &limbs);
        let (a, b) = (kernel_operand(&p, pick_a, &a), kernel_operand(&p, pick_b, &b));
        let times = |k: u64, x: &BigUint| &(x * &BigUint::from(k)) % &p;
        let f = Montgomery::new(p.clone());
        with_kernel!(curve: &f, |k| {
            let (ka, kb) = (k.enter(&a), k.enter(&b));
            let results = [
                (k.mul(&ka, &kb), &(&a * &b) % &p, "mul"),
                (k.sqr(&ka), &(&a * &a) % &p, "sqr"),
                (k.add(&ka, &kb), &(&a + &b) % &p, "add"),
                (k.sub(&ka, &kb), &(&(&a + &p) - &b) % &p, "sub"),
                (k.sub(&kb, &ka), &(&(&b + &p) - &a) % &p, "reversed sub"),
                (k.small::<2>(&ka), times(2, &a), "2·"),
                (k.small::<3>(&ka), times(3, &a), "3·"),
                (k.small::<4>(&ka), times(4, &a), "4·"),
                (k.small::<8>(&ka), times(8, &a), "8·"),
            ];
            for (got, want, op) in results {
                prop_assert_eq!(k.leave(&got), want, "{} mod {:?}", op, p);
                // Results are canonical: the domain maps fix them.
                prop_assert_eq!(k.enter(&k.leave(&got)), got, "{} mod {:?}", op, p);
            }
            prop_assert_eq!(k.leave(&k.one()), BigUint::one());
        });
    }

    #[test]
    fn wide_kernels_match_plain_arithmetic(case in dl_width_case()) {
        let (m, a, b, e) = case;
        let (a, b, e) = (&a % &m, &b % &m, BigUint::from(e));
        let f = Montgomery::new(m.clone());
        with_kernel!(dl: &f, |k| {
            let (ka, kb) = (k.enter(&a), k.enter(&b));
            let results = [
                (k.mul(&ka, &kb), &(&a * &b) % &m, "mul"),
                (k.sqr(&ka), &(&a * &a) % &m, "sqr"),
                (k.pow(&ka, e.limbs()), plain_modpow(&a, &e, &m), "pow"),
            ];
            for (got, want, op) in results {
                prop_assert_eq!(k.leave(&got), want, "{} mod {:?}", op, m);
                prop_assert_eq!(k.enter(&k.leave(&got)), got, "{} mod {:?}", op, m);
            }
            prop_assert_eq!(k.leave(&k.one()), BigUint::one());
        });
    }

    #[test]
    fn wide_kernels_invert_like_the_extended_gcd(
        which in 0usize..4,
        values in prop::collection::vec(biguint(48), 1..5),
    ) {
        let p = &wide_primes()[which];
        let values: Vec<BigUint> = values.iter().map(|v| v % p).filter(|v| !v.is_zero()).collect();
        prop_assume!(!values.is_empty());
        let f = Montgomery::new(p.clone());
        with_kernel!(dl: &f, |k| {
            let elems: Vec<_> = values.iter().map(|v| k.enter(v)).collect();
            let batch = k.batch_inv(&elems);
            prop_assert_eq!(batch.len(), elems.len());
            for ((v, e), got) in values.iter().zip(&elems).zip(&batch) {
                let want = v.modinv(p).unwrap();
                prop_assert_eq!(&k.leave(&k.inv(e)), &want, "inv mod {:?}", p);
                prop_assert_eq!(&k.leave(got), &want, "batch_inv mod {:?}", p);
            }
        });
    }

    #[test]
    fn kernel_sqrt_roots_exactly_the_residues_of_the_curve_fields(
        a in biguint(4),
        which in 0usize..3,
    ) {
        let p = prime(CURVE_PRIMES[which]);
        let f = Montgomery::new(p.clone());
        let a = &a % &p;
        let am = with_kernel!(curve: &f, |k| k.enter(&a));
        let sqr = |x| with_kernel!(curve: &f, |k| k.sqr(&x));
        let sqrt = |x| with_kernel!(curve: &f, |k| k.sqrt(&x));
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
        let e = BigUint::from(e);
        prop_assert_eq!(wide_mont.pow(&wa, &e), plain_modpow(&wa, &e, &wm));
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
