//! Free-standing modular arithmetic helpers: inverse, Jacobi symbol,
//! Tonelli–Shanks square roots, and a convenience `modpow`.

use crate::arith::sub_assign_limbs;
use crate::montgomery::Montgomery;
use crate::uint::BigUint;

impl BigUint {
    /// `self^exp mod n`.
    ///
    /// Dispatches to Montgomery exponentiation for odd `n` and to a plain
    /// square-and-multiply with trial division otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn modpow(&self, exp: &BigUint, n: &BigUint) -> BigUint {
        assert!(!n.is_zero(), "modulus must be nonzero");
        if n.is_one() {
            return BigUint::zero();
        }
        if n.is_odd() {
            return Montgomery::new(n.clone()).pow(self, exp);
        }
        let mut acc = BigUint::one();
        let mut base = self % n;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = &(&acc * &base) % n;
            }
            base = &(&base * &base) % n;
        }
        acc
    }

    /// Modular inverse `self^{-1} mod n`, or `None` if `gcd(self, n) != 1`.
    pub fn modinv(&self, n: &BigUint) -> Option<BigUint> {
        mod_inverse(self, n)
    }
}

/// Modular inverse dispatcher: binary extended GCD for odd moduli (the
/// hot path — every elliptic-curve affine conversion lands here), plain
/// extended Euclid otherwise.
///
/// Returns `a^{-1} mod n` when it exists.
pub fn mod_inverse(a: &BigUint, n: &BigUint) -> Option<BigUint> {
    if n.is_zero() || n.is_one() {
        return None;
    }
    if n.is_odd() {
        return mod_inverse_odd(a, n);
    }
    mod_inverse_euclid(a, n)
}

/// Division-free binary extended GCD for odd `n`.
fn mod_inverse_odd(a: &BigUint, n: &BigUint) -> Option<BigUint> {
    debug_assert!(n.is_odd());
    let a = a % n;
    if a.is_zero() {
        return None;
    }
    let mut u = a;
    let mut v = n.clone();
    let mut x1 = BigUint::one();
    let mut x2 = BigUint::zero();
    // Halves x mod n, exploiting n odd: x/2 or (x+n)/2.
    let halve = |x: &BigUint| -> BigUint {
        if x.is_even() {
            x.shr(1)
        } else {
            (x + n).shr(1)
        }
    };
    while !u.is_one() && !v.is_one() {
        while u.is_even() {
            u = u.shr(1);
            x1 = halve(&x1);
        }
        while v.is_even() {
            v = v.shr(1);
            x2 = halve(&x2);
        }
        if u >= v {
            u = &u - &v;
            // x1 = x1 - x2 mod n
            x1 = if x1 >= x2 {
                &x1 - &x2
            } else {
                &(&x1 + n) - &x2
            };
        } else {
            v = &v - &u;
            x2 = if x2 >= x1 {
                &x2 - &x1
            } else {
                &(&x2 + n) - &x1
            };
        }
        // gcd(a, n) > 1: the subtraction chain bottoms out at zero before
        // either side reaches one.
        if u.is_zero() || v.is_zero() {
            return None;
        }
    }
    let inv = if u.is_one() { x1 } else { x2 };
    Some(inv % n)
}

/// Extended Euclid over signed cofactors, tracked as (sign, magnitude).
fn mod_inverse_euclid(a: &BigUint, n: &BigUint) -> Option<BigUint> {
    let mut r0 = n.clone();
    let mut r1 = a % n;
    // Cofactors of `a`: t0, t1 with sign flags (true = negative).
    let mut t0 = (BigUint::zero(), false);
    let mut t1 = (BigUint::one(), false);
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        // t2 = t0 - q * t1 over signed values.
        let qt1 = &q * &t1.0;
        let t2 = signed_sub(&t0, &(qt1, t1.1));
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    if !r0.is_one() {
        return None;
    }
    let (mag, neg) = t0;
    let mag = &mag % n;
    Some(if neg && !mag.is_zero() { n - &mag } else { mag })
}

/// `(a) - (b)` on sign-magnitude pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with like signs: compare magnitudes.
        (false, false) | (true, true) => {
            if a.0 >= b.0 {
                (&a.0 - &b.0, a.1)
            } else {
                (&b.0 - &a.0, !a.1)
            }
        }
        // (+a) - (-b) = a + b ;  (-a) - (+b) = -(a + b)
        (false, true) => (&a.0 + &b.0, false),
        (true, false) => (&a.0 + &b.0, true),
    }
}

/// Jacobi symbol `(a/n)` for odd `n > 0`; returns `-1`, `0`, or `1`.
///
/// For prime `n` this is the Legendre symbol, i.e. `1` iff `a` is a
/// nonzero quadratic residue mod `n`.
///
/// Binary algorithm, in place on the two values' limbs: strip the factors
/// of two from `a` (an odd count flips the sign when `n ≡ 3, 5 mod 8`),
/// put the larger odd value first (quadratic reciprocity: swapping two
/// values `≡ 3 mod 4` flips it), subtract, and repeat until `a` is zero.
/// Each pass at least halves `a`, and nothing is allocated after `a` is
/// reduced below `n`.
///
/// # Panics
///
/// Panics if `n` is even or zero.
pub fn jacobi(a: &BigUint, n: &BigUint) -> i32 {
    assert!(n.is_odd() && !n.is_zero(), "Jacobi symbol needs odd n > 0");
    let mut a = a % n;
    let mut n = n.clone();
    let mut sign = 1i32;
    while !a.is_zero() {
        let tz = a.trailing_zeros();
        a.shr_assign(tz);
        if tz % 2 == 1 && matches!(n.limbs[0] & 7, 3 | 5) {
            sign = -sign;
        }
        if a < n {
            std::mem::swap(&mut a, &mut n);
            if a.limbs[0] & 3 == 3 && n.limbs[0] & 3 == 3 {
                sign = -sign;
            }
        }
        sub_assign_limbs(&mut a.limbs, &n.limbs);
    }
    if n.is_one() {
        sign
    } else {
        0
    }
}

/// Tonelli–Shanks square root mod an odd prime `p`.
///
/// Returns `x` with `x² ≡ a (mod p)`, or `None` if `a` is a non-residue.
/// The companion root is `p - x`.
///
/// # Panics
///
/// Panics if `p` is even (primality itself is the caller's responsibility).
pub fn sqrt_mod_prime(a: &BigUint, p: &BigUint) -> Option<BigUint> {
    assert!(p.is_odd(), "sqrt_mod_prime needs an odd prime");
    let a = a % p;
    if a.is_zero() {
        return Some(BigUint::zero());
    }
    if jacobi(&a, p) != 1 {
        return None;
    }
    let one = BigUint::one();
    let p_minus_1 = p.checked_sub(&one).expect("p > 1");

    // Fast path: p ≡ 3 (mod 4) → x = a^((p+1)/4).
    if (p.limbs()[0] & 3) == 3 {
        let e = (p + &one).shr(2);
        return Some(a.modpow(&e, p));
    }

    // General Tonelli–Shanks: p - 1 = q · 2^s with q odd.
    let s = p_minus_1.trailing_zeros();
    let q = p_minus_1.shr(s);

    // Find a quadratic non-residue z.
    let mut z = BigUint::from(2u64);
    while jacobi(&z, p) != -1 {
        z = &z + &one;
    }

    let mont = Montgomery::new(p.clone());
    let mut m = s;
    let mut c = mont.pow(&z, &q);
    let mut t = mont.pow(&a, &q);
    let mut r = mont.pow(&a, &(&q + &one).shr(1));

    while !t.is_one() {
        // Find least i in (0, m) with t^(2^i) = 1.
        let mut i = 0usize;
        let mut t2 = t.clone();
        while !t2.is_one() {
            t2 = mont.sqr(&t2);
            i += 1;
            if i == m {
                return None; // not a residue (defensive; jacobi said otherwise)
            }
        }
        let b = mont.pow(&c, &BigUint::power_of_two(m - i - 1));
        m = i;
        c = mont.sqr(&b);
        t = mont.mul(&t, &c);
        r = mont.mul(&r, &b);
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modinv_round_trip() {
        let n = BigUint::from(1_000_003u64); // prime
        for a in [2u64, 3, 65537, 999_999] {
            let a = BigUint::from(a);
            let inv = mod_inverse(&a, &n).unwrap();
            assert_eq!(&(&a * &inv) % &n, BigUint::one());
        }
    }

    #[test]
    fn modinv_none_when_not_coprime() {
        let n = BigUint::from(100u64);
        assert!(mod_inverse(&BigUint::from(10u64), &n).is_none());
        assert!(mod_inverse(&BigUint::zero(), &n).is_none());
        assert!(mod_inverse(&BigUint::from(3u64), &n).is_some());
    }

    #[test]
    fn modinv_large_prime() {
        let p = BigUint::power_of_two(521)
            .checked_sub(&BigUint::one())
            .unwrap();
        let a = BigUint::from_dec_str("123456789012345678901234567890").unwrap();
        let inv = mod_inverse(&a, &p).unwrap();
        assert_eq!(&(&a * &inv) % &p, BigUint::one());
    }

    #[test]
    fn jacobi_matches_legendre_small() {
        let p = BigUint::from(23u64);
        // Squares mod 23: 1,2,3,4,6,8,9,12,13,16,18
        let residues = [1u64, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18];
        for a in 1u64..23 {
            let expect = if residues.contains(&a) { 1 } else { -1 };
            assert_eq!(jacobi(&BigUint::from(a), &p), expect, "a = {a}");
        }
        assert_eq!(jacobi(&BigUint::zero(), &p), 0);
        assert_eq!(jacobi(&BigUint::from(23u64), &p), 0);
    }

    #[test]
    fn jacobi_composite() {
        // (2/15) = (2/3)(2/5) = (-1)(-1) = 1
        assert_eq!(jacobi(&BigUint::from(2u64), &BigUint::from(15u64)), 1);
        // (3/15) shares a factor → 0
        assert_eq!(jacobi(&BigUint::from(3u64), &BigUint::from(15u64)), 0);
        // (7/15) = (1/3)(2/5) = -1; (10/15) shares a factor → 0
        assert_eq!(jacobi(&BigUint::from(7u64), &BigUint::from(15u64)), -1);
        assert_eq!(jacobi(&BigUint::from(10u64), &BigUint::from(15u64)), 0);
    }

    #[test]
    fn sqrt_mod_p_3_mod_4() {
        let p = BigUint::from(1_000_003u64); // ≡ 3 (mod 4)
        let x = BigUint::from(123_456u64);
        let a = &(&x * &x) % &p;
        let r = sqrt_mod_prime(&a, &p).unwrap();
        assert_eq!(&(&r * &r) % &p, a);
    }

    #[test]
    fn sqrt_mod_p_1_mod_4_tonelli() {
        let p = BigUint::from(1_000_033u64); // ≡ 1 (mod 4), prime
        assert_eq!((p.limbs()[0] & 3), 1);
        for x in [2u64, 77, 500_000, 999_999] {
            let x = BigUint::from(x);
            let a = &(&x * &x) % &p;
            let r = sqrt_mod_prime(&a, &p).unwrap();
            assert_eq!(&(&r * &r) % &p, a, "x = {x:?}");
        }
    }

    #[test]
    fn sqrt_of_nonresidue_is_none() {
        let p = BigUint::from(23u64);
        assert!(sqrt_mod_prime(&BigUint::from(5u64), &p).is_none());
    }

    #[test]
    fn modpow_even_modulus() {
        let n = BigUint::from(100u64);
        assert_eq!(
            BigUint::from(7u64).modpow(&BigUint::from(3u64), &n),
            BigUint::from(43u64)
        );
        assert_eq!(
            BigUint::from(7u64).modpow(&BigUint::zero(), &BigUint::one()),
            BigUint::zero()
        );
    }
}
