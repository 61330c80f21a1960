//! Core arithmetic on [`BigUint`]: addition, subtraction, multiplication
//! (schoolbook + Karatsuba), shifting, and Knuth Algorithm D division.

use crate::uint::BigUint;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Rem, Sub};

/// Limb width in bits.
const LIMB_BITS: usize = 64;
/// Limb count above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

#[inline]
fn adc(a: u64, b: u64, carry: &mut u64) -> u64 {
    let t = a as u128 + b as u128 + *carry as u128;
    *carry = (t >> 64) as u64;
    t as u64
}

#[inline]
fn sbb(a: u64, b: u64, borrow: &mut u64) -> u64 {
    let t = (a as u128).wrapping_sub(b as u128 + *borrow as u128);
    *borrow = ((t >> 64) as u64) & 1;
    t as u64
}

/// Adds `b` into `a` (slices of equal scope), returning the final carry.
pub(crate) fn add_assign_limbs(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b.iter()) {
        *ai = adc(*ai, bi, &mut carry);
    }
    if carry != 0 {
        for ai in a.iter_mut().skip(b.len()) {
            *ai = adc(*ai, 0, &mut carry);
            if carry == 0 {
                break;
            }
        }
        if carry != 0 {
            a.push(carry);
        }
    }
}

/// Subtracts `b` from `a` in place. Panics if `b > a` (internal use only).
pub(crate) fn sub_assign_limbs(a: &mut Vec<u64>, b: &[u64]) {
    debug_assert!(a.len() >= b.len());
    let mut borrow = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b.iter()) {
        *ai = sbb(*ai, bi, &mut borrow);
    }
    if borrow != 0 {
        for ai in a.iter_mut().skip(b.len()) {
            *ai = sbb(*ai, 0, &mut borrow);
            if borrow == 0 {
                break;
            }
        }
    }
    assert_eq!(borrow, 0, "BigUint subtraction underflow");
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// Schoolbook product into a fresh limb vector.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    out
}

/// Karatsuba product; recurses until operands fall below the threshold.
fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len() < KARATSUBA_THRESHOLD || b.len() < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let half = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));

    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);

    let mut a01 = a0.to_vec();
    add_assign_limbs(&mut a01, a1);
    let mut b01 = b0.to_vec();
    add_assign_limbs(&mut b01, b1);
    let mut z1 = mul_karatsuba(&a01, &b01);
    // z1 = (a0+a1)(b0+b1) - z0 - z2
    let mut z0n = z0.clone();
    while z0n.last() == Some(&0) {
        z0n.pop();
    }
    let mut z2n = z2.clone();
    while z2n.last() == Some(&0) {
        z2n.pop();
    }
    sub_assign_limbs(&mut z1, &z0n);
    sub_assign_limbs(&mut z1, &z2n);

    let mut out = vec![0u64; a.len() + b.len()];
    // out += z0
    overlay_add(&mut out, &z0, 0);
    overlay_add(&mut out, &z1, half);
    overlay_add(&mut out, &z2, 2 * half);
    out
}

/// Adds `src` into `dst` starting at limb offset `offset`.
fn overlay_add(dst: &mut [u64], src: &[u64], offset: usize) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < src.len() {
        dst[offset + i] = adc(dst[offset + i], src[i], &mut carry);
        i += 1;
    }
    while carry != 0 {
        dst[offset + i] = adc(dst[offset + i], 0, &mut carry);
        i += 1;
    }
}

impl BigUint {
    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut v = self.clone();
            if bits == 0 {
                return v;
            }
            v.limbs = Vec::new();
            return v;
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push(l << bit_shift | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        BigUint::from_limbs(limbs)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut v = BigUint {
            limbs: self.limbs[limb_shift..].to_vec(),
        };
        v.shr_assign(bits % LIMB_BITS);
        v
    }

    /// Right shift by `bits` in place, keeping the allocation.
    pub(crate) fn shr_assign(&mut self, bits: usize) {
        let limb_shift = (bits / LIMB_BITS).min(self.limbs.len());
        self.limbs.drain(..limb_shift);
        let bit_shift = bits % LIMB_BITS;
        if bit_shift != 0 {
            let mut carry = 0u64;
            for l in self.limbs.iter_mut().rev() {
                let next_carry = *l << (LIMB_BITS - bit_shift);
                *l = *l >> bit_shift | carry;
                carry = next_carry;
            }
        }
        self.normalize();
    }

    /// Multiplies by a single limb.
    pub fn mul_small(&self, k: u64) -> BigUint {
        if k == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = l as u128 * k as u128 + carry;
            limbs.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            limbs.push(carry as u64);
        }
        BigUint::from_limbs(limbs)
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn div_rem_small(&self, k: u64) -> (BigUint, u64) {
        assert_ne!(k, 0, "division by zero");
        let mut rem = 0u128;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = rem << 64 | self.limbs[i] as u128;
            q[i] = (cur / k as u128) as u64;
            rem = cur % k as u128;
        }
        (BigUint::from_limbs(q), rem as u64)
    }

    /// Divides, returning `(quotient, remainder)` (Knuth Algorithm D).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_small(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let v_hi = vn[n - 1];
        let v_lo = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder.
            let num = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
            let mut qhat = num / v_hi as u128;
            let mut rhat = num % v_hi as u128;
            while qhat >> 64 != 0 || qhat * v_lo as u128 > (rhat << 64 | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_hi as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * vn
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q̂ was one too large: add the divisor back.
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    un[j + i] = adc(un[j + i], vn[i], &mut carry);
                }
                un[j + n] = un[j + n].wrapping_add(carry);
            }
            q[j] = qhat as u64;
        }

        let rem = BigUint::from_limbs(un[..n].to_vec()).shr(shift);
        (BigUint::from_limbs(q), rem)
    }

    /// Raises to an integer power (plain, non-modular).
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = a.shr(a_tz);
        b = b.shr(b_tz);
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = &b - &a;
            if b.is_zero() {
                return a.shl(common);
            }
            b = b.shr(b.trailing_zeros());
        }
    }

    /// Number of trailing zero bits (`0` for the value zero).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Checked subtraction: `None` when `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if other > self {
            None
        } else {
            Some(self - other)
        }
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut limbs = self.limbs.clone();
        add_assign_limbs(&mut limbs, &rhs.limbs);
        BigUint::from_limbs(limbs)
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    /// Panics on underflow; use [`BigUint::checked_sub`] when unsure.
    fn sub(self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        let mut limbs = self.limbs.clone();
        sub_assign_limbs(&mut limbs, &rhs.limbs);
        BigUint::from_limbs(limbs)
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_karatsuba(&self.limbs, &rhs.limbs))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        &self % rhs
    }
}

impl BitAnd for &BigUint {
    type Output = BigUint;
    fn bitand(self, rhs: &BigUint) -> BigUint {
        let limbs = self
            .limbs
            .iter()
            .zip(rhs.limbs.iter())
            .map(|(a, b)| a & b)
            .collect();
        BigUint::from_limbs(limbs)
    }
}

impl BitOr for &BigUint {
    type Output = BigUint;
    fn bitor(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = long.limbs.clone();
        for (l, &s) in limbs.iter_mut().zip(short.limbs.iter()) {
            *l |= s;
        }
        BigUint::from_limbs(limbs)
    }
}

impl BitXor for &BigUint {
    type Output = BigUint;
    fn bitxor(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = long.limbs.clone();
        for (l, &s) in limbs.iter_mut().zip(short.limbs.iter()) {
            *l ^= s;
        }
        BigUint::from_limbs(limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> BigUint {
        BigUint::from_dec_str(s).unwrap()
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = BigUint::one();
        let sum = &a + &b;
        assert_eq!(sum, BigUint::power_of_two(128));
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = BigUint::power_of_two(128);
        let b = BigUint::one();
        assert_eq!(&(&a - &b) + &b, a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from(2u64);
    }

    #[test]
    fn checked_sub_none_on_underflow() {
        assert!(BigUint::one().checked_sub(&BigUint::from(2u64)).is_none());
        assert_eq!(
            BigUint::from(2u64).checked_sub(&BigUint::one()),
            Some(BigUint::one())
        );
    }

    #[test]
    fn mul_matches_known_values() {
        let a = n("123456789012345678901234567890");
        let b = n("987654321098765432109876543210");
        let expect = n("121932631137021795226185032733622923332237463801111263526900");
        assert_eq!(&a * &b, expect);
        assert_eq!(&a * &BigUint::zero(), BigUint::zero());
        assert_eq!(&a * &BigUint::one(), a);
    }

    #[test]
    fn karatsuba_agrees_with_schoolbook() {
        // Operands straddle the Karatsuba threshold.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..80u64 {
            x = x.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(i);
            limbs_a.push(x);
            x = x.rotate_left(17) ^ i;
            limbs_b.push(x);
        }
        let a = BigUint::from_limbs(limbs_a.clone());
        let b = BigUint::from_limbs(limbs_b.clone());
        let school = BigUint::from_limbs(super::mul_schoolbook(&limbs_a, &limbs_b));
        assert_eq!(&a * &b, school);
    }

    #[test]
    fn div_rem_matches_reconstruction() {
        let a = n("340282366920938463463374607431768211455123456789");
        let b = n("18446744073709551629");
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_edge_cases() {
        let a = n("999");
        assert_eq!(a.div_rem(&n("1000")), (BigUint::zero(), a.clone()));
        assert_eq!(a.div_rem(&a), (BigUint::one(), BigUint::zero()));
        let (q, r) = a.div_rem(&BigUint::one());
        assert_eq!((q, r), (a.clone(), BigUint::zero()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn div_rem_stress_knuth_d3_case() {
        // Dividend/divisor shapes that exercise the q̂ correction branch.
        let a = BigUint::from_limbs(vec![0, 0, 0x8000_0000_0000_0000, 1]);
        let b = BigUint::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn shifts_round_trip() {
        let v = n("123456789012345678901234567890");
        for s in [0usize, 1, 63, 64, 65, 130] {
            assert_eq!(v.shl(s).shr(s), v);
        }
        assert_eq!(v.shr(1000), BigUint::zero());
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(BigUint::from(2u64).pow(10), BigUint::from(1024u64));
        assert_eq!(BigUint::from(7u64).pow(0), BigUint::one());
        assert_eq!(BigUint::zero().pow(5), BigUint::zero());
        assert_eq!(BigUint::from(10u64).pow(20), n("100000000000000000000"));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(
            BigUint::from(48u64).gcd(&BigUint::from(36u64)),
            BigUint::from(12u64)
        );
        assert_eq!(
            BigUint::zero().gcd(&BigUint::from(5u64)),
            BigUint::from(5u64)
        );
        assert_eq!(
            BigUint::from(5u64).gcd(&BigUint::zero()),
            BigUint::from(5u64)
        );
        let a = n("123456789012345678901234567890");
        assert_eq!(a.gcd(&a), a);
    }

    #[test]
    fn bit_ops() {
        let a = BigUint::from(0b1100u64);
        let b = BigUint::from(0b1010u64);
        assert_eq!(&a & &b, BigUint::from(0b1000u64));
        assert_eq!(&a | &b, BigUint::from(0b1110u64));
        assert_eq!(&a ^ &b, BigUint::from(0b0110u64));
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(BigUint::power_of_two(100).trailing_zeros(), 100);
        assert_eq!(BigUint::from(12u64).trailing_zeros(), 2);
    }
}
