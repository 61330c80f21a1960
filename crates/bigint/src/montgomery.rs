//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Every DL-group multiplication in the framework (ElGamal, Schnorr proofs,
//! partial decryptions, comb and multi-exponentiation terms) runs through
//! [`Montgomery`]'s multiplication kernel, so on the DL instantiation this
//! is the performance-critical code of the whole reproduction; the curve
//! fields run on [`Montgomery4`](crate::Montgomery4) instead. The inner
//! loops work on fixed-capacity stack buffers ([`MAX_LIMBS`]) — no heap
//! allocation per multiplication — and the shipped DL widths (16, 32 and
//! 48 limbs) and the 1–4-limb moduli get a const-width kernel.

// The limb kernels walk several same-index arrays (operand, modulus,
// accumulator) while threading a carry/borrow; indexed loops are the
// clearest rendering and clippy's zip/iterator rewrite obscures them.
#![allow(clippy::needless_range_loop)]

use crate::uint::BigUint;

/// Maximum modulus size in limbs (3072-bit DL group = 48 limbs).
pub const MAX_LIMBS: usize = 48;

/// An element held in Montgomery form (`a·R mod n`).
///
/// Produced by [`Montgomery::enter`]; staying in Montgomery form across a
/// long computation (e.g. an elliptic-curve scalar multiplication) avoids
/// the per-operation domain conversions of [`Montgomery::mul`].
#[derive(Clone, Debug)]
pub struct MontElem {
    limbs: [u64; MAX_LIMBS],
}

impl PartialEq for MontElem {
    fn eq(&self, other: &Self) -> bool {
        self.limbs == other.limbs
    }
}

impl Eq for MontElem {}

/// Precomputed context for Montgomery multiplication modulo an odd `n`.
///
/// # Example
///
/// ```
/// use ppgr_bigint::{BigUint, Montgomery};
///
/// let m = Montgomery::new(BigUint::from(101u64));
/// let a = BigUint::from(7u64);
/// assert_eq!(m.pow(&a, &BigUint::from(100u64)), BigUint::one()); // Fermat
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery {
    n: BigUint,
    /// Modulus limbs, padded into a fixed buffer.
    n_limbs: [u64; MAX_LIMBS],
    /// Number of significant limbs of `n`.
    limbs: usize,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` where `R = 2^(64·limbs)`; used to enter Montgomery form.
    r2: MontElem,
    /// `R mod n`, i.e. Montgomery form of `1`.
    r1: MontElem,
}

impl Montgomery {
    /// Builds a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero, or wider than `MAX_LIMBS` limbs.
    pub fn new(n: BigUint) -> Self {
        assert!(n.is_odd(), "Montgomery reduction requires an odd modulus");
        let limbs = n.limbs().len();
        assert!(limbs <= MAX_LIMBS, "modulus exceeds MAX_LIMBS");
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n mod 2^64.
        let mut inv = n0; // valid to 3 bits
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();
        let mut n_limbs = [0u64; MAX_LIMBS];
        n_limbs[..limbs].copy_from_slice(n.limbs());
        let r1_big = BigUint::power_of_two(64 * limbs) % &n;
        let r2_big = BigUint::power_of_two(128 * limbs) % &n;
        let to_fixed = |v: &BigUint| {
            let mut out = [0u64; MAX_LIMBS];
            out[..v.limbs().len()].copy_from_slice(v.limbs());
            MontElem { limbs: out }
        };
        Montgomery {
            n_limbs,
            limbs,
            n_prime,
            r2: to_fixed(&r2_big),
            r1: to_fixed(&r1_big),
            n,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// CIOS Montgomery multiplication specialised to an `S`-limb modulus.
    ///
    /// The working buffer is `S` limbs plus two scalar overflow words, so a
    /// narrow modulus never touches — or zeroes — the full [`MAX_LIMBS`]
    /// scratch space, and with the width known at compile time every loop
    /// bound is a constant the optimizer can unroll. At 1–4 limbs the
    /// memset/copy overhead of the generic path's wide buffers costs more
    /// than the multiplication itself; at the DL widths (16, 32, 48 limbs)
    /// the constant bounds alone make it about 1.2–1.3× faster than the
    /// generic loop.
    #[inline]
    fn mont_mul_small<const S: usize>(
        &self,
        a: &[u64; MAX_LIMBS],
        b: &[u64; MAX_LIMBS],
    ) -> [u64; MAX_LIMBS] {
        let n = &self.n_limbs;
        let mut t = [0u64; S];
        let mut t_hi = 0u64; // t[S]
        for i in 0..S {
            let ai = a[i];
            let mut carry = 0u128;
            for j in 0..S {
                let v = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = v as u64;
                carry = v >> 64;
            }
            let v = t_hi as u128 + carry;
            t_hi = v as u64;
            let t_top = (v >> 64) as u64; // t[S+1]
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..S {
                let v = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = t_hi as u128 + carry;
            t[S - 1] = v as u64;
            t_hi = t_top + ((v >> 64) as u64);
        }
        // Conditional subtraction: t may be in [0, 2n).
        let ge = t_hi != 0 || {
            let mut ge = true;
            for i in (0..S).rev() {
                if t[i] != n[i] {
                    ge = t[i] > n[i];
                    break;
                }
            }
            ge
        };
        if ge {
            let mut borrow = 0u64;
            for i in 0..S {
                let v = (t[i] as u128).wrapping_sub(n[i] as u128 + borrow as u128);
                t[i] = v as u64;
                borrow = ((v >> 64) as u64) & 1;
            }
        }
        let mut out = [0u64; MAX_LIMBS];
        out[..S].copy_from_slice(&t);
        out
    }

    /// CIOS Montgomery multiplication on fixed buffers.
    fn mont_mul_fixed(&self, a: &[u64; MAX_LIMBS], b: &[u64; MAX_LIMBS]) -> [u64; MAX_LIMBS] {
        // The DL groups' 1024/2048/3072-bit primes (16, 32, 48 limbs) carry
        // every DL exponentiation, and the 1–4-limb moduli are where the
        // wide buffers cost most; both get const-width kernels. Other widths
        // (test moduli, prime candidates) run the generic loop below.
        match self.limbs {
            1 => return self.mont_mul_small::<1>(a, b),
            2 => return self.mont_mul_small::<2>(a, b),
            3 => return self.mont_mul_small::<3>(a, b),
            4 => return self.mont_mul_small::<4>(a, b),
            16 => return self.mont_mul_small::<16>(a, b),
            32 => return self.mont_mul_small::<32>(a, b),
            48 => return self.mont_mul_small::<48>(a, b),
            _ => {}
        }
        let s = self.limbs;
        let n = &self.n_limbs;
        let mut t = [0u64; MAX_LIMBS + 2];
        for i in 0..s {
            let ai = a[i];
            // t += ai * b
            let mut carry = 0u128;
            if ai != 0 {
                for j in 0..s {
                    let v = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                    t[j] = v as u64;
                    carry = v >> 64;
                }
            }
            let v = t[s] as u128 + carry;
            t[s] = v as u64;
            t[s + 1] = (v >> 64) as u64;
            // m = t[0] * n' mod 2^64;  t = (t + m·n) / 2^64
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..s {
                let v = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = t[s] as u128 + carry;
            t[s - 1] = v as u64;
            t[s] = t[s + 1] + (v >> 64) as u64;
            t[s + 1] = 0;
        }
        // Conditional subtraction: t may be in [0, 2n).
        let mut out = [0u64; MAX_LIMBS];
        out[..s].copy_from_slice(&t[..s]);
        if t[s] != 0 || !Self::less_than(&out, n, s) {
            Self::sub_in_place(&mut out, n, s, t[s]);
        }
        out
    }

    #[inline]
    fn less_than(a: &[u64; MAX_LIMBS], b: &[u64; MAX_LIMBS], s: usize) -> bool {
        for i in (0..s).rev() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
        }
        false
    }

    #[inline]
    fn sub_in_place(a: &mut [u64; MAX_LIMBS], b: &[u64; MAX_LIMBS], s: usize, _hi: u64) {
        let mut borrow = 0u64;
        for i in 0..s {
            let t = (a[i] as u128).wrapping_sub(b[i] as u128 + borrow as u128);
            a[i] = t as u64;
            borrow = ((t >> 64) as u64) & 1;
        }
    }

    /// Enters Montgomery form.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` (callers reduce first; this is the hot path).
    pub fn enter(&self, a: &BigUint) -> MontElem {
        assert!(a < &self.n, "operand must be reduced");
        let mut buf = [0u64; MAX_LIMBS];
        buf[..a.limbs().len()].copy_from_slice(a.limbs());
        MontElem {
            limbs: self.mont_mul_fixed(&buf, &self.r2.limbs),
        }
    }

    /// Leaves Montgomery form.
    pub fn leave(&self, a: &MontElem) -> BigUint {
        let mut one = [0u64; MAX_LIMBS];
        one[0] = 1;
        let out = self.mont_mul_fixed(&a.limbs, &one);
        BigUint::from_limbs(out[..self.limbs].to_vec())
    }

    /// Montgomery form of `1`.
    pub fn one_elem(&self) -> MontElem {
        self.r1.clone()
    }

    /// Montgomery form of `0`.
    pub fn zero_elem(&self) -> MontElem {
        MontElem {
            limbs: [0u64; MAX_LIMBS],
        }
    }

    /// Returns `true` if the element is zero (zero is fixed by the domain map).
    pub fn is_zero_elem(&self, a: &MontElem) -> bool {
        a.limbs[..self.limbs].iter().all(|&l| l == 0)
    }

    /// In-domain multiplication.
    pub fn mmul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        MontElem {
            limbs: self.mont_mul_fixed(&a.limbs, &b.limbs),
        }
    }

    /// In-domain squaring.
    pub fn msqr(&self, a: &MontElem) -> MontElem {
        self.mmul(a, a)
    }

    /// Modular addition on an `S`-limb modulus (small-size kernel).
    #[inline]
    fn add_small<const S: usize>(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let n = &self.n_limbs;
        let mut t = [0u64; S];
        let mut carry = 0u128;
        for i in 0..S {
            let v = a.limbs[i] as u128 + b.limbs[i] as u128 + carry;
            t[i] = v as u64;
            carry = v >> 64;
        }
        let ge = carry != 0 || {
            let mut ge = true;
            for i in (0..S).rev() {
                if t[i] != n[i] {
                    ge = t[i] > n[i];
                    break;
                }
            }
            ge
        };
        if ge {
            let mut borrow = 0u64;
            for i in 0..S {
                let v = (t[i] as u128).wrapping_sub(n[i] as u128 + borrow as u128);
                t[i] = v as u64;
                borrow = ((v >> 64) as u64) & 1;
            }
        }
        let mut out = [0u64; MAX_LIMBS];
        out[..S].copy_from_slice(&t);
        MontElem { limbs: out }
    }

    /// Modular subtraction on an `S`-limb modulus (small-size kernel).
    #[inline]
    fn sub_small<const S: usize>(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let mut t = [0u64; S];
        let mut borrow = 0u64;
        for i in 0..S {
            let v = (a.limbs[i] as u128).wrapping_sub(b.limbs[i] as u128 + borrow as u128);
            t[i] = v as u64;
            borrow = ((v >> 64) as u64) & 1;
        }
        if borrow != 0 {
            let mut carry = 0u128;
            for i in 0..S {
                let v = t[i] as u128 + self.n_limbs[i] as u128 + carry;
                t[i] = v as u64;
                carry = v >> 64;
            }
        }
        let mut out = [0u64; MAX_LIMBS];
        out[..S].copy_from_slice(&t);
        MontElem { limbs: out }
    }

    /// In-domain addition (Montgomery form is linear, so plain modular add).
    pub fn madd(&self, a: &MontElem, b: &MontElem) -> MontElem {
        match self.limbs {
            1 => return self.add_small::<1>(a, b),
            2 => return self.add_small::<2>(a, b),
            3 => return self.add_small::<3>(a, b),
            4 => return self.add_small::<4>(a, b),
            _ => {}
        }
        let s = self.limbs;
        let mut out = [0u64; MAX_LIMBS];
        let mut carry = 0u128;
        for i in 0..s {
            let v = a.limbs[i] as u128 + b.limbs[i] as u128 + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        if carry != 0 || !Self::less_than(&out, &self.n_limbs, s) {
            Self::sub_in_place(&mut out, &self.n_limbs, s, carry as u64);
        }
        MontElem { limbs: out }
    }

    /// In-domain subtraction.
    pub fn msub(&self, a: &MontElem, b: &MontElem) -> MontElem {
        match self.limbs {
            1 => return self.sub_small::<1>(a, b),
            2 => return self.sub_small::<2>(a, b),
            3 => return self.sub_small::<3>(a, b),
            4 => return self.sub_small::<4>(a, b),
            _ => {}
        }
        let s = self.limbs;
        let mut out = [0u64; MAX_LIMBS];
        let mut borrow = 0u64;
        for i in 0..s {
            let t = (a.limbs[i] as u128).wrapping_sub(b.limbs[i] as u128 + borrow as u128);
            out[i] = t as u64;
            borrow = ((t >> 64) as u64) & 1;
        }
        if borrow != 0 {
            // Add the modulus back.
            let mut carry = 0u128;
            for i in 0..s {
                let v = out[i] as u128 + self.n_limbs[i] as u128 + carry;
                out[i] = v as u64;
                carry = v >> 64;
            }
        }
        MontElem { limbs: out }
    }

    /// In-domain doubling.
    pub fn mdbl(&self, a: &MontElem) -> MontElem {
        self.madd(a, a)
    }

    /// In-domain small-constant multiple (`k` small; repeated doubling).
    pub fn msmall(&self, a: &MontElem, k: u64) -> MontElem {
        let mut acc = self.zero_elem();
        let mut base = a.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc = self.madd(&acc, &base);
            }
            k >>= 1;
            if k > 0 {
                base = self.mdbl(&base);
            }
        }
        acc
    }

    /// In-domain windowed exponentiation: `a^exp` staying in Montgomery
    /// form throughout (no per-call domain conversions).
    pub fn mpow(&self, base: &MontElem, exp: &BigUint) -> MontElem {
        if exp.is_zero() {
            return self.one_elem();
        }
        let bits = exp.bits();
        if bits <= 32 {
            // Small exponent: plain square-and-multiply beats building a
            // 16-entry window table.
            let mut acc = base.clone();
            for i in (0..bits - 1).rev() {
                acc = self.msqr(&acc);
                if exp.bit(i) {
                    acc = self.mmul(&acc, base);
                }
            }
            return acc;
        }
        // Precompute base^0..base^15.
        let mut table = Vec::with_capacity(16);
        table.push(self.one_elem());
        table.push(base.clone());
        for i in 2..16 {
            let prev = self.mmul(&table[i - 1], base);
            table.push(prev);
        }
        let mut acc: Option<MontElem> = None;
        let mut i = bits;
        while i > 0 {
            let take = if i.is_multiple_of(4) { 4 } else { i % 4 };
            let mut window = 0usize;
            for k in 0..take {
                window = window << 1 | exp.bit(i - 1 - k) as usize;
            }
            acc = Some(match acc {
                None => table[window].clone(),
                Some(mut a) => {
                    for _ in 0..take {
                        a = self.msqr(&a);
                    }
                    if window != 0 {
                        a = self.mmul(&a, &table[window]);
                    }
                    a
                }
            });
            i -= take;
        }
        acc.expect("nonzero exponent")
    }

    /// Shared-recoding batch exponentiation: raises every base to the
    /// *same* exponent. The exponent's 4-bit window digits are recoded
    /// once and replayed for every base, so each base pays only its own
    /// 16-entry table plus the shared square-and-multiply schedule. This
    /// is the shape of a partial decryption across a whole ciphertext
    /// set: one secret key share, many `β` components.
    pub fn mpow_many(&self, bases: &[MontElem], exp: &BigUint) -> Vec<MontElem> {
        if bases.is_empty() {
            return Vec::new();
        }
        if exp.is_zero() {
            return vec![self.one_elem(); bases.len()];
        }
        // MSB-first window digits, identical to the `mpow` schedule.
        let bits = exp.bits();
        let mut digits: Vec<(usize, u32)> = Vec::with_capacity(bits.div_ceil(4));
        let mut i = bits;
        while i > 0 {
            let take = if i.is_multiple_of(4) { 4 } else { i % 4 };
            let mut window = 0usize;
            for k in 0..take {
                window = window << 1 | exp.bit(i - 1 - k) as usize;
            }
            digits.push((window, take as u32));
            i -= take;
        }
        bases
            .iter()
            .map(|base| {
                let mut table = Vec::with_capacity(16);
                table.push(self.one_elem());
                table.push(base.clone());
                for i in 2..16 {
                    let prev = self.mmul(&table[i - 1], base);
                    table.push(prev);
                }
                let mut acc: Option<MontElem> = None;
                for &(window, take) in &digits {
                    acc = Some(match acc {
                        None => table[window].clone(),
                        Some(mut a) => {
                            for _ in 0..take {
                                a = self.msqr(&a);
                            }
                            if window != 0 {
                                a = self.mmul(&a, &table[window]);
                            }
                            a
                        }
                    });
                }
                acc.expect("nonzero exponent")
            })
            .collect()
    }

    /// In-domain inverse of a nonzero element via Fermat's little theorem
    /// (`a^{n-2}`); the modulus must be prime, which holds for every modulus
    /// the framework inverts under (curve fields, DL primes, group orders).
    ///
    /// This is several times faster than a [`BigUint`] extended-GCD inverse
    /// because it runs entirely on fixed-size Montgomery limbs.
    pub fn minv(&self, a: &MontElem) -> MontElem {
        let e = self
            .n
            .checked_sub(&BigUint::from(2u64))
            .expect("modulus is at least 3");
        self.mpow(a, &e)
    }

    /// Batch in-domain inversion by Montgomery's trick: one [`Self::minv`]
    /// plus three multiplications per element instead of one inversion each.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_minv(&self, elems: &[MontElem]) -> Vec<MontElem> {
        if elems.is_empty() {
            return Vec::new();
        }
        // prefix[i] = elems[0]·…·elems[i]
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = elems[0].clone();
        assert!(!self.is_zero_elem(&acc), "cannot invert zero");
        prefix.push(acc.clone());
        for e in &elems[1..] {
            assert!(!self.is_zero_elem(e), "cannot invert zero");
            acc = self.mmul(&acc, e);
            prefix.push(acc.clone());
        }
        let mut inv_acc = self.minv(prefix.last().expect("nonempty"));
        let mut out = vec![self.zero_elem(); elems.len()];
        for i in (1..elems.len()).rev() {
            out[i] = self.mmul(&inv_acc, &prefix[i - 1]);
            inv_acc = self.mmul(&inv_acc, &elems[i]);
        }
        out[0] = inv_acc;
        out
    }

    /// Modular multiplication `a·b mod n` (operands in plain form).
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.enter(&(a % &self.n));
        let bm = self.enter(&(b % &self.n));
        self.leave(&self.mmul(&am, &bm))
    }

    /// Modular squaring `a² mod n`.
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        self.mul(a, a)
    }

    /// Windowed modular exponentiation `base^exp mod n`.
    ///
    /// Uses a fixed 4-bit window; the exponent is processed left-to-right.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one() % &self.n;
        }
        let base = base % &self.n;
        let bm = self.enter(&base);
        self.leave(&self.mpow(&bm, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_modpow(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
        let mut acc = BigUint::one() % n;
        let mut b = base % n;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = &(&acc * &b) % n;
            }
            b = &(&b * &b) % n;
        }
        acc
    }

    #[test]
    fn mul_matches_plain_reduction() {
        let n = BigUint::from_dec_str("170141183460469231731687303715884105727").unwrap(); // 2^127-1
        let m = Montgomery::new(n.clone());
        let a = BigUint::from_dec_str("123456789123456789123456789").unwrap();
        let b = BigUint::from_dec_str("987654321987654321987654321").unwrap();
        assert_eq!(m.mul(&a, &b), &(&a * &b) % &n);
    }

    #[test]
    fn pow_matches_naive_small() {
        let n = BigUint::from(1_000_003u64);
        let m = Montgomery::new(n.clone());
        for (b, e) in [(2u64, 10u64), (3, 0), (12345, 67891), (999999, 1000002)] {
            let b = BigUint::from(b);
            let e = BigUint::from(e);
            assert_eq!(m.pow(&b, &e), naive_modpow(&b, &e, &n), "b^e mod n");
        }
    }

    #[test]
    fn pow_matches_naive_multilimb() {
        let n = BigUint::from_hex_str("f0000000000000000000000000000000000000000000000000000001d")
            .unwrap();
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        let m = Montgomery::new(n.clone());
        let b = BigUint::from_hex_str("abcdef0123456789abcdef0123456789abcdef").unwrap();
        let e = BigUint::from_hex_str("123456789abcdef0123456789").unwrap();
        assert_eq!(m.pow(&b, &e), naive_modpow(&b, &e, &n));
    }

    #[test]
    fn pow_zero_and_one_exponents() {
        let n = BigUint::from(97u64);
        let m = Montgomery::new(n);
        let b = BigUint::from(5u64);
        assert_eq!(m.pow(&b, &BigUint::zero()), BigUint::one());
        assert_eq!(m.pow(&b, &BigUint::one()), b);
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let n = BigUint::from(101u64);
        let m = Montgomery::new(n);
        let b = BigUint::from(10_100u64 + 7);
        assert_eq!(m.pow(&b, &BigUint::from(2u64)), BigUint::from(49u64));
    }

    #[test]
    fn fermat_little_theorem_on_prime() {
        // 2^521 - 1 is prime (Mersenne).
        let p = BigUint::power_of_two(521)
            .checked_sub(&BigUint::one())
            .unwrap();
        let m = Montgomery::new(p.clone());
        let a = BigUint::from(123456789u64);
        let e = p.checked_sub(&BigUint::one()).unwrap();
        assert_eq!(m.pow(&a, &e), BigUint::one());
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = Montgomery::new(BigUint::from(100u64));
    }

    #[test]
    fn mont_elem_ring_ops() {
        let n = BigUint::from(1_000_003u64);
        let m = Montgomery::new(n.clone());
        let a = BigUint::from(999_999u64);
        let b = BigUint::from(777u64);
        let am = m.enter(&a);
        let bm = m.enter(&b);
        assert_eq!(m.leave(&m.mmul(&am, &bm)), &(&a * &b) % &n);
        assert_eq!(m.leave(&m.madd(&am, &bm)), &(&a + &b) % &n);
        assert_eq!(m.leave(&m.msub(&bm, &am)), &(&(&b + &n) - &a) % &n);
        assert_eq!(m.leave(&m.msqr(&am)), &(&a * &a) % &n);
        assert_eq!(m.leave(&m.msmall(&bm, 8)), BigUint::from(777u64 * 8));
        assert_eq!(m.leave(&m.one_elem()), BigUint::one());
        assert!(m.is_zero_elem(&m.zero_elem()));
        assert_eq!(m.leave(&m.enter(&BigUint::zero())), BigUint::zero());
    }

    #[test]
    fn madd_handles_wraparound_near_modulus() {
        let n = BigUint::from(1_000_003u64);
        let m = Montgomery::new(n.clone());
        let a = BigUint::from(1_000_002u64);
        let am = m.enter(&a);
        // (n-1) + (n-1) ≡ n-2
        assert_eq!(m.leave(&m.madd(&am, &am)), BigUint::from(1_000_001u64));
        // (n-1) - 0 = n-1 ; 0 - (n-1) = 1
        let zero = m.zero_elem();
        assert_eq!(m.leave(&m.msub(&zero, &am)), BigUint::one());
    }

    #[test]
    fn mpow_matches_pow_across_limb_sizes() {
        // Exercises the 1-, 2-, 3-, 4-limb kernels and the generic path.
        for hex in [
            "65",                                                               // 1 limb
            "7fffffffffffffffffffffffffffffff",                                 // 2 limbs
            "ffffffffffffffffffffffffffffffff7fffffff", // 3 limbs (secp160r1 p)
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", // 4 limbs
        ] {
            let n = BigUint::from_hex_str(hex).unwrap();
            let m = Montgomery::new(n.clone());
            let b = BigUint::from(0x1234_5678_9abcu64) % &n;
            for e in [0u64, 1, 2, 7, 15, 16, 255, 65537] {
                let e = BigUint::from(e);
                let via_mpow = m.leave(&m.mpow(&m.enter(&b), &e));
                assert_eq!(via_mpow, naive_modpow(&b, &e, &n), "n={hex} e={e:?}");
            }
        }
    }

    #[test]
    fn mpow_many_matches_mpow() {
        let n = BigUint::from_hex_str("ffffffffffffffffffffffffffffffff7fffffff").unwrap();
        let m = Montgomery::new(n.clone());
        let bases: Vec<MontElem> = [2u64, 3, 0x1234_5678_9abc, 999_999_937, 1]
            .iter()
            .map(|&v| m.enter(&BigUint::from(v)))
            .collect();
        for e in [0u64, 1, 15, 65537, u64::MAX] {
            let e = BigUint::from(e);
            let batch = m.mpow_many(&bases, &e);
            assert_eq!(batch.len(), bases.len());
            for (b, out) in bases.iter().zip(&batch) {
                assert_eq!(m.leave(out), m.leave(&m.mpow(b, &e)), "e={e:?}");
            }
        }
        assert!(m.mpow_many(&[], &BigUint::from(7u64)).is_empty());
    }

    #[test]
    fn minv_inverts_mod_prime() {
        let p = BigUint::from_hex_str("ffffffffffffffffffffffffffffffff7fffffff").unwrap();
        let m = Montgomery::new(p);
        let a = m.enter(&BigUint::from(123_456_789u64));
        let inv = m.minv(&a);
        assert_eq!(m.leave(&m.mmul(&a, &inv)), BigUint::one());
    }

    #[test]
    fn batch_minv_matches_minv() {
        let p = BigUint::from(1_000_003u64);
        let m = Montgomery::new(p);
        let elems: Vec<MontElem> = [3u64, 999_999, 42, 1, 500_001]
            .iter()
            .map(|&v| m.enter(&BigUint::from(v)))
            .collect();
        let batch = m.batch_minv(&elems);
        assert_eq!(batch.len(), elems.len());
        for (e, inv) in elems.iter().zip(&batch) {
            assert_eq!(m.leave(&m.mmul(e, inv)), BigUint::one());
        }
        assert!(m.batch_minv(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn batch_minv_rejects_zero() {
        let m = Montgomery::new(BigUint::from(97u64));
        let _ = m.batch_minv(&[m.zero_elem()]);
    }

    #[test]
    fn large_modulus_boundary_48_limbs() {
        // A 3072-bit odd modulus (exactly MAX_LIMBS limbs).
        let n = BigUint::power_of_two(3072)
            .checked_sub(&BigUint::from(1105u64))
            .unwrap();
        assert!(n.is_odd());
        let m = Montgomery::new(n.clone());
        let a = BigUint::power_of_two(3000);
        let e = BigUint::from(65537u64);
        assert_eq!(m.pow(&a, &e), naive_modpow(&a, &e, &n));
    }
}
