//! The field kernels of a [`Montgomery`] context, and the trait code on
//! them is written against.
//!
//! A kernel is a type implementing [`FieldKernel`]: [`P160Kernel`], a
//! pseudo-Mersenne reduction for the secp160r1 prime, or
//! [`CiosKernel<S>`](CiosKernel), Montgomery CIOS at `S` limbs with
//! `R = 2^(64·S)`, which serves every other odd modulus of at most `S`
//! limbs — a narrower modulus's padded limbs multiply and compare as
//! zeros. An element is the residue's limbs at the kernel's width:
//! `[u64; 4]` on the curve fields, `[u64; 16]`, `[u64; 32]` and
//! `[u64; 48]` on the 1024-, 2048- and 3072-bit DL primes. Exponentiation,
//! inversion, batch inversion and the square root are written once, on the
//! trait. Code generic over it runs every field operation as a direct
//! call, and [`with_kernel!`](crate::with_kernel) hands it a context's
//! kernel after one match.
//!
//! The four-limb CIOS multiply is inlined into every caller, as the P-160
//! one is: a curve formula is a dozen multiplications in a row. At the DL
//! widths a multiplication is hundreds of word products, so each width
//! keeps one out-of-line copy that every call site shares.

// The limb kernels walk several same-index arrays (operand, modulus,
// accumulator) while threading a carry/borrow; indexed loops are the
// clearest rendering and clippy's zip/iterator rewrite obscures them.
#![allow(clippy::needless_range_loop)]

use crate::montgomery::{Montgomery, MAX_LIMBS};
use crate::uint::BigUint;
use std::fmt;

/// The secp160r1 field prime `2^160 − 2^31 − 1`, little-endian limbs.
pub(crate) const P160: [u64; 4] = [0xFFFF_FFFF_7FFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF, 0];

/// Reduces a three-limb value below `2p` to a residue below the secp160r1
/// prime.
#[inline(always)]
fn csub_p160(t: [u64; 3]) -> [u64; 4] {
    // Subtract p unconditionally and select on the borrow — a
    // data-dependent branch here mispredicts about half the time in every
    // multiplication.
    let (s0, b0) = t[0].overflowing_sub(P160[0]);
    let (s1a, b1a) = t[1].overflowing_sub(P160[1]);
    let (s1, b1b) = s1a.overflowing_sub(b0 as u64);
    let (s2, b2) = t[2].overflowing_sub(P160[2] + (b1a as u64 + b1b as u64));
    // `b2` set means t < p: keep t, else keep the difference.
    let keep = (b2 as u64).wrapping_neg();
    [
        s0 ^ (keep & (s0 ^ t[0])),
        s1 ^ (keep & (s1 ^ t[1])),
        s2 ^ (keep & (s2 ^ t[2])),
        0,
    ]
}

/// Reduces a value `t < 2^192` to a residue below the secp160r1 prime.
#[inline(always)]
fn fold_p160(t: [u64; 3]) -> [u64; 4] {
    // t = H·2^160 + L ≡ H·(2^31 + 1) + L with H < 2^32, so the tail is
    // below 2^64 and folds in as a single-limb add; the sum is below
    // 2^160 + 2^64 < 2p.
    let h = t[2] >> 32;
    let (r0, c0) = t[0].overflowing_add(h + (h << 31));
    let (r1, c1) = t[1].overflowing_add(c0 as u64);
    // Below 2^32 + 1: cannot overflow.
    let r2 = (t[2] & 0xFFFF_FFFF) + c1 as u64;
    csub_p160([r0, r1, r2])
}

/// Reduces a 320-bit product to a residue below the secp160r1 prime.
#[inline(always)]
fn reduce_p160(t: &[u64; 6]) -> [u64; 4] {
    // First fold: X = H·2^160 + L ≡ H·(2^31 + 1) + L, with H < 2^160.
    let h0 = (t[2] >> 32) | (t[3] << 32);
    let h1 = (t[3] >> 32) | (t[4] << 32);
    let h2 = (t[4] >> 32) | (t[5] << 32);
    // H << 31 (four limbs; H < 2^160 so nothing spills past limb 3).
    let hs0 = h0 << 31;
    let hs1 = (h1 << 31) | (h0 >> 33);
    let hs2 = (h2 << 31) | (h1 >> 33);
    let hs3 = h2 >> 33;
    // S = L + H + (H << 31) < 2^160 + 2^160 + 2^191 < 2^192.
    let l = [t[0], t[1], t[2] & 0xFFFF_FFFF, 0];
    let h = [h0, h1, h2, 0];
    let hs = [hs0, hs1, hs2, hs3];
    let mut s = [0u64; 4];
    let mut carry = 0u128;
    for i in 0..4 {
        let v = l[i] as u128 + h[i] as u128 + hs[i] as u128 + carry;
        s[i] = v as u64;
        carry = v >> 64;
    }
    // Second fold: S < 2^192.
    fold_p160([s[0], s[1], s[2]])
}

/// Branchless modular addition for secp160r1 residues (three live limbs).
#[inline(always)]
fn add_p160(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    // Sum < 2p < 2^161. The top limbs are below 2^32, so their sum plus a
    // carry cannot overflow.
    let (t0, c0) = a[0].overflowing_add(b[0]);
    let (t1a, c1a) = a[1].overflowing_add(b[1]);
    let (t1, c1b) = t1a.overflowing_add(c0 as u64);
    let t2 = a[2] + b[2] + (c1a as u64 + c1b as u64);
    csub_p160([t0, t1, t2])
}

/// Branchless modular subtraction for secp160r1 residues.
#[inline(always)]
fn sub_p160(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let (t0, b0) = a[0].overflowing_sub(b[0]);
    let (t1a, b1a) = a[1].overflowing_sub(b[1]);
    let (t1, b1b) = t1a.overflowing_sub(b0 as u64);
    let (t2, b2) = a[2].overflowing_sub(b[2] + (b1a as u64 + b1b as u64));
    // On borrow, add the modulus back (masked so the no-borrow path adds 0).
    let mask = (b2 as u64).wrapping_neg();
    let (r0, c0) = t0.overflowing_add(mask & P160[0]);
    let (r1a, c1a) = t1.overflowing_add(mask & P160[1]);
    let (r1, c1b) = r1a.overflowing_add(c0 as u64);
    let r2 = t2
        .wrapping_add(mask & P160[2])
        .wrapping_add(c1a as u64 + c1b as u64);
    [r0, r1, r2, 0]
}

/// `k·a` modulo the secp160r1 prime for `k < 2^31`: one limb product,
/// below `2^191`, and one fold.
#[inline(always)]
fn small_p160(a: &[u64; 4], k: u64) -> [u64; 4] {
    let p0 = a[0] as u128 * k as u128;
    let p1 = a[1] as u128 * k as u128 + (p0 >> 64);
    // a[2] < 2^32, so this limb is below 2^63 + 2^31.
    let p2 = a[2] as u128 * k as u128 + (p1 >> 64);
    fold_p160([p0 as u64, p1 as u64, p2 as u64])
}

/// Schoolbook 3×3-limb product + pseudo-Mersenne reduction mod secp160r1.
#[inline(always)]
fn mul_p160(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 6];
    for i in 0..3 {
        let ai = a[i] as u128;
        let mut carry = 0u128;
        for j in 0..3 {
            let v = t[i + j] as u128 + ai * b[j] as u128 + carry;
            t[i + j] = v as u64;
            carry = v >> 64;
        }
        t[i + 3] = carry as u64;
    }
    reduce_p160(&t)
}

/// Dedicated squaring mod secp160r1: six word multiplies instead of nine
/// (the three cross products are computed once and doubled by shifting).
#[inline(always)]
fn sqr_p160(a: &[u64; 4]) -> [u64; 4] {
    // Cross terms a0a1·2^64 + a0a2·2^128 + a1a2·2^192, then doubled.
    let c01 = a[0] as u128 * a[1] as u128;
    let c02 = a[0] as u128 * a[2] as u128;
    let c12 = a[1] as u128 * a[2] as u128;
    let mut t = [0u64; 6];
    t[1] = c01 as u64;
    let mut v = (c01 >> 64) + (c02 as u64 as u128);
    t[2] = v as u64;
    v = (v >> 64) + (c02 >> 64) + (c12 as u64 as u128);
    t[3] = v as u64;
    v = (v >> 64) + (c12 >> 64);
    t[4] = v as u64;
    // Double the cross sum (bounded by 2^320, so the shift cannot spill
    // past limb 5, which is zero so far).
    let mut carry = 0u64;
    for limb in t.iter_mut() {
        let new_carry = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = new_carry;
    }
    // Add the squares at even limb offsets.
    let mut carry = 0u128;
    for (i, sq) in [
        a[0] as u128 * a[0] as u128,
        a[1] as u128 * a[1] as u128,
        a[2] as u128 * a[2] as u128,
    ]
    .into_iter()
    .enumerate()
    {
        let v = t[2 * i] as u128 + (sq as u64 as u128) + carry;
        t[2 * i] = v as u64;
        let v_hi = t[2 * i + 1] as u128 + (sq >> 64) + (v >> 64);
        t[2 * i + 1] = v_hi as u64;
        carry = v_hi >> 64;
    }
    reduce_p160(&t)
}

/// `t − n` if `carry` is set or `t ≥ n`, else `t`: the last step of a CIOS
/// multiplication or a modular addition, whose `t` (with `carry` above its
/// top limb) is below `2n`.
#[inline(always)]
fn csub<const S: usize>(mut t: [u64; S], carry: bool, n: &[u64; S]) -> [u64; S] {
    let ge = carry || {
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
    t
}

/// CIOS Montgomery multiplication at `S` limbs: `a·b·2^{−64·S} mod n` for
/// `a, b < n`, with `n_prime = −n^{−1} mod 2^64`.
#[inline(always)]
fn cios<const S: usize>(n: &[u64; S], n_prime: u64, a: &[u64; S], b: &[u64; S]) -> [u64; S] {
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
        let t_top = (v >> 64) as u64; // t[S + 1]
        let m = t[0].wrapping_mul(n_prime);
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
    csub(t, t_hi != 0, n)
}

/// [`cios`] out of line, for the DL widths.
#[inline(never)]
fn cios_wide<const S: usize>(n: &[u64; S], n_prime: u64, a: &[u64; S], b: &[u64; S]) -> [u64; S] {
    cios(n, n_prime, a, b)
}

/// The first `S` limbs of a context's padded buffer.
#[inline(always)]
fn head<const S: usize>(limbs: &[u64; MAX_LIMBS]) -> &[u64; S] {
    limbs
        .first_chunk()
        .expect("a kernel is at most MAX_LIMBS wide")
}

/// `a`'s limbs at `S` limbs.
///
/// # Panics
///
/// Panics if `a` is not below `field`'s modulus (callers reduce first;
/// this is the hot path).
#[inline]
fn padded<const S: usize>(field: &Montgomery, a: &BigUint) -> [u64; S] {
    assert!(a < &field.n, "operand must be reduced");
    let mut buf = [0u64; S];
    buf[..a.limbs().len()].copy_from_slice(a.limbs());
    buf
}

/// The bit length of the little-endian limbs `e`.
fn bit_len(e: &[u64]) -> usize {
    e.iter()
        .rposition(|&l| l != 0)
        .map_or(0, |i| 64 * i + 64 - e[i].leading_zeros() as usize)
}

/// The field arithmetic of one kernel of a [`Montgomery`] context.
///
/// Curve formulas, DL ladders and multi-exponentiations are written once,
/// generic over this trait, and run with the kernel's operations as direct
/// calls. [`with_kernel!`](crate::with_kernel) hands a context's kernel to
/// such code, matching on it once. A kernel borrows its context: elements
/// of one context mean nothing to another's kernel.
///
/// The arithmetic is inline. Exponentiation, inversion, batch inversion
/// and the square root are written once, generic over the kernel, and each
/// kernel's trait methods for them are not generic: this crate compiles
/// them once per kernel, and every crate calls that copy.
pub trait FieldKernel: Copy {
    /// An element of the domain: a residue's limbs at the kernel's width,
    /// in Montgomery form (plain on [`P160Kernel`]). Zero is all-zero
    /// limbs on every kernel. The limbs are readable and writable as a
    /// slice, so a caller holding plain limbs narrower than the kernel
    /// (a scalar at its order's width) moves them in and out without a
    /// [`BigUint`].
    type Elem: Copy + Eq + fmt::Debug + AsRef<[u64]> + AsMut<[u64]>;

    /// The context this kernel computes in.
    fn field(&self) -> &Montgomery;

    /// Enters the domain.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not below the modulus.
    fn enter(&self, a: &BigUint) -> Self::Elem;

    /// Leaves the domain.
    fn leave(&self, a: &Self::Elem) -> BigUint;

    /// The domain's `0`.
    fn zero(&self) -> Self::Elem;

    /// The domain's `1`.
    fn one(&self) -> Self::Elem;

    /// `a·b`.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `a²`.
    fn sqr(&self, a: &Self::Elem) -> Self::Elem;

    /// `a + b`.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `a − b`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `K·a` for a constant `1 ≤ K < 2^31` (the curve formulas ask for 2,
    /// 3, 4 and 8).
    fn small<const K: u64>(&self, a: &Self::Elem) -> Self::Elem;

    /// `base^exp` for the little-endian exponent limbs `exp`, which may
    /// carry zero limbs above their top: square-and-multiply for exponents
    /// of at most 32 bits, else fixed 4-bit windows over a 16-entry table.
    fn pow(&self, base: &Self::Elem, exp: &[u64]) -> Self::Elem;

    /// The inverse of a nonzero element by Fermat's little theorem
    /// (`a^{n−2}`); the modulus must be prime, which holds for every curve
    /// field and DL prime the framework inverts under.
    fn inv(&self, a: &Self::Elem) -> Self::Elem;

    /// Batch inversion by Montgomery's trick: one [`Self::inv`] plus three
    /// multiplications per element instead of one inversion each.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    fn batch_inv(&self, elems: &[Self::Elem]) -> Vec<Self::Elem>;

    /// In-domain square root: some `r` with `r² = a`, or `None` when `a`
    /// is a quadratic non-residue. The other root is `−r`.
    ///
    /// Tonelli–Shanks, with `n − 1 = 2^s·m` and `m` odd: one exponentiation
    /// `w = a^((m−1)/2)` gives the candidate `r = a·w` and the defect
    /// `t = r·w = a^m`, and each pass of the loop multiplies a power of the
    /// precomputed `z^m` into both until `t = 1`. When `s = 1`
    /// (`n ≡ 3 mod 4`: the P-160 and P-256 fields) `t` is Euler's criterion
    /// `a^((n−1)/2)` itself, so `t ≠ 1` is the non-residue verdict and the
    /// loop never runs. The constants are built on the first call; for
    /// `s > 1` (P-224 has `s = 96`) that includes finding a non-residue.
    ///
    /// The modulus must be prime: for a composite one the result means
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics on the first call if `s > 1` and no `z < 2^16` is a
    /// non-residue. A composite modulus can have none; a prime's least
    /// non-residue is small (the P-224 field's is 11).
    fn sqrt(&self, a: &Self::Elem) -> Option<Self::Elem>;
}

/// [`FieldKernel::pow`], for every kernel.
fn pow<K: FieldKernel>(k: &K, base: &K::Elem, exp: &[u64]) -> K::Elem {
    let bits = bit_len(exp);
    if bits == 0 {
        return k.one();
    }
    if bits <= 32 {
        // Small exponent: plain square-and-multiply beats building a
        // 16-entry window table.
        let mut acc = *base;
        for i in (0..bits - 1).rev() {
            acc = k.sqr(&acc);
            if exp[0] >> i & 1 == 1 {
                acc = k.mul(&acc, base);
            }
        }
        return acc;
    }
    // table[w] = base^w for w = 1..15 (entry 0 is never read). Zeroed
    // first: a table filled with copies of `base` unrolls into sixteen
    // inline copies at the DL widths.
    let mut table = [k.zero(); 16];
    table[1] = *base;
    for i in 2..16 {
        table[i] = k.mul(&table[i - 1], base);
    }
    // The window of bits `i..i + 4`, `i` a multiple of 4, so it never
    // straddles a limb.
    let window = |i: usize| (exp[i / 64] >> (i % 64) & 15) as usize;
    // The top window holds the leading bit, so it is nonzero.
    let mut i = (bits - 1) / 4 * 4;
    let mut acc = table[window(i)];
    while i > 0 {
        i -= 4;
        for _ in 0..4 {
            acc = k.sqr(&acc);
        }
        let w = window(i);
        if w != 0 {
            acc = k.mul(&acc, &table[w]);
        }
    }
    acc
}

/// [`FieldKernel::inv`], for every kernel.
fn inv<K: FieldKernel>(k: &K, a: &K::Elem) -> K::Elem {
    let e = k
        .field()
        .n
        .checked_sub(&BigUint::from(2u64))
        .expect("modulus is at least 3");
    k.pow(a, e.limbs())
}

/// [`FieldKernel::batch_inv`], for every kernel.
fn batch_inv<K: FieldKernel>(k: &K, elems: &[K::Elem]) -> Vec<K::Elem> {
    if elems.is_empty() {
        return Vec::new();
    }
    // prefix[i] = elems[0]·…·elems[i]
    let mut prefix = Vec::with_capacity(elems.len());
    let mut acc = elems[0];
    assert!(acc != k.zero(), "cannot invert zero");
    prefix.push(acc);
    for e in &elems[1..] {
        assert!(*e != k.zero(), "cannot invert zero");
        acc = k.mul(&acc, e);
        prefix.push(acc);
    }
    let mut inv_acc = k.inv(prefix.last().expect("nonempty"));
    let mut out = vec![k.zero(); elems.len()];
    for i in (1..elems.len()).rev() {
        out[i] = k.mul(&inv_acc, &prefix[i - 1]);
        inv_acc = k.mul(&inv_acc, &elems[i]);
    }
    out[0] = inv_acc;
    out
}

/// [`FieldKernel::sqrt`], for every kernel.
fn sqrt<K: FieldKernel>(k: &K, a: &K::Elem) -> Option<K::Elem> {
    if *a == k.zero() {
        return Some(*a);
    }
    let field = k.field();
    let consts = field.sqrt.get_or_init(|| SqrtConsts::new(field));
    let one = k.one();
    let w = k.pow(a, consts.e.limbs());
    let mut r = k.mul(a, &w);
    let mut t = k.mul(&r, &w);
    // Invariants: r² = a·t, and c has order 2^s_left; t's order is below
    // 2^s_left for a residue and 2^s_left for a non-residue.
    let (mut c, mut s_left) = (k.enter(&consts.c), consts.s);
    while t != one {
        // The least i with t^(2^i) = 1.
        let mut i = 0;
        let mut t2 = t;
        while t2 != one {
            t2 = k.sqr(&t2);
            i += 1;
            if i == s_left {
                return None;
            }
        }
        let mut b = c;
        for _ in 0..s_left - i - 1 {
            b = k.sqr(&b);
        }
        c = k.sqr(&b);
        t = k.mul(&t, &c);
        r = k.mul(&r, &b);
        s_left = i;
    }
    Some(r)
}

/// A kernel's [`FieldKernel::pow`], `inv`, `batch_inv` and `sqrt`: calls
/// to the generic functions above from a method that is not generic.
macro_rules! shared_ops {
    () => {
        fn pow(&self, base: &Self::Elem, exp: &[u64]) -> Self::Elem {
            pow(self, base, exp)
        }

        fn inv(&self, a: &Self::Elem) -> Self::Elem {
            inv(self, a)
        }

        fn batch_inv(&self, elems: &[Self::Elem]) -> Vec<Self::Elem> {
            batch_inv(self, elems)
        }

        fn sqrt(&self, a: &Self::Elem) -> Option<Self::Elem> {
            sqrt(self, a)
        }
    };
}

/// Tonelli–Shanks constants of a prime modulus `n`, with `n − 1 = 2^s·m`
/// and `m` odd.
#[derive(Clone, Debug)]
pub(crate) struct SqrtConsts {
    /// The two-adicity `s` of `n − 1`.
    s: usize,
    /// `(m − 1)/2`: the one exponentiation each root pays.
    e: BigUint,
    /// `z^m` for a non-residue `z`, an element of order exactly `2^s`,
    /// outside the domain.
    c: BigUint,
}

impl SqrtConsts {
    /// The constants of `field`'s prime modulus.
    fn new(field: &Montgomery) -> Self {
        let n1 = field.modulus() - &BigUint::one();
        let s = n1.trailing_zeros();
        let m = n1.shr(s);
        // A non-residue's m-th power has order exactly 2^s; for s = 1 that
        // is −1, whichever non-residue it is.
        let c = if s == 1 {
            n1
        } else {
            let half = n1.shr(1);
            let z = (2u64..1 << 16)
                .map(BigUint::from)
                .take_while(|z| z < field.modulus())
                .find(|z| field.pow(z, &half) == n1)
                .expect("sqrt needs a prime modulus");
            field.pow(&z, &m)
        };
        SqrtConsts { s, e: m.shr(1), c }
    }
}

/// The secp160r1 prime's kernel: elements stay in *plain* residue form
/// (`enter`/`leave` are copies and `R = 1`), and products fold the high
/// half down via `2^160 ≡ 2^31 + 1 (mod p)` — additions and shifts instead
/// of a second pass of word multiplies.
#[derive(Clone, Copy, Debug)]
pub struct P160Kernel<'a>(pub(crate) &'a Montgomery);

impl FieldKernel for P160Kernel<'_> {
    type Elem = [u64; 4];

    #[inline(always)]
    fn field(&self) -> &Montgomery {
        self.0
    }

    #[inline(always)]
    fn enter(&self, a: &BigUint) -> [u64; 4] {
        padded(self.0, a)
    }

    #[inline(always)]
    fn leave(&self, a: &[u64; 4]) -> BigUint {
        BigUint::from_limbs(a[..3].to_vec())
    }

    #[inline(always)]
    fn zero(&self) -> [u64; 4] {
        [0; 4]
    }

    #[inline(always)]
    fn one(&self) -> [u64; 4] {
        [1, 0, 0, 0]
    }

    #[inline(always)]
    fn mul(&self, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        mul_p160(a, b)
    }

    #[inline(always)]
    fn sqr(&self, a: &[u64; 4]) -> [u64; 4] {
        sqr_p160(a)
    }

    #[inline(always)]
    fn add(&self, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        add_p160(a, b)
    }

    #[inline(always)]
    fn sub(&self, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        sub_p160(a, b)
    }

    #[inline(always)]
    fn small<const K: u64>(&self, a: &[u64; 4]) -> [u64; 4] {
        const { assert!(K >= 1 && K < 1 << 31, "small multiple out of range") };
        small_p160(a, K)
    }

    shared_ops!();
}

/// Montgomery CIOS at `S` limbs (`R = 2^(64·S)`) on any odd modulus of at
/// most `S` limbs other than the secp160r1 prime. It implements
/// [`FieldKernel`] at the four widths a context picks: 4, 16, 32 and 48.
#[derive(Clone, Copy, Debug)]
pub struct CiosKernel<'a, const S: usize>(pub(crate) &'a Montgomery);

impl<const S: usize> CiosKernel<'_, S> {
    /// The modulus's limbs at this width.
    #[inline(always)]
    fn n(&self) -> &[u64; S] {
        head(&self.0.n_limbs)
    }

    /// `a + b`: with operands below `n` the sum fits the buffer plus a
    /// carry bit, and the padded limbs of a narrower modulus compare and
    /// subtract as zeros.
    #[inline(always)]
    fn add_(&self, a: &[u64; S], b: &[u64; S]) -> [u64; S] {
        let mut t = [0u64; S];
        let mut carry = 0u128;
        for i in 0..S {
            let v = a[i] as u128 + b[i] as u128 + carry;
            t[i] = v as u64;
            carry = v >> 64;
        }
        csub(t, carry != 0, self.n())
    }

    /// `a − b`.
    #[inline(always)]
    fn sub_(&self, a: &[u64; S], b: &[u64; S]) -> [u64; S] {
        let mut t = [0u64; S];
        let mut borrow = 0u64;
        for i in 0..S {
            let v = (a[i] as u128).wrapping_sub(b[i] as u128 + borrow as u128);
            t[i] = v as u64;
            borrow = ((v >> 64) as u64) & 1;
        }
        if borrow != 0 {
            // Add the modulus back.
            let n = self.n();
            let mut carry = 0u128;
            for i in 0..S {
                let v = t[i] as u128 + n[i] as u128 + carry;
                t[i] = v as u64;
                carry = v >> 64;
            }
        }
        t
    }

    /// `K·a` by double-and-add down K's bits, unrolled for the constant:
    /// one addition for 2, two for 3 and 4, three for 8.
    #[inline(always)]
    fn small_<const K: u64>(&self, a: &[u64; S]) -> [u64; S] {
        const { assert!(K >= 1 && K < 1 << 31, "small multiple out of range") };
        let mut acc = *a;
        for i in (0..63 - K.leading_zeros()).rev() {
            acc = self.add_(&acc, &acc);
            if K >> i & 1 == 1 {
                acc = self.add_(&acc, a);
            }
        }
        acc
    }
}

/// Implements [`FieldKernel`] for [`CiosKernel`] at each `width`, whose
/// products run `mul`: [`cios`] inline at four limbs, [`cios_wide`] out of
/// line at the DL widths.
macro_rules! cios_kernel {
    ($($width:literal => $mul:ident),*) => {$(
        impl FieldKernel for CiosKernel<'_, $width> {
            type Elem = [u64; $width];

            #[inline(always)]
            fn field(&self) -> &Montgomery {
                self.0
            }

            #[inline(always)]
            fn enter(&self, a: &BigUint) -> Self::Elem {
                self.mul(&padded(self.0, a), head(&self.0.r2))
            }

            #[inline(always)]
            fn leave(&self, a: &Self::Elem) -> BigUint {
                let mut one = [0; $width];
                one[0] = 1;
                BigUint::from_limbs(self.mul(a, &one).to_vec())
            }

            #[inline(always)]
            fn zero(&self) -> Self::Elem {
                [0; $width]
            }

            #[inline(always)]
            fn one(&self) -> Self::Elem {
                *head(&self.0.r1)
            }

            #[inline(always)]
            fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
                $mul(self.n(), self.0.n_prime, a, b)
            }

            #[inline(always)]
            fn sqr(&self, a: &Self::Elem) -> Self::Elem {
                self.mul(a, a)
            }

            #[inline(always)]
            fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
                self.add_(a, b)
            }

            #[inline(always)]
            fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
                self.sub_(a, b)
            }

            #[inline(always)]
            fn small<const K: u64>(&self, a: &Self::Elem) -> Self::Elem {
                self.small_::<K>(a)
            }

            shared_ops!();
        }
    )*};
}

cios_kernel!(4 => cios, 16 => cios_wide, 32 => cios_wide, 48 => cios_wide);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_kernel;

    /// The secp160r1 field prime (the P-160 kernel), the P-256 prime (CIOS
    /// at four limbs) and a one-limb prime (CIOS at four limbs, padded).
    fn test_moduli() -> Vec<BigUint> {
        vec![
            BigUint::from_hex_str("ffffffffffffffffffffffffffffffff7fffffff").unwrap(),
            BigUint::from_hex_str(
                "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
            )
            .unwrap(),
            BigUint::from(1_000_003u64),
        ]
    }

    /// Square-and-multiply on plain `BigUint` products and remainders: the
    /// reference that shares no code with a kernel.
    fn plain_pow(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
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
    fn ring_ops_match_plain_arithmetic() {
        for n in test_moduli() {
            let f = Montgomery::new(n.clone());
            let a =
                &BigUint::from_hex_str("abcdef0123456789abcdef0123456789abcdef01").unwrap() % &n;
            let b =
                &BigUint::from_hex_str("123456789abcdef0123456789abcdef012345678").unwrap() % &n;
            let e = BigUint::from_hex_str("fedcba9876543210fedcba98").unwrap();
            let times = |k: u64, x: &BigUint| &(x * &BigUint::from(k)) % &n;
            with_kernel!(curve: &f, |k| {
                let (am, bm) = (k.enter(&a), k.enter(&b));
                assert_eq!(k.leave(&k.mul(&am, &bm)), &(&a * &b) % &n);
                assert_eq!(k.leave(&k.add(&am, &bm)), &(&a + &b) % &n);
                assert_eq!(k.leave(&k.sub(&am, &bm)), &(&(&a + &n) - &b) % &n);
                assert_eq!(k.leave(&k.sub(&bm, &am)), &(&(&b + &n) - &a) % &n);
                assert_eq!(k.leave(&k.sqr(&am)), &(&a * &a) % &n);
                assert_eq!(k.leave(&k.small::<2>(&am)), times(2, &a));
                assert_eq!(k.leave(&k.small::<8>(&bm)), times(8, &b));
                assert_eq!(k.leave(&k.pow(&am, e.limbs())), plain_pow(&a, &e, &n));
                assert_eq!(k.leave(&k.one()), BigUint::one());
                assert_eq!(k.leave(&k.enter(&BigUint::zero())), BigUint::zero());
                assert_eq!(k.enter(&BigUint::zero()), k.zero());
            });
        }
    }

    #[test]
    fn ring_ops_wrap_around_near_the_modulus() {
        let n = BigUint::from(1_000_003u64);
        let f = Montgomery::new(n);
        with_kernel!(curve: &f, |k| {
            let top = k.enter(&BigUint::from(1_000_002u64));
            // (n − 1) + (n − 1) ≡ n − 2 ; 0 − (n − 1) ≡ 1
            assert_eq!(k.leave(&k.add(&top, &top)), BigUint::from(1_000_001u64));
            assert_eq!(k.leave(&k.sub(&k.zero(), &top)), BigUint::one());
        });
    }

    #[test]
    fn pow_matches_plain_across_limb_sizes() {
        // One to four limbs: CIOS at four limbs, and P-160 for secp160r1.
        for hex in [
            "65",                                                               // 1 limb
            "7fffffffffffffffffffffffffffffff",                                 // 2 limbs
            "ffffffffffffffffffffffffffffffff7fffffff", // 3 limbs (secp160r1 p)
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", // 4 limbs
        ] {
            let n = BigUint::from_hex_str(hex).unwrap();
            let f = Montgomery::new(n.clone());
            for b in [2u64, 3, 0x1234_5678_9abc, 999_999_937, 1] {
                let b = BigUint::from(b) % &n;
                for e in [0u64, 1, 2, 7, 15, 16, 255, 65537, u64::MAX] {
                    let e = BigUint::from(e);
                    let got = with_kernel!(curve: &f, |k| k.leave(&k.pow(&k.enter(&b), e.limbs())));
                    assert_eq!(got, plain_pow(&b, &e, &n), "n={hex} b={b:?} e={e:?}");
                }
            }
        }
    }

    #[test]
    fn pow_edge_exponents() {
        let n = BigUint::from(1_000_003u64);
        let f = Montgomery::new(n.clone());
        let five = BigUint::from(5u64);
        with_kernel!(curve: &f, |k| {
            let a = k.enter(&five);
            assert_eq!(k.leave(&k.pow(&a, &[])), BigUint::one());
            assert_eq!(k.leave(&k.pow(&a, &[0, 0])), BigUint::one());
            assert_eq!(k.leave(&k.pow(&a, &[1])), five);
            // Zero limbs above the top change nothing.
            let e = BigUint::from(13u64);
            assert_eq!(k.leave(&k.pow(&a, &[13, 0])), plain_pow(&five, &e, &n));
        });
    }

    #[test]
    fn inverse_round_trips() {
        for n in test_moduli() {
            let f = Montgomery::new(n.clone());
            let a = &BigUint::from_hex_str("deadbeefcafebabe0123456789").unwrap() % &n;
            let values = [3u64, 999_999, 42, 1, 500_001, 123_456_789];
            with_kernel!(curve: &f, |k| {
                let am = k.enter(&a);
                assert_eq!(k.leave(&k.mul(&am, &k.inv(&am))), BigUint::one());
                let elems: Vec<_> = (1u64..9)
                    .map(|v| v * 7 + 1)
                    .chain(values)
                    .map(|v| k.enter(&(&BigUint::from(v) % &n)))
                    .collect();
                let invs = k.batch_inv(&elems);
                assert_eq!(invs.len(), elems.len());
                for (e, inv) in elems.iter().zip(&invs) {
                    assert_eq!(k.leave(&k.mul(e, inv)), BigUint::one());
                    assert_eq!(*inv, k.inv(e));
                }
                assert!(k.batch_inv(&[]).is_empty());
            });
        }
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn batch_inv_rejects_zero() {
        let f = Montgomery::new(BigUint::from(97u64));
        with_kernel!(curve: &f, |k| {
            let _ = k.batch_inv(&[k.zero()]);
        });
    }
}
