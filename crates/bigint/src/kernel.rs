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
//! keeps one out-of-line copy that every call site shares, and one of a
//! dedicated squaring that computes each cross product once.

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

/// Montgomery squaring at `S` limbs by separated operand scanning
/// (Koç–Acar–Kaliski, IEEE Micro 1996), out of line for the DL widths:
/// `a²·2^{−64·S} mod n` for `a < n`, with `n_prime = −n^{−1} mod 2^64`.
/// The square comes first, into `D = 2S` limbs: each cross product
/// `aᵢ·aⱼ` (`i < j`) once, the sum doubled by a shift, and the `S` diagonal
/// squares added, `S(S+1)/2` word products where [`cios`] pays `S²`. `S`
/// rows of reduction then clear the low half, `S²` more.
#[inline(never)]
fn sos_sqr<const S: usize, const D: usize>(n: &[u64; S], n_prime: u64, a: &[u64; S]) -> [u64; S] {
    const { assert!(D == 2 * S, "the square takes twice the limbs") };
    let mut t = [0u64; D];
    for i in 0..S - 1 {
        let mut carry = 0u128;
        for j in i + 1..S {
            let v = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
            t[i + j] = v as u64;
            carry = v >> 64;
        }
        t[i + S] = carry as u64;
    }
    // The cross sum is below 2^(128·S − 1), so doubling it spills nothing.
    let mut shifted = 0u64;
    for limb in t.iter_mut() {
        let top = *limb >> 63;
        *limb = *limb << 1 | shifted;
        shifted = top;
    }
    let mut carry = 0u128;
    for i in 0..S {
        let sq = a[i] as u128 * a[i] as u128;
        let v = t[2 * i] as u128 + sq as u64 as u128 + carry;
        t[2 * i] = v as u64;
        let v = t[2 * i + 1] as u128 + (sq >> 64) + (v >> 64);
        t[2 * i + 1] = v as u64;
        carry = v >> 64;
    }
    // Row i adds m·n·2^(64·i), clearing limb i; its carry out of limb
    // i + S waits in `pending` for the next row, one limb up.
    let mut pending = 0u64;
    for i in 0..S {
        let m = t[i].wrapping_mul(n_prime);
        let mut carry = 0u128;
        for j in 0..S {
            let v = t[i + j] as u128 + m as u128 * n[j] as u128 + carry;
            t[i + j] = v as u64;
            carry = v >> 64;
        }
        let v = t[i + S] as u128 + carry + pending as u128;
        t[i + S] = v as u64;
        pending = (v >> 64) as u64;
    }
    let mut high = [0u64; S];
    high.copy_from_slice(&t[S..]);
    csub(high, pending != 0, n)
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

/// The width of the sliding windows [`FieldKernel::pow`] and the DL hop
/// ladder read exponents in: a window spans at most this many bits and
/// ends in a one, so its digit is odd and below `2^WINDOW`.
const WINDOW: usize = 5;

/// The entries of an odd-power table: one per odd digit below
/// `2^WINDOW`.
const ODD_POWERS: usize = 1 << (WINDOW - 1);

/// `base`'s odd-power table `{b, b³, …, b³¹}`, entry `j` holding
/// `b^(2j+1)`: the entry [`windows`]'s digit `d` reads is `d / 2`. One
/// squaring and 15 multiplications.
pub fn odd_powers<K: FieldKernel>(k: &K, base: &K::Elem) -> [K::Elem; ODD_POWERS] {
    // Zeroed first: a table filled with copies of `base` unrolls into
    // sixteen inline copies at the DL widths.
    let mut table = [k.zero(); ODD_POWERS];
    let square = k.sqr(base);
    table[0] = *base;
    for j in 1..ODD_POWERS {
        table[j] = k.mul(&table[j - 1], &square);
    }
    table
}

/// The unsigned sliding windows of the little-endian exponent limbs `exp`,
/// most significant first (*Handbook of Applied Cryptography*, Alg.
/// 14.85): each item `(i, d)` is an odd digit `d < 32` whose lowest bit
/// sits at position `i`, so that `exp = Σ d·2^i`. From the highest set
/// bit not yet read, a window takes at most five bits down and drops
/// its trailing zeros; zero bits between windows yield nothing. `exp` may
/// carry zero limbs above its top, and zero has no windows.
///
/// The one recoder of [`FieldKernel::pow`] and the DL hop ladder: it
/// reads the limbs in place, a word at a time, so an exponent of any
/// length recodes without a buffer, and the hop ladder walks two
/// exponents' windows side by side.
pub fn windows(exp: &[u64]) -> impl Iterator<Item = (usize, usize)> + '_ {
    // The bits below `end` are still to be read.
    let mut end = bit_len(exp);
    std::iter::from_fn(move || {
        // The highest set bit below `end`, a limb at a time.
        let top = loop {
            let limb = end.checked_sub(1)? / 64;
            let live = exp[limb] & (u64::MAX >> (63 - (end - 1) % 64));
            if live != 0 {
                break 64 * limb + 63 - live.leading_zeros() as usize;
            }
            end = 64 * limb;
        };
        // Bits `low..=top`, which may straddle a limb boundary.
        let low = (top + 1).saturating_sub(WINDOW);
        let (i, off) = (low / 64, low % 64);
        let hi = match off {
            0 => 0,
            _ => exp.get(i + 1).map_or(0, |&l| l << (64 - off)),
        };
        let bits = (exp[i] >> off | hi) & ((1 << (top + 1 - low)) - 1);
        // The top bit is set, so the window has a lowest set bit.
        let zeros = bits.trailing_zeros() as usize;
        end = low + zeros;
        Some((end, (bits >> zeros) as usize))
    })
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
    /// of at most 32 bits, else unsigned sliding windows of five bits
    /// ([`windows`]) over `base`'s 16-entry [`odd_powers`] table.
    /// A `b`-bit exponent costs about `b` squarings and `b/6 + 15`
    /// multiplications.
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
    let table = odd_powers(k, base);
    let mut digits = windows(exp);
    // The top window holds the leading bit; `at` is the lowest position
    // the accumulator stands for.
    let Some((mut at, d)) = digits.next() else {
        return k.one();
    };
    let mut acc = table[d / 2];
    for (i, d) in digits {
        for _ in i..at {
            acc = k.sqr(&acc);
        }
        acc = k.mul(&acc, &table[d / 2]);
        at = i;
    }
    for _ in 0..at {
        acc = k.sqr(&acc);
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

/// [`cios`] as a squaring, for the four-limb kernel, whose products a
/// curve formula inlines.
#[inline(always)]
fn cios_sqr<const S: usize>(n: &[u64; S], n_prime: u64, a: &[u64; S]) -> [u64; S] {
    cios(n, n_prime, a, a)
}

/// Implements [`FieldKernel`] for [`CiosKernel`] at each `width`, whose
/// products run `mul` and squarings `sqr`: [`cios`] and [`cios_sqr`] inline
/// at four limbs, [`cios_wide`] and [`sos_sqr`] out of line at the DL
/// widths.
macro_rules! cios_kernel {
    ($($width:literal => $mul:ident, $sqr:expr);*) => {$(
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
                $sqr(self.n(), self.0.n_prime, a)
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

cios_kernel!(
    4 => cios, cios_sqr;
    16 => cios_wide, sos_sqr::<16, 32>;
    32 => cios_wide, sos_sqr::<32, 64>;
    48 => cios_wide, sos_sqr::<48, 96>
);

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

    /// The RFC 2409 / RFC 3526 MODP safe primes of 1024, 2048 and 3072
    /// bits: the DL groups' moduli, on the 16-, 32- and 48-limb kernels.
    const MODP: [&str; 3] = [
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22\
         514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6\
         F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381\
         FFFFFFFFFFFFFFFF",
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22\
         514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6\
         F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D\
         C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
         9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C180E8603\
         9B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183995497CEA956AE515D2261898FA0510\
         15728E5A8AACAA68FFFFFFFFFFFFFFFF",
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22\
         514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6\
         F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D\
         C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
         9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C180E8603\
         9B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183995497CEA956AE515D2261898FA0510\
         15728E5A8AAAC42DAD33170D04507A33A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7D\
         B3970F85A6E1E4C7ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864\
         D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E208E24FA074E5AB31\
         43DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    ];

    /// The exponents the DL-width tests raise to, for the safe prime
    /// `p = 2q + 1`: the square-and-multiply range and its edge, one set
    /// bit above a limb, zero runs longer than a window (inside a limb and
    /// across limbs), all ones at 1,023 bits, `q − 1` (the top scalar) and
    /// `p − 2` (every inversion's exponent).
    fn dl_exponents(p: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        let q = p.checked_sub(&one).unwrap().shr(1);
        let mut sparse = BigUint::zero();
        // Ones separated by runs of 6 to 69 zero bits.
        let mut at = 0;
        for run in (6..70).step_by(7) {
            sparse.set_bit(at, true);
            at += run + 1;
        }
        let mut e: Vec<BigUint> = [0u64, 1, 2, 31, 32, 33, 0x1_0000_0041]
            .into_iter()
            .map(BigUint::from)
            .collect();
        e.extend([
            BigUint::power_of_two(64),
            &BigUint::power_of_two(40) + &one,
            sparse,
            BigUint::power_of_two(1023).checked_sub(&one).unwrap(),
            q.checked_sub(&one).unwrap(),
            p.checked_sub(&BigUint::from(2u64)).unwrap(),
        ]);
        e
    }

    #[test]
    fn sqr_and_pow_match_plain_at_the_dl_widths() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for (hex, width) in MODP.iter().zip([16, 32, 48]) {
            let p = BigUint::from_hex_str(hex).unwrap();
            assert_eq!(p.limbs().len(), width);
            let f = Montgomery::new(p.clone());
            let minus_one = p.checked_sub(&BigUint::one()).unwrap();
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from(4u64),
                minus_one,
                crate::random_below(&mut rng, &p),
            ];
            let exps = dl_exponents(&p);
            with_kernel!(dl: &f, |k| {
                for b in &bases {
                    let bm = k.enter(b);
                    assert_eq!(k.leave(&k.sqr(&bm)), &(b * b) % &p, "{width} limbs b={b:?}");
                    assert_eq!(k.sqr(&bm), k.mul(&bm, &bm), "{width} limbs b={b:?}");
                }
                // Every exponent on the random base; the edge bases on a few.
                let b = &bases[4];
                for e in &exps {
                    let got = k.leave(&k.pow(&k.enter(b), e.limbs()));
                    assert_eq!(got, plain_pow(b, e, &p), "{width} limbs e={e:?}");
                }
                for b in &bases[..4] {
                    for e in [&exps[2], &exps[7], &exps[12]] {
                        let got = k.leave(&k.pow(&k.enter(b), e.limbs()));
                        assert_eq!(got, plain_pow(b, e, &p), "{width} limbs b={b:?} e={e:?}");
                    }
                }
                // Fermat: b^(p−2)·b = 1, through the trait's inversion too.
                let bm = k.enter(b);
                assert_eq!(k.leave(&k.mul(&k.inv(&bm), &bm)), BigUint::one());
            });
        }
    }

    #[test]
    fn windows_reconstruct_the_exponent_greedily() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let p = BigUint::from_hex_str(MODP[2]).unwrap();
        let mut exps = dl_exponents(&p);
        exps.extend([
            // Windows straddling a limb boundary, and a lone top bit.
            BigUint::from_limbs(vec![0xc000_0000_0000_0000, 0x7]),
            BigUint::from_limbs(vec![0, 0, 1]),
            BigUint::from(u64::MAX),
        ]);
        exps.extend((0..50).map(|_| crate::random_below(&mut rng, &p)));
        for e in &exps {
            let digits: Vec<(usize, usize)> = windows(e.limbs()).collect();
            let mut padded = e.limbs().to_vec();
            padded.resize(e.limbs().len() + 2, 0);
            assert!(windows(&padded).eq(digits.iter().copied()), "e={e:?}");
            let mut sum = BigUint::zero();
            for &(i, d) in &digits {
                assert!(d % 2 == 1 && d < 1 << WINDOW, "e={e:?} d={d}");
                sum = &sum + &BigUint::from(d as u64).shl(i);
            }
            assert_eq!(&sum, e);
            // Most significant first, each window below the last one's
            // lowest bit, and each opening at the highest set bit left:
            // the bits between two windows are zero.
            for pair in digits.windows(2) {
                let ((hi, _), (lo, d)) = (pair[0], pair[1]);
                let top = lo + (usize::BITS - d.leading_zeros()) as usize;
                assert!(top <= hi, "e={e:?}");
                assert!((top..hi).all(|b| !e.bit(b)), "e={e:?}");
            }
        }
        assert_eq!(windows(&[]).count(), 0);
        assert_eq!(windows(&[0, 0]).count(), 0);
    }

    /// A kernel that counts its inner kernel's squarings and
    /// multiplications, `[squarings, multiplications]`; every other
    /// operation passes through. Its shared operations are the generic
    /// ones run on the counting kernel itself, so `pow`'s own steps are
    /// counted. It reads no clock: a count is exact on any host.
    #[derive(Clone, Copy, Debug)]
    struct Counting<'a, In>(In, &'a std::cell::Cell<[usize; 2]>);

    impl<In: FieldKernel> FieldKernel for Counting<'_, In> {
        type Elem = In::Elem;

        fn field(&self) -> &Montgomery {
            self.0.field()
        }

        fn enter(&self, a: &BigUint) -> Self::Elem {
            self.0.enter(a)
        }

        fn leave(&self, a: &Self::Elem) -> BigUint {
            self.0.leave(a)
        }

        fn zero(&self) -> Self::Elem {
            self.0.zero()
        }

        fn one(&self) -> Self::Elem {
            self.0.one()
        }

        fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
            let [s, m] = self.1.get();
            self.1.set([s, m + 1]);
            self.0.mul(a, b)
        }

        fn sqr(&self, a: &Self::Elem) -> Self::Elem {
            let [s, m] = self.1.get();
            self.1.set([s + 1, m]);
            self.0.sqr(a)
        }

        fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
            self.0.add(a, b)
        }

        fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
            self.0.sub(a, b)
        }

        fn small<const K: u64>(&self, a: &Self::Elem) -> Self::Elem {
            self.0.small::<K>(a)
        }

        shared_ops!();
    }

    #[test]
    fn pow_pays_closed_form_counts() {
        let f = Montgomery::new(BigUint::from_hex_str(MODP[0]).unwrap());
        let one = BigUint::one();
        // Bits 1022 − 10j, 1019 − 10j and 1018 − 10j: 102 windows `10011`
        // (digit 19) at 1018 − 10j, then a lone one at bit 2.
        let mut pattern = BigUint::zero();
        for j in (0..=102).map(|j| 10 * j) {
            for bit in [1022, 1019, 1018].into_iter().filter(|&b| b >= j) {
                pattern.set_bit(bit - j, true);
            }
        }
        assert_eq!(pattern.bits(), 1023);
        assert_eq!(windows(pattern.limbs()).count(), 103);
        let counts = std::cell::Cell::new([0; 2]);
        with_kernel!(dl: &f, |inner| {
            let k = Counting(inner, &counts);
            let b = k.enter(&BigUint::from(4u64));
            let count = |e: &BigUint| {
                counts.set([0; 2]);
                k.pow(&b, e.limbs());
                counts.get()
            };
            // The table is one squaring and 15 multiplications.
            for n in [33, 64, 100, 1022] {
                // One window, digit 1 at n: n squarings.
                assert_eq!(count(&BigUint::power_of_two(n)), [1 + n, 15], "2^{n}");
                // ⌈n/5⌉ windows, the top one five bits wide.
                let ones = BigUint::power_of_two(n).checked_sub(&one).unwrap();
                let want = [1 + n - 5, 15 + n.div_ceil(5) - 1];
                assert_eq!(count(&ones), want, "2^{n} − 1");
            }
            assert_eq!(count(&pattern), [1 + 1018, 15 + 102]);
            // At most 32 bits: square-and-multiply, no table.
            assert_eq!(count(&BigUint::power_of_two(31)), [31, 0]);
            assert_eq!(count(&BigUint::from(u32::MAX as u64)), [31, 31]);
        });
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
