//! Montgomery arithmetic specialised to moduli of at most four limbs.
//!
//! The general-purpose [`MontElem`](crate::MontElem) carries a 48-limb
//! buffer (384 bytes) so a single type serves every modulus up to the
//! 3072-bit DL group. For the
//! elliptic-curve fields — three or four limbs — that width is pure
//! overhead: each field operation zeroes and copies 384 bytes to move a
//! 24-to-32-byte value, and a Jacobian point clone moves over a kilobyte.
//! Profiling on the curve kernels showed the memory traffic of those
//! buffers rivalling the multiplications themselves.
//!
//! [`Montgomery4`] is the small-field counterpart: the same CIOS reduction,
//! conditional-subtraction discipline, and windowed exponentiation as
//! [`Montgomery`](crate::Montgomery), but over a 32-byte [`MontElem4`] that
//! is `Copy`. `ppgr-group`'s curve implementation runs entirely on this
//! context; the DL groups keep the wide type.
//!
//! A context runs one of two kernels: [`P160Kernel`], a pseudo-Mersenne
//! reduction for the secp160r1 prime, or [`CiosKernel`], Montgomery CIOS
//! at four limbs with `R = 2^256`, which serves every other odd modulus
//! below `2^256` — the P-224 and P-256 fields, and any narrower modulus,
//! whose padded limbs multiply and compare as zeros. Each is a type
//! implementing [`FieldKernel`], and code written generic over that trait
//! runs every field operation inline. [`with_kernel!`](crate::with_kernel)
//! matches on a context's kernel once and runs a block compiled for it,
//! so a curve ladder or a whole batch pays one match instead of one per
//! operation, and each such block is compiled twice — once per kernel the
//! shipped curves use. Exponentiation, inversion, batch inversion and the
//! square root are written once on the trait and reached the same way.

// The limb kernels walk several same-index arrays (operand, modulus,
// accumulator) while threading a carry/borrow; indexed loops are the
// clearest rendering and clippy's zip/iterator rewrite obscures them.
#![allow(clippy::needless_range_loop)]

use crate::uint::BigUint;
use std::sync::OnceLock;

/// Maximum modulus size in limbs for the small context (256-bit fields).
pub const MAX_LIMBS4: usize = 4;

/// An element of a [`Montgomery4`] context, held in Montgomery form
/// (`a·R mod n`).
///
/// 32 bytes and `Copy`, so curve formulas that juggle a dozen field
/// temporaries per point operation pay register/stack moves instead of the
/// wide buffer copies of the general [`MontElem`](crate::MontElem).
/// `Default` is zero, which every kernel represents alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MontElem4 {
    limbs: [u64; MAX_LIMBS4],
}

/// The secp160r1 field prime `2^160 − 2^31 − 1`, little-endian limbs.
const P160: [u64; MAX_LIMBS4] = [0xFFFF_FFFF_7FFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF, 0];

/// Reduces a three-limb value below `2p` to a residue below the secp160r1
/// prime.
#[inline(always)]
fn csub_p160(t: [u64; 3]) -> [u64; MAX_LIMBS4] {
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
fn fold_p160(t: [u64; 3]) -> [u64; MAX_LIMBS4] {
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
fn reduce_p160(t: &[u64; 6]) -> [u64; MAX_LIMBS4] {
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
    let mut s = [0u64; MAX_LIMBS4];
    let mut carry = 0u128;
    for i in 0..MAX_LIMBS4 {
        let v = l[i] as u128 + h[i] as u128 + hs[i] as u128 + carry;
        s[i] = v as u64;
        carry = v >> 64;
    }
    // Second fold: S < 2^192.
    fold_p160([s[0], s[1], s[2]])
}

/// Branchless modular addition for secp160r1 residues (three live limbs).
#[inline(always)]
fn add_p160(a: &[u64; MAX_LIMBS4], b: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
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
fn sub_p160(a: &[u64; MAX_LIMBS4], b: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
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
fn small_p160(a: &[u64; MAX_LIMBS4], k: u64) -> [u64; MAX_LIMBS4] {
    let p0 = a[0] as u128 * k as u128;
    let p1 = a[1] as u128 * k as u128 + (p0 >> 64);
    // a[2] < 2^32, so this limb is below 2^63 + 2^31.
    let p2 = a[2] as u128 * k as u128 + (p1 >> 64);
    fold_p160([p0 as u64, p1 as u64, p2 as u64])
}

/// Schoolbook 3×3-limb product + pseudo-Mersenne reduction mod secp160r1.
#[inline(always)]
fn mul_p160(a: &[u64; MAX_LIMBS4], b: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
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
fn sqr_p160(a: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
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

/// The field arithmetic of one multiplication kernel of a [`Montgomery4`]
/// context.
///
/// Curve formulas and exponentiation ladders are written once, generic
/// over this trait, and run with the kernel's operations inline.
/// [`with_kernel!`](crate::with_kernel) hands a context's kernel to such
/// code, matching on it once. A kernel borrows its context: elements of
/// one context mean nothing to another's kernel.
pub trait FieldKernel: Copy {
    /// The context this kernel computes in.
    fn field(&self) -> &Montgomery4;

    /// Enters the domain.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not below the modulus.
    fn enter(&self, a: &BigUint) -> MontElem4;

    /// Leaves the domain.
    fn leave(&self, a: &MontElem4) -> BigUint;

    /// The domain's `1`.
    fn one(&self) -> MontElem4;

    /// `a·b`.
    fn mul(&self, a: &MontElem4, b: &MontElem4) -> MontElem4;

    /// `a²`.
    fn sqr(&self, a: &MontElem4) -> MontElem4;

    /// `a + b`.
    fn add(&self, a: &MontElem4, b: &MontElem4) -> MontElem4;

    /// `a − b`.
    fn sub(&self, a: &MontElem4, b: &MontElem4) -> MontElem4;

    /// `K·a` for a constant `1 ≤ K < 2^31` (the curve formulas ask for 2,
    /// 3, 4 and 8).
    fn small<const K: u64>(&self, a: &MontElem4) -> MontElem4;

    /// `base^exp`: square-and-multiply for exponents of at most 32 bits,
    /// else fixed 4-bit windows over a 16-entry table.
    fn pow(&self, base: &MontElem4, exp: &BigUint) -> MontElem4 {
        let bits = exp.bits();
        if bits == 0 {
            return self.one();
        }
        if bits <= 32 {
            // Small exponent: plain square-and-multiply beats building a
            // 16-entry window table.
            let mut acc = *base;
            for i in (0..bits - 1).rev() {
                acc = self.sqr(&acc);
                if exp.bit(i) {
                    acc = self.mul(&acc, base);
                }
            }
            return acc;
        }
        // table[w] = base^w for w = 1..15 (entry 0 is never read).
        let mut table = [*base; 16];
        for i in 2..16 {
            table[i] = self.mul(&table[i - 1], base);
        }
        // The `take` exponent bits below bit `i`, most significant first.
        let window = |i: usize, take: usize| {
            (0..take).fold(0usize, |w, k| w << 1 | exp.bit(i - 1 - k) as usize)
        };
        let top = match bits % 4 {
            0 => 4,
            r => r,
        };
        // The top window holds the leading bit, so it is nonzero.
        let mut acc = table[window(bits, top)];
        let mut i = bits - top;
        while i > 0 {
            for _ in 0..4 {
                acc = self.sqr(&acc);
            }
            let w = window(i, 4);
            if w != 0 {
                acc = self.mul(&acc, &table[w]);
            }
            i -= 4;
        }
        acc
    }

    /// The inverse of a nonzero element by Fermat's little theorem
    /// (`a^{n−2}`); the modulus must be prime, which holds for every curve
    /// field the framework inverts under.
    fn inv(&self, a: &MontElem4) -> MontElem4 {
        let e = self
            .field()
            .n
            .checked_sub(&BigUint::from(2u64))
            .expect("modulus is at least 3");
        self.pow(a, &e)
    }

    /// Batch inversion by Montgomery's trick: one [`Self::inv`] plus three
    /// multiplications per element instead of one inversion each.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    fn batch_inv(&self, elems: &[MontElem4]) -> Vec<MontElem4> {
        if elems.is_empty() {
            return Vec::new();
        }
        // prefix[i] = elems[0]·…·elems[i]
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = elems[0];
        assert!(acc != MontElem4::default(), "cannot invert zero");
        prefix.push(acc);
        for e in &elems[1..] {
            assert!(*e != MontElem4::default(), "cannot invert zero");
            acc = self.mul(&acc, e);
            prefix.push(acc);
        }
        let mut inv_acc = self.inv(prefix.last().expect("nonempty"));
        let mut out = vec![MontElem4::default(); elems.len()];
        for i in (1..elems.len()).rev() {
            out[i] = self.mul(&inv_acc, &prefix[i - 1]);
            inv_acc = self.mul(&inv_acc, &elems[i]);
        }
        out[0] = inv_acc;
        out
    }

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
    fn sqrt(&self, a: &MontElem4) -> Option<MontElem4> {
        if *a == MontElem4::default() {
            return Some(*a);
        }
        let k = self.field().sqrt.get_or_init(|| sqrt_consts(self));
        let one = self.one();
        let w = self.pow(a, &k.e);
        let mut r = self.mul(a, &w);
        let mut t = self.mul(&r, &w);
        // Invariants: r² = a·t, and c has order 2^s_left; t's order is
        // below 2^s_left for a residue and 2^s_left for a non-residue.
        let (mut c, mut s_left) = (k.c, k.s);
        while t != one {
            // The least i with t^(2^i) = 1.
            let mut i = 0;
            let mut t2 = t;
            while t2 != one {
                t2 = self.sqr(&t2);
                i += 1;
                if i == s_left {
                    return None;
                }
            }
            let mut b = c;
            for _ in 0..s_left - i - 1 {
                b = self.sqr(&b);
            }
            c = self.sqr(&b);
            t = self.mul(&t, &c);
            r = self.mul(&r, &b);
            s_left = i;
        }
        Some(r)
    }
}

/// The secp160r1 prime's kernel: elements stay in *plain* residue form
/// (`enter`/`leave` are copies and `R = 1`), and products fold the high
/// half down via `2^160 ≡ 2^31 + 1 (mod p)` — additions and shifts instead
/// of a second pass of word multiplies.
#[derive(Clone, Copy, Debug)]
pub struct P160Kernel<'a>(&'a Montgomery4);

impl FieldKernel for P160Kernel<'_> {
    #[inline(always)]
    fn field(&self) -> &Montgomery4 {
        self.0
    }

    #[inline(always)]
    fn enter(&self, a: &BigUint) -> MontElem4 {
        MontElem4 {
            limbs: self.0.padded(a),
        }
    }

    #[inline(always)]
    fn leave(&self, a: &MontElem4) -> BigUint {
        BigUint::from_limbs(a.limbs[..3].to_vec())
    }

    #[inline(always)]
    fn one(&self) -> MontElem4 {
        MontElem4 {
            limbs: [1, 0, 0, 0],
        }
    }

    #[inline(always)]
    fn mul(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        MontElem4 {
            limbs: mul_p160(&a.limbs, &b.limbs),
        }
    }

    #[inline(always)]
    fn sqr(&self, a: &MontElem4) -> MontElem4 {
        MontElem4 {
            limbs: sqr_p160(&a.limbs),
        }
    }

    #[inline(always)]
    fn add(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        MontElem4 {
            limbs: add_p160(&a.limbs, &b.limbs),
        }
    }

    #[inline(always)]
    fn sub(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        MontElem4 {
            limbs: sub_p160(&a.limbs, &b.limbs),
        }
    }

    #[inline(always)]
    fn small<const K: u64>(&self, a: &MontElem4) -> MontElem4 {
        const { assert!(K >= 1 && K < 1 << 31, "small multiple out of range") };
        MontElem4 {
            limbs: small_p160(&a.limbs, K),
        }
    }
}

/// Montgomery CIOS at four limbs (`R = 2^256`) on any odd modulus below
/// `2^256` other than the secp160r1 prime.
#[derive(Clone, Copy, Debug)]
pub struct CiosKernel<'a>(&'a Montgomery4);

impl FieldKernel for CiosKernel<'_> {
    #[inline(always)]
    fn field(&self) -> &Montgomery4 {
        self.0
    }

    #[inline(always)]
    fn enter(&self, a: &BigUint) -> MontElem4 {
        MontElem4 {
            limbs: self.0.mont_mul(&self.0.padded(a), &self.0.r2.limbs),
        }
    }

    #[inline(always)]
    fn leave(&self, a: &MontElem4) -> BigUint {
        BigUint::from_limbs(self.0.mont_mul(&a.limbs, &[1, 0, 0, 0]).to_vec())
    }

    #[inline(always)]
    fn one(&self) -> MontElem4 {
        self.0.r1
    }

    #[inline(always)]
    fn mul(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        MontElem4 {
            limbs: self.0.mont_mul(&a.limbs, &b.limbs),
        }
    }

    #[inline(always)]
    fn sqr(&self, a: &MontElem4) -> MontElem4 {
        self.mul(a, a)
    }

    /// With operands below `n` the sum fits the buffer plus a carry bit,
    /// and the padded limbs of a narrower modulus compare and subtract as
    /// zeros.
    #[inline(always)]
    fn add(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        let n = &self.0.n_limbs;
        let mut t = [0u64; MAX_LIMBS4];
        let mut carry = 0u128;
        for i in 0..MAX_LIMBS4 {
            let v = a.limbs[i] as u128 + b.limbs[i] as u128 + carry;
            t[i] = v as u64;
            carry = v >> 64;
        }
        let ge = carry != 0 || {
            let mut ge = true;
            for i in (0..MAX_LIMBS4).rev() {
                if t[i] != n[i] {
                    ge = t[i] > n[i];
                    break;
                }
            }
            ge
        };
        if ge {
            let mut borrow = 0u64;
            for i in 0..MAX_LIMBS4 {
                let v = (t[i] as u128).wrapping_sub(n[i] as u128 + borrow as u128);
                t[i] = v as u64;
                borrow = ((v >> 64) as u64) & 1;
            }
        }
        MontElem4 { limbs: t }
    }

    #[inline(always)]
    fn sub(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        let mut t = [0u64; MAX_LIMBS4];
        let mut borrow = 0u64;
        for i in 0..MAX_LIMBS4 {
            let v = (a.limbs[i] as u128).wrapping_sub(b.limbs[i] as u128 + borrow as u128);
            t[i] = v as u64;
            borrow = ((v >> 64) as u64) & 1;
        }
        if borrow != 0 {
            // Add the modulus back.
            let mut carry = 0u128;
            for i in 0..MAX_LIMBS4 {
                let v = t[i] as u128 + self.0.n_limbs[i] as u128 + carry;
                t[i] = v as u64;
                carry = v >> 64;
            }
        }
        MontElem4 { limbs: t }
    }

    #[inline(always)]
    fn small<const K: u64>(&self, a: &MontElem4) -> MontElem4 {
        const { assert!(K >= 1 && K < 1 << 31, "small multiple out of range") };
        // Double-and-add down K's bits, unrolled for the constant: one
        // addition for 2, two for 3 and 4, three for 8.
        let mut acc = *a;
        for i in (0..63 - K.leading_zeros()).rev() {
            acc = self.add(&acc, &acc);
            if K >> i & 1 == 1 {
                acc = self.add(&acc, a);
            }
        }
        acc
    }
}

/// A [`Montgomery4`] context's kernel as a value of the kernel's own type,
/// for [`with_kernel!`](crate::with_kernel) to compile a block for.
#[derive(Clone, Copy, Debug)]
pub enum Kernel<'a> {
    /// The secp160r1 prime.
    P160(P160Kernel<'a>),
    /// CIOS at four limbs: every other modulus.
    Cios4(CiosKernel<'a>),
}

/// Runs `$body` with `$k` bound to the kernel of the [`Montgomery4`]
/// context `$field`: one match, and one copy of `$body` per kernel type,
/// in which every [`FieldKernel`] operation is a direct call the compiler
/// can inline.
///
/// ```
/// use ppgr_bigint::{with_kernel, BigUint, FieldKernel, Montgomery4};
///
/// let f = Montgomery4::new(BigUint::from(101u64));
/// let cube = with_kernel!(&f, |k| {
///     let a = k.enter(&BigUint::from(7u64));
///     k.leave(&k.mul(&k.sqr(&a), &a))
/// });
/// assert_eq!(cube, BigUint::from(343u64 % 101));
/// ```
#[macro_export]
macro_rules! with_kernel {
    ($field:expr, |$k:ident| $body:expr) => {
        match $crate::Montgomery4::kernel($field) {
            $crate::Kernel::P160($k) => $body,
            $crate::Kernel::Cios4($k) => $body,
        }
    };
}

/// Precomputed context for Montgomery multiplication modulo an odd `n` of
/// at most `MAX_LIMBS4` limbs. Its arithmetic runs through its kernel.
///
/// # Example
///
/// ```
/// use ppgr_bigint::{with_kernel, BigUint, FieldKernel, Montgomery4};
///
/// let m = Montgomery4::new(BigUint::from(101u64));
/// let a = m.enter(&BigUint::from(7u64));
/// let fermat = with_kernel!(&m, |k| k.leave(&k.pow(&a, &BigUint::from(100u64))));
/// assert_eq!(fermat, BigUint::one());
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery4 {
    n: BigUint,
    /// Modulus limbs, padded into the fixed buffer.
    n_limbs: [u64; MAX_LIMBS4],
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` where `R = 2^256`; used to enter Montgomery form.
    r2: MontElem4,
    /// `R mod n`, i.e. Montgomery form of `1`.
    r1: MontElem4,
    /// Whether `n` is the secp160r1 prime, which runs [`P160Kernel`].
    p160: bool,
    /// Square-root constants, built by the first [`FieldKernel::sqrt`].
    sqrt: OnceLock<SqrtConsts>,
}

/// Tonelli–Shanks constants of a prime modulus `n`, with `n − 1 = 2^s·m`
/// and `m` odd.
#[derive(Clone, Debug)]
struct SqrtConsts {
    /// The two-adicity `s` of `n − 1`.
    s: usize,
    /// `(m − 1)/2`: the one exponentiation each root pays.
    e: BigUint,
    /// `z^m` for a non-residue `z`, an element of order exactly `2^s`.
    c: MontElem4,
}

/// Builds [`SqrtConsts`] for a prime modulus.
fn sqrt_consts<K: FieldKernel>(k: &K) -> SqrtConsts {
    let n = &k.field().n;
    let n1 = n - &BigUint::one();
    let s = n1.trailing_zeros();
    let m = n1.shr(s);
    let minus_one = k.sub(&MontElem4::default(), &k.one());
    // A non-residue's m-th power has order exactly 2^s; for s = 1 that
    // is −1, whichever non-residue it is.
    let c = if s == 1 {
        minus_one
    } else {
        let half = n1.shr(1);
        let z = (2u64..1 << 16)
            .map(BigUint::from)
            .take_while(|z| z < n)
            .map(|z| k.enter(&z))
            .find(|z| k.pow(z, &half) == minus_one)
            .expect("msqrt needs a prime modulus");
        k.pow(&z, &m)
    };
    SqrtConsts { s, e: m.shr(1), c }
}

impl Montgomery4 {
    /// Builds a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero, or wider than `MAX_LIMBS4` limbs.
    pub fn new(n: BigUint) -> Self {
        assert!(n.is_odd(), "Montgomery reduction requires an odd modulus");
        let limbs = n.limbs().len();
        assert!(limbs <= MAX_LIMBS4, "modulus exceeds MAX_LIMBS4");
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n mod 2^64.
        let mut inv = n0; // valid to 3 bits
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();
        let mut n_limbs = [0u64; MAX_LIMBS4];
        n_limbs[..limbs].copy_from_slice(n.limbs());
        let p160 = n_limbs == P160;
        // The P160 kernel works on plain residues, so its "Montgomery form
        // of one" really is one (R = 1) and `r2` is never touched.
        let (r1_big, r2_big) = if p160 {
            (BigUint::one(), BigUint::one())
        } else {
            (
                BigUint::power_of_two(64 * MAX_LIMBS4) % &n,
                BigUint::power_of_two(128 * MAX_LIMBS4) % &n,
            )
        };
        let to_fixed = |v: &BigUint| {
            let mut out = [0u64; MAX_LIMBS4];
            out[..v.limbs().len()].copy_from_slice(v.limbs());
            MontElem4 { limbs: out }
        };
        Montgomery4 {
            n_limbs,
            n_prime,
            r2: to_fixed(&r2_big),
            r1: to_fixed(&r1_big),
            p160,
            n,
            sqrt: OnceLock::new(),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// This context's kernel; [`with_kernel!`](crate::with_kernel) matches
    /// on it.
    #[inline]
    pub fn kernel(&self) -> Kernel<'_> {
        match self.p160 {
            true => Kernel::P160(P160Kernel(self)),
            false => Kernel::Cios4(CiosKernel(self)),
        }
    }

    /// `a`'s limbs in the fixed buffer.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` (callers reduce first; this is the hot path).
    #[inline]
    fn padded(&self, a: &BigUint) -> [u64; MAX_LIMBS4] {
        assert!(a < &self.n, "operand must be reduced");
        let mut buf = [0u64; MAX_LIMBS4];
        buf[..a.limbs().len()].copy_from_slice(a.limbs());
        buf
    }

    /// CIOS Montgomery multiplication at four limbs: `a·b·2^{−256} mod n`.
    #[inline(always)]
    fn mont_mul(&self, a: &[u64; MAX_LIMBS4], b: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
        let n = &self.n_limbs;
        let mut t = [0u64; MAX_LIMBS4];
        let mut t_hi = 0u64; // t[4]
        for i in 0..MAX_LIMBS4 {
            let ai = a[i];
            let mut carry = 0u128;
            for j in 0..MAX_LIMBS4 {
                let v = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = v as u64;
                carry = v >> 64;
            }
            let v = t_hi as u128 + carry;
            t_hi = v as u64;
            let t_top = (v >> 64) as u64; // t[5]
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..MAX_LIMBS4 {
                let v = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = v as u64;
                carry = v >> 64;
            }
            let v = t_hi as u128 + carry;
            t[MAX_LIMBS4 - 1] = v as u64;
            t_hi = t_top + ((v >> 64) as u64);
        }
        // Conditional subtraction: t may be in [0, 2n).
        let ge = t_hi != 0 || {
            let mut ge = true;
            for i in (0..MAX_LIMBS4).rev() {
                if t[i] != n[i] {
                    ge = t[i] > n[i];
                    break;
                }
            }
            ge
        };
        if ge {
            let mut borrow = 0u64;
            for i in 0..MAX_LIMBS4 {
                let v = (t[i] as u128).wrapping_sub(n[i] as u128 + borrow as u128);
                t[i] = v as u64;
                borrow = ((v >> 64) as u64) & 1;
            }
        }
        t
    }

    /// Enters Montgomery form.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` (callers reduce first; this is the hot path).
    #[inline]
    pub fn enter(&self, a: &BigUint) -> MontElem4 {
        with_kernel!(self, |k| k.enter(a))
    }

    /// Montgomery form of `1`.
    #[inline]
    pub fn one_elem(&self) -> MontElem4 {
        self.r1
    }

    /// Montgomery form of `0`.
    #[inline]
    pub fn zero_elem(&self) -> MontElem4 {
        MontElem4::default()
    }

    /// Returns `true` if the element is zero (zero is fixed by the domain map).
    #[inline]
    pub fn is_zero_elem(&self, a: &MontElem4) -> bool {
        *a == MontElem4::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::Montgomery;

    /// The secp160r1 field prime (3 limbs) and the P-256 prime (4 limbs):
    /// the two widths the curve layer actually runs at.
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

    #[test]
    fn matches_wide_context_on_ring_ops() {
        for n in test_moduli() {
            let small = Montgomery4::new(n.clone());
            let wide = Montgomery::new(n.clone());
            let a =
                &BigUint::from_hex_str("abcdef0123456789abcdef0123456789abcdef01").unwrap() % &n;
            let b =
                &BigUint::from_hex_str("123456789abcdef0123456789abcdef012345678").unwrap() % &n;
            let (am, bm) = (small.enter(&a), small.enter(&b));
            let (aw, bw) = (wide.enter(&a), wide.enter(&b));
            with_kernel!(&small, |k| {
                assert_eq!(k.leave(&k.mul(&am, &bm)), wide.leave(&wide.mmul(&aw, &bw)));
                assert_eq!(k.leave(&k.add(&am, &bm)), wide.leave(&wide.madd(&aw, &bw)));
                assert_eq!(k.leave(&k.sub(&am, &bm)), wide.leave(&wide.msub(&aw, &bw)));
                assert_eq!(k.leave(&k.sub(&bm, &am)), wide.leave(&wide.msub(&bw, &aw)));
                assert_eq!(k.leave(&k.sqr(&am)), wide.leave(&wide.msqr(&aw)));
                assert_eq!(k.leave(&k.small::<2>(&am)), wide.leave(&wide.mdbl(&aw)));
                assert_eq!(
                    k.leave(&k.small::<8>(&am)),
                    wide.leave(&wide.msmall(&aw, 8))
                );
                assert_eq!(k.leave(&k.one()), BigUint::one());
            });
            let e = BigUint::from_hex_str("fedcba9876543210fedcba98").unwrap();
            with_kernel!(&small, |k| {
                assert_eq!(k.leave(&k.pow(&am, &e)), wide.leave(&wide.mpow(&aw, &e)));
                assert_eq!(k.leave(&small.one_elem()), BigUint::one());
                assert_eq!(k.leave(&small.enter(&BigUint::zero())), BigUint::zero());
            });
            assert!(small.is_zero_elem(&small.zero_elem()));
        }
    }

    #[test]
    fn inverse_round_trips() {
        for n in test_moduli() {
            let small = Montgomery4::new(n.clone());
            let a = &BigUint::from_hex_str("deadbeefcafebabe0123456789").unwrap() % &n;
            let am = small.enter(&a);
            let elems: Vec<MontElem4> = (1u64..9)
                .map(|k| small.enter(&(&BigUint::from(k * 7 + 1) % &n)))
                .collect();
            with_kernel!(&small, |k| {
                assert_eq!(k.leave(&k.mul(&am, &k.inv(&am))), BigUint::one());
                let invs = k.batch_inv(&elems);
                for (e, inv) in elems.iter().zip(&invs) {
                    assert_eq!(k.leave(&k.mul(e, inv)), BigUint::one());
                }
                assert!(k.batch_inv(&[]).is_empty());
            });
        }
    }

    #[test]
    fn mpow_edge_exponents() {
        let n = BigUint::from(1_000_003u64);
        let m = Montgomery4::new(n.clone());
        let a = m.enter(&BigUint::from(5u64));
        with_kernel!(&m, |k| {
            assert_eq!(k.leave(&k.pow(&a, &BigUint::zero())), BigUint::one());
            assert_eq!(k.leave(&k.pow(&a, &BigUint::one())), BigUint::from(5u64));
            assert_eq!(
                k.leave(&k.pow(&a, &BigUint::from(13u64))),
                BigUint::from(5u64).modpow(&BigUint::from(13u64), &n)
            );
        });
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LIMBS4")]
    fn wide_modulus_rejected() {
        let _ = Montgomery4::new(&BigUint::power_of_two(300) + &BigUint::one());
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = Montgomery4::new(BigUint::from(100u64));
    }
}
