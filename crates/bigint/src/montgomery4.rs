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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MontElem4 {
    limbs: [u64; MAX_LIMBS4],
}

/// The secp160r1 field prime `2^160 − 2^31 − 1`, little-endian limbs.
const P160: [u64; MAX_LIMBS4] = [0xFFFF_FFFF_7FFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF, 0];

/// Which multiplication kernel a [`Montgomery4`] context runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Montgomery CIOS on 1–4 limbs (any odd modulus).
    Cios,
    /// Pseudo-Mersenne reduction for the secp160r1 prime: elements stay in
    /// *plain* residue form (`enter`/`leave` are copies and `R = 1`), and
    /// products fold the high half down via `2^160 ≡ 2^31 + 1 (mod p)` —
    /// additions and shifts instead of a second pass of word multiplies.
    P160,
}

/// Reduces a 320-bit product to a residue below the secp160r1 prime.
#[inline]
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
    // Second fold: S < 2^192 leaves H2 = S >> 160 < 2^32, so the tail
    // H2·(2^31 + 1) < 2^64 folds in as a single-limb add.
    let h2 = s[2] >> 32;
    let add = h2 + (h2 << 31);
    let mut r = [s[0], s[1], s[2] & 0xFFFF_FFFF, 0];
    let (v, c0) = r[0].overflowing_add(add);
    r[0] = v;
    if c0 {
        let (v, c1) = r[1].overflowing_add(1);
        r[1] = v;
        if c1 {
            r[2] += 1; // r2 < 2^32 + 1: cannot overflow
        }
    }
    // R < 2^160 + 2^64 < 2p: at most one subtraction. Subtract p
    // unconditionally and select on the borrow — a data-dependent branch
    // here mispredicts about half the time in every multiplication.
    let (s0, b0) = r[0].overflowing_sub(P160[0]);
    let (s1a, b1a) = r[1].overflowing_sub(P160[1]);
    let (s1, b1b) = s1a.overflowing_sub(b0 as u64);
    let (s2, b2) = r[2].overflowing_sub(P160[2] + (b1a as u64 + b1b as u64));
    // `b2` set means R < p: keep R, else keep the difference.
    let keep = (b2 as u64).wrapping_neg();
    [
        s0 ^ (keep & (s0 ^ r[0])),
        s1 ^ (keep & (s1 ^ r[1])),
        s2 ^ (keep & (s2 ^ r[2])),
        0,
    ]
}

/// Branchless modular addition for secp160r1 residues (three live limbs).
#[inline]
fn add_p160(a: &[u64; MAX_LIMBS4], b: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
    // Sum < 2p < 2^161, so one subtraction of p restores the range. The top
    // limbs are below 2^32, so their sum plus a carry cannot overflow.
    let (t0, c0) = a[0].overflowing_add(b[0]);
    let (t1a, c1a) = a[1].overflowing_add(b[1]);
    let (t1, c1b) = t1a.overflowing_add(c0 as u64);
    let t2 = a[2] + b[2] + (c1a as u64 + c1b as u64);
    let (s0, b0) = t0.overflowing_sub(P160[0]);
    let (s1a, b1a) = t1.overflowing_sub(P160[1]);
    let (s1, b1b) = s1a.overflowing_sub(b0 as u64);
    let (s2, b2) = t2.overflowing_sub(P160[2] + (b1a as u64 + b1b as u64));
    let keep = (b2 as u64).wrapping_neg();
    [
        s0 ^ (keep & (s0 ^ t0)),
        s1 ^ (keep & (s1 ^ t1)),
        s2 ^ (keep & (s2 ^ t2)),
        0,
    ]
}

/// Branchless modular subtraction for secp160r1 residues.
#[inline]
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

/// Schoolbook 3×3-limb product + pseudo-Mersenne reduction mod secp160r1.
#[inline]
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
#[inline]
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

/// `base^exp` for a nonzero `exp` over one kernel's `mul` and `sqr`:
/// square-and-multiply for exponents of at most 32 bits, else fixed 4-bit
/// windows over a 16-entry table.
fn pow_with(
    base: &[u64; MAX_LIMBS4],
    exp: &BigUint,
    mul: impl Fn(&[u64; MAX_LIMBS4], &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4],
    sqr: impl Fn(&[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4],
) -> [u64; MAX_LIMBS4] {
    let bits = exp.bits();
    if bits <= 32 {
        // Small exponent: plain square-and-multiply beats building a
        // 16-entry window table.
        let mut acc = *base;
        for i in (0..bits - 1).rev() {
            acc = sqr(&acc);
            if exp.bit(i) {
                acc = mul(&acc, base);
            }
        }
        return acc;
    }
    // table[w] = base^w for w = 1..15 (entry 0 is never read).
    let mut table = [*base; 16];
    for i in 2..16 {
        table[i] = mul(&table[i - 1], base);
    }
    // The `take` exponent bits below bit `i`, most significant first.
    let window =
        |i: usize, take: usize| (0..take).fold(0usize, |w, k| w << 1 | exp.bit(i - 1 - k) as usize);
    let top = match bits % 4 {
        0 => 4,
        r => r,
    };
    // The top window holds the leading bit, so it is nonzero.
    let mut acc = table[window(bits, top)];
    let mut i = bits - top;
    while i > 0 {
        for _ in 0..4 {
            acc = sqr(&acc);
        }
        let w = window(i, 4);
        if w != 0 {
            acc = mul(&acc, &table[w]);
        }
        i -= 4;
    }
    acc
}

/// Precomputed context for Montgomery multiplication modulo an odd `n` of
/// at most `MAX_LIMBS4` limbs.
///
/// # Example
///
/// ```
/// use ppgr_bigint::{BigUint, Montgomery4};
///
/// let m = Montgomery4::new(BigUint::from(101u64));
/// let a = m.enter(&BigUint::from(7u64));
/// assert_eq!(m.leave(&m.mpow(&a, &BigUint::from(100u64))), BigUint::one());
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery4 {
    n: BigUint,
    /// Modulus limbs, padded into the fixed buffer.
    n_limbs: [u64; MAX_LIMBS4],
    /// Number of significant limbs of `n`.
    limbs: usize,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` where `R = 2^(64·limbs)`; used to enter Montgomery form.
    r2: MontElem4,
    /// `R mod n`, i.e. Montgomery form of `1`.
    r1: MontElem4,
    /// Multiplication kernel (generic CIOS or the secp160r1 fast path).
    kernel: Kernel,
    /// Square-root constants, built by the first [`Self::msqrt`].
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
        let kernel = if n_limbs == P160 {
            Kernel::P160
        } else {
            Kernel::Cios
        };
        // The P160 kernel works on plain residues, so its "Montgomery form
        // of one" really is one (R = 1) and `r2` is never touched.
        let (r1_big, r2_big) = match kernel {
            Kernel::Cios => (
                BigUint::power_of_two(64 * limbs) % &n,
                BigUint::power_of_two(128 * limbs) % &n,
            ),
            Kernel::P160 => (BigUint::one(), BigUint::one()),
        };
        let to_fixed = |v: &BigUint| {
            let mut out = [0u64; MAX_LIMBS4];
            out[..v.limbs().len()].copy_from_slice(v.limbs());
            MontElem4 { limbs: out }
        };
        Montgomery4 {
            n_limbs,
            limbs,
            n_prime,
            r2: to_fixed(&r2_big),
            r1: to_fixed(&r1_big),
            kernel,
            n,
            sqrt: OnceLock::new(),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// CIOS Montgomery multiplication specialised to an `S`-limb modulus.
    #[inline]
    fn mont_mul_s<const S: usize>(
        &self,
        a: &[u64; MAX_LIMBS4],
        b: &[u64; MAX_LIMBS4],
    ) -> [u64; MAX_LIMBS4] {
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
        let mut out = [0u64; MAX_LIMBS4];
        out[..S].copy_from_slice(&t);
        out
    }

    #[inline]
    fn mont_mul(&self, a: &[u64; MAX_LIMBS4], b: &[u64; MAX_LIMBS4]) -> [u64; MAX_LIMBS4] {
        match self.limbs {
            1 => self.mont_mul_s::<1>(a, b),
            2 => self.mont_mul_s::<2>(a, b),
            3 => self.mont_mul_s::<3>(a, b),
            _ => self.mont_mul_s::<4>(a, b),
        }
    }

    /// Enters Montgomery form.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n` (callers reduce first; this is the hot path).
    #[inline]
    pub fn enter(&self, a: &BigUint) -> MontElem4 {
        assert!(a < &self.n, "operand must be reduced");
        let mut buf = [0u64; MAX_LIMBS4];
        buf[..a.limbs().len()].copy_from_slice(a.limbs());
        match self.kernel {
            Kernel::Cios => MontElem4 {
                limbs: self.mont_mul(&buf, &self.r2.limbs),
            },
            Kernel::P160 => MontElem4 { limbs: buf },
        }
    }

    /// Leaves Montgomery form.
    #[inline]
    pub fn leave(&self, a: &MontElem4) -> BigUint {
        match self.kernel {
            Kernel::Cios => {
                let mut one = [0u64; MAX_LIMBS4];
                one[0] = 1;
                let out = self.mont_mul(&a.limbs, &one);
                BigUint::from_limbs(out[..self.limbs].to_vec())
            }
            Kernel::P160 => BigUint::from_limbs(a.limbs[..self.limbs].to_vec()),
        }
    }

    /// Montgomery form of `1`.
    #[inline]
    pub fn one_elem(&self) -> MontElem4 {
        self.r1
    }

    /// Montgomery form of `0`.
    #[inline]
    pub fn zero_elem(&self) -> MontElem4 {
        MontElem4 {
            limbs: [0u64; MAX_LIMBS4],
        }
    }

    /// Returns `true` if the element is zero (zero is fixed by the domain map).
    #[inline]
    pub fn is_zero_elem(&self, a: &MontElem4) -> bool {
        a.limbs == [0u64; MAX_LIMBS4]
    }

    /// In-domain multiplication.
    #[inline]
    pub fn mmul(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        MontElem4 {
            limbs: match self.kernel {
                Kernel::Cios => self.mont_mul(&a.limbs, &b.limbs),
                Kernel::P160 => mul_p160(&a.limbs, &b.limbs),
            },
        }
    }

    /// In-domain squaring.
    #[inline]
    pub fn msqr(&self, a: &MontElem4) -> MontElem4 {
        match self.kernel {
            Kernel::Cios => self.mmul(a, a),
            Kernel::P160 => MontElem4 {
                limbs: sqr_p160(&a.limbs),
            },
        }
    }

    /// In-domain addition (Montgomery form is linear, so plain modular add).
    ///
    /// Always runs at the full four-limb width: with operands below `n` the
    /// sum fits the buffer plus a carry bit, and the padded limbs of a
    /// narrower modulus compare/subtract as zeros, so no per-width dispatch
    /// is needed for the linear ops.
    #[inline]
    pub fn madd(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        if self.kernel == Kernel::P160 {
            return MontElem4 {
                limbs: add_p160(&a.limbs, &b.limbs),
            };
        }
        let n = &self.n_limbs;
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

    /// In-domain subtraction.
    #[inline]
    pub fn msub(&self, a: &MontElem4, b: &MontElem4) -> MontElem4 {
        if self.kernel == Kernel::P160 {
            return MontElem4 {
                limbs: sub_p160(&a.limbs, &b.limbs),
            };
        }
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
                let v = t[i] as u128 + self.n_limbs[i] as u128 + carry;
                t[i] = v as u64;
                carry = v >> 64;
            }
        }
        MontElem4 { limbs: t }
    }

    /// In-domain doubling.
    #[inline]
    pub fn mdbl(&self, a: &MontElem4) -> MontElem4 {
        self.madd(a, a)
    }

    /// In-domain small-constant multiple (`k` small; repeated doubling).
    pub fn msmall(&self, a: &MontElem4, k: u64) -> MontElem4 {
        // The curve formulas only ever ask for 3, 4, and 8; short add
        // chains skip the generic loop's zero-accumulator bootstrap add.
        match k {
            2 => return self.mdbl(a),
            3 => return self.madd(&self.mdbl(a), a),
            4 => return self.mdbl(&self.mdbl(a)),
            8 => return self.mdbl(&self.mdbl(&self.mdbl(a))),
            _ => {}
        }
        let mut acc = self.zero_elem();
        let mut base = *a;
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
    pub fn mpow(&self, base: &MontElem4, exp: &BigUint) -> MontElem4 {
        if exp.is_zero() {
            return self.one_elem();
        }
        // The kernel is chosen once, so the whole ladder runs it inline.
        let limbs = match self.kernel {
            Kernel::Cios => pow_with(
                &base.limbs,
                exp,
                |a, b| self.mont_mul(a, b),
                |a| self.mont_mul(a, a),
            ),
            Kernel::P160 => pow_with(&base.limbs, exp, mul_p160, sqr_p160),
        };
        MontElem4 { limbs }
    }

    /// In-domain inverse of a nonzero element via Fermat's little theorem
    /// (`a^{n-2}`); the modulus must be prime, which holds for every curve
    /// field the framework inverts under.
    pub fn minv(&self, a: &MontElem4) -> MontElem4 {
        let e = self
            .n
            .checked_sub(&BigUint::from(2u64))
            .expect("modulus is at least 3");
        self.mpow(a, &e)
    }

    /// In-domain square root: some `r` with `r² = a`, or `None` when `a` is
    /// a quadratic non-residue. The other root is `−r`.
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
    pub fn msqrt(&self, a: &MontElem4) -> Option<MontElem4> {
        if self.is_zero_elem(a) {
            return Some(*a);
        }
        let k = self.sqrt.get_or_init(|| self.sqrt_consts());
        let one = self.one_elem();
        let w = self.mpow(a, &k.e);
        let mut r = self.mmul(a, &w);
        let mut t = self.mmul(&r, &w);
        // Invariants: r² = a·t, and c has order 2^s_left; t's order is
        // below 2^s_left for a residue and 2^s_left for a non-residue.
        let (mut c, mut s_left) = (k.c, k.s);
        while t != one {
            // The least i with t^(2^i) = 1.
            let mut i = 0;
            let mut t2 = t;
            while t2 != one {
                t2 = self.msqr(&t2);
                i += 1;
                if i == s_left {
                    return None;
                }
            }
            let mut b = c;
            for _ in 0..s_left - i - 1 {
                b = self.msqr(&b);
            }
            c = self.msqr(&b);
            t = self.mmul(&t, &c);
            r = self.mmul(&r, &b);
            s_left = i;
        }
        Some(r)
    }

    /// Builds [`SqrtConsts`] for a prime modulus.
    fn sqrt_consts(&self) -> SqrtConsts {
        let n1 = &self.n - &BigUint::one();
        let s = n1.trailing_zeros();
        let m = n1.shr(s);
        let minus_one = self.msub(&self.zero_elem(), &self.one_elem());
        // A non-residue's m-th power has order exactly 2^s; for s = 1 that
        // is −1, whichever non-residue it is.
        let c = if s == 1 {
            minus_one
        } else {
            let half = n1.shr(1);
            let z = (2u64..1 << 16)
                .map(BigUint::from)
                .take_while(|z| z < &self.n)
                .map(|z| self.enter(&z))
                .find(|z| self.mpow(z, &half) == minus_one)
                .expect("msqrt needs a prime modulus");
            self.mpow(&z, &m)
        };
        SqrtConsts { s, e: m.shr(1), c }
    }

    /// Batch in-domain inversion by Montgomery's trick: one [`Self::minv`]
    /// plus three multiplications per element instead of one inversion each.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_minv(&self, elems: &[MontElem4]) -> Vec<MontElem4> {
        if elems.is_empty() {
            return Vec::new();
        }
        // prefix[i] = elems[0]·…·elems[i]
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = elems[0];
        assert!(!self.is_zero_elem(&acc), "cannot invert zero");
        prefix.push(acc);
        for e in &elems[1..] {
            assert!(!self.is_zero_elem(e), "cannot invert zero");
            acc = self.mmul(&acc, e);
            prefix.push(acc);
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
            assert_eq!(
                small.leave(&small.mmul(&am, &bm)),
                wide.leave(&wide.mmul(&aw, &bw))
            );
            assert_eq!(
                small.leave(&small.madd(&am, &bm)),
                wide.leave(&wide.madd(&aw, &bw))
            );
            assert_eq!(
                small.leave(&small.msub(&am, &bm)),
                wide.leave(&wide.msub(&aw, &bw))
            );
            assert_eq!(
                small.leave(&small.msub(&bm, &am)),
                wide.leave(&wide.msub(&bw, &aw))
            );
            assert_eq!(small.leave(&small.msqr(&am)), wide.leave(&wide.msqr(&aw)));
            assert_eq!(small.leave(&small.mdbl(&am)), wide.leave(&wide.mdbl(&aw)));
            assert_eq!(
                small.leave(&small.msmall(&am, 8)),
                wide.leave(&wide.msmall(&aw, 8))
            );
            let e = BigUint::from_hex_str("fedcba9876543210fedcba98").unwrap();
            assert_eq!(
                small.leave(&small.mpow(&am, &e)),
                wide.leave(&wide.mpow(&aw, &e))
            );
            assert_eq!(small.leave(&small.one_elem()), BigUint::one());
            assert!(small.is_zero_elem(&small.zero_elem()));
            assert_eq!(small.leave(&small.enter(&BigUint::zero())), BigUint::zero());
        }
    }

    #[test]
    fn inverse_round_trips() {
        for n in test_moduli() {
            let small = Montgomery4::new(n.clone());
            let a = &BigUint::from_hex_str("deadbeefcafebabe0123456789").unwrap() % &n;
            let am = small.enter(&a);
            assert_eq!(
                small.leave(&small.mmul(&am, &small.minv(&am))),
                BigUint::one()
            );
            let elems: Vec<MontElem4> = (1u64..9)
                .map(|k| small.enter(&(&BigUint::from(k * 7 + 1) % &n)))
                .collect();
            let invs = small.batch_minv(&elems);
            for (e, inv) in elems.iter().zip(&invs) {
                assert_eq!(small.leave(&small.mmul(e, inv)), BigUint::one());
            }
        }
    }

    #[test]
    fn mpow_edge_exponents() {
        let n = BigUint::from(1_000_003u64);
        let m = Montgomery4::new(n.clone());
        let a = m.enter(&BigUint::from(5u64));
        assert_eq!(m.leave(&m.mpow(&a, &BigUint::zero())), BigUint::one());
        assert_eq!(m.leave(&m.mpow(&a, &BigUint::one())), BigUint::from(5u64));
        assert_eq!(
            m.leave(&m.mpow(&a, &BigUint::from(13u64))),
            BigUint::from(5u64).modpow(&BigUint::from(13u64), &n)
        );
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
