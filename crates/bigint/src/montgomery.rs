//! Montgomery-form modular arithmetic: one context type for every odd
//! modulus in the workspace.
//!
//! A [`Montgomery`] context picks its kernel when it is built:
//! [`P160Kernel`] for the secp160r1 prime, else CIOS ([`CiosKernel`]) at
//! the narrowest of 4, 16, 32 and 48 limbs that holds the modulus,
//! zero-padded. The other curve fields and every narrower modulus run at
//! four limbs, the 1024-, 2048- and 3072-bit DL primes at their own
//! widths, and any other width (Paillier's `n²`, Miller–Rabin candidates)
//! on the next wider kernel.
//!
//! Code that stays in the domain across many operations — every curve
//! formula, DL ladder and multi-exponentiation — runs on the kernel
//! through [`with_kernel!`](crate::with_kernel). The context's own
//! methods take and return [`BigUint`]s, entering and leaving the domain
//! around one product or one exponentiation, for `Fp`, Paillier,
//! Miller–Rabin, [`BigUint::modpow`] and `sqrt_mod_prime`.

use crate::kernel::{CiosKernel, FieldKernel, P160Kernel, SqrtConsts, P160};
use crate::uint::BigUint;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Maximum modulus size in limbs (3072-bit DL group = 48 limbs).
pub const MAX_LIMBS: usize = 48;

/// The CIOS kernel widths in limbs, narrowest first.
const WIDTHS: [usize; 4] = [4, 16, 32, 48];

/// Precomputed context for Montgomery multiplication modulo an odd `n` of
/// at most `MAX_LIMBS` (48) limbs. Its arithmetic runs through its kernel.
///
/// # Example
///
/// ```
/// use ppgr_bigint::{with_kernel, BigUint, FieldKernel, Montgomery};
///
/// let m = Montgomery::new(BigUint::from(101u64));
/// let a = BigUint::from(7u64);
/// assert_eq!(m.pow(&a, &BigUint::from(100u64)), BigUint::one()); // Fermat
/// let cube = with_kernel!(&m, |k| {
///     let am = k.enter(&a);
///     k.leave(&k.mul(&k.sqr(&am), &am))
/// });
/// assert_eq!(cube, BigUint::from(343u64 % 101));
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery {
    pub(crate) n: BigUint,
    /// Modulus limbs, zero-padded.
    pub(crate) n_limbs: [u64; MAX_LIMBS],
    /// `−n^{−1} mod 2^64`.
    pub(crate) n_prime: u64,
    /// `R mod n` with `R = 2^(64·width)`, the domain's `1`; plain `1` for
    /// the P-160 kernel, whose `R` is 1.
    pub(crate) r1: [u64; MAX_LIMBS],
    /// `R² mod n`: a product with it enters the domain.
    pub(crate) r2: [u64; MAX_LIMBS],
    /// The CIOS width in limbs: one of [`WIDTHS`].
    width: usize,
    /// Whether `n` is the secp160r1 prime, which runs [`P160Kernel`].
    p160: bool,
    /// Square-root constants, built by the first [`FieldKernel::sqrt`].
    pub(crate) sqrt: OnceLock<SqrtConsts>,
}

/// A [`Montgomery`] context's kernel as a value of the kernel's own type,
/// for [`with_kernel!`](crate::with_kernel) to compile a block for.
#[derive(Clone, Copy, Debug)]
pub enum Kernel<'a> {
    /// The secp160r1 prime.
    P160(P160Kernel<'a>),
    /// CIOS at four limbs: the other curve fields and every narrower
    /// modulus.
    Cios4(CiosKernel<'a, 4>),
    /// CIOS at 16 limbs: the 1024-bit DL prime, and moduli of 5–16 limbs.
    Cios16(CiosKernel<'a, 16>),
    /// CIOS at 32 limbs: the 2048-bit DL prime, and moduli of 17–32 limbs.
    Cios32(CiosKernel<'a, 32>),
    /// CIOS at 48 limbs: the 3072-bit DL prime, and moduli of 33–48 limbs.
    Cios48(CiosKernel<'a, 48>),
}

/// Runs `$body` with `$k` bound to the kernel of the [`Montgomery`]
/// context `$field`: one match, and one copy of `$body` per kernel type,
/// in which every [`FieldKernel`] operation is a direct call the compiler
/// can inline.
///
/// `with_kernel!(curve: …)` compiles `$body` for the two curve-field
/// kernels (P-160 and four-limb CIOS) and `with_kernel!(dl: …)` for the
/// three wide ones, so curve code is never built at a DL width nor DL code
/// at a curve's; either panics on a context of the other family. Without
/// a family, `$body` is compiled for all five.
///
/// ```
/// use ppgr_bigint::{with_kernel, BigUint, FieldKernel, Montgomery};
///
/// let f = Montgomery::new(BigUint::from(101u64));
/// let root = with_kernel!(curve: &f, |k| k.sqrt(&k.enter(&BigUint::from(4u64))));
/// assert!(root.is_some());
/// ```
#[macro_export]
macro_rules! with_kernel {
    (curve: $field:expr, |$k:ident| $body:expr) => {
        match $crate::Montgomery::kernel($field) {
            $crate::Kernel::P160($k) => $body,
            $crate::Kernel::Cios4($k) => $body,
            _ => panic!("not a curve field: the modulus is wider than four limbs"),
        }
    };
    (dl: $field:expr, |$k:ident| $body:expr) => {
        match $crate::Montgomery::kernel($field) {
            $crate::Kernel::Cios16($k) => $body,
            $crate::Kernel::Cios32($k) => $body,
            $crate::Kernel::Cios48($k) => $body,
            _ => panic!("not a DL prime: the modulus is at most four limbs wide"),
        }
    };
    ($field:expr, |$k:ident| $body:expr) => {
        match $crate::Montgomery::kernel($field) {
            $crate::Kernel::P160($k) => $body,
            $crate::Kernel::Cios4($k) => $body,
            $crate::Kernel::Cios16($k) => $body,
            $crate::Kernel::Cios32($k) => $body,
            $crate::Kernel::Cios48($k) => $body,
        }
    };
}

impl Montgomery {
    /// Builds a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero, or wider than `MAX_LIMBS` limbs.
    pub fn new(n: BigUint) -> Self {
        assert!(n.is_odd(), "Montgomery reduction requires an odd modulus");
        let limbs = n.limbs();
        let width = WIDTHS
            .into_iter()
            .find(|&w| limbs.len() <= w)
            .expect("modulus exceeds MAX_LIMBS");
        let n0 = limbs[0];
        // Newton iteration for the inverse of n mod 2^64.
        let mut inv = n0; // valid to 3 bits
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let p160 = limbs == &P160[..3];
        // The P-160 kernel works on plain residues, so its R is 1.
        let r = match p160 {
            true => BigUint::one(),
            false => BigUint::power_of_two(64 * width) % &n,
        };
        let pad = |v: &BigUint| {
            let mut out = [0u64; MAX_LIMBS];
            out[..v.limbs().len()].copy_from_slice(v.limbs());
            out
        };
        Montgomery {
            n_limbs: pad(&n),
            n_prime: inv.wrapping_neg(),
            r1: pad(&r),
            r2: pad(&(&(&r * &r) % &n)),
            width,
            p160,
            sqrt: OnceLock::new(),
            n,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// This context's kernel, which [`with_kernel!`](crate::with_kernel)
    /// matches on.
    #[inline]
    pub fn kernel(&self) -> Kernel<'_> {
        match (self.p160, self.width) {
            (true, _) => Kernel::P160(P160Kernel(self)),
            (false, 4) => Kernel::Cios4(CiosKernel(self)),
            (false, 16) => Kernel::Cios16(CiosKernel(self)),
            (false, 32) => Kernel::Cios32(CiosKernel(self)),
            (false, _) => Kernel::Cios48(CiosKernel(self)),
        }
    }

    /// `a mod n`, borrowed when `a` is below `n` already.
    pub fn reduce<'a>(&self, a: &'a BigUint) -> Cow<'a, BigUint> {
        match a < &self.n {
            true => Cow::Borrowed(a),
            false => Cow::Owned(a % &self.n),
        }
    }

    /// Modular multiplication `a·b mod n` in two kernel multiplications:
    /// `a` enters the domain as `a·R`, and one multiplication by the plain
    /// limbs of `b` gives `a·R·b·R⁻¹ = a·b`, which is outside the domain
    /// already and fully reduced.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (self.reduce(a), self.reduce(b));
        with_kernel!(self, |k| {
            let mut plain = k.zero();
            plain.as_mut()[..b.limbs().len()].copy_from_slice(b.limbs());
            BigUint::from_limbs(k.mul(&k.enter(&a), &plain).as_ref().to_vec())
        })
    }

    /// Modular squaring `a² mod n`.
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        self.pow_limbs(a, &[2])
    }

    /// Windowed modular exponentiation `base^exp mod n`
    /// ([`FieldKernel::pow`]).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow_limbs(base, exp.limbs())
    }

    /// `base^exp mod n` for the exponent limbs `exp`: the one kernel match
    /// behind [`Self::sqr`] and [`Self::pow`], entering the domain once and
    /// leaving it once.
    fn pow_limbs(&self, base: &BigUint, exp: &[u64]) -> BigUint {
        let base = self.reduce(base);
        with_kernel!(self, |k| k.leave(&k.pow(&k.enter(&base), exp)))
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
        assert_eq!(m.sqr(&a), &(&a * &a) % &n);
    }

    #[test]
    fn mul_matches_plain_reduction_on_every_kernel() {
        // The secp160r1 prime (the P-160 kernel, whose R is 1), the P-256
        // prime, and odd moduli of 2, 16, 32 and 48 limbs: every kernel,
        // and a modulus zero-padded to four limbs.
        let mut moduli = vec![
            BigUint::from_hex_str("ffffffffffffffffffffffffffffffff7fffffff").unwrap(),
            BigUint::from_hex_str(
                "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
            )
            .unwrap(),
        ];
        for limbs in [2, 16, 32, 48] {
            let n = BigUint::power_of_two(64 * limbs).checked_sub(&BigUint::from(1105u64));
            moduli.push(n.unwrap());
        }
        for n in moduli {
            let m = Montgomery::new(n.clone());
            let bits = n.bits();
            let mid = &BigUint::power_of_two(bits * 2 / 3) + &BigUint::from(0x9e37_79b9u64);
            // Operands at or above `n` take a remainder first.
            let operands = [
                BigUint::zero(),
                BigUint::one(),
                n.checked_sub(&BigUint::one()).unwrap(),
                &(&n * &n) + &mid,
                &n + &BigUint::from(7u64),
                mid,
                n.clone(),
            ];
            for a in &operands {
                for b in &operands {
                    assert_eq!(m.mul(a, b), &(a * b) % &n, "{bits}-bit modulus");
                }
                assert_eq!(m.sqr(a), &(a * a) % &n, "{bits}-bit modulus");
            }
        }
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
        // 2^521 - 1 is prime (Mersenne): nine limbs, on the 16-limb kernel.
        let p = BigUint::power_of_two(521)
            .checked_sub(&BigUint::one())
            .unwrap();
        let m = Montgomery::new(p.clone());
        let a = BigUint::from(123456789u64);
        let e = p.checked_sub(&BigUint::one()).unwrap();
        assert_eq!(m.pow(&a, &e), BigUint::one());
    }

    #[test]
    fn kernel_is_the_narrowest_width_that_holds_the_modulus() {
        let p160 = BigUint::from_hex_str("ffffffffffffffffffffffffffffffff7fffffff").unwrap();
        assert!(matches!(Montgomery::new(p160).kernel(), Kernel::P160(_)));
        let odd_of = |limbs: usize| &BigUint::power_of_two(64 * limbs - 1) + &BigUint::one();
        for (limbs, want) in [
            (1, 4),
            (4, 4),
            (5, 16),
            (16, 16),
            (17, 32),
            (32, 32),
            (33, 48),
        ] {
            let got = match Montgomery::new(odd_of(limbs)).kernel() {
                Kernel::P160(_) => 0,
                Kernel::Cios4(_) => 4,
                Kernel::Cios16(_) => 16,
                Kernel::Cios32(_) => 32,
                Kernel::Cios48(_) => 48,
            };
            assert_eq!(got, want, "{limbs} limbs");
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = Montgomery::new(BigUint::from(100u64));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LIMBS")]
    fn modulus_wider_than_48_limbs_rejected() {
        let _ = Montgomery::new(&BigUint::power_of_two(64 * MAX_LIMBS) + &BigUint::one());
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
