//! Multi-scalar multiplication: one engine, two backends.
//!
//! Computes `Π bᵢ^{kᵢ}` (multiplicative notation; `Σ kᵢ·Pᵢ` on curves) in
//! a single pass instead of one exponentiation per term. Two classical
//! algorithms cover the input-size spectrum:
//!
//! * **Straus interleaving** for small batches: a 16-entry 4-bit window
//!   table per base, all bases sharing one doubling ladder. Cost is about
//!   `15n` table additions plus `b` doublings plus one addition per
//!   nonzero window per base (`b` = scalar bits, `n` = terms).
//!
//! * **Pippenger bucket aggregation** for large batches: per `c`-bit
//!   window, every base is added into the bucket of its digit, and the
//!   `2^c − 1` buckets are collapsed with the running-sum trick (two
//!   additions per bucket). Cost is about `⌈b/c⌉·(n + 2^{c+1})` additions
//!   plus `b` doublings — the per-term cost shrinks toward `⌈b/c⌉`
//!   additions as `n` grows.
//!
//! The engine picks the algorithm (and Pippenger's window width `c`) by
//! evaluating both cost models for the actual term count and scalar
//! width and taking the cheapest — no hard-coded crossover tables.
//!
//! Both group families drive the same generic core: the EC family
//! accumulates Jacobian buckets and normalizes once through the batched
//! single-inversion affine conversion; the DL family accumulates
//! Montgomery residues and leaves the domain once at the end.

use crate::dl::DlGroup;
use crate::ec::{CurveKernel, EcGroup, EcPoint};
use ppgr_bigint::{with_kernel, BigUint, FieldKernel};

/// The accumulator operations one family exposes to the generic engine.
pub(crate) trait MsmOps {
    type Point: Clone;
    fn identity(&self) -> Self::Point;
    fn combine(&self, a: &Self::Point, b: &Self::Point) -> Self::Point;
    fn double(&self, a: &Self::Point) -> Self::Point;
}

struct EcMsm<'a, K>(&'a EcGroup, K);

impl<K: CurveKernel> MsmOps for EcMsm<'_, K> {
    type Point = crate::ec::Jacobian;

    fn identity(&self) -> Self::Point {
        self.0.jac_infinity()
    }

    fn combine(&self, a: &Self::Point, b: &Self::Point) -> Self::Point {
        self.0.jac_add(self.1, a, b)
    }

    fn double(&self, a: &Self::Point) -> Self::Point {
        self.0.jac_double1(self.1, a)
    }
}

pub(crate) struct DlMsm<K>(pub(crate) K);

impl<K: FieldKernel> MsmOps for DlMsm<K> {
    type Point = K::Elem;

    fn identity(&self) -> Self::Point {
        self.0.one()
    }

    fn combine(&self, a: &Self::Point, b: &Self::Point) -> Self::Point {
        self.0.mul(a, b)
    }

    fn double(&self, a: &Self::Point) -> Self::Point {
        self.0.sqr(a)
    }
}

/// Which algorithm (and window width) to run for a given input shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plan {
    Straus,
    Pippenger { c: usize },
}

/// Straus cost model in group operations: per-base table build (15 adds),
/// the shared doubling ladder, and one table addition per 4-bit window
/// per base (bounding the nonzero-window fraction by 1 keeps the choice
/// deterministic and slightly favors Pippenger at the margin).
fn straus_cost(n: usize, bits: usize) -> usize {
    15 * n + bits + bits.div_ceil(4) * n
}

/// Pippenger cost model for window width `c`: one bucket insertion per
/// window per base, two additions per bucket for the running-sum
/// aggregation, and the shared doubling ladder.
fn pippenger_cost(n: usize, bits: usize, c: usize) -> usize {
    bits.div_ceil(c) * (n + 2 * ((1usize << c) - 1)) + bits
}

/// Auto-selects the algorithm and window width from the input count and
/// scalar bit-length by minimizing the two cost models.
pub(crate) fn plan(n: usize, bits: usize) -> Plan {
    let mut best = Plan::Straus;
    let mut best_cost = straus_cost(n, bits);
    for c in 2..=13 {
        let cost = pippenger_cost(n, bits, c);
        if cost < best_cost {
            best_cost = cost;
            best = Plan::Pippenger { c };
        }
    }
    best
}

/// The wNAF width every recoding uses: digits are odd and below
/// `2^WNAF_WIDTH = 16` in magnitude, so they fit in an `i8`, and the
/// odd-multiple tables hold 8 entries.
const WNAF_WIDTH: u32 = 4;

/// A digit buffer long enough for [`wnaf_digits`] of any scalar of at
/// most four limbs — every curve order's width.
pub(crate) const WNAF_MAX_DIGITS: usize = 4 * 64 + 1;

/// Width-[`WNAF_WIDTH`] non-adjacent form of the little-endian limbs `k`:
/// LSB-first signed digits, each either zero or odd in `±{1, 3, …, 15}`,
/// at most one nonzero digit in any four consecutive positions, the last
/// one nonzero (zero has no digits). Written into `out`, whose written
/// prefix is returned; `k` may carry zero limbs above its top.
///
/// The one recoder: the batch ladders recode each scalar into a stack
/// buffer just before replaying it, and the hop ladder recodes each
/// prepared pair the same way. It reads `k` without copying it: a
/// negative digit's borrow travels as a pending carry, and each run of
/// zero digits is skipped a word at a time with `trailing_zeros` (of the
/// complement while a carry is pending, whose run of ones it absorbs).
/// No step branches on a digit's sign.
///
/// # Panics
///
/// Panics if `out` is shorter than `64·k.len() + 1` digits.
pub(crate) fn wnaf_digits<'a>(k: &[u64], out: &'a mut [i8]) -> &'a [i8] {
    const MASK: u64 = (1 << (WNAF_WIDTH + 1)) - 1;
    const STEP: usize = WNAF_WIDTH as usize + 1;
    let bits = 64 * k.len();
    // Bits `p..p + 64` of `k`, zero past its top.
    let word = |p: usize| {
        let (i, off) = (p / 64, p % 64);
        let lo = k.get(i).map_or(0, |&l| l >> off);
        let hi = match off {
            0 => 0,
            _ => k.get(i + 1).map_or(0, |&l| l << (64 - off)),
        };
        lo | hi
    };
    // A digit can land one position past k's top bit.
    let out = &mut out[..=bits];
    out.fill(0);
    // What is left to recode at `p` is `(k >> p) + carry`.
    let (mut p, mut carry, mut len) = (0usize, 0u64, 0usize);
    loop {
        // Zero digits up to the next odd remainder: k's next set bit, or
        // while a carry is pending, its next clear one.
        let flip = carry.wrapping_neg();
        let w = word(p) ^ flip;
        let run = w.trailing_zeros() as usize;
        if run == 64 {
            if carry == 0 && p + 64 >= bits {
                break;
            }
            p += 64;
            continue;
        }
        p += run;
        let ahead = match run <= 64 - STEP {
            true => (w ^ flip) >> run,
            false => word(p),
        };
        // Odd, and at most 31: with a carry pending, bit `p` of k is clear.
        // From 16 up the digit is negative and leaves a carry.
        let window = (ahead & MASK) + carry;
        carry = window >> WNAF_WIDTH;
        out[p] = window as i8 - (carry << STEP) as i8;
        len = p + 1;
        // The digit clears its window: the next WNAF_WIDTH digits are zero.
        p += STEP;
    }
    &out[..len]
}

/// Bit `i` of the little-endian limbs `k`, zero past its top.
fn bit(k: &[u64], i: usize) -> bool {
    k.get(i / 64).is_some_and(|l| l >> (i % 64) & 1 == 1)
}

/// The bit length of the little-endian limbs `k`.
fn bit_len(k: &[u64]) -> usize {
    k.iter()
        .rposition(|&l| l != 0)
        .map_or(0, |i| 64 * (i + 1) - k[i].leading_zeros() as usize)
}

/// The generic engine over little-endian scalar limbs: dispatches on
/// [`plan`] and returns the family's internal accumulator (Jacobian /
/// Montgomery residue) so the caller controls the final (possibly batched)
/// normalization.
pub(crate) fn msm<G: MsmOps>(g: &G, bases: &[G::Point], scalars: &[&[u64]]) -> G::Point {
    debug_assert_eq!(bases.len(), scalars.len());
    let bits = scalars.iter().map(|k| bit_len(k)).max().unwrap_or(0);
    if bases.is_empty() || bits == 0 {
        return g.identity();
    }
    match plan(bases.len(), bits) {
        Plan::Straus => straus(g, bases, scalars, bits),
        Plan::Pippenger { c } => pippenger(g, bases, scalars, bits, c),
    }
}

fn straus<G: MsmOps>(g: &G, bases: &[G::Point], scalars: &[&[u64]], bits: usize) -> G::Point {
    // Per-base window tables: tables[i][d] = bᵢ^d for d in 0..16.
    let tables: Vec<Vec<G::Point>> = bases
        .iter()
        .map(|p| {
            let mut t = Vec::with_capacity(16);
            t.push(g.identity());
            t.push(p.clone());
            for d in 2..16 {
                let next = g.combine(&t[d - 1], p);
                t.push(next);
            }
            t
        })
        .collect();
    let windows = bits.div_ceil(4);
    let mut acc: Option<G::Point> = None;
    for w in (0..windows).rev() {
        if let Some(a) = acc.as_mut() {
            for _ in 0..4 {
                *a = g.double(a);
            }
        }
        for (table, k) in tables.iter().zip(scalars) {
            let mut window = 0usize;
            for b in 0..4 {
                window |= (bit(k, 4 * w + b) as usize) << b;
            }
            if window != 0 {
                acc = Some(match acc {
                    None => table[window].clone(),
                    Some(a) => g.combine(&a, &table[window]),
                });
            }
        }
    }
    acc.unwrap_or_else(|| g.identity())
}

fn pippenger<G: MsmOps>(
    g: &G,
    bases: &[G::Point],
    scalars: &[&[u64]],
    bits: usize,
    c: usize,
) -> G::Point {
    let windows = bits.div_ceil(c);
    let mut buckets: Vec<Option<G::Point>> = vec![None; (1 << c) - 1];
    let mut acc: Option<G::Point> = None;
    for w in (0..windows).rev() {
        if let Some(a) = acc.as_mut() {
            for _ in 0..c {
                *a = g.double(a);
            }
        }
        for b in buckets.iter_mut() {
            *b = None;
        }
        for (p, k) in bases.iter().zip(scalars) {
            let mut d = 0usize;
            for t in 0..c {
                d |= (bit(k, c * w + t) as usize) << t;
            }
            if d != 0 {
                let slot = &mut buckets[d - 1];
                *slot = Some(match slot.take() {
                    None => p.clone(),
                    Some(cur) => g.combine(&cur, p),
                });
            }
        }
        // Running-sum aggregation: scanning buckets from the highest digit
        // down, `running` holds Σ_{d' ≥ d} bucket_{d'} and `sum` collects
        // Σ d·bucket_d — two additions per occupied bucket, none for the
        // empty ones.
        let mut running: Option<G::Point> = None;
        let mut sum: Option<G::Point> = None;
        for b in buckets.iter().rev() {
            if let Some(p) = b {
                running = Some(match running.take() {
                    None => p.clone(),
                    Some(r) => g.combine(&r, p),
                });
            }
            if let Some(r) = &running {
                sum = Some(match sum.take() {
                    None => r.clone(),
                    Some(s) => g.combine(&s, r),
                });
            }
        }
        if let Some(s) = sum {
            acc = Some(match acc {
                None => s,
                Some(a) => g.combine(&a, &s),
            });
        }
    }
    acc.unwrap_or_else(|| g.identity())
}

/// EC entry point: buckets accumulate in Jacobian coordinates; the single
/// result is normalized through the Fermat-inversion affine conversion.
pub(crate) fn msm_ec(g: &EcGroup, pairs: &[(&EcPoint, &BigUint)]) -> EcPoint {
    let scalars: Vec<&[u64]> = pairs.iter().map(|(_, e)| e.limbs()).collect();
    with_kernel!(curve: &g.fp, |k| {
        let bases: Vec<_> = pairs.iter().map(|(p, _)| g.to_jacobian(k, p)).collect();
        g.to_affine(k, &msm(&EcMsm(g, k), &bases, &scalars))
    })
}

/// DL entry point: the whole evaluation stays in the Montgomery domain at
/// the modulus's width; one `enter` per base, one `leave` for the result.
pub(crate) fn msm_dl(g: &DlGroup, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
    let scalars: Vec<&[u64]> = pairs.iter().map(|(_, e)| e.limbs()).collect();
    with_kernel!(dl: &g.mont, |k| {
        let bases: Vec<_> = pairs.iter().map(|(b, _)| g.enter(k, b)).collect();
        k.leave(&msm(&DlMsm(k), &bases, &scalars))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_prefers_straus_for_tiny_inputs_and_pippenger_for_large() {
        assert_eq!(plan(1, 160), Plan::Straus);
        assert_eq!(plan(2, 160), Plan::Straus);
        let Plan::Pippenger { c } = plan(512, 160) else {
            panic!("512-term MSM should bucket-aggregate");
        };
        assert!((4..=13).contains(&c), "c={c}");
        // Wider scalars justify wider windows at the same term count.
        let cost_at = |n: usize, bits: usize| match plan(n, bits) {
            Plan::Straus => 0,
            Plan::Pippenger { c } => c,
        };
        assert!(cost_at(4096, 1024) >= cost_at(4096, 160));
    }

    /// The recoder the limb recoder replaced, kept as its reference: it
    /// copies the limbs and clears each digit's window in the copy,
    /// propagating a negative digit's carry through the limbs at once.
    fn reference_wnaf(k: &BigUint) -> Vec<i8> {
        let w = WNAF_WIDTH;
        let mut limbs = k.limbs().to_vec();
        limbs.push(0);
        let modulus = 1u64 << (w + 1);
        let mask = modulus - 1;
        let half = 1u64 << w;
        let wu = w as usize;
        let mut digits = Vec::new();
        let mut pos = 0usize;
        let mut top = limbs.len();
        loop {
            while top > 0 && limbs[top - 1] == 0 {
                top -= 1;
            }
            if pos >= 64 * top {
                break;
            }
            let (li, off) = (pos / 64, pos % 64);
            if (limbs[li] >> off) & 1 == 0 {
                digits.push(0);
                pos += 1;
                continue;
            }
            let mut window = limbs[li] >> off;
            if off > 0 && li + 1 < limbs.len() {
                window |= limbs[li + 1] << (64 - off);
            }
            let low = window & mask;
            limbs[li] &= !(mask << off);
            if off + wu + 1 > 64 && li + 1 < limbs.len() {
                limbs[li + 1] &= !(mask >> (64 - off));
            }
            if low >= half {
                digits.push((low as i64 - modulus as i64) as i8);
                let cpos = pos + wu + 1;
                let mut ci = cpos / 64;
                let mut add = 1u64 << (cpos % 64);
                loop {
                    let (v, carried) = limbs[ci].overflowing_add(add);
                    limbs[ci] = v;
                    if !carried {
                        break;
                    }
                    ci += 1;
                    add = 1;
                }
                top = top.max(ci + 1);
            } else {
                digits.push(low as i8);
            }
            pos += 1;
        }
        digits
    }

    /// `Σ dᵢ·2^i` split by sign: `(positive part, negative part)`.
    fn reconstruct(digits: &[i8]) -> (BigUint, BigUint) {
        let (mut pos, mut neg) = (BigUint::zero(), BigUint::zero());
        for (i, &d) in digits.iter().enumerate() {
            let term = BigUint::from(d.unsigned_abs() as u64).shl(i);
            if d > 0 {
                pos = &pos + &term;
            } else {
                neg = &neg + &term;
            }
        }
        (pos, neg)
    }

    #[test]
    fn limb_recoder_matches_the_reference_and_reconstructs() {
        use crate::GroupKind;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let one = BigUint::one();
        for kind in [GroupKind::Ecc160, GroupKind::Ecc224, GroupKind::Ecc256] {
            let q = kind.group().order().clone();
            let width = q.limbs().len();
            let mut ks: Vec<BigUint> = vec![
                BigUint::zero(),
                one.clone(),
                &q - &one,
                // Long zero runs: within a limb, across whole limbs, and
                // below the top bit.
                &BigUint::power_of_two(150) + &one,
                &BigUint::power_of_two(64 * (width - 1)) + &BigUint::from(3u64),
                BigUint::power_of_two(q.bits() - 1),
                // Carries across a limb boundary: a negative digit near a
                // limb's top whose carry runs through ones into the next.
                BigUint::from_limbs(vec![u64::MAX; width - 1]),
                BigUint::from_limbs(vec![0xf800_0000_0000_0000, u64::MAX, 1]),
                BigUint::from_limbs(vec![0x1f << 60, 0x0f]),
                BigUint::from(u64::MAX),
                BigUint::from(0xdead_beefu64),
            ];
            ks.extend((0..200).map(|_| ppgr_bigint::random_below(&mut rng, &q)));
            // One buffer for every scalar: each recoding must replace the
            // last one's digits, longer or shorter.
            let mut buf = [0i8; WNAF_MAX_DIGITS];
            for k in ks.iter().filter(|k| **k < q) {
                let want = reference_wnaf(k);
                assert_eq!(wnaf_digits(k.limbs(), &mut buf), want, "{kind} k={k:?}");
                // Zero limbs above the top recode alike: a hop set stores
                // its scalars at the order's width.
                let mut padded = k.limbs().to_vec();
                padded.resize(width, 0);
                let digits = wnaf_digits(&padded, &mut buf);
                assert_eq!(digits, want, "{kind} padded k={k:?}");
                let (pos, neg) = reconstruct(digits);
                assert_eq!(pos, k + &neg, "{kind} k={k:?}");
                assert!(digits.last().is_none_or(|&d| d != 0), "{kind} k={k:?}");
                for &d in digits {
                    assert!(d == 0 || (d % 2 != 0 && d.unsigned_abs() < 16), "d={d}");
                }
                // Non-adjacency: no two nonzero digits within w positions.
                for run in digits.windows(WNAF_WIDTH as usize) {
                    assert!(
                        run.iter().filter(|&&d| d != 0).count() <= 1,
                        "{kind} k={k:?}"
                    );
                }
            }
        }
    }
}
