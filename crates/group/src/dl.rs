//! DL groups: the quadratic-residue subgroup of a safe prime.
//!
//! For a safe prime `p = 2q + 1`, the quadratic residues form the unique
//! subgroup of prime order `q`, in which DDH is conjectured hard. We use
//! the RFC 3526 "More Modular Exponential Diffie-Hellman groups" at
//! 1024 (RFC 2409 Oakley group 2), 2048 and 3072 bits, with generator
//! `4 = 2²` (a residue, hence a generator of the order-`q` subgroup).

use crate::traits::DecodeElementError;
use crate::{Element, HopScalars};
use ppgr_bigint::{modular, odd_powers, windows, with_kernel, BigUint, FieldKernel, Montgomery};

/// Named safe-prime parameter sets.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum DlParams {
    /// 1024-bit MODP group (Oakley group 2, RFC 2409).
    Modp1024,
    /// 2048-bit MODP group (RFC 3526 group 14).
    Modp2048,
    /// 3072-bit MODP group (RFC 3526 group 15).
    Modp3072,
}

/// RFC 2409 Second Oakley Group (1024-bit safe prime).
const MODP_1024: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE65381
    FFFFFFFF FFFFFFFF";

/// RFC 3526 group 14 (2048-bit safe prime).
const MODP_2048: &str = "
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
    15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

/// RFC 3526 group 15 (3072-bit safe prime).
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

/// A fixed-base comb table for one subgroup element: row `i` holds
/// `a^(d·16^i)` for `d = 1..15` in Montgomery form, each entry at the
/// modulus's width — 16 limbs, 128 B, on DL-1024.
///
/// Built with [`Group::prepare_base`](crate::Group::prepare_base);
/// afterwards every exponentiation by that base costs one Montgomery
/// multiplication per 4 exponent bits and no squarings — roughly a quarter
/// the work of a generic windowed exponentiation. The build cost amortizes
/// after a few exponentiations.
pub struct DlComb {
    /// The rows' entries end to end.
    limbs: Vec<u64>,
    /// Limbs per entry: the width of the modulus's kernel.
    width: usize,
}

impl DlComb {
    /// The number of entries, 15 per row.
    pub(crate) fn entries(&self) -> usize {
        self.limbs.len() / self.width
    }
}

/// The quadratic-residue subgroup of a safe prime.
#[derive(Debug)]
pub struct DlGroup {
    params: DlParams,
    p: BigUint,
    q: BigUint,
    generator: Element,
    /// Arithmetic mod `p`, on the CIOS kernel at `p`'s width.
    pub(crate) mont: Montgomery,
    element_len: usize,
}

impl DlGroup {
    /// Builds one of the fixed parameter sets.
    pub fn new(params: DlParams) -> Self {
        let hex = match params {
            DlParams::Modp1024 => MODP_1024,
            DlParams::Modp2048 => MODP_2048,
            DlParams::Modp3072 => MODP_3072,
        };
        // tidy:allow(panic) — parses a vetted compile-time prime constant; exercised by every test
        let p = BigUint::from_hex_str(hex).expect("vetted constant");
        // tidy:allow(panic) — p is a vetted 1024+-bit prime, so p − 1 cannot underflow
        let q = p.checked_sub(&BigUint::one()).expect("p > 1").shr(1);
        let element_len = p.bits().div_ceil(8);
        let mont = Montgomery::new(p.clone());
        DlGroup {
            params,
            p,
            q,
            generator: Element::Dl(BigUint::from(4u64)),
            mont,
            element_len,
        }
    }

    /// `a mod p` in the domain of `k`, this group's kernel.
    pub(crate) fn enter<K: FieldKernel>(&self, k: K, a: &BigUint) -> K::Elem {
        k.enter(&self.mont.reduce(a))
    }

    /// Builds a fixed-base comb table for `a` (an element below `p`).
    pub(crate) fn build_comb(&self, a: &BigUint) -> DlComb {
        let rows = self.q.bits().div_ceil(4);
        with_kernel!(dl: &self.mont, |k| {
            // `entry` runs through a^1, …, a^15 of each row, ending on the
            // next row's base a^16.
            let mut entry = self.enter(k, a);
            let mut limbs = Vec::with_capacity(rows * 15 * entry.len());
            for _ in 0..rows {
                let base = entry;
                for _ in 0..15 {
                    limbs.extend_from_slice(&entry);
                    entry = k.mul(&entry, &base);
                }
            }
            DlComb {
                limbs,
                width: entry.len(),
            }
        })
    }

    /// Fixed-base exponentiation via a prebuilt comb table: one Montgomery
    /// multiplication per 4 exponent bits, no squarings.
    pub(crate) fn pow_comb(&self, comb: &DlComb, e: &BigUint) -> BigUint {
        let e = e % &self.q;
        with_kernel!(dl: &self.mont, |k| {
            let (entries, _) = comb.limbs.as_chunks();
            let mut acc = k.one();
            for (i, row) in entries.chunks_exact(15).enumerate() {
                let window = (0..4).fold(0, |w, b| w | (e.bit(4 * i + b) as usize) << b);
                if window != 0 {
                    acc = k.mul(&acc, &row[window - 1]);
                }
            }
            k.leave(&acc)
        })
    }

    /// The named parameter set.
    pub fn params(&self) -> DlParams {
        self.params
    }

    /// The safe-prime modulus `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// The subgroup order `q = (p − 1) / 2`.
    pub fn order(&self) -> &BigUint {
        &self.q
    }

    /// The generator (`4`).
    pub fn generator(&self) -> &Element {
        &self.generator
    }

    pub(crate) fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont.mul(a, b)
    }

    pub(crate) fn pow(&self, a: &BigUint, e: &BigUint) -> BigUint {
        self.mont.pow(a, e)
    }

    /// Fused hop batch over a prepared set: each `(a, i, b)` yields
    /// `(a^r·b^s, b^r)` for randomizer `i`'s pair `(r, s)`, read from the
    /// set's limbs. Each item builds `a`'s and `b`'s odd-power tables once
    /// and runs both results as the two lanes of one sliding-window ladder
    /// ([`hop_lanes`]).
    pub(crate) fn hop_batch(
        &self,
        set: &HopScalars,
        items: &[(&BigUint, usize, &BigUint)],
    ) -> Vec<(BigUint, BigUint)> {
        with_kernel!(dl: &self.mont, |k| {
            items
                .iter()
                .map(|&(a, i, b)| {
                    let (r, s) = set.pair(i);
                    let [ta, tb] = [a, b].map(|x| odd_powers(&k, &self.enter(k, x)));
                    let [masked, beta] = hop_lanes(k, r, &ta, s, &tb);
                    (k.leave(&masked), k.leave(&beta))
                })
                .collect()
        })
    }

    pub(crate) fn inv(&self, a: &BigUint) -> BigUint {
        self.inv_batch(&[a]).remove(0)
    }

    /// Inverts every element with one Fermat inversion (`p` is prime) plus
    /// three multiplications per element ([`FieldKernel::batch_inv`]); a
    /// single element costs one inversion.
    ///
    /// # Panics
    ///
    /// Panics if an element is zero mod `p`; group elements are units.
    pub(crate) fn inv_batch(&self, elems: &[&BigUint]) -> Vec<BigUint> {
        with_kernel!(dl: &self.mont, |k| {
            let ms: Vec<_> = elems.iter().map(|a| self.enter(k, a)).collect();
            k.batch_inv(&ms).iter().map(|m| k.leave(m)).collect()
        })
    }

    pub(crate) fn element_len(&self) -> usize {
        self.element_len
    }

    pub(crate) fn encode(&self, a: &BigUint) -> Vec<u8> {
        let bytes = a.to_bytes_be();
        let mut out = vec![0u8; self.element_len - bytes.len()];
        out.extend_from_slice(&bytes);
        out
    }

    pub(crate) fn decode(&self, bytes: &[u8]) -> Result<BigUint, DecodeElementError> {
        if bytes.len() != self.element_len {
            return Err(DecodeElementError {
                reason: "wrong length",
            });
        }
        let v = BigUint::from_bytes_be(bytes);
        if v.is_zero() || v >= self.p {
            return Err(DecodeElementError {
                reason: "out of range",
            });
        }
        if modular::jacobi(&v, &self.p) != 1 {
            return Err(DecodeElementError {
                reason: "not a quadratic residue",
            });
        }
        Ok(v)
    }
}

/// `[a^r·b^s, b^r]` from the sliding windows of the exponent limbs `r` and
/// `s` against `a`'s and `b`'s odd-power tables `ta` and `tb`: the two
/// lanes of [`DlGroup::hop_batch`]'s ladder, shaped like the curves' hop
/// lanes.
///
/// Every step squares both lanes. Each window of `r` multiplies `ta`'s
/// entry into the first lane and `tb`'s into the second, and each window
/// of `s` multiplies `tb`'s entry into the first alone (Shamir's trick),
/// so `b`'s table and `r`'s windows serve both results. A lane costs
/// nothing until its first window, which it takes as a table entry.
/// A 1,023-bit pair costs about 2,040 squarings and 540 multiplications
/// with the two tables.
fn hop_lanes<K: FieldKernel>(
    k: K,
    r: &[u64],
    ta: &[K::Elem],
    s: &[u64],
    tb: &[K::Elem],
) -> [K::Elem; 2] {
    let (mut r, mut s) = (windows(r).peekable(), windows(s).peekable());
    let top = r.peek().max(s.peek()).map_or(0, |&(i, _)| i);
    let mut lanes: [Option<K::Elem>; 2] = [None; 2];
    let put = |lane: &mut Option<K::Elem>, entry: &K::Elem| {
        *lane = Some(lane.map_or(*entry, |acc| k.mul(&acc, entry)));
    };
    for i in (0..=top).rev() {
        for lane in lanes.iter_mut().flatten() {
            *lane = k.sqr(lane);
        }
        if let Some((_, d)) = r.next_if(|&(at, _)| at == i) {
            put(&mut lanes[0], &ta[d / 2]);
            put(&mut lanes[1], &tb[d / 2]);
        }
        if let Some((_, d)) = s.next_if(|&(at, _)| at == i) {
            put(&mut lanes[0], &tb[d / 2]);
        }
    }
    lanes.map(|lane| lane.unwrap_or_else(|| k.one()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_bigint::prime::is_probable_prime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modp1024_is_safe_prime() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = DlGroup::new(DlParams::Modp1024);
        assert_eq!(g.modulus().bits(), 1024);
        assert!(is_probable_prime(g.modulus(), 8, &mut rng));
        assert!(is_probable_prime(g.order(), 8, &mut rng));
    }

    #[test]
    fn parameter_sizes() {
        assert_eq!(DlGroup::new(DlParams::Modp2048).modulus().bits(), 2048);
        assert_eq!(DlGroup::new(DlParams::Modp3072).modulus().bits(), 3072);
        assert_eq!(DlGroup::new(DlParams::Modp1024).element_len(), 128);
    }

    #[test]
    fn generator_has_order_q() {
        let g = DlGroup::new(DlParams::Modp1024);
        let Element::Dl(gen) = g.generator().clone() else {
            unreachable!()
        };
        // g^q = 1 and g ≠ 1 → order exactly q (q prime).
        assert!(g.pow(&gen, g.order()).is_one());
        assert!(!gen.is_one());
    }

    #[test]
    fn generator_is_residue() {
        let g = DlGroup::new(DlParams::Modp1024);
        assert_eq!(modular::jacobi(&BigUint::from(4u64), g.modulus()), 1);
    }

    #[test]
    fn two_term_multi_exp_matches_two_pows() {
        // The hop's `a^r·b^s`: Straus over two bases, zero exponents
        // included.
        let g = DlGroup::new(DlParams::Modp1024);
        let a = g.pow(&BigUint::from(4u64), &BigUint::from(123u64));
        let b = g.pow(&BigUint::from(4u64), &BigUint::from(45_678u64));
        for (ea, eb) in [
            (0u64, 0u64),
            (0, 9),
            (9, 0),
            (1, 1),
            (123_456_789, 987_654_321),
        ] {
            let (ea, eb) = (BigUint::from(ea), BigUint::from(eb));
            let expect = g.mul(&g.pow(&a, &ea), &g.pow(&b, &eb));
            let got = crate::msm::msm_dl(&g, &[(&a, &ea), (&b, &eb)]);
            assert_eq!(got, expect, "ea={ea:?} eb={eb:?}");
        }
    }

    /// The hop as it was evaluated before [`hop_lanes`]: a two-term
    /// multi-exponentiation for `a^r·b^s` and one exponentiation for
    /// `b^r`. The reference the two-lane ladder is checked against.
    fn reference_hop(
        g: &DlGroup,
        set: &HopScalars,
        items: &[(&BigUint, usize, &BigUint)],
    ) -> Vec<(BigUint, BigUint)> {
        use crate::msm::{msm, DlMsm};
        with_kernel!(dl: &g.mont, |k| {
            items
                .iter()
                .map(|&(a, i, b)| {
                    let (r, s) = set.pair(i);
                    let bases = [g.enter(k, a), g.enter(k, b)];
                    let masked = msm(&DlMsm(k), &bases, &[r, s]);
                    (k.leave(&masked), k.leave(&k.pow(&bases[1], r)))
                })
                .collect()
        })
    }

    #[test]
    fn hop_ladder_matches_the_msm_and_pow_reference() {
        use ppgr_bigint::random_below;
        let mut rng = StdRng::seed_from_u64(32);
        for params in [DlParams::Modp1024, DlParams::Modp2048, DlParams::Modp3072] {
            let g = DlGroup::new(params);
            let (q, one) = (g.order(), BigUint::one());
            let edges = [one.clone(), BigUint::from(2u64), q - &one];
            // Every pair of edge scalars, then random pairs.
            let mut pairs: Vec<(BigUint, BigUint)> = edges
                .iter()
                .flat_map(|r| edges.iter().map(move |s| (r.clone(), s.clone())))
                .collect();
            pairs.extend((0..50).map(|_| (random_below(&mut rng, q), random_below(&mut rng, q))));
            let set = HopScalars::from_pairs(q.limbs().len(), &pairs);
            // Subgroup elements, the identity and the generator among them.
            let mut elems = vec![one.clone(), BigUint::from(4u64)];
            elems.extend((0..8).map(|_| g.pow(&BigUint::from(4u64), &random_below(&mut rng, q))));
            let items: Vec<(&BigUint, usize, &BigUint)> = (0..pairs.len())
                .map(|i| {
                    (
                        &elems[i % elems.len()],
                        i,
                        &elems[(3 * i + 1) % elems.len()],
                    )
                })
                .collect();
            // Batches of 1 over the edge pairs, of 2, and of 50.
            let batches = items[..9]
                .chunks(1)
                .chain(items[..10].chunks(2))
                .chain([&items[9..]]);
            for batch in batches {
                let want = reference_hop(&g, &set, batch);
                assert_eq!(g.hop_batch(&set, batch), want, "{params:?}");
            }
        }
    }

    /// A kernel that counts its inner kernel's squarings and
    /// multiplications, `[squarings, multiplications]`, and reads no
    /// clock. The ladder calls nothing else, so the rest passes through.
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

        fn pow(&self, base: &Self::Elem, exp: &[u64]) -> Self::Elem {
            self.0.pow(base, exp)
        }

        fn inv(&self, a: &Self::Elem) -> Self::Elem {
            self.0.inv(a)
        }

        fn batch_inv(&self, elems: &[Self::Elem]) -> Vec<Self::Elem> {
            self.0.batch_inv(elems)
        }

        fn sqrt(&self, a: &Self::Elem) -> Option<Self::Elem> {
            self.0.sqrt(a)
        }
    }

    #[test]
    fn dl1024_hop_pays_closed_form_counts() {
        let g = DlGroup::new(DlParams::Modp1024);
        // r: bits 1022 − 10j, 1019 − 10j and 1018 − 10j, so 102 windows
        // `10011` at 1018 − 10j and a lone one at bit 2 (103 windows, the
        // top one at 1018); s = 2^1000 − 1, 200 windows of five ones.
        let mut r = BigUint::zero();
        for j in (0..=102).map(|j| 10 * j) {
            for bit in [1022, 1019, 1018].into_iter().filter(|&b| b >= j) {
                r.set_bit(bit - j, true);
            }
        }
        let s = &BigUint::power_of_two(1000) - &BigUint::one();
        let (a, b) = (BigUint::from(4u64), BigUint::from(16u64));
        let counts = std::cell::Cell::new([0; 2]);
        let got = with_kernel!(dl: &g.mont, |inner| {
            let k = Counting(inner, &counts);
            let [ta, tb] = [&a, &b].map(|x| odd_powers(&k, &g.enter(k, x)));
            let lanes = hop_lanes(k, r.limbs(), &ta, s.limbs(), &tb);
            lanes.map(|x| k.leave(&x))
        });
        // Two tables (one squaring and 15 multiplications each); both
        // lanes square from r's top window at 1018 down; the first lane
        // takes 103 + 200 windows, the second 103, each its first for free.
        assert_eq!(
            counts.get(),
            [2 + 2 * 1018, 30 + (103 + 200 - 1) + (103 - 1)]
        );
        let set = HopScalars::from_pairs(16, &[(r, s)]);
        let [masked, beta] = got;
        assert_eq!(
            vec![(masked, beta)],
            reference_hop(&g, &set, &[(&a, 0, &b)])
        );
    }

    #[test]
    fn comb_matches_pow() {
        let g = DlGroup::new(DlParams::Modp1024);
        let a = g.pow(&BigUint::from(4u64), &BigUint::from(777u64));
        let comb = g.build_comb(&a);
        for e in [0u64, 1, 15, 16, 123_456_789] {
            let e = BigUint::from(e);
            assert_eq!(g.pow_comb(&comb, &e), g.pow(&a, &e), "e={e:?}");
        }
        // Exponents reduce mod q: a^(q+1) = a.
        let q1 = g.order() + &BigUint::one();
        assert_eq!(g.pow_comb(&comb, &q1), a);
    }

    #[test]
    fn dl1024_comb_entries_take_128_bytes() {
        let g = DlGroup::new(DlParams::Modp1024);
        let comb = g.build_comb(&BigUint::from(4u64));
        let entries = 15 * g.order().bits().div_ceil(4);
        assert_eq!(std::mem::size_of_val(comb.limbs.as_slice()), entries * 128);
    }

    #[test]
    fn inv_matches_fermat() {
        let g = DlGroup::new(DlParams::Modp1024);
        let a = g.pow(&BigUint::from(4u64), &BigUint::from(31_337u64));
        assert!(g.mul(&a, &g.inv(&a)).is_one());
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn inv_rejects_zero() {
        let g = DlGroup::new(DlParams::Modp1024);
        let _ = g.inv(g.modulus());
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = DlGroup::new(DlParams::Modp1024);
        let e = g.pow(&BigUint::from(4u64), &BigUint::from(123_456u64));
        let enc = g.encode(&e);
        assert_eq!(enc.len(), 128);
        assert_eq!(g.decode(&enc).unwrap(), e);
    }

    #[test]
    fn decode_rejects_non_residue_and_out_of_range() {
        let g = DlGroup::new(DlParams::Modp1024);
        // 2 is a *non*-residue mod a safe prime p ≡ 7 (mod 8)? For MODP
        // primes p ≡ 7 (mod 8) would make 2 a residue; test with a known
        // non-residue instead: p - 1 (= -1) is a non-residue since q is odd.
        let minus_one = g.modulus().checked_sub(&BigUint::one()).unwrap();
        assert!(g.decode(&g.encode(&minus_one)).is_err());
        assert!(g.decode(&[0u8; 128]).is_err());
        assert!(g.decode(&[1u8; 5]).is_err());
    }
}
