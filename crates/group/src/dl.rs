//! DL groups: the quadratic-residue subgroup of a safe prime.
//!
//! For a safe prime `p = 2q + 1`, the quadratic residues form the unique
//! subgroup of prime order `q`, in which DDH is conjectured hard. We use
//! the RFC 3526 "More Modular Exponential Diffie-Hellman groups" at
//! 1024 (RFC 2409 Oakley group 2), 2048 and 3072 bits, with generator
//! `4 = 2²` (a residue, hence a generator of the order-`q` subgroup).

use crate::traits::DecodeElementError;
use crate::Element;
use ppgr_bigint::{modular, BigUint, MontElem, Montgomery};
use std::sync::OnceLock;

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

/// A fixed-base comb table for one subgroup element:
/// `rows[i][d] = a^(d·16^i)` in Montgomery form.
///
/// Built with [`DlGroup::build_comb`]; afterwards every exponentiation by
/// that base costs one Montgomery multiplication per 4 exponent bits and no
/// squarings — roughly a quarter the work of a generic windowed
/// exponentiation. The build cost amortizes after a few exponentiations.
#[derive(Debug)]
pub struct DlComb {
    rows: Vec<Vec<MontElem>>,
}

/// The quadratic-residue subgroup of a safe prime.
#[derive(Debug)]
pub struct DlGroup {
    params: DlParams,
    p: BigUint,
    q: BigUint,
    generator: Element,
    mont: Montgomery,
    element_len: usize,
    /// Comb table for fixed-base exponentiation by the generator.
    gen_table: OnceLock<DlComb>,
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
            gen_table: OnceLock::new(),
        }
    }

    /// Builds a fixed-base comb table for `a` (an element below `p`).
    pub fn build_comb(&self, a: &BigUint) -> DlComb {
        let rows = self.q.bits().div_ceil(4);
        let mut out = Vec::with_capacity(rows);
        let mut base = self.mont.enter(&(a % &self.p));
        for _ in 0..rows {
            let mut row = Vec::with_capacity(16);
            row.push(self.mont.one_elem());
            for d in 1..16 {
                let prev: &MontElem = &row[d - 1];
                row.push(self.mont.mmul(prev, &base));
            }
            // Next row's unit: base^16.
            base = self.mont.mmul(&row[15], &base);
            out.push(row);
        }
        DlComb { rows: out }
    }

    /// Fixed-base exponentiation via a prebuilt comb table: one Montgomery
    /// multiplication per 4 exponent bits, no squarings.
    pub fn pow_comb(&self, comb: &DlComb, e: &BigUint) -> BigUint {
        let e = e % &self.q;
        let mut acc = self.mont.one_elem();
        for (i, row) in comb.rows.iter().enumerate() {
            let mut window = 0usize;
            for k in 0..4 {
                window |= (e.bit(4 * i + k) as usize) << k;
            }
            if window != 0 {
                acc = self.mont.mmul(&acc, &row[window]);
            }
        }
        self.mont.leave(&acc)
    }

    fn gen_comb(&self) -> &DlComb {
        self.gen_table
            .get_or_init(|| self.build_comb(&BigUint::from(4u64)))
    }

    /// Fixed-base exponentiation `g^e` via a lazily built comb table.
    pub(crate) fn pow_gen(&self, e: &BigUint) -> BigUint {
        self.pow_comb(self.gen_comb(), e)
    }

    /// Simultaneous double-base exponentiation `a^ea · b^eb` with one
    /// shared squaring ladder (Shamir's trick) — roughly two-thirds the
    /// cost of two independent exponentiations.
    pub fn pow_dual(&self, a: &BigUint, ea: &BigUint, b: &BigUint, eb: &BigUint) -> BigUint {
        let ea = ea % &self.q;
        let eb = eb % &self.q;
        if ea.is_zero() {
            return self.pow(b, &eb);
        }
        if eb.is_zero() {
            return self.pow(a, &ea);
        }
        let m = &self.mont;
        let build_table = |base: &BigUint| {
            let bm = m.enter(&(base % &self.p));
            let mut table = Vec::with_capacity(16);
            table.push(m.one_elem());
            table.push(bm.clone());
            for i in 2..16usize {
                let prev = m.mmul(&table[i - 1], &bm);
                table.push(prev);
            }
            table
        };
        let table_a = build_table(a);
        let table_b = build_table(b);
        let bits = ea.bits().max(eb.bits());
        let windows = bits.div_ceil(4);
        let mut acc: Option<MontElem> = None;
        for w in (0..windows).rev() {
            if let Some(v) = acc.as_mut() {
                for _ in 0..4 {
                    *v = m.msqr(v);
                }
            }
            for (e, table) in [(&ea, &table_a), (&eb, &table_b)] {
                let mut window = 0usize;
                for k in 0..4 {
                    window |= (e.bit(4 * w + k) as usize) << k;
                }
                if window != 0 {
                    acc = Some(match acc {
                        None => table[window].clone(),
                        Some(v) => m.mmul(&v, &table[window]),
                    });
                }
            }
        }
        m.leave(&acc.unwrap_or_else(|| m.one_elem()))
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

    /// The Montgomery context for arithmetic mod `p` (for the in-crate
    /// multi-exponentiation engine, which stays in the Montgomery domain
    /// across all terms).
    pub(crate) fn mont(&self) -> &Montgomery {
        &self.mont
    }

    /// Shared-recoding batch exponentiation: every base raised to the
    /// *same* exponent. The exponent is reduced mod `q` once, its window
    /// digits are recoded once ([`Montgomery::mpow_many`]), and the whole
    /// batch stays in the Montgomery domain.
    pub(crate) fn pow_same_batch(&self, bases: &[&BigUint], e: &BigUint) -> Vec<BigUint> {
        let e = e % &self.q;
        let ms: Vec<_> = bases
            .iter()
            .map(|b| self.mont.enter(&(*b % &self.p)))
            .collect();
        self.mont
            .mpow_many(&ms, &e)
            .iter()
            .map(|m| self.mont.leave(m))
            .collect()
    }

    pub(crate) fn inv(&self, a: &BigUint) -> BigUint {
        self.inv_batch(&[a]).remove(0)
    }

    /// Inverts every element with one Fermat inversion on Montgomery limbs
    /// (`p` is prime) plus three multiplications per element
    /// ([`Montgomery::batch_minv`]); a single element costs one inversion.
    ///
    /// # Panics
    ///
    /// Panics if an element is zero mod `p`; group elements are units.
    pub(crate) fn inv_batch(&self, elems: &[&BigUint]) -> Vec<BigUint> {
        let ms: Vec<MontElem> = elems
            .iter()
            .map(|a| self.mont.enter(&(*a % &self.p)))
            .collect();
        self.mont
            .batch_minv(&ms)
            .iter()
            .map(|m| self.mont.leave(m))
            .collect()
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
    fn pow_dual_matches_two_pows() {
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
            assert_eq!(g.pow_dual(&a, &ea, &b, &eb), expect, "ea={ea:?} eb={eb:?}");
        }
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
