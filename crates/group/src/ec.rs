//! Short-Weierstrass elliptic curves over prime fields, from scratch.
//!
//! Curves `y² = x³ + ax + b` over `F_p` with prime group order `n`
//! (cofactor 1). Points are exposed in affine form; internally, scalar
//! multiplication and addition run in Jacobian coordinates with all field
//! elements kept in Montgomery form, which is what makes the ECC framework
//! instantiation markedly faster than the DL one (the paper's Fig. 2/3).

use crate::traits::DecodeElementError;
use crate::Element;
use ppgr_bigint::{modular, BigUint, MontElem4, Montgomery4};

/// Parameters of a named curve.
#[derive(Clone, Debug)]
pub struct CurveParams {
    /// SECG name, e.g. `"secp256r1"`.
    pub name: &'static str,
    /// Field prime `p`.
    pub p: BigUint,
    /// Curve coefficient `a`.
    pub a: BigUint,
    /// Curve coefficient `b`.
    pub b: BigUint,
    /// Base-point x-coordinate.
    pub gx: BigUint,
    /// Base-point y-coordinate.
    pub gy: BigUint,
    /// Prime group order `n` (cofactor is 1 for all shipped curves).
    pub n: BigUint,
}

fn hex(s: &str) -> BigUint {
    // tidy:allow(panic) — parses vetted compile-time curve constants; exercised by every test
    BigUint::from_hex_str(s).expect("vetted constant")
}

impl CurveParams {
    /// SECG secp160r1 — the paper's "160-bit ECC group" (80-bit security).
    pub fn secp160r1() -> Self {
        CurveParams {
            name: "secp160r1",
            p: hex("ffffffffffffffffffffffffffffffff7fffffff"),
            a: hex("ffffffffffffffffffffffffffffffff7ffffffc"),
            b: hex("1c97befc54bd7a8b65acf89f81d4d4adc565fa45"),
            gx: hex("4a96b5688ef573284664698968c38bb913cbfc82"),
            gy: hex("23a628553168947d59dcc912042351377ac5fb32"),
            n: hex("0100000000000000000001f4c8f927aed3ca752257"),
        }
    }

    /// SECG secp224r1 / NIST P-224 (112-bit security).
    pub fn secp224r1() -> Self {
        CurveParams {
            name: "secp224r1",
            p: hex("ffffffffffffffffffffffffffffffff000000000000000000000001"),
            a: hex("fffffffffffffffffffffffffffffffefffffffffffffffffffffffe"),
            b: hex("b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4"),
            gx: hex("b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21"),
            gy: hex("bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34"),
            n: hex("ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d"),
        }
    }

    /// SECG secp256r1 / NIST P-256 (128-bit security).
    pub fn secp256r1() -> Self {
        CurveParams {
            name: "secp256r1",
            p: hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"),
            a: hex("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc"),
            b: hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
            gx: hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
            gy: hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
            n: hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
        }
    }
}

/// An affine curve point (or the point at infinity).
#[derive(Clone, Eq, PartialEq, Hash)]
pub struct EcPoint {
    /// `None` is the point at infinity (group identity).
    coords: Option<(BigUint, BigUint)>,
}

impl EcPoint {
    /// The point at infinity.
    pub fn infinity() -> Self {
        EcPoint { coords: None }
    }

    /// An affine point; coordinate validity is checked by [`EcGroup`] APIs.
    pub fn affine(x: BigUint, y: BigUint) -> Self {
        EcPoint {
            coords: Some((x, y)),
        }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.coords.is_none()
    }

    /// The affine coordinates, or `None` for infinity.
    pub fn xy(&self) -> Option<(&BigUint, &BigUint)> {
        self.coords.as_ref().map(|(x, y)| (x, y))
    }
}

impl std::fmt::Debug for EcPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.coords {
            None => write!(f, "EcPoint::Infinity"),
            Some((x, y)) => write!(f, "EcPoint(0x{x:x}, 0x{y:x})"),
        }
    }
}

/// A Jacobian point with Montgomery-form coordinates: `(X : Y : Z)`,
/// representing affine `(X/Z², Y/Z³)`; `Z = 0` is infinity.
#[derive(Clone, Debug)]
pub(crate) struct Jacobian {
    pub(crate) x: MontElem4,
    pub(crate) y: MontElem4,
    pub(crate) z: MontElem4,
}

/// An affine point with coordinates still *in* the Montgomery domain
/// (never infinity). Adding one of these to a Jacobian point is a mixed
/// addition — `Z₂ = 1` drops four multiplications and a squaring from the
/// general formula — and a whole batch of wNAF tables can be normalized
/// to this form with a single shared field inversion, so the batch
/// multiplication ladders get mixed-addition pricing without paying an
/// inversion per table entry.
#[derive(Clone)]
struct MontAffine {
    x: MontElem4,
    y: MontElem4,
}

/// A fixed-base comb table for one curve point: `rows[i][d] = (d·16^i)·P`.
///
/// Built once per base with [`EcGroup::build_comb`]; afterwards every
/// scalar multiplication by that base costs one Jacobian addition per four
/// scalar bits and no doublings. Building costs 15 additions per row
/// (≈ 40 rows·15 for a 160-bit order), so a table amortizes after roughly
/// three scalar multiplications.
#[derive(Debug)]
pub struct EcComb {
    rows: Vec<Vec<Jacobian>>,
}

/// A prime-order elliptic-curve group.
#[derive(Debug)]
pub struct EcGroup {
    params: CurveParams,
    fp: Montgomery4,
    /// `a` in Montgomery form.
    a_m: MontElem4,
    /// All shipped curves have `a = p − 3`, enabling the faster doubling
    /// `M = 3(X − Z²)(X + Z²)`.
    a_is_minus3: bool,
    generator: Element,
    element_len: usize,
    /// Comb table for fixed-base scalar multiplication by the generator.
    gen_table: std::sync::OnceLock<EcComb>,
}

impl EcGroup {
    /// Builds the group for the given curve parameters.
    ///
    /// # Panics
    ///
    /// Panics if the base point does not satisfy the curve equation
    /// (defensive check on the constants).
    pub fn new(params: CurveParams) -> Self {
        let fp = Montgomery4::new(params.p.clone());
        let a_m = fp.enter(&params.a);
        let a_is_minus3 = {
            let three = BigUint::from(3u64);
            params.p.checked_sub(&three).as_ref() == Some(&params.a)
        };
        let element_len = 1 + params.p.bits().div_ceil(8);
        let g = EcGroup {
            generator: Element::Ec(EcPoint::affine(params.gx.clone(), params.gy.clone())),
            params,
            fp,
            a_m,
            a_is_minus3,
            element_len,
            gen_table: std::sync::OnceLock::new(),
        };
        let Element::Ec(base) = &g.generator else {
            // tidy:allow(panic) — the group's own generator is Element::Ec by construction
            unreachable!()
        };
        assert!(g.is_on_curve(base), "base point not on curve");
        g
    }

    /// The curve parameters.
    pub fn params(&self) -> &CurveParams {
        &self.params
    }

    /// The prime group order `n`.
    pub fn order(&self) -> &BigUint {
        &self.params.n
    }

    /// The base point.
    pub fn generator(&self) -> &Element {
        &self.generator
    }

    pub(crate) fn element_len(&self) -> usize {
        self.element_len
    }

    /// Checks the affine curve equation `y² = x³ + ax + b`.
    pub fn is_on_curve(&self, p: &EcPoint) -> bool {
        let Some((x, y)) = p.xy() else { return true };
        if x >= &self.params.p || y >= &self.params.p {
            return false;
        }
        let f = &self.fp;
        let xm = f.enter(x);
        let ym = f.enter(y);
        let lhs = f.msqr(&ym);
        let x3 = f.mmul(&f.msqr(&xm), &xm);
        let ax = f.mmul(&self.a_m, &xm);
        let rhs = f.madd(&f.madd(&x3, &ax), &f.enter(&self.params.b));
        lhs == rhs
    }

    pub(crate) fn to_jacobian(&self, p: &EcPoint) -> Jacobian {
        match p.xy() {
            None => Jacobian {
                x: self.fp.one_elem(),
                y: self.fp.one_elem(),
                z: self.fp.zero_elem(),
            },
            Some((x, y)) => Jacobian {
                x: self.fp.enter(x),
                y: self.fp.enter(y),
                z: self.fp.one_elem(),
            },
        }
    }

    pub(crate) fn jac_infinity(&self) -> Jacobian {
        let f = &self.fp;
        Jacobian {
            x: f.one_elem(),
            y: f.one_elem(),
            z: f.zero_elem(),
        }
    }

    pub(crate) fn to_affine(&self, p: &Jacobian) -> EcPoint {
        let f = &self.fp;
        if f.is_zero_elem(&p.z) {
            return EcPoint::infinity();
        }
        // In-domain Fermat inversion: much faster than a BigUint extended
        // GCD, and it avoids two domain conversions.
        let zi = f.minv(&p.z);
        let zi2 = f.msqr(&zi);
        let zi3 = f.mmul(&zi2, &zi);
        let x = f.leave(&f.mmul(&p.x, &zi2));
        let y = f.leave(&f.mmul(&p.y, &zi3));
        EcPoint::affine(x, y)
    }

    /// Normalizes many Jacobian points with a single field inversion
    /// (Montgomery's batch-inversion trick): three multiplications per
    /// point replace one inversion each.
    pub(crate) fn to_affine_batch(&self, points: &[Jacobian]) -> Vec<EcPoint> {
        let f = &self.fp;
        let finite: Vec<usize> = (0..points.len())
            .filter(|&i| !f.is_zero_elem(&points[i].z))
            .collect();
        let zs: Vec<MontElem4> = finite.iter().map(|&i| points[i].z).collect();
        let z_invs = f.batch_minv(&zs);
        let mut out = vec![EcPoint::infinity(); points.len()];
        for (&i, zi) in finite.iter().zip(&z_invs) {
            let zi2 = f.msqr(zi);
            let zi3 = f.mmul(&zi2, zi);
            let x = f.leave(&f.mmul(&points[i].x, &zi2));
            let y = f.leave(&f.mmul(&points[i].y, &zi3));
            out[i] = EcPoint::affine(x, y);
        }
        out
    }

    /// Jacobian doubling:
    /// `S = 4XY²; M = 3X² + aZ⁴; X' = M² − 2S; Y' = M(S − X') − 8Y⁴; Z' = 2YZ`.
    ///
    /// For `a = p − 3` (all shipped curves), `M = 3(X − Z²)(X + Z²)`, which
    /// trades two squarings and a multiplication for one multiplication.
    pub(crate) fn jac_double(&self, p: &Jacobian) -> Jacobian {
        let f = &self.fp;
        if f.is_zero_elem(&p.z) || f.is_zero_elem(&p.y) {
            return self.jac_infinity();
        }
        let y2 = f.msqr(&p.y);
        let s = f.msmall(&f.mmul(&p.x, &y2), 4);
        let z2 = f.msqr(&p.z);
        let m = if self.a_is_minus3 {
            f.msmall(&f.mmul(&f.msub(&p.x, &z2), &f.madd(&p.x, &z2)), 3)
        } else {
            f.madd(
                &f.msmall(&f.msqr(&p.x), 3),
                &f.mmul(&self.a_m, &f.msqr(&z2)),
            )
        };
        let x3 = f.msub(&f.msqr(&m), &f.mdbl(&s));
        let y4 = f.msqr(&y2);
        let y3 = f.msub(&f.mmul(&m, &f.msub(&s, &x3)), &f.msmall(&y4, 8));
        let z3 = f.mdbl(&f.mmul(&p.y, &p.z));
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub(crate) fn jac_add(&self, p: &Jacobian, q: &Jacobian) -> Jacobian {
        let f = &self.fp;
        if f.is_zero_elem(&p.z) {
            return q.clone();
        }
        if f.is_zero_elem(&q.z) {
            return p.clone();
        }
        let z1z1 = f.msqr(&p.z);
        let z2z2 = f.msqr(&q.z);
        let u1 = f.mmul(&p.x, &z2z2);
        let u2 = f.mmul(&q.x, &z1z1);
        let s1 = f.mmul(&f.mmul(&p.y, &q.z), &z2z2);
        let s2 = f.mmul(&f.mmul(&q.y, &p.z), &z1z1);
        let h = f.msub(&u2, &u1);
        let r = f.msub(&s2, &s1);
        if f.is_zero_elem(&h) {
            if f.is_zero_elem(&r) {
                return self.jac_double(p);
            }
            return Jacobian {
                x: f.one_elem(),
                y: f.one_elem(),
                z: f.zero_elem(),
            };
        }
        let hh = f.msqr(&h);
        let hhh = f.mmul(&h, &hh);
        let v = f.mmul(&u1, &hh);
        let x3 = f.msub(&f.msub(&f.msqr(&r), &hhh), &f.mdbl(&v));
        let y3 = f.msub(&f.mmul(&r, &f.msub(&v, &x3)), &f.mmul(&s1, &hhh));
        let z3 = f.mmul(&f.mmul(&p.z, &q.z), &h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Affine point addition.
    pub fn add(&self, p: &EcPoint, q: &EcPoint) -> EcPoint {
        self.to_affine(&self.jac_add(&self.to_jacobian(p), &self.to_jacobian(q)))
    }

    /// Point negation.
    pub fn neg(&self, p: &EcPoint) -> EcPoint {
        match p.xy() {
            None => EcPoint::infinity(),
            Some((x, y)) => {
                let ny = if y.is_zero() {
                    BigUint::zero()
                } else {
                    &self.params.p - y
                };
                EcPoint::affine(x.clone(), ny)
            }
        }
    }

    /// Builds the `1·P .. 15·P` window table (index 0 is infinity).
    fn window_table(&self, base: &Jacobian) -> Vec<Jacobian> {
        let mut table = Vec::with_capacity(16);
        table.push(self.jac_infinity());
        table.push(base.clone());
        for i in 2..16usize {
            let prev = self.jac_add(&table[i - 1], base);
            table.push(prev);
        }
        table
    }

    /// Core variable-base scalar multiplication; `k` must already be
    /// reduced modulo the group order.
    fn scalar_mul_jac(&self, base: &Jacobian, k: &BigUint) -> Jacobian {
        if k.is_zero() || self.fp.is_zero_elem(&base.z) {
            return self.jac_infinity();
        }
        let bits = k.bits();
        if bits <= 32 {
            // Small scalars (circuit weights, decode probes): plain binary
            // double-and-add beats amortizing a 15-addition window table.
            let mut acc = base.clone();
            for i in (0..bits - 1).rev() {
                acc = self.jac_double(&acc);
                if k.bit(i) {
                    acc = self.jac_add(&acc, base);
                }
            }
            return acc;
        }
        let table = self.window_table(base);
        let mut acc: Option<Jacobian> = None;
        let mut i = bits;
        while i > 0 {
            let take = if i.is_multiple_of(4) { 4 } else { i % 4 };
            let mut window = 0usize;
            for t in 0..take {
                window = window << 1 | k.bit(i - 1 - t) as usize;
            }
            acc = Some(match acc {
                None => table[window].clone(),
                Some(mut a) => {
                    for _ in 0..take {
                        a = self.jac_double(&a);
                    }
                    if window != 0 {
                        a = self.jac_add(&a, &table[window]);
                    }
                    a
                }
            });
            i -= take;
        }
        // tidy:allow(panic) — zero scalars return early above, so the window loop always assigns acc
        acc.expect("nonzero scalar")
    }

    /// Scalar multiplication `k·P` with a 4-bit window.
    pub fn scalar_mul(&self, p: &EcPoint, k: &BigUint) -> EcPoint {
        let k = k % &self.params.n;
        if k.is_zero() || p.is_infinity() {
            return EcPoint::infinity();
        }
        self.to_affine(&self.scalar_mul_jac(&self.to_jacobian(p), &k))
    }

    /// Builds a fixed-base comb table for `p`: `rows[i][d] = (d·16^i)·P`.
    pub fn build_comb(&self, p: &EcPoint) -> EcComb {
        let rows = self.params.n.bits().div_ceil(4);
        let inf = self.jac_infinity();
        let mut base = self.to_jacobian(p);
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::with_capacity(16);
            row.push(inf.clone());
            for d in 1..16 {
                let prev = self.jac_add(&row[d - 1], &base);
                row.push(prev);
            }
            base = self.jac_add(&row[15], &base);
            out.push(row);
        }
        EcComb { rows: out }
    }

    fn comb_mul_jac(&self, comb: &EcComb, k: &BigUint) -> Jacobian {
        let k = k % &self.params.n;
        let mut acc = self.jac_infinity();
        for (i, row) in comb.rows.iter().enumerate() {
            let mut window = 0usize;
            for b in 0..4 {
                window |= (k.bit(4 * i + b) as usize) << b;
            }
            if window != 0 {
                acc = self.jac_add(&acc, &row[window]);
            }
        }
        acc
    }

    /// Fixed-base scalar multiplication via a prebuilt comb table: one
    /// Jacobian addition per 4 scalar bits, no doublings.
    pub fn scalar_mul_comb(&self, comb: &EcComb, k: &BigUint) -> EcPoint {
        self.to_affine(&self.comb_mul_jac(comb, k))
    }

    /// Batch fixed-base multiplication: all results share one field
    /// inversion for the final affine conversion. Takes scalar references
    /// so callers holding scalars elsewhere (e.g. inside [`crate::Scalar`])
    /// never clone them just to batch.
    pub fn scalar_mul_comb_batch(&self, comb: &EcComb, ks: &[&BigUint]) -> Vec<EcPoint> {
        let jacs: Vec<Jacobian> = ks.iter().map(|k| self.comb_mul_jac(comb, k)).collect();
        self.to_affine_batch(&jacs)
    }

    /// Batch variable-base multiplication: signed wNAF digits against
    /// batch-normalized `MontAffine` tables (mixed additions), all
    /// results sharing one final field inversion. The table normalization
    /// itself shares a second inversion across *every table of the batch*,
    /// which is what lets the ladder use 7M+3S mixed additions instead of
    /// 12M+4S general ones without per-point inversion overhead.
    pub fn scalar_mul_batch(&self, pairs: &[(&EcPoint, &BigUint)]) -> Vec<EcPoint> {
        let mut bases: Vec<Jacobian> = Vec::new();
        let plan: Vec<Option<(Vec<i64>, usize)>> = pairs
            .iter()
            .map(|(p, k)| {
                let k = *k % &self.params.n;
                if k.is_zero() || p.is_infinity() {
                    return None;
                }
                bases.push(self.to_jacobian(p));
                Some((crate::msm::wnaf_digits(&k, 4), bases.len() - 1))
            })
            .collect();
        let tables = self.wnaf_tables(&bases);
        let jacs: Vec<Jacobian> = plan
            .iter()
            .map(|entry| match entry {
                None => self.jac_infinity(),
                Some((digits, t)) => self.wnaf_mul_jac(digits, &tables[*t]),
            })
            .collect();
        self.to_affine_batch(&jacs)
    }

    /// Fused hop batch over pre-recoded scalars: each entry is
    /// `(a, wnaf(k₁), b, wnaf(k₂))`, with empty digit vectors encoding zero
    /// scalars, and yields the pair `(a^{k₁}·b^{k₂}, b^{k₁})` — the shape
    /// of a re-randomized partial decryption. The first half shares one
    /// doubling ladder between both bases (Shamir's trick with mixed
    /// additions); the new `β = b^{k₁}` reuses both `k₁`'s digits and the
    /// odd-multiple table of `b` the first half already built. Tables and
    /// results are each normalized through one batched field inversion.
    /// An offline phase that knows the hop's randomizers (but not its
    /// ciphertexts) pays the order reductions and recodings ahead of time
    /// and hands the digits in here.
    pub fn scalar_mul_hop_digits_batch(
        &self,
        items: &[(&EcPoint, &[i64], &EcPoint, &[i64])],
    ) -> Vec<(EcPoint, EcPoint)> {
        struct Hop {
            a: Option<usize>,
            b: Option<usize>,
        }
        let mut bases: Vec<Jacobian> = Vec::new();
        let plan: Vec<Hop> = items
            .iter()
            .map(|(a, d1, b, d2)| {
                let a_idx = (!a.is_infinity() && !d1.is_empty()).then(|| {
                    bases.push(self.to_jacobian(a));
                    bases.len() - 1
                });
                let b_idx = (!b.is_infinity() && (!d1.is_empty() || !d2.is_empty())).then(|| {
                    bases.push(self.to_jacobian(b));
                    bases.len() - 1
                });
                Hop { a: a_idx, b: b_idx }
            })
            .collect();
        let tables = self.wnaf_tables(&bases);
        let mut jacs = Vec::with_capacity(items.len() * 2);
        for (hop, (_, d1, _, d2)) in plan.iter().zip(items) {
            jacs.push(match (hop.a, hop.b) {
                (Some(ta), Some(tb)) if !d2.is_empty() => {
                    self.wnaf_dual_mul_jac(d1, &tables[ta], d2, &tables[tb])
                }
                (Some(ta), _) => self.wnaf_mul_jac(d1, &tables[ta]),
                (None, Some(tb)) if !d2.is_empty() => self.wnaf_mul_jac(d2, &tables[tb]),
                _ => self.jac_infinity(),
            });
            jacs.push(match hop.b {
                Some(tb) if !d1.is_empty() => self.wnaf_mul_jac(d1, &tables[tb]),
                _ => self.jac_infinity(),
            });
        }
        let mut pts = self.to_affine_batch(&jacs).into_iter();
        items
            .iter()
            .map(|_| {
                // tidy:allow(panic) — two Jacobians were pushed per item above, so the iterator cannot run dry
                (pts.next().expect("paired"), pts.next().expect("paired"))
            })
            .collect()
    }

    fn gen_comb(&self) -> &EcComb {
        self.gen_table.get_or_init(|| {
            let Element::Ec(gen) = &self.generator else {
                // tidy:allow(panic) — the group's own generator is Element::Ec by construction
                unreachable!()
            };
            self.build_comb(gen)
        })
    }

    /// Fixed-base scalar multiplication `k·G` via a lazily built comb table.
    pub fn scalar_mul_gen(&self, k: &BigUint) -> EcPoint {
        self.scalar_mul_comb(self.gen_comb(), k)
    }

    /// Batch fixed-base multiplication by the generator.
    pub fn scalar_mul_gen_batch(&self, ks: &[&BigUint]) -> Vec<EcPoint> {
        self.scalar_mul_comb_batch(self.gen_comb(), ks)
    }

    /// Mixed addition `P + Q` (or `P − Q` with `negate_q`) of a Jacobian
    /// point and a normalized [`MontAffine`] point: `Z₂ = 1` reduces the
    /// general 12M+4S addition to 7M+3S. Negating `Q` costs one field
    /// subtraction, which is what makes signed (wNAF) digits free here.
    fn jac_add_mixed(&self, p: &Jacobian, q: &MontAffine, negate_q: bool) -> Jacobian {
        let f = &self.fp;
        let qy = if negate_q {
            f.msub(&f.zero_elem(), &q.y)
        } else {
            q.y
        };
        if f.is_zero_elem(&p.z) {
            return Jacobian {
                x: q.x,
                y: qy,
                z: f.one_elem(),
            };
        }
        let z1z1 = f.msqr(&p.z);
        let u2 = f.mmul(&q.x, &z1z1);
        let s2 = f.mmul(&f.mmul(&qy, &p.z), &z1z1);
        let h = f.msub(&u2, &p.x);
        let r = f.msub(&s2, &p.y);
        if f.is_zero_elem(&h) {
            if f.is_zero_elem(&r) {
                return self.jac_double(p);
            }
            return self.jac_infinity();
        }
        let hh = f.msqr(&h);
        let hhh = f.mmul(&h, &hh);
        let v = f.mmul(&p.x, &hh);
        let x3 = f.msub(&f.msub(&f.msqr(&r), &hhh), &f.mdbl(&v));
        let y3 = f.msub(&f.mmul(&r, &f.msub(&v, &x3)), &f.mmul(&p.y, &hhh));
        let z3 = f.mmul(&p.z, &h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Builds width-4 wNAF odd-multiple tables `{1·P, 3·P, …, 15·P}` for
    /// every base at once, normalized to [`MontAffine`] form with ONE
    /// shared field inversion across all entries of all tables. Bases must
    /// be finite; every entry is then a nonzero multiple `d·P` with
    /// `d < n`, so none is infinity and the batch inversion is total.
    fn wnaf_tables(&self, bases: &[Jacobian]) -> Vec<Vec<MontAffine>> {
        let f = &self.fp;
        let mut jacs: Vec<Jacobian> = Vec::with_capacity(bases.len() * 8);
        for base in bases {
            let twice = self.jac_double(base);
            jacs.push(base.clone());
            for _ in 1..8 {
                let next = self.jac_add(&jacs[jacs.len() - 1], &twice);
                jacs.push(next);
            }
        }
        let zs: Vec<MontElem4> = jacs.iter().map(|p| p.z).collect();
        let z_invs = f.batch_minv(&zs);
        let mut out = Vec::with_capacity(bases.len());
        for b in 0..bases.len() {
            let mut table = Vec::with_capacity(8);
            for i in 0..8 {
                let (p, zi) = (&jacs[b * 8 + i], &z_invs[b * 8 + i]);
                let zi2 = f.msqr(zi);
                let zi3 = f.mmul(&zi2, zi);
                table.push(MontAffine {
                    x: f.mmul(&p.x, &zi2),
                    y: f.mmul(&p.y, &zi3),
                });
            }
            out.push(table);
        }
        out
    }

    /// Replays LSB-first wNAF digits against a normalized odd-multiple
    /// table: doublings on the Jacobian accumulator, mixed additions for
    /// nonzero digits (negative digits negate the table entry for free).
    fn wnaf_mul_jac(&self, digits: &[i64], table: &[MontAffine]) -> Jacobian {
        let mut acc = self.jac_infinity();
        for &d in digits.iter().rev() {
            acc = self.jac_double(&acc);
            if d != 0 {
                acc = self.jac_add_mixed(&acc, &table[d.unsigned_abs() as usize / 2], d < 0);
            }
        }
        acc
    }

    /// Double-base wNAF ladder (Shamir's trick with mixed additions): both
    /// digit strings share one doubling chain, each nonzero digit costs a
    /// mixed addition against its own table.
    fn wnaf_dual_mul_jac(
        &self,
        d1: &[i64],
        t1: &[MontAffine],
        d2: &[i64],
        t2: &[MontAffine],
    ) -> Jacobian {
        let len = d1.len().max(d2.len());
        let mut acc = self.jac_infinity();
        for i in (0..len).rev() {
            acc = self.jac_double(&acc);
            for (d, t) in [(&d1, &t1), (&d2, &t2)] {
                if let Some(&digit) = d.get(i) {
                    if digit != 0 {
                        acc = self.jac_add_mixed(
                            &acc,
                            &t[digit.unsigned_abs() as usize / 2],
                            digit < 0,
                        );
                    }
                }
            }
        }
        acc
    }

    /// Shared-recoding batch multiplication with a fused affine addend:
    /// `out[i] = c[i] + k·p[i]`. The scalar's width-4 wNAF digits are
    /// recoded once and replayed for every point, each point needing only
    /// its odd-multiple table `{P, 3P, …, 15P}`. The addend lands as one
    /// mixed addition on
    /// the Jacobian accumulator *before* the shared normalization, so it
    /// replaces a separate affine addition — and the full field inversion
    /// that affine addition would pay per point — with three field
    /// multiplications. This is the shape of a gathered partial
    /// decryption: `α · β^{−x}` across a whole ciphertext set.
    pub fn scalar_mul_same_mul_batch(
        &self,
        addends: &[&EcPoint],
        points: &[&EcPoint],
        k: &BigUint,
    ) -> Vec<EcPoint> {
        assert_eq!(addends.len(), points.len(), "one addend per point");
        let k = k % &self.params.n;
        let digits = if k.is_zero() {
            Vec::new()
        } else {
            crate::msm::wnaf_digits(&k, 4)
        };
        let mut bases: Vec<Jacobian> = Vec::new();
        let idxs: Vec<Option<usize>> = points
            .iter()
            .map(|p| {
                if digits.is_empty() || p.is_infinity() {
                    return None;
                }
                bases.push(self.to_jacobian(p));
                Some(bases.len() - 1)
            })
            .collect();
        let tables = self.wnaf_tables(&bases);
        let jacs: Vec<Jacobian> = idxs
            .iter()
            .zip(addends)
            .map(|(t, addend)| {
                let acc = match t {
                    Some(t) => self.wnaf_mul_jac(&digits, &tables[*t]),
                    None => self.jac_infinity(),
                };
                match addend.xy() {
                    Some((x, y)) => self.jac_add_mixed(
                        &acc,
                        &MontAffine {
                            x: self.fp.enter(x),
                            y: self.fp.enter(y),
                        },
                        false,
                    ),
                    None => acc,
                }
            })
            .collect();
        self.to_affine_batch(&jacs)
    }

    /// Batch affine addition: every `p + q` is computed in Jacobian form
    /// and all results share one field inversion for the final conversion,
    /// versus one inversion *per pair* when calling [`EcGroup::add`] in a
    /// loop. Homomorphic ciphertext algebra (re-randomization, gate
    /// outputs) is made of exactly these adds.
    pub fn add_batch(&self, pairs: &[(&EcPoint, &EcPoint)]) -> Vec<EcPoint> {
        let jacs: Vec<Jacobian> = pairs
            .iter()
            .map(|(p, q)| self.jac_add(&self.to_jacobian(p), &self.to_jacobian(q)))
            .collect();
        self.to_affine_batch(&jacs)
    }

    /// Running sums (inclusive prefix scan): `out[i] = p₀ + … + pᵢ`. The
    /// accumulator stays in Jacobian form between steps and every prefix
    /// shares one field inversion, versus one inversion per prefix when a
    /// caller chains [`EcGroup::add`]. The comparison circuit's suffix
    /// sums are exactly this shape.
    pub fn add_scan(&self, points: &[&EcPoint]) -> Vec<EcPoint> {
        let mut acc = self.jac_infinity();
        let jacs: Vec<Jacobian> = points
            .iter()
            .map(|p| {
                acc = self.jac_add(&acc, &self.to_jacobian(p));
                acc.clone()
            })
            .collect();
        self.to_affine_batch(&jacs)
    }

    /// SEC1 compressed encoding (`0x02/0x03 || x`); infinity is all zeros.
    pub fn encode(&self, p: &EcPoint) -> Vec<u8> {
        let mut out = vec![0u8; self.element_len];
        let Some((x, y)) = p.xy() else { return out };
        out[0] = if y.is_even() { 0x02 } else { 0x03 };
        let xb = x.to_bytes_be();
        out[self.element_len - xb.len()..].copy_from_slice(&xb);
        out
    }

    /// Decodes a compressed point, recovering `y` by Tonelli–Shanks.
    pub fn decode(&self, bytes: &[u8]) -> Result<EcPoint, DecodeElementError> {
        if bytes.len() != self.element_len {
            return Err(DecodeElementError {
                reason: "wrong length",
            });
        }
        match bytes[0] {
            0x00 => {
                if bytes.iter().all(|&b| b == 0) {
                    Ok(EcPoint::infinity())
                } else {
                    Err(DecodeElementError {
                        reason: "bad infinity encoding",
                    })
                }
            }
            tag @ (0x02 | 0x03) => {
                let x = BigUint::from_bytes_be(&bytes[1..]);
                if x >= self.params.p {
                    return Err(DecodeElementError {
                        reason: "x out of range",
                    });
                }
                // y² = x³ + ax + b
                let f = &self.fp;
                let xm = f.enter(&x);
                let rhs = f.madd(
                    &f.madd(&f.mmul(&f.msqr(&xm), &xm), &f.mmul(&self.a_m, &xm)),
                    &f.enter(&self.params.b),
                );
                let rhs = f.leave(&rhs);
                let y =
                    modular::sqrt_mod_prime(&rhs, &self.params.p).ok_or(DecodeElementError {
                        reason: "x not on curve",
                    })?;
                let want_odd = tag == 0x03;
                let y = if y.is_odd() == want_odd {
                    y
                } else {
                    &self.params.p - &y
                };
                Ok(EcPoint::affine(x, y))
            }
            _ => Err(DecodeElementError {
                reason: "bad tag byte",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups() -> Vec<EcGroup> {
        vec![
            EcGroup::new(CurveParams::secp160r1()),
            EcGroup::new(CurveParams::secp224r1()),
            EcGroup::new(CurveParams::secp256r1()),
        ]
    }

    fn gen_point(g: &EcGroup) -> EcPoint {
        let Element::Ec(p) = g.generator().clone() else {
            unreachable!()
        };
        p
    }

    #[test]
    fn base_points_on_curve() {
        for g in groups() {
            assert!(g.is_on_curve(&gen_point(&g)), "{}", g.params().name);
        }
    }

    #[test]
    fn order_annihilates_generator() {
        for g in groups() {
            let n = g.order().clone();
            let p = g.scalar_mul(&gen_point(&g), &n);
            assert!(p.is_infinity(), "{}", g.params().name);
            // (n-1)·G = -G
            let n1 = n.checked_sub(&BigUint::one()).unwrap();
            assert_eq!(
                g.scalar_mul(&gen_point(&g), &n1),
                g.neg(&gen_point(&g)),
                "{}",
                g.params().name
            );
        }
    }

    #[test]
    fn small_multiples_consistent() {
        for g in groups() {
            let p = gen_point(&g);
            let two_p = g.add(&p, &p);
            assert_eq!(g.scalar_mul(&p, &BigUint::from(2u64)), two_p);
            let three_p = g.add(&two_p, &p);
            assert_eq!(g.scalar_mul(&p, &BigUint::from(3u64)), three_p);
            assert!(g.is_on_curve(&two_p) && g.is_on_curve(&three_p));
            // 5P = 2P + 3P
            assert_eq!(
                g.scalar_mul(&p, &BigUint::from(5u64)),
                g.add(&two_p, &three_p)
            );
        }
    }

    #[test]
    fn addition_identities() {
        let g = EcGroup::new(CurveParams::secp160r1());
        let p = gen_point(&g);
        let inf = EcPoint::infinity();
        assert_eq!(g.add(&p, &inf), p);
        assert_eq!(g.add(&inf, &p), p);
        assert!(g.add(&p, &g.neg(&p)).is_infinity());
        assert!(g.add(&inf, &inf).is_infinity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = EcGroup::new(CurveParams::secp160r1());
        let p = gen_point(&g);
        let a = BigUint::from(123_456_789u64);
        let b = BigUint::from(987_654_321u64);
        let lhs = g.scalar_mul(&p, &(&a + &b));
        let rhs = g.add(&g.scalar_mul(&p, &a), &g.scalar_mul(&p, &b));
        assert_eq!(lhs, rhs);
        // (ab)·P == a·(b·P)
        let ab = g.scalar_mul(&p, &(&a * &b));
        let a_bp = g.scalar_mul(&g.scalar_mul(&p, &b), &a);
        assert_eq!(ab, a_bp);
    }

    #[test]
    fn p256_known_answer_2g() {
        // 2·G on P-256 (public test vector).
        let g = EcGroup::new(CurveParams::secp256r1());
        let two_g = g.scalar_mul(&gen_point(&g), &BigUint::from(2u64));
        let (x, y) = two_g.xy().unwrap();
        assert_eq!(
            format!("{x:x}"),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
        );
        assert_eq!(
            format!("{y:x}"),
            "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
        );
    }

    #[test]
    fn a_is_minus3_on_all_shipped_curves() {
        // The fast-doubling path must actually be exercised by the shipped
        // parameter sets.
        for g in groups() {
            assert!(g.a_is_minus3, "{}", g.params().name);
        }
    }

    #[test]
    fn hop_digits_match_single_muls() {
        let recode = |k: &BigUint| {
            if k.is_zero() {
                Vec::new()
            } else {
                crate::msm::wnaf_digits(k, 4)
            }
        };
        for g in groups() {
            let p = gen_point(&g);
            let q = g.scalar_mul(&p, &BigUint::from(0xdead_beefu64));
            let inf = EcPoint::infinity();
            let cases: Vec<(&EcPoint, BigUint, &EcPoint, BigUint)> = [
                (0u64, 0u64),
                (0, 5),
                (7, 0),
                (1, 1),
                (123_456_789, 987_654_321),
                (u64::MAX, 3),
            ]
            .iter()
            .map(|&(k1, k2)| (&p, BigUint::from(k1), &q, BigUint::from(k2)))
            .chain([
                (&inf, BigUint::from(9u64), &q, BigUint::from(4u64)),
                (&p, BigUint::from(9u64), &inf, BigUint::from(4u64)),
            ])
            .collect();
            let digits: Vec<(Vec<i64>, Vec<i64>)> = cases
                .iter()
                .map(|(_, k1, _, k2)| (recode(k1), recode(k2)))
                .collect();
            let items: Vec<(&EcPoint, &[i64], &EcPoint, &[i64])> = cases
                .iter()
                .zip(&digits)
                .map(|((a, _, b, _), (d1, d2))| (*a, d1.as_slice(), *b, d2.as_slice()))
                .collect();
            let hops = g.scalar_mul_hop_digits_batch(&items);
            for ((a, k1, b, k2), (first, second)) in cases.iter().zip(&hops) {
                let expect = g.add(&g.scalar_mul(a, k1), &g.scalar_mul(b, k2));
                let label = format!("{} k1={k1:?} k2={k2:?}", g.params().name);
                assert_eq!(first, &expect, "{label}");
                assert_eq!(second, &g.scalar_mul(b, k1), "{label}");
            }
        }
    }

    #[test]
    fn comb_matches_scalar_mul() {
        let g = EcGroup::new(CurveParams::secp160r1());
        let p = g.scalar_mul(&gen_point(&g), &BigUint::from(31_337u64));
        let comb = g.build_comb(&p);
        for k in [0u64, 1, 2, 15, 16, 0xffff_ffff, u64::MAX] {
            let k = BigUint::from(k);
            assert_eq!(
                g.scalar_mul_comb(&comb, &k),
                g.scalar_mul(&p, &k),
                "k={k:?}"
            );
        }
        // Scalars at/above the order reduce first.
        let n1 = g.order() + &BigUint::one();
        assert_eq!(g.scalar_mul_comb(&comb, &n1), p);
        assert!(g.scalar_mul_comb(&comb, g.order()).is_infinity());
    }

    #[test]
    fn batch_apis_match_singles() {
        let g = EcGroup::new(CurveParams::secp160r1());
        let p = gen_point(&g);
        let q = g.scalar_mul(&p, &BigUint::from(99u64));
        let ks: Vec<BigUint> = [0u64, 1, 77, 123_456_789]
            .iter()
            .map(|&k| BigUint::from(k))
            .collect();
        let comb = g.build_comb(&q);
        let k_refs: Vec<&BigUint> = ks.iter().collect();
        let batch = g.scalar_mul_comb_batch(&comb, &k_refs);
        for (k, got) in ks.iter().zip(&batch) {
            assert_eq!(got, &g.scalar_mul(&q, k));
        }
        assert_eq!(g.scalar_mul_gen_batch(&k_refs)[2], g.scalar_mul(&p, &ks[2]));
        let inf = EcPoint::infinity();
        let same = g.scalar_mul_same_mul_batch(&[&inf, &inf, &p], &[&p, &q, &inf], &ks[3]);
        assert_eq!(same[0], g.scalar_mul(&p, &ks[3]));
        assert_eq!(same[1], g.scalar_mul(&q, &ks[3]));
        assert_eq!(same[2], p);
        assert!(g
            .scalar_mul_same_mul_batch(&[&inf, &inf], &[&p, &q], &BigUint::zero())
            .iter()
            .all(EcPoint::is_infinity));
        let pairs: Vec<(&EcPoint, &BigUint)> = ks.iter().map(|k| (&q, k)).collect();
        let batch = g.scalar_mul_batch(&pairs);
        for (k, got) in ks.iter().zip(&batch) {
            assert_eq!(got, &g.scalar_mul(&q, k));
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for g in groups() {
            for k in [1u64, 2, 12345, 999_999_999] {
                let p = g.scalar_mul(&gen_point(&g), &BigUint::from(k));
                let enc = g.encode(&p);
                assert_eq!(g.decode(&enc).unwrap(), p, "{} k={k}", g.params().name);
            }
            let inf_enc = g.encode(&EcPoint::infinity());
            assert!(g.decode(&inf_enc).unwrap().is_infinity());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let g = EcGroup::new(CurveParams::secp160r1());
        assert!(g.decode(&[]).is_err());
        let mut bad = g.encode(&gen_point(&g));
        bad[0] = 0x07;
        assert!(g.decode(&bad).is_err());
        // x ≡ p (out of range)
        let mut oob = vec![0x02u8];
        oob.extend_from_slice(&g.params().p.to_bytes_be());
        assert!(g.decode(&oob).is_err());
    }

    #[test]
    fn off_curve_point_detected() {
        let g = EcGroup::new(CurveParams::secp160r1());
        let p = EcPoint::affine(BigUint::from(5u64), BigUint::from(5u64));
        assert!(!g.is_on_curve(&p));
    }
}
