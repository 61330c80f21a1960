//! Short-Weierstrass elliptic curves over prime fields, from scratch.
//!
//! Curves `y² = x³ + ax + b` over `F_p` with prime group order `n`
//! (cofactor 1). Points are exposed in affine form; internally, scalar
//! multiplication and addition run in Jacobian coordinates with all field
//! elements kept in Montgomery form, which is what makes the ECC framework
//! instantiation markedly faster than the DL one (the paper's Fig. 2/3).

use crate::msm::{msm_ec, wnaf_digits, WNAF_MAX_DIGITS};
use crate::traits::DecodeElementError;
use crate::{Element, HopScalars};
use ppgr_bigint::{with_kernel, BigUint, FieldKernel, Montgomery};

/// A field element of a shipped curve in its kernel's domain: four limbs,
/// the width of both curve kernels.
pub(crate) type Fe = [u64; 4];

/// A kernel of a curve field: the P-160 kernel or CIOS at four limbs,
/// whose elements are [`Fe`]. Curve code is generic over this, so no
/// ladder is built at a DL width.
pub(crate) trait CurveKernel: FieldKernel<Elem = Fe> {}

impl<K: FieldKernel<Elem = Fe>> CurveKernel for K {}

/// Whether a field element is zero, which every kernel keeps as all-zero
/// limbs.
fn is_zero(a: &Fe) -> bool {
    *a == [0; 4]
}

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
/// representing affine `(X/Z², Y/Z³)`; `Z = 0` is infinity, and the
/// infinity the formulas return is `Default`'s `(0 : 0 : 0)`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Jacobian {
    pub(crate) x: Fe,
    pub(crate) y: Fe,
    pub(crate) z: Fe,
}

/// An affine point with coordinates still *in* the Montgomery domain
/// (never infinity). Adding one of these to a Jacobian point is a mixed
/// addition — `Z₂ = 1` drops four multiplications and a squaring from the
/// general formula — and a whole batch of wNAF tables or comb rows can be
/// normalized to this form with a single shared field inversion, so the
/// ladders get mixed-addition pricing without paying an inversion per
/// table entry.
#[derive(Clone, Copy, Debug)]
struct MontAffine {
    x: Fe,
    y: Fe,
}

/// `[f(0), …, f(L − 1)]`, the one way the lane formulas build a lane
/// array. An `#[inline(always)]` fill loop: with `std::array::from_fn` in
/// its place the two-lane hop ran 1.1–1.2× slower.
#[inline(always)]
fn lanes<T: Copy + Default, const L: usize>(mut f: impl FnMut(usize) -> T) -> [T; L] {
    let mut out = [T::default(); L];
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(i);
    }
    out
}

/// The odd-multiple table entry `|d|·P` of a nonzero wNAF digit `d`.
fn odd_entry(table: &[MontAffine], d: i8) -> &MontAffine {
    &table[d.unsigned_abs() as usize / 2]
}

/// A fixed-base comb table for one curve point: row `i` holds
/// `(d·16^i)·P` for `d = 1..15`, normalized to affine form through one
/// batched field inversion when the table is built.
///
/// Built once per base with
/// [`Group::prepare_base`](crate::Group::prepare_base); afterwards every
/// scalar multiplication by that base costs one mixed addition per nonzero
/// four-bit window and no doublings. Building costs 16 general additions
/// per row (≈ 41 rows for a 160-bit order) plus the normalization, so a
/// table amortizes after a few scalar multiplications.
pub struct EcComb {
    /// The rows, 15 entries each, concatenated; empty for the point at
    /// infinity.
    entries: Vec<MontAffine>,
}

impl EcComb {
    /// The number of entries, 15 per row.
    pub(crate) fn entries(&self) -> usize {
        self.entries.len()
    }
}

/// A prime-order elliptic-curve group.
#[derive(Debug)]
pub struct EcGroup {
    params: CurveParams,
    pub(crate) fp: Montgomery,
    /// `a` in Montgomery form.
    a_m: Fe,
    /// `b` in Montgomery form.
    b_m: Fe,
    /// All shipped curves have `a = p − 3`, enabling the faster doubling
    /// `M = 3(X − Z²)(X + Z²)`.
    a_is_minus3: bool,
    generator: Element,
    element_len: usize,
}

impl EcGroup {
    /// Builds the group for the given curve parameters.
    ///
    /// # Panics
    ///
    /// Panics if the base point does not satisfy the curve equation
    /// (defensive check on the constants).
    pub fn new(params: CurveParams) -> Self {
        let fp = Montgomery::new(params.p.clone());
        let (a_m, b_m) = with_kernel!(curve: &fp, |k| (k.enter(&params.a), k.enter(&params.b)));
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
            b_m,
            a_is_minus3,
            element_len,
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
    pub(crate) fn is_on_curve(&self, p: &EcPoint) -> bool {
        let Some((x, y)) = p.xy() else { return true };
        if x >= &self.params.p || y >= &self.params.p {
            return false;
        }
        with_kernel!(curve: &self.fp, |k| {
            k.sqr(&k.enter(y)) == self.curve_rhs(k, &k.enter(x))
        })
    }

    /// `x³ + ax + b` for a Montgomery-form `x`.
    fn curve_rhs<K: CurveKernel>(&self, k: K, x: &Fe) -> Fe {
        let x3 = k.mul(&k.sqr(x), x);
        k.add(&k.add(&x3, &k.mul(&self.a_m, x)), &self.b_m)
    }

    pub(crate) fn to_jacobian<K: CurveKernel>(&self, k: K, p: &EcPoint) -> Jacobian {
        match p.xy() {
            None => self.jac_infinity(),
            Some((x, y)) => Jacobian {
                x: k.enter(x),
                y: k.enter(y),
                z: k.one(),
            },
        }
    }

    /// A finite point's affine coordinates, entered into the domain.
    fn enter_affine<K: CurveKernel>(&self, k: K, (x, y): (&BigUint, &BigUint)) -> MontAffine {
        MontAffine {
            x: k.enter(x),
            y: k.enter(y),
        }
    }

    pub(crate) fn jac_infinity(&self) -> Jacobian {
        Jacobian::default()
    }

    /// `(X/Z², Y/Z³)` for a finite `p` and `zi = 1/Z`.
    fn normalize<K: CurveKernel>(&self, k: K, p: &Jacobian, zi: &Fe) -> MontAffine {
        let zi2 = k.sqr(zi);
        let zi3 = k.mul(&zi2, zi);
        MontAffine {
            x: k.mul(&p.x, &zi2),
            y: k.mul(&p.y, &zi3),
        }
    }

    pub(crate) fn to_affine<K: CurveKernel>(&self, k: K, p: &Jacobian) -> EcPoint {
        if is_zero(&p.z) {
            return EcPoint::infinity();
        }
        // In-domain Fermat inversion: much faster than a BigUint extended
        // GCD, and it avoids two domain conversions.
        let a = self.normalize(k, p, &k.inv(&p.z));
        EcPoint::affine(k.leave(&a.x), k.leave(&a.y))
    }

    /// Normalizes many Jacobian points with a single field inversion
    /// (Montgomery's batch-inversion trick): three multiplications per
    /// point replace one inversion each.
    fn to_affine_batch<K: CurveKernel>(&self, k: K, points: &[Jacobian]) -> Vec<EcPoint> {
        let finite: Vec<usize> = (0..points.len())
            .filter(|&i| !is_zero(&points[i].z))
            .collect();
        let zs: Vec<Fe> = finite.iter().map(|&i| points[i].z).collect();
        let z_invs = k.batch_inv(&zs);
        let mut out = vec![EcPoint::infinity(); points.len()];
        for (&i, zi) in finite.iter().zip(&z_invs) {
            let a = self.normalize(k, &points[i], zi);
            out[i] = EcPoint::affine(k.leave(&a.x), k.leave(&a.y));
        }
        out
    }

    /// Normalizes finite Jacobian points to [`MontAffine`] form through one
    /// shared field inversion.
    fn to_mont_affine_batch<K: CurveKernel>(&self, k: K, points: &[Jacobian]) -> Vec<MontAffine> {
        let zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
        let z_invs = k.batch_inv(&zs);
        points
            .iter()
            .zip(&z_invs)
            .map(|(p, zi)| self.normalize(k, p, zi))
            .collect()
    }

    /// Jacobian doubling of `L` points side by side, each field operation
    /// applied to every lane before the next, so the kernel works on `L`
    /// independent dependency chains at once:
    /// `S = 4XY²; M = 3X² + aZ⁴; X' = M² − 2S; Y' = M(S − X') − 8Y⁴; Z' = 2YZ`.
    ///
    /// For `a = p − 3` (all shipped curves), `M = 3(X − Z²)(X + Z²)`, which
    /// trades two squarings and a multiplication for one multiplication.
    /// A lane at infinity or with `Y = 0` doubles to infinity.
    #[inline]
    pub(crate) fn jac_double<K: CurveKernel, const L: usize>(
        &self,
        k: K,
        p: [&Jacobian; L],
    ) -> [Jacobian; L] {
        let inf: [bool; L] = lanes(|i| is_zero(&p[i].z) || is_zero(&p[i].y));
        if inf.iter().all(|&b| b) {
            return [self.jac_infinity(); L];
        }
        let y2: [_; L] = lanes(|i| k.sqr(&p[i].y));
        let s: [_; L] = lanes(|i| k.small::<4>(&k.mul(&p[i].x, &y2[i])));
        let z2: [_; L] = lanes(|i| k.sqr(&p[i].z));
        let m: [_; L] = if self.a_is_minus3 {
            lanes(|i| k.small::<3>(&k.mul(&k.sub(&p[i].x, &z2[i]), &k.add(&p[i].x, &z2[i]))))
        } else {
            lanes(|i| {
                k.add(
                    &k.small::<3>(&k.sqr(&p[i].x)),
                    &k.mul(&self.a_m, &k.sqr(&z2[i])),
                )
            })
        };
        let x3: [_; L] = lanes(|i| k.sub(&k.sqr(&m[i]), &k.small::<2>(&s[i])));
        let y4: [_; L] = lanes(|i| k.sqr(&y2[i]));
        let y3: [_; L] =
            lanes(|i| k.sub(&k.mul(&m[i], &k.sub(&s[i], &x3[i])), &k.small::<8>(&y4[i])));
        let z3: [_; L] = lanes(|i| k.small::<2>(&k.mul(&p[i].y, &p[i].z)));
        lanes(|i| match inf[i] {
            true => self.jac_infinity(),
            false => Jacobian {
                x: x3[i],
                y: y3[i],
                z: z3[i],
            },
        })
    }

    /// One-lane [`Self::jac_double`], out of line: every ladder that
    /// doubles one point at a time calls this one copy per kernel, and
    /// only the hop's two-lane ladder inlines the formula.
    #[inline(never)]
    pub(crate) fn jac_double1<K: CurveKernel>(&self, k: K, p: &Jacobian) -> Jacobian {
        let [d] = self.jac_double(k, [p]);
        d
    }

    /// General Jacobian addition.
    pub(crate) fn jac_add<K: CurveKernel>(&self, k: K, p: &Jacobian, q: &Jacobian) -> Jacobian {
        if is_zero(&p.z) {
            return *q;
        }
        if is_zero(&q.z) {
            return *p;
        }
        let z1z1 = k.sqr(&p.z);
        let z2z2 = k.sqr(&q.z);
        let u1 = k.mul(&p.x, &z2z2);
        let u2 = k.mul(&q.x, &z1z1);
        let s1 = k.mul(&k.mul(&p.y, &q.z), &z2z2);
        let s2 = k.mul(&k.mul(&q.y, &p.z), &z1z1);
        let h = k.sub(&u2, &u1);
        let r = k.sub(&s2, &s1);
        if is_zero(&h) {
            if is_zero(&r) {
                return self.jac_double1(k, p);
            }
            return self.jac_infinity();
        }
        let hh = k.sqr(&h);
        let hhh = k.mul(&h, &hh);
        let v = k.mul(&u1, &hh);
        let x3 = k.sub(&k.sub(&k.sqr(&r), &hhh), &k.small::<2>(&v));
        let y3 = k.sub(&k.mul(&r, &k.sub(&v, &x3)), &k.mul(&s1, &hhh));
        let z3 = k.mul(&k.mul(&p.z, &q.z), &h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition `P + Q` (or `P − Q` where `negate_q`) of `L` Jacobian
    /// points and normalized [`MontAffine`] points side by side, like
    /// [`Self::jac_double`]: `Z₂ = 1` reduces the general 12M+4S addition
    /// to 8M+3S. Negating `Q` costs one field subtraction, which is what
    /// makes signed (wNAF) digits free here. A lane where `P` is infinity
    /// yields `±Q`; one where `H = 0` (`P = ±Q`) yields `2P` or infinity.
    #[inline]
    fn jac_add_mixed<K: CurveKernel, const L: usize>(
        &self,
        k: K,
        p: [&Jacobian; L],
        q: [&MontAffine; L],
        negate_q: [bool; L],
    ) -> [Jacobian; L] {
        let qy: [_; L] = lanes(|i| match negate_q[i] {
            true => k.sub(&k.zero(), &q[i].y),
            false => q[i].y,
        });
        let q_jac = |i: usize| Jacobian {
            x: q[i].x,
            y: qy[i],
            z: k.one(),
        };
        let at_inf: [bool; L] = lanes(|i| is_zero(&p[i].z));
        if at_inf.iter().all(|&b| b) {
            return lanes(q_jac);
        }
        let z1z1: [_; L] = lanes(|i| k.sqr(&p[i].z));
        let u2: [_; L] = lanes(|i| k.mul(&q[i].x, &z1z1[i]));
        let s2: [_; L] = lanes(|i| k.mul(&k.mul(&qy[i], &p[i].z), &z1z1[i]));
        let h: [_; L] = lanes(|i| k.sub(&u2[i], &p[i].x));
        let r: [_; L] = lanes(|i| k.sub(&s2[i], &p[i].y));
        let hh: [_; L] = lanes(|i| k.sqr(&h[i]));
        let hhh: [_; L] = lanes(|i| k.mul(&h[i], &hh[i]));
        let v: [_; L] = lanes(|i| k.mul(&p[i].x, &hh[i]));
        let x3: [_; L] = lanes(|i| k.sub(&k.sub(&k.sqr(&r[i]), &hhh[i]), &k.small::<2>(&v[i])));
        let y3: [_; L] = lanes(|i| {
            k.sub(
                &k.mul(&r[i], &k.sub(&v[i], &x3[i])),
                &k.mul(&p[i].y, &hhh[i]),
            )
        });
        let z3: [_; L] = lanes(|i| k.mul(&p[i].z, &h[i]));
        lanes(|i| {
            if at_inf[i] {
                q_jac(i)
            } else if !is_zero(&h[i]) {
                Jacobian {
                    x: x3[i],
                    y: y3[i],
                    z: z3[i],
                }
            } else if is_zero(&r[i]) {
                self.jac_double1(k, p[i])
            } else {
                self.jac_infinity()
            }
        })
    }

    /// Affine point addition.
    pub(crate) fn add(&self, p: &EcPoint, q: &EcPoint) -> EcPoint {
        with_kernel!(curve: &self.fp, |k| {
            let sum = self.jac_add(k, &self.to_jacobian(k, p), &self.to_jacobian(k, q));
            self.to_affine(k, &sum)
        })
    }

    /// Point negation.
    pub(crate) fn neg(&self, p: &EcPoint) -> EcPoint {
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

    /// Scalar multiplication `e·P`: the MSM engine on one term.
    pub(crate) fn scalar_mul(&self, p: &EcPoint, e: &BigUint) -> EcPoint {
        msm_ec(self, &[(p, e)])
    }

    /// Builds a fixed-base comb table for `p`: row `i` holds `(d·16^i)·P`
    /// for `d = 1..15`. Each entry is a nonzero multiple of `P` below the
    /// prime order, so none is infinity and one batched inversion
    /// normalizes them all.
    pub(crate) fn build_comb(&self, p: &EcPoint) -> EcComb {
        if p.is_infinity() {
            return EcComb {
                entries: Vec::new(),
            };
        }
        let rows = self.params.n.bits().div_ceil(4);
        with_kernel!(curve: &self.fp, |k| {
            let mut base = self.to_jacobian(k, p);
            let mut jacs = Vec::with_capacity(15 * rows);
            for _ in 0..rows {
                jacs.push(base);
                for _ in 1..15 {
                    let next = self.jac_add(k, &jacs[jacs.len() - 1], &base);
                    jacs.push(next);
                }
                base = self.jac_add(k, &jacs[jacs.len() - 1], &base);
            }
            EcComb {
                entries: self.to_mont_affine_batch(k, &jacs),
            }
        })
    }

    fn comb_mul_jac<K: CurveKernel>(&self, k: K, comb: &EcComb, e: &BigUint) -> Jacobian {
        let e = e % &self.params.n;
        let mut acc = self.jac_infinity();
        for (i, row) in comb.entries.chunks_exact(15).enumerate() {
            let mut window = 0usize;
            for b in 0..4 {
                window |= (e.bit(4 * i + b) as usize) << b;
            }
            if window != 0 {
                [acc] = self.jac_add_mixed(k, [&acc], [&row[window - 1]], [false]);
            }
        }
        acc
    }

    /// Fixed-base multiplication via a prebuilt comb table, one mixed
    /// addition per nonzero 4-bit window and no doublings; all results
    /// share one field inversion for the final affine conversion. Takes
    /// scalar references so callers holding scalars elsewhere (e.g. inside
    /// [`crate::Scalar`]) never clone them just to batch.
    pub(crate) fn scalar_mul_comb_batch(&self, comb: &EcComb, es: &[&BigUint]) -> Vec<EcPoint> {
        with_kernel!(curve: &self.fp, |k| {
            let jacs: Vec<Jacobian> = es.iter().map(|e| self.comb_mul_jac(k, comb, e)).collect();
            self.to_affine_batch(k, &jacs)
        })
    }

    /// Batch variable-base multiplication: signed wNAF digits against
    /// affine `MontAffine` tables (mixed additions), all results sharing
    /// one final field inversion. The tables are built in affine form by
    /// [`Self::wnaf_tables`], whose eight rounds each share one inversion
    /// across *every base of the batch*, which is what lets the ladder use
    /// 8M+3S mixed additions instead of 12M+4S general ones without
    /// per-point inversion overhead.
    pub(crate) fn scalar_mul_batch(&self, pairs: &[(&EcPoint, &BigUint)]) -> Vec<EcPoint> {
        with_kernel!(curve: &self.fp, |k| {
            let mut bases: Vec<MontAffine> = Vec::new();
            let plan: Vec<Option<(BigUint, usize)>> = pairs
                .iter()
                .map(|(p, e)| {
                    let e = *e % &self.params.n;
                    let xy = p.xy().filter(|_| !e.is_zero())?;
                    bases.push(self.enter_affine(k, xy));
                    Some((e, bases.len() - 1))
                })
                .collect();
            let tables = self.wnaf_tables(k, &bases);
            let tables: Vec<&[MontAffine]> = tables.chunks_exact(8).collect();
            let mut digits = [0i8; WNAF_MAX_DIGITS];
            let jacs: Vec<Jacobian> = plan
                .iter()
                .map(|entry| match entry {
                    None => self.jac_infinity(),
                    Some((e, t)) => {
                        self.wnaf_mul_jac(k, wnaf_digits(e.limbs(), &mut digits), tables[*t])
                    }
                })
                .collect();
            self.to_affine_batch(k, &jacs)
        })
    }

    /// Fused hop batch over a prepared set: each entry `(A, i, B)` names
    /// randomizer `i`'s pair `(r, s)` in `set` and yields
    /// `(r·A + s·B, r·B)` — the shape of a re-randomized partial
    /// decryption.
    ///
    /// Both results come from one ladder in two lanes. Every step doubles
    /// both; each digit of `r` adds `A`'s and `B`'s table entries to their
    /// lanes together, and each digit of `s` adds `B`'s entry to the first
    /// lane alone (Shamir's trick). The two lanes are independent
    /// dependency chains, which the latency-bound field kernel overlaps.
    /// Each pair is recoded into two stack digit buffers just before its
    /// lanes run, so the set stores plain limbs. The odd-multiple tables
    /// of every base come from [`Self::wnaf_tables`] (eight rounds, one
    /// inversion each, shared by the batch), and every result is
    /// normalized through one more batched inversion.
    pub(crate) fn scalar_mul_hop_batch(
        &self,
        set: &HopScalars,
        items: &[(&EcPoint, usize, &EcPoint)],
    ) -> Vec<(EcPoint, EcPoint)> {
        let nonzero = |k: &[u64]| k.iter().any(|&l| l != 0);
        with_kernel!(curve: &self.fp, |k| {
            let mut bases: Vec<MontAffine> = Vec::new();
            let mut table_of = |p: &EcPoint, used: bool| {
                p.xy().filter(|_| used).map(|xy| {
                    bases.push(self.enter_affine(k, xy));
                    bases.len() - 1
                })
            };
            let plan: Vec<(Option<usize>, Option<usize>)> = items
                .iter()
                .map(|&(a, i, b)| {
                    let (r, s) = set.pair(i);
                    let ta = table_of(a, nonzero(r));
                    (ta, table_of(b, nonzero(r) || nonzero(s)))
                })
                .collect();
            let tables = self.wnaf_tables(k, &bases);
            let tables: Vec<&[MontAffine]> = tables.chunks_exact(8).collect();
            let inf = self.jac_infinity();
            let (mut r_digits, mut s_digits) = ([0i8; WNAF_MAX_DIGITS], [0i8; WNAF_MAX_DIGITS]);
            let mut jacs = Vec::with_capacity(items.len() * 2);
            for (&(ta, tb), &(_, i, _)) in plan.iter().zip(items) {
                let (r, s) = set.pair(i);
                let (r, s) = (wnaf_digits(r, &mut r_digits), wnaf_digits(s, &mut s_digits));
                jacs.extend(match (ta, tb) {
                    (Some(ta), Some(tb)) => self.hop_lanes(k, r, tables[ta], s, tables[tb]),
                    (Some(ta), None) => [self.wnaf_mul_jac(k, r, tables[ta]), inf],
                    (None, Some(tb)) => [
                        self.wnaf_mul_jac(k, s, tables[tb]),
                        self.wnaf_mul_jac(k, r, tables[tb]),
                    ],
                    (None, None) => [inf, inf],
                });
            }
            let mut pts = self.to_affine_batch(k, &jacs).into_iter();
            items
                .iter()
                .map(|_| {
                    // tidy:allow(panic) — two Jacobians were pushed per item above, so the iterator cannot run dry
                    (pts.next().expect("paired"), pts.next().expect("paired"))
                })
                .collect()
        })
    }

    /// `[r·A + s·B, r·B]` from `r`'s and `s`'s digits against `A`'s and
    /// `B`'s tables, as the two lanes of [`Self::scalar_mul_hop_batch`]'s
    /// ladder.
    fn hop_lanes<K: CurveKernel>(
        &self,
        k: K,
        r: &[i8],
        ta: &[MontAffine],
        s: &[i8],
        tb: &[MontAffine],
    ) -> [Jacobian; 2] {
        let mut acc = [self.jac_infinity(); 2];
        for i in (0..r.len().max(s.len())).rev() {
            match r.get(i) {
                Some(&d) => {
                    acc = self.jac_double(k, [&acc[0], &acc[1]]);
                    if d != 0 {
                        let q = [odd_entry(ta, d), odd_entry(tb, d)];
                        acc = self.jac_add_mixed(k, [&acc[0], &acc[1]], q, [d < 0; 2]);
                    }
                }
                // Above r's top digit the second lane is still infinity.
                None => acc[0] = self.jac_double1(k, &acc[0]),
            }
            if let Some(&d) = s.get(i).filter(|&&d| d != 0) {
                [acc[0]] = self.jac_add_mixed(k, [&acc[0]], [odd_entry(tb, d)], [d < 0]);
            }
        }
        acc
    }

    /// Builds width-4 wNAF odd-multiple tables `{1·P, 3·P, …, 15·P}` for
    /// every base at once, in affine arithmetic, laid end to end: base
    /// `t`'s table is the `t`-th chunk of 8.
    ///
    /// Eight rounds run across the whole batch, each sharing one
    /// [`FieldKernel::batch_inv`] (Montgomery's simultaneous inversion):
    /// first every `2P` (tangent slope, denominators `2y`), then seven
    /// rounds of `(2j − 1)·P + 2P` (chord slopes, denominators
    /// `x(2P) − x((2j − 1)·P)`). An entry costs three multiplications for
    /// its share of the inversion plus two multiplications and a squaring,
    /// where a Jacobian build paid a 12M+4S addition and a normalization.
    /// Bases are finite points of prime order above 15, so `y ≠ 0` and
    /// `(2j − 1)·P ≠ ±2P`: no denominator is zero, and `batch_inv`'s
    /// assert is the guard if one ever were.
    fn wnaf_tables<K: CurveKernel>(&self, k: K, bases: &[MontAffine]) -> Vec<MontAffine> {
        let twice_inv = k.batch_inv(&bases.iter().map(|p| k.small::<2>(&p.y)).collect::<Vec<_>>());
        let twice: Vec<MontAffine> = bases
            .iter()
            .zip(&twice_inv)
            .map(|(p, inv)| {
                let slope = k.mul(&k.add(&k.small::<3>(&k.sqr(&p.x)), &self.a_m), inv);
                self.affine_step(k, slope, p, p)
            })
            .collect();
        let mut tables: Vec<MontAffine> = bases.iter().flat_map(|&p| [p; 8]).collect();
        let mut dens = Vec::with_capacity(bases.len());
        for j in 1..8 {
            dens.clear();
            dens.extend(
                tables
                    .chunks_exact(8)
                    .zip(&twice)
                    .map(|(t, q)| k.sub(&q.x, &t[j - 1].x)),
            );
            let invs = k.batch_inv(&dens);
            for ((t, q), inv) in tables.chunks_exact_mut(8).zip(&twice).zip(&invs) {
                let slope = k.mul(&k.sub(&q.y, &t[j - 1].y), inv);
                t[j] = self.affine_step(k, slope, &t[j - 1], q);
            }
        }
        tables
    }

    /// The affine sum of `p` and `q` (or `2p` when they are the same point)
    /// given the slope of the line through them: `x = λ² − x_p − x_q`,
    /// `y = λ(x_p − x) − y_p`.
    fn affine_step<K: CurveKernel>(
        &self,
        k: K,
        slope: Fe,
        p: &MontAffine,
        q: &MontAffine,
    ) -> MontAffine {
        let x = k.sub(&k.sub(&k.sqr(&slope), &p.x), &q.x);
        let y = k.sub(&k.mul(&slope, &k.sub(&p.x, &x)), &p.y);
        MontAffine { x, y }
    }

    /// Replays LSB-first wNAF digits against a normalized odd-multiple
    /// table: doublings on the Jacobian accumulator, mixed additions for
    /// nonzero digits (negative digits negate the table entry for free).
    fn wnaf_mul_jac<K: CurveKernel>(&self, k: K, digits: &[i8], table: &[MontAffine]) -> Jacobian {
        let mut acc = self.jac_infinity();
        for &d in digits.iter().rev() {
            acc = self.jac_double1(k, &acc);
            if d != 0 {
                [acc] = self.jac_add_mixed(k, [&acc], [odd_entry(table, d)], [d < 0]);
            }
        }
        acc
    }

    /// Batch affine addition: every `p + q` is computed in Jacobian form
    /// and all results share one field inversion for the final conversion,
    /// versus one inversion *per pair* when calling [`EcGroup::add`] in a
    /// loop. Homomorphic ciphertext algebra (re-randomization, gate
    /// outputs) is made of exactly these adds.
    pub(crate) fn add_batch(&self, pairs: &[(&EcPoint, &EcPoint)]) -> Vec<EcPoint> {
        with_kernel!(curve: &self.fp, |k| {
            let jacs: Vec<Jacobian> = pairs
                .iter()
                .map(|(p, q)| self.jac_add(k, &self.to_jacobian(k, p), &self.to_jacobian(k, q)))
                .collect();
            self.to_affine_batch(k, &jacs)
        })
    }

    /// Running sums (inclusive prefix scan): `out[i] = p₀ + … + pᵢ`. The
    /// accumulator stays in Jacobian form between steps and every prefix
    /// shares one field inversion, versus one inversion per prefix when a
    /// caller chains [`EcGroup::add`]. The comparison circuit's suffix
    /// sums are exactly this shape.
    pub(crate) fn add_scan(&self, points: &[&EcPoint]) -> Vec<EcPoint> {
        with_kernel!(curve: &self.fp, |k| {
            let mut acc = self.jac_infinity();
            let jacs: Vec<Jacobian> = points
                .iter()
                .map(|p| {
                    acc = self.jac_add(k, &acc, &self.to_jacobian(k, p));
                    acc
                })
                .collect();
            self.to_affine_batch(k, &jacs)
        })
    }

    /// SEC1 compressed encoding (`0x02/0x03 || x`); infinity is all zeros.
    pub(crate) fn encode(&self, p: &EcPoint) -> Vec<u8> {
        let mut out = vec![0u8; self.element_len];
        let Some((x, y)) = p.xy() else { return out };
        out[0] = if y.is_even() { 0x02 } else { 0x03 };
        let xb = x.to_bytes_be();
        out[self.element_len - xb.len()..].copy_from_slice(&xb);
        out
    }

    /// Decodes a compressed point, recovering `y` as the square root of
    /// `x³ + ax + b` that [`FieldKernel::sqrt`] takes without leaving the
    /// field's Montgomery domain, negated if its parity is not the tag's.
    pub(crate) fn decode(&self, bytes: &[u8]) -> Result<EcPoint, DecodeElementError> {
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
                let y = with_kernel!(curve: &self.fp, |k| {
                    k.sqrt(&self.curve_rhs(k, &k.enter(&x)))
                        .map(|y| k.leave(&y))
                })
                .ok_or(DecodeElementError {
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

    /// `m·G` as a Jacobian point with `Z ≠ 1` (computed as `2P − P`), and
    /// in normalized form.
    fn jacobian_multiple<K: CurveKernel>(g: &EcGroup, k: K, m: u64) -> (Jacobian, MontAffine) {
        let p = g.to_jacobian(k, &g.scalar_mul(&gen_point(g), &BigUint::from(m)));
        let affine = MontAffine { x: p.x, y: p.y };
        let [twice] = g.jac_double(k, [&p]);
        let [j] = g.jac_add_mixed(k, [&twice], [&affine], [true]);
        (j, affine)
    }

    fn coords(p: &Jacobian) -> [Fe; 3] {
        [p.x, p.y, p.z]
    }

    #[test]
    fn two_lanes_match_two_one_lane_calls() {
        for g in groups() {
            with_kernel!(curve: &g.fp, |k| {
                let (p, _) = jacobian_multiple(&g, k, 5);
                let (q_jac, q) = jacobian_multiple(&g, k, 11);
                let (_, other) = jacobian_multiple(&g, k, 29);
                let inf = g.jac_infinity();
                let name = g.params().name;
                // Doubling: both lanes regular, or one at infinity.
                for lanes in [[&p, &q_jac], [&inf, &q_jac], [&p, &inf], [&inf, &inf]] {
                    let two = g.jac_double(k, lanes);
                    for (i, lane) in lanes.iter().enumerate() {
                        let [one] = g.jac_double(k, [*lane]);
                        assert_eq!(coords(&two[i]), coords(&one), "{name} double lane {i}");
                    }
                }
                // Mixed addition: a regular lane beside one at infinity, at
                // P = Q (a doubling) or at P = −Q (infinity), in either lane.
                let cases: [(&Jacobian, &MontAffine, bool); 5] = [
                    (&p, &other, false),
                    (&p, &other, true),
                    (&inf, &other, true),
                    (&q_jac, &q, false),
                    (&q_jac, &q, true),
                ];
                for a in &cases {
                    for b in &cases {
                        let two = g.jac_add_mixed(k, [a.0, b.0], [a.1, b.1], [a.2, b.2]);
                        for (i, (p, q, neg)) in [a, b].into_iter().enumerate() {
                            let [one] = g.jac_add_mixed(k, [*p], [*q], [*neg]);
                            assert_eq!(coords(&two[i]), coords(&one), "{name} add lane {i}");
                        }
                    }
                }
                let [twice] = g.jac_add_mixed(k, [&q_jac], [&q], [false]);
                let [doubled] = g.jac_double(k, [&q_jac]);
                assert_eq!(coords(&twice), coords(&doubled), "{name} P + P");
                let [zero] = g.jac_add_mixed(k, [&q_jac], [&q], [true]);
                assert!(is_zero(&zero.z), "{name} P − P");
            });
        }
    }

    #[test]
    fn hop_batch_matches_single_muls() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        for g in groups() {
            let p = gen_point(&g);
            let q = g.scalar_mul(&p, &BigUint::from(0xdead_beefu64));
            let inf = EcPoint::infinity();
            let mut below = |bound: &BigUint| ppgr_bigint::random_below(&mut rng, bound);
            let n = g.order().clone();
            let short = BigUint::power_of_two(96);
            // Random pairs: s's digits as long as r's, longer, shorter, and
            // none at all.
            let random = [
                (below(&n), below(&n)),
                (below(&n), below(&n)),
                (below(&short), below(&n)),
                (below(&n), below(&short)),
                (below(&n), BigUint::zero()),
            ];
            let mut buf = [[0i8; WNAF_MAX_DIGITS]; 2];
            let [rb, sb] = &mut buf;
            let len = |k: &BigUint, b: &mut [i8]| wnaf_digits(k.limbs(), b).len();
            let (r, s) = &random[2];
            assert!(len(s, sb) > len(r, rb), "s's digits outrun r's");
            let (r, s) = &random[3];
            assert!(len(s, sb) < len(r, rb), "r's digits outrun s's");
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
            .chain(random.into_iter().map(|(k1, k2)| (&p, k1, &q, k2)))
            .chain([
                (&inf, BigUint::from(9u64), &q, BigUint::from(4u64)),
                (&p, BigUint::from(9u64), &inf, BigUint::from(4u64)),
            ])
            .collect();
            let pairs: Vec<(BigUint, BigUint)> = cases
                .iter()
                .map(|(_, k1, _, k2)| (k1.clone(), k2.clone()))
                .collect();
            let set = HopScalars::from_pairs(n.limbs().len(), &pairs);
            // Every pair, and the same pairs read in reverse order.
            let forward: Vec<(&EcPoint, usize, &EcPoint)> = cases
                .iter()
                .enumerate()
                .map(|(i, (a, _, b, _))| (*a, i, *b))
                .collect();
            let backward: Vec<_> = forward.iter().rev().copied().collect();
            let hops = g.scalar_mul_hop_batch(&set, &forward);
            let reversed = g.scalar_mul_hop_batch(&set, &backward);
            for (i, (a, k1, b, k2)) in cases.iter().enumerate() {
                let expect = g.add(&g.scalar_mul(a, k1), &g.scalar_mul(b, k2));
                let label = format!("{} k1={k1:?} k2={k2:?}", g.params().name);
                assert_eq!(hops[i].0, expect, "{label}");
                assert_eq!(hops[i].1, g.scalar_mul(b, k1), "{label}");
                assert_eq!(reversed[cases.len() - 1 - i], hops[i], "{label} reversed");
            }
        }
    }

    /// The Jacobian table builder the round builder replaced: per base one
    /// doubling and seven general additions, then one normalization of
    /// every entry of the batch.
    fn jacobian_wnaf_tables<K: CurveKernel>(
        g: &EcGroup,
        k: K,
        bases: &[MontAffine],
    ) -> Vec<MontAffine> {
        let mut jacs: Vec<Jacobian> = Vec::with_capacity(bases.len() * 8);
        for base in bases {
            let base = Jacobian {
                x: base.x,
                y: base.y,
                z: k.one(),
            };
            let twice = g.jac_double1(k, &base);
            jacs.push(base);
            for _ in 1..8 {
                let next = g.jac_add(k, &jacs[jacs.len() - 1], &twice);
                jacs.push(next);
            }
        }
        g.to_mont_affine_batch(k, &jacs)
    }

    #[test]
    fn wnaf_tables_match_the_jacobian_builder() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for g in groups() {
            let gen = gen_point(&g);
            let p = g.scalar_mul(&gen, &BigUint::from(0xdead_beefu64));
            let mut many = vec![gen.clone(), p.clone(), g.neg(&p), p.clone()];
            many.extend(
                (4..64)
                    .map(|_| g.scalar_mul(&gen, &ppgr_bigint::random_below(&mut rng, g.order()))),
            );
            // The generator alone; a base beside its negation; a repeated
            // base; 64 bases holding all three.
            let batches = [
                vec![gen.clone()],
                vec![p.clone(), g.neg(&p)],
                vec![p.clone(), gen.clone(), p.clone()],
                many,
            ];
            with_kernel!(curve: &g.fp, |k| {
                for batch in &batches {
                    let bases: Vec<MontAffine> = batch
                        .iter()
                        .map(|pt| g.enter_affine(k, pt.xy().unwrap()))
                        .collect();
                    let got = g.wnaf_tables(k, &bases);
                    let want = jacobian_wnaf_tables(&g, k, &bases);
                    assert_eq!(got.len(), 8 * bases.len());
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            (a.x, a.y),
                            (b.x, b.y),
                            "{} batch of {}, base {} entry {}",
                            g.params().name,
                            bases.len(),
                            i / 8,
                            i % 8
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn comb_matches_scalar_mul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for g in groups() {
            let p = g.scalar_mul(&gen_point(&g), &BigUint::from(31_337u64));
            let comb = g.build_comb(&p);
            let n = g.order().clone();
            let mut ks: Vec<BigUint> = [0u64, 1, 2, 15, 16, 0xffff_ffff, u64::MAX]
                .into_iter()
                .map(BigUint::from)
                .collect();
            // The order, scalars above it (they reduce first), and random
            // ones below it.
            ks.extend([
                n.clone(),
                &n + &BigUint::one(),
                &(&n + &n) + &BigUint::from(77u64),
            ]);
            ks.extend((0..4).map(|_| ppgr_bigint::random_below(&mut rng, &n)));
            let refs: Vec<&BigUint> = ks.iter().collect();
            let batch = g.scalar_mul_comb_batch(&comb, &refs);
            let one = |comb: &EcComb, k: &BigUint| g.scalar_mul_comb_batch(comb, &[k]).remove(0);
            for (k, got) in ks.iter().zip(&batch) {
                let want = g.scalar_mul(&p, k);
                assert_eq!(one(&comb, k), want, "{} k={k:?}", g.params().name);
                assert_eq!(got, &want, "{} batch k={k:?}", g.params().name);
            }
            assert!(one(&comb, &n).is_infinity());
            assert_eq!(one(&comb, &(&n + &BigUint::one())), p);
            // The point at infinity's table is empty and yields infinity.
            let inf = g.build_comb(&EcPoint::infinity());
            assert!(one(&inf, &BigUint::from(5u64)).is_infinity());
        }
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
