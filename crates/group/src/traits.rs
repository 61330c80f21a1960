//! The [`Group`] handle and opaque [`Element`] values.

use crate::dl::DlGroup;
use crate::ec::{EcGroup, EcPoint};
use crate::kind::GroupKind;
use crate::scalar::Scalar;
use ppgr_bigint::{random_below, with_kernel, BigUint, FieldKernel, Montgomery};
use rand::Rng;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An element of a [`Group`] (a residue for DL groups, a point for ECC).
///
/// Elements are opaque; combine them with [`Group::op`], [`Group::exp`] etc.
#[derive(Clone, Eq, PartialEq, Hash)]
pub enum Element {
    /// A quadratic residue modulo the safe prime of a [`DlGroup`].
    Dl(BigUint),
    /// A point on the curve of an [`EcGroup`].
    Ec(EcPoint),
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Dl(v) => write!(f, "Element::Dl(0x{v:x})"),
            Element::Ec(p) => write!(f, "Element::Ec({p:?})"),
        }
    }
}

/// Error returned when decoding a serialized group element fails.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct DecodeElementError {
    pub(crate) reason: &'static str,
}

impl fmt::Display for DecodeElementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid group element encoding: {}", self.reason)
    }
}

impl Error for DecodeElementError {}

/// Error from a fallible group operation.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum GroupError {
    /// An element of the other group family (DL vs. EC) was passed to this
    /// group — e.g. a curve point handed to a safe-prime group. This means
    /// elements from different [`Group`] instances were mixed, which the
    /// protocol layers never do for honestly generated values but can
    /// happen with adversarial wire input.
    FamilyMismatch {
        /// The operation that was attempted (`"op"`, `"exp"`, …).
        operation: &'static str,
    },
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::FamilyMismatch { operation } => {
                write!(f, "element/group family mismatch in `{operation}`")
            }
        }
    }
}

impl Error for GroupError {}

/// A value of one group family or the other: an element, or a prepared
/// table.
trait Family {
    /// The value's DL form.
    type Dl;
    /// The value's curve form.
    type Ec;
    /// The value's form in its family.
    fn family(&self) -> Result<&Self::Dl, &Self::Ec>;
}

impl Family for Element {
    type Dl = BigUint;
    type Ec = EcPoint;
    fn family(&self) -> Result<&BigUint, &EcPoint> {
        match self {
            Element::Dl(a) => Ok(a),
            Element::Ec(p) => Err(p),
        }
    }
}

impl Family for FixedBaseTable {
    type Dl = crate::dl::DlComb;
    type Ec = crate::ec::EcComb;
    fn family(&self) -> Result<&Self::Dl, &Self::Ec> {
        match &self.inner {
            TableImpl::Dl(c) => Ok(c),
            TableImpl::Ec(c) => Err(c),
        }
    }
}

/// `v` as a DL value.
///
/// # Panics
///
/// Panics, naming `operation`, if `v` belongs to the curve family.
fn dl<'a, T: Family>(v: &'a T, operation: &'static str) -> &'a T::Dl {
    match v.family() {
        Ok(d) => d,
        // tidy:allow(panic) — documented family-mismatch contract; mixing families is a caller bug, not input
        Err(_) => panic!("{}", GroupError::FamilyMismatch { operation }),
    }
}

/// `v` as a curve value.
///
/// # Panics
///
/// Panics, naming `operation`, if `v` belongs to the DL family.
fn ec<'a, T: Family>(v: &'a T, operation: &'static str) -> &'a T::Ec {
    match v.family() {
        Err(p) => p,
        // tidy:allow(panic) — documented family-mismatch contract; mixing families is a caller bug, not input
        Ok(_) => panic!("{}", GroupError::FamilyMismatch { operation }),
    }
}

/// A precomputed fixed-base exponentiation table for one [`Element`].
///
/// Built with [`Group::prepare_base`]; pass it to [`Group::exp_prepared`]
/// (or the batch variant) to exponentiate by that base at roughly a quarter
/// of the generic [`Group::exp`] cost. The table build itself costs a few
/// generic exponentiations, so prepare only bases that are reused — in this
/// framework, the joint public key that every encryption and
/// re-randomization exponentiates by.
///
/// Cloning is cheap (`Arc` internally). A group keeps only its
/// generator's table, which [`Group::exp_gen`] reads; any other table
/// lives exactly as long as its holders — an offline stock, a sorting
/// machine or a mesh party — keep it.
///
/// `{:?}` prints the table's shape, its base and entry count, not the
/// entries: a DL-1024 table holds about 1.3 MB of them in hex.
#[derive(Clone)]
pub struct FixedBaseTable {
    base: Element,
    inner: TableImpl,
}

#[derive(Clone)]
enum TableImpl {
    Dl(Arc<crate::dl::DlComb>),
    Ec(Arc<crate::ec::EcComb>),
}

impl fmt::Debug for FixedBaseTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = match &self.inner {
            TableImpl::Dl(comb) => comb.entries(),
            TableImpl::Ec(comb) => comb.entries(),
        };
        f.debug_struct("FixedBaseTable")
            .field("base", &self.base)
            .field("entries", &entries)
            .finish()
    }
}

/// One hop set's prepared randomizers: for each randomizer `r`, the pair
/// `(r, −x·r mod q)` under the hop owner's key share `x`, both stored in
/// one limb buffer at the group order's limb width (3 limbs on ECC-160, 4
/// on ECC-224/256, 16/32/48 on DL). A randomizer costs `2·width` limbs —
/// 48 B on ECC-160 — and a set one allocation, with no per-randomizer
/// `Scalar` or digit string.
///
/// Built empty by [`Group::hop_scalars`], filled by [`HopScalars::push`]
/// as the randomizers are drawn, and completed in place by
/// [`Group::prepare_hop_scalars`]; [`Group::exp_hop_prepared_batch`]
/// reads each pair by index. The curve family's signed-digit recoding is
/// not stored: the hop ladder recodes each pair into two stack buffers
/// just before it runs.
///
/// Together `r` and `−x·r` give the hop party's key share `x`, so `{:?}`
/// prints neither.
#[derive(Clone, PartialEq, Eq)]
pub struct HopScalars {
    /// Limbs per scalar: the group order's limb count.
    width: usize,
    /// Per randomizer, `r` then `−x·r`, `width` little-endian limbs each.
    limbs: Vec<u64>,
}

impl fmt::Debug for HopScalars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HopScalars(<redacted>)")
    }
}

impl HopScalars {
    /// The number of randomizers in the set.
    pub fn len(&self) -> usize {
        self.limbs.len() / (2 * self.width)
    }

    /// Returns `true` if the set holds no randomizer.
    pub fn is_empty(&self) -> bool {
        self.limbs.is_empty()
    }

    /// The bytes the set holds on the heap: its one buffer's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.limbs.capacity() * std::mem::size_of::<u64>()
    }

    /// Appends the randomizer `r`, a scalar of the group that made the
    /// set. Its `−x·r` stays zero until [`Group::prepare_hop_scalars`]
    /// fills it.
    ///
    /// # Panics
    ///
    /// Panics if `r` is wider than the set's group order.
    pub fn push(&mut self, r: &Scalar) {
        let r = r.0.limbs();
        assert!(
            r.len() <= self.width,
            "randomizer wider than the group order"
        );
        self.limbs.extend_from_slice(r);
        let pair = 2 * self.width - r.len();
        self.limbs.resize(self.limbs.len() + pair, 0);
    }

    /// Randomizer `i`'s `(r, −x·r)` limbs.
    pub(crate) fn pair(&self, i: usize) -> (&[u64], &[u64]) {
        let at = 2 * self.width * i;
        self.limbs[at..at + 2 * self.width].split_at(self.width)
    }
}

#[cfg(test)]
impl HopScalars {
    /// A set holding the `(r, s)` pairs as given, unprepared, at `width`
    /// limbs per scalar: the ladder tests feed pairs no key share relates.
    pub(crate) fn from_pairs(width: usize, pairs: &[(BigUint, BigUint)]) -> Self {
        let mut limbs = Vec::with_capacity(2 * width * pairs.len());
        for k in pairs.iter().flat_map(|(r, s)| [r, s]) {
            limbs.extend_from_slice(k.limbs());
            limbs.resize(limbs.len() + width - k.limbs().len(), 0);
        }
        HopScalars { width, limbs }
    }
}

impl FixedBaseTable {
    /// The base this table exponentiates.
    pub fn base(&self) -> &Element {
        &self.base
    }
}

/// A handle to a prime-order group in which DDH is assumed hard.
///
/// Cloning is cheap (`Arc` internally). All protocol crates take a `&Group`
/// and treat [`Element`] / [`Scalar`] as opaque.
#[derive(Clone, Debug)]
pub struct Group {
    pub(crate) kind: GroupKind,
    pub(crate) inner: GroupImpl,
    /// The generator's comb table: the first fixed-base call builds it,
    /// and every clone of the group shares it.
    pub(crate) gen_table: Arc<OnceLock<FixedBaseTable>>,
}

#[derive(Clone, Debug)]
pub(crate) enum GroupImpl {
    Dl(Arc<DlGroup>),
    Ec(Arc<EcGroup>),
}

impl Group {
    /// Which concrete instantiation this is.
    pub fn kind(&self) -> GroupKind {
        self.kind
    }

    /// The prime group order `q`.
    pub fn order(&self) -> &BigUint {
        match &self.inner {
            GroupImpl::Dl(g) => g.order(),
            GroupImpl::Ec(g) => g.order(),
        }
    }

    /// The identity element (`1` / point at infinity).
    pub fn identity(&self) -> Element {
        match &self.inner {
            GroupImpl::Dl(_) => Element::Dl(BigUint::one()),
            GroupImpl::Ec(_) => Element::Ec(EcPoint::infinity()),
        }
    }

    /// The fixed generator `g`.
    pub fn generator(&self) -> &Element {
        match &self.inner {
            GroupImpl::Dl(g) => g.generator(),
            GroupImpl::Ec(g) => g.generator(),
        }
    }

    /// Fallible group operation `a · b` (point addition for ECC).
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::FamilyMismatch`] if an element belongs to the
    /// other group family.
    pub fn try_op(&self, a: &Element, b: &Element) -> Result<Element, GroupError> {
        match (&self.inner, a, b) {
            (GroupImpl::Dl(g), Element::Dl(a), Element::Dl(b)) => Ok(Element::Dl(g.mul(a, b))),
            (GroupImpl::Ec(g), Element::Ec(a), Element::Ec(b)) => Ok(Element::Ec(g.add(a, b))),
            _ => Err(GroupError::FamilyMismatch { operation: "op" }),
        }
    }

    /// Group operation `a · b` (point addition for ECC).
    ///
    /// # Panics
    ///
    /// Panics if an element belongs to the other group family; use
    /// [`Group::try_op`] for untrusted input.
    pub fn op(&self, a: &Element, b: &Element) -> Element {
        // tidy:allow(panic) — documented panicking twin of try_op; protocol paths use try_* on untrusted input
        self.try_op(a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Inverse element `a^{-1}` (point negation for ECC).
    ///
    /// # Panics
    ///
    /// Panics if the element belongs to the other group family.
    pub fn inv(&self, a: &Element) -> Element {
        const OP: &str = "inv";
        match &self.inner {
            GroupImpl::Dl(g) => Element::Dl(g.inv(dl(a, OP))),
            GroupImpl::Ec(g) => Element::Ec(g.neg(ec(a, OP))),
        }
    }

    /// Batch [`Group::inv`]: `out[i] = aᵢ^{-1}`. On the DL family every
    /// inverse shares a single Fermat inversion (Montgomery's trick: three
    /// multiplications per element instead of a full exponentiation each);
    /// on the elliptic-curve family inversion is point negation, so there
    /// it is just the loop. The empty slice gives an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if any element belongs to the other group family.
    pub fn inv_batch(&self, items: &[&Element]) -> Vec<Element> {
        const OP: &str = "inv_batch";
        match &self.inner {
            GroupImpl::Dl(g) => {
                let vs: Vec<&BigUint> = items.iter().map(|a| dl(*a, OP)).collect();
                g.inv_batch(&vs).into_iter().map(Element::Dl).collect()
            }
            GroupImpl::Ec(g) => items
                .iter()
                .map(|a| Element::Ec(g.neg(ec(*a, OP))))
                .collect(),
        }
    }

    /// `a / b`, i.e. `a · b^{-1}`.
    pub fn div(&self, a: &Element, b: &Element) -> Element {
        self.op(a, &self.inv(b))
    }

    /// Fallible exponentiation `a^s` (scalar multiplication for ECC): on
    /// curves the MSM engine's ladder on one term (see
    /// [`Group::multi_exp`]), on DL the field kernel's exponentiation.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::FamilyMismatch`] if the element belongs to the
    /// other group family.
    pub fn try_exp(&self, a: &Element, s: &Scalar) -> Result<Element, GroupError> {
        match (&self.inner, a) {
            (GroupImpl::Dl(g), Element::Dl(a)) => Ok(Element::Dl(g.pow(a, &s.0))),
            (GroupImpl::Ec(g), Element::Ec(a)) => Ok(Element::Ec(g.scalar_mul(a, &s.0))),
            _ => Err(GroupError::FamilyMismatch { operation: "exp" }),
        }
    }

    /// Exponentiation `a^s` (scalar multiplication for ECC).
    ///
    /// # Panics
    ///
    /// Panics if the element belongs to the other group family; use
    /// [`Group::try_exp`] for untrusted input.
    pub fn exp(&self, a: &Element, s: &Scalar) -> Element {
        // tidy:allow(panic) — documented panicking twin of try_exp; protocol paths use try_* on untrusted input
        self.try_exp(a, s).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batch [`Group::exp`] over independent (base, scalar) pairs;
    /// elliptic-curve results share a single field inversion.
    pub fn exp_batch(&self, pairs: &[(&Element, &Scalar)]) -> Vec<Element> {
        const OP: &str = "exp_batch";
        match &self.inner {
            GroupImpl::Dl(g) => pairs
                .iter()
                .map(|(a, s)| Element::Dl(g.pow(dl(*a, OP), &s.0)))
                .collect(),
            GroupImpl::Ec(g) => {
                let pts: Vec<(&EcPoint, &BigUint)> =
                    pairs.iter().map(|(a, s)| (ec(*a, OP), &s.0)).collect();
                g.scalar_mul_batch(&pts)
                    .into_iter()
                    .map(Element::Ec)
                    .collect()
            }
        }
    }

    /// `g^s` for the fixed generator: [`Group::exp_prepared`] on the
    /// generator's comb table, which the first fixed-base call builds and
    /// every clone of the group shares. Roughly 4× faster than
    /// [`Group::exp`] on an arbitrary base, which matters because key
    /// generation, proof commitments, and one of the two exponentiations
    /// of every encryption are fixed-base.
    pub fn exp_gen(&self, s: &Scalar) -> Element {
        self.exp_prepared(self.generator_table(), s)
    }

    /// Batch [`Group::exp_gen`]: [`Group::exp_prepared_batch`] on the
    /// generator's table.
    pub fn exp_gen_batch(&self, scalars: &[Scalar]) -> Vec<Element> {
        self.exp_prepared_batch(self.generator_table(), scalars)
    }

    /// The generator's comb table, built on first use.
    fn generator_table(&self) -> &FixedBaseTable {
        self.gen_table
            .get_or_init(|| self.prepare_base(self.generator()))
    }

    /// Multi-exponentiation `Π aᵢ^{sᵢ}` evaluated in a single pass.
    ///
    /// Backed by the in-crate MSM engine: Straus interleaving for small
    /// batches, Pippenger bucket aggregation for large ones, with the
    /// window width auto-selected from the term count and scalar
    /// bit-length. Far cheaper than folding [`Group::exp`] results with
    /// [`Group::op`] — the amortized per-term cost falls toward a few
    /// dozen group operations — which is what makes batch Schnorr
    /// verification (`ppgr-zkp`) collapse k proofs into one equation.
    ///
    /// The empty product is the identity.
    ///
    /// Returns [`GroupError::FamilyMismatch`] if any element belongs to
    /// the other group family.
    pub fn try_multi_exp(&self, pairs: &[(&Element, &Scalar)]) -> Result<Element, GroupError> {
        match &self.inner {
            GroupImpl::Dl(g) => {
                let mut items: Vec<(&BigUint, &BigUint)> = Vec::with_capacity(pairs.len());
                for (a, s) in pairs {
                    let Element::Dl(a) = a else {
                        return Err(GroupError::FamilyMismatch {
                            operation: "multi_exp",
                        });
                    };
                    items.push((a, &s.0));
                }
                Ok(Element::Dl(crate::msm::msm_dl(g, &items)))
            }
            GroupImpl::Ec(g) => {
                let mut items: Vec<(&EcPoint, &BigUint)> = Vec::with_capacity(pairs.len());
                for (a, s) in pairs {
                    let Element::Ec(a) = a else {
                        return Err(GroupError::FamilyMismatch {
                            operation: "multi_exp",
                        });
                    };
                    items.push((a, &s.0));
                }
                Ok(Element::Ec(crate::msm::msm_ec(g, &items)))
            }
        }
    }

    /// Multi-exponentiation `Π aᵢ^{sᵢ}` (see [`Group::try_multi_exp`]).
    ///
    /// # Panics
    ///
    /// Panics if any element belongs to the other group family.
    pub fn multi_exp(&self, pairs: &[(&Element, &Scalar)]) -> Element {
        // tidy:allow(panic) — documented panicking twin of try_multi_exp; protocol paths use try_* on untrusted input
        self.try_multi_exp(pairs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batch [`Group::op`]: elliptic-curve sums stay in Jacobian form and
    /// share a single field inversion for the final affine conversion,
    /// versus one inversion per call when looping over [`Group::op`]. The
    /// DL family has no per-op inversion to amortize, so there it is just
    /// the loop: two kernel multiplications per product, one of them
    /// entering the first operand.
    ///
    /// # Panics
    ///
    /// Panics if any element belongs to the other group family.
    pub fn op_batch(&self, pairs: &[(&Element, &Element)]) -> Vec<Element> {
        const OP: &str = "op_batch";
        match &self.inner {
            GroupImpl::Dl(g) => pairs
                .iter()
                .map(|(a, b)| Element::Dl(g.mul(dl(*a, OP), dl(*b, OP))))
                .collect(),
            GroupImpl::Ec(g) => {
                let pts: Vec<(&EcPoint, &EcPoint)> = pairs
                    .iter()
                    .map(|(a, b)| (ec(*a, OP), ec(*b, OP)))
                    .collect();
                g.add_batch(&pts).into_iter().map(Element::Ec).collect()
            }
        }
    }

    /// Running products (inclusive prefix scan): `out[i] = a₀ ∘ … ∘ aᵢ`.
    /// The elliptic-curve accumulator stays in Jacobian form and all
    /// prefixes share one field inversion; chaining [`Group::op`] pays one
    /// inversion per prefix. The DL family has nothing to amortize, so
    /// there it is just the loop, each prefix multiplying the last.
    ///
    /// # Panics
    ///
    /// Panics if any element belongs to the other group family.
    pub fn op_scan(&self, items: &[&Element]) -> Vec<Element> {
        const OP: &str = "op_scan";
        match &self.inner {
            GroupImpl::Dl(g) => {
                let one = BigUint::one();
                let mut out: Vec<BigUint> = Vec::with_capacity(items.len());
                for a in items {
                    let prefix = g.mul(out.last().unwrap_or(&one), dl(*a, OP));
                    out.push(prefix);
                }
                out.into_iter().map(Element::Dl).collect()
            }
            GroupImpl::Ec(g) => {
                let pts: Vec<&EcPoint> = items.iter().map(|a| ec(*a, OP)).collect();
                g.add_scan(&pts).into_iter().map(Element::Ec).collect()
            }
        }
    }

    /// A hop set's limbs per scalar: the group order's limb count.
    fn hop_width(&self) -> usize {
        self.order().limbs().len()
    }

    /// An empty hop set at this group's order width, with room for `len`
    /// randomizers: filling it to `len` allocates nothing more.
    pub fn hop_scalars(&self, len: usize) -> HopScalars {
        let width = self.hop_width();
        HopScalars {
            width,
            limbs: Vec::with_capacity(2 * width * len),
        }
    }

    /// Prepares a hop set ahead of time: writes each randomizer's
    /// `−x·r mod q` under the hop owner's secret share `x` in place,
    /// beside its `r`. The product depends only on the scalars — never on
    /// the ciphertexts the hop will eventually touch — so a precompute
    /// phase pays it before any input exists, and
    /// [`Group::exp_hop_prepared_batch`] runs only the ladders online.
    ///
    /// The products run at the order's limb width and allocate nothing per
    /// randomizer: `x` enters a [`Montgomery`] context for `q` once, as
    /// `x·R`, so one kernel multiplication by a plain `r` leaves
    /// `x·R·r·R⁻¹ = x·r`, and one kernel subtraction from zero gives
    /// `q − x·r` (zero for zero).
    ///
    /// # Panics
    ///
    /// Panics if the set was made by a group of another order width.
    pub fn prepare_hop_scalars(&self, secret: &Scalar, set: &mut HopScalars) {
        let width = set.width;
        assert_eq!(width, self.hop_width(), "hop set made by another group");
        let field = Montgomery::new(self.order().clone());
        with_kernel!(&field, |k| {
            let x = k.enter(&secret.0);
            let mut r = k.zero();
            for pair in set.limbs.chunks_exact_mut(2 * width) {
                let (r_limbs, neg_xr) = pair.split_at_mut(width);
                r.as_mut()[..width].copy_from_slice(r_limbs);
                let xr = k.mul(&x, &r);
                neg_xr.copy_from_slice(&k.sub(&k.zero(), &xr).as_ref()[..width]);
            }
        })
    }

    /// Fused hop batch over the prepared set `set` (see
    /// [`Group::prepare_hop_scalars`]): for each `(a, i, b)` returns
    /// `(a^r·b^{−xr}, b^r)` for randomizer `i`'s pair — a re-randomized
    /// partial decryption and its new `β` in one call. Both families run
    /// both halves as two lanes of one ladder in lockstep: the first shares
    /// its doublings (squarings) between both bases (Shamir's trick), the
    /// second reuses `b`'s odd-multiple (odd-power) table and `r`'s digits.
    /// The elliptic-curve kernel recodes each pair into two stack digit
    /// buffers and normalizes every result of the batch through one field
    /// inversion; the DL family reads each scalar's sliding windows
    /// straight from the limbs and leaves the domain once per result.
    ///
    /// # Panics
    ///
    /// Panics if any element belongs to the other group family, if the set
    /// was made by a group of another order width, or if an index is out
    /// of range for the set.
    pub fn exp_hop_prepared_batch(
        &self,
        set: &HopScalars,
        items: &[(&Element, usize, &Element)],
    ) -> Vec<(Element, Element)> {
        assert_eq!(set.width, self.hop_width(), "hop set made by another group");
        const OP: &str = "exp_hop_prepared_batch";
        match &self.inner {
            GroupImpl::Dl(g) => {
                let rs: Vec<(&BigUint, usize, &BigUint)> = items
                    .iter()
                    .map(|&(a, i, b)| (dl(a, OP), i, dl(b, OP)))
                    .collect();
                g.hop_batch(set, &rs)
                    .into_iter()
                    .map(|(x, y)| (Element::Dl(x), Element::Dl(y)))
                    .collect()
            }
            GroupImpl::Ec(g) => {
                let pts: Vec<(&EcPoint, usize, &EcPoint)> = items
                    .iter()
                    .map(|&(a, i, b)| (ec(a, OP), i, ec(b, OP)))
                    .collect();
                g.scalar_mul_hop_batch(set, &pts)
                    .into_iter()
                    .map(|(x, y)| (Element::Ec(x), Element::Ec(y)))
                    .collect()
            }
        }
    }

    /// Builds a fixed-base comb table for `base`, enabling
    /// [`Group::exp_prepared`]. The table belongs to the caller: the group
    /// caches only its generator's, so whoever prepares a key keeps the
    /// table for as long as it exponentiates by that key.
    ///
    /// # Panics
    ///
    /// Panics if the element belongs to the other group family.
    pub fn prepare_base(&self, base: &Element) -> FixedBaseTable {
        const OP: &str = "prepare_base";
        let inner = match &self.inner {
            GroupImpl::Dl(g) => TableImpl::Dl(Arc::new(g.build_comb(dl(base, OP)))),
            GroupImpl::Ec(g) => TableImpl::Ec(Arc::new(g.build_comb(ec(base, OP)))),
        };
        FixedBaseTable {
            base: base.clone(),
            inner,
        }
    }

    /// Fixed-base exponentiation `base^s` through a prepared table: the
    /// batch of one.
    ///
    /// # Panics
    ///
    /// Panics if the table was built by a group of the other family.
    pub fn exp_prepared(&self, table: &FixedBaseTable, s: &Scalar) -> Element {
        self.comb_batch(table, std::slice::from_ref(s), "exp_prepared")
            .remove(0)
    }

    /// Batch [`Group::exp_prepared`]; elliptic-curve results share a single
    /// field inversion.
    ///
    /// # Panics
    ///
    /// Panics if the table was built by a group of the other family.
    pub fn exp_prepared_batch(&self, table: &FixedBaseTable, scalars: &[Scalar]) -> Vec<Element> {
        self.comb_batch(table, scalars, "exp_prepared_batch")
    }

    /// The fixed-base ladder behind both prepared entry points; a family
    /// mismatch panics naming `op`, the entry point called.
    fn comb_batch(
        &self,
        table: &FixedBaseTable,
        scalars: &[Scalar],
        op: &'static str,
    ) -> Vec<Element> {
        match &self.inner {
            GroupImpl::Dl(g) => {
                let c = dl(table, op);
                scalars
                    .iter()
                    .map(|s| Element::Dl(g.pow_comb(c, &s.0)))
                    .collect()
            }
            GroupImpl::Ec(g) => {
                let ks: Vec<&BigUint> = scalars.iter().map(|s| &s.0).collect();
                g.scalar_mul_comb_batch(ec(table, op), &ks)
                    .into_iter()
                    .map(Element::Ec)
                    .collect()
            }
        }
    }

    /// Returns `true` if `a` is the identity.
    pub fn is_identity(&self, a: &Element) -> bool {
        match a {
            Element::Dl(v) => v.is_one(),
            Element::Ec(p) => p.is_infinity(),
        }
    }

    /// Fallible fixed-length wire encoding of an element.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::FamilyMismatch`] if the element belongs to the
    /// other group family.
    pub fn try_encode(&self, a: &Element) -> Result<Vec<u8>, GroupError> {
        match (&self.inner, a) {
            (GroupImpl::Dl(g), Element::Dl(a)) => Ok(g.encode(a)),
            (GroupImpl::Ec(g), Element::Ec(a)) => Ok(g.encode(a)),
            _ => Err(GroupError::FamilyMismatch {
                operation: "encode",
            }),
        }
    }

    /// Fixed-length wire encoding of an element.
    ///
    /// DL elements are big-endian residues padded to the modulus width; EC
    /// points use SEC1 compressed form (`0x02/0x03 || x`, identity = `0x00…`).
    ///
    /// # Panics
    ///
    /// Panics if the element belongs to the other group family; use
    /// [`Group::try_encode`] for untrusted input.
    pub fn encode(&self, a: &Element) -> Vec<u8> {
        // tidy:allow(panic) — documented panicking twin of try_encode; protocol paths use try_* on untrusted input
        self.try_encode(a).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Decodes an element produced by [`Group::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeElementError`] when the bytes have the wrong length,
    /// encode a value outside the field, or do not lie in the group.
    pub fn decode(&self, bytes: &[u8]) -> Result<Element, DecodeElementError> {
        match &self.inner {
            GroupImpl::Dl(g) => g.decode(bytes).map(Element::Dl),
            GroupImpl::Ec(g) => g.decode(bytes).map(Element::Ec),
        }
    }

    /// Byte length of an encoded element (ciphertext-size accounting for the
    /// network simulation uses `2 ×` this per ElGamal ciphertext).
    pub fn element_len(&self) -> usize {
        match &self.inner {
            GroupImpl::Dl(g) => g.element_len(),
            GroupImpl::Ec(g) => g.element_len(),
        }
    }

    /// A uniformly random scalar in `[0, q)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        Scalar(random_below(rng, self.order()))
    }

    /// A uniformly random *nonzero* scalar.
    pub fn random_nonzero_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        loop {
            let s = self.random_scalar(rng);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Embeds an integer as a scalar (reduced mod `q`).
    pub fn scalar_from(&self, v: &BigUint) -> Scalar {
        Scalar(v % self.order())
    }

    /// Embeds a `u64` as a scalar.
    pub fn scalar_from_u64(&self, v: u64) -> Scalar {
        self.scalar_from(&BigUint::from(v))
    }

    /// `a + b mod q`.
    pub fn scalar_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar((&a.0 + &b.0) % self.order())
    }

    /// `a − b mod q`.
    pub fn scalar_sub(&self, a: &Scalar, b: &Scalar) -> Scalar {
        let q = self.order();
        if a.0 >= b.0 {
            Scalar(&a.0 - &b.0)
        } else {
            Scalar(&(&a.0 + q) - &b.0)
        }
    }

    /// `a · b mod q`.
    pub fn scalar_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(&(&a.0 * &b.0) % self.order())
    }

    /// `−a mod q`.
    pub fn scalar_neg(&self, a: &Scalar) -> Scalar {
        if a.0.is_zero() {
            a.clone()
        } else {
            Scalar(self.order() - &a.0)
        }
    }

    /// `a^{-1} mod q`, or `None` for zero.
    pub fn scalar_inv(&self, a: &Scalar) -> Option<Scalar> {
        a.0.modinv(self.order()).map(Scalar)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Element, Group, GroupError, GroupKind, Scalar};
    use ppgr_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn debug_of_a_group_prints_its_generator_table_by_shape() {
        for kind in GroupKind::all() {
            // A handle of its own, so no other test has built its table.
            let g = Group {
                gen_table: Default::default(),
                ..kind.group()
            };
            let before = format!("{g:?}").len();
            g.exp_gen(&g.scalar_from_u64(3));
            let after = format!("{g:?}");
            assert!(after.contains("entries"), "{kind}: no table in {after}");
            assert!(
                after.len() < 2 * before,
                "{kind}: {before} B before the table, {} B after",
                after.len()
            );
        }
    }

    #[test]
    fn hop_scalars_debug_prints_neither_scalar() {
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(9);
            let x = g.random_nonzero_scalar(&mut rng);
            let mut prep = g.hop_scalars(1);
            prep.push(&g.random_nonzero_scalar(&mut rng));
            g.prepare_hop_scalars(&x, &mut prep);
            let dump = format!("{prep:?}");
            assert_eq!(dump, "HopScalars(<redacted>)", "{kind}");
            let (r, neg_xr) = prep.pair(0);
            for limbs in [r, neg_xr] {
                let scalar = Scalar(BigUint::from_limbs(limbs.to_vec()));
                assert!(!scalar.is_zero(), "{kind}");
                assert!(!dump.contains(&format!("{scalar:?}")), "{kind}: {dump}");
                assert!(!dump.contains(&scalar.to_string()), "{kind}: {dump}");
            }
        }
    }

    #[test]
    fn hop_sets_hold_two_order_widths_per_randomizer() {
        for (kind, width) in [
            (GroupKind::Ecc160, 3),
            (GroupKind::Ecc224, 4),
            (GroupKind::Ecc256, 4),
            (GroupKind::Dl1024, 16),
            (GroupKind::Dl2048, 32),
            (GroupKind::Dl3072, 48),
        ] {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(10);
            let x = g.random_nonzero_scalar(&mut rng);
            let top = Scalar(g.order() - &BigUint::one());
            let mut rs: Vec<Scalar> = (0..5).map(|_| g.random_nonzero_scalar(&mut rng)).collect();
            // The widest randomizer, and one whose product is `x` itself.
            rs.extend([top.clone(), Scalar(BigUint::one())]);
            let mut set = g.hop_scalars(rs.len());
            assert!(set.is_empty(), "{kind}");
            for r in &rs {
                set.push(r);
            }
            assert_eq!(set.len(), rs.len(), "{kind}");
            assert_eq!(set.heap_bytes(), rs.len() * 2 * width * 8, "{kind}");
            // A random share, then the widest one: a set prepared again
            // overwrites its `−x·r` limbs.
            for secret in [&x, &top] {
                g.prepare_hop_scalars(secret, &mut set);
                assert_eq!(set.heap_bytes(), rs.len() * 2 * width * 8, "{kind}");
                for (i, r) in rs.iter().enumerate() {
                    let (got_r, neg_xr) = set.pair(i);
                    let neg_xr = Scalar(BigUint::from_limbs(neg_xr.to_vec()));
                    assert_eq!(&BigUint::from_limbs(got_r.to_vec()), r.value(), "{kind}");
                    assert_eq!(neg_xr, g.scalar_neg(&g.scalar_mul(secret, r)), "{kind}");
                }
            }
        }
    }

    #[test]
    fn scalar_arithmetic_mod_q() {
        let g = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(1);
        let a = g.random_scalar(&mut rng);
        let b = g.random_scalar(&mut rng);
        let sum = g.scalar_add(&a, &b);
        assert_eq!(g.scalar_sub(&sum, &b), a);
        let prod = g.scalar_mul(&a, &b);
        let b_inv = g.scalar_inv(&b).unwrap();
        assert_eq!(g.scalar_mul(&prod, &b_inv), a);
        assert_eq!(g.scalar_add(&a, &g.scalar_neg(&a)), g.scalar_from_u64(0));
    }

    #[test]
    fn fixed_base_matches_generic_exp() {
        for kind in [GroupKind::Ecc160, GroupKind::Ecc256, GroupKind::Dl1024] {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..5 {
                let s = g.random_scalar(&mut rng);
                assert_eq!(
                    g.exp_gen(&s),
                    g.exp(g.generator(), &s),
                    "comb table disagrees with square-and-multiply on {kind}"
                );
            }
            // Edge scalars.
            assert!(g.is_identity(&g.exp_gen(&g.scalar_from_u64(0))));
            assert_eq!(g.exp_gen(&g.scalar_from_u64(1)), *g.generator());
        }
    }

    #[test]
    #[should_panic(expected = "family mismatch")]
    fn cross_family_op_panics() {
        let dl = GroupKind::Dl1024.group();
        let ec = GroupKind::Ecc160.group();
        let e = ec.generator().clone();
        let d = dl.generator().clone();
        let _ = dl.op(&d, &e);
    }

    #[test]
    fn try_ops_reject_cross_family_without_panicking() {
        let dl = GroupKind::Dl1024.group();
        let ec = GroupKind::Ecc160.group();
        let e = ec.generator().clone();
        let d = dl.generator().clone();
        let s = dl.scalar_from_u64(3);
        assert_eq!(
            dl.try_op(&d, &e),
            Err(GroupError::FamilyMismatch { operation: "op" })
        );
        assert_eq!(
            dl.try_exp(&e, &s),
            Err(GroupError::FamilyMismatch { operation: "exp" })
        );
        assert_eq!(
            dl.try_encode(&e),
            Err(GroupError::FamilyMismatch {
                operation: "encode"
            })
        );
        // The error's rendering is what the panicking wrappers print.
        let msg = GroupError::FamilyMismatch { operation: "op" }.to_string();
        assert!(msg.contains("element/group family mismatch"), "{msg}");
        // Matching families still succeed.
        assert!(dl.try_op(&d, &d).is_ok());
        assert!(ec.try_exp(&e, &ec.scalar_from_u64(5)).is_ok());
    }

    #[test]
    fn prepared_base_matches_generic_exp() {
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(33);
            let base = g.exp_gen(&g.random_scalar(&mut rng));
            let table = g.prepare_base(&base);
            assert_eq!(table.base(), &base);
            let scalars: Vec<_> = (0..4).map(|_| g.random_scalar(&mut rng)).collect();
            for s in &scalars {
                assert_eq!(g.exp_prepared(&table, s), g.exp(&base, s), "{kind}");
            }
            let batch = g.exp_prepared_batch(&table, &scalars);
            for (s, got) in scalars.iter().zip(&batch) {
                assert_eq!(got, &g.exp(&base, s), "{kind}");
            }
        }
    }

    #[test]
    fn inv_batch_matches_inv_on_every_group() {
        for kind in GroupKind::all() {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(46);
            let a = g.exp_gen(&g.random_nonzero_scalar(&mut rng));
            let b = g.exp_gen(&g.random_nonzero_scalar(&mut rng));
            let id = g.identity();
            assert!(g.inv_batch(&[]).is_empty(), "{kind}");
            let items = [&a, &b, &a, &id, &a];
            let batch = g.inv_batch(&items);
            assert_eq!(batch.len(), items.len(), "{kind}");
            for (item, got) in items.iter().zip(&batch) {
                assert_eq!(got, &g.inv(item), "{kind}");
                assert!(g.is_identity(&g.op(item, got)), "{kind}");
            }
        }
    }

    #[test]
    fn cross_family_batch_entries_panic_naming_their_operation() {
        for (own, other) in [
            (GroupKind::Dl1024, GroupKind::Ecc160),
            (GroupKind::Ecc160, GroupKind::Dl1024),
        ] {
            let (g, f) = (own.group(), other.group());
            let (a, x) = (g.generator(), f.generator());
            let s = g.scalar_from_u64(3);
            let mut set = g.hop_scalars(1);
            set.push(&s);
            let foreign_table = f.prepare_base(x);
            // Each entry gets one element (or table) of the other family,
            // in every position it takes one.
            let entries: [(&str, &dyn Fn()); 11] = [
                ("inv", &|| drop(g.inv(x))),
                ("inv_batch", &|| drop(g.inv_batch(&[a, x]))),
                ("exp_batch", &|| drop(g.exp_batch(&[(a, &s), (x, &s)]))),
                ("op_batch", &|| drop(g.op_batch(&[(a, a), (a, x)]))),
                ("op_batch", &|| drop(g.op_batch(&[(x, a)]))),
                ("op_scan", &|| drop(g.op_scan(&[a, x]))),
                ("exp_hop_prepared_batch", &|| {
                    drop(g.exp_hop_prepared_batch(&set, &[(x, 0, a)]))
                }),
                ("exp_hop_prepared_batch", &|| {
                    drop(g.exp_hop_prepared_batch(&set, &[(a, 0, x)]))
                }),
                ("prepare_base", &|| drop(g.prepare_base(x))),
                ("exp_prepared", &|| drop(g.exp_prepared(&foreign_table, &s))),
                ("exp_prepared_batch", &|| {
                    drop(g.exp_prepared_batch(&foreign_table, &[]))
                }),
            ];
            for (operation, entry) in entries {
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry))
                    .expect_err(operation);
                assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&GroupError::FamilyMismatch { operation }.to_string()),
                    "{own}"
                );
            }
        }
    }

    #[test]
    fn dl_products_match_plain_arithmetic() {
        let mut rng = StdRng::seed_from_u64(27);
        for kind in [GroupKind::Dl1024, GroupKind::Dl2048, GroupKind::Dl3072] {
            let g = kind.group();
            let q = g.order();
            let p = &(q + q) + &BigUint::one();
            let mut elems = vec![g.identity(), g.generator().clone()];
            elems.extend((0..6).map(|_| g.exp_gen(&g.random_nonzero_scalar(&mut rng))));
            let v = |e: &Element| match e {
                Element::Dl(v) => v.clone(),
                Element::Ec(_) => unreachable!(),
            };
            let pairs: Vec<(&Element, &Element)> = elems
                .iter()
                .flat_map(|a| elems.iter().map(move |b| (a, b)))
                .collect();
            let batch = g.op_batch(&pairs);
            for ((a, b), got) in pairs.iter().zip(&batch) {
                let want = &(&v(a) * &v(b)) % &p;
                assert_eq!(v(&g.op(a, b)), want, "{kind}");
                assert_eq!(v(got), want, "{kind}");
            }
            let items: Vec<&Element> = elems.iter().chain(elems.iter().rev()).collect();
            let mut prefix = BigUint::one();
            for (a, got) in items.iter().zip(g.op_scan(&items)) {
                prefix = &(&prefix * &v(a)) % &p;
                assert_eq!(v(&got), prefix, "{kind}");
            }
            assert!(g.op_scan(&[]).is_empty());
        }
    }

    #[test]
    fn exp_batch_apis_match_singles() {
        // Every exponentiation class against `exp`, on every group: small
        // scalars up to 2³² − 1, the edges of one 4-bit window, q − 1, the
        // unreduced q and q + 1, and random scalars, each over a random
        // base, the identity and the same base again.
        for kind in GroupKind::all() {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(44);
            let (q, one) = (g.order(), BigUint::one());
            let mut scalars: Vec<Scalar> = [0, 1, 2, 15, 16, u64::from(u32::MAX)]
                .into_iter()
                .map(|v| g.scalar_from_u64(v))
                .collect();
            scalars.extend([Scalar(q - &one), Scalar(q.clone()), Scalar(q + &one)]);
            scalars.extend((0..3).map(|_| g.random_scalar(&mut rng)));
            let a = g.exp_gen(&g.random_nonzero_scalar(&mut rng));
            let id = g.identity();
            // The reference itself, at the scalars whose powers are known.
            assert!(g.is_identity(&g.exp(&a, &scalars[0])), "{kind}");
            assert_eq!(g.exp(&a, &scalars[1]), a, "{kind}");
            assert_eq!(g.exp(&a, &scalars[6]), g.inv(&a), "{kind}");
            assert!(g.is_identity(&g.exp(&a, &scalars[7])), "{kind}");
            assert_eq!(g.exp(&a, &scalars[8]), a, "{kind}");

            let pairs: Vec<(&Element, &Scalar)> = [&a, &id, &a]
                .into_iter()
                .flat_map(|b| scalars.iter().map(move |s| (b, s)))
                .collect();
            let batch = g.exp_batch(&pairs);
            assert_eq!(batch.len(), pairs.len(), "{kind}");
            for (&(b, s), got) in pairs.iter().zip(&batch) {
                let want = g.exp(b, s);
                assert_eq!(got, &want, "{kind} exp_batch s={s:?}");
                assert_eq!(g.multi_exp(&[(b, s)]), want, "{kind} multi_exp s={s:?}");
            }

            let gen = g.generator();
            let table = g.prepare_base(gen);
            let gen_batch = g.exp_gen_batch(&scalars);
            let prepared_batch = g.exp_prepared_batch(&table, &scalars);
            for (i, s) in scalars.iter().enumerate() {
                let want = g.exp(gen, s);
                assert_eq!(g.exp_gen(s), want, "{kind} exp_gen s={s:?}");
                assert_eq!(gen_batch[i], want, "{kind} exp_gen_batch s={s:?}");
                assert_eq!(g.exp_prepared(&table, s), want, "{kind} prepared s={s:?}");
                assert_eq!(prepared_batch[i], want, "{kind} prepared batch s={s:?}");
            }
        }
    }

    #[test]
    fn fused_batch_apis_match_compositions() {
        for kind in GroupKind::all() {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(45);
            let a = g.exp_gen(&g.random_scalar(&mut rng));
            let b = g.exp_gen(&g.random_scalar(&mut rng));
            let id = g.identity();
            let s = g.random_scalar(&mut rng);
            let x = g.random_scalar(&mut rng);
            let zero = g.scalar_from_u64(0);

            let ops = g.op_batch(&[(&a, &b), (&a, &id), (&id, &id)]);
            assert_eq!(ops[0], g.op(&a, &b));
            assert_eq!(ops[1], a);
            assert!(g.is_identity(&ops[2]));

            // Every degenerate hop shape through the prepared kernel: the
            // normal case, a zero randomizer, a zero secret (so `−x·r` is
            // zero too), an identity `α` and an identity `β`. A set is
            // prepared under one secret, so each shape gets its own set,
            // and the shapes under `x` also share one set and one batch.
            let shapes = [
                (&a, &x, &s, &b),
                (&a, &x, &zero, &b),
                (&a, &zero, &s, &b),
                (&id, &x, &s, &b),
                (&a, &x, &s, &id),
            ];
            let expect = |(alpha, secret, r, beta): &(&Element, &Scalar, &Scalar, &Element)| {
                let neg_xr = g.scalar_neg(&g.scalar_mul(secret, r));
                (
                    g.op(&g.exp(alpha, r), &g.exp(beta, &neg_xr)),
                    g.exp(beta, r),
                )
            };
            for shape in &shapes {
                let (alpha, secret, r, beta) = *shape;
                let mut set = g.hop_scalars(1);
                set.push(r);
                g.prepare_hop_scalars(secret, &mut set);
                let hops = g.exp_hop_prepared_batch(&set, &[(alpha, 0, beta)]);
                assert_eq!(hops, [expect(shape)], "{kind:?}");
            }
            let under_x: Vec<_> = shapes.iter().filter(|(_, k, _, _)| *k == &x).collect();
            let mut set = g.hop_scalars(under_x.len());
            for (_, _, r, _) in &under_x {
                set.push(r);
            }
            g.prepare_hop_scalars(&x, &mut set);
            let items: Vec<(&Element, usize, &Element)> = under_x
                .iter()
                .enumerate()
                .map(|(i, (alpha, _, _, beta))| (*alpha, i, *beta))
                .collect();
            let hops = g.exp_hop_prepared_batch(&set, &items);
            let want: Vec<_> = under_x.iter().map(|shape| expect(shape)).collect();
            assert_eq!(hops, want, "{kind:?}");
        }
    }
}
