//! Standard and exponential ElGamal ciphertexts and their homomorphic ops.

use ppgr_bigint::Secret;
use ppgr_group::{Element, FixedBaseTable, Group, HopScalars, Scalar};
use rand::Rng;
use std::borrow::Cow;
use std::fmt;

/// An ElGamal ciphertext `(α, β)`.
///
/// * standard form: `α = M·y^r`, `β = g^r`
/// * exponential form: `α = g^m·y^r`, `β = g^r`
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Ciphertext {
    /// First component (`M·y^r` or `g^m·y^r`).
    pub alpha: Element,
    /// Second component (`g^r`).
    pub beta: Element,
}

impl Ciphertext {
    /// Total encoded size in bytes (two group elements).
    pub fn encoded_len(group: &Group) -> usize {
        2 * group.element_len()
    }

    /// Fixed-length wire encoding (`encode(α) || encode(β)`).
    pub fn encode(&self, group: &Group) -> Vec<u8> {
        let mut out = group.encode(&self.alpha);
        out.extend_from_slice(&group.encode(&self.beta));
        out
    }
}

/// A precomputed encryption mask `(r, g^r, y^r)` for the offline/online
/// phase split.
///
/// Neither half of an encryption or re-randomization mask depends on the
/// message, so both can be computed before the session's inputs exist,
/// once the joint key `y` is known. [`MaskPair::draw`] only draws the
/// scalars; [`MaskPair::fill`] then computes both halves in batches — a
/// pool that mints keys offline fills every mask, leaving the online
/// consumer nothing but group multiplications. A bare mask works too: the
/// consuming APIs fill it through the prepared key table.
///
/// A mask is strictly single-use — re-using `r` across two ciphertexts
/// gives them identical `β` components, visibly linking them — so
/// consuming APIs take it by value.
pub struct MaskPair {
    r: Secret<Scalar>,
    /// `(y^r, g^r)`, once filled.
    halves: Option<(Element, Element)>,
}

impl MaskPair {
    /// Draws a row of `count` fresh masks, one scalar each, in row order;
    /// nothing is exponentiated until [`MaskPair::fill`].
    ///
    /// Each mask takes exactly one scalar from `rng` — the same single
    /// draw the inline encryption paths perform — so a precomputed
    /// encryption fed from the same randomness stream is bit-identical to
    /// an inline one. Drawing first and exponentiating later lets a caller
    /// keep the stream serial while the exponentiations are split across
    /// workers.
    pub fn draw<R: Rng + ?Sized>(group: &Group, rng: &mut R, count: usize) -> Vec<MaskPair> {
        (0..count)
            .map(|_| MaskPair {
                r: Secret::new(group.random_scalar(rng)),
                halves: None,
            })
            .collect()
    }

    /// The fixed-base component `g^r` (a ciphertext's `β`), once filled.
    pub fn g_r(&self) -> Option<&Element> {
        self.halves.as_ref().map(|(_, g_r)| g_r)
    }

    /// The key-dependent component `y^r`, once filled.
    pub fn y_r(&self) -> Option<&Element> {
        self.halves.as_ref().map(|(y_r, _)| y_r)
    }

    /// Fills every bare mask in `pairs`: all their `g^r` in one fixed-base
    /// batch and all their `y^r` in one batch through the prepared table
    /// for `y` (elliptic-curve results of a batch share a single field
    /// inversion). Filled masks are left untouched, so the call is
    /// idempotent, and filling a row in pieces gives the same masks as
    /// filling it whole.
    pub fn fill(group: &Group, key_table: &FixedBaseTable, pairs: &mut [MaskPair]) {
        let bare: Vec<usize> = (0..pairs.len())
            .filter(|&i| pairs[i].halves.is_none())
            .collect();
        if bare.is_empty() {
            return;
        }
        // tidy:allow(secret-escape) — the cloned nonce batch feeds the batched exponentiations below and drops at end of call; the pooled originals stay Secret-wrapped
        let rs: Vec<Scalar> = bare.iter().map(|&i| pairs[i].r.expose().clone()).collect();
        let y_rs = group.exp_prepared_batch(key_table, &rs);
        let g_rs = group.exp_gen_batch(&rs);
        for ((&i, y_r), g_r) in bare.iter().zip(y_rs).zip(g_rs) {
            pairs[i].halves = Some((y_r, g_r));
        }
    }

    #[cfg(test)]
    pub(crate) fn scalar(&self) -> &Scalar {
        self.r.expose()
    }

    /// Consumes the mask into its `(y^r, g^r)` halves, computing them on
    /// the spot if the mask is still bare.
    pub(crate) fn into_halves(
        self,
        group: &Group,
        key_table: &FixedBaseTable,
    ) -> (Element, Element) {
        let MaskPair { r, halves } = self;
        halves.unwrap_or_else(|| {
            (
                group.exp_prepared(key_table, r.expose()),
                group.exp_gen(r.expose()),
            )
        })
    }
}

/// The input indices a gather visits, in output order: `order` itself, or
/// every index of `cts` when `None`. Callers index `cts` with them, so an
/// out-of-range index panics there.
fn gather<'a>(cts: &[Ciphertext], order: Option<&'a [usize]>) -> Cow<'a, [usize]> {
    order.map_or_else(|| Cow::Owned((0..cts.len()).collect()), Cow::Borrowed)
}

impl fmt::Debug for MaskPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaskPair")
            .field("r", &self.r)
            .field("halves", &self.halves)
            .finish()
    }
}

/// Standard (multiplicatively homomorphic) ElGamal over `group`.
#[derive(Clone, Debug)]
pub struct ElGamal {
    group: Group,
}

impl ElGamal {
    /// Creates the scheme over the given group.
    pub fn new(group: Group) -> Self {
        ElGamal { group }
    }

    /// Encrypts a group element `M` under public key `y`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        public_key: &Element,
        message: &Element,
        rng: &mut R,
    ) -> Ciphertext {
        let r = self.group.random_scalar(rng);
        Ciphertext {
            alpha: self.group.op(message, &self.group.exp(public_key, &r)),
            beta: self.group.exp_gen(&r),
        }
    }

    /// Decrypts: `M = α / β^x`.
    pub fn decrypt(&self, secret_key: &Scalar, ct: &Ciphertext) -> Element {
        let mask = self.group.exp(&ct.beta, secret_key);
        self.group.div(&ct.alpha, &mask)
    }
}

/// Exponential ("modified", paper Sec. IV-D) ElGamal: additively
/// homomorphic in the exponent. Decryption yields `g^m`; the framework only
/// ever needs the `m = 0` test ([`ExpElGamal::decrypts_to_zero`]).
#[derive(Clone, Debug)]
pub struct ExpElGamal {
    group: Group,
}

impl ExpElGamal {
    /// Creates the scheme over the given group.
    pub fn new(group: Group) -> Self {
        ExpElGamal { group }
    }

    /// The underlying group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Encrypts the scalar message `m` as `(g^m·y^r, g^r)`.
    ///
    /// The one-ciphertext reference form: protocol parties encrypt through
    /// [`crate::encrypt_bits_with_precomputed`], which tests pin to this
    /// for the same randomness stream.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        public_key: &Element,
        m: &Scalar,
        rng: &mut R,
    ) -> Ciphertext {
        let r = self.group.random_scalar(rng);
        self.encrypt_with_randomness(public_key, m, &r)
    }

    /// Encryption with caller-chosen randomness (used by tests and the
    /// security-game simulator, never by honest protocol parties).
    pub fn encrypt_with_randomness(
        &self,
        public_key: &Element,
        m: &Scalar,
        r: &Scalar,
    ) -> Ciphertext {
        Ciphertext {
            alpha: self
                .group
                .op(&self.group.exp_gen(m), &self.group.exp(public_key, r)),
            beta: self.group.exp_gen(r),
        }
    }

    /// Builds a fixed-base exponentiation table for a public key, owned by
    /// the caller (see [`Group::prepare_base`]).
    ///
    /// Every encryption and re-randomization under key `y` computes `y^r`;
    /// with a prepared table that costs about a quarter of a generic
    /// exponentiation. The build cost amortizes after a few uses, so
    /// prepare long-lived keys (the joint key of a protocol run) once and
    /// keep the table, not one-shot ones.
    pub fn prepare_key(&self, public_key: &Element) -> FixedBaseTable {
        self.group.prepare_base(public_key)
    }

    /// Homomorphic addition: `E(m₁) ∘ E(m₂) = E(m₁+m₂)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext {
            alpha: self.group.op(&a.alpha, &b.alpha),
            beta: self.group.op(&a.beta, &b.beta),
        }
    }

    /// Homomorphic subtraction: `E(m₁−m₂)`.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext {
            alpha: self.group.div(&a.alpha, &b.alpha),
            beta: self.group.div(&a.beta, &b.beta),
        }
    }

    /// Homomorphic negation: `E(−m)`.
    pub fn neg(&self, a: &Ciphertext) -> Ciphertext {
        Ciphertext {
            alpha: self.group.inv(&a.alpha),
            beta: self.group.inv(&a.beta),
        }
    }

    /// Plaintext-scalar multiplication: `E(k·m)` from `E(m)`.
    pub fn scalar_mul(&self, a: &Ciphertext, k: &Scalar) -> Ciphertext {
        Ciphertext {
            alpha: self.group.exp(&a.alpha, k),
            beta: self.group.exp(&a.beta, k),
        }
    }

    /// Adds a *known* plaintext without re-encrypting: `E(m) → E(m+k)`.
    pub fn add_plaintext(&self, a: &Ciphertext, k: &Scalar) -> Ciphertext {
        Ciphertext {
            alpha: self.group.op(&a.alpha, &self.group.exp_gen(k)),
            beta: a.beta.clone(),
        }
    }

    /// Fresh re-randomization under `y`: same plaintext, new randomness.
    ///
    /// The one-ciphertext reference form of
    /// [`ExpElGamal::rerandomize_batch_with_precomputed`], which tests pin
    /// to this for the same randomness stream.
    pub fn rerandomize<R: Rng + ?Sized>(
        &self,
        public_key: &Element,
        a: &Ciphertext,
        rng: &mut R,
    ) -> Ciphertext {
        let r = self.group.random_scalar(rng);
        Ciphertext {
            alpha: self.group.op(&a.alpha, &self.group.exp(public_key, &r)),
            beta: self.group.op(&a.beta, &self.group.exp_gen(&r)),
        }
    }

    /// Re-randomizes a ciphertext set with single-use masks: `pres[i]`
    /// re-randomizes `cts[i]` as `(α·y^r, β·g^r)`. Bare masks are filled
    /// first ([`MaskPair::fill`]), so masks minted offline reduce the whole
    /// call to `2·n` group multiplications, which share one affine
    /// conversion.
    ///
    /// Masks drawn from the stream position [`ExpElGamal::rerandomize`]
    /// would have used give bit-identical ciphertexts, whether they arrive
    /// bare or filled.
    ///
    /// # Panics
    ///
    /// Panics if `cts` and `pres` have different lengths.
    pub fn rerandomize_batch_with_precomputed(
        &self,
        key_table: &FixedBaseTable,
        cts: &[Ciphertext],
        mut pres: Vec<MaskPair>,
    ) -> Vec<Ciphertext> {
        // Hoisted so the assert formats only the (public) count, never
        // the mask vector itself.
        let mask_count = pres.len();
        assert_eq!(cts.len(), mask_count, "one mask per ciphertext");
        MaskPair::fill(&self.group, key_table, &mut pres);
        let parts: Vec<(Element, Element)> = pres
            .into_iter()
            .map(|pre| pre.into_halves(&self.group, key_table))
            .collect();
        // One batched multiply for all 2·n component products: on the EC
        // family that is one shared affine conversion instead of a field
        // inversion per component.
        let pairs: Vec<(&Element, &Element)> = cts
            .iter()
            .zip(&parts)
            .flat_map(|(ct, (mask, gr))| [(&ct.alpha, mask), (&ct.beta, gr)])
            .collect();
        let mut prods = self.group.op_batch(&pairs).into_iter();
        let mut out = Vec::with_capacity(cts.len());
        // `op_batch` returns exactly one element per input pair, and two
        // pairs were pushed per ciphertext, so the iterator yields pairs
        // until it is exhausted.
        while let (Some(alpha), Some(beta)) = (prods.next(), prods.next()) {
            out.push(Ciphertext { alpha, beta });
        }
        out
    }

    /// Strips one layer of a joint-key encryption: `α ← α / β^{x_j}`.
    ///
    /// After every key-share holder has applied this, `α = g^m`
    /// (paper Fig. 1, step 8, first bullet). The one-ciphertext reference
    /// form of [`ExpElGamal::partial_decrypt_gather_into`].
    pub fn partial_decrypt(&self, a: &Ciphertext, secret_share: &Scalar) -> Ciphertext {
        let mask = self.group.exp(&a.beta, secret_share);
        Ciphertext {
            alpha: self.group.div(&a.alpha, &mask),
            beta: a.beta.clone(),
        }
    }

    /// Gathered batch [`ExpElGamal::partial_decrypt`]: writes
    /// `out[j] = partial_decrypt(cts[order[j]])` into the caller's reusable
    /// buffer. `order` may select any subset of the indices in any order
    /// (`out.len() == order.len()`), so a caller can fuse the chain hop's
    /// shuffle into the output placement and split one set across workers;
    /// `None` takes every ciphertext in input order.
    ///
    /// The whole call shares one exponent: every new `α` is computed as
    /// `α·β^{q−x_j}` through [`Group::exp_same_mul_batch`], so the key
    /// share's digit recoding is done once per call (not once per
    /// ciphertext), the multiply by `α` is fused into the batched ladder
    /// (no per-ciphertext affine addition, hence no per-ciphertext field
    /// inversion on the EC family), and the DL family drops the division
    /// (a Fermat inversion) entirely — `α·β^{−x}` and `α/β^{x}` are the
    /// same group element.
    ///
    /// # Panics
    ///
    /// Panics if an index in `order` is out of range for `cts`.
    pub fn partial_decrypt_gather_into(
        &self,
        cts: &[Ciphertext],
        secret_share: &Scalar,
        order: Option<&[usize]>,
        out: &mut Vec<Ciphertext>,
    ) {
        let neg_share = self.group.scalar_neg(secret_share);
        let picked = gather(cts, order);
        let alphas: Vec<&Element> = picked.iter().map(|&i| &cts[i].alpha).collect();
        let betas: Vec<&Element> = picked.iter().map(|&i| &cts[i].beta).collect();
        let new_alphas = self.group.exp_same_mul_batch(&alphas, &betas, &neg_share);
        out.clear();
        out.reserve(picked.len());
        out.extend(
            new_alphas
                .into_iter()
                .zip(picked.iter())
                .map(|(alpha, &i)| Ciphertext {
                    alpha,
                    beta: cts[i].beta.clone(),
                }),
        );
    }

    /// Multiplies the plaintext by `r` by raising both components:
    /// `E(m) → E(r·m)`. Zero is a fixed point — the step-8 randomization.
    /// Composed after [`ExpElGamal::partial_decrypt`], it is the
    /// one-ciphertext reference for
    /// [`ExpElGamal::partial_decrypt_randomize_prepared_gather_into`].
    pub fn randomize_plaintext(&self, a: &Ciphertext, r: &Scalar) -> Ciphertext {
        self.scalar_mul(a, r)
    }

    /// One shuffle-chain hop (paper Fig. 1 step 8) over a ciphertext set:
    /// `out[j]` is `randomize_plaintext(partial_decrypt(cts[i], x), r_i)`
    /// for `i = order[j]`, where `prep[i]` was built from the hop owner's
    /// secret share `x` and the randomizer `r_i` by
    /// [`Group::prepare_hop_scalars`]. `order` may select any subset of the
    /// indices in any order (`out.len() == order.len()`); `None` takes
    /// every ciphertext in input order.
    ///
    /// Each result is `(α^r·β^{−x·r}, β^r)` from one fused kernel call:
    /// the double exponentiation shares one ladder, so a hop costs ≈ 1.7
    /// exponentiations instead of the 3 of the composition, and the
    /// `−x·r` products and curve-side recodings were paid when the
    /// preparation was built. The shuffle is fused into the *placement* of
    /// each result, so the caller never materializes the un-shuffled set,
    /// and `out`'s capacity is reused across hops. Results are
    /// element-for-element identical to the composition.
    ///
    /// # Panics
    ///
    /// Panics if `prep` is not the same length as `cts`, or an index in
    /// `order` is out of range.
    pub fn partial_decrypt_randomize_prepared_gather_into(
        &self,
        cts: &[Ciphertext],
        prep: &[HopScalars],
        order: Option<&[usize]>,
        out: &mut Vec<Ciphertext>,
    ) {
        assert_eq!(cts.len(), prep.len(), "one preparation per ciphertext");
        let picked = gather(cts, order);
        let items: Vec<(&Element, &HopScalars, &Element)> = picked
            .iter()
            .map(|&i| (&cts[i].alpha, &prep[i], &cts[i].beta))
            .collect();
        out.clear();
        out.reserve(picked.len());
        out.extend(
            self.group
                .exp_hop_prepared_batch(&items)
                .into_iter()
                .map(|(alpha, beta)| Ciphertext { alpha, beta }),
        );
    }

    /// Full decryption to the group element `g^m`.
    pub fn decrypt_to_element(&self, secret_key: &Scalar, ct: &Ciphertext) -> Element {
        let mask = self.group.exp(&ct.beta, secret_key);
        self.group.div(&ct.alpha, &mask)
    }

    /// Decrypts and tests `m = 0` (i.e. `g^m = 1`) — all the framework needs.
    pub fn decrypts_to_zero(&self, secret_key: &Scalar, ct: &Ciphertext) -> bool {
        self.group
            .is_identity(&self.decrypt_to_element(secret_key, ct))
    }

    /// Brute-force discrete log for *small* plaintexts (test helper).
    ///
    /// Tries `m = 0..bound` and returns the match, if any. Honest protocol
    /// code never needs this; tests use it to verify homomorphic algebra.
    pub fn decrypt_small(&self, secret_key: &Scalar, ct: &Ciphertext, bound: u64) -> Option<u64> {
        let gm = self.decrypt_to_element(secret_key, ct);
        let mut acc = self.group.identity();
        let g = self.group.generator().clone();
        for m in 0..bound {
            // tidy:allow(secret-branch) — test-only brute-force DL helper; never called by protocol parties (see doc above)
            if acc == gm {
                return Some(m);
            }
            acc = self.group.op(&acc, &g);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{JointKey, KeyPair};
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ExpElGamal, KeyPair, StdRng) {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(42);
        let kp = KeyPair::generate(&group, &mut rng);
        (ExpElGamal::new(group), kp, rng)
    }

    #[test]
    fn standard_elgamal_round_trip() {
        let group = GroupKind::Dl1024.group();
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ElGamal::new(group.clone());
        let msg = group.exp_gen(&group.scalar_from_u64(777));
        let ct = scheme.encrypt(kp.public_key(), &msg, &mut rng);
        assert_eq!(scheme.decrypt(kp.secret_key(), &ct), msg);
    }

    #[test]
    fn exp_elgamal_zero_test() {
        let (scheme, kp, mut rng) = setup();
        let g = scheme.group().clone();
        let zero = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(0), &mut rng);
        let one = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(1), &mut rng);
        assert!(scheme.decrypts_to_zero(kp.secret_key(), &zero));
        assert!(!scheme.decrypts_to_zero(kp.secret_key(), &one));
    }

    #[test]
    fn homomorphic_algebra() {
        let (scheme, kp, mut rng) = setup();
        let g = scheme.group().clone();
        let e5 = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(5), &mut rng);
        let e3 = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(3), &mut rng);

        let sum = scheme.add(&e5, &e3);
        assert_eq!(scheme.decrypt_small(kp.secret_key(), &sum, 100), Some(8));

        let diff = scheme.sub(&e5, &e3);
        assert_eq!(scheme.decrypt_small(kp.secret_key(), &diff, 100), Some(2));

        let scaled = scheme.scalar_mul(&e5, &g.scalar_from_u64(7));
        assert_eq!(
            scheme.decrypt_small(kp.secret_key(), &scaled, 100),
            Some(35)
        );

        let shifted = scheme.add_plaintext(&e3, &g.scalar_from_u64(10));
        assert_eq!(
            scheme.decrypt_small(kp.secret_key(), &shifted, 100),
            Some(13)
        );

        // 5 - 5 = 0 via neg.
        let zero = scheme.add(&e5, &scheme.neg(&e5));
        assert!(scheme.decrypts_to_zero(kp.secret_key(), &zero));
    }

    #[test]
    fn rerandomization_changes_ciphertext_not_plaintext() {
        let (scheme, kp, mut rng) = setup();
        let g = scheme.group().clone();
        let ct = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(9), &mut rng);
        let ct2 = scheme.rerandomize(kp.public_key(), &ct, &mut rng);
        assert_ne!(ct, ct2);
        assert_eq!(scheme.decrypt_small(kp.secret_key(), &ct2, 100), Some(9));
    }

    #[test]
    fn plaintext_randomization_fixes_zero_only() {
        let (scheme, kp, mut rng) = setup();
        let g = scheme.group().clone();
        let r = g.random_nonzero_scalar(&mut rng);

        let zero = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(0), &mut rng);
        let z = scheme.randomize_plaintext(&zero, &r);
        assert!(scheme.decrypts_to_zero(kp.secret_key(), &z));

        let five = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(5), &mut rng);
        let f = scheme.randomize_plaintext(&five, &r);
        assert!(!scheme.decrypts_to_zero(kp.secret_key(), &f));
        // And the non-zero plaintext is no longer 5·anything recognisable:
        // it became 5r, a essentially-random scalar.
        assert_ne!(scheme.decrypt_small(kp.secret_key(), &f, 1000), Some(5));
    }

    #[test]
    fn joint_key_chain_decryption() {
        // n parties; encrypt under Πy_j; strip layers one by one.
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(3);
        let scheme = ExpElGamal::new(group.clone());
        let kps: Vec<KeyPair> = (0..6)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        let shares: Vec<_> = kps.iter().map(|k| k.public_key().clone()).collect();
        let joint = JointKey::combine(&group, &shares);

        let ct = scheme.encrypt(joint.public_key(), &group.scalar_from_u64(0), &mut rng);
        let ct_nz = scheme.encrypt(joint.public_key(), &group.scalar_from_u64(4), &mut rng);

        // First n-1 parties partially decrypt; the last does the final test.
        let mut c0 = ct;
        let mut c4 = ct_nz;
        for kp in &kps[..5] {
            c0 = scheme.partial_decrypt(&c0, kp.secret_key());
            c4 = scheme.partial_decrypt(&c4, kp.secret_key());
        }
        assert!(scheme.decrypts_to_zero(kps[5].secret_key(), &c0));
        assert!(!scheme.decrypts_to_zero(kps[5].secret_key(), &c4));
    }

    #[test]
    fn chain_with_randomization_preserves_zero_pattern() {
        // Full step-8 pipeline on one ciphertext pair.
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(4);
        let scheme = ExpElGamal::new(group.clone());
        let kps: Vec<KeyPair> = (0..4)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        let shares: Vec<_> = kps.iter().map(|k| k.public_key().clone()).collect();
        let joint = JointKey::combine(&group, &shares);

        let mut zero = scheme.encrypt(joint.public_key(), &group.scalar_from_u64(0), &mut rng);
        let mut five = scheme.encrypt(joint.public_key(), &group.scalar_from_u64(5), &mut rng);
        for kp in &kps[..3] {
            let r = group.random_nonzero_scalar(&mut rng);
            zero = scheme.randomize_plaintext(&scheme.partial_decrypt(&zero, kp.secret_key()), &r);
            let r = group.random_nonzero_scalar(&mut rng);
            five = scheme.randomize_plaintext(&scheme.partial_decrypt(&five, kp.secret_key()), &r);
        }
        assert!(scheme.decrypts_to_zero(kps[3].secret_key(), &zero));
        assert!(!scheme.decrypts_to_zero(kps[3].secret_key(), &five));
    }

    #[test]
    fn prepared_hop_identical_to_composed_hop() {
        // The fused chain hop must be element-for-element identical to
        // partial_decrypt followed by randomize_plaintext: the mesh runner
        // and the sorting machine both hop through it, and their byte
        // tests rest on this equality.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let mut rng = StdRng::seed_from_u64(7);
            let kp = KeyPair::generate(&group, &mut rng);
            let scheme = ExpElGamal::new(group.clone());
            let cts: Vec<Ciphertext> = (0..4)
                .map(|m| scheme.encrypt(kp.public_key(), &group.scalar_from_u64(m), &mut rng))
                .collect();
            let rs: Vec<_> = (0..4)
                .map(|_| group.random_nonzero_scalar(&mut rng))
                .collect();
            let composed: Vec<Ciphertext> = cts
                .iter()
                .zip(&rs)
                .map(|(ct, r)| {
                    scheme.randomize_plaintext(&scheme.partial_decrypt(ct, kp.secret_key()), r)
                })
                .collect();
            let prep = group.prepare_hop_scalars(kp.secret_key(), &rs);
            let mut out = Vec::new();
            scheme.partial_decrypt_randomize_prepared_gather_into(&cts, &prep, None, &mut out);
            assert_eq!(out, composed, "{kind} prepared hop");
        }
    }

    #[test]
    fn gathered_hop_equals_composition_then_permute() {
        // The shuffle is fused into result placement: computing each hop
        // directly into its shuffled slot, for the whole permutation or
        // any slice of it, must give exactly the composed ciphertexts in
        // permuted order.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let mut rng = StdRng::seed_from_u64(11);
            let kp = KeyPair::generate(&group, &mut rng);
            let scheme = ExpElGamal::new(group.clone());
            let cts: Vec<Ciphertext> = (0..5)
                .map(|m| scheme.encrypt(kp.public_key(), &group.scalar_from_u64(m), &mut rng))
                .collect();
            let rs: Vec<_> = (0..5)
                .map(|_| group.random_nonzero_scalar(&mut rng))
                .collect();
            let perm = [3usize, 0, 4, 1, 2];
            let permuted: Vec<Ciphertext> = perm
                .iter()
                .map(|&i| {
                    let stripped = scheme.partial_decrypt(&cts[i], kp.secret_key());
                    scheme.randomize_plaintext(&stripped, &rs[i])
                })
                .collect();
            let prep = group.prepare_hop_scalars(kp.secret_key(), &rs);
            let mut out = Vec::new();
            scheme.partial_decrypt_randomize_prepared_gather_into(
                &cts,
                &prep,
                Some(&perm),
                &mut out,
            );
            assert_eq!(out, permuted, "{kind} gathered hop");

            // And the unrandomized gather matches partial_decrypt.
            let singles: Vec<Ciphertext> = perm
                .iter()
                .map(|&i| scheme.partial_decrypt(&cts[i], kp.secret_key()))
                .collect();
            let mut plain = Vec::new();
            scheme.partial_decrypt_gather_into(&cts, kp.secret_key(), Some(&perm), &mut plain);
            assert_eq!(plain, singles, "{kind} unrandomized gather");

            // A slice of the permutation selects a subset: the matching
            // slice of the full gather, for both gather entry points. The
            // buffers are reused, so each call must replace their contents.
            for (a, b) in [(0, 2), (2, 5), (1, 4), (3, 3)] {
                let part = Some(&perm[a..b]);
                scheme.partial_decrypt_randomize_prepared_gather_into(&cts, &prep, part, &mut out);
                assert_eq!(out, permuted[a..b], "{kind} prepared gather {a}..{b}");
                scheme.partial_decrypt_gather_into(&cts, kp.secret_key(), part, &mut plain);
                assert_eq!(plain, singles[a..b], "{kind} plain gather {a}..{b}");
            }
        }
    }

    #[test]
    fn a_row_filled_in_pieces_equals_one_filled_whole() {
        // The offline mint draws a row serially and fills it range by
        // range across workers; that must give the masks a single batch
        // over the row gives, and the row's draws must be the per-mask
        // draws in order.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let g = kind.group();
            let mut rng = StdRng::seed_from_u64(3);
            let kp = KeyPair::generate(&g, &mut rng);
            let table = ExpElGamal::new(g.clone()).prepare_key(kp.public_key());
            let mut whole = MaskPair::draw(&g, &mut StdRng::seed_from_u64(8), 7);
            let mut singles: Vec<MaskPair> = {
                let mut rng = StdRng::seed_from_u64(8);
                (0..7)
                    .flat_map(|_| MaskPair::draw(&g, &mut rng, 1))
                    .collect()
            };
            MaskPair::fill(&g, &table, &mut whole);
            let (head, tail) = singles.split_at_mut(3);
            MaskPair::fill(&g, &table, head);
            MaskPair::fill(&g, &table, tail);
            MaskPair::fill(&g, &table, tail);
            for (a, b) in whole.iter().zip(&singles) {
                assert_eq!(a.scalar(), b.scalar(), "{kind}");
                assert_eq!(a.g_r(), Some(&g.exp_gen(a.scalar())), "{kind}");
                assert_eq!(a.g_r(), b.g_r(), "{kind}");
                assert!(a.y_r().is_some(), "{kind}");
                assert_eq!(a.y_r(), b.y_r(), "{kind}");
            }
        }
    }

    #[test]
    fn batch_rerandomization_matches_scalar_rerandomize() {
        // Same stream position → same bytes, whether a mask arrives bare
        // or filled offline.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let mut rng = StdRng::seed_from_u64(42);
            let kp = KeyPair::generate(&group, &mut rng);
            let scheme = ExpElGamal::new(group.clone());
            let table = scheme.prepare_key(kp.public_key());
            let cts: Vec<Ciphertext> = (0..4)
                .map(|m| scheme.encrypt(kp.public_key(), &group.scalar_from_u64(m), &mut rng))
                .collect();
            let mut rng_a = StdRng::seed_from_u64(91);
            let singles: Vec<Ciphertext> = cts
                .iter()
                .map(|ct| scheme.rerandomize(kp.public_key(), ct, &mut rng_a))
                .collect();
            for fill in [false, true] {
                let mut pres = MaskPair::draw(&group, &mut StdRng::seed_from_u64(91), 4);
                if fill {
                    MaskPair::fill(&group, &table, &mut pres);
                }
                let batch = scheme.rerandomize_batch_with_precomputed(&table, &cts, pres);
                assert_eq!(batch, singles, "{kind}");
            }
            for (m, ct) in singles.iter().enumerate() {
                assert_ne!(ct, &cts[m], "{kind}");
                assert_eq!(
                    scheme.decrypt_small(kp.secret_key(), ct, 100),
                    Some(m as u64),
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn mask_pair_debug_redacts_scalar() {
        let (scheme, _kp, mut rng) = setup();
        let g = scheme.group().clone();
        let pre = MaskPair::draw(&g, &mut rng, 1).remove(0);
        let digits = pre.scalar().to_string();
        let dump = format!("{:?}", pre);
        assert!(dump.contains("Secret(<redacted>)"), "got: {dump}");
        assert!(
            !dump.contains(&digits),
            "mask scalar leaked through Debug: {dump}"
        );
    }

    #[test]
    fn ciphertext_encoding_length() {
        let (scheme, kp, mut rng) = setup();
        let g = scheme.group().clone();
        let ct = scheme.encrypt(kp.public_key(), &g.scalar_from_u64(1), &mut rng);
        let enc = ct.encode(&g);
        assert_eq!(enc.len(), Ciphertext::encoded_len(&g));
        assert_eq!(enc.len(), 42); // 2 × (1 + 20) bytes on secp160r1
    }
}
