//! Offline/online phase split — the deterministic precompute stock.
//!
//! The sorting protocol's online latency is dominated by exponentiations,
//! and almost none of them depend on anything another party *sends*: the
//! distributed key shares are party randomness (paper Sec. IV — the joint
//! ElGamal key is minted before any preference is encrypted), the proof of
//! key knowledge is honest-verifier (so its challenge shares are just more
//! pool randomness), and every encryption/rerandomization mask `(g^r, y^r)`
//! follows from the key. What is irreducibly online is the variable-base
//! work on other parties' ciphertexts: partial decryptions `β^{-x}` and the
//! per-hop plaintext randomizers applied to foreign τ sets.
//!
//! [`OfflineStock`] is one session's worth of precomputed material. Its
//! shape is a pure function of `(n, l)` — hop randomizers are generated
//! even when a run disables randomization — so a precompute pool can stock
//! sessions knowing only their parameters, not their options or inputs.
//! A stock comes in two tiers built from **one canonical scalar stream**:
//!
//! * **masks tier** ([`generate_masks_only`](OfflineStock::generate_masks_only)):
//!   key-independent work only — key-share seeds, Schnorr nonces and
//!   challenge shares, the fixed-base `g^r` half of every mask, and the
//!   prepared hop scalars (which need each hop owner's secret seed, not
//!   her public key). Keygen, the joint-key table and the `y^r` halves
//!   stay online.
//! * **keygen tier** ([`generate`](OfflineStock::generate)): the masks tier
//!   plus minted [`KeyPair`]s, assembled key-knowledge proofs, the combined
//!   [`JointKey`] with its prepared comb table, and the `y^r` half of every
//!   mask. The online keygen round reduces to exchanging shares; the
//!   session checks the proofs once, online
//!   ([`KeygenVerifyJob`](crate::sorting::KeygenVerifyJob)).
//!
//! The tiers draw *identical* scalars at *identical* stream positions —
//! they differ only in how much exponentiation is done ahead of time — so
//! cold, masks-warm and keygen-warm sessions are bit-identical, transcript
//! and ranks alike.
//!
//! Determinism: a stock for a session seeded `s` is drawn from
//! `HashDrbg::seed_from_u64(s).fork(b"offline")` — a stream disjoint from
//! the session's `b"protocol"` fork — so a session that receives a
//! pool-generated stock and one that builds its own cold are bit-identical.

use crate::sorting::fan_out;
use ppgr_bigint::Secret;
use ppgr_elgamal::{ExpElGamal, JointKey, KeyPair, MaskPair};
use ppgr_group::{Element, FixedBaseTable, Group, GroupKind, HopScalars, Scalar};
use ppgr_hash::HashDrbg;
use ppgr_zkp::{MultiVerifierProof, MultiVerifierTranscript, SchnorrNonce};
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// The draw-order layout this module currently mints (see
/// [`StockFingerprint::layout`]).
pub const STOCK_LAYOUT: u32 = 2;

/// How far a stock is minted, and on how many workers.
#[derive(Clone, Copy, Debug)]
struct Mint {
    tier: StockTier,
    /// Threads the exponentiation batches are split across; the scalar
    /// stream itself is always drawn serially.
    workers: usize,
}

/// The session shape a DRBG-generated stock was built for.
///
/// A precompute pool keys its lanes by this; a session accepts an offered
/// stock only if the fingerprint matches its own parameters exactly.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct StockFingerprint {
    /// The session's master seed.
    pub seed: u64,
    /// Number of sorting parties `n`.
    pub participants: usize,
    /// The masked-gain bit length `l`.
    pub bits: usize,
    /// The group instantiation.
    pub group: GroupKind,
    /// The canonical draw-order version the stock follows. Sessions and
    /// pools built from the same crate always agree ([`STOCK_LAYOUT`]); the
    /// field exists so a persisted or cross-version stock whose scalar
    /// stream was laid out differently can never be mistaken for a match —
    /// attaching it would silently break the warm == cold bit-identity.
    pub layout: u32,
}

impl StockFingerprint {
    /// A fingerprint for the current draw-order layout.
    pub fn new(seed: u64, participants: usize, bits: usize, group: GroupKind) -> Self {
        StockFingerprint {
            seed,
            participants,
            bits,
            group,
            layout: STOCK_LAYOUT,
        }
    }
}

/// How much of a stock's exponentiation was done ahead of time.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum StockTier {
    /// Key-independent material only; keygen and `y^r` halves stay online.
    Masks,
    /// Keys, proofs, the joint-key table and every `y^r` half are minted.
    Keygen,
}

/// The keygen slice of a stock: every party's key material and proof of
/// key knowledge, either as raw seeds (masks tier) or fully minted (keygen
/// tier). Both forms carry secret exponents; `{:?}` redacts through the
/// inner [`Secret`]/[`KeyPair`] wrappers.
pub struct KeyStock(pub(crate) KeyMaterial);

/// What [`OfflineStock::take_keys`] hands the sorting machine.
pub(crate) enum KeyMaterial {
    /// Masks tier: the scalars are drawn but nothing is exponentiated.
    Seeds {
        /// Per-party secret key shares `x_j`, party order.
        secrets: Vec<Secret<Scalar>>,
        /// Per-party Schnorr commitment nonces, party order.
        nonces: Vec<SchnorrNonce>,
        /// Per-prover honest-verifier challenge shares (`n − 1` each).
        challenges: Vec<Vec<Scalar>>,
    },
    /// Keygen tier: keys and proofs are minted, the joint key is combined
    /// and its comb table prepared.
    Minted {
        /// Per-party key pairs, party order.
        pairs: Vec<KeyPair>,
        /// Per-party key-knowledge proofs, party order.
        proofs: Vec<MultiVerifierTranscript>,
        /// The combined joint key.
        joint: JointKey,
        /// Prepared fixed-base table for the joint public key.
        table: FixedBaseTable,
    },
}

impl KeyStock {
    fn parties(&self) -> usize {
        match &self.0 {
            KeyMaterial::Seeds { secrets, .. } => secrets.len(),
            KeyMaterial::Minted { pairs, .. } => pairs.len(),
        }
    }

    fn matches_shape(&self, n: usize) -> bool {
        match &self.0 {
            KeyMaterial::Seeds {
                secrets,
                nonces,
                challenges,
            } => {
                secrets.len() == n
                    && nonces.len() == n
                    && challenges.len() == n
                    && challenges.iter().all(|c| c.len() == n - 1)
            }
            KeyMaterial::Minted {
                pairs,
                proofs,
                joint,
                ..
            } => {
                pairs.len() == n
                    && proofs.len() == n
                    && proofs.iter().all(|p| p.challenges.len() == n - 1)
                    && joint.parties() == n
            }
        }
    }
}

impl fmt::Debug for KeyStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tier = match &self.0 {
            KeyMaterial::Seeds { .. } => StockTier::Masks,
            KeyMaterial::Minted { .. } => StockTier::Keygen,
        };
        f.debug_struct("KeyStock")
            .field("parties", &self.parties())
            .field("tier", &tier)
            .finish()
    }
}

/// One session's worth of precomputed randomness (see the module docs).
///
/// Consumed front-to-back by a [`SortMachine`](crate::sorting::SortMachine)
/// in exact protocol order: the key stock at keygen, then the `n` per-party
/// encryption mask rows (bits least-significant-first), then the `n`
/// per-party comparison-set rerandomization rows, then the hop randomizer
/// sets (hop by hop, foreign sets in ascending owner order).
pub struct OfflineStock {
    keys: Option<KeyStock>,
    enc: VecDeque<Vec<MaskPair>>,
    compare: VecDeque<Vec<MaskPair>>,
    /// One prepared randomizer set per (hop, foreign τ set).
    hops: VecDeque<Vec<HopScalars>>,
    fingerprint: Option<StockFingerprint>,
}

impl fmt::Debug for OfflineStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OfflineStock")
            .field("keys", &self.keys)
            .field("enc_rows", &self.enc.len())
            .field("compare_rows", &self.compare.len())
            .field("hop_sets", &self.hops.len())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl OfflineStock {
    /// Draws a full keygen-tier stock for an `n`-party, `l`-bit session
    /// from `rng`, with the minting spread over `workers` threads.
    ///
    /// This is the cold path: a machine with no pool-supplied stock draws
    /// one from its own stream at its offline step, paying the minting cost
    /// on the session clock, with its [`SortOptions::threads`] workers.
    /// The scalars are drawn serially in the canonical order (fixed
    /// regardless of the run's options, see the module docs) before any
    /// worker starts, so every worker count mints the same stock.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`: the sorting chain needs at least two parties.
    ///
    /// [`SortOptions::threads`]: crate::sorting::SortOptions
    pub(crate) fn draw_cold<R: Rng + ?Sized>(
        group: &Group,
        n: usize,
        l: usize,
        rng: &mut R,
        workers: usize,
    ) -> Self {
        let mint = Mint {
            tier: StockTier::Keygen,
            workers,
        };
        // A `false` cancellation hook never fires, so generation completes.
        Self::draw_cancellable_from(group, n, l, rng, &mut || false, mint)
            // tidy:allow(panic) — the never-cancelling hook makes None unreachable
            .expect("generation with a never-cancelling hook always completes")
    }

    /// Invalidates `party`'s key-knowledge proof in a minted (keygen-tier)
    /// stock by bumping its response scalar.
    ///
    /// Test-harness hook: lets attribution tests feed a session a stock
    /// whose proof `party` must be rejected — by the session's own check
    /// or by a cross-session batch — without forging wire bytes. No-op on
    /// a masks-tier stock or when keys were already taken.
    #[doc(hidden)]
    pub fn corrupt_key_proof(&mut self, group: &Group, party: usize) {
        if let Some(KeyStock(KeyMaterial::Minted { proofs, .. })) = self.keys.as_mut() {
            if let Some(proof) = proofs.get_mut(party) {
                ppgr_zkp::tamper::bump_multi_response(group, proof);
            }
        }
    }

    /// Generates the keygen-tier stock a session with fingerprint `fp`
    /// expects: keys, proofs, joint-key table and every `(g^r, y^r)` pair
    /// fully minted, on the calling thread.
    ///
    /// Derives the session's dedicated offline stream
    /// (`HashDrbg::seed_from_u64(seed).fork(b"offline")`) and draws from
    /// it, so the result is identical to what the session itself would
    /// build cold.
    ///
    /// # Panics
    ///
    /// Panics if `fp.participants < 2`.
    pub fn generate(fp: StockFingerprint) -> Self {
        Self::generate_cold(fp, 1)
    }

    /// [`OfflineStock::generate`] as a session's cold offline step runs
    /// it: the minting spread over `workers` threads (its
    /// [`SortOptions::threads`](crate::sorting::SortOptions)). Stock bytes
    /// are identical to [`OfflineStock::generate`] output — see
    /// [`OfflineStock::draw_cold`].
    pub(crate) fn generate_cold(fp: StockFingerprint, workers: usize) -> Self {
        let mint = Mint {
            tier: StockTier::Keygen,
            workers,
        };
        // See `draw_cold`: the hook never fires.
        Self::from_fingerprint(fp, &mut || false, mint)
            // tidy:allow(panic) — the never-cancelling hook makes None unreachable
            .expect("generation with a never-cancelling hook always completes")
    }

    /// [`OfflineStock::generate`] stopped at the masks tier: the same
    /// scalar stream, but only the key-independent work (`g^r` halves,
    /// Schnorr commitments, prepared hop scalars) is done. Keygen, the
    /// joint-key table and the `y^r` halves remain online work for the
    /// session.
    ///
    /// Exists so the bench harness can measure the two tiers against the
    /// same cold baseline; a session consuming this stock is bit-identical
    /// to one consuming the keygen tier.
    ///
    /// # Panics
    ///
    /// Panics if `fp.participants < 2`.
    pub fn generate_masks_only(fp: StockFingerprint) -> Self {
        let mint = Mint {
            tier: StockTier::Masks,
            workers: 1,
        };
        // See `draw_cold`: the hook never fires.
        Self::from_fingerprint(fp, &mut || false, mint)
            // tidy:allow(panic) — the never-cancelling hook makes None unreachable
            .expect("generation with a never-cancelling hook always completes")
    }

    /// [`OfflineStock::generate`] with a cancellation hook for background
    /// refill workers: `cancel` is polled between parties, between hop
    /// sets and between minting batches; once it returns `true`, generation
    /// stops and `None` is returned. A completed generation is
    /// bit-identical to [`OfflineStock::generate`].
    ///
    /// # Panics
    ///
    /// Panics if `fp.participants < 2`.
    pub fn generate_cancellable(
        fp: StockFingerprint,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        let mint = Mint {
            tier: StockTier::Keygen,
            workers: 1,
        };
        Self::from_fingerprint(fp, cancel, mint)
    }

    /// Draws from `fp`'s dedicated offline stream and stamps the result
    /// with `fp`.
    fn from_fingerprint(
        fp: StockFingerprint,
        cancel: &mut dyn FnMut() -> bool,
        mint: Mint,
    ) -> Option<Self> {
        let group = fp.group.group();
        let mut rng = HashDrbg::seed_from_u64(fp.seed).fork(b"offline");
        let mut stock =
            Self::draw_cancellable_from(&group, fp.participants, fp.bits, &mut rng, cancel, mint)?;
        stock.fingerprint = Some(fp);
        Some(stock)
    }

    fn draw_cancellable_from<R: Rng + ?Sized>(
        group: &Group,
        n: usize,
        l: usize,
        rng: &mut R,
        cancel: &mut dyn FnMut() -> bool,
        mint: Mint,
    ) -> Option<Self> {
        // Checked up front: every shape below is built from `n − 1`.
        assert!(
            n >= 2,
            "an offline stock needs at least 2 participants, got {n}"
        );
        // ---- canonical scalar stream -----------------------------------
        // Both tiers draw exactly this sequence, serially and before any
        // worker starts; they differ only in how much is exponentiated
        // afterwards. Any change here is a new STOCK_LAYOUT.
        let mut secrets = Vec::with_capacity(n);
        for _ in 0..n {
            if cancel() {
                return None;
            }
            secrets.push(Secret::new(group.random_nonzero_scalar(rng)));
        }
        let mut nonces = Vec::with_capacity(n);
        let mut challenges: Vec<Vec<Scalar>> = Vec::with_capacity(n);
        for _ in 0..n {
            if cancel() {
                return None;
            }
            nonces.push(SchnorrNonce::draw(group, rng));
            challenges.push((0..n - 1).map(|_| group.random_scalar(rng)).collect());
        }
        // The n encryption mask rows (l masks each), then one
        // rerandomization mask per comparison-set ciphertext: each party's
        // τ set is a deterministic homomorphic combination of published
        // bit encryptions, so it must be re-randomized before it is
        // contributed to the chain. Drawn row by row into one run, which
        // the minting below splits across workers and then into rows.
        let set_len = (n - 1) * l;
        let rows = std::iter::repeat_n(l, n).chain(std::iter::repeat_n(set_len, n));
        let mut masks: Vec<MaskPair> = Vec::with_capacity(n * l + n * set_len);
        for row_len in rows {
            if cancel() {
                return None;
            }
            masks.extend(MaskPair::draw(group, rng, row_len));
        }
        // n hops, each touching the n−1 foreign sets (ascending owner) of
        // (n−1)·l ciphertexts each. Hop randomizers must be nonzero — a
        // zero multiplier would erase a plaintext, forging a rank. The hop
        // applies them to *foreign* ciphertexts with variable bases, which
        // no table can precompute; only their scalar-side work is prepared
        // below.
        let mut raw_hops: Vec<Vec<Scalar>> = Vec::with_capacity(n * (n - 1));
        for _set in 0..n * (n - 1) {
            if cancel() {
                return None;
            }
            raw_hops.push(
                (0..set_len)
                    .map(|_| group.random_nonzero_scalar(rng))
                    .collect(),
            );
        }
        // ---- tier-dependent minting (no further stream draws) ----------
        // Batches run over `mint.workers` near-equal ranges; the hook is
        // polled between them.
        let minted = match mint.tier {
            StockTier::Masks => None,
            StockTier::Keygen => {
                if cancel() {
                    return None;
                }
                let pairs: Vec<KeyPair> = secrets
                    .iter()
                    .map(|s| KeyPair::from_secret(group, s.expose().clone()))
                    .collect();
                let shares: Vec<Element> = pairs.iter().map(|p| p.public_key().clone()).collect();
                let joint = JointKey::combine(group, &shares);
                let table = ExpElGamal::new(group.clone()).prepare_key(joint.public_key());
                Some((pairs, joint, table))
            }
        };
        if cancel() {
            return None;
        }
        // Every mask's `g^r` half and, once the joint key is known, its
        // `y^r` half: one fixed-base batch of each per range.
        let key_table = minted.as_ref().map(|(_, _, table)| table);
        let mut rest = masks.as_mut_slice();
        fan_out(
            rest.len(),
            mint.workers,
            |range| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                chunk
            },
            |chunk| MaskPair::fill(group, key_table, chunk),
        );
        // Hop h is run by party h with her own secret share, which every
        // tier holds (as a seed or a minted key pair), so the `−x_h·r`
        // partial-decryption products and the hop ladder's signed-digit
        // recodings are a pure function of offline material: prepare them
        // now. Sets were drawn hop-major, `n − 1` per hop.
        if cancel() {
            return None;
        }
        let (prepared, _cpu) = fan_out(
            raw_hops.len(),
            mint.workers,
            |range| range,
            |range| {
                range
                    .map(|idx| {
                        let secret = secrets[idx / (n - 1)].expose();
                        group.prepare_hop_scalars(secret, &raw_hops[idx])
                    })
                    .collect::<Vec<_>>()
            },
        );
        let hops = prepared.into_iter().flatten().collect();
        let keys = match minted {
            None => KeyStock(KeyMaterial::Seeds {
                secrets,
                nonces,
                challenges,
            }),
            Some((pairs, joint, table)) => {
                let proofs: Vec<MultiVerifierTranscript> = pairs
                    .iter()
                    .zip(nonces)
                    .zip(challenges)
                    .map(|((pair, nonce), chals)| {
                        MultiVerifierProof::assemble(group, pair.secret_key(), nonce, chals)
                    })
                    .collect();
                KeyStock(KeyMaterial::Minted {
                    pairs,
                    proofs,
                    joint,
                    table,
                })
            }
        };
        let mut masks = masks.into_iter();
        let mut rows = |len: usize| -> VecDeque<Vec<MaskPair>> {
            (0..n).map(|_| masks.by_ref().take(len).collect()).collect()
        };
        let enc = rows(l);
        let compare = rows(set_len);
        Some(OfflineStock {
            keys: Some(keys),
            enc,
            compare,
            hops,
            fingerprint: None,
        })
    }

    /// The fingerprint this stock was generated for (`None` for stocks
    /// drawn cold on a session's own stream).
    pub fn fingerprint(&self) -> Option<&StockFingerprint> {
        self.fingerprint.as_ref()
    }

    /// The tier the unconsumed key stock was minted at (`None` once the
    /// keygen step has taken it).
    pub fn tier(&self) -> Option<StockTier> {
        self.keys.as_ref().map(|k| match &k.0 {
            KeyMaterial::Seeds { .. } => StockTier::Masks,
            KeyMaterial::Minted { .. } => StockTier::Keygen,
        })
    }

    /// Whether the stock holds exactly an `n`-party, `l`-bit session's
    /// worth of unconsumed material for `group`.
    pub fn matches_shape(&self, group: &Group, n: usize, l: usize) -> bool {
        if let Some(fp) = &self.fingerprint {
            if fp.group != group.kind() {
                return false;
            }
        }
        self.keys.as_ref().is_some_and(|k| k.matches_shape(n))
            && self.enc.len() == n
            && self.enc.iter().all(|row| row.len() == l)
            && self.compare.len() == n
            && self.compare.iter().all(|row| row.len() == (n - 1) * l)
            && self.hops.len() == n * (n - 1)
            && self.hops.iter().all(|set| set.len() == (n - 1) * l)
    }

    /// The whole keygen slice, or `None` if already taken.
    pub(crate) fn take_keys(&mut self) -> Option<KeyMaterial> {
        self.keys.take().map(|k| k.0)
    }

    /// The next party's encryption mask row, or `None` if exhausted.
    pub(crate) fn take_enc_row(&mut self) -> Option<Vec<MaskPair>> {
        self.enc.pop_front()
    }

    /// The next party's comparison-set rerandomization row, or `None` if
    /// exhausted.
    pub(crate) fn take_compare_row(&mut self) -> Option<Vec<MaskPair>> {
        self.compare.pop_front()
    }

    /// The next prepared hop randomizer set, or `None` if exhausted.
    pub(crate) fn take_hop_set(&mut self) -> Option<Vec<HopScalars>> {
        self.hops.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn fp(seed: u64) -> StockFingerprint {
        StockFingerprint::new(seed, 3, 4, GroupKind::Ecc160)
    }

    /// The `(g^r, y^r)` halves of every encryption and comparison mask, in
    /// consumption order.
    fn halves(s: &OfflineStock) -> Vec<(Option<Element>, Option<Element>)> {
        s.enc
            .iter()
            .chain(s.compare.iter())
            .flatten()
            .map(|p| (p.g_r().cloned(), p.y_r().cloned()))
            .collect()
    }

    /// A stock's prepared hop sets.
    fn prepared(s: &OfflineStock) -> Vec<&[HopScalars]> {
        s.hops.iter().map(Vec::as_slice).collect()
    }

    /// The joint key of a keygen-tier stock.
    fn joint(s: &OfflineStock) -> Element {
        match &s.keys.as_ref().unwrap().0 {
            KeyMaterial::Minted { joint, .. } => joint.public_key().clone(),
            KeyMaterial::Seeds { .. } => panic!("keygen tier expected"),
        }
    }

    #[test]
    fn any_worker_count_mints_the_serial_stock() {
        // The scalar stream is drawn before any worker starts and the
        // batches are pure functions of it, so splitting the minting
        // across k workers must reproduce the one-worker stock and what a
        // pool's `generate` hands out for the same fingerprint.
        for (kind, n, l) in [
            (GroupKind::Ecc160, 3, 4),
            (GroupKind::Ecc160, 5, 3),
            (GroupKind::Dl1024, 3, 2),
        ] {
            let fp = StockFingerprint::new(21, n, l, kind);
            let pool = OfflineStock::generate(fp);
            for workers in [1, 2, 3, 4] {
                let cold = OfflineStock::generate_cold(fp, workers);
                let label = format!("{kind} n={n} workers={workers}");
                assert_eq!(prepared(&cold), prepared(&pool), "{label}: hop sets");
                assert_eq!(halves(&cold), halves(&pool), "{label}: mask halves");
                assert_eq!(joint(&cold), joint(&pool), "{label}: joint key");
            }
            // The cold draw on a machine's own stream agrees too.
            let group = kind.group();
            let mut serial_rng = StdRng::seed_from_u64(5);
            let mut fanned_rng = StdRng::seed_from_u64(5);
            let serial = OfflineStock::draw_cold(&group, n, l, &mut serial_rng, 1);
            let fanned = OfflineStock::draw_cold(&group, n, l, &mut fanned_rng, 3);
            assert_eq!(
                prepared(&serial),
                prepared(&fanned),
                "{kind} draw_cold hop sets"
            );
            assert_eq!(
                halves(&serial),
                halves(&fanned),
                "{kind} draw_cold mask halves"
            );
            assert_eq!(joint(&serial), joint(&fanned));
        }
    }

    #[test]
    fn fewer_than_two_participants_are_rejected_up_front() {
        for participants in [0, 1] {
            let fp = StockFingerprint::new(1, participants, 4, GroupKind::Ecc160);
            let outcome = std::panic::catch_unwind(|| OfflineStock::generate(fp));
            let message = outcome
                .err()
                .and_then(|e| e.downcast::<String>().ok())
                .unwrap_or_else(|| panic!("participants = {participants} must panic"));
            assert!(
                message.contains("at least 2 participants"),
                "participants = {participants}: {message}"
            );
        }
    }

    #[test]
    fn fingerprint_constructor_pins_the_current_layout() {
        assert_eq!(fp(1).layout, STOCK_LAYOUT);
        let mut stale = fp(1);
        stale.layout = STOCK_LAYOUT - 1;
        assert_ne!(stale, fp(1));
    }

    #[test]
    fn generated_stock_has_the_declared_shape() {
        let group = GroupKind::Ecc160.group();
        let stock = OfflineStock::generate(fp(7));
        assert!(stock.matches_shape(&group, 3, 4));
        assert!(!stock.matches_shape(&group, 4, 4));
        assert!(!stock.matches_shape(&group, 3, 5));
        assert!(!stock.matches_shape(&GroupKind::Dl1024.group(), 3, 4));
        assert_eq!(stock.fingerprint(), Some(&fp(7)));
        assert_eq!(stock.tier(), Some(StockTier::Keygen));

        let masks = OfflineStock::generate_masks_only(fp(7));
        assert!(masks.matches_shape(&group, 3, 4));
        assert_eq!(masks.tier(), Some(StockTier::Masks));
    }

    #[test]
    fn generation_is_deterministic_per_fingerprint() {
        let a = OfflineStock::generate(fp(9));
        let b = OfflineStock::generate(fp(9));
        let c = OfflineStock::generate(fp(10));
        assert_eq!(joint(&a), joint(&b));
        assert_ne!(joint(&a), joint(&c));
        assert_eq!(prepared(&a), prepared(&b));
        assert_ne!(prepared(&a), prepared(&c));
    }

    #[test]
    fn tiers_share_one_scalar_stream() {
        // The masks tier and the keygen tier must draw identical scalars at
        // identical stream positions — that is what makes cold, masks-warm
        // and keygen-warm sessions bit-identical.
        let full = OfflineStock::generate(fp(13));
        let masks = OfflineStock::generate_masks_only(fp(13));
        // Both tiers hold every hop owner's secret, so both carry the hops
        // prepared, and identically.
        assert_eq!(prepared(&full), prepared(&masks));
        // Both tiers carry every `g^r` half, and the same ones.
        assert!(halves(&full).iter().all(|(g_r, _)| g_r.is_some()));
        assert_eq!(
            halves(&full).iter().map(|h| &h.0).collect::<Vec<_>>(),
            halves(&masks).iter().map(|h| &h.0).collect::<Vec<_>>()
        );
        // Full tier carries every key half; masks tier carries none.
        assert!(halves(&full).iter().all(|(_, y_r)| y_r.is_some()));
        assert!(halves(&masks).iter().all(|(_, y_r)| y_r.is_none()));
        // The minted keys are exactly the masks tier's seeds, exponentiated.
        let group = GroupKind::Ecc160.group();
        let (pairs, proofs, joint) = match full.keys.unwrap().0 {
            KeyMaterial::Minted {
                pairs,
                proofs,
                joint,
                ..
            } => (pairs, proofs, joint),
            KeyMaterial::Seeds { .. } => panic!("keygen tier expected"),
        };
        let (secrets, nonces, challenges) = match masks.keys.unwrap().0 {
            KeyMaterial::Seeds {
                secrets,
                nonces,
                challenges,
            } => (secrets, nonces, challenges),
            KeyMaterial::Minted { .. } => panic!("masks tier expected"),
        };
        for (pair, secret) in pairs.iter().zip(&secrets) {
            assert_eq!(pair.public_key(), &group.exp_gen(secret.expose()));
        }
        for (((proof, nonce), chals), pair) in proofs.iter().zip(nonces).zip(challenges).zip(&pairs)
        {
            assert_eq!(&proof.commitment, nonce.commitment());
            assert_eq!(proof.challenges, chals);
            assert!(proof.verify(&group, pair.public_key()));
        }
        assert_eq!(joint.parties(), 3);
    }

    #[test]
    fn cancellable_generation_matches_uncancelled() {
        let a = OfflineStock::generate(fp(11));
        let b = OfflineStock::generate_cancellable(fp(11), &mut || false).unwrap();
        assert_eq!(prepared(&a), prepared(&b));
        assert_eq!(joint(&a), joint(&b));
    }

    #[test]
    fn cancellation_stops_generation() {
        assert!(OfflineStock::generate_cancellable(fp(12), &mut || true).is_none());
        // Cancel part-way through: after a few polls the worker gives up.
        let mut polls = 0usize;
        let out = OfflineStock::generate_cancellable(fp(12), &mut || {
            polls += 1;
            polls > 4
        });
        assert!(out.is_none());
        // Cancel during the minting batches at the end.
        let mut polls = 0usize;
        let out = OfflineStock::generate_cancellable(fp(12), &mut || {
            polls += 1;
            polls > 20
        });
        assert!(out.is_none());
    }

    #[test]
    fn draws_consume_front_to_back_until_exhausted() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(1);
        let mut stock = OfflineStock::draw_cold(&group, 2, 3, &mut rng, 1);
        assert!(stock.fingerprint().is_none());
        assert!(stock.matches_shape(&group, 2, 3));
        assert!(stock.take_keys().is_some());
        assert!(stock.take_keys().is_none());
        assert_eq!(stock.tier(), None);
        for _ in 0..2 {
            assert_eq!(stock.take_enc_row().map(|r| r.len()), Some(3));
        }
        assert!(stock.take_enc_row().is_none());
        for _ in 0..2 {
            assert_eq!(stock.take_compare_row().map(|r| r.len()), Some(3));
        }
        assert!(stock.take_compare_row().is_none());
        for _ in 0..2 {
            assert_eq!(stock.take_hop_set().map(|s| s.len()), Some(3));
        }
        assert!(stock.take_hop_set().is_none());
    }
}
