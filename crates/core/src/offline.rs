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
//! A stock is minted in full from **one canonical scalar stream**: the
//! parties' [`KeyPair`]s, their assembled key-knowledge proofs, the joint
//! key's prepared comb table, both halves of every mask and the prepared
//! hop scalars. The online keygen round reduces to exchanging shares; the
//! session checks the proofs once, online
//! ([`KeygenVerifyJob`](crate::sorting::KeygenVerifyJob)).
//!
//! One body mints every stock, behind two front doors:
//! [`OfflineStock::generate`] derives the stream from a
//! [`StockFingerprint`] (a precompute pool, or a session's own cold
//! offline step), and `OfflineStock::draw` takes a stream the caller
//! already holds (a sorting machine's cold offline step).
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

/// The keygen slice of a stock: every party's minted key material. It
/// carries every party's secret exponent, so `{:?}` shows only the party
/// count.
pub(crate) struct KeyStock {
    /// Per-party key pairs, party order.
    pub(crate) pairs: Vec<KeyPair>,
    /// Per-party key-knowledge proofs, party order.
    pub(crate) proofs: Vec<MultiVerifierTranscript>,
    /// Prepared fixed-base table for the joint public key (its base).
    pub(crate) table: FixedBaseTable,
}

impl KeyStock {
    fn matches_shape(&self, n: usize) -> bool {
        self.pairs.len() == n
            && self.proofs.len() == n
            && self.proofs.iter().all(|p| p.challenges.len() == n - 1)
    }
}

impl fmt::Debug for KeyStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyStock")
            .field("parties", &self.pairs.len())
            .finish_non_exhaustive()
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
    /// Generates the stock a session with fingerprint `fp` expects, with
    /// the minting spread over `workers` threads.
    ///
    /// Derives the session's dedicated offline stream
    /// (`HashDrbg::seed_from_u64(seed).fork(b"offline")`) and draws from
    /// it, so every worker count gives the same stock, and the same one
    /// the session would build cold. `cancel` is polled between parties,
    /// between mask rows and hop sets, and between minting batches; once it
    /// returns `true`, generation stops and `None` is returned. A hook that
    /// never fires always yields `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `fp.participants < 2`: the sorting chain needs at least
    /// two parties.
    pub fn generate(
        fp: StockFingerprint,
        workers: usize,
        mut cancel: impl FnMut() -> bool,
    ) -> Option<Self> {
        let group = fp.group.group();
        let mut rng = HashDrbg::seed_from_u64(fp.seed).fork(b"offline");
        let mut stock = Self::mint(
            &group,
            fp.participants,
            fp.bits,
            &mut rng,
            workers,
            &mut cancel,
        )?;
        stock.fingerprint = Some(fp);
        Some(stock)
    }

    /// Draws a stock for an `n`-party, `l`-bit session from `rng`, with
    /// the minting spread over `workers` threads.
    ///
    /// This is the cold path of a machine with no pool-supplied stock: it
    /// draws one from its own stream at its offline step, paying the
    /// minting cost on the session clock, with its
    /// [`SortOptions::threads`] workers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`: the sorting chain needs at least two parties.
    ///
    /// [`SortOptions::threads`]: crate::sorting::SortOptions
    pub(crate) fn draw<R: Rng + ?Sized>(
        group: &Group,
        n: usize,
        l: usize,
        rng: &mut R,
        workers: usize,
    ) -> Self {
        Self::mint(group, n, l, rng, workers, &mut || false)
            // tidy:allow(panic) — the never-cancelling hook makes None unreachable
            .expect("minting with a never-cancelling hook always completes")
    }

    /// Invalidates `party`'s key-knowledge proof by bumping its response
    /// scalar.
    ///
    /// Test-harness hook: lets attribution tests feed a session a stock
    /// whose proof `party` must be rejected — by the session's own check
    /// or by a cross-session batch — without forging wire bytes. No-op
    /// when the keys were already taken.
    #[doc(hidden)]
    pub fn corrupt_key_proof(&mut self, group: &Group, party: usize) {
        if let Some(proof) = self.keys.as_mut().and_then(|k| k.proofs.get_mut(party)) {
            ppgr_zkp::tamper::bump_multi_response(group, proof);
        }
    }

    /// The one minting body behind both front doors: draws the canonical
    /// scalar stream serially, then exponentiates over `workers` ranges.
    fn mint<R: Rng + ?Sized>(
        group: &Group,
        n: usize,
        l: usize,
        rng: &mut R,
        workers: usize,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        // Checked up front: every shape below is built from `n − 1`.
        assert!(
            n >= 2,
            "an offline stock needs at least 2 participants, got {n}"
        );
        // ---- canonical scalar stream -----------------------------------
        // Drawn serially and before any worker starts, so every worker
        // count mints the same stock. Any change here is a new
        // STOCK_LAYOUT.
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
        // ---- minting (no further stream draws) -------------------------
        // Batches run over `workers` near-equal ranges; the hook is polled
        // between them.
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
        if cancel() {
            return None;
        }
        // Both halves of every mask: one fixed-base batch of each per range.
        let mut rest = masks.as_mut_slice();
        fan_out(
            rest.len(),
            workers,
            |range| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                chunk
            },
            |chunk| MaskPair::fill(group, &table, chunk),
        );
        // Hop h is run by party h with her own secret share, so the
        // `−x_h·r` partial-decryption products and the hop ladder's
        // signed-digit recodings are a pure function of offline material:
        // prepare them now. Sets were drawn hop-major, `n − 1` per hop.
        if cancel() {
            return None;
        }
        let (prepared, _cpu) = fan_out(
            raw_hops.len(),
            workers,
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
        let proofs: Vec<MultiVerifierTranscript> = pairs
            .iter()
            .zip(nonces)
            .zip(challenges)
            .map(|((pair, nonce), chals)| {
                MultiVerifierProof::assemble(group, pair.secret_key(), nonce, chals)
            })
            .collect();
        let mut masks = masks.into_iter();
        let mut rows = |len: usize| -> VecDeque<Vec<MaskPair>> {
            (0..n).map(|_| masks.by_ref().take(len).collect()).collect()
        };
        let enc = rows(l);
        let compare = rows(set_len);
        Some(OfflineStock {
            keys: Some(KeyStock {
                pairs,
                proofs,
                table,
            }),
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
    pub(crate) fn take_keys(&mut self) -> Option<KeyStock> {
        self.keys.take()
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

    /// [`OfflineStock::generate`] on `workers` threads, never cancelled.
    fn generate(fp: StockFingerprint, workers: usize) -> OfflineStock {
        OfflineStock::generate(fp, workers, || false).expect("never cancelled")
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

    /// A stock's joint key: the base of its prepared table.
    fn joint(s: &OfflineStock) -> Element {
        s.keys.as_ref().unwrap().table.base().clone()
    }

    #[test]
    fn any_worker_count_mints_the_serial_stock() {
        // The scalar stream is drawn before any worker starts and the
        // batches are pure functions of it, so splitting the minting
        // across k workers must reproduce the one-worker stock.
        for (kind, n, l) in [
            (GroupKind::Ecc160, 3, 4),
            (GroupKind::Ecc160, 5, 3),
            (GroupKind::Dl1024, 3, 2),
        ] {
            let fp = StockFingerprint::new(21, n, l, kind);
            let serial = generate(fp, 1);
            assert!(halves(&serial)
                .iter()
                .all(|(g_r, y_r)| g_r.is_some() && y_r.is_some()));
            for workers in [2, 3, 4] {
                let fanned = generate(fp, workers);
                let label = format!("{kind} n={n} workers={workers}");
                assert_eq!(prepared(&fanned), prepared(&serial), "{label}: hop sets");
                assert_eq!(halves(&fanned), halves(&serial), "{label}: mask halves");
                assert_eq!(joint(&fanned), joint(&serial), "{label}: joint key");
            }
            // The cold draw on a machine's own stream agrees too.
            let group = kind.group();
            let mut serial_rng = StdRng::seed_from_u64(5);
            let mut fanned_rng = StdRng::seed_from_u64(5);
            let serial = OfflineStock::draw(&group, n, l, &mut serial_rng, 1);
            let fanned = OfflineStock::draw(&group, n, l, &mut fanned_rng, 3);
            assert_eq!(prepared(&serial), prepared(&fanned), "{kind} draw hop sets");
            assert_eq!(halves(&serial), halves(&fanned), "{kind} draw mask halves");
            assert_eq!(joint(&serial), joint(&fanned));
        }
    }

    #[test]
    fn fewer_than_two_participants_are_rejected_up_front() {
        for participants in [0, 1] {
            let fp = StockFingerprint::new(1, participants, 4, GroupKind::Ecc160);
            let outcome = std::panic::catch_unwind(|| generate(fp, 1));
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
        let stock = generate(fp(7), 1);
        assert!(stock.matches_shape(&group, 3, 4));
        assert!(!stock.matches_shape(&group, 4, 4));
        assert!(!stock.matches_shape(&group, 3, 5));
        assert!(!stock.matches_shape(&GroupKind::Dl1024.group(), 3, 4));
        assert_eq!(stock.fingerprint(), Some(&fp(7)));
    }

    #[test]
    fn generation_is_deterministic_per_fingerprint() {
        let a = generate(fp(9), 1);
        let b = generate(fp(9), 1);
        let c = generate(fp(10), 1);
        assert_eq!(joint(&a), joint(&b));
        assert_ne!(joint(&a), joint(&c));
        assert_eq!(prepared(&a), prepared(&b));
        assert_ne!(prepared(&a), prepared(&c));
    }

    #[test]
    fn cancellation_stops_generation() {
        assert!(OfflineStock::generate(fp(12), 1, || true).is_none());
        // Cancel part-way through: after a few polls the worker gives up.
        let mut polls = 0usize;
        let out = OfflineStock::generate(fp(12), 1, || {
            polls += 1;
            polls > 4
        });
        assert!(out.is_none());
        // Cancel during the minting batches at the end.
        let mut polls = 0usize;
        let out = OfflineStock::generate(fp(12), 1, || {
            polls += 1;
            polls > 20
        });
        assert!(out.is_none());
    }

    #[test]
    fn draws_consume_front_to_back_until_exhausted() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(1);
        let mut stock = OfflineStock::draw(&group, 2, 3, &mut rng, 1);
        assert!(stock.fingerprint().is_none());
        assert!(stock.matches_shape(&group, 2, 3));
        assert!(stock.take_keys().is_some());
        assert!(stock.take_keys().is_none());
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
