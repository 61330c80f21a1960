//! Offline/online phase split — every party's phase-2 randomness, minted
//! before the session's inputs exist.
//!
//! In the paper each party generates its own phase-2 randomness (Fig. 1,
//! steps 5–8; Sec. IV-E): its ElGamal key share, its Schnorr nonce and the
//! challenge shares it hands the other provers (the proof is
//! honest-verifier, so those are just more party randomness), its
//! encryption and comparison masks, and the plaintext randomizers and
//! permutations of its chain hop. None of it depends on anything another
//! party sends, so all of it is drawn ahead of time. What is irreducibly
//! online is the variable-base work on other parties' ciphertexts: partial
//! decryptions `β^{-x}` and the hop randomizers applied to foreign τ sets.
//!
//! Every party has two streams, both derived from the session seed by one
//! crate-private helper: an online stream (`party-{j}`), which only phase 1
//! reads, and an offline stream (`offline`, then `party-{j}`), from which
//! the party's whole phase-2 stock is drawn in the order documented at
//! [`STOCK_LAYOUT`]. A mesh party mints its own stock at thread start.
//!
//! A hop set's randomizers live in one limb buffer
//! ([`HopScalars`](ppgr_group::HopScalars)): each randomizer is written
//! into its set's buffer as it is drawn, and one fan-out then fills every
//! `−x_j·r` in place, so a randomizer costs two scalars at the group
//! order's width plus its permutation slot — 56 B on ECC-160 — and the
//! hop ladder recodes each pair when it runs. The stock is the largest
//! state a session holds until its hops run: `n·(n − 1)²·l` randomizers.
//!
//! [`OfflineStock`] is the in-memory simulation's stock: the `n` party
//! stocks plus what only the simulation can mint, because only it holds
//! every key — the joint key's prepared comb table and both halves of
//! every mask. Proofs are not stocked: each party's machine assembles its
//! own online, from its stocked nonce and the challenge shares it
//! receives in the keygen exchange both drivers run. A stock's shape is a
//! pure function of `(n, l)`, so a precompute pool can stock sessions
//! knowing only their [`StockFingerprint`]. [`OfflineStock::generate`] is
//! the one constructor; it serves pool lanes, a session's cold offline
//! step and [`run_sort`](crate::sorting::run_sort).
//!
//! A party that deviates only in its own randomness is a stock edited
//! after minting, and its machine runs the honest rounds on it:
//! [`OfflineStock::corrupt_key_proof`] makes a bad prover, and the
//! security games ([`crate::games`]) make a hop that skips its shuffle
//! (identity permutations) or its randomization (randomizers of 1).
//!
//! Determinism: a session that receives a pool-generated stock and one
//! that generates its own cold are bit-identical, and so are the two
//! runners: for every seed a mesh party mints exactly its slice of the
//! simulation's stock, so both compute the same keys, masks, randomizers
//! and permutations.

use crate::sorting::{fan_out, HopJob};
use ppgr_elgamal::{ExpElGamal, JointKey, KeyPair, MaskPair};
use ppgr_group::{Element, FixedBaseTable, Group, GroupKind, Scalar};
use ppgr_hash::HashDrbg;
use ppgr_zkp::SchnorrNonce;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::ops::RangeInclusive;

/// The draw-order layout this module currently mints (see
/// [`StockFingerprint::layout`]).
///
/// Party `j`'s stock is drawn from its offline stream in one fixed order:
///
/// 1. its key share `x_j`;
/// 2. its Schnorr nonce;
/// 3. its challenge share for every other prover, in ascending order;
/// 4. its `l` encryption masks, bits least-significant first;
/// 5. its `(n − 1)·l` comparison masks;
/// 6. for each foreign set, in ascending owner order, `(n − 1)·l` nonzero
///    hop randomizers and a Fisher–Yates permutation of `0..(n − 1)·l`.
///
/// Any change to this order is a new layout.
pub const STOCK_LAYOUT: u32 = 3;

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

/// Party `party`'s two randomness streams for a session seeded `seed`:
/// `(online, offline)`. Phase 1 alone reads the online stream; the party's
/// phase-2 stock is minted from the offline one. The initiator (party 0)
/// only ever uses its online stream.
///
/// Every party's randomness in this crate is forked from the session seed
/// here and nowhere else; a deployment would seed each party from its own
/// entropy at this point instead.
pub(crate) fn party_streams(seed: u64, party: usize) -> (HashDrbg, HashDrbg) {
    let root = HashDrbg::seed_from_u64(seed);
    let label = format!("party-{party}");
    let online = root.fork(label.as_bytes());
    let offline = root.fork(b"offline").fork(label.as_bytes());
    (online, offline)
}

/// One party's phase-2 stock, drawn from its offline stream in
/// [`STOCK_LAYOUT`] order. It holds the party's key share, nonce, masks
/// and permutations, so `{:?}` shows only its shape.
pub(crate) struct PartyStock {
    /// The party's key pair `(x_j, g^{x_j})`.
    pub(crate) keys: KeyPair,
    /// Its Schnorr nonce, spent on its proof of key knowledge.
    pub(crate) nonce: SchnorrNonce,
    /// Its challenge share for every other prover, in ascending order.
    pub(crate) shares: Vec<Scalar>,
    /// Its `l` encryption masks, bare until filled with the joint key.
    pub(crate) enc: Vec<MaskPair>,
    /// Its `(n − 1)·l` comparison-set rerandomization masks, likewise.
    pub(crate) compare: Vec<MaskPair>,
    /// Its chain hop, one job per foreign set in ascending owner order:
    /// the randomizers prepared under `x_j` and the permutation.
    pub(crate) hops: Vec<HopJob>,
}

impl fmt::Debug for PartyStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartyStock")
            .field("masks", &(self.enc.len() + self.compare.len()))
            .field("hop_sets", &self.hops.len())
            .finish_non_exhaustive()
    }
}

impl PartyStock {
    /// Party `party`'s stock for an `n`-party, `l`-bit session seeded
    /// `seed`, as a mesh party mints it at thread start: its masks bare,
    /// its hop randomizers prepared under its own key share.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`: the sorting chain needs at least two parties.
    pub(crate) fn mint(group: &Group, seed: u64, n: usize, l: usize, party: usize) -> Self {
        mint_parties(group, seed, n, l, party..=party, 1, &mut || false)
            .and_then(|mut minted| minted.pop())
            // tidy:allow(panic) — the never-cancelling hook makes None unreachable
            .expect("minting with a never-cancelling hook always completes")
    }
}

/// Mints the stocks of `parties` (1-based ids) of an `n`-party, `l`-bit
/// session seeded `seed`. Each party's offline stream is drawn serially,
/// before any worker starts, so every worker count mints the same
/// stocks, each hop randomizer straight into its set's buffer; then one
/// fan-out over `workers` threads prepares every hop set of all of them
/// in place. Masks stay bare.
/// `cancel` is polled between parties and before the fan-out; once it
/// returns `true`, minting stops and `None` is returned.
///
/// # Panics
///
/// Panics if `n < 2`: the sorting chain needs at least two parties.
fn mint_parties(
    group: &Group,
    seed: u64,
    n: usize,
    l: usize,
    parties: RangeInclusive<usize>,
    workers: usize,
    cancel: &mut dyn FnMut() -> bool,
) -> Option<Vec<PartyStock>> {
    // Checked up front: every shape below is built from `n − 1`.
    assert!(
        n >= 2,
        "an offline stock needs at least 2 participants, got {n}"
    );
    let set_len = (n - 1) * l;
    let mut stocks = Vec::new();
    for party in parties {
        if cancel() {
            return None;
        }
        let (_, mut rng) = party_streams(seed, party);
        let keys = KeyPair::generate(group, &mut rng);
        let nonce = SchnorrNonce::draw(group, &mut rng);
        let shares = (1..n).map(|_| group.random_scalar(&mut rng)).collect();
        let enc = MaskPair::draw(group, &mut rng, l);
        let compare = MaskPair::draw(group, &mut rng, set_len);
        let hops = (0..n)
            .filter(|&owner| owner + 1 != party)
            .map(|owner| {
                // Hop randomizers must be nonzero — a zero multiplier
                // would erase a plaintext, forging a rank. Each goes into
                // its set's buffer as it is drawn; its `−x_j·r` is filled
                // below, in one fan-out.
                let mut set = group.hop_scalars(set_len);
                for _ in 0..set_len {
                    set.push(&group.random_nonzero_scalar(&mut rng));
                }
                // Fisher–Yates swaps depend only on the length, so
                // shuffling the identity consumes exactly the draws
                // shuffling the set would; `order[j]` names the input
                // landing at position `j`.
                let mut order: Vec<usize> = (0..set_len).collect();
                order.shuffle(&mut rng);
                (owner, set, order)
            })
            .collect();
        stocks.push(PartyStock {
            keys,
            nonce,
            shares,
            enc,
            compare,
            hops,
        });
    }
    if cancel() {
        return None;
    }
    // The hop applies the randomizers to *foreign* ciphertexts with
    // variable bases, which no table can precompute; only their
    // scalar-side work — the `−x_j·r` products — is prepared, in place,
    // under the hop party's own share.
    let total = stocks.len() * (n - 1);
    let mut sets = stocks.iter_mut().flat_map(|stock| {
        let secret = stock.keys.secret_key();
        stock.hops.iter_mut().map(move |(_, set, _)| (secret, set))
    });
    fan_out(
        total,
        workers,
        |range| sets.by_ref().take(range.len()).collect::<Vec<_>>(),
        |chunk| {
            for (secret, set) in chunk {
                group.prepare_hop_scalars(secret, set);
            }
        },
    );
    Some(stocks)
}

/// The in-memory simulation's stock for one session (see the module docs):
/// every party's stock with its masks filled under the joint key, and the
/// joint key's prepared table.
///
/// A [`SortMachine`](crate::sorting::SortMachine) is built on one and
/// hands each party machine its own stock and the table.
pub struct OfflineStock {
    /// Every party's stock, party order.
    pub(crate) parties: Vec<PartyStock>,
    /// The joint key's prepared comb table (its base is the joint key).
    pub(crate) table: FixedBaseTable,
    fingerprint: StockFingerprint,
}

impl fmt::Debug for OfflineStock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OfflineStock")
            .field("parties", &self.parties)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

impl OfflineStock {
    /// Generates the stock a session with fingerprint `fp` expects, with
    /// the minting spread over `workers` threads.
    ///
    /// Every party's stock comes from its own offline stream, exactly as a
    /// mesh party mints it; on top, the joint key's table and both halves
    /// of every mask. Every worker count gives the same stock.
    /// `cancel` is polled between parties and between minting batches;
    /// once it returns `true`, generation stops and `None` is returned. A
    /// hook that never fires always yields `Some`.
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
        let (n, l) = (fp.participants, fp.bits);
        let mut parties = mint_parties(&group, fp.seed, n, l, 1..=n, workers, &mut cancel)?;
        let key_shares: Vec<Element> = parties
            .iter()
            .map(|p| p.keys.public_key().clone())
            .collect();
        let joint = JointKey::combine(&group, &key_shares);
        let table = ExpElGamal::new(group.clone()).prepare_key(joint.public_key());
        if cancel() {
            return None;
        }
        // Both halves of every party's masks: one fan-out over all of
        // them, one fixed-base batch of each half per range.
        let mut masks = parties
            .iter_mut()
            .flat_map(|p| p.enc.iter_mut().chain(&mut p.compare));
        fan_out(
            n * n * l,
            workers,
            |range| masks.by_ref().take(range.len()).collect::<Vec<_>>(),
            |chunk| MaskPair::fill(&group, &table, chunk),
        );
        Some(OfflineStock {
            parties,
            table,
            fingerprint: fp,
        })
    }

    /// Invalidates the key-knowledge proof of `party` (0-based) by moving
    /// its stocked nonce commitment off the nonce.
    ///
    /// Test-harness hook: lets attribution tests feed a session a stock
    /// whose proof `party` must be rejected — by the session's own check
    /// or by a cross-session batch — without forging wire bytes. No-op
    /// for a party the stock does not hold.
    #[doc(hidden)]
    pub fn corrupt_key_proof(&mut self, group: &Group, party: usize) {
        if let Some(stock) = self.parties.get_mut(party) {
            ppgr_zkp::tamper::bump_nonce_commitment(group, &mut stock.nonce);
        }
    }

    /// Makes `party`'s (0-based) hop keep every set's order: its stocked
    /// permutations become the identity. No-op for a party the stock does
    /// not hold.
    pub(crate) fn skip_shuffle(&mut self, party: usize) {
        if let Some(stock) = self.parties.get_mut(party) {
            for (_, _, order) in &mut stock.hops {
                *order = (0..order.len()).collect();
            }
        }
    }

    /// Makes `party`'s (0-based) hop skip its randomization: every
    /// randomizer becomes 1, prepared under the party's share, so the hop
    /// yields the bare partial decryption `(α·β^{−x}, β)`. No-op for a
    /// party the stock does not hold.
    pub(crate) fn skip_randomization(&mut self, group: &Group, party: usize) {
        if let Some(stock) = self.parties.get_mut(party) {
            let one = group.scalar_from_u64(1);
            for (_, set, _) in &mut stock.hops {
                let mut ones = group.hop_scalars(set.len());
                (0..set.len()).for_each(|_| ones.push(&one));
                group.prepare_hop_scalars(stock.keys.secret_key(), &mut ones);
                *set = ones;
            }
        }
    }

    /// The fingerprint this stock was generated for.
    pub fn fingerprint(&self) -> &StockFingerprint {
        &self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> StockFingerprint {
        StockFingerprint::new(seed, 3, 4, GroupKind::Ecc160)
    }

    /// [`OfflineStock::generate`] on `workers` threads, never cancelled.
    fn generate(fp: StockFingerprint, workers: usize) -> OfflineStock {
        OfflineStock::generate(fp, workers, || false).expect("never cancelled")
    }

    /// The `(y^r, g^r)` halves of every encryption and comparison mask,
    /// party by party.
    fn halves(s: &OfflineStock) -> Vec<(Option<Element>, Option<Element>)> {
        s.parties
            .iter()
            .flat_map(|p| p.enc.iter().chain(&p.compare))
            .map(|m| (m.y_r().cloned(), m.g_r().cloned()))
            .collect()
    }

    /// Every party's hop jobs, party by party.
    fn hops(s: &OfflineStock) -> Vec<&HopJob> {
        s.parties.iter().flat_map(|p| &p.hops).collect()
    }

    /// A stock's joint key: the base of its prepared table.
    fn joint(s: &OfflineStock) -> &Element {
        s.table.base()
    }

    /// Every party's nonce commitment and challenge shares.
    fn nonces(s: &OfflineStock) -> Vec<(Element, Vec<Scalar>)> {
        s.parties
            .iter()
            .map(|p| (p.nonce.commitment().clone(), p.shares.clone()))
            .collect()
    }

    #[test]
    fn any_worker_count_mints_the_serial_stock() {
        // Every stream is drawn before any worker starts and the batches
        // are pure functions of the draws, so splitting the minting
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
                .all(|(y_r, g_r)| y_r.is_some() && g_r.is_some()));
            for workers in [2, 3, 4] {
                let fanned = generate(fp, workers);
                let label = format!("{kind} n={n} workers={workers}");
                assert_eq!(hops(&fanned), hops(&serial), "{label}: hop jobs");
                assert_eq!(halves(&fanned), halves(&serial), "{label}: mask halves");
                assert_eq!(joint(&fanned), joint(&serial), "{label}: joint key");
                assert_eq!(nonces(&fanned), nonces(&serial), "{label}: nonces");
            }
        }
    }

    #[test]
    fn mesh_party_stock_matches_its_slice_of_generate() {
        // A mesh party mints its stock alone, from its own offline
        // stream; it must be exactly party j's slice of the simulation's
        // stock, so both runners consume the same randomness.
        for (kind, n, l) in [(GroupKind::Ecc160, 4, 3), (GroupKind::Dl1024, 3, 2)] {
            let group = kind.group();
            let seed = 0x5eed;
            let sim = generate(StockFingerprint::new(seed, n, l, kind), 2);
            for j in 1..=n {
                let label = format!("{kind} party {j}");
                let mut mine = PartyStock::mint(&group, seed, n, l, j);
                let theirs = &sim.parties[j - 1];
                assert_eq!(mine.keys.public_key(), theirs.keys.public_key(), "{label}");
                assert_eq!(mine.keys.secret_key(), theirs.keys.secret_key(), "{label}");
                let commitment = mine.nonce.commitment();
                assert_eq!(commitment, theirs.nonce.commitment(), "{label}");
                assert_eq!(mine.shares, theirs.shares, "{label}: challenge shares");
                assert_eq!(
                    mine.hops, theirs.hops,
                    "{label}: preparations and permutations"
                );
                let owners: Vec<usize> = mine.hops.iter().map(|(owner, _, _)| *owner).collect();
                let foreign: Vec<usize> = (0..n).filter(|&o| o != j - 1).collect();
                assert_eq!(owners, foreign, "{label}: foreign sets in owner order");
                assert!(mine
                    .enc
                    .iter()
                    .chain(&mine.compare)
                    .all(|m| m.g_r().is_none()));
                MaskPair::fill(
                    &group,
                    &sim.table,
                    mine.enc.iter_mut().chain(&mut mine.compare),
                );
                let filled = |p: &PartyStock| -> Vec<(Option<Element>, Option<Element>)> {
                    p.enc
                        .iter()
                        .chain(&p.compare)
                        .map(|m| (m.y_r().cloned(), m.g_r().cloned()))
                        .collect()
                };
                assert_eq!(filled(&mine), filled(theirs), "{label}: mask halves");
            }
        }
    }

    #[test]
    fn hop_stock_holds_at_most_64_bytes_per_randomizer() {
        // The benchmark's solo shape: ECC-160, n = 8, l = 25. Counted from
        // the buffers' capacities: each party's job vector, and per set its
        // one limb buffer and its permutation. Each set is those two
        // buffers, allocated once at their final size, whatever its length.
        let (n, l) = (8, 25);
        let stock = generate(StockFingerprint::new(26, n, l, GroupKind::Ecc160), 2);
        let (mut bytes, mut randomizers) = (0usize, 0usize);
        for party in &stock.parties {
            bytes += party.hops.capacity() * std::mem::size_of::<HopJob>();
            for (_, set, order) in &party.hops {
                assert_eq!(set.len(), (n - 1) * l);
                assert_eq!(set.heap_bytes(), set.len() * 2 * 3 * 8, "one exact buffer");
                assert_eq!(order.capacity(), order.len(), "one exact permutation");
                bytes += set.heap_bytes() + order.capacity() * std::mem::size_of::<usize>();
                randomizers += set.len();
            }
        }
        assert_eq!(randomizers, n * (n - 1) * (n - 1) * l);
        let per = bytes as f64 / randomizers as f64;
        assert!(per <= 64.0, "{per:.1} B per hop randomizer");
    }

    #[test]
    fn party_stock_debug_shows_only_its_shape() {
        let group = GroupKind::Ecc160.group();
        let stock = PartyStock::mint(&group, 3, 3, 2, 1);
        let dump = format!("{stock:?}");
        assert_eq!(dump, "PartyStock { masks: 6, hop_sets: 2, .. }");
        let secret = format!("{:?}", stock.keys.secret_key());
        assert!(!dump.contains(&secret), "key share leaked: {dump}");
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
        let (n, l) = (3, 4);
        let stock = generate(fp(7), 1);
        assert_eq!(stock.fingerprint(), &fp(7));
        assert_eq!(stock.parties.len(), n);
        for (idx, party) in stock.parties.iter().enumerate() {
            assert_eq!(party.shares.len(), n - 1);
            assert_eq!(party.enc.len(), l);
            assert_eq!(party.compare.len(), (n - 1) * l);
            assert_eq!(party.hops.len(), n - 1);
            for (owner, prep, order) in &party.hops {
                assert_ne!(*owner, idx, "a party never hops her own set");
                assert_eq!(prep.len(), (n - 1) * l);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..(n - 1) * l).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_fingerprint() {
        let a = generate(fp(9), 1);
        let b = generate(fp(9), 1);
        let c = generate(fp(10), 1);
        assert_eq!(joint(&a), joint(&b));
        assert_ne!(joint(&a), joint(&c));
        assert_eq!(hops(&a), hops(&b));
        assert_ne!(hops(&a), hops(&c));
    }

    #[test]
    fn cancellation_stops_generation() {
        // Count the polls of a full generation, then cancel at each one.
        let mut total = 0usize;
        let full = OfflineStock::generate(fp(12), 1, || {
            total += 1;
            false
        });
        assert!(full.is_some());
        assert!(total > 3, "polled between parties and batches: {total}");
        for stop in 1..=total {
            let mut polls = 0usize;
            let out = OfflineStock::generate(fp(12), 1, || {
                polls += 1;
                polls >= stop
            });
            assert!(out.is_none(), "cancelled at poll {stop} of {total}");
        }
    }
}
