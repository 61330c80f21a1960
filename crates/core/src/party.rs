//! One participant's phase 2 (paper Fig. 1, steps 5–9) as a round machine
//! with no I/O.
//!
//! A [`PartyMachine`] is party `P_me`'s side of the sorting protocol: its
//! key-share broadcast and multi-verifier proof rounds (Sec. IV-E), its
//! bit encryption, its τ set, its chain hop and its zero count. It holds
//! the party's [`PartyStock`] and every check a party runs on what it
//! receives, and it reads no clock and draws no randomness: everything
//! random is in the stock.
//!
//! The machine walks a fixed script of rounds. Each [`Round`] declares the
//! paper step it belongs to, the [`Phase`] a mesh driver enters for it and
//! the messages it waits for, in receive order; [`PartyMachine::advance`]
//! takes exactly those messages and returns what the party sends next.
//! Two drivers step it: a mesh party thread ([`crate::distributed`]),
//! which sends every message as one frame ([`crate::wire`]), and the
//! [`SortMachine`](crate::sorting::SortMachine), which plays all `n`
//! parties in one process and routes their messages through
//! [`Mailboxes`]. Both therefore run the same exchange, the same checks
//! and the same arithmetic, and return the same sets.
//!
//! A failed check is a [`Fault`] naming the sender whose message failed
//! it. The proof check itself is not run here: after the last prover the
//! machine hands its driver one [`KeygenVerifyJob`] over all `n`
//! transcripts, its own included.

use crate::offline::PartyStock;
use crate::sorting::{chain_hop, count_zeros, tau_set, HopJob, KeygenVerifyJob, SortOptions};
use crate::wire::Writer;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{
    encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, JointKey, KeyPair, MaskPair,
};
use ppgr_group::{Element, FixedBaseTable, Group, Scalar};
use ppgr_hash::Sha256;
use ppgr_net::Phase;
use ppgr_zkp::{MultiVerifierProof, MultiVerifierTranscript, SchnorrNonce};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// The shape of a phase-2 message; the codec gives each one frame layout.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum Kind {
    /// A group element: a key share or a proof commitment.
    Element,
    /// A scalar: a challenge share or a proof response.
    Scalar,
    /// A 32-byte echo of a challenge share.
    Echo,
    /// A ciphertext vector: a bit vector, a τ set or a returned set.
    Ciphertexts,
    /// The chain vector: every party's set, in owner order.
    Chain,
}

/// A phase-2 message, one variant per [`Kind`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) enum Msg {
    Element(Element),
    Scalar(Scalar),
    Echo([u8; 32]),
    Ciphertexts(Vec<Ciphertext>),
    Chain(Vec<Vec<Ciphertext>>),
}

/// One message a round waits for: `(sender, kind, allowances)`, where the
/// allowances are how many of the phase's deadlines the wait may take —
/// `j` for the chain vector at `P_j` (it spans `j − 1` upstream hops), `n`
/// for the returned set, 1 otherwise.
pub(crate) type Expect = (usize, Kind, u32);

/// Where an outgoing message goes.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum To {
    /// Every other participant.
    All,
    /// One participant.
    Party(usize),
}

/// What one [`PartyMachine::advance`] produced: messages to send, in
/// order, and — once, after the last prover — the keygen proof check.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) sends: Vec<(To, Msg)>,
    pub(crate) verify: Option<KeygenVerifyJob>,
}

/// A failed check: the party it blames and what was wrong. A fault no
/// received message could cause (a driver bug) blames the machine's own
/// party.
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) struct Fault {
    pub(crate) party: usize,
    pub(crate) what: String,
}

/// The round a machine waits in: its paper step (Fig. 1, 5–9), the phase
/// a mesh driver enters for it, and what it waits for, in receive order.
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) struct Round {
    pub(crate) step: u8,
    pub(crate) phase: Phase,
    pub(crate) expects: Vec<Expect>,
}

/// What a round does.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Act {
    /// Publish the key share.
    PublishKey,
    /// Take the other key shares.
    Keys,
    /// As prover: publish the commitment.
    Commit,
    /// As verifier: take `prover`'s commitment, publish a challenge share
    /// and its echo.
    Commitment { prover: usize },
    /// Take `from`'s challenge share for `prover` and check its echo.
    Share { prover: usize, from: usize },
    /// As prover: answer the summed challenge.
    Respond,
    /// As verifier: take `prover`'s response.
    Response { prover: usize },
    /// Hand out the check of every transcript.
    Verify,
    /// Publish the encrypted bits.
    Encrypt,
    /// Take `from`'s encrypted bits.
    Bits { from: usize },
    /// Compute the τ set.
    Compare,
    /// Send the τ set to `P₁` (in the hop phase).
    SendTau,
    /// `P₁` takes `from`'s τ set.
    Tau { from: usize },
    /// Take the chain vector (`P₁` holds it already), hop, pass it on.
    Hop,
    /// Take the returned set (`P_n` kept it) and count its zeros.
    Finish,
}

/// Party `me`'s phase-2 script, in the mesh's order.
fn script(me: usize, n: usize) -> VecDeque<Act> {
    let others = |skip: usize| (1..=n).filter(move |&j| j != me && j != skip);
    let mut acts = vec![Act::PublishKey, Act::Keys];
    for prover in 1..=n {
        if prover == me {
            acts.push(Act::Commit);
            acts.extend(others(me).map(|from| Act::Share { prover, from }));
            acts.push(Act::Respond);
        } else {
            acts.push(Act::Commitment { prover });
            acts.extend(others(prover).map(|from| Act::Share { prover, from }));
            acts.push(Act::Response { prover });
        }
    }
    acts.extend([Act::Verify, Act::Encrypt]);
    acts.extend(others(me).map(|from| Act::Bits { from }));
    acts.push(Act::Compare);
    if me == 1 {
        acts.extend((2..=n).map(|from| Act::Tau { from }));
    } else {
        acts.push(Act::SendTau);
    }
    acts.extend([Act::Hop, Act::Finish]);
    acts.into()
}

/// In-memory mailboxes: one FIFO per directed lane between participants.
#[derive(Debug)]
pub(crate) struct Mailboxes {
    n: usize,
    lanes: Vec<VecDeque<Msg>>,
}

impl Mailboxes {
    pub(crate) fn new(n: usize) -> Self {
        let lanes = vec![VecDeque::new(); n * n];
        Mailboxes { n, lanes }
    }

    /// Takes the messages `expects` names for `to`, in order, once every
    /// one of them has arrived.
    pub(crate) fn take(&mut self, to: usize, expects: &[Expect]) -> Option<Vec<Msg>> {
        let n = self.n;
        let lane = move |from: usize| (from - 1) * n + to - 1;
        let needed = |from: usize| expects.iter().filter(|e| e.0 == from).count();
        let arrived = expects
            .iter()
            .all(|e| self.lanes[lane(e.0)].len() >= needed(e.0));
        let lanes = &mut self.lanes;
        arrived.then(|| {
            expects
                .iter()
                .filter_map(|e| lanes[lane(e.0)].pop_front())
                .collect()
        })
    }

    /// Queues `from`'s sends on their lanes; only a broadcast is copied.
    pub(crate) fn post(&mut self, from: usize, sends: Vec<(To, Msg)>) {
        let n = self.n;
        for (to, msg) in sends {
            let mut targets: Vec<usize> = match to {
                To::All => (1..=n).filter(|&j| j != from).collect(),
                To::Party(j) => vec![j],
            };
            let last = targets.pop();
            for j in targets {
                self.lanes[(from - 1) * n + j - 1].push_back(msg.clone());
            }
            if let Some(j) = last {
                self.lanes[(from - 1) * n + j - 1].push_back(msg);
            }
        }
    }
}

/// Takes the next inbox message as the given [`Msg`] variant; anything
/// else is a driver bug.
macro_rules! take {
    ($self:ident, $inbox:ident, $variant:ident) => {
        match $inbox.next() {
            Some(Msg::$variant(v)) => v,
            _ => return Err($self.internal("inbox does not match the round")),
        }
    };
}

/// Participant `P_me`'s phase 2 (see the module docs).
pub(crate) struct PartyMachine {
    scheme: ExpElGamal,
    me: usize,
    n: usize,
    l: usize,
    value: BigUint,
    options: SortOptions,
    workers: usize,
    acts: VecDeque<Act>,
    // The stock, spent round by round.
    keys: KeyPair,
    nonce: Option<SchnorrNonce>,
    shares: Vec<Scalar>,
    enc: Vec<MaskPair>,
    compare: Vec<MaskPair>,
    hops: Vec<HopJob>,
    /// The joint key's table: offered at construction, checked or prepared
    /// once the key shares are in.
    table: Option<FixedBaseTable>,
    /// Every key share and every prover's transcript, party order, filled
    /// in as the exchange runs.
    key_shares: Vec<Element>,
    proofs: Vec<MultiVerifierTranscript>,
    /// Every opponent's bit vector, party order (the own slot stays empty).
    bits: Vec<Vec<Ciphertext>>,
    /// The own τ set, then the chain vector (`P_n` keeps its own set).
    sets: Vec<Vec<Ciphertext>>,
    /// The returned set and its zero count.
    result: Option<(Vec<Ciphertext>, usize)>,
}

impl fmt::Debug for PartyMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartyMachine")
            .field("me", &self.me)
            .field("rounds_left", &self.acts.len())
            .finish_non_exhaustive()
    }
}

impl PartyMachine {
    /// Party `me` of an `n`-party session on `l`-bit values, holding
    /// `value` and its stock, whose masks may be bare or filled.
    ///
    /// `table` is a prepared table for the joint key, when the caller has
    /// one (the simulation's stock carries it); a table whose base is not
    /// the joint key the received shares combine to is an internal fault.
    /// Without one the machine prepares its own. `options` and `workers`
    /// are the hop's switches and every step's worker count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        group: &Group,
        me: usize,
        n: usize,
        l: usize,
        value: BigUint,
        stock: PartyStock,
        table: Option<FixedBaseTable>,
        options: SortOptions,
        workers: usize,
    ) -> Self {
        let PartyStock {
            keys,
            nonce,
            shares,
            enc,
            compare,
            hops,
        } = stock;
        let placeholder = MultiVerifierTranscript {
            commitment: group.identity(),
            challenges: vec![group.scalar_from_u64(0); n - 1],
            response: group.scalar_from_u64(0),
        };
        let mut proofs = vec![placeholder; n];
        proofs[me - 1].commitment = nonce.commitment().clone();
        let mut key_shares = vec![group.identity(); n];
        key_shares[me - 1] = keys.public_key().clone();
        PartyMachine {
            scheme: ExpElGamal::new(group.clone()),
            me,
            n,
            l,
            value,
            options,
            workers,
            acts: script(me, n),
            keys,
            nonce: Some(nonce),
            shares,
            enc,
            compare,
            hops,
            table,
            key_shares,
            proofs,
            bits: vec![Vec::new(); n],
            sets: Vec::new(),
            result: None,
        }
    }

    /// The round the machine waits in, or `None` once it has finished.
    pub(crate) fn round(&self) -> Option<Round> {
        let (me, n) = (self.me, self.n);
        let one = |from: usize, kind: Kind| vec![(from, kind, 1)];
        let (step, phase, expects) = match *self.acts.front()? {
            Act::PublishKey | Act::Commit | Act::Respond | Act::Verify => {
                (5, Phase::KeyGen, vec![])
            }
            Act::Keys => {
                let keys = (1..=n).filter(|&j| j != me);
                (
                    5,
                    Phase::KeyGen,
                    keys.map(|j| (j, Kind::Element, 1)).collect(),
                )
            }
            Act::Commitment { prover } => (5, Phase::KeyGen, one(prover, Kind::Element)),
            Act::Share { from, .. } => (
                5,
                Phase::KeyGen,
                vec![(from, Kind::Scalar, 1), (from, Kind::Echo, 1)],
            ),
            Act::Response { prover } => (5, Phase::KeyGen, one(prover, Kind::Scalar)),
            Act::Encrypt => (6, Phase::Encrypt, vec![]),
            Act::Bits { from } => (6, Phase::Encrypt, one(from, Kind::Ciphertexts)),
            Act::Compare => (7, Phase::Compare, vec![]),
            Act::SendTau => (7, Phase::Hop, vec![]),
            Act::Tau { from } => (8, Phase::Hop, one(from, Kind::Ciphertexts)),
            Act::Hop if me == 1 => (8, Phase::Hop, vec![]),
            Act::Hop => (8, Phase::Hop, vec![(me - 1, Kind::Chain, me as u32)]),
            Act::Finish if me == n => (9, Phase::Hop, vec![]),
            Act::Finish => (9, Phase::Hop, vec![(n, Kind::Ciphertexts, n as u32)]),
        };
        Some(Round {
            step,
            phase,
            expects,
        })
    }

    /// The party's key pair, its set as `P_n` returned it (before its own
    /// decryption) and that set's zero count, once the machine finished.
    pub(crate) fn into_result(self) -> Option<(KeyPair, Vec<Ciphertext>, usize)> {
        let (set, zeros) = self.result?;
        Some((self.keys, set, zeros))
    }

    /// Runs the current round on `inbox`, the messages its [`Round`] waits
    /// for, in that order.
    ///
    /// # Errors
    ///
    /// A [`Fault`] naming the sender of the message that failed a check,
    /// or the machine's own party if the inbox does not fit the round.
    pub(crate) fn advance(&mut self, inbox: Vec<Msg>) -> Result<Outbox, Fault> {
        let (me, n, group) = (self.me, self.n, self.scheme.group());
        let act = self
            .acts
            .pop_front()
            .ok_or_else(|| self.internal("advanced past the finish"))?;
        let mut inbox = inbox.into_iter();
        let mut out = Outbox::default();
        let mut send = |to: To, msg: Msg| out.sends.push((to, msg));
        match act {
            Act::PublishKey => send(To::All, Msg::Element(self.key_shares[me - 1].clone())),
            Act::Keys => {
                for j in (1..=n).filter(|&j| j != me) {
                    self.key_shares[j - 1] = take!(self, inbox, Element);
                }
            }
            Act::Commit => send(
                To::All,
                Msg::Element(self.proofs[me - 1].commitment.clone()),
            ),
            Act::Commitment { prover } => {
                self.proofs[prover - 1].commitment = take!(self, inbox, Element);
                // My shares were minted for the other provers in ascending
                // order.
                let share = self.shares[prover - 1 - usize::from(prover > me)].clone();
                send(To::All, Msg::Scalar(share.clone()));
                send(To::All, Msg::Echo(share_digest(group, prover, me, &share)));
                self.proofs[prover - 1].challenges[verifier_rank(prover, me)] = share;
            }
            Act::Share { prover, from } => {
                let share = take!(self, inbox, Scalar);
                if take!(self, inbox, Echo) != share_digest(group, prover, from, &share) {
                    let what =
                        "challenge share inconsistent with its echo (equivocating broadcast)";
                    return Err(fault(from, what));
                }
                self.proofs[prover - 1].challenges[verifier_rank(prover, from)] = share;
            }
            Act::Respond => {
                let challenges = std::mem::take(&mut self.proofs[me - 1].challenges);
                let secret = self.keys.secret_key();
                let proof = self
                    .nonce
                    .take()
                    .map(|nonce| MultiVerifierProof::assemble(group, secret, nonce, challenges))
                    .ok_or_else(|| self.internal("nonce already spent"))?;
                send(To::All, Msg::Scalar(proof.response.clone()));
                self.proofs[me - 1] = proof;
            }
            Act::Response { prover } => {
                self.proofs[prover - 1].response = take!(self, inbox, Scalar);
            }
            Act::Verify => {
                let proofs = std::mem::take(&mut self.proofs);
                let job = KeygenVerifyJob::new(group, self.key_shares.clone(), proofs);
                out.verify = Some(job);
            }
            Act::Encrypt => {
                let joint = JointKey::combine(group, &self.key_shares);
                let table = match self.table.take() {
                    None => self.scheme.prepare_key(joint.public_key()),
                    Some(table) if table.base() == joint.public_key() => table,
                    Some(_) => {
                        return Err(self.internal("the offered table is not the joint key's"))
                    }
                };
                let masks = std::mem::take(&mut self.enc);
                let bits =
                    encrypt_bits_with_precomputed(&self.scheme, &table, &self.value, self.l, masks);
                send(To::All, Msg::Ciphertexts(bits));
                self.table = Some(table);
            }
            Act::Bits { from } => {
                let bits = take!(self, inbox, Ciphertexts);
                check(group, &bits, from, self.l, "encrypted bit vector")?;
                self.bits[from - 1] = bits;
            }
            Act::Compare => {
                let table = self
                    .table
                    .as_ref()
                    .ok_or_else(|| self.internal("no joint-key table"))?;
                let opponents: Vec<&[Ciphertext]> = (1..=n)
                    .filter(|&j| j != me)
                    .map(|j| self.bits[j - 1].as_slice())
                    .collect();
                let masks = std::mem::take(&mut self.compare);
                let (value, workers) = (&self.value, self.workers);
                let tau = tau_set(
                    &self.scheme,
                    table,
                    &opponents,
                    value,
                    self.l,
                    masks,
                    workers,
                );
                self.sets.push(tau);
                self.bits = Vec::new();
            }
            Act::SendTau => send(
                To::Party(1),
                Msg::Ciphertexts(self.sets.pop().unwrap_or_default()),
            ),
            Act::Tau { from } => {
                let tau = take!(self, inbox, Ciphertexts);
                check(group, &tau, from, (n - 1) * self.l, "comparison set")?;
                self.sets.push(tau);
            }
            Act::Hop => {
                if me > 1 {
                    let chain = take!(self, inbox, Chain);
                    if chain.len() != n {
                        return Err(fault(me - 1, "chain vector has wrong arity"));
                    }
                    for set in &chain {
                        check(group, set, me - 1, (n - 1) * self.l, "comparison set")?;
                    }
                    self.sets = chain;
                }
                let (jobs, secret) = (std::mem::take(&mut self.hops), self.keys.secret_key());
                chain_hop(
                    &self.scheme,
                    &mut self.sets,
                    &jobs,
                    secret,
                    self.options,
                    self.workers,
                );
                if me < n {
                    send(
                        To::Party(me + 1),
                        Msg::Chain(std::mem::take(&mut self.sets)),
                    );
                } else {
                    // P_n returns every other set to its owner.
                    let others = self.sets.drain(..n - 1);
                    for (owner, set) in (1..n).zip(others) {
                        send(To::Party(owner), Msg::Ciphertexts(set));
                    }
                }
            }
            Act::Finish => {
                let set = if me < n {
                    let set = take!(self, inbox, Ciphertexts);
                    check(group, &set, n, (n - 1) * self.l, "comparison set")?;
                    set
                } else {
                    self.sets.pop().unwrap_or_default()
                };
                let zeros = count_zeros(&self.scheme, &set, self.keys.secret_key(), self.workers);
                self.result = Some((set, zeros));
            }
        }
        Ok(out)
    }

    fn internal(&self, what: &str) -> Fault {
        fault(self.me, format!("internal: {what}"))
    }
}

fn fault(party: usize, what: impl Into<String>) -> Fault {
    let what = what.into();
    Fault { party, what }
}

/// Where verifier `v`'s challenge share sits in `prover`'s transcript:
/// shares run in verifier order, the prover skipped.
fn verifier_rank(prover: usize, v: usize) -> usize {
    v - 1 - usize::from(v > prover)
}

/// Domain-separated digest binding a keygen challenge share to its prover
/// round and sender. Broadcast as an echo right after the share itself, so
/// every receiver can check that the share bytes it was handed match the
/// sender's public claim — an equivocating verifier (different shares down
/// different lanes) is caught by whoever got the minority bytes, with
/// first-hand evidence against the sender.
///
/// Hashing consumes no randomness, so fault-free transcripts are
/// unaffected. Caveat (see `docs/FAULTS.md`): a *wire-level* adversary
/// that tampers both the share and its echo on the same lane defeats this
/// attribution; frames are unsigned, so the mesh lane itself is trusted.
fn share_digest(group: &Group, prover: usize, sender: usize, share: &Scalar) -> [u8; 32] {
    let mut w = Writer::new();
    w.put_u64(prover as u64);
    w.put_u64(sender as u64);
    w.put_scalar(group, share);
    let mut h = Sha256::new();
    h.update(b"ppgr keygen echo v1");
    h.update(&w.finish());
    h.finalize()
}

/// Structural integrity of a bit vector or comparison set (`what`)
/// received from `from`: exactly `len` ciphertexts, none serialising like
/// another.
///
/// Honest parties re-randomize every element they produce or forward, so
/// a repeat happens with negligible probability — an observed duplicate is
/// an inconsistent shuffle (an element copied over another to bias the
/// zero count). And since every hop re-encrypts and re-shuffles each set
/// it forwards, honest relays always pass: a violation implicates the
/// immediate sender, never an upstream party whose bytes were merely
/// relayed.
fn check(
    group: &Group,
    cts: &[Ciphertext],
    from: usize,
    len: usize,
    what: &str,
) -> Result<(), Fault> {
    if cts.len() != len {
        let found = cts.len();
        return Err(fault(
            from,
            format!("{what} carries {found} ciphertexts, expected {len}"),
        ));
    }
    let mut seen = HashSet::with_capacity(len);
    for ct in cts {
        let mut key = group.encode(&ct.alpha);
        key.extend_from_slice(&group.encode(&ct.beta));
        if !seen.insert(key) {
            return Err(fault(from, format!("duplicate ciphertext in {what}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{OfflineStock, StockFingerprint};
    use ppgr_group::GroupKind;

    const L: usize = 4;

    /// Three ECC-160 parties on the simulation's stock, with their
    /// mailboxes.
    struct Session {
        group: Group,
        parties: Vec<PartyMachine>,
        mail: Mailboxes,
    }

    /// The session, with `foreign` offering party 2 another table.
    fn session(foreign: Option<FixedBaseTable>) -> Session {
        let n = 3;
        let fp = StockFingerprint::new(41, n, L, GroupKind::Ecc160);
        let stock = OfflineStock::generate(fp, 1, || false).expect("never cancelled");
        let group = GroupKind::Ecc160.group();
        let OfflineStock {
            parties,
            table: joint,
            ..
        } = stock;
        let parties = parties
            .into_iter()
            .zip([9u64, 3, 12])
            .enumerate()
            .map(|(idx, (own, value))| {
                let table = match (&foreign, idx) {
                    (Some(other), 1) => Some(other.clone()),
                    _ => Some(joint.clone()),
                };
                let value = BigUint::from(value);
                let options = SortOptions::default();
                PartyMachine::new(&group, idx + 1, n, L, value, own, table, options, 1)
            })
            .collect();
        Session {
            group,
            parties,
            mail: Mailboxes::new(n),
        }
    }

    impl Session {
        /// Advances every party whose messages are in, until `party`'s next
        /// round is `act`; returns that round's inbox, taken from the
        /// mailboxes.
        fn inbox_at(&mut self, party: usize, act: Act) -> Vec<Msg> {
            loop {
                let mut moved = false;
                for idx in 0..self.parties.len() {
                    let Some(round) = self.parties[idx].round() else {
                        continue;
                    };
                    let stop = idx + 1 == party && self.parties[idx].acts.front() == Some(&act);
                    let Some(inbox) = self.mail.take(idx + 1, &round.expects) else {
                        continue;
                    };
                    if stop {
                        return inbox;
                    }
                    let out = self.parties[idx].advance(inbox).expect("honest round");
                    self.mail.post(idx + 1, out.sends);
                    moved = true;
                }
                assert!(moved, "stalled before party {party} reached {act:?}");
            }
        }

        /// Runs `party`'s current round on `inbox` and returns whom it
        /// blamed.
        fn blamed(&mut self, party: usize, inbox: Vec<Msg>) -> usize {
            self.parties[party - 1]
                .advance(inbox)
                .expect_err("the crafted inbox must fail a check")
                .party
        }
    }

    fn ciphertexts(inbox: &mut [Msg]) -> &mut Vec<Ciphertext> {
        match &mut inbox[0] {
            Msg::Ciphertexts(cts) => cts,
            other => panic!("expected ciphertexts, got {other:?}"),
        }
    }

    #[test]
    fn a_wrong_length_or_duplicated_bit_vector_blames_its_sender() {
        let mut s = session(None);
        let mut inbox = s.inbox_at(1, Act::Bits { from: 2 });
        ciphertexts(&mut inbox).pop();
        assert_eq!(s.blamed(1, inbox), 2);

        let mut s = session(None);
        let mut inbox = s.inbox_at(1, Act::Bits { from: 3 });
        let bits = ciphertexts(&mut inbox);
        bits[1] = bits[0].clone();
        assert_eq!(s.blamed(1, inbox), 3);
    }

    #[test]
    fn a_wrong_size_or_duplicated_set_blames_its_sender() {
        let mut s = session(None);
        let mut inbox = s.inbox_at(1, Act::Tau { from: 3 });
        ciphertexts(&mut inbox).push(Ciphertext {
            alpha: s.group.identity(),
            beta: s.group.generator().clone(),
        });
        assert_eq!(s.blamed(1, inbox), 3);

        let mut s = session(None);
        let mut inbox = s.inbox_at(1, Act::Tau { from: 2 });
        let set = ciphertexts(&mut inbox);
        set[3] = set[2].clone();
        assert_eq!(s.blamed(1, inbox), 2);

        // The returned set is checked the same way, against P_n.
        let mut s = session(None);
        let mut inbox = s.inbox_at(2, Act::Finish);
        ciphertexts(&mut inbox).truncate(1);
        assert_eq!(s.blamed(2, inbox), 3);
    }

    #[test]
    fn a_wrong_chain_arity_or_bad_chain_set_blames_the_predecessor() {
        let mut s = session(None);
        let mut inbox = s.inbox_at(3, Act::Hop);
        let Msg::Chain(chain) = &mut inbox[0] else {
            panic!("expected the chain vector");
        };
        chain.pop();
        assert_eq!(s.blamed(3, inbox), 2);

        let mut s = session(None);
        let mut inbox = s.inbox_at(2, Act::Hop);
        let Msg::Chain(chain) = &mut inbox[0] else {
            panic!("expected the chain vector");
        };
        chain[2][0] = chain[2][1].clone();
        assert_eq!(s.blamed(2, inbox), 1);
    }

    #[test]
    fn an_echo_mismatch_blames_the_share_sender() {
        // P3's share for prover 1 arrives altered at the prover; its echo
        // no longer matches.
        let mut s = session(None);
        let mut inbox = s.inbox_at(1, Act::Share { prover: 1, from: 3 });
        inbox[0] = Msg::Scalar(s.group.scalar_from_u64(5));
        assert_eq!(s.blamed(1, inbox), 3);
        // A verifier checks the other verifiers' echoes too.
        let mut s = session(None);
        let mut inbox = s.inbox_at(2, Act::Share { prover: 1, from: 3 });
        inbox[1] = Msg::Echo([0; 32]);
        assert_eq!(s.blamed(2, inbox), 3);
    }

    #[test]
    fn an_offered_table_for_another_key_is_an_internal_fault() {
        let group = GroupKind::Ecc160.group();
        let foreign = ExpElGamal::new(group.clone()).prepare_key(group.generator());
        let mut s = session(Some(foreign));
        let inbox = s.inbox_at(2, Act::Encrypt);
        let fault = s.parties[1].advance(inbox).expect_err("foreign table");
        assert_eq!(fault.party, 2);
        assert!(fault.what.contains("not the joint key's"), "{}", fault.what);
    }

    #[test]
    fn an_inbox_that_does_not_fit_the_round_is_an_internal_fault() {
        let mut s = session(None);
        let inbox = s.inbox_at(1, Act::Keys);
        assert_eq!(inbox.len(), 2);
        let fault = s.parties[0]
            .advance(vec![inbox[0].clone()])
            .expect_err("short");
        assert_eq!(fault.party, 1);
    }

    #[test]
    fn scripts_wait_for_what_the_mesh_receives() {
        // P2 of three: key shares from P1 and P3, then per prover the
        // commitment, the other verifier's share and echo, the response.
        let mut machine = session(None).parties.remove(1);
        let mut rounds = Vec::new();
        while let Some(Round {
            step,
            phase,
            expects,
        }) = machine.round()
        {
            if !expects.is_empty() {
                rounds.push((step, phase, expects));
            }
            machine.acts.pop_front();
        }
        use Kind::*;
        let keygen = |expects: Vec<(usize, Kind, u32)>| (5, Phase::KeyGen, expects);
        assert_eq!(
            rounds,
            vec![
                keygen(vec![(1, Element, 1), (3, Element, 1)]),
                keygen(vec![(1, Element, 1)]),
                keygen(vec![(3, Scalar, 1), (3, Echo, 1)]),
                keygen(vec![(1, Scalar, 1)]),
                keygen(vec![(1, Scalar, 1), (1, Echo, 1)]),
                keygen(vec![(3, Scalar, 1), (3, Echo, 1)]),
                keygen(vec![(3, Element, 1)]),
                keygen(vec![(1, Scalar, 1), (1, Echo, 1)]),
                keygen(vec![(3, Scalar, 1)]),
                (6, Phase::Encrypt, vec![(1, Ciphertexts, 1)]),
                (6, Phase::Encrypt, vec![(3, Ciphertexts, 1)]),
                (8, Phase::Hop, vec![(1, Chain, 2)]),
                (9, Phase::Hop, vec![(3, Ciphertexts, 3)]),
            ]
        );
    }
}
