//! Every party's side of the protocol (paper Fig. 1) as a round machine
//! with no I/O.
//!
//! A [`PartyMachine`] is participant `P_me`'s side. In a whole session it
//! runs its secure dot product with the initiator (steps 1–4), then its
//! phase 2 — its key-share broadcast and multi-verifier proof rounds
//! (Sec. IV-E), its bit encryption, its τ set, its chain hop and its zero
//! count (steps 5–9) — and last its submission or decline. Built from a
//! `β` instead of an information vector, it runs phase 2 alone. An
//! [`InitiatorMachine`] is `P₀`'s side: it answers every participant's dot
//! product, gathers the submissions and verifies them. Each machine holds
//! every check its party runs on what it receives, and none reads a clock
//! or draws randomness in a round: a participant's phase-2 randomness is
//! in its [`PartyStock`], and each party's phase-1 draws are made when its
//! machine is built.
//!
//! A machine walks a fixed script of rounds. Each [`Round`] declares the
//! paper step it belongs to, the [`Phase`] a mesh driver enters for it and
//! the messages it waits for, in receive order; [`Machine::advance`] takes
//! exactly those messages and returns what the party sends next. Two
//! drivers step the machines: a mesh party thread ([`crate::distributed`]),
//! which sends every message as one frame ([`crate::wire`]), and the
//! [`SortMachine`](crate::sorting::SortMachine), which plays every party in
//! one process and routes their messages through [`Mailboxes`]. Both
//! therefore run the same exchange, the same checks and the same
//! arithmetic, and return the same results.
//!
//! A failed check is a [`Fault`] naming the sender whose message failed
//! it. The proof check itself is not run here: after the last prover a
//! participant's machine hands its driver one [`KeygenVerifyJob`] over all
//! `n` transcripts, its own included.

use crate::attrs::{InfoVector, InitiatorProfile};
use crate::gain::{draw_rho, initiator_vector, participant_vector, to_unsigned};
use crate::offline::{party_streams, PartyStock};
use crate::params::FrameworkParams;
use crate::sorting::{chain_hop, count_zeros, tau_set, HopJob, KeygenVerifyJob};
use crate::submit::{verify_submissions, Submission, VerificationReport};
use crate::wire::Writer;
use ppgr_bigint::{BigUint, Fp};
use ppgr_dotprod::{default_field, DotProduct, Round1Message, Round2Message, SenderState};
use ppgr_elgamal::{
    encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, JointKey, KeyPair, MaskPair,
};
use ppgr_group::{Element, FixedBaseTable, Group, Scalar};
use ppgr_hash::Sha256;
use ppgr_net::Phase;
use ppgr_zkp::{MultiVerifierProof, MultiVerifierTranscript, SchnorrNonce};
use rand::Rng;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// The shape of a message; the codec gives each one frame layout.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum Kind {
    /// A participant's dot-product round 1, to `P₀`.
    Round1,
    /// `P₀`'s dot-product reply.
    Reply,
    /// A participant's submission or decline, to `P₀`.
    Submission,
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

/// A message, one variant per [`Kind`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) enum Msg {
    Round1(Round1Message),
    Reply(Round2Message),
    /// A claimed rank and the information values, or `None` to decline.
    Submission(Option<(usize, Vec<u64>)>),
    Element(Element),
    Scalar(Scalar),
    Echo([u8; 32]),
    Ciphertexts(Vec<Ciphertext>),
    Chain(Vec<Vec<Ciphertext>>),
}

/// How long a mesh driver lets one wait take.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum Wait {
    /// This many of the phase's deadlines: `j` for `P₀`'s reply to `P_j`
    /// (it serves `j − 1` participants first) and for the chain vector at
    /// `P_j` (it spans `j − 1` upstream hops), `n` for the returned set, 1
    /// otherwise.
    Phases(u32),
    /// The whole session's budget: `P₀`'s first submission legitimately
    /// waits out every participant's phase 2.
    Session,
}

/// One message a round waits for: `(sender, kind, wait)`.
pub(crate) type Expect = (usize, Kind, Wait);

/// Where an outgoing message goes.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum To {
    /// Every other participant (never `P₀`).
    All,
    /// One party, `P₀` included.
    Party(usize),
}

/// What one [`Machine::advance`] produced: messages to send, in order,
/// and — once, after the last prover — the keygen proof check.
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

/// The round a machine waits in: its paper step (Fig. 1: 1–4 for phase 1,
/// 5–9 for phase 2, 10 for the submission), the phase a mesh driver
/// enters for it, and what it waits for, in receive order.
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) struct Round {
    pub(crate) step: u8,
    pub(crate) phase: Phase,
    pub(crate) expects: Vec<Expect>,
}

/// One party's side of the protocol, which a driver steps round by round.
pub(crate) trait Machine {
    /// The round the machine waits in, or `None` once it has finished.
    fn round(&self) -> Option<Round>;

    /// Runs the current round on `inbox`, the messages its [`Round`] waits
    /// for, in that order.
    ///
    /// # Errors
    ///
    /// A [`Fault`] naming the sender of the message that failed a check,
    /// or the machine's own party if the inbox does not fit the round.
    fn advance(&mut self, inbox: Vec<Msg>) -> Result<Outbox, Fault>;
}

/// What a participant's round does.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Act {
    /// Send `P₀` the dot product's round 1.
    Round1,
    /// Take `P₀`'s reply and unblind the masked gain `β`.
    Unblind,
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
    /// Send `P₀` the submission, or decline.
    Submit,
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

/// In-memory mailboxes: one FIFO per directed lane between any two of
/// `P₀ … P_n`.
#[derive(Debug)]
pub(crate) struct Mailboxes {
    n: usize,
    lanes: Vec<VecDeque<Msg>>,
}

impl Mailboxes {
    pub(crate) fn new(n: usize) -> Self {
        let lanes = vec![VecDeque::new(); (n + 1) * (n + 1)];
        Mailboxes { n, lanes }
    }

    /// Takes the messages `expects` names for `to`, in order, once every
    /// one of them has arrived.
    pub(crate) fn take(&mut self, to: usize, expects: &[Expect]) -> Option<Vec<Msg>> {
        let n = self.n;
        let lane = move |from: usize| from * (n + 1) + to;
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
        let lane = move |to: usize| from * (n + 1) + to;
        for (to, msg) in sends {
            let mut targets: Vec<usize> = match to {
                To::All => (1..=n).filter(|&j| j != from).collect(),
                To::Party(j) => vec![j],
            };
            let last = targets.pop();
            for j in targets {
                self.lanes[lane(j)].push_back(msg.clone());
            }
            if let Some(j) = last {
                self.lanes[lane(j)].push_back(msg);
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

/// Participant `P_me`'s side (see the module docs).
pub(crate) struct PartyMachine {
    scheme: ExpElGamal,
    me: usize,
    n: usize,
    l: usize,
    /// `β`: given, or unblinded in phase 1.
    value: BigUint,
    workers: usize,
    acts: VecDeque<Act>,
    /// In a whole session: the dot product's round 1 until it is sent,
    /// the state that unblinds the reply, and phase 3's information
    /// vector and `k`.
    round1: Option<Round1Message>,
    sender: Option<SenderState>,
    submit: Option<(InfoVector, usize)>,
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
    /// Party `me`'s phase 2, holding `value` and its stock, whose masks
    /// may be bare or filled. The stock gives the session's shape: one
    /// challenge share per other party, so `n` parties, and one encryption
    /// mask per bit, so `l`-bit values.
    ///
    /// `table` is a prepared table for the joint key, when the caller has
    /// one (the simulation's stock carries it); a table whose base is not
    /// the joint key the received shares combine to is an internal fault.
    /// Without one the machine prepares its own. `workers` is every step's
    /// worker count.
    pub(crate) fn new(
        group: &Group,
        me: usize,
        value: BigUint,
        stock: PartyStock,
        table: Option<FixedBaseTable>,
        workers: usize,
    ) -> Self {
        let (n, l) = (stock.shares.len() + 1, stock.enc.len());
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
            workers,
            acts: script(me, n),
            round1: None,
            sender: None,
            submit: None,
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

    /// Party `me`'s whole session of `params` on its information vector
    /// `info`: phase 1, then phase 2 on its stock, then its submission.
    /// Round 1 of its dot product is computed here, from the party's
    /// online stream — its only online draw. `table` and `workers` are as
    /// for [`PartyMachine::new`].
    pub(crate) fn session(
        params: &FrameworkParams,
        me: usize,
        info: InfoVector,
        stock: PartyStock,
        table: Option<FixedBaseTable>,
        workers: usize,
    ) -> Self {
        let field = default_field();
        let w = participant_vector(&field, params.questionnaire(), &info);
        let mut online = party_streams(params.seed(), me).0;
        let (sender, round1) = DotProduct::new(field).sender_round1(&w, &mut online);
        let group = params.group().group();
        let phase2 = Self::new(&group, me, BigUint::zero(), stock, table, workers);
        let mut acts = VecDeque::from([Act::Round1, Act::Unblind]);
        acts.extend(script(me, phase2.n));
        acts.push_back(Act::Submit);
        PartyMachine {
            acts,
            round1: Some(round1),
            sender: Some(sender),
            submit: Some((info, params.top_k())),
            ..phase2
        }
    }

    /// The party's `β`: given, or unblinded once phase 1 ran.
    pub(crate) fn value(&self) -> &BigUint {
        &self.value
    }

    /// The party's key pair, its set as `P_n` returned it (before its own
    /// decryption) and that set's zero count, once the machine finished
    /// phase 2.
    pub(crate) fn into_result(self) -> Option<(KeyPair, Vec<Ciphertext>, usize)> {
        let (set, zeros) = self.result?;
        Some((self.keys, set, zeros))
    }

    fn internal(&self, what: &str) -> Fault {
        fault(self.me, format!("internal: {what}"))
    }
}

impl Machine for PartyMachine {
    fn round(&self) -> Option<Round> {
        use Wait::Phases;
        let (me, n) = (self.me, self.n);
        let one = |from: usize, kind: Kind| (from, kind, Phases(1));
        let (step, phase, expects) = match *self.acts.front()? {
            Act::Round1 => (3, Phase::Gain, vec![]),
            Act::Unblind => (4, Phase::Gain, vec![(0, Kind::Reply, Phases(me as u32))]),
            Act::PublishKey | Act::Commit | Act::Respond | Act::Verify => {
                (5, Phase::KeyGen, vec![])
            }
            Act::Keys => {
                let keys = (1..=n).filter(|&j| j != me).map(|j| one(j, Kind::Element));
                (5, Phase::KeyGen, keys.collect())
            }
            Act::Commitment { prover } => (5, Phase::KeyGen, vec![one(prover, Kind::Element)]),
            Act::Share { from, .. } => (
                5,
                Phase::KeyGen,
                vec![one(from, Kind::Scalar), one(from, Kind::Echo)],
            ),
            Act::Response { prover } => (5, Phase::KeyGen, vec![one(prover, Kind::Scalar)]),
            Act::Encrypt => (6, Phase::Encrypt, vec![]),
            Act::Bits { from } => (6, Phase::Encrypt, vec![one(from, Kind::Ciphertexts)]),
            Act::Compare => (7, Phase::Compare, vec![]),
            Act::SendTau => (7, Phase::Hop, vec![]),
            Act::Tau { from } => (8, Phase::Hop, vec![one(from, Kind::Ciphertexts)]),
            Act::Hop if me == 1 => (8, Phase::Hop, vec![]),
            Act::Hop => (
                8,
                Phase::Hop,
                vec![(me - 1, Kind::Chain, Phases(me as u32))],
            ),
            Act::Finish if me == n => (9, Phase::Hop, vec![]),
            Act::Finish => (
                9,
                Phase::Hop,
                vec![(n, Kind::Ciphertexts, Phases(n as u32))],
            ),
            Act::Submit => (10, Phase::Submit, vec![]),
        };
        Some(Round {
            step,
            phase,
            expects,
        })
    }

    fn advance(&mut self, inbox: Vec<Msg>) -> Result<Outbox, Fault> {
        let (me, n, group) = (self.me, self.n, self.scheme.group());
        let act = self
            .acts
            .pop_front()
            .ok_or_else(|| self.internal("advanced past the finish"))?;
        let mut inbox = inbox.into_iter();
        let mut out = Outbox::default();
        let mut send = |to: To, msg: Msg| out.sends.push((to, msg));
        match act {
            Act::Round1 => {
                let Some(round1) = self.round1.take() else {
                    return Err(self.internal("round 1 already sent"));
                };
                send(To::Party(0), Msg::Round1(round1));
            }
            Act::Unblind => {
                let reply = take!(self, inbox, Reply);
                let Some(sender) = self.sender.take() else {
                    return Err(self.internal("no dot-product state"));
                };
                // The reply is the initiator's: a masked gain outside the
                // `l`-bit window can only come from a bad reply.
                let (l, half) = (self.l, 1i128 << (self.l - 1));
                self.value = match sender.finish(&reply).to_i128_centered() {
                    Some(v) if (-half..half).contains(&v) => to_unsigned(v, l),
                    Some(_) => return Err(fault(0, format!("masked gain outside {l} bits"))),
                    None => return Err(fault(0, "masked gain out of i128 range")),
                };
            }
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
                let jobs = std::mem::take(&mut self.hops);
                chain_hop(&self.scheme, &mut self.sets, &jobs, self.workers);
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
            Act::Submit => {
                let rank = self.result.as_ref().map(|(_, zeros)| zeros + 1);
                let Some((rank, (info, k))) = rank.zip(self.submit.take()) else {
                    return Err(self.internal("nothing to submit"));
                };
                let claim = (rank <= k).then(|| (rank, info.values().to_vec()));
                send(To::Party(0), Msg::Submission(claim));
            }
        }
        Ok(out)
    }
}

/// What one of `P₀`'s rounds does.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Duty {
    /// Take `P_j`'s round 1 and answer it.
    Serve(usize),
    /// Take `P_j`'s submission or decline.
    Gather(usize),
    /// Verify the submissions.
    Verify,
}

/// The initiator `P₀`'s side (see the module docs): it serves the
/// participants' dot products in party order, then gathers their
/// submissions in party order and verifies them.
pub(crate) struct InitiatorMachine {
    params: FrameworkParams,
    profile: InitiatorProfile,
    proto: DotProduct,
    /// `v′ = [ρ·wg, −ρ·we, 2ρ(we∗ve₀)]`, the same for every participant.
    vector: Vec<Fp>,
    /// Each participant's mask `α_j = ρ_j`, party order.
    masks: Vec<Fp>,
    duties: VecDeque<Duty>,
    submissions: Vec<Submission>,
    report: Option<VerificationReport>,
}

impl fmt::Debug for InitiatorMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InitiatorMachine")
            .field("rounds_left", &self.duties.len())
            .finish_non_exhaustive()
    }
}

impl InitiatorMachine {
    /// `P₀` of the session `params` describes, holding `profile`. It draws
    /// `ρ` and then `ρ₁ … ρₙ` from its online stream here, so its rounds
    /// draw nothing.
    pub(crate) fn new(params: &FrameworkParams, profile: InitiatorProfile) -> Self {
        let (n, field) = (params.participants(), default_field());
        let mut online = party_streams(params.seed(), 0).0;
        let rho = draw_rho(params.mask_bits(), &mut online);
        let vector = initiator_vector(&field, params.questionnaire(), &profile, rho);
        let masks = (0..n).map(|_| field.from_i128(online.gen_range(0..rho) as i128));
        let mut duties: VecDeque<_> = (1..=n).map(Duty::Serve).collect();
        duties.extend((1..=n).map(Duty::Gather).chain([Duty::Verify]));
        InitiatorMachine {
            params: params.clone(),
            profile,
            masks: masks.collect(),
            proto: DotProduct::new(field.clone()),
            vector,
            duties,
            submissions: Vec::new(),
            report: None,
        }
    }

    /// The report on the submissions, once `P₀` verified them.
    pub(crate) fn report(&self) -> Option<&VerificationReport> {
        self.report.as_ref()
    }

    fn internal(&self, what: &str) -> Fault {
        fault(0, format!("internal: {what}"))
    }
}

impl Machine for InitiatorMachine {
    fn round(&self) -> Option<Round> {
        use Wait::{Phases, Session};
        let (step, phase, expects) = match *self.duties.front()? {
            Duty::Serve(j) => (3, Phase::Gain, vec![(j, Kind::Round1, Phases(1))]),
            Duty::Gather(j) => (10, Phase::Submit, vec![(j, Kind::Submission, Session)]),
            Duty::Verify => (10, Phase::Submit, vec![]),
        };
        Some(Round {
            step,
            phase,
            expects,
        })
    }

    fn advance(&mut self, inbox: Vec<Msg>) -> Result<Outbox, Fault> {
        let mut inbox = inbox.into_iter();
        let mut out = Outbox::default();
        match self.duties.pop_front() {
            Some(Duty::Serve(j)) => {
                let round1 = take!(self, inbox, Round1);
                // An honest sender sends `s` rows and three vectors of the
                // receiver's dimension; any other shape is the sender's
                // fault.
                let (s, d) = (DotProduct::DEFAULT_S, self.vector.len() + 1);
                let shaped = |v: &Vec<Fp>| v.len() == d;
                let Round1Message { qx, c_prime, g } = &round1;
                if qx.len() != s || !qx.iter().all(shaped) || !shaped(c_prime) || !shaped(g) {
                    return Err(fault(j, format!("gain message is not {s} rows of {d}")));
                }
                let alpha = &self.masks[j - 1];
                let reply = self.proto.receiver_round2(&self.vector, alpha, &round1);
                out.sends.push((To::Party(j), Msg::Reply(reply)));
            }
            Some(Duty::Gather(j)) => {
                if let Some((claimed_rank, values)) = take!(self, inbox, Submission) {
                    // A rank beyond the participant count is unsatisfiable;
                    // reject it here instead of letting the claim ride into
                    // verification.
                    let (n, q) = (self.params.participants(), self.params.questionnaire());
                    if claimed_rank > n {
                        let what = format!("claimed rank {claimed_rank} exceeds n = {n}");
                        return Err(fault(j, what));
                    }
                    let info = InfoVector::new(q, values, self.params.attr_bits())
                        .map_err(|e| fault(j, format!("bad submission: {e}")))?;
                    self.submissions.push(Submission {
                        party: j,
                        claimed_rank,
                        info,
                    });
                }
            }
            Some(Duty::Verify) => {
                let (q, k) = (self.params.questionnaire(), self.params.top_k());
                let report = verify_submissions(q, &self.profile, &self.submissions, k);
                self.report = Some(report);
            }
            None => return Err(self.internal("advanced past the report")),
        }
        Ok(out)
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
    use crate::attrs::Questionnaire;
    use crate::offline::{OfflineStock, StockFingerprint};
    use ppgr_group::GroupKind;
    use ppgr_hash::HashDrbg;
    use rand::SeedableRng;

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
                PartyMachine::new(&group, idx + 1, BigUint::from(value), own, table, 1)
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

    /// `P₀` and the three participants of a whole ECC-160 session with
    /// 5-bit attributes and `k = 1`, each participant on its own stock.
    fn whole_session() -> (InitiatorMachine, Vec<PartyMachine>) {
        let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(3)
            .top_k(1)
            .attr_bits(5)
            .weight_bits(3)
            .mask_bits(5)
            .group(GroupKind::Ecc160)
            .seed(43)
            .build()
            .unwrap();
        let (profile, infos) = params.random_population(&mut HashDrbg::seed_from_u64(43));
        let (group, n, l) = (params.group().group(), 3, params.beta_bits());
        let parties = (1..=n)
            .zip(infos)
            .map(|(me, info)| {
                let stock = PartyStock::mint(&group, params.seed(), n, l, me);
                PartyMachine::session(&params, me, info, stock, None, 1)
            })
            .collect();
        (InitiatorMachine::new(&params, profile), parties)
    }

    /// The round 1 `party` sends `P₀` first.
    fn round1(party: &mut PartyMachine) -> Round1Message {
        let out = party.advance(Vec::new()).expect("round 1 goes out");
        match out.sends.into_iter().next() {
            Some((To::Party(0), Msg::Round1(round1))) => round1,
            other => panic!("expected round 1 to P₀, got {other:?}"),
        }
    }

    /// `P₀` past every participant's honest round 1, waiting for `P₁`'s
    /// submission.
    fn initiator_at_gather() -> InitiatorMachine {
        let (mut initiator, mut parties) = whole_session();
        for party in &mut parties {
            let inbox = vec![Msg::Round1(round1(party))];
            let out = initiator.advance(inbox).expect("an honest round 1");
            assert!(matches!(out.sends[..], [(To::Party(_), Msg::Reply(_))]));
        }
        initiator
    }

    #[test]
    fn a_misshaped_round_1_blames_its_sender() {
        let cases: [fn(&mut Round1Message); 3] = [
            |m| drop(m.qx.pop()),
            |m| m.qx[2].truncate(1),
            |m| m.g.push(m.c_prime[0].clone()),
        ];
        for misshape in cases {
            let (mut initiator, mut parties) = whole_session();
            let mut msg = round1(&mut parties[0]);
            misshape(&mut msg);
            let fault = initiator
                .advance(vec![Msg::Round1(msg)])
                .expect_err("misshaped");
            assert_eq!(fault.party, 1, "{}", fault.what);
        }
    }

    #[test]
    fn a_reply_outside_i128_or_the_window_blames_the_initiator() {
        // A reply to `v′ = 0` with mask α makes the participant unblind
        // exactly α.
        let field = default_field();
        let l = whole_session().1[1].l;
        let half = 1i128 << (l - 1);
        let cases = [
            (field.from_u64(2).pow(&BigUint::from(200u64)), Some("i128")),
            (field.from_i128(half), Some("outside")),
            (field.from_i128(-half - 1), Some("outside")),
            (field.from_i128(half - 1), None),
        ];
        for (alpha, fails) in cases {
            let (_, mut parties) = whole_session();
            let party = &mut parties[1];
            let msg = round1(party);
            let zeros = vec![field.zero(); msg.g.len() - 1];
            let reply = DotProduct::new(field.clone()).receiver_round2(&zeros, &alpha, &msg);
            match (party.advance(vec![Msg::Reply(reply)]), fails) {
                (Err(fault), Some(what)) => {
                    assert_eq!(fault.party, 0, "{}", fault.what);
                    assert!(fault.what.contains(what), "{}", fault.what);
                }
                (Ok(_), None) => assert_eq!(party.value(), &to_unsigned(half - 1, l)),
                (result, _) => panic!("unexpected {result:?}"),
            }
        }
    }

    #[test]
    fn a_claimed_rank_above_n_blames_the_submitter() {
        let mut initiator = initiator_at_gather();
        let claim = Msg::Submission(Some((4, vec![1, 2, 3])));
        let fault = initiator.advance(vec![claim]).expect_err("rank 4 of 3");
        assert_eq!(fault.party, 1, "{}", fault.what);
    }

    #[test]
    fn an_over_wide_value_blames_the_submitter() {
        let mut initiator = initiator_at_gather();
        initiator
            .advance(vec![Msg::Submission(None)])
            .expect("P1 declines");
        let claim = Msg::Submission(Some((1, vec![1, 1000, 2])));
        let fault = initiator
            .advance(vec![claim])
            .expect_err("1000 needs 10 bits");
        assert_eq!(fault.party, 2, "{}", fault.what);
    }

    #[test]
    fn declines_are_accepted() {
        let mut initiator = initiator_at_gather();
        for _ in 1..=3 {
            let out = initiator.advance(vec![Msg::Submission(None)]);
            assert!(out.expect("a decline").sends.is_empty());
        }
        assert!(initiator.report().is_none(), "not verified yet");
        initiator.advance(Vec::new()).expect("verification");
        let report = initiator.report().expect("a report");
        assert!(report.is_clean() && report.accepted.is_empty());
        assert_eq!(initiator.round(), None);
    }

    #[test]
    fn a_participant_submits_at_rank_k_and_declines_below_it() {
        // k = 1: zero zeros is rank 1, one zero is rank 2.
        for (zeros, submits) in [(0, true), (1, false)] {
            let (_, mut parties) = whole_session();
            let mut party = parties.remove(0);
            party.acts = VecDeque::from([Act::Submit]);
            party.result = Some((Vec::new(), zeros));
            let out = party.advance(Vec::new()).expect("a submission or decline");
            let claim = match &out.sends[..] {
                [(To::Party(0), Msg::Submission(claim))] => claim.clone(),
                other => panic!("expected one message to P₀, got {other:?}"),
            };
            assert_eq!(claim.is_some(), submits, "zeros = {zeros}");
            if let Some((rank, values)) = claim {
                assert_eq!(rank, 1);
                assert_eq!(values.len(), 3);
            }
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
        use Wait::Phases;
        let keygen = |expects: Vec<Expect>| (5, Phase::KeyGen, expects);
        assert_eq!(
            rounds,
            vec![
                keygen(vec![(1, Element, Phases(1)), (3, Element, Phases(1))]),
                keygen(vec![(1, Element, Phases(1))]),
                keygen(vec![(3, Scalar, Phases(1)), (3, Echo, Phases(1))]),
                keygen(vec![(1, Scalar, Phases(1))]),
                keygen(vec![(1, Scalar, Phases(1)), (1, Echo, Phases(1))]),
                keygen(vec![(3, Scalar, Phases(1)), (3, Echo, Phases(1))]),
                keygen(vec![(3, Element, Phases(1))]),
                keygen(vec![(1, Scalar, Phases(1)), (1, Echo, Phases(1))]),
                keygen(vec![(3, Scalar, Phases(1))]),
                (6, Phase::Encrypt, vec![(1, Ciphertexts, Phases(1))]),
                (6, Phase::Encrypt, vec![(3, Ciphertexts, Phases(1))]),
                (8, Phase::Hop, vec![(1, Chain, Phases(2))]),
                (9, Phase::Hop, vec![(3, Ciphertexts, Phases(3))]),
            ]
        );
    }
}
