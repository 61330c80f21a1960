//! A genuinely distributed execution of the framework: every party is an
//! OS thread, and every protocol message crosses a channel as *encoded
//! bytes* ([`crate::wire`]) — no shared state beyond the public
//! parameters.
//!
//! The orchestrated runner ([`crate::GroupRanking`]) is the instrumented
//! reference (per-party timing, traffic logs); this module demonstrates
//! that the very same protocol runs correctly as a message-passing system
//! and is the starting point for a networked deployment. Integration
//! tests assert both runners produce identical rankings.
//!
//! Each party runs the orchestrated
//! [`SortMachine`](crate::sorting::SortMachine)'s phase-2 step bodies on
//! one worker — its τ set, its chain hop and its zero count — and settles
//! its keygen proofs through the same [`KeygenVerifyJob`] the machine
//! parks, so each step and the proof check are written once. What this
//! module adds is the transport: the party's own randomness stream, wire
//! encoding, the structural set checks and share echo that guard wire
//! input, deadlines and blame. A party's τ set is rerandomized under the
//! joint key before it leaves her hands: the raw set is a deterministic
//! function of the published bit encryptions and her value, so whoever
//! receives it first (P₁, or P₂ for P₁'s own set) could otherwise confirm
//! her value one bit at a time.
//!
//! # Fault tolerance
//!
//! The protocol is strictly lockstep, so a single crashed or silent party
//! would block every other party forever if receives were unbounded.
//! Every blocking wait here is bounded by a per-phase allowance
//! ([`PhaseBudget`]), failures are typed with *blame*
//! ([`DistributedError`]), and the first party to observe a failure
//! broadcasts an abort frame ([`crate::wire::AbortFrame`]) so survivors
//! exit within one deadline — adopting the original blame — instead of
//! cascading timeouts that would blame innocent intermediaries.
//! Deterministic fault injection ([`FaultPlan`]) exercises all of this in
//! tests; see `docs/FAULTS.md` for the fault model.

use crate::attrs::{InfoVector, InitiatorProfile};
use crate::gain::{draw_rho, initiator_vector, participant_vector, to_unsigned};
use crate::params::FrameworkParams;
use crate::sorting::{chain_hop, count_zeros, tau_set, HopJob, KeygenVerifyJob, SortError};
use crate::submit::{verify_submissions, Submission, VerificationReport};
use crate::timing::PartyTimer;
use crate::wire::{parse_frame, AbortFrame, AbortKind, Frame, Reader, Writer};
use bytes::Bytes;
use ppgr_dotprod::{default_field, DotProduct, Round1Message, Round2Message};
use ppgr_elgamal::{
    encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, JointKey, KeyPair, MaskPair,
};
use ppgr_group::{Element, Group, Scalar};
use ppgr_hash::{HashDrbg, Sha256};
use ppgr_net::{
    CrashStash, FaultPlan, FaultyMesh, LocalMesh, MeshError, Phase, PhaseBudget, TrafficLog,
};
use ppgr_zkp::{MultiVerifierProof, MultiVerifierTranscript, SchnorrNonce};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Error from the distributed execution, carrying blame: the party id
/// each variant names is the party held responsible, not (necessarily)
/// the party that reported it.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum DistributedError {
    /// The blamed party sent nothing before the phase deadline (a wedged
    /// or silently-stopped process — its channels stayed open).
    Timeout {
        /// The party that stayed silent.
        party: usize,
        /// The phase in which the silence was observed.
        phase: Phase,
    },
    /// The blamed party's channels tore down (a crashed process).
    Disconnected {
        /// The party that hung up.
        party: usize,
        /// The phase in which the disconnect was observed.
        phase: Phase,
    },
    /// The blamed party presented a proof of key knowledge that failed
    /// verification.
    ProofRejected {
        /// The prover whose proof was rejected.
        party: usize,
    },
    /// The blamed party violated the protocol (malformed or unexpected
    /// bytes).
    Protocol {
        /// The party whose bytes did not decode.
        party: usize,
        /// What was wrong.
        what: String,
    },
    /// Secondhand blame adopted from a peer's abort frame. Unlike the
    /// first-hand variants above, nothing here was observed directly —
    /// the frame is unauthenticated hearsay, which is why consensus blame
    /// ranks it below every first-hand observation
    /// (see [`consensus_primary`]).
    Reported {
        /// The party the frame blames.
        party: usize,
        /// The phase the frame says the failure was observed in.
        phase: Phase,
        /// The kind of failure the frame reports.
        kind: AbortKind,
        /// The party that originated the accusation.
        reporter: usize,
        /// The lane that delivered the (possibly relayed) frame.
        via: usize,
    },
    /// This party — alive and processing messages — received an abort
    /// frame blaming *itself*. Being alive to read the frame is evidence
    /// against the accusation, so blame turns back on the accuser:
    /// `party` is the frame's claimed reporter.
    FalselyAccused {
        /// The accuser (the frame's reporter field), now blamed.
        party: usize,
        /// The phase this party was in when the frame arrived.
        phase: Phase,
        /// The lane that delivered the frame.
        via: usize,
    },
    /// This party was stopped by injected fault (test harnesses only; a
    /// crashed party blames itself and stays silent).
    Crashed {
        /// The party that was crashed.
        party: usize,
    },
}

impl DistributedError {
    /// The party this error holds responsible.
    pub fn blamed(&self) -> usize {
        match self {
            DistributedError::Timeout { party, .. }
            | DistributedError::Disconnected { party, .. }
            | DistributedError::ProofRejected { party }
            | DistributedError::Protocol { party, .. }
            | DistributedError::Reported { party, .. }
            | DistributedError::FalselyAccused { party, .. }
            | DistributedError::Crashed { party } => *party,
        }
    }
}

impl fmt::Display for DistributedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributedError::Timeout { party, phase } => {
                write!(f, "party {party} sent nothing before the {phase} deadline")
            }
            DistributedError::Disconnected { party, phase } => {
                write!(f, "party {party} disconnected during {phase}")
            }
            DistributedError::ProofRejected { party } => {
                write!(f, "proof of key knowledge by party {party} rejected")
            }
            DistributedError::Protocol { party, what } => {
                write!(f, "party {party} violated the protocol: {what}")
            }
            DistributedError::Reported {
                party,
                phase,
                kind,
                reporter,
                via,
            } => {
                write!(
                    f,
                    "party {party} blamed for {kind} in {phase} \
                     (reported by party {reporter}, frame via party {via})"
                )
            }
            DistributedError::FalselyAccused { party, phase, via } => {
                write!(
                    f,
                    "party {party} falsely accused a live party in {phase} \
                     (frame via party {via})"
                )
            }
            DistributedError::Crashed { party } => {
                write!(f, "party {party} was crashed by fault injection")
            }
        }
    }
}

impl Error for DistributedError {}

/// Everything the driver learned from a failed session: one primary error
/// (the consensus blame) plus what every individual thread observed.
#[derive(Clone, Debug)]
pub struct DistributedFailure {
    /// The consensus failure: the best-ranked observation across all
    /// threads — first-hand misbehavior evidence before refuted
    /// accusations before liveness failures before hearsay (see
    /// [`consensus_primary`] for the full ranking).
    pub primary: DistributedError,
    /// `(observer, error)` for every thread that failed, in party order.
    /// Surviving threads that completed cleanly do not appear.
    pub observations: Vec<(usize, DistributedError)>,
}

impl fmt::Display for DistributedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} parties reported failures)",
            self.primary,
            self.observations.len()
        )
    }
}

impl Error for DistributedFailure {}

/// Liveness configuration for a distributed run.
#[derive(Clone, Debug, Default)]
pub struct DistributedConfig {
    /// Per-phase wall-clock allowances for blocking waits.
    pub budget: PhaseBudget,
    /// Scripted fault injection (tests only); `None` runs fault-free.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Outcome of a distributed run.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// Each participant's self-computed rank (index `j−1` for party `j`).
    pub ranks: Vec<usize>,
    /// The initiator's verification report over the received submissions.
    pub report: VerificationReport,
}

type Net = FaultyMesh<Bytes>;

/// Per-thread protocol context: the party's mesh endpoint plus the
/// deadline budget, with failure paths that broadcast abort frames.
struct Ctx {
    net: Net,
    me: usize,
    /// Number of participants (the mesh holds `n + 1` parties).
    n: usize,
    budget: PhaseBudget,
    /// Seen-abort latch: the first abort frame this party accepted, with
    /// the lane that delivered it. Only the first frame is re-broadcast
    /// and only the first frame determines this party's exit error —
    /// later frames (replays, forgeries, echoes of our own re-broadcast)
    /// can neither ping-pong between survivors nor overwrite earlier,
    /// correct blame.
    seen: RefCell<Option<(AbortFrame, usize)>>,
}

impl Ctx {
    fn new(net: Net, me: usize, n: usize, budget: PhaseBudget) -> Self {
        Ctx {
            net,
            me,
            n,
            budget,
            seen: RefCell::new(None),
        }
    }
}

impl Ctx {
    /// Declares entry into `phase` (scripted crashes fire here).
    fn enter(&self, phase: Phase) -> Result<(), DistributedError> {
        self.net
            .enter_phase(phase)
            .map_err(|_| DistributedError::Crashed { party: self.me })
    }

    /// Broadcasts an abort frame describing `e` (best-effort, to every
    /// party) and returns `e`. The frame carries only blame — never
    /// protocol state — so survivors learn *who* failed and nothing else.
    fn fail(&self, e: DistributedError) -> DistributedError {
        let frame = match &e {
            DistributedError::Timeout { party, phase } => Some(AbortFrame {
                blamed: *party,
                phase: *phase,
                kind: AbortKind::Timeout,
                reporter: self.me,
            }),
            DistributedError::Disconnected { party, phase } => Some(AbortFrame {
                blamed: *party,
                phase: *phase,
                kind: AbortKind::Disconnected,
                reporter: self.me,
            }),
            DistributedError::ProofRejected { party } => Some(AbortFrame {
                blamed: *party,
                phase: self.net.phase(),
                kind: AbortKind::ProofRejected,
                reporter: self.me,
            }),
            DistributedError::Protocol { party, .. } => Some(AbortFrame {
                blamed: *party,
                phase: self.net.phase(),
                kind: AbortKind::Protocol,
                reporter: self.me,
            }),
            // Secondhand errors re-broadcast the *original* frame at
            // adoption time (inside `adopt`), never a rewritten one.
            DistributedError::Reported { .. } | DistributedError::FalselyAccused { .. } => None,
            // A crashed party is dead: it must not speak.
            DistributedError::Crashed { .. } => None,
        };
        if let Some(frame) = frame {
            let _ = self.net.broadcast(&frame.encode());
        }
        e
    }

    /// Adopts an abort frame received on lane `via`.
    ///
    /// The first frame a party accepts is latched and re-broadcast
    /// *verbatim, exactly once* (so parties waiting on this party's lanes
    /// learn the original blame rather than blaming this party's exit —
    /// and so a replayed frame cannot ping-pong between survivors). Any
    /// later frame is discarded: the exit error always derives from the
    /// latched first frame.
    ///
    /// A frame blaming *this* party is refuted by the fact that this
    /// party is alive to read it, so it converts to
    /// [`DistributedError::FalselyAccused`] naming the frame's reporter;
    /// any other frame becomes hearsay
    /// ([`DistributedError::Reported`]).
    fn adopt(&self, frame: AbortFrame, via: usize) -> DistributedError {
        // Unauthenticated ids are still range-checked: a frame naming an
        // impossible party, or one whose reporter accuses itself, cannot
        // have been built by honest code — blame whoever delivered it.
        if frame.blamed > self.n || frame.reporter > self.n || frame.blamed == frame.reporter {
            return self.protocol(via, "abort frame with impossible ids");
        }
        let first = {
            let mut seen = self.seen.borrow_mut();
            if seen.is_none() {
                *seen = Some((frame, via));
                true
            } else {
                false
            }
        };
        if first {
            let _ = self.net.broadcast(&frame.encode());
        }
        // The latched first frame wins; the fallback arm is unreachable
        // (the latch was set above if it was empty).
        let (frame, via) = (*self.seen.borrow()).unwrap_or((frame, via));
        if frame.blamed == self.me {
            return DistributedError::FalselyAccused {
                party: frame.reporter,
                phase: self.net.phase(),
                via,
            };
        }
        DistributedError::Reported {
            party: frame.blamed,
            phase: frame.phase,
            kind: frame.kind,
            reporter: frame.reporter,
            via,
        }
    }

    /// A protocol-violation failure blaming `party` (abort broadcast).
    fn protocol(&self, party: usize, what: impl fmt::Display) -> DistributedError {
        self.fail(DistributedError::Protocol {
            party,
            what: what.to_string(),
        })
    }

    /// Receives a data frame from `from`, waiting at most `timeout`; abort
    /// frames are adopted, mesh failures blamed on the awaited party.
    fn recv_within(&self, from: usize, timeout: Duration) -> Result<Bytes, DistributedError> {
        let phase = self.net.phase();
        let raw = self
            .net
            .recv_from_timeout(from, timeout)
            .map_err(|e| match e {
                MeshError::Timeout { peer } => {
                    self.fail(DistributedError::Timeout { party: peer, phase })
                }
                MeshError::Disconnected { peer } => {
                    self.fail(DistributedError::Disconnected { party: peer, phase })
                }
                MeshError::Crashed => DistributedError::Crashed { party: self.me },
                other => self.fail(DistributedError::Protocol {
                    party: self.me,
                    what: other.to_string(),
                }),
            })?;
        match parse_frame(&raw) {
            Ok(Frame::Data(payload)) => Ok(payload),
            Ok(Frame::Abort(frame)) => Err(self.adopt(frame, from)),
            Err(e) => Err(self.protocol(from, e)),
        }
    }

    /// Receives from `from` within `steps` allowances of the current
    /// phase. `steps > 1` covers waits that legitimately span several
    /// upstream parties' work (the shuffle chain, serial service loops).
    fn recv_scaled(&self, from: usize, steps: u32) -> Result<Bytes, DistributedError> {
        self.recv_within(from, self.budget.of(self.net.phase()) * steps.max(1))
    }

    /// Receives from `from` within one allowance of the current phase.
    fn recv(&self, from: usize) -> Result<Bytes, DistributedError> {
        self.recv_scaled(from, 1)
    }

    /// Drains a torn-down peer's inbound lane looking for its final abort
    /// frame — a failing party broadcasts one *before* dropping its mesh,
    /// so by the time a send to it errors, any explanation it had is
    /// already queued. Skips over stale data frames (the session is dead
    /// either way). `None` means the peer died silently (a crash).
    ///
    /// This is what keeps an honest party that aborted early — because it
    /// caught a third party misbehaving — from being blamed for
    /// "disconnecting" by peers that were mid-broadcast to it: its last
    /// words name the real culprit.
    fn last_words(&self, peer: usize) -> Option<AbortFrame> {
        loop {
            let raw = self
                .net
                .recv_from_timeout(peer, Duration::from_millis(25))
                .ok()?;
            if let Ok(Frame::Abort(frame)) = parse_frame(&raw) {
                return Some(frame);
            }
        }
    }

    /// Converts a failed send to `peer` into blame: the peer's queued
    /// abort frame if it left one (adopting the original accusation),
    /// otherwise a first-hand disconnect observation.
    fn send_failure(&self, peer: usize, phase: Phase) -> DistributedError {
        match self.last_words(peer) {
            Some(frame) => self.adopt(frame, peer),
            None => self.fail(DistributedError::Disconnected { party: peer, phase }),
        }
    }

    /// Sends `bytes` to `to`; a torn-down peer is blamed immediately
    /// (after adopting any abort frame it left behind).
    fn send(&self, to: usize, bytes: Bytes) -> Result<(), DistributedError> {
        let phase = self.net.phase();
        self.net.send(to, bytes).map_err(|e| match e {
            MeshError::Crashed => DistributedError::Crashed { party: self.me },
            MeshError::Disconnected { peer } => self.send_failure(peer, phase),
            other => self.fail(DistributedError::Protocol {
                party: self.me,
                what: other.to_string(),
            }),
        })
    }

    /// Broadcasts to every *participant* (not the initiator), attempting
    /// all peers; the first torn-down peer is blamed (after adopting any
    /// abort frame it left behind).
    fn bcast_participants(&self, bytes: &Bytes) -> Result<(), DistributedError> {
        let phase = self.net.phase();
        let mut failed = Vec::new();
        for j in 1..=self.n {
            if j == self.me {
                continue;
            }
            match self.net.send(j, bytes.clone()) {
                Ok(()) => {}
                Err(MeshError::Crashed) => {
                    return Err(DistributedError::Crashed { party: self.me })
                }
                Err(_) => failed.push(j),
            }
        }
        match failed.first() {
            None => Ok(()),
            Some(&party) => Err(self.send_failure(party, phase)),
        }
    }
}

/// Decodes with `$e`; a failure is a protocol violation blamed on `$from`
/// (use the local id for encoding failures).
macro_rules! try_wire {
    ($ctx:expr, $from:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => return Err($ctx.protocol($from, e)),
        }
    };
}

/// Runs the full framework with one thread per party over a channel mesh,
/// with default deadlines and no fault injection.
///
/// # Errors
///
/// Returns the primary [`DistributedError`] if any party hits a malformed
/// message, a failed proof, a timeout, or a disconnected peer.
pub fn run_distributed(
    params: &FrameworkParams,
    profile: InitiatorProfile,
    infos: Vec<InfoVector>,
) -> Result<DistributedOutcome, DistributedError> {
    run_distributed_with(params, profile, infos, DistributedConfig::default())
        .map_err(|f| f.primary)
}

/// Runs the distributed framework under an explicit [`DistributedConfig`]
/// (deadline budget and optional fault injection).
///
/// Every thread is joined even when the session fails, so a returned
/// [`DistributedFailure`] lists what *each* party observed — the liveness
/// guarantee is that all of them return within their deadlines.
///
/// # Errors
///
/// [`DistributedFailure`] carrying the consensus blame and all per-party
/// observations.
pub fn run_distributed_with(
    params: &FrameworkParams,
    profile: InitiatorProfile,
    infos: Vec<InfoVector>,
    config: DistributedConfig,
) -> Result<DistributedOutcome, DistributedFailure> {
    let n = params.participants();
    assert_eq!(infos.len(), n, "population size mismatch");
    let budget = config.budget;
    let stash = CrashStash::new();
    let plan = config.faults;
    let wrap = |h| match &plan {
        Some(p) => FaultyMesh::with_plan(h, Arc::clone(p), stash.clone()),
        None => FaultyMesh::passthrough(h),
    };
    let mut nets: Vec<Net> = LocalMesh::new::<Bytes>(n + 1)
        .into_iter()
        .map(wrap)
        .collect();
    nets.reverse(); // pop() now yields party 0 first

    let spawn_failure = |party: usize| DistributedFailure {
        primary: DistributedError::Protocol {
            party,
            what: "missing mesh handle".into(),
        },
        observations: Vec::new(),
    };

    let Some(initiator_net) = nets.pop() else {
        return Err(spawn_failure(0));
    };
    let params0 = params.clone();
    let initiator =
        thread::spawn(move || initiator_thread(params0, profile, initiator_net, budget));

    let mut participants = Vec::with_capacity(n);
    for (idx, info) in infos.into_iter().enumerate() {
        let Some(net) = nets.pop() else {
            return Err(spawn_failure(idx + 1));
        };
        let params_j = params.clone();
        participants.push(thread::spawn(move || {
            participant_thread(params_j, info, net, budget)
        }));
    }

    // Join *everything* before judging the outcome: the liveness guarantee
    // is that every thread returns, not merely the first.
    let panicked = |party: usize| DistributedError::Protocol {
        party,
        what: "thread panicked".into(),
    };
    let init_result = initiator.join().map_err(|_| panicked(0));
    let mut part_results = Vec::with_capacity(n);
    for (idx, t) in participants.into_iter().enumerate() {
        part_results.push(t.join().map_err(|_| panicked(idx + 1)));
    }
    drop(stash); // silently-stalled handles may close only after all joins

    let mut observations: Vec<(usize, DistributedError)> = Vec::new();
    let report = match init_result {
        Ok(Ok(report)) => Some(report),
        Ok(Err(e)) | Err(e) => {
            observations.push((0, e));
            None
        }
    };
    let mut ranks = vec![0usize; n];
    for (idx, r) in part_results.into_iter().enumerate() {
        match r {
            Ok(Ok(rank)) => ranks[idx] = rank,
            Ok(Err(e)) | Err(e) => observations.push((idx + 1, e)),
        }
    }

    if let (Some(report), true) = (report, observations.is_empty()) {
        return Ok(DistributedOutcome { ranks, report });
    }
    let primary = consensus_primary(&observations).unwrap_or(DistributedError::Protocol {
        party: 0,
        what: "session failed with no observations".into(),
    });
    Err(DistributedFailure {
        primary,
        observations,
    })
}

/// Picks the consensus primary — the observation closest to the root
/// cause — from every thread's exit error.
///
/// Ranking, best first:
///
/// 1. **First-hand misbehavior evidence** ([`DistributedError::ProofRejected`],
///    [`DistributedError::Protocol`]): the observer held the bad bytes.
/// 2. **A refuted accusation** ([`DistributedError::FalselyAccused`]): a
///    party alive to read a frame blaming itself. A *genuine* accusation
///    always coexists with its accuser's first-hand evidence (which
///    outranks this), so a `FalselyAccused` winning the pick means the
///    frame was forged — and its claimed reporter is the culprit.
/// 3. **First-hand liveness evidence** ([`DistributedError::Timeout`],
///    [`DistributedError::Disconnected`]), earliest phase first — a party
///    wedged in `encrypt` also strands the initiator's `submit` gather,
///    but `encrypt` is where it died.
/// 4. **Hearsay** ([`DistributedError::Reported`]): blame adopted from an
///    unauthenticated abort frame. Ranking hearsay below *every*
///    first-hand observation is what stops a misbehaving party's forged
///    self-serving frames — adopted by low-id survivors — from outranking
///    a high-id victim's direct evidence.
/// 5. [`DistributedError::Crashed`]: a thread's own injected-fault exit
///    marker, never blame evidence.
///
/// Ties break by observation order (party order). Returns `None` only for
/// an empty observation list.
pub fn consensus_primary(observations: &[(usize, DistributedError)]) -> Option<DistributedError> {
    let rank = |e: &DistributedError| match e {
        DistributedError::ProofRejected { .. } | DistributedError::Protocol { .. } => 0i64,
        DistributedError::FalselyAccused { .. } => 1,
        DistributedError::Timeout { phase, .. } | DistributedError::Disconnected { phase, .. } => {
            2 + Phase::ALL.iter().position(|p| p == phase).unwrap_or(0) as i64
        }
        DistributedError::Reported { .. } => 100,
        DistributedError::Crashed { .. } => i64::MAX,
    };
    observations
        .iter()
        .enumerate()
        .min_by_key(|(order, (_, e))| (rank(e), *order))
        .map(|(_, (_, e))| e.clone())
}

/// The initiator (`P₀`): answers dot-product rounds, then collects and
/// verifies submissions.
fn initiator_thread(
    params: FrameworkParams,
    profile: InitiatorProfile,
    net: Net,
    budget: PhaseBudget,
) -> Result<VerificationReport, DistributedError> {
    let me = 0usize;
    let n = params.participants();
    let ctx = Ctx::new(net, me, n, budget);
    let field = default_field();
    let proto = DotProduct::new(field.clone());
    let mut rng = HashDrbg::seed_from_u64(params.seed()).fork(b"party-0");
    let q = params.questionnaire();
    let rho = draw_rho(params.mask_bits(), &mut rng);
    let v_recv = initiator_vector(&field, q, &profile, rho);

    // Phase 1: serve each participant's dot product, in party order.
    ctx.enter(Phase::Gain)?;
    for j in 1..=n {
        let bytes = ctx.recv(j)?;
        let mut r = Reader::new(bytes);
        let rows = try_wire!(ctx, j, r.len());
        let mut qx = Vec::with_capacity(rows);
        for _ in 0..rows {
            qx.push(try_wire!(ctx, j, r.fp_vec(&field)));
        }
        let c_prime = try_wire!(ctx, j, r.fp_vec(&field));
        let g = try_wire!(ctx, j, r.fp_vec(&field));
        try_wire!(ctx, j, r.done());
        let msg1 = Round1Message { qx, c_prime, g };

        let rho_j = rng.gen_range(0..rho);
        let alpha = field.from_i128(rho_j as i128);
        let msg2 = proto.receiver_round2(&v_recv, &alpha, &msg1, &mut rng);
        let mut w_out = Writer::framed();
        w_out.put_fp(&msg2.a);
        w_out.put_fp(&msg2.h);
        ctx.send(j, w_out.finish())?;
    }

    // Phase 3: gather one submission-or-decline from every participant.
    // The first gather legitimately spans the participants' entire
    // phase 2, so each wait is bounded by the whole-session budget.
    ctx.enter(Phase::Submit)?;
    let gather_window = budget.session_total(n);
    let mut submissions = Vec::new();
    for j in 1..=n {
        let bytes = ctx.recv_within(j, gather_window)?;
        let mut r = Reader::new(bytes);
        let claimed = try_wire!(ctx, j, r.u64()) as usize;
        if claimed == 0 {
            try_wire!(ctx, j, r.done());
            continue; // decline
        }
        // A rank beyond the participant count is unsatisfiable; reject it
        // here instead of letting the claim ride into verification.
        if claimed > n {
            return Err(ctx.protocol(j, format!("claimed rank {claimed} exceeds n = {n}")));
        }
        let count = try_wire!(ctx, j, r.len());
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(try_wire!(ctx, j, r.u64()));
        }
        try_wire!(ctx, j, r.done());
        let info = match InfoVector::new(q, values, params.attr_bits()) {
            Ok(i) => i,
            Err(e) => return Err(ctx.protocol(j, format!("bad submission: {e}"))),
        };
        submissions.push(Submission {
            party: j,
            claimed_rank: claimed,
            info,
        });
    }
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(1);
    Ok(verify_submissions(
        q,
        &profile,
        &submissions,
        params.top_k(),
        &log,
        &mut timer,
        0,
    ))
}

/// One participant (`P_j`): full three-phase protocol.
fn participant_thread(
    params: FrameworkParams,
    info: InfoVector,
    net: Net,
    budget: PhaseBudget,
) -> Result<usize, DistributedError> {
    let me = net.id(); // 1..=n
    let n = params.participants();
    let ctx = Ctx::new(net, me, n, budget);
    let l = params.beta_bits();
    let group: Group = params.group().group();
    let scheme = ExpElGamal::new(group.clone());
    let field = default_field();
    let proto = DotProduct::new(field.clone());
    let mut rng = HashDrbg::seed_from_u64(params.seed()).fork(format!("party-{me}").as_bytes());

    // ---- Phase 1: masked gain via the secure dot product. -------------
    ctx.enter(Phase::Gain)?;
    let w_vec = participant_vector(&field, params.questionnaire(), &info);
    let (state, msg1) = proto.sender_round1(&w_vec, &mut rng);
    let mut w_out = Writer::framed();
    try_wire!(ctx, me, w_out.put_len(msg1.qx.len()));
    for row in &msg1.qx {
        try_wire!(ctx, me, w_out.put_fp_vec(row));
    }
    try_wire!(ctx, me, w_out.put_fp_vec(&msg1.c_prime));
    try_wire!(ctx, me, w_out.put_fp_vec(&msg1.g));
    ctx.send(0, w_out.finish())?;

    // The initiator serves parties in id order, so P_me waits behind
    // `me − 1` earlier services.
    let bytes = ctx.recv_scaled(0, me as u32)?;
    let mut r = Reader::new(bytes);
    let a = try_wire!(ctx, 0, r.fp(&field));
    let hh = try_wire!(ctx, 0, r.fp(&field));
    try_wire!(ctx, 0, r.done());
    let beta_signed = match state.finish(&Round2Message { a, h: hh }).to_i128_centered() {
        Some(v) => v,
        None => return Err(ctx.protocol(me, "masked gain out of i128 range")),
    };
    let beta = to_unsigned(beta_signed, l);

    // ---- Phase 2, step 5: keys + proofs of knowledge. ------------------
    ctx.enter(Phase::KeyGen)?;
    let kp = KeyPair::generate(&group, &mut rng);
    {
        let mut w_out = Writer::framed();
        w_out.put_element(&group, kp.public_key());
        ctx.bcast_participants(&w_out.finish())?;
    }
    let mut public_shares: Vec<Element> = vec![group.identity(); n + 1];
    public_shares[me] = kp.public_key().clone();
    for j in participants_except(n, me) {
        let bytes = ctx.recv(j)?;
        let mut r = Reader::new(bytes);
        public_shares[j] = try_wire!(ctx, j, r.element(&group));
        try_wire!(ctx, j, r.done());
    }

    // Sequential proofs, prover order 1..=n. Verifier challenge shares are
    // broadcast so every verifier can form the same challenge sum, and
    // every share is immediately echoed (a broadcast digest binding the
    // share to its sender and round): a verifier that equivocates — one
    // receiver gets different share bytes than everyone else — is caught
    // by the receiver comparing bytes against the sender's own public
    // claim, *before* the mismatched challenge sums could wreck the
    // prover's verification and get an honest prover blamed.
    // Every prover's transcript, this party's own included, is recorded
    // with its n − 1 challenge shares in verifier order, and all n are
    // checked after the round as one `KeygenVerifyJob` — the job the
    // sorting machine parks — whose rejection names the first dishonest
    // prover in protocol order.
    let recv_share_echoed = |ctx: &Ctx, prover: usize, j: usize| {
        let bytes = ctx.recv(j)?;
        let mut r = Reader::new(bytes);
        let share = try_wire!(ctx, j, r.scalar(&group));
        try_wire!(ctx, j, r.done());
        let bytes = ctx.recv(j)?;
        let mut r = Reader::new(bytes);
        let echo = try_wire!(ctx, j, r.take(32));
        try_wire!(ctx, j, r.done());
        if echo[..] != share_digest(&group, prover, j, &share)[..] {
            return Err(ctx.protocol(
                j,
                "challenge share inconsistent with its echo (equivocating broadcast)",
            ));
        }
        Ok(share)
    };
    let mut transcripts: Vec<MultiVerifierTranscript> = Vec::with_capacity(n);
    for prover in 1..=n {
        if prover == me {
            let nonce = SchnorrNonce::draw(&group, &mut rng);
            let mut w_out = Writer::framed();
            w_out.put_element(&group, nonce.commitment());
            ctx.bcast_participants(&w_out.finish())?;
            let mut shares = Vec::with_capacity(n - 1);
            for j in participants_except(n, me) {
                shares.push(recv_share_echoed(&ctx, prover, j)?);
            }
            let proof = MultiVerifierProof::assemble(&group, kp.secret_key(), nonce, shares);
            let mut w_out = Writer::framed();
            w_out.put_scalar(&group, &proof.response);
            ctx.bcast_participants(&w_out.finish())?;
            transcripts.push(proof);
        } else {
            let bytes = ctx.recv(prover)?;
            let mut r = Reader::new(bytes);
            let commitment = try_wire!(ctx, prover, r.element(&group));
            try_wire!(ctx, prover, r.done());
            // My challenge share, broadcast to everyone, then its echo.
            let c_mine = group.random_scalar(&mut rng);
            let mut w_out = Writer::framed();
            w_out.put_scalar(&group, &c_mine);
            ctx.bcast_participants(&w_out.finish())?;
            let mut w_out = Writer::framed();
            w_out.put_raw(&share_digest(&group, prover, me, &c_mine));
            ctx.bcast_participants(&w_out.finish())?;
            // Every verifier's share in verifier order: mine, and the
            // others' as they arrive (with their echoes).
            let mut shares = Vec::with_capacity(n - 1);
            for j in participants_except(n, prover) {
                shares.push(if j == me {
                    c_mine.clone()
                } else {
                    recv_share_echoed(&ctx, prover, j)?
                });
            }
            let bytes = ctx.recv(prover)?;
            let mut r = Reader::new(bytes);
            let response = try_wire!(ctx, prover, r.scalar(&group));
            try_wire!(ctx, prover, r.done());
            transcripts.push(MultiVerifierTranscript {
                commitment,
                challenges: shares,
                response,
            });
        }
    }
    let shares = public_shares.split_off(1);
    KeygenVerifyJob::new(&group, shares.clone(), transcripts)
        .verify_inline()
        .map_err(|e| {
            ctx.fail(match e {
                SortError::ProofRejected { party } => DistributedError::ProofRejected { party },
                other => DistributedError::Protocol {
                    party: me,
                    what: other.to_string(),
                },
            })
        })?;
    // One comb table for the joint key serves every encryption and
    // rerandomization below.
    let key_table = scheme.prepare_key(JointKey::combine(&group, &shares).public_key());

    // ---- Step 6: bitwise encryption, broadcast. ------------------------
    ctx.enter(Phase::Encrypt)?;
    let masks = MaskPair::draw(&group, &mut rng, l);
    let my_bits = encrypt_bits_with_precomputed(&scheme, &key_table, &beta, l, masks);
    {
        let mut w_out = Writer::framed();
        try_wire!(ctx, me, w_out.put_ciphertexts(&group, &my_bits));
        ctx.bcast_participants(&w_out.finish())?;
    }
    let mut all_bits: Vec<Vec<Ciphertext>> = vec![Vec::new(); n + 1];
    all_bits[me] = my_bits;
    for j in participants_except(n, me) {
        let bytes = ctx.recv(j)?;
        let mut r = Reader::new(bytes);
        all_bits[j] = try_wire!(ctx, j, r.ciphertexts(&group));
        try_wire!(ctx, j, r.done());
        if all_bits[j].len() != l {
            return Err(ctx.protocol(
                j,
                format!(
                    "published {} bit ciphertexts, expected {l}",
                    all_bits[j].len()
                ),
            ));
        }
        if has_duplicate(&group, &all_bits[j]) {
            return Err(ctx.protocol(j, "duplicate ciphertext in encrypted bit vector"));
        }
    }

    // ---- Step 7: comparisons against every opponent. --------------------
    ctx.enter(Phase::Compare)?;
    let masks = MaskPair::draw(&group, &mut rng, (n - 1) * l);
    let opponents: Vec<&[Ciphertext]> = participants_except(n, me)
        .map(|j| all_bits[j].as_slice())
        .collect();
    let (my_set, _cpu) = tau_set(&scheme, &key_table, &opponents, &beta, l, masks, 1);

    // ---- Step 8: the shuffle-decrypt chain. -----------------------------
    ctx.enter(Phase::Hop)?;
    let mut sets: Vec<Vec<Ciphertext>> = if me == 1 {
        // Collect everyone's set.
        let mut sets = vec![my_set];
        for j in 2..=n {
            let bytes = ctx.recv(j)?;
            let mut r = Reader::new(bytes);
            let set = try_wire!(ctx, j, r.ciphertexts(&group));
            try_wire!(ctx, j, r.done());
            check_set(&ctx, &group, &set, j, (n - 1) * l)?;
            sets.push(set);
        }
        sets
    } else {
        // Send my comparison set to P₁ first, then receive V from my
        // predecessor (me − 1 upstream hops).
        let mut w_out = Writer::framed();
        try_wire!(ctx, me, w_out.put_ciphertexts(&group, &my_set));
        ctx.send(1, w_out.finish())?;
        let bytes = ctx.recv_scaled(me - 1, me as u32)?;
        let mut r = Reader::new(bytes);
        let count = try_wire!(ctx, me - 1, r.len());
        if count != n {
            return Err(ctx.protocol(me - 1, "chain vector has wrong arity"));
        }
        let mut sets = Vec::with_capacity(n);
        for _ in 0..n {
            sets.push(try_wire!(ctx, me - 1, r.ciphertexts(&group)));
        }
        try_wire!(ctx, me - 1, r.done());
        for set in &sets {
            check_set(&ctx, &group, set, me - 1, (n - 1) * l)?;
        }
        sets
    };
    let jobs = draw_hop(&group, kp.secret_key(), &sets, me, &mut rng);
    chain_hop(&scheme, &mut sets, &jobs, kp.secret_key(), 1);
    let my_final_set = if me < n {
        // Pass V on; my own set returns from P_n at chain end (n − 1 hops).
        let mut w_out = Writer::framed();
        try_wire!(ctx, me, w_out.put_len(sets.len()));
        for set in &sets {
            try_wire!(ctx, me, w_out.put_ciphertexts(&group, set));
        }
        ctx.send(me + 1, w_out.finish())?;
        let bytes = ctx.recv_scaled(n, n as u32)?;
        let mut r = Reader::new(bytes);
        let set = try_wire!(ctx, n, r.ciphertexts(&group));
        try_wire!(ctx, n, r.done());
        check_set(&ctx, &group, &set, n, (n - 1) * l)?;
        set
    } else {
        // I am P_n: return every set to its owner; keep mine.
        for owner in 1..n {
            let mut w_out = Writer::framed();
            try_wire!(ctx, me, w_out.put_ciphertexts(&group, &sets[owner - 1]));
            ctx.send(owner, w_out.finish())?;
        }
        match sets.pop() {
            Some(set) => set,
            None => return Err(ctx.protocol(me, "chain vector lost the final set")),
        }
    };

    // ---- Step 9: count zeros → rank. ------------------------------------
    let rank = count_zeros(&scheme, &my_final_set, kp.secret_key(), None) + 1;

    // ---- Phase 3: submit or decline. ------------------------------------
    ctx.enter(Phase::Submit)?;
    let mut w_out = Writer::framed();
    if rank <= params.top_k() {
        w_out.put_u64(rank as u64);
        try_wire!(ctx, me, w_out.put_len(info.values().len()));
        for &v in info.values() {
            w_out.put_u64(v);
        }
    } else {
        w_out.put_u64(0); // decline
    }
    ctx.send(0, w_out.finish())?;

    Ok(rank)
}

/// Party `me`'s draws for her chain hop: for each foreign set in `sets`
/// (indexed by owner − 1), in owner order, fresh nonzero plaintext
/// randomizers prepared under her key share `secret`, then the set's
/// shuffle — the draws a per-ciphertext loop followed by an in-place
/// shuffle would make.
fn draw_hop<R: Rng + ?Sized>(
    group: &Group,
    secret: &Scalar,
    sets: &[Vec<Ciphertext>],
    me: usize,
    rng: &mut R,
) -> Vec<HopJob> {
    sets.iter()
        .enumerate()
        .filter(|&(owner, _)| owner + 1 != me)
        .map(|(owner, set)| {
            let rs: Vec<Scalar> = (0..set.len())
                .map(|_| group.random_nonzero_scalar(rng))
                .collect();
            // Fisher–Yates swaps depend only on the length, so shuffling
            // the identity permutation consumes exactly the draws shuffling
            // the set would, and `order[j]` names the input landing at
            // position `j`.
            let mut order: Vec<usize> = (0..set.len()).collect();
            order.shuffle(rng);
            (owner, Some(group.prepare_hop_scalars(secret, &rs)), order)
        })
        .collect()
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

/// True when two ciphertexts in `set` serialise identically. Honest
/// parties re-randomize every element they produce or forward, so a
/// repeat happens with negligible probability — an observed duplicate is
/// a scripted inconsistent shuffle (an element copied over another to
/// bias the zero count).
fn has_duplicate(group: &Group, set: &[Ciphertext]) -> bool {
    let mut seen = HashSet::with_capacity(set.len());
    for ct in set {
        let mut key = group.encode(&ct.alpha);
        key.extend_from_slice(&group.encode(&ct.beta));
        if !seen.insert(key) {
            return true;
        }
    }
    false
}

/// Structural integrity of a received comparison set: advertised
/// cardinality and no duplicated ciphertext. Every hop re-encrypts and
/// re-shuffles each set it forwards, so honest relays always pass — a
/// violation always implicates the immediate sender `from`, never an
/// upstream party whose bytes were merely relayed.
fn check_set(
    ctx: &Ctx,
    group: &Group,
    set: &[Ciphertext],
    from: usize,
    expected: usize,
) -> Result<(), DistributedError> {
    if set.len() != expected {
        return Err(ctx.protocol(
            from,
            format!(
                "comparison set carries {} ciphertexts, expected {expected}",
                set.len()
            ),
        ));
    }
    if has_duplicate(group, set) {
        return Err(ctx.protocol(
            from,
            "duplicate ciphertext in a comparison set (inconsistent shuffle)",
        ));
    }
    Ok(())
}

/// Participant ids `1..=n` except `me`.
fn participants_except(n: usize, me: usize) -> impl Iterator<Item = usize> {
    (1..=n).filter(move |&j| j != me)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Questionnaire;
    use crate::circuit::compare_encrypted;
    use crate::framework::GroupRanking;
    use ppgr_bigint::BigUint;
    use ppgr_elgamal::encrypt_bits;
    use ppgr_group::GroupKind;

    fn params(n: usize, seed: u64) -> FrameworkParams {
        FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(2)
            .attr_bits(6)
            .weight_bits(3)
            .mask_bits(6)
            .group(GroupKind::Ecc160)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn distributed_run_produces_valid_ranking() {
        let p = params(4, 51);
        let mut rng = HashDrbg::seed_from_u64(p.seed());
        let (profile, infos) = p.random_population(&mut rng);
        let out = run_distributed(&p, profile.clone(), infos.clone()).unwrap();

        // Validate against plaintext gains.
        let q = p.questionnaire();
        let gains: Vec<i128> = infos
            .iter()
            .map(|i| crate::attrs::gain(q, &profile, i))
            .collect();
        for a in 0..gains.len() {
            for b in 0..gains.len() {
                if gains[a] > gains[b] {
                    assert!(
                        out.ranks[a] < out.ranks[b],
                        "gains {gains:?} ranks {:?}",
                        out.ranks
                    );
                }
            }
        }
        assert!(out.report.is_clean());
        assert!(!out.report.accepted.is_empty());
    }

    #[test]
    fn distributed_matches_orchestrated() {
        let p = params(3, 77);
        let mut rng = HashDrbg::seed_from_u64(p.seed());
        let (profile, infos) = p.random_population(&mut rng);

        let orchestrated = GroupRanking::new(p.clone())
            .with_random_population()
            .run()
            .unwrap();
        let distributed = run_distributed(&p, profile, infos).unwrap();
        assert_eq!(orchestrated.ranks(), &distributed.ranks[..]);
    }

    #[test]
    fn two_party_chain_works() {
        let p = params(2, 5);
        let mut rng = HashDrbg::seed_from_u64(p.seed());
        let (profile, infos) = p.random_population(&mut rng);
        let out = run_distributed(&p, profile, infos).unwrap();
        let mut sorted = out.ranks.clone();
        sorted.sort_unstable();
        assert!(sorted == vec![1, 2] || sorted == vec![1, 1]);
    }

    #[test]
    fn chain_hop_matches_the_per_ciphertext_loop() {
        // A mesh party's hop draws plus the shared hop body must return
        // exactly what the reference loop does — for each foreign set, in
        // owner order: partial_decrypt, a fresh nonzero randomizer and
        // randomize_plaintext per ciphertext, then a shuffle of the set —
        // on any worker count, and leave the stream where that loop leaves
        // it. With sets of 7, two foreign sets on three workers and three
        // on two each put a range boundary inside a set.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let scheme = ExpElGamal::new(group.clone());
            let mut rng = HashDrbg::seed_from_u64(3);
            let kp = KeyPair::generate(&group, &mut rng);
            for (n, me) in [(3, 2), (4, 4)] {
                let sets: Vec<Vec<Ciphertext>> = (0..n)
                    .map(|_| {
                        (0..7)
                            .map(|m| {
                                let m = group.scalar_from_u64(m % 3);
                                scheme.encrypt(kp.public_key(), &m, &mut rng)
                            })
                            .collect()
                    })
                    .collect();
                let mut loop_rng = HashDrbg::seed_from_u64(17);
                let mut expect = sets.clone();
                for (owner, set) in expect.iter_mut().enumerate() {
                    if owner + 1 == me {
                        continue;
                    }
                    *set = set
                        .iter()
                        .map(|ct| {
                            let c = scheme.partial_decrypt(ct, kp.secret_key());
                            let r = group.random_nonzero_scalar(&mut loop_rng);
                            scheme.randomize_plaintext(&c, &r)
                        })
                        .collect();
                    set.shuffle(&mut loop_rng);
                }
                let next = loop_rng.gen::<u64>();
                for workers in [1, 2, 3] {
                    let label = format!("{kind} n={n} workers={workers}");
                    let mut hop_rng = HashDrbg::seed_from_u64(17);
                    let mut hopped = sets.clone();
                    let jobs = draw_hop(&group, kp.secret_key(), &hopped, me, &mut hop_rng);
                    assert_eq!(jobs.len(), n - 1, "{label}");
                    chain_hop(&scheme, &mut hopped, &jobs, kp.secret_key(), workers);
                    assert_eq!(hopped, expect, "{label}");
                    assert_eq!(hopped[me - 1], sets[me - 1], "{label}: own set untouched");
                    assert_eq!(hop_rng.gen::<u64>(), next, "{label}: same draws consumed");
                }
            }
        }
    }

    #[test]
    fn tau_set_is_rerandomized_with_the_raw_zero_pattern() {
        // The τ set a party sends must decrypt, under the joint secret, to
        // the raw circuit output's zero pattern, yet share no ciphertext
        // with it — the raw bytes are recomputable from public data — and
        // the same masks give the same set on any worker count.
        let group = GroupKind::Ecc160.group();
        let scheme = ExpElGamal::new(group.clone());
        let mut rng = HashDrbg::seed_from_u64(29);
        let (n, l, me) = (3, 5, 2);
        let values = [0u64, 21, 9, 30]; // index 0 is the initiator
        let kps: Vec<KeyPair> = (0..n)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        let shares: Vec<_> = kps.iter().map(|k| k.public_key().clone()).collect();
        let joint = JointKey::combine(&group, &shares);
        let joint_secret = kps.iter().fold(group.scalar_from_u64(0), |acc, k| {
            group.scalar_add(&acc, k.secret_key())
        });
        let key_table = scheme.prepare_key(joint.public_key());
        let all_bits: Vec<Vec<Ciphertext>> = (0..=n)
            .map(|j| match j {
                0 => Vec::new(),
                _ => {
                    let v = BigUint::from(values[j]);
                    encrypt_bits(&scheme, joint.public_key(), &v, l, &mut rng)
                }
            })
            .collect();
        let beta = BigUint::from(values[me]);
        let opponents: Vec<&[Ciphertext]> = participants_except(n, me)
            .map(|j| all_bits[j].as_slice())
            .collect();
        let raw: Vec<Ciphertext> = opponents
            .iter()
            .flat_map(|bits| compare_encrypted(&scheme, &beta, bits, l))
            .collect();
        let zeros = |set: &[Ciphertext]| -> Vec<bool> {
            set.iter()
                .map(|ct| scheme.decrypts_to_zero(&joint_secret, ct))
                .collect()
        };
        let pattern = zeros(&raw);
        assert!(pattern.contains(&true) && pattern.contains(&false));
        let published: HashSet<Vec<u8>> = raw.iter().map(|ct| ct.encode(&group)).collect();
        let sent: Vec<Vec<Ciphertext>> = [1, 2]
            .into_iter()
            .map(|workers| {
                let masks = MaskPair::draw(&group, &mut HashDrbg::seed_from_u64(41), raw.len());
                let (sent, _cpu) =
                    tau_set(&scheme, &key_table, &opponents, &beta, l, masks, workers);
                assert_eq!(zeros(&sent), pattern, "workers={workers}");
                assert!(sent
                    .iter()
                    .all(|ct| !published.contains(&ct.encode(&group))));
                sent
            })
            .collect();
        assert_eq!(sent[0], sent[1], "worker count changes no byte");
    }

    #[test]
    fn blamed_names_the_party_for_every_variant() {
        let e = DistributedError::Timeout {
            party: 3,
            phase: Phase::Hop,
        };
        assert_eq!(e.blamed(), 3);
        assert_eq!(DistributedError::ProofRejected { party: 2 }.blamed(), 2);
        assert_eq!(
            DistributedError::Protocol {
                party: 1,
                what: "x".into()
            }
            .blamed(),
            1
        );
        assert_eq!(DistributedError::Crashed { party: 4 }.blamed(), 4);
        assert_eq!(
            DistributedError::Reported {
                party: 2,
                phase: Phase::Encrypt,
                kind: AbortKind::Protocol,
                reporter: 1,
                via: 3,
            }
            .blamed(),
            2
        );
        assert_eq!(
            DistributedError::FalselyAccused {
                party: 3,
                phase: Phase::KeyGen,
                via: 3,
            }
            .blamed(),
            3
        );
    }

    #[test]
    fn seen_abort_latch_keeps_the_first_frame_and_rebroadcasts_once() {
        use ppgr_net::LocalMesh;
        let mut handles = LocalMesh::new::<Bytes>(2);
        let peer = FaultyMesh::passthrough(handles.pop().unwrap());
        let net = FaultyMesh::passthrough(handles.pop().unwrap());
        let ctx = Ctx::new(net, 0, 1, PhaseBudget::uniform(Duration::from_secs(1)));
        let first = AbortFrame {
            blamed: 1,
            phase: Phase::KeyGen,
            kind: AbortKind::Protocol,
            reporter: 0,
        };
        let replay = AbortFrame {
            blamed: 0,
            phase: Phase::Encrypt,
            kind: AbortKind::Timeout,
            reporter: 1,
        };
        let e1 = ctx.adopt(first, 1);
        // The replay blames us and would convert to FalselyAccused if it
        // were honored — the latch must keep deriving from `first`.
        let e2 = ctx.adopt(replay, 1);
        for e in [&e1, &e2] {
            assert!(
                matches!(e, DistributedError::Reported { party: 1, .. }),
                "latched frame must win: {e}"
            );
        }
        // Exactly one re-broadcast reached the peer (the first adoption).
        let echoed = peer
            .recv_from_timeout(0, Duration::from_millis(200))
            .unwrap();
        assert_eq!(parse_frame(&echoed), Ok(Frame::Abort(first)));
        assert!(peer
            .recv_from_timeout(0, Duration::from_millis(100))
            .is_err());
    }

    #[test]
    fn adopt_rejects_frames_with_impossible_ids() {
        use ppgr_net::LocalMesh;
        let mut handles = LocalMesh::new::<Bytes>(2);
        let _peer = FaultyMesh::<Bytes>::passthrough(handles.pop().unwrap());
        let net = FaultyMesh::passthrough(handles.pop().unwrap());
        let ctx = Ctx::new(net, 0, 1, PhaseBudget::uniform(Duration::from_secs(1)));
        // blamed == reporter cannot come from honest code (a party never
        // accuses itself): blame lands on the delivering lane.
        let bogus = AbortFrame {
            blamed: 1,
            phase: Phase::Gain,
            kind: AbortKind::Timeout,
            reporter: 1,
        };
        let e = ctx.adopt(bogus, 1);
        assert!(
            matches!(e, DistributedError::Protocol { party: 1, .. }),
            "{e}"
        );
        let out_of_range = AbortFrame {
            blamed: 9,
            phase: Phase::Gain,
            kind: AbortKind::Timeout,
            reporter: 0,
        };
        let e = ctx.adopt(out_of_range, 1);
        assert!(
            matches!(e, DistributedError::Protocol { party: 1, .. }),
            "{e}"
        );
    }

    #[test]
    fn consensus_prefers_direct_evidence_over_hearsay_regardless_of_order() {
        // A low-id survivor adopting a forged frame (hearsay blaming an
        // honest party) must lose the pick to a high-id victim's
        // first-hand evidence, even though the hearsay observation comes
        // first in party order.
        let obs = vec![
            (
                1,
                DistributedError::Reported {
                    party: 3,
                    phase: Phase::KeyGen,
                    kind: AbortKind::Protocol,
                    reporter: 2,
                    via: 2,
                },
            ),
            (3, DistributedError::ProofRejected { party: 2 }),
        ];
        assert_eq!(
            consensus_primary(&obs),
            Some(DistributedError::ProofRejected { party: 2 })
        );
    }

    #[test]
    fn consensus_prefers_direct_evidence_over_liveness() {
        // The initiator times out waiting on a wedged phase long after the
        // culprit's neighbour caught the bad bytes; the protocol violation
        // is the root cause.
        let obs = vec![
            (
                0,
                DistributedError::Timeout {
                    party: 1,
                    phase: Phase::Submit,
                },
            ),
            (
                2,
                DistributedError::Protocol {
                    party: 1,
                    what: "bad bytes".into(),
                },
            ),
        ];
        assert_eq!(consensus_primary(&obs).unwrap().blamed(), 1);
        assert!(matches!(
            consensus_primary(&obs),
            Some(DistributedError::Protocol { .. })
        ));
    }

    #[test]
    fn consensus_falsely_accused_beats_liveness_and_hearsay() {
        // A forged frame blames party 2; party 2 is alive to refute it and
        // names the frame's claimed reporter. Everyone else saw only
        // hearsay and timeouts — the refutation wins.
        let obs = vec![
            (
                1,
                DistributedError::Reported {
                    party: 2,
                    phase: Phase::Encrypt,
                    kind: AbortKind::Timeout,
                    reporter: 3,
                    via: 3,
                },
            ),
            (
                2,
                DistributedError::FalselyAccused {
                    party: 3,
                    phase: Phase::Encrypt,
                    via: 3,
                },
            ),
            (
                0,
                DistributedError::Timeout {
                    party: 1,
                    phase: Phase::Submit,
                },
            ),
        ];
        assert_eq!(consensus_primary(&obs).unwrap().blamed(), 3);
    }

    #[test]
    fn consensus_liveness_picks_earliest_phase_then_order() {
        let obs = vec![
            (
                0,
                DistributedError::Timeout {
                    party: 2,
                    phase: Phase::Submit,
                },
            ),
            (
                1,
                DistributedError::Disconnected {
                    party: 3,
                    phase: Phase::Encrypt,
                },
            ),
            (
                2,
                DistributedError::Timeout {
                    party: 3,
                    phase: Phase::Encrypt,
                },
            ),
        ];
        assert_eq!(
            consensus_primary(&obs),
            Some(DistributedError::Disconnected {
                party: 3,
                phase: Phase::Encrypt,
            })
        );
    }

    #[test]
    fn consensus_hearsay_beats_only_crash_markers() {
        let obs = vec![
            (2, DistributedError::Crashed { party: 2 }),
            (
                1,
                DistributedError::Reported {
                    party: 2,
                    phase: Phase::Hop,
                    kind: AbortKind::Disconnected,
                    reporter: 1,
                    via: 1,
                },
            ),
        ];
        assert_eq!(consensus_primary(&obs).unwrap().blamed(), 2);
        assert!(matches!(
            consensus_primary(&obs),
            Some(DistributedError::Reported { .. })
        ));
        assert_eq!(consensus_primary(&[]), None);
    }
}
