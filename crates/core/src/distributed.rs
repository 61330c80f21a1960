//! A genuinely distributed execution of the framework: every party is an
//! OS thread, and every protocol message crosses a channel as *encoded
//! bytes* ([`crate::wire`]) — no shared state beyond the public
//! parameters.
//!
//! The orchestrated runner ([`crate::GroupRanking`]) is the instrumented
//! reference (per-party timing, traffic logs); this module demonstrates
//! that the very same protocol runs correctly as a message-passing system
//! and is the starting point for a networked deployment.
//!
//! Both runners consume the same randomness. Each party reads its online
//! stream in phase 1 only, and mints its whole phase-2 stock — key pair,
//! Schnorr nonce, challenge shares, masks, hop randomizers and
//! permutations — from its offline stream at thread start, with the code
//! the in-memory simulation's [`OfflineStock`](crate::OfflineStock) uses
//! for every party. So for every seed the two runners compute the same
//! `β` values, keys and ciphertexts, and return the same ranks, ties
//! included.
//!
//! The protocol is written once, as party machines (the private `party`
//! module) that the in-memory
//! [`SortMachine`](crate::sorting::SortMachine) drives too: they hold the
//! dot-product exchange and its checks, the keygen exchange, the share
//! echo, the structural set checks, every step's arithmetic and the
//! submissions with their checks and verification.
//! Every thread, the initiator's included, builds its party's machine — a
//! participant after minting its stock — and drives it with one
//! receive–advance–send loop, settling its keygen proofs through the
//! [`KeygenVerifyJob`](crate::KeygenVerifyJob) the machine hands out. What
//! this module adds is the transport: wire encoding, deadlines and blame.
//!
//! A participant's machine splits each step into one range per core, as
//! the in-memory default does. Its helper threads come from one
//! process-wide budget of one fewer than the host's cores, which bounds
//! only the helpers a step adds, not the `n + 1` party threads. The chain
//! hops one party at a time, so the party holding it finds the budget
//! free and hops on every core. The comparison and the finish, which all
//! parties run at once, find it mostly taken and run their ranges on
//! their own threads. A session so runs at most `n + 1` party threads and
//! `cores − 1` helpers, and the ranges, and so every byte, are the same
//! however the helpers fall.
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
use crate::offline::PartyStock;
use crate::params::FrameworkParams;
use crate::party::{InitiatorMachine, Machine, PartyMachine, Round, To, Wait};
use crate::sorting::{resolve_threads, SortError};
use crate::submit::VerificationReport;
use crate::wire::{decode_msg, encode_msg, parse_frame, AbortFrame, AbortKind, Frame};
use bytes::Bytes;
use ppgr_group::Group;
use ppgr_net::{CrashStash, FaultPlan, FaultyMesh, LocalMesh, MeshError, Phase, PhaseBudget};
use std::cell::RefCell;
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

    /// Receives a data frame from `from` within `wait`: that many
    /// allowances of the current phase — more than one covers waits that
    /// legitimately span several upstream parties' work (the shuffle
    /// chain, serial service loops) — or the whole session's budget. Abort
    /// frames are adopted, mesh failures blamed on the awaited party.
    fn recv_for(&self, from: usize, wait: Wait) -> Result<Bytes, DistributedError> {
        let phase = self.net.phase();
        let timeout = match wait {
            Wait::Phases(steps) => self.budget.of(phase) * steps.max(1),
            Wait::Session => self.budget.session_total(self.n),
        };
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

/// The initiator (`P₀`): its machine answers the dot products, then
/// gathers and verifies the submissions.
fn initiator_thread(
    params: FrameworkParams,
    profile: InitiatorProfile,
    net: Net,
    budget: PhaseBudget,
) -> Result<VerificationReport, DistributedError> {
    let ctx = Ctx::new(net, 0, params.participants(), budget);
    let machine = InitiatorMachine::new(&params, profile);
    let machine = run_party(&ctx, &params.group().group(), machine)?;
    let report = machine.report().cloned();
    report.ok_or_else(|| ctx.protocol(0, "phase 3 ended without a report"))
}

/// One participant (`P_j`): mints its phase-2 stock, then its machine runs
/// all three phases.
fn participant_thread(
    params: FrameworkParams,
    info: InfoVector,
    net: Net,
    budget: PhaseBudget,
) -> Result<usize, DistributedError> {
    let me = net.id(); // 1..=n
    let (n, l) = (params.participants(), params.beta_bits());
    let ctx = Ctx::new(net, me, n, budget);
    let group = params.group().group();
    let stock = PartyStock::mint(&group, params.seed(), n, l, me);
    let party = PartyMachine::session(&params, me, info, stock, None, resolve_threads(0));
    let party = run_party(&ctx, &group, party)?;
    let rank = party.into_result().map(|(_, _, zeros)| zeros + 1);
    rank.ok_or_else(|| ctx.protocol(me, "the session ended without a rank"))
}

/// A party's session over the mesh: one receive–advance–send loop around
/// `machine`. Each round's phase is entered when it changes, each expected
/// frame is received within its wait and decoded (a frame that does not
/// decode blames its sender), a keygen check is settled inline, and the
/// outbox goes out, broadcasts to every other participant. Returns the
/// finished machine.
fn run_party<M: Machine>(ctx: &Ctx, group: &Group, mut machine: M) -> Result<M, DistributedError> {
    let mut entered = None;
    while let Some(Round { phase, expects, .. }) = machine.round() {
        if entered != Some(phase) {
            ctx.enter(phase)?;
            entered = Some(phase);
        }
        let mut inbox = Vec::with_capacity(expects.len());
        for (from, kind, wait) in expects {
            let bytes = ctx.recv_for(from, wait)?;
            let msg = decode_msg(group, kind, bytes).map_err(|e| ctx.protocol(from, e))?;
            inbox.push(msg);
        }
        let out = machine
            .advance(inbox)
            .map_err(|fault| ctx.protocol(fault.party, fault.what))?;
        // A rejected proof names the first dishonest prover in protocol
        // order.
        if let Some(job) = out.verify {
            job.verify_inline().map_err(|e| {
                ctx.fail(match e {
                    SortError::ProofRejected { party } => DistributedError::ProofRejected { party },
                    other => DistributedError::Protocol {
                        party: ctx.me,
                        what: other.to_string(),
                    },
                })
            })?;
        }
        for (to, msg) in out.sends {
            let bytes = encode_msg(group, &msg).map_err(|e| ctx.protocol(ctx.me, e))?;
            match to {
                To::All => ctx.bcast_participants(&bytes)?,
                To::Party(j) => ctx.send(j, bytes)?,
            }
        }
    }
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Questionnaire;
    use crate::framework::GroupRanking;
    use crate::offline::{OfflineStock, StockFingerprint};
    use crate::sorting::{SortMachine, SortOptions, SortStatus};
    use crate::timing::PartyTimer;
    use ppgr_bigint::BigUint;
    use ppgr_elgamal::Ciphertext;
    use ppgr_group::GroupKind;
    use ppgr_hash::HashDrbg;
    use ppgr_net::TrafficLog;
    use proptest::prelude::*;
    use rand::SeedableRng;

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

    /// Phase 2 of the `seed` session on `values` over a channel mesh, one
    /// thread per participant driving its machine, built with `workers`,
    /// with [`run_party`]: every party's returned set, before its own
    /// decryption.
    fn mesh_returned_sets(
        kind: GroupKind,
        seed: u64,
        values: &[BigUint],
        l: usize,
        workers: usize,
    ) -> Vec<Vec<Ciphertext>> {
        let n = values.len();
        let budget = PhaseBudget::uniform(Duration::from_secs(30));
        // The initiator takes no part in phase 2.
        let handles = LocalMesh::new::<Bytes>(n + 1).into_iter().skip(1);
        let threads: Vec<_> = handles
            .zip(values.iter().cloned())
            .enumerate()
            .map(|(idx, (handle, value))| {
                thread::spawn(move || {
                    let (me, group) = (idx + 1, kind.group());
                    let ctx = Ctx::new(FaultyMesh::passthrough(handle), me, n, budget);
                    let stock = PartyStock::mint(&group, seed, n, l, me);
                    let party = PartyMachine::new(&group, me, value, stock, None, workers);
                    let party = run_party(&ctx, &group, party)?;
                    Ok(party.into_result().map(|(_, set, _)| set))
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                let set: Result<_, DistributedError> = t.join().expect("party thread");
                set.expect("fault-free phase 2").expect("a finished party")
            })
            .collect()
    }

    /// The sorting machine's returned sets for the same session.
    fn memory_returned_sets(
        kind: GroupKind,
        seed: u64,
        values: &[BigUint],
        l: usize,
    ) -> Vec<Vec<Ciphertext>> {
        let fp = StockFingerprint::new(seed, values.len(), l, kind);
        let stock = OfflineStock::generate(fp, 1, || false).expect("never cancelled");
        let options = SortOptions { threads: 1 };
        let mut machine = SortMachine::new(&kind.group(), values, l, options, stock).unwrap();
        let (log, mut timer) = (TrafficLog::new(), PartyTimer::new(values.len() + 1));
        while machine.step(&log, &mut timer).unwrap() == SortStatus::Pending {}
        machine.into_result().unwrap().1.returned_sets
    }

    /// The mesh's worker counts under test: the one every participant
    /// thread builds its machine with, and 3, which puts a range boundary
    /// inside a set even on a 2-core host.
    fn mesh_workers() -> [usize; 2] {
        [resolve_threads(0), 3]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn mesh_and_memory_runners_return_identical_sets(
            seed in any::<u64>(),
            raw in prop::collection::vec(0u64..64, 2..=4),
        ) {
            let values: Vec<BigUint> = raw.into_iter().map(BigUint::from).collect();
            let memory = memory_returned_sets(GroupKind::Ecc160, seed, &values, 6);
            for workers in mesh_workers() {
                let mesh = mesh_returned_sets(GroupKind::Ecc160, seed, &values, 6, workers);
                prop_assert_eq!(&mesh, &memory, "{} workers", workers);
            }
        }
    }

    #[test]
    fn mesh_and_memory_runners_return_identical_sets_on_dl1024() {
        let values: Vec<BigUint> = [9u64, 3, 12].into_iter().map(BigUint::from).collect();
        let memory = memory_returned_sets(GroupKind::Dl1024, 0xD16E58, &values, 4);
        for workers in mesh_workers() {
            let mesh = mesh_returned_sets(GroupKind::Dl1024, 0xD16E58, &values, 4, workers);
            assert_eq!(mesh, memory, "{workers} workers");
        }
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
