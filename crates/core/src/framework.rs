//! The end-to-end framework orchestrator.
//!
//! A [`SessionMachine`] plays every party in one process. After its
//! offline step it steps one [`SortMachine`] built for the whole session:
//! the initiator's machine and one machine per participant, the same
//! machines a thread-per-party run of the same seed
//! ([`crate::run_distributed`]) drives over its mesh. So in memory too the
//! participants exchange their dot products with the initiator, run the
//! keygen exchange and every check, and submit to the initiator, who
//! verifies what it received; both runners return the same sets, ranks
//! and accepted submissions, ties included. Its randomness is the
//! parties' own: each party's phase-1 draws come from its online stream,
//! and phase 2 runs on the [`OfflineStock`] minted from their offline
//! streams — generated cold at the session's offline step, or attached
//! warm by a precompute pool.

use crate::attrs::{InfoVector, InitiatorProfile, VectorError};
use crate::gain::GainPhaseOutput;
use crate::offline::{OfflineStock, StockFingerprint};
use crate::params::FrameworkParams;
use crate::sorting::{
    resolve_threads, KeygenVerifyJob, SortError, SortMachine, SortOptions, SortStatus,
};
use crate::submit::AcceptedSubmission;
use crate::timing::PartyTimer;
use ppgr_hash::HashDrbg;
use ppgr_net::{TrafficLog, TrafficSummary};
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors from a framework run.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum RunError {
    /// No population was supplied (call `with_random_population` or
    /// `with_population`).
    MissingPopulation,
    /// A supplied vector was malformed.
    Vector(VectorError),
    /// The sorting phase failed.
    Sort(SortError),
    /// A session-machine invariant was violated (phase state out of sync).
    /// Reaching this indicates a bug in the driver, not bad input.
    Internal(&'static str),
    /// The session was cancelled by its driver before completing.
    Cancelled,
    /// The session exceeded its wall-clock budget and was abandoned by its
    /// driver (the session itself never observes this — a runtime enforces
    /// it between steps).
    DeadlineExceeded,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingPopulation => write!(f, "no population supplied"),
            RunError::Vector(e) => write!(f, "invalid population vector: {e}"),
            RunError::Sort(e) => write!(f, "sorting phase failed: {e}"),
            RunError::Internal(what) => write!(f, "internal invariant violated: {what}"),
            RunError::Cancelled => write!(f, "session cancelled"),
            RunError::DeadlineExceeded => write!(f, "session exceeded its deadline"),
        }
    }
}

impl RunError {
    /// The party this failure blames, when the underlying error carries
    /// an attribution: a rejected proof of key knowledge or an over-wide
    /// submitted value names its 1-based prover. Driver-side failures
    /// (cancellation, deadlines, invariant bugs, malformed input vectors)
    /// have no culprit and return `None`, so a runtime surfacing blame
    /// never pins an infrastructure fault on a session participant.
    pub fn blamed(&self) -> Option<usize> {
        match self {
            RunError::Sort(SortError::ProofRejected { party })
            | RunError::Sort(SortError::ValueTooWide { party }) => Some(*party),
            _ => None,
        }
    }
}

impl Error for RunError {}

impl From<VectorError> for RunError {
    fn from(e: VectorError) -> Self {
        RunError::Vector(e)
    }
}

impl From<SortError> for RunError {
    fn from(e: SortError) -> Self {
        RunError::Sort(e)
    }
}

/// Per-phase mean participant computation time (what Fig. 2 plots) plus
/// the initiator's total.
#[derive(Clone, Debug)]
pub struct PhaseTimings {
    /// Phase 1 mean participant time.
    pub gain: Duration,
    /// Phase 2 mean participant time.
    pub sort: Duration,
    /// Phase 3 initiator verification time.
    pub submit: Duration,
    /// Total initiator time across phases.
    pub initiator: Duration,
    /// Per-party totals (index 0 = initiator).
    pub per_party: Vec<Duration>,
}

impl PhaseTimings {
    /// Mean participant computation across all phases.
    pub fn mean_participant_total(&self) -> Duration {
        self.gain + self.sort
    }
}

/// Result of a framework run.
#[derive(Clone, Debug)]
pub struct Outcome {
    ranks: Vec<usize>,
    top_k: Vec<AcceptedSubmission>,
    traffic: TrafficSummary,
    timings: PhaseTimings,
    gain_output: GainPhaseOutput,
}

impl Outcome {
    /// Each participant's rank (index `j-1` for party `j`; rank 1 =
    /// highest gain; ties share a rank).
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The verified top-k submissions the initiator accepted.
    pub fn top_k(&self) -> &[AcceptedSubmission] {
        &self.top_k
    }

    /// Traffic accounting for the whole run.
    pub fn traffic(&self) -> &TrafficSummary {
        &self.traffic
    }

    /// Computation-time accounting.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// The masked gains (diagnostics; a real deployment never aggregates
    /// these — they are each participant's private state).
    pub fn masked_gains(&self) -> &GainPhaseOutput {
        &self.gain_output
    }
}

/// The orchestrator: configure, then [`run`](GroupRanking::run).
///
/// Runs every party's computation in-process, charging wall-clock per
/// party and logging every wire message, which is exactly what the
/// paper's evaluation measures.
#[derive(Clone, Debug)]
pub struct GroupRanking {
    params: FrameworkParams,
    population: Option<(InitiatorProfile, Vec<InfoVector>)>,
    log: TrafficLog,
}

impl GroupRanking {
    /// Creates an orchestrator for the given parameters.
    pub fn new(params: FrameworkParams) -> Self {
        GroupRanking {
            params,
            population: None,
            log: TrafficLog::new(),
        }
    }

    /// Generates a seeded random population (deterministic per
    /// `params.seed()`).
    pub fn with_random_population(mut self) -> Self {
        let mut rng = HashDrbg::seed_from_u64(self.params.seed());
        self.population = Some(self.params.random_population(&mut rng));
        self
    }

    /// Supplies an explicit population.
    ///
    /// # Errors
    ///
    /// [`VectorError::DimensionMismatch`] if the number of info vectors
    /// does not match `params.participants()`.
    pub fn with_population(
        mut self,
        profile: InitiatorProfile,
        infos: Vec<InfoVector>,
    ) -> Result<Self, VectorError> {
        if infos.len() != self.params.participants() {
            return Err(VectorError::DimensionMismatch {
                expected: self.params.participants(),
                got: infos.len(),
            });
        }
        self.population = Some((profile, infos));
        Ok(self)
    }

    /// Shares this run's traffic log (e.g. to feed the network simulator
    /// afterwards).
    pub fn traffic_log(&self) -> TrafficLog {
        self.log.clone()
    }

    /// The parameters.
    pub fn params(&self) -> &FrameworkParams {
        &self.params
    }

    /// Executes all three phases.
    ///
    /// Drives a [`SessionMachine`] to completion; a machine stepped the
    /// same way elsewhere (e.g. by the throughput runtime) produces
    /// identical results.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run(self) -> Result<Outcome, RunError> {
        let mut machine = self.into_machine()?;
        while machine.step()? == SessionStatus::Pending {}
        machine
            .into_outcome()
            .ok_or(RunError::Internal("machine driven to Done but no outcome"))
    }

    /// Converts the configured orchestrator into a resumable
    /// [`SessionMachine`] with default sort options.
    ///
    /// # Errors
    ///
    /// [`RunError::MissingPopulation`] if no population was supplied.
    pub fn into_machine(self) -> Result<SessionMachine, RunError> {
        self.into_machine_with(SortOptions::default())
    }

    /// Converts the orchestrator into a [`SessionMachine`], overriding the
    /// sorting options (the throughput runtime pins `threads: 1` so each
    /// session is single-threaded and the pool supplies the parallelism).
    ///
    /// # Errors
    ///
    /// [`RunError::MissingPopulation`] if no population was supplied.
    pub fn into_machine_with(self, sort_options: SortOptions) -> Result<SessionMachine, RunError> {
        let population = self.population.ok_or(RunError::MissingPopulation)?;
        let n = self.params.participants();
        Ok(SessionMachine {
            params: self.params,
            population: Some(population),
            sort_options,
            log: self.log,
            phase: SessionPhase::Offline,
            offline: None,
            timers: std::array::from_fn(|_| PartyTimer::new(n + 1)),
            sort: None,
            result: None,
        })
    }
}

/// What a [`SessionMachine::step`] call left behind.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SessionStatus {
    /// More work remains; call [`SessionMachine::step`] again.
    Pending,
    /// The session finished; collect the result with
    /// [`SessionMachine::into_outcome`].
    Done,
}

/// Which phase a [`SessionMachine`] is in.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum SessionPhase {
    /// Offline precompute: acquire (or generate cold) the session's
    /// randomness stock before any online phase runs.
    Offline,
    /// The protocol: one [`SortMachine`] unit per step.
    Online,
    /// Result available.
    Done,
}

/// A resumable framework session.
///
/// One `step` call performs one unit of protocol work: the offline stock,
/// then one step of the session's [`SortMachine`] — phase 1's exchange
/// (the first online step builds every party's machine), the
/// participants' unblinding of their masked gains, key generation, bit
/// encryption, a party's comparison batch, a single chain hop, the
/// finish, or the submissions with their verification, after which the
/// outcome is assembled: `2n + 7` steps for `n` participants. Every
/// party's randomness derives from the session seed alone, so however its
/// steps are interleaved with *other* sessions' steps, its transcript and
/// ranks are bit-identical to a solo [`GroupRanking::run`] with the same
/// seed — within a session the steps are strictly sequential, which is
/// exactly the unlinkability requirement on the shuffle-decrypt chain.
/// Each party's work is charged to the timer of the phase it belongs to.
#[derive(Debug)]
pub struct SessionMachine {
    params: FrameworkParams,
    /// The population, until the first online step builds the machines.
    population: Option<(InitiatorProfile, Vec<InfoVector>)>,
    sort_options: SortOptions,
    log: TrafficLog,
    phase: SessionPhase,
    offline: Option<OfflineStock>,
    /// Each party's work in phases 1, 2 and 3.
    timers: [PartyTimer; 3],
    sort: Option<SortMachine>,
    result: Option<Outcome>,
}

impl SessionMachine {
    /// Whether the session has completed.
    pub fn is_done(&self) -> bool {
        self.phase == SessionPhase::Done
    }

    /// The session parameters.
    pub fn params(&self) -> &FrameworkParams {
        &self.params
    }

    /// The fingerprint of the offline stock this session expects — what a
    /// precompute pool must generate ([`OfflineStock::generate`]) for
    /// [`SessionMachine::attach_offline_stock`] to accept it.
    pub fn offline_fingerprint(&self) -> StockFingerprint {
        StockFingerprint::new(
            self.params.seed(),
            self.params.participants(),
            self.params.beta_bits(),
            self.params.group(),
        )
    }

    /// Hands the session a pool-generated offline stock, so its offline
    /// step finds the randomness ready instead of generating it inline.
    ///
    /// Returns `false` — leaving the session to generate cold, which
    /// produces bit-identical transcripts — if the offline step has
    /// already run or the stock's fingerprint does not match
    /// [`SessionMachine::offline_fingerprint`] exactly.
    pub fn attach_offline_stock(&mut self, stock: OfflineStock) -> bool {
        if self.phase != SessionPhase::Offline
            || self.offline.is_some()
            || stock.fingerprint() != &self.offline_fingerprint()
        {
            return false;
        }
        self.offline = Some(stock);
        true
    }

    /// Claims the keygen proof check the sort's keygen step parked, so the
    /// caller can batch it with other sessions' checks.
    ///
    /// Delegates to [`SortMachine::take_pending_verify`]: `Some` at most
    /// once, right after the keygen step; unclaimed, the next step settles
    /// the check itself. A caller that claims the job must settle it and
    /// discard the session's outcome if the verdict is `Err` — see
    /// [`KeygenVerifyJob`].
    pub fn take_pending_verify(&mut self) -> Option<KeygenVerifyJob> {
        self.sort
            .as_mut()
            .and_then(SortMachine::take_pending_verify)
    }

    /// The outcome, once [`SessionMachine::step`] has returned
    /// [`SessionStatus::Done`]. Consumes the machine; returns `None` if
    /// the session has not finished.
    pub fn into_outcome(self) -> Option<Outcome> {
        self.result
    }

    /// Executes the next unit of protocol work.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn step(&mut self) -> Result<SessionStatus, RunError> {
        match self.phase {
            SessionPhase::Offline => {
                // Cold fallback: generate the stock from the parties'
                // offline streams. A pool-attached stock comes from the
                // same streams, so transcripts do not depend on which side
                // did the work.
                if self.offline.is_none() {
                    let workers = resolve_threads(self.sort_options.threads);
                    let stock =
                        OfflineStock::generate(self.offline_fingerprint(), workers, || false)
                            .ok_or(RunError::Internal("uncancelled offline generation stopped"))?;
                    self.offline = Some(stock);
                }
                self.phase = SessionPhase::Online;
                Ok(SessionStatus::Pending)
            }
            SessionPhase::Online => self.step_online(),
            SessionPhase::Done => Ok(SessionStatus::Done),
        }
    }

    /// Steps the session's [`SortMachine`], building it first, and
    /// assembles the outcome once it is done.
    fn step_online(&mut self) -> Result<SessionStatus, RunError> {
        if self.sort.is_none() {
            let population = self.population.take();
            let Some(((profile, infos), stock)) = population.zip(self.offline.take()) else {
                return Err(RunError::Internal("no population or stock after Offline"));
            };
            let (params, options, timer) = (&self.params, self.sort_options, &mut self.timers[0]);
            let sort = SortMachine::session(params, profile, infos, options, stock, timer);
            self.sort = Some(sort);
        }
        let sort = self
            .sort
            .as_mut()
            .ok_or(RunError::Internal("no session machine online"))?;
        let timer = &mut self.timers[sort.phase() - 1];
        if sort.step(&self.log, timer)? == SortStatus::Pending {
            return Ok(SessionStatus::Pending);
        }
        let (ranks, betas, report) = self
            .sort
            .take()
            .and_then(SortMachine::into_session)
            .ok_or(RunError::Internal("session machine Done without result"))?;
        let [gain, sort, submit] = &self.timers;
        let n = self.params.participants();
        let per_party: Vec<Duration> = (0..=n)
            .map(|p| gain.spent(p) + sort.spent(p) + submit.spent(p))
            .collect();
        let timings = PhaseTimings {
            gain: gain.mean_participant(),
            sort: sort.mean_participant(),
            submit: submit.spent(0),
            initiator: per_party[0],
            per_party,
        };
        self.result = Some(Outcome {
            ranks,
            top_k: report.accepted,
            traffic: self.log.summary(),
            timings,
            gain_output: GainPhaseOutput { betas },
        });
        self.phase = SessionPhase::Done;
        Ok(SessionStatus::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{gain, Questionnaire};
    use ppgr_group::GroupKind;

    fn small_params(n: usize, k: usize, seed: u64) -> FrameworkParams {
        FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(k)
            .attr_bits(6)
            .weight_bits(3)
            .mask_bits(6)
            .group(GroupKind::Ecc160)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_ranks_match_plaintext_gains() {
        let params = small_params(4, 2, 11);
        let runner = GroupRanking::new(params.clone()).with_random_population();
        let q = params.questionnaire().clone();
        let outcome = runner.run().unwrap();

        // Recompute plaintext gains to validate ranking.
        let mut rng = HashDrbg::seed_from_u64(params.seed());
        let (profile, infos) = params.random_population(&mut rng);
        let gains: Vec<i128> = infos.iter().map(|i| gain(&q, &profile, i)).collect();
        for a in 0..gains.len() {
            for b in 0..gains.len() {
                if gains[a] > gains[b] {
                    assert!(
                        outcome.ranks()[a] < outcome.ranks()[b],
                        "gain order violated: {:?} vs ranks {:?}",
                        gains,
                        outcome.ranks()
                    );
                }
            }
        }
        // Top-k are the k best gains.
        assert_eq!(outcome.top_k().len(), 2);
        for acc in outcome.top_k() {
            assert!(acc.submission.claimed_rank <= 2);
        }
    }

    #[test]
    fn missing_population_errors() {
        let params = small_params(3, 1, 1);
        assert_eq!(
            GroupRanking::new(params).run().unwrap_err(),
            RunError::MissingPopulation
        );
    }

    #[test]
    fn population_size_checked() {
        let params = small_params(3, 1, 1);
        let mut rng = HashDrbg::seed_from_u64(5);
        let (profile, mut infos) = params.random_population(&mut rng);
        infos.pop();
        assert!(matches!(
            GroupRanking::new(params).with_population(profile, infos),
            Err(VectorError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GroupRanking::new(small_params(3, 1, 77))
            .with_random_population()
            .run()
            .unwrap();
        let b = GroupRanking::new(small_params(3, 1, 77))
            .with_random_population()
            .run()
            .unwrap();
        assert_eq!(a.ranks(), b.ranks());
        assert_eq!(a.traffic(), b.traffic());
    }

    #[test]
    fn traffic_and_timing_populated() {
        let outcome = GroupRanking::new(small_params(3, 1, 9))
            .with_random_population()
            .run()
            .unwrap();
        assert!(outcome.traffic().total_bytes > 0);
        assert!(outcome.timings().sort > Duration::ZERO);
        assert!(outcome.timings().mean_participant_total() >= outcome.timings().sort);
        assert_eq!(outcome.timings().per_party.len(), 4);
    }
}
