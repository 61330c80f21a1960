//! Phase 2 — the identity-unlinkable multiparty sorting protocol
//! (paper Fig. 1, steps 5–9; the paper's stand-alone contribution).
//!
//! `n` parties each hold an `l`-bit value; at the end each party knows the
//! rank of her own value (rank 1 = largest) and — crucially — nobody can
//! link another party's value or rank to that party's identity, assuming
//! at least two honest parties.
//!
//! Protocol outline:
//!
//! 1. every party generates an ElGamal key share and proves knowledge of
//!    it to everyone (multi-verifier Schnorr);
//! 2. every party publishes her value encrypted bit-by-bit under the
//!    *joint* key;
//! 3. every party homomorphically compares her plaintext value against
//!    every other party's encrypted bits ([`circuit`](crate::circuit)),
//!    producing an encrypted `τ` set, and sends it to `P₁`;
//! 4. the sets travel a chain through all parties; each hop partially
//!    decrypts with its key share, multiplies every plaintext by a fresh
//!    random scalar (zero is a fixed point), and shuffles each set;
//! 5. `P_n` returns each set to its owner, who strips her own key layer
//!    and counts zeros: `rank = zeros + 1`.

use crate::circuit::compare_encrypted;
use crate::offline::{KeyMaterial, OfflineStock};
use crate::timing::PartyTimer;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, JointKey, KeyPair};
use ppgr_group::{Element, Group, GroupKind, HopScalars};
use ppgr_net::TrafficLog;
use ppgr_zkp::{
    verify_multi_batch, verify_multi_batch_all, verify_sessions_multi_batch, MultiVerifierProof,
    MultiVerifierTranscript,
};
use rand::seq::SliceRandom;
use rand::Rng;
use std::error::Error;
use std::fmt;
use std::ops::Range;
// tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
use std::time::{Duration, Instant};

/// Errors from the sorting protocol.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum SortError {
    /// The chain needs at least two parties.
    TooFewParties(usize),
    /// A value exceeds the declared bit length.
    ValueTooWide {
        /// Offending party (1-based).
        party: usize,
    },
    /// A party's proof of key knowledge failed verification (would abort
    /// the protocol in deployment; only reachable here via the game
    /// harness's dishonest provers).
    ProofRejected {
        /// The accused prover (1-based).
        party: usize,
    },
    /// A pool offered an offline stock minted for a different group
    /// instantiation. Silently regenerating would hide a mis-keyed pool
    /// lane, so the mismatch is surfaced instead.
    StockGroupMismatch {
        /// The session's group.
        expected: GroupKind,
        /// The stock fingerprint's group.
        got: GroupKind,
    },
    /// A sort-machine invariant was violated (state out of sync).
    /// Reaching this indicates a bug in the driver, not bad input.
    Internal(&'static str),
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::TooFewParties(n) => write!(f, "sorting needs at least 2 parties, got {n}"),
            SortError::ValueTooWide { party } => {
                write!(f, "party {party}'s value exceeds the declared bit length")
            }
            SortError::ProofRejected { party } => {
                write!(f, "party {party} failed the proof of key knowledge")
            }
            SortError::StockGroupMismatch { expected, got } => {
                write!(
                    f,
                    "offline stock was minted for group {got:?}, session uses {expected:?}"
                )
            }
            SortError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl Error for SortError {}

/// Result of a sorting run.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct SortOutcome {
    /// `ranks[j]` is party `j+1`'s rank; rank 1 = largest value; ties get
    /// the same rank (paper: equal `β` values are all eligible).
    pub ranks: Vec<usize>,
}

/// Protocol knobs used by the security-game harness; honest executions use
/// [`SortOptions::default`] (everything on).
#[derive(Clone, Copy, Debug)]
pub struct SortOptions {
    /// Shuffle each set at every hop (the identity-unlinkability
    /// mechanism). Disabling models a protocol *without* Brickell–
    /// Shmatikov mixing.
    pub shuffle: bool,
    /// Multiply plaintexts by a fresh random at every hop (the gain-hiding
    /// mechanism for non-zero `τ`).
    pub randomize: bool,
    /// Worker threads for each step's local crypto (`0` = one per
    /// available core, `1` = serial). Every fanned-out step splits a flat
    /// index space into near-equal contiguous ranges, one per worker: the
    /// cold offline mint (its mask halves and hop-scalar preparations),
    /// the comparison step (opponents, then the set's rerandomization
    /// masks), each hop (the output positions of all `n − 1` foreign sets
    /// laid end to end) and the finish (every owner's returned ciphertexts
    /// laid end to end). Randomness is pre-drawn serially, so every thread
    /// count produces bit-identical transcripts and ranks.
    /// Only *local* work parallelizes: the hop-to-hop chain itself stays
    /// sequential because each hop must shuffle and re-randomize the
    /// previous hop's output before anyone else may see it — pipelining
    /// hops would let a party observe pre-shuffle sets and break
    /// unlinkability.
    pub threads: usize,
    /// Detach the keygen proof verification from the step stream: instead
    /// of checking the proofs of key knowledge inside the keygen step, the
    /// machine stashes them as a [`KeygenVerifyJob`] for the driver to
    /// collect (see [`SortMachine::take_pending_verify`]) and batch across
    /// concurrent sessions through one aggregate multi-exponentiation.
    /// Verification is RNG-free and sends no bytes, so deferring it leaves
    /// transcripts and ranks bit-identical to the inline check; a driver
    /// that takes a job **must** run it (or fail the session) before
    /// trusting the outcome.
    pub defer_verify: bool,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            shuffle: true,
            randomize: true,
            threads: 0,
            defer_verify: false,
        }
    }
}

/// One session's keygen proof check, detached from its step stream by
/// [`SortOptions::defer_verify`].
///
/// Carries the published key shares (the statements) and the parties'
/// proofs of key knowledge in protocol order. Checking each proof once is
/// equivalent to the online round's `n` per-verifier batches — every
/// verifier checks the same `n − 1` foreign transcripts against the same
/// public keys — so a driver may fold many sessions' jobs into one
/// aggregate equation ([`verify_deferred_jobs`]) without changing any
/// session's verdict or blame.
#[derive(Debug)]
pub struct KeygenVerifyJob {
    group: Group,
    statements: Vec<Element>,
    proofs: Vec<MultiVerifierTranscript>,
}

impl KeygenVerifyJob {
    /// The group instantiation the proofs live in. Jobs may only be batched
    /// with jobs of the same kind; [`verify_deferred_jobs`] partitions by
    /// this internally.
    pub fn group_kind(&self) -> GroupKind {
        self.group.kind()
    }

    /// Number of proofs (= parties) in the job.
    pub fn proofs(&self) -> usize {
        self.proofs.len()
    }

    fn items(&self) -> Vec<(&Element, &MultiVerifierTranscript)> {
        self.statements.iter().zip(self.proofs.iter()).collect()
    }

    /// Verifies this job alone, without cross-session batching.
    ///
    /// The fallback for drivers whose batch window is degenerate (size one)
    /// or that must settle a job immediately (e.g. at shutdown).
    ///
    /// # Errors
    ///
    /// [`SortError::ProofRejected`] naming the first dishonest party in
    /// protocol order — the same blame the inline keygen check assigns.
    pub fn verify_inline(&self) -> Result<(), SortError> {
        verify_multi_batch_all(&self.group, &self.items()).map_err(|rejected| {
            SortError::ProofRejected {
                // `verify_multi_batch_all` only errs with a non-empty,
                // ascending rejection list; the fallback party 1 is
                // unreachable but keeps the mapping total.
                party: rejected.first().map_or(1, |&p| p + 1),
            }
        })
    }
}

/// Settles a batch of deferred keygen proof checks in one aggregate
/// multi-exponentiation per group instantiation, returning one verdict per
/// job in input order.
///
/// This is the cross-session amortization lever: `k` sessions of `n`
/// parties collapse into a single `k·n`-term aggregate equation instead of
/// `k·n` per-verifier batches. On aggregate failure the authoritative
/// per-proof rescan attributes every rejection to its session and party
/// ([`ppgr_zkp::verify_sessions_multi_batch`]), so each failed session's
/// error names exactly the party its solo run would have blamed; sessions
/// whose proofs all hold still verify `Ok` in the same call.
pub fn verify_deferred_jobs(jobs: &[KeygenVerifyJob]) -> Vec<Result<(), SortError>> {
    let mut verdicts: Vec<Result<(), SortError>> = (0..jobs.len()).map(|_| Ok(())).collect();
    // Partition by group kind, preserving submission order within each
    // partition (the combiner derivation is order-sensitive, but every
    // ordering is sound — this one just keeps reruns deterministic).
    let mut kinds: Vec<GroupKind> = Vec::new();
    for job in jobs {
        if !kinds.contains(&job.group.kind()) {
            kinds.push(job.group.kind());
        }
    }
    for kind in kinds {
        let indices: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.group.kind() == kind)
            .map(|(i, _)| i)
            .collect();
        let group = &jobs[indices[0]].group;
        let per_job: Vec<Vec<(&Element, &MultiVerifierTranscript)>> =
            indices.iter().map(|&i| jobs[i].items()).collect();
        let sessions: Vec<&[(&Element, &MultiVerifierTranscript)]> =
            per_job.iter().map(Vec::as_slice).collect();
        if let Err(rejections) = verify_sessions_multi_batch(group, &sessions) {
            for r in rejections {
                if let Some(&first) = r.proofs.first() {
                    verdicts[indices[r.session]] =
                        Err(SortError::ProofRejected { party: first + 1 });
                }
            }
        }
    }
    verdicts
}

/// Resolves [`SortOptions::threads`] to a concrete worker count.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Splits the flat index space `0..total` into at most `workers`
/// contiguous ranges of near-equal length (sizes differ by at most one)
/// and runs `work` on each range on its own scoped thread — inline, with
/// no spawn, when there is a single range. `take` builds each range's
/// input on the calling thread, in range order, so it may split off owned
/// or `&mut` data for the range. Returns the results in range order plus
/// the CPU time summed over the workers (for [`PartyTimer::record`]).
/// `work` must not touch the protocol RNG — callers pre-draw any
/// randomness serially, which keeps every worker count bit-identical.
pub(crate) fn fan_out<T: Send, U: Send>(
    total: usize,
    workers: usize,
    take: impl FnMut(Range<usize>) -> T,
    work: impl Fn(T) -> U + Sync,
) -> (Vec<U>, Duration) {
    let parts = workers.clamp(1, total.max(1));
    let inputs: Vec<T> = (0..parts)
        .map(|p| p * total / parts..(p + 1) * total / parts)
        .map(take)
        .collect();
    let timed = |input: T| {
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        let out = work(input);
        (out, start.elapsed())
    };
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return (Vec::new(), Duration::ZERO);
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs.map(|input| s.spawn(|| timed(input))).collect();
        // The calling thread takes the first range itself.
        let (out, mut cpu) = timed(first);
        let mut outs = vec![out];
        for handle in handles {
            // A worker that panicked (e.g. an assert in `work`) must not be
            // swallowed into a bogus result; re-raise its payload on the
            // caller's thread instead.
            let (out, spent) = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            outs.push(out);
            cpu += spent;
        }
        (outs, cpu)
    })
}

/// The pieces of the flat range `range` over consecutive segments of
/// `len` indices each: `(segment, range within the segment)`, in order.
fn pieces(range: Range<usize>, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let (mut at, end) = (range.start, range.end);
    std::iter::from_fn(move || {
        if at >= end || len == 0 {
            return None;
        }
        let (segment, offset) = (at / len, at % len);
        let stop = (offset + end - at).min(len);
        at += stop - offset;
        Some((segment, offset..stop))
    })
}

/// Everything a run exposes beyond the ranks — consumed by the
/// security-game harness (an adversary's view is a subset of this).
#[derive(Clone, Debug)]
pub struct SortTrace {
    /// Per-party key pairs (index `j-1` → party `j`).
    pub keys: Vec<KeyPair>,
    /// The final set returned to each owner (after the full chain),
    /// *before* the owner's own final decryption.
    pub returned_sets: Vec<Vec<Ciphertext>>,
    /// The comparison opponent order used when each owner built her set
    /// (identity ↔ position mapping before any shuffling).
    pub opponent_order: Vec<Vec<usize>>,
}

/// Runs the protocol with default options and no trace capture.
///
/// `values[j]` is party `j+1`'s private `l`-bit value.
///
/// # Errors
///
/// See [`SortError`].
pub fn unlinkable_sort<R: Rng + ?Sized>(
    group: &Group,
    values: &[BigUint],
    l: usize,
    rng: &mut R,
    log: &TrafficLog,
    timer: &mut PartyTimer,
    round_base: u32,
) -> Result<SortOutcome, SortError> {
    run_sort(
        group,
        values,
        l,
        SortOptions::default(),
        rng,
        log,
        timer,
        round_base,
    )
    .map(|(outcome, _trace)| outcome)
}

/// Full-control entry point: options + trace (used by games and tests).
///
/// Drives a [`SortMachine`] to completion; a machine stepped the same way
/// with the same RNG produces bit-identical transcripts and ranks.
///
/// # Errors
///
/// See [`SortError`].
#[allow(clippy::too_many_arguments)]
pub fn run_sort<R: Rng + ?Sized>(
    group: &Group,
    values: &[BigUint],
    l: usize,
    options: SortOptions,
    rng: &mut R,
    log: &TrafficLog,
    timer: &mut PartyTimer,
    round_base: u32,
) -> Result<(SortOutcome, SortTrace), SortError> {
    let mut machine = SortMachine::new(group, values, l, options, round_base)?;
    while machine.step(rng, log, timer)? == SortStatus::Pending {}
    machine
        .into_result()
        .ok_or(SortError::Internal("machine driven to Done but no result"))
}

/// What a [`SortMachine::step`] call left behind.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SortStatus {
    /// More protocol steps remain; call [`SortMachine::step`] again.
    Pending,
    /// The protocol finished; collect the result with
    /// [`SortMachine::into_result`].
    Done,
}

/// Where a [`SortMachine`] currently stands in the protocol.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum SortState {
    /// Offline phase: acquire (or draw cold) the precomputed stock — key
    /// material with proofs, encryption and comparison mask pairs, hop
    /// randomizers.
    Offline,
    /// Step 5: key generation + proofs of knowledge (all parties).
    KeyGen,
    /// Step 6: bitwise encryption under the joint key (all parties).
    Encrypt,
    /// Step 7: party `idx + 1` builds her τ-sets.
    Compare { idx: usize },
    /// Step 8: party `idx + 1` runs her shuffle-decrypt chain hop.
    Hop { idx: usize },
    /// Step 9: owners strip their layers, count zeros, assemble the result.
    Finish,
    /// Result available.
    Done,
}

/// A resumable execution of the sorting protocol.
///
/// [`run_sort`] drives one machine to completion in a loop; the throughput
/// runtime (`ppgr-runtime`) instead interleaves `step` calls from *many*
/// machines on a persistent worker pool, so that while one session's
/// strictly sequential shuffle-decrypt chain occupies a worker, other
/// sessions' hops fill the remaining workers.
///
/// Granularity: one `step` call performs one protocol unit — all of key
/// generation, all of bit encryption, or a single party's comparison batch
/// / chain hop (the chain hops are ~89 % of the cost, so per-hop yields are
/// what make cross-session pipelining effective). Every random draw happens
/// inside `step` in the exact order the serial protocol would draw it, so a
/// session's transcript and ranks are bit-identical no matter how its steps
/// are interleaved with other sessions'.
#[derive(Debug)]
pub struct SortMachine {
    // Fixed configuration.
    group: Group,
    scheme: ExpElGamal,
    values: Vec<BigUint>,
    l: usize,
    options: SortOptions,
    n: usize,
    workers: usize,
    ct_len: usize,
    elem_len: usize,
    scalar_len: usize,
    // Protocol state.
    state: SortState,
    round: u32,
    keys: Vec<KeyPair>,
    key_table: Option<ppgr_group::FixedBaseTable>,
    encrypted_bits: Vec<Vec<Ciphertext>>,
    sets: Vec<Vec<Ciphertext>>,
    opponent_order: Vec<Vec<usize>>,
    /// Reusable hop output buffer: each hop writes its first output piece
    /// here and keeps a replaced set's buffer for the next hop, so a
    /// serial chain reuses one set's capacity from hop to hop.
    hop_scratch: Vec<Ciphertext>,
    /// Precomputed randomness, attached warm by a pool or drawn cold at the
    /// offline step; consumed front-to-back in protocol order.
    stock: Option<OfflineStock>,
    /// The keygen proof check stashed by a `defer_verify` run, awaiting
    /// collection via [`SortMachine::take_pending_verify`].
    pending_verify: Option<KeygenVerifyJob>,
    result: Option<(SortOutcome, SortTrace)>,
}

impl SortMachine {
    /// Validates the inputs and prepares a machine at step 5.
    ///
    /// # Errors
    ///
    /// See [`SortError`] (`TooFewParties`, `ValueTooWide`).
    pub fn new(
        group: &Group,
        values: &[BigUint],
        l: usize,
        options: SortOptions,
        round_base: u32,
    ) -> Result<Self, SortError> {
        let n = values.len();
        if n < 2 {
            return Err(SortError::TooFewParties(n));
        }
        for (idx, v) in values.iter().enumerate() {
            if v.bits() > l {
                return Err(SortError::ValueTooWide { party: idx + 1 });
            }
        }
        Ok(SortMachine {
            scheme: ExpElGamal::new(group.clone()),
            ct_len: Ciphertext::encoded_len(group),
            elem_len: group.element_len(),
            scalar_len: group.order().bits().div_ceil(8),
            group: group.clone(),
            values: values.to_vec(),
            l,
            options,
            n,
            workers: resolve_threads(options.threads),
            state: SortState::Offline,
            round: round_base,
            keys: Vec::new(),
            key_table: None,
            encrypted_bits: Vec::new(),
            sets: Vec::new(),
            opponent_order: Vec::new(),
            hop_scratch: Vec::new(),
            stock: None,
            pending_verify: None,
            result: None,
        })
    }

    /// Attaches a pool-generated [`OfflineStock`] before the machine's
    /// offline step runs, so the step finds its randomness ready instead of
    /// drawing it cold.
    ///
    /// # Errors
    ///
    /// [`SortError::StockGroupMismatch`] if the stock's fingerprint names a
    /// different group instantiation than this session — a mis-keyed pool
    /// lane that silently regenerating cold would hide.
    /// [`SortError::Internal`] if the offline step has already run, a stock
    /// is already attached, or the stock's shape does not match this
    /// session (`n` parties, `l` bits).
    pub fn attach_offline_stock(&mut self, stock: OfflineStock) -> Result<(), SortError> {
        if let Some(fp) = stock.fingerprint() {
            if fp.group != self.group.kind() {
                return Err(SortError::StockGroupMismatch {
                    expected: self.group.kind(),
                    got: fp.group,
                });
            }
        }
        if self.state != SortState::Offline || self.stock.is_some() {
            return Err(SortError::Internal(
                "offline stock attached after the offline step",
            ));
        }
        if !stock.matches_shape(&self.group, self.n, self.l) {
            return Err(SortError::Internal("offline stock shape mismatch"));
        }
        self.stock = Some(stock);
        Ok(())
    }

    /// Takes the keygen proof check a [`SortOptions::defer_verify`] run
    /// stashed, if any.
    ///
    /// Returns `Some` exactly once, after the keygen step of a deferred run
    /// whose stock was not already verified at minting time. The caller
    /// owns the session's soundness from that point: it must settle the job
    /// — [`KeygenVerifyJob::verify_inline`] or a [`verify_deferred_jobs`]
    /// batch — and discard the session's outcome if the verdict is `Err`.
    pub fn take_pending_verify(&mut self) -> Option<KeygenVerifyJob> {
        self.pending_verify.take()
    }

    /// Donates a recycled hop output buffer so the chain's dominant loop
    /// starts with warm capacity instead of growing a fresh allocation.
    ///
    /// The buffer is cleared and fully overwritten before any use, so its
    /// prior contents never influence the protocol — transcripts stay
    /// bit-identical whether the scratch arrived empty, donated, or
    /// pre-sized. Call before stepping; a later call simply replaces the
    /// current buffer.
    pub fn adopt_scratch(&mut self, mut scratch: Vec<Ciphertext>) {
        scratch.clear();
        self.hop_scratch = scratch;
    }

    /// Takes the hop output buffer back (e.g. after [`SortStatus::Done`])
    /// so a pool can hand its capacity to the next session.
    pub fn take_scratch(&mut self) -> Vec<Ciphertext> {
        std::mem::take(&mut self.hop_scratch)
    }

    /// Whether the protocol has completed.
    pub fn is_done(&self) -> bool {
        self.state == SortState::Done
    }

    /// The outcome and trace, once [`SortMachine::step`] has returned
    /// [`SortStatus::Done`]. Consumes the machine; returns `None` if the
    /// protocol has not finished.
    pub fn into_result(self) -> Option<(SortOutcome, SortTrace)> {
        self.result
    }

    /// Executes the next protocol unit.
    ///
    /// All randomness is drawn from `rng` inside this call, in serial
    /// protocol order; wire traffic is logged to `log` and per-party
    /// computation charged to `timer`.
    ///
    /// # Errors
    ///
    /// [`SortError::ProofRejected`] if a proof of key knowledge fails
    /// (reachable only via dishonest provers in the game harness).
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<SortStatus, SortError> {
        match self.state {
            SortState::Offline => {
                // Cold fallback: no pool attached a stock, so draw and mint
                // the whole keygen tier from the protocol stream here, on
                // the session clock. Warm machines skip this entirely.
                // Offline work is charged to nobody's per-party ledger —
                // that is the point of the split.
                if self.stock.is_none() {
                    // A defer-verify run must not pay for minting-time proof
                    // verification here either — the check belongs to the
                    // cross-session batch. The deferred draw skips only the
                    // verdict; the stock bytes are identical.
                    self.stock = Some(OfflineStock::draw_cold(
                        &self.group,
                        self.n,
                        self.l,
                        rng,
                        self.workers,
                        !self.options.defer_verify,
                    ));
                }
                self.state = SortState::KeyGen;
                Ok(SortStatus::Pending)
            }
            SortState::KeyGen => {
                self.step_keygen(log, timer)?;
                self.state = SortState::Encrypt;
                Ok(SortStatus::Pending)
            }
            SortState::Encrypt => {
                self.step_encrypt(log, timer)?;
                self.state = SortState::Compare { idx: 0 };
                Ok(SortStatus::Pending)
            }
            SortState::Compare { idx } => {
                self.step_compare(idx, log, timer)?;
                self.state = if idx + 1 < self.n {
                    SortState::Compare { idx: idx + 1 }
                } else {
                    self.round += 1;
                    SortState::Hop { idx: 0 }
                };
                Ok(SortStatus::Pending)
            }
            SortState::Hop { idx } => {
                self.step_hop(idx, rng, log, timer)?;
                self.state = if idx + 1 < self.n {
                    SortState::Hop { idx: idx + 1 }
                } else {
                    SortState::Finish
                };
                Ok(SortStatus::Pending)
            }
            SortState::Finish => {
                self.step_finish(log, timer);
                self.state = SortState::Done;
                Ok(SortStatus::Done)
            }
            SortState::Done => Ok(SortStatus::Done),
        }
    }

    /// Step 5: key generation + proofs of knowledge, fed entirely from the
    /// offline stock.
    ///
    /// Keys are party randomness, not inputs, so the stock carries them:
    /// a keygen-tier stock hands over minted key pairs, assembled proofs
    /// and the prepared joint-key table, leaving online only the share
    /// exchange and proof verification; a masks-tier stock hands over the
    /// raw seeds and the minting runs here, on the clock. Both paths
    /// produce byte-identical transcripts.
    ///
    /// Verification is batched per verifier: each party collapses her n−1
    /// foreign checks into one aggregate multi-exponentiation
    /// ([`ppgr_zkp::verify_multi_batch`]); on rejection a per-prover rescan
    /// in protocol order reproduces exactly the attribution the old
    /// verify-as-you-go loop gave.
    fn step_keygen(&mut self, log: &TrafficLog, timer: &mut PartyTimer) -> Result<(), SortError> {
        let n = self.n;
        let material = self
            .stock
            .as_mut()
            .and_then(OfflineStock::take_keys)
            .ok_or(SortError::Internal("offline key stock exhausted"))?;
        let (keys, proofs, pre_verified) = match material {
            KeyMaterial::Minted {
                pairs,
                proofs,
                joint: _,
                table,
                verified,
            } => {
                // Fully warm: the shares, proofs and the joint-key comb
                // table were minted offline; nothing here exponentiates.
                // A stock whose proofs were already batch-verified at
                // minting time carries the verdict, so the online round
                // below is skipped too.
                self.key_table = Some(table);
                (pairs, proofs, verified)
            }
            KeyMaterial::Seeds {
                secrets,
                nonces,
                challenges,
            } => {
                // Masks tier / cold-adjacent: mint from the stocked seeds
                // on the clock, charged to each party.
                let keys: Vec<KeyPair> = secrets
                    .iter()
                    .enumerate()
                    .map(|(idx, s)| {
                        timer.time(idx + 1, || {
                            KeyPair::from_secret(&self.group, s.expose().clone())
                        })
                    })
                    .collect();
                let proofs: Vec<MultiVerifierTranscript> = keys
                    .iter()
                    .zip(nonces)
                    .zip(challenges)
                    .enumerate()
                    .map(|(idx, ((kp, nonce), chals))| {
                        timer.time(idx + 1, || {
                            MultiVerifierProof::assemble(&self.group, kp.secret_key(), nonce, chals)
                        })
                    })
                    .collect();
                (keys, proofs, false)
            }
        };
        for party in 1..=n {
            // Publish y_j.
            for other in 1..=n {
                if other != party {
                    log.record(self.round, party, other, self.elem_len, "sort/keys");
                }
            }
        }
        self.round += 1;
        for party in 1..=n {
            // Commitment broadcast, n−1 challenge shares, response broadcast.
            for other in 1..=n {
                if other != party {
                    log.record(self.round, party, other, self.elem_len, "sort/zkp");
                    log.record(self.round + 1, other, party, self.scalar_len, "sort/zkp");
                    log.record(self.round + 2, party, other, self.scalar_len, "sort/zkp");
                }
            }
        }
        // Skipped when the stock already ran every verifier's batch check
        // at minting time (the proofs are offline material, so verifying
        // them is offline work — see `KeyMaterial::Minted::verified`).
        if !pre_verified && self.options.defer_verify {
            // Deferred: hand the statements and proofs to the driver as a
            // job for a cross-session batch instead of checking them here.
            // Nothing is charged to any party's ledger — like the offline
            // split, moving the check off the session clock is the point —
            // and no bytes move, so the transcript is unchanged. Checking
            // each proof once (what the job does) is equivalent to the
            // per-verifier loop below: every verifier checks the same
            // foreign transcripts against the same keys.
            self.pending_verify = Some(KeygenVerifyJob {
                group: self.group.clone(),
                statements: keys.iter().map(|k| k.public_key().clone()).collect(),
                proofs,
            });
        } else {
            for vidx in 0..n {
                if pre_verified {
                    break;
                }
                let foreign: Vec<(&Element, &MultiVerifierTranscript)> = (0..n)
                    .filter(|&p| p != vidx)
                    .map(|p| (keys[p].public_key(), &proofs[p]))
                    .collect();
                let ok = timer.time(vidx + 1, || {
                    verify_multi_batch(&self.group, &foreign).is_ok()
                });
                if !ok {
                    // Rescan over *all* provers in protocol order so the
                    // error names the first dishonest one, exactly as the
                    // old verify-as-you-go loop did (a verifier's own batch
                    // skips her own proof, so the batch index alone is not
                    // enough).
                    let party = (0..n)
                        .find(|&p| !proofs[p].verify(&self.group, keys[p].public_key()))
                        .map_or(vidx + 1, |p| p + 1);
                    return Err(SortError::ProofRejected { party });
                }
            }
        }
        self.round += 3;
        self.keys = keys;
        Ok(())
    }

    /// Step 6: bitwise encryption under the joint key, published to all.
    ///
    /// A keygen-tier stock delivered the joint key's prepared comb table
    /// (and every mask's `y^r` half) at the keygen step, so nothing here
    /// exponentiates beyond one group operation per set bit; otherwise the
    /// table is derived now and the `y^r` batch runs online through it.
    fn step_encrypt(&mut self, log: &TrafficLog, timer: &mut PartyTimer) -> Result<(), SortError> {
        let n = self.n;
        let key_table = match self.key_table.take() {
            Some(table) => table,
            None => {
                let shares: Vec<_> = self.keys.iter().map(|k| k.public_key().clone()).collect();
                let joint = JointKey::combine(&self.group, &shares);
                // The fixed-base table for the joint key `y` is public
                // precomputation: every party derives it from the published
                // key shares, so its (small, amortized) cost is not charged
                // to any single party's ledger.
                self.scheme.prepare_key(joint.public_key())
            }
        };
        let mut stock = self
            .stock
            .take()
            .ok_or(SortError::Internal("no offline stock at encrypt"))?;
        self.encrypted_bits = self
            .values
            .iter()
            .enumerate()
            .map(|(idx, v)| {
                let party = idx + 1;
                let row = stock
                    .take_enc_row()
                    .ok_or(SortError::Internal("offline encryption stock exhausted"))?;
                let cts = timer.time(party, || {
                    encrypt_bits_with_precomputed(&self.scheme, &key_table, v, self.l, row)
                });
                for other in 1..=n {
                    if other != party {
                        log.record(self.round, party, other, self.l * self.ct_len, "sort/bits");
                    }
                }
                Ok(cts)
            })
            .collect::<Result<_, SortError>>()?;
        self.stock = Some(stock);
        self.round += 1;
        self.key_table = Some(key_table);
        Ok(())
    }

    /// Step 7 for one party: she compares her plaintext value against every
    /// other party's encrypted bits; her set is the concatenation in
    /// `opponent_order`. The n−1 comparisons are independent and consume no
    /// randomness, so they may fan out across worker threads.
    ///
    /// Before the set leaves her hands she re-randomizes every ciphertext
    /// with a stocked `(g^s, y^s)` pair. The raw τ set is a *deterministic*
    /// homomorphic combination of the published bit encryptions, keyed only
    /// by her `l`-bit plaintext — anyone who sees it before its first chain
    /// randomization (P₁ on collection, the next hop for P₁'s own set)
    /// could confirm a guess of her value by recomputing the combination.
    /// Re-randomization makes the set's bytes independent of everything
    /// published, closing that hole; the plaintexts (and so the ranks and
    /// zero counts) are untouched.
    fn step_compare(
        &mut self,
        idx: usize,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<(), SortError> {
        let party = idx + 1;
        let opponents: Vec<usize> = (0..self.n).filter(|&i| i != idx).collect();
        let value = &self.values[idx];
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        let (chunks, compare_cpu) = fan_out(
            opponents.len(),
            self.workers,
            |range| range,
            |range| {
                opponents[range]
                    .iter()
                    .flat_map(|&opp| {
                        compare_encrypted(&self.scheme, value, &self.encrypted_bits[opp], self.l)
                    })
                    .collect::<Vec<_>>()
            },
        );
        let raw: Vec<Ciphertext> = chunks.into_iter().flatten().collect();
        let row = self
            .stock
            .as_mut()
            .and_then(OfflineStock::take_compare_row)
            .ok_or(SortError::Internal("offline compare stock exhausted"))?;
        if row.len() != raw.len() {
            return Err(SortError::Internal("offline compare stock shape mismatch"));
        }
        let key_table = self
            .key_table
            .as_ref()
            .ok_or(SortError::Internal("no key table at compare"))?;
        // Each range takes its own slice of the (single-use) mask row.
        let mut masks = row.into_iter();
        let (parts, rerandomize_cpu) = fan_out(
            raw.len(),
            self.workers,
            |range| (masks.by_ref().take(range.len()).collect(), range),
            |(masks, range)| {
                self.scheme
                    .rerandomize_batch_with_precomputed(key_table, &raw[range], masks)
            },
        );
        let set: Vec<Ciphertext> = parts.into_iter().flatten().collect();
        timer.record(party, start.elapsed(), compare_cpu + rerandomize_cpu);
        if party != 1 {
            log.record(
                self.round,
                party,
                1,
                set.len() * self.ct_len,
                "sort/collect",
            );
        }
        self.sets.push(set);
        self.opponent_order.push(opponents);
        Ok(())
    }

    /// Step 8 for one party: her hop of the shuffle-decrypt chain
    /// P₁ → P₂ → … → P_n. Within the hop every output position of the n−1
    /// foreign sets is independent; the plaintext randomizers come from
    /// the offline stock and the shuffle permutations are pre-drawn in the
    /// serial order, so the transcript is identical for any thread count,
    /// then the exponentiations run batched over near-equal ranges of
    /// those positions, one per worker — the fused decrypt-and-randomize hop
    /// costs ~1.7 exponentiations per ciphertext instead of 3, and the
    /// shuffle is fused into result placement so no permutation pass (or
    /// its per-ciphertext clones) remains.
    fn step_hop<R: Rng + ?Sized>(
        &mut self,
        idx: usize,
        rng: &mut R,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<(), SortError> {
        let party = idx + 1;
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let draw_start = Instant::now();
        let mut stock = self
            .stock
            .take()
            .ok_or(SortError::Internal("no offline stock at hop"))?;
        // (owner, randomizers, output order) per foreign set. The stock
        // always holds a randomizer set per (hop, foreign set) — its shape
        // is options-independent — so a non-randomizing run simply leaves
        // them unconsumed.
        let jobs: Vec<(usize, Vec<HopScalars>, Vec<usize>)> = self
            .sets
            .iter()
            .enumerate()
            .filter(|&(owner, _)| owner != idx) // never her own set
            .map(|(owner, set)| {
                let prep = if self.options.randomize {
                    let prep = stock
                        .take_hop_set()
                        .ok_or(SortError::Internal("offline hop stock exhausted"))?;
                    if prep.len() != set.len() {
                        return Err(SortError::Internal("offline hop stock shape mismatch"));
                    }
                    prep
                } else {
                    Vec::new()
                };
                // A permutation shuffled with the same draws the in-place
                // `shuffle` would consume (Fisher–Yates swaps depend only
                // on the length), fused into result placement below.
                let mut order: Vec<usize> = (0..set.len()).collect();
                if self.options.shuffle {
                    order.shuffle(rng);
                }
                Ok((owner, prep, order))
            })
            .collect::<Result<_, SortError>>()?;
        self.stock = Some(stock);
        let draw_cpu = draw_start.elapsed();
        let Self {
            sets,
            hop_scratch,
            scheme,
            keys,
            options,
            workers,
            ..
        } = self;
        let secret = keys[idx].secret_key();
        let randomize = options.randomize;
        // Every set in a session has the same length, (n − 1)·l.
        let len = sets[0].len();
        // The hop's output positions — the n − 1 foreign sets laid end to
        // end — split into near-equal ranges across the workers, so a set
        // may be shared between two workers. The first range writes its
        // first piece into the reusable scratch buffer.
        let mut scratch = std::mem::take(hop_scratch);
        let (outputs, cpu) = fan_out(
            jobs.len() * len,
            *workers,
            |range| (range, std::mem::take(&mut scratch)),
            |(range, mut buffer)| {
                pieces(range, len)
                    .map(|(k, local)| {
                        let (owner, prep, order) = &jobs[k];
                        let (set, order) = (&sets[*owner], Some(&order[local]));
                        let mut out = std::mem::take(&mut buffer);
                        if randomize {
                            // `−x·r` and the recodings came precomputed; the
                            // stored secret products already bind to this
                            // party's share (the keygen step installed the
                            // same stock's keys).
                            scheme.partial_decrypt_randomize_prepared_gather_into(
                                set, prep, order, &mut out,
                            );
                        } else {
                            scheme.partial_decrypt_gather_into(set, secret, order, &mut out);
                        }
                        (k, out)
                    })
                    .collect::<Vec<_>>()
            },
        );
        // Reassemble each set from its pieces (in order) and swap it in; a
        // replaced set's buffer becomes the next hop's scratch.
        let mut assembled: Vec<Vec<Ciphertext>> = vec![Vec::new(); jobs.len()];
        for (k, piece) in outputs.into_iter().flatten() {
            if assembled[k].is_empty() {
                assembled[k] = piece;
            } else {
                assembled[k].extend(piece);
            }
        }
        for ((owner, _, _), hopped) in jobs.iter().zip(assembled) {
            let old = std::mem::replace(&mut sets[*owner], hopped);
            if hop_scratch.capacity() == 0 {
                *hop_scratch = old;
            }
        }
        timer.record(party, start.elapsed(), draw_cpu + cpu);
        // Hand the whole vector V to the next party in the chain.
        if party < self.n {
            let v_bytes: usize = self.sets.iter().map(|s| s.len() * self.ct_len).sum();
            log.record(self.round, party, party + 1, v_bytes, "sort/chain");
            self.round += 1;
        }
        Ok(())
    }

    /// Return traffic + step 9: each owner strips her own layer and counts
    /// zeros, then the result and trace are assembled (moving, not cloning,
    /// the protocol state).
    fn step_finish(&mut self, log: &TrafficLog, timer: &mut PartyTimer) {
        let n = self.n;
        // P_n returns each set to its owner.
        for (owner, set) in self.sets.iter().enumerate() {
            let party = owner + 1;
            if party != n {
                log.record(self.round, n, party, set.len() * self.ct_len, "sort/return");
            }
        }
        self.round += 1;

        // Every owner's returned ciphertexts, laid end to end, split into
        // near-equal ranges across the workers. Each piece strips its
        // owner's layer with one gathered partial decryption — the key
        // share's digit recoding is done once per piece and the masks
        // share a single inversion — then the zero test is an identity
        // check on each exposed `α·β^{−x}`. This is RNG-free and
        // wire-free, so the transcript is unchanged.
        let len = self.sets[0].len();
        let positions: Vec<usize> = (0..len).collect();
        let (counted, _cpu) = fan_out(
            n * len,
            self.workers,
            |range| range,
            |range| {
                pieces(range, len)
                    .map(|(owner, local)| {
                        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
                        let start = Instant::now();
                        let mut out = Vec::new();
                        self.scheme.partial_decrypt_gather_into(
                            &self.sets[owner],
                            self.keys[owner].secret_key(),
                            Some(&positions[local]),
                            &mut out,
                        );
                        let zeros = out
                            .iter()
                            .filter(|ct| self.group.is_identity(&ct.alpha))
                            .count();
                        (owner, zeros, start.elapsed())
                    })
                    .collect::<Vec<_>>()
            },
        );
        // Zero counts sum per owner. Each owner is charged only for the
        // time spent on her own ciphertexts: the CPU summed over her
        // pieces, and as wall-clock the longest of them (her pieces sit in
        // different ranges, so they ran side by side).
        let mut zeros = vec![0usize; n];
        let mut wall = vec![Duration::ZERO; n];
        let mut cpu = vec![Duration::ZERO; n];
        for (owner, count, spent) in counted.into_iter().flatten() {
            zeros[owner] += count;
            wall[owner] = wall[owner].max(spent);
            cpu[owner] += spent;
        }
        for owner in 0..n {
            timer.record(owner + 1, wall[owner], cpu[owner]);
        }
        let ranks: Vec<usize> = zeros.iter().map(|z| z + 1).collect();
        let trace = SortTrace {
            keys: std::mem::take(&mut self.keys),
            returned_sets: std::mem::take(&mut self.sets),
            opponent_order: std::mem::take(&mut self.opponent_order),
        };
        self.result = Some((SortOutcome { ranks }, trace));
    }
}

/// Reference ranking (plaintext): rank 1 for the largest, ties equal.
pub fn plain_ranks(values: &[BigUint]) -> Vec<usize> {
    values
        .iter()
        .map(|v| values.iter().filter(|w| *w > v).count() + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_group::GroupKind;
    use ppgr_net::TrafficSummary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sort_values(vals: &[u64], l: usize, seed: u64) -> SortOutcome {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<BigUint> = vals.iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(vals.len() + 1);
        unlinkable_sort(&group, &values, l, &mut rng, &log, &mut timer, 0).unwrap()
    }

    #[test]
    fn ranks_match_plaintext_reference() {
        let vals = [13u64, 200, 78, 200, 0];
        let out = sort_values(&vals, 8, 1);
        let values: Vec<BigUint> = vals.iter().map(|&v| BigUint::from(v)).collect();
        assert_eq!(out.ranks, plain_ranks(&values));
        assert_eq!(out.ranks, vec![4, 1, 3, 1, 5]);
    }

    #[test]
    fn two_party_minimum() {
        let out = sort_values(&[5, 9], 4, 2);
        assert_eq!(out.ranks, vec![2, 1]);
    }

    #[test]
    fn all_equal_values_all_rank_one() {
        let out = sort_values(&[7, 7, 7], 4, 3);
        assert_eq!(out.ranks, vec![1, 1, 1]);
    }

    #[test]
    fn errors() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(4);
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(2);
        assert_eq!(
            unlinkable_sort(
                &group,
                &[BigUint::from(1u64)],
                4,
                &mut rng,
                &log,
                &mut timer,
                0
            ),
            Err(SortError::TooFewParties(1))
        );
        let mut timer = PartyTimer::new(3);
        assert_eq!(
            unlinkable_sort(
                &group,
                &[BigUint::from(16u64), BigUint::from(1u64)],
                4,
                &mut rng,
                &log,
                &mut timer,
                0
            ),
            Err(SortError::ValueTooWide { party: 1 })
        );
    }

    #[test]
    fn traffic_shape_matches_protocol() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4;
        let values: Vec<BigUint> = (0..n as u64).map(BigUint::from).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(n + 1);
        let _ = unlinkable_sort(&group, &values, 6, &mut rng, &log, &mut timer, 0).unwrap();
        let s = log.summary();
        // Chain traffic dominates: n−1 hops of the full vector V.
        let chain = s.bytes_by_phase["sort/chain"];
        let bits = s.bytes_by_phase["sort/bits"];
        assert!(chain > bits, "chain {chain} should dominate bits {bits}");
        // Every party spent compute time.
        for p in 1..=n {
            assert!(timer.spent(p) > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sort_values(&[3, 1, 4, 1, 5], 4, 42);
        let b = sort_values(&[3, 1, 4, 1, 5], 4, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_transcript() {
        // All randomness is pre-drawn serially, so serial and fanned-out
        // executions must agree ciphertext-for-ciphertext, not just on
        // the ranks.
        let group = GroupKind::Ecc160.group();
        let values: Vec<BigUint> = [13u64, 200, 78, 200, 0]
            .iter()
            .map(|&v| BigUint::from(v))
            .collect();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(21);
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            run_sort(
                &group,
                &values,
                8,
                SortOptions {
                    threads,
                    ..SortOptions::default()
                },
                &mut rng,
                &log,
                &mut timer,
                0,
            )
            .unwrap()
        };
        let (serial_out, serial_trace) = run(1);
        let (parallel_out, parallel_trace) = run(4);
        assert_eq!(serial_out, parallel_out);
        assert_eq!(serial_out.ranks, vec![4, 1, 3, 1, 5]);
        assert_eq!(serial_trace.returned_sets, parallel_trace.returned_sets);
        assert_eq!(serial_trace.opponent_order, parallel_trace.opponent_order);
    }

    #[test]
    fn options_off_still_rank_correctly() {
        // Shuffle/randomize protect privacy, not correctness.
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(6);
        let values: Vec<BigUint> = [9u64, 2, 5].iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(4);
        let (out, _) = run_sort(
            &group,
            &values,
            4,
            SortOptions {
                shuffle: false,
                randomize: false,
                ..SortOptions::default()
            },
            &mut rng,
            &log,
            &mut timer,
            0,
        )
        .unwrap();
        assert_eq!(out.ranks, vec![1, 3, 2]);
    }

    /// Drives one machine to completion, harvesting any deferred verify
    /// job along the way.
    fn drive(
        options: SortOptions,
        seed: u64,
    ) -> (
        Result<(SortOutcome, SortTrace), SortError>,
        TrafficSummary,
        Option<KeygenVerifyJob>,
    ) {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<BigUint> = [13u64, 200, 78, 200]
            .iter()
            .map(|&v| BigUint::from(v))
            .collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(values.len() + 1);
        let mut machine = SortMachine::new(&group, &values, 8, options, 0).unwrap();
        let mut job = None;
        let outcome = loop {
            match machine.step(&mut rng, &log, &mut timer) {
                Ok(SortStatus::Pending) => {
                    if let Some(j) = machine.take_pending_verify() {
                        job = Some(j);
                    }
                }
                Ok(SortStatus::Done) => {
                    break machine
                        .into_result()
                        .ok_or(SortError::Internal("done without result"))
                }
                Err(e) => break Err(e),
            }
        };
        (outcome, log.summary(), job)
    }

    #[test]
    fn deferred_verification_is_bit_identical_and_yields_a_passing_job() {
        let inline = drive(
            SortOptions {
                threads: 1,
                ..SortOptions::default()
            },
            31,
        );
        let deferred = drive(
            SortOptions {
                threads: 1,
                defer_verify: true,
                ..SortOptions::default()
            },
            31,
        );
        assert!(inline.2.is_none(), "inline run must not stash a job");
        let job = deferred.2.expect("deferred cold run must stash a job");
        assert_eq!(job.group_kind(), GroupKind::Ecc160);
        assert_eq!(job.proofs(), 4);
        assert_eq!(job.verify_inline(), Ok(()));
        // Deferring reorders work, never bytes: same ranks, same traffic.
        let (inline_out, _) = inline.0.unwrap();
        let (deferred_out, _) = deferred.0.unwrap();
        assert_eq!(inline_out, deferred_out);
        assert_eq!(inline.1, deferred.1);
    }

    #[test]
    fn deferred_job_blames_the_party_the_inline_check_blames() {
        let group = GroupKind::Ecc160.group();
        let values: Vec<BigUint> = [9u64, 2, 5].iter().map(|&v| BigUint::from(v)).collect();
        let run = |defer: bool| {
            let mut rng = StdRng::seed_from_u64(8);
            let mut stock_rng = StdRng::seed_from_u64(77);
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            let options = SortOptions {
                threads: 1,
                defer_verify: defer,
                ..SortOptions::default()
            };
            let mut machine = SortMachine::new(&group, &values, 4, options, 0).unwrap();
            let mut stock = OfflineStock::draw_from(&group, 3, 4, &mut stock_rng);
            stock.corrupt_key_proof(&group, 1);
            machine.attach_offline_stock(stock).unwrap();
            let mut job = None;
            let verdict = loop {
                match machine.step(&mut rng, &log, &mut timer) {
                    Ok(SortStatus::Pending) => {
                        if let Some(j) = machine.take_pending_verify() {
                            job = Some(j);
                        }
                    }
                    Ok(SortStatus::Done) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            (verdict, job)
        };
        let (inline_verdict, inline_job) = run(false);
        assert!(inline_job.is_none());
        assert_eq!(
            inline_verdict,
            Err(SortError::ProofRejected { party: 2 }),
            "inline check must blame the corrupted party"
        );
        // The deferred run sails past keygen (no bytes differ) but its job
        // carries the rejection, attributed to the same party.
        let (deferred_verdict, deferred_job) = run(true);
        assert_eq!(deferred_verdict, Ok(()));
        let job = deferred_job.expect("deferred run must stash a job");
        assert_eq!(
            job.verify_inline(),
            Err(SortError::ProofRejected { party: 2 })
        );
    }

    #[test]
    fn batched_jobs_settle_with_per_session_verdicts() {
        let group = GroupKind::Ecc160.group();
        let values: Vec<BigUint> = [9u64, 2, 5].iter().map(|&v| BigUint::from(v)).collect();
        let job_for = |seed: u64, corrupt: Option<usize>| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stock_rng = StdRng::seed_from_u64(seed ^ 0xa5);
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            let options = SortOptions {
                threads: 1,
                defer_verify: true,
                ..SortOptions::default()
            };
            let mut machine = SortMachine::new(&group, &values, 4, options, 0).unwrap();
            // The deferred draw leaves the stock's `verified` verdict unset
            // (a `draw_from` stock is batch-checked at minting time and
            // would make the session skip verification entirely, parking no
            // job). Bytes are identical either way.
            let mut stock = OfflineStock::draw_cold(&group, 3, 4, &mut stock_rng, 1, false);
            if let Some(party) = corrupt {
                stock.corrupt_key_proof(&group, party);
            }
            machine.attach_offline_stock(stock).unwrap();
            loop {
                let status = machine.step(&mut rng, &log, &mut timer).unwrap();
                if let Some(job) = machine.take_pending_verify() {
                    return job;
                }
                assert_ne!(
                    status,
                    SortStatus::Done,
                    "deferred session finished without parking a verify job"
                );
            }
        };
        let jobs = vec![
            job_for(1, None),
            job_for(2, Some(2)),
            job_for(3, None),
            job_for(4, Some(0)),
        ];
        let verdicts = verify_deferred_jobs(&jobs);
        assert_eq!(
            verdicts,
            vec![
                Ok(()),
                Err(SortError::ProofRejected { party: 3 }),
                Ok(()),
                Err(SortError::ProofRejected { party: 1 }),
            ],
            "one aggregate settle must attribute each rejection to its session and party"
        );
    }
}
