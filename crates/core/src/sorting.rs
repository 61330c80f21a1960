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
//!
//! Each party's side of the protocol is one round machine (the private
//! `party` module) that both drivers step: the [`SortMachine`], which
//! plays every party in one process and routes their messages through
//! in-memory mailboxes, and a mesh party ([`crate::distributed`]), which
//! sends them as frames. Steps 7–9 have one body each here (`tau_set`,
//! `chain_hop`, `count_zeros`), which the machine calls. Nothing draws
//! randomness while it runs: every party's key share, proof randomness,
//! masks, hop randomizers and permutations come from its offline stock
//! ([`crate::offline`]), so both drivers compute the same ciphertexts for
//! the same seed.
//!
//! A [`SortMachine`] built with [`SortMachine::new`] runs steps 5–9 on
//! given values. A framework session
//! ([`SessionMachine`](crate::SessionMachine)) steps one built for the
//! whole protocol instead: the initiator's machine joins the participants'
//! and the same loop runs phase 1 before phase 2 and the submissions after
//! it.

use crate::analysis::WireModel;
use crate::attrs::{InfoVector, InitiatorProfile};
use crate::circuit::compare_encrypted;
use crate::offline::{OfflineStock, StockFingerprint};
use crate::params::FrameworkParams;
use crate::party::{InitiatorMachine, Machine, Mailboxes, PartyMachine};
use crate::submit::VerificationReport;
use crate::timing::PartyTimer;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{Ciphertext, ExpElGamal, KeyPair, MaskPair};
use ppgr_group::{Element, FixedBaseTable, Group, GroupKind, HopScalars, Scalar};
use ppgr_net::TrafficLog;
use ppgr_zkp::{verify_sessions_multi_batch, MultiVerifierTranscript};
use rand::Rng;
use std::error::Error;
use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// A caller built a [`SortMachine`] on an offline stock minted for a
    /// different group instantiation. The typed error guards such direct
    /// callers. A precompute pool lane cannot mis-key: it mints from the
    /// session's own fingerprint, and
    /// [`SessionMachine::attach_offline_stock`](crate::SessionMachine::attach_offline_stock)
    /// refuses any other (the session then runs cold).
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

/// How a run spreads its local work. Every hop shuffles and randomizes:
/// the security games model a hop that skips either by editing the
/// deviating party's stock, not by a switch here.
#[derive(Clone, Copy, Debug, Default)]
pub struct SortOptions {
    /// Workers for each step's local crypto (`0` = one per available
    /// core, read once per process; `1` = serial). Every fanned-out step
    /// splits a flat index space into near-equal contiguous ranges, one
    /// per worker: the offline mint (its hop-scalar preparations and mask
    /// halves), the comparison step (opponents, then the set's
    /// rerandomization masks), each hop (the output positions of all
    /// `n − 1` foreign sets laid end to end) and each party's finish (its
    /// own returned set). The calling thread runs the first range; the
    /// others run on helper threads drawn from one process-wide budget of
    /// one fewer than the host's cores, or on the calling thread when none
    /// is free. The budget bounds only those helpers, not the threads that
    /// call in, such as a runtime's workers. Every random draw comes from
    /// the offline stock, drawn serially, so every worker count, and every
    /// split of the ranges between threads, produces bit-identical
    /// transcripts and ranks.
    /// Only *local* work parallelizes: the hop-to-hop chain itself stays
    /// sequential because each hop must shuffle and re-randomize the
    /// previous hop's output before anyone else may see it — pipelining
    /// hops would let a party observe pre-shuffle sets and break
    /// unlinkability.
    pub threads: usize,
}

/// One session's keygen proof check, parked by its keygen step.
///
/// Carries the published key shares (the statements) and the parties'
/// proofs of key knowledge in protocol order. Every verifier of the
/// multi-verifier proofs (paper Sec. IV-E) checks the same transcripts
/// against the same public keys, so inside one process checking each
/// proof once gives every verifier's verdict. A batching caller claims the
/// job ([`SortMachine::take_pending_verify`]) and folds many sessions'
/// jobs into one aggregate equation ([`verify_deferred_jobs`]) without
/// changing any session's verdict or blame; a job nobody claims is settled
/// by the machine itself, with [`KeygenVerifyJob::verify_inline`], at the
/// start of its next step. Every party machine builds the job over the
/// transcripts it observed, its own included: a mesh party settles its
/// own inline, and the sorting machine parks party 1's, since in memory
/// every party observes the same transcripts.
#[derive(Debug)]
pub struct KeygenVerifyJob {
    group: Group,
    statements: Vec<Element>,
    proofs: Vec<MultiVerifierTranscript>,
}

impl KeygenVerifyJob {
    /// A job over `n` published shares and the `n` transcripts proving
    /// knowledge of them, both in party order.
    pub(crate) fn new(
        group: &Group,
        statements: Vec<Element>,
        proofs: Vec<MultiVerifierTranscript>,
    ) -> Self {
        KeygenVerifyJob {
            group: group.clone(),
            statements,
            proofs,
        }
    }

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

    /// Verifies this job alone, as a batch of one
    /// ([`verify_deferred_jobs`]): one aggregate multi-exponentiation over
    /// the session's `n` proofs.
    ///
    /// # Errors
    ///
    /// [`SortError::ProofRejected`] naming the first dishonest prover in
    /// protocol order.
    pub fn verify_inline(&self) -> Result<(), SortError> {
        verify_deferred_jobs(std::slice::from_ref(self))
            .pop()
            .unwrap_or(Err(SortError::Internal(
                "a settled batch yields one verdict per job",
            )))
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

/// The host's cores, as [`std::thread::available_parallelism`] reports
/// them on the process's first call (1 if it cannot tell). Both the
/// default worker count and [`fan_out`]'s helper budget read this one
/// value.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves [`SortOptions::threads`] to a concrete worker count: `0` is
/// one worker per core, the core count read once per process. A count
/// is how many ranges each step splits into; the threads that run them
/// come from [`fan_out`]'s process-wide budget.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        cores()
    } else {
        threads
    }
}

/// The helper threads [`fan_out`] runs at this moment, process-wide. They
/// are drawn from a budget of one fewer than [`cores`], since every caller
/// works a range itself.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Helper slots claimed from a budget whose claimed slots `busy` counts.
/// Dropping the claim gives them back, also while a panic unwinds.
struct Claim<'a> {
    busy: &'a AtomicUsize,
    slots: usize,
}

impl<'a> Claim<'a> {
    /// As many of `want` slots as are free under `cap`; none if none are.
    fn take(busy: &'a AtomicUsize, cap: usize, want: usize) -> Self {
        let mut slots = 0;
        // The count guards no data, only how many helpers run, so relaxed
        // ordering suffices. A failed update leaves `slots` at zero.
        let _ = busy.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
            slots = want.min(cap.saturating_sub(now));
            (slots > 0).then_some(now + slots)
        });
        Claim { busy, slots }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.busy.fetch_sub(self.slots, Ordering::Relaxed);
    }
}

/// Splits the flat index space `0..total` into at most `workers`
/// contiguous ranges of near-equal length (sizes differ by at most one)
/// and runs `work` on each range. `take` builds each range's input on the
/// calling thread, in range order, so it may split off owned or `&mut`
/// data for the range. Returns the results in range order. `work` must
/// draw no randomness — every draw is made serially before any range
/// runs, which keeps every worker count bit-identical.
///
/// The ranges are exactly those `workers` asks for; only the threads that
/// run them depend on the host and on other callers. Ranges after the
/// first run on scoped helper threads claimed from one process-wide
/// budget of one fewer than the host's cores. Range 0, and every range
/// that found no free helper, runs on the calling thread, in order. A
/// single range never spawns, and a process never runs more than
/// `cores − 1` of these helpers at once, however many threads call in.
/// The budget counts only the helpers added here, not the calling
/// threads, so a caller that is itself one of many threads (a mesh
/// party, a runtime worker) still works its own ranges.
pub(crate) fn fan_out<T: Send, U: Send>(
    total: usize,
    workers: usize,
    take: impl FnMut(Range<usize>) -> T,
    work: impl Fn(T) -> U + Sync,
) -> Vec<U> {
    fan_out_within(&HELPERS, cores() - 1, total, workers, take, work)
}

/// [`fan_out`] with its helpers drawn from a budget of `cap` slots whose
/// claimed slots `busy` counts.
fn fan_out_within<T: Send, U: Send>(
    busy: &AtomicUsize,
    cap: usize,
    total: usize,
    workers: usize,
    take: impl FnMut(Range<usize>) -> T,
    work: impl Fn(T) -> U + Sync,
) -> Vec<U> {
    let parts = workers.clamp(1, total.max(1));
    let inputs: Vec<T> = (0..parts)
        .map(|p| p * total / parts..(p + 1) * total / parts)
        .map(take)
        .collect();
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    // Held until every helper has been joined.
    let helpers = Claim::take(busy, cap, parts - 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .by_ref()
            .take(helpers.slots)
            .map(|input| s.spawn(|| work(input)))
            .collect();
        // The calling thread takes the first range, then every range no
        // helper took.
        let mut outs = vec![work(first)];
        let rest: Vec<U> = inputs.map(&work).collect();
        for handle in handles {
            // A helper that panicked (e.g. an assert in `work`) must not be
            // swallowed into a bogus result; re-raise its payload on the
            // caller's thread instead.
            outs.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        outs.extend(rest);
        outs
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

/// Step 7's body (paper Fig. 1): a party's τ set against the opponents'
/// published bit vectors `opponents` (in opponent order), rerandomized
/// under the joint key with the single-use mask row `masks`, one mask per
/// set ciphertext. The `n − 1` comparisons, then the masks, split into
/// near-equal ranges over `workers` threads.
///
/// The raw τ set is a *deterministic* homomorphic combination of the
/// published bit encryptions, keyed only by the party's `l`-bit value —
/// anyone who sees it before its first chain randomization could confirm
/// a guess of that value by recomputing the combination. Rerandomization
/// makes the set's bytes independent of everything published; the
/// plaintexts (and so the ranks and zero counts) are untouched.
///
/// # Panics
///
/// Panics if `masks` does not hold one mask per set ciphertext
/// (`opponents.len() · l`).
pub(crate) fn tau_set(
    scheme: &ExpElGamal,
    key_table: &FixedBaseTable,
    opponents: &[&[Ciphertext]],
    value: &BigUint,
    l: usize,
    masks: Vec<MaskPair>,
    workers: usize,
) -> Vec<Ciphertext> {
    let chunks = fan_out(
        opponents.len(),
        workers,
        |range| range,
        |range| {
            opponents[range]
                .iter()
                .flat_map(|bits| compare_encrypted(scheme, value, bits, l))
                .collect::<Vec<_>>()
        },
    );
    let raw: Vec<Ciphertext> = chunks.into_iter().flatten().collect();
    // Each range takes its own slice of the (single-use) mask row.
    let mut masks = masks.into_iter();
    fan_out(
        raw.len(),
        workers,
        |range| {
            let row: Vec<MaskPair> = masks.by_ref().take(range.len()).collect();
            (&raw[range], row)
        },
        |(cts, row)| scheme.rerandomize_batch_with_precomputed(key_table, cts, row),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// One foreign set's share of a chain hop, minted offline with the hop
/// party's stock: the index of its owner's set, its plaintext randomizers
/// prepared under the hop party's key share in one limb buffer, and its
/// output order (`order[j]` is the input landing at position `j`).
pub(crate) type HopJob = (usize, HopScalars, Vec<usize>);

/// Step 8's body (paper Fig. 1): one party's hop over the foreign sets
/// `jobs` names. Every named set is partially decrypted under the key
/// share its randomizers were prepared with, multiplied by them and
/// shuffled into its order, then replaces the old set in `sets`.
///
/// The hop's output positions — the foreign sets laid end to end — split
/// into near-equal ranges across the `workers` threads, so a set may be
/// shared between two workers. The fused decrypt-and-randomize kernel
/// costs ~1.7 exponentiations per ciphertext instead of 3, and the shuffle
/// is fused into result placement, so no permutation pass remains.
///
/// # Panics
///
/// Panics if the named sets differ in length from `sets[0]`, or a job's
/// randomizers or order do not match its set.
pub(crate) fn chain_hop(
    scheme: &ExpElGamal,
    sets: &mut [Vec<Ciphertext>],
    jobs: &[HopJob],
    workers: usize,
) {
    // Every set in a session has the same length, (n − 1)·l.
    let len = sets[0].len();
    let inputs: &[Vec<Ciphertext>] = sets;
    let outputs = fan_out(
        jobs.len() * len,
        workers,
        |range| range,
        |range| {
            pieces(range, len)
                .map(|(k, local)| {
                    let (owner, prep, order) = &jobs[k];
                    let mut out = Vec::new();
                    // `−x·r` came prepared under the hop party's share;
                    // the ladder recodes each pair as it runs.
                    scheme.partial_decrypt_randomize_prepared_gather_into(
                        &inputs[*owner],
                        prep,
                        &order[local],
                        &mut out,
                    );
                    (k, out)
                })
                .collect::<Vec<_>>()
        },
    );
    // Reassemble each set from its pieces (in order); the hopped set
    // replaces the old one.
    let mut assembled: Vec<Vec<Ciphertext>> = vec![Vec::new(); jobs.len()];
    for (k, piece) in outputs.into_iter().flatten() {
        if assembled[k].is_empty() {
            assembled[k] = piece;
        } else {
            assembled[k].extend(piece);
        }
    }
    for ((owner, _, _), hopped) in jobs.iter().zip(assembled) {
        sets[*owner] = hopped;
    }
}

/// Step 9's body (paper Fig. 1): counts the zeros of the returned `set`
/// under the owner's key share `x`, the ciphertexts whose `α = β^x`: once
/// the owner's layer is the only one left, those are exactly the ones
/// whose `α·β^{−x}` is the identity. The set splits into near-equal
/// ranges over `workers` threads, each one variable-base batch of its
/// `β^x`, whose curve results share a single inversion.
pub(crate) fn count_zeros(
    scheme: &ExpElGamal,
    set: &[Ciphertext],
    secret: &Scalar,
    workers: usize,
) -> usize {
    fan_out(
        set.len(),
        workers,
        |range| range,
        |range| {
            let cts = &set[range];
            let pairs: Vec<(&Element, &Scalar)> = cts.iter().map(|ct| (&ct.beta, secret)).collect();
            let masks = scheme.group().exp_batch(&pairs);
            masks
                .iter()
                .zip(cts)
                .filter(|(m, ct)| **m == ct.alpha)
                .count()
        },
    )
    .into_iter()
    .sum()
}

/// Everything a run exposes beyond the ranks — consumed by the
/// security-game harness (an adversary's view is a subset of this).
#[derive(Clone, Debug)]
pub struct SortTrace {
    /// Per-party key pairs (index `j-1` → party `j`).
    pub keys: Vec<KeyPair>,
    /// The final set returned to each owner (after the full chain),
    /// *before* the owner's own final decryption. Each set was built
    /// against the owner's opponents in ascending party order.
    pub returned_sets: Vec<Vec<Ciphertext>>,
}

/// Runs the protocol with default options and no trace capture.
///
/// `values[j]` is party `j+1`'s private `l`-bit value. The session's seed
/// is one `u64` drawn from `rng` (see [`run_sort`]).
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
) -> Result<SortOutcome, SortError> {
    run_sort(group, values, l, SortOptions::default(), rng, log, timer)
        .map(|(outcome, _trace)| outcome)
}

/// The protocol with a worker count, returning the trace too (used by
/// tests).
///
/// Draws one `u64` session seed from `rng`, generates the offline stock
/// for `(seed, n, l, group)` ([`OfflineStock::generate`]) and drives a
/// [`SortMachine`] built on it to completion; a machine built on the same
/// stock produces bit-identical transcripts and ranks.
///
/// # Errors
///
/// See [`SortError`].
pub fn run_sort<R: Rng + ?Sized>(
    group: &Group,
    values: &[BigUint],
    l: usize,
    options: SortOptions,
    rng: &mut R,
    log: &TrafficLog,
    timer: &mut PartyTimer,
) -> Result<(SortOutcome, SortTrace), SortError> {
    check_values(values, l)?;
    let fp = StockFingerprint::new(rng.gen(), values.len(), l, group.kind());
    let stock = OfflineStock::generate(fp, resolve_threads(options.threads), || false).ok_or(
        SortError::Internal("uncancelled offline generation stopped"),
    )?;
    run_on(group, values, l, options, stock, log, timer)
}

/// Drives a [`SortMachine`] built on `stock` to completion: [`run_sort`]
/// after its stock is minted, and the games on a stock they edited.
pub(crate) fn run_on(
    group: &Group,
    values: &[BigUint],
    l: usize,
    options: SortOptions,
    stock: OfflineStock,
    log: &TrafficLog,
    timer: &mut PartyTimer,
) -> Result<(SortOutcome, SortTrace), SortError> {
    let mut machine = SortMachine::new(group, values, l, options, stock)?;
    while machine.step(log, timer)? == SortStatus::Pending {}
    machine
        .into_result()
        .ok_or(SortError::Internal("machine driven to Done but no result"))
}

/// The sorting chain's input checks: at least two parties, each value
/// within `l` bits.
fn check_values(values: &[BigUint], l: usize) -> Result<(), SortError> {
    if values.len() < 2 {
        return Err(SortError::TooFewParties(values.len()));
    }
    match values.iter().position(|v| v.bits() > l) {
        Some(idx) => Err(SortError::ValueTooWide { party: idx + 1 }),
        None => Ok(()),
    }
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

/// A resumable execution of the sorting protocol.
///
/// [`run_sort`] drives one machine to completion in a loop; the throughput
/// runtime (`ppgr-runtime`) instead interleaves `step` calls from *many*
/// machines on a persistent worker pool, so that while one session's
/// strictly sequential shuffle-decrypt chain occupies a worker, other
/// sessions' hops fill the remaining workers.
///
/// The machine holds one party machine per party and
/// routes their messages through per-lane FIFO mailboxes, so every party
/// runs the keygen exchange, the share echo and the structural checks a
/// mesh party runs. Granularity: one `step` call performs one protocol
/// unit — all of key generation, all of bit encryption, or a single
/// party's comparison batch / chain hop (the chain hops are ~89 % of the
/// cost, so per-hop yields are what make cross-session pipelining
/// effective). The machine draws nothing: every party's randomness — key
/// share, proof nonce and challenge shares, masks, hop randomizers and
/// permutations — comes from the [`OfflineStock`] it was built on, so a
/// session's transcript and ranks are bit-identical no matter how its
/// steps are interleaved with other sessions'.
///
/// Built for a whole framework session, it also holds the initiator's
/// machine and steps phase 1 first — the dot-product exchange, then the
/// participants' unblinding — and the submissions last.
#[derive(Debug)]
pub struct SortMachine {
    /// The run's messages, of which each unit logs its share.
    model: WireModel,
    /// The protocol units in order: a paper step and the participants
    /// that run it. `P₀`, in a whole session, joins every unit.
    units: Vec<(u8, RangeInclusive<usize>)>,
    /// The next unit to run.
    next: usize,
    /// The initiator's machine, in a whole session.
    initiator: Option<InitiatorMachine>,
    /// Every participant's machine, party order.
    parties: Vec<PartyMachine>,
    mail: Mailboxes,
    /// The keygen proof check parked by the keygen step: claimed by a
    /// batching caller via [`SortMachine::take_pending_verify`], or settled
    /// at the start of the next step.
    pending_verify: Option<KeygenVerifyJob>,
}

impl SortMachine {
    /// Validates the inputs and the offline stock and prepares a machine at
    /// step 5.
    ///
    /// # Errors
    ///
    /// [`SortError::TooFewParties`] and [`SortError::ValueTooWide`] for bad
    /// inputs; [`SortError::StockGroupMismatch`] if the stock was minted for
    /// a different group instantiation; [`SortError::Internal`] if it was
    /// minted for another session shape (`n` parties, `l` bits).
    pub fn new(
        group: &Group,
        values: &[BigUint],
        l: usize,
        options: SortOptions,
        stock: OfflineStock,
    ) -> Result<Self, SortError> {
        check_values(values, l)?;
        let n = values.len();
        let fp = stock.fingerprint();
        if fp.group != group.kind() {
            return Err(SortError::StockGroupMismatch {
                expected: group.kind(),
                got: fp.group,
            });
        }
        if fp.participants != n || fp.bits != l {
            return Err(SortError::Internal("offline stock shape mismatch"));
        }
        let workers = resolve_threads(options.threads);
        let OfflineStock { parties, table, .. } = stock;
        let parties = parties
            .into_iter()
            .zip(values)
            .enumerate()
            .map(|(idx, (own, value))| {
                let table = Some(table.clone());
                PartyMachine::new(group, idx + 1, value.clone(), own, table, workers)
            })
            .collect();
        let model = WireModel::sort(group.kind(), n, l);
        Ok(Self::with_parties(model, None, parties))
    }

    /// A whole framework session of `params`: the initiator's machine on
    /// `profile` and one participant machine per information vector in
    /// `infos`, on the participants' slices of `stock`, which the caller
    /// minted for the session's fingerprint. The machine starts at phase 1
    /// and ends after the initiator's verification. Building a party's
    /// machine is its first phase-1 work (the initiator's `ρ` draws, a
    /// participant's round 1), charged to its slot of `timer`.
    pub(crate) fn session(
        params: &FrameworkParams,
        profile: InitiatorProfile,
        infos: Vec<InfoVector>,
        options: SortOptions,
        stock: OfflineStock,
        timer: &mut PartyTimer,
    ) -> Self {
        let workers = resolve_threads(options.threads);
        let initiator = timer.time(0, || InitiatorMachine::new(params, profile));
        let OfflineStock { parties, table, .. } = stock;
        let parties = parties
            .into_iter()
            .zip(infos)
            .enumerate()
            .map(|(idx, (own, info))| {
                let (me, table) = (idx + 1, Some(table.clone()));
                timer.time(me, || {
                    PartyMachine::session(params, me, info, own, table, workers)
                })
            })
            .collect();
        let q = params.questionnaire();
        let (n, l) = (params.participants(), params.beta_bits());
        let model = WireModel::session(params.group(), n, l, q.dimension(), q.equal_to_count());
        Self::with_parties(model, Some(initiator), parties)
    }

    /// The machine over `parties` (and the initiator, in a whole session)
    /// whose messages `model` describes. Every step but 7 and 8 is one
    /// unit of all participants; those two are one unit per party. A
    /// whole session runs steps 3–10, a phase-2 run steps 5–9.
    fn with_parties(
        model: WireModel,
        initiator: Option<InitiatorMachine>,
        parties: Vec<PartyMachine>,
    ) -> Self {
        let n = parties.len();
        let each = |step| (1..=n).map(move |i| (step, i..=i));
        let mut units: Vec<_> = [3, 4, 5, 6].map(|step| (step, 1..=n)).into();
        units.extend(each(7).chain(each(8)));
        units.extend([(9, 1..=n), (10, 1..=n)]);
        if initiator.is_none() {
            units.retain(|(step, _)| (5..=9).contains(step));
        }
        SortMachine {
            model,
            units,
            next: 0,
            initiator,
            parties,
            mail: Mailboxes::new(n),
            pending_verify: None,
        }
    }

    /// Claims the keygen proof check the keygen step parked, so the caller
    /// can batch it with other sessions' checks.
    ///
    /// Returns `Some` at most once, between the keygen step and the next
    /// step; a job left unclaimed is settled by that next step itself. The
    /// caller owns the session's soundness from the claim on: it must
    /// settle the job — [`KeygenVerifyJob::verify_inline`] or a
    /// [`verify_deferred_jobs`] batch — and discard the session's outcome
    /// if the verdict is `Err`.
    pub fn take_pending_verify(&mut self) -> Option<KeygenVerifyJob> {
        self.pending_verify.take()
    }

    /// Whether the protocol has completed.
    pub fn is_done(&self) -> bool {
        self.next == self.units.len()
    }

    /// The outcome and trace, once [`SortMachine::step`] has returned
    /// [`SortStatus::Done`]. Consumes the machine; returns `None` if the
    /// protocol has not finished.
    pub fn into_result(self) -> Option<(SortOutcome, SortTrace)> {
        let results: Option<Vec<_>> = self
            .parties
            .into_iter()
            .map(PartyMachine::into_result)
            .collect();
        let (ranks, (keys, returned_sets)) = results?
            .into_iter()
            .map(|(keys, set, zeros)| (zeros + 1, (keys, set)))
            .unzip();
        let trace = SortTrace {
            keys,
            returned_sets,
        };
        Some((SortOutcome { ranks }, trace))
    }

    /// The ranks, every masked gain and the initiator's report, once a
    /// whole session finished.
    pub(crate) fn into_session(mut self) -> Option<(Vec<usize>, Vec<BigUint>, VerificationReport)> {
        let report = self.initiator.take()?.report()?.clone();
        let betas = self.parties.iter().map(|p| p.value().clone()).collect();
        Some((self.into_result()?.0.ranks, betas, report))
    }

    /// The paper phase (1–3) the next step works in.
    pub(crate) fn phase(&self) -> usize {
        match self.units.get(self.next).map_or(10, |unit| unit.0) {
            ..=4 => 1,
            5..=9 => 2,
            _ => 3,
        }
    }

    /// Executes the next protocol unit.
    ///
    /// The messages the [`WireModel`] gives the unit's step and the
    /// unit's parties send (`P₀`'s included) are logged to `log`, and
    /// per-party computation charged to `timer`.
    ///
    /// # Errors
    ///
    /// [`SortError::ProofRejected`] if a proof of key knowledge fails
    /// (reachable only via dishonest provers in the game harness). The
    /// step after keygen reports it when no caller claimed the check, and
    /// keeps reporting it however often the machine is stepped again.
    /// [`SortError::Internal`] if a party's check fails or the initiator
    /// flags a submission: in memory only a bug can cause either.
    pub fn step(
        &mut self,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<SortStatus, SortError> {
        // Settle a keygen check nobody claimed before any other work.
        // It reads only published material, so the transcript does not
        // depend on who settles it. It is charged to nobody's per-party
        // ledger.
        if let Some(job) = &self.pending_verify {
            job.verify_inline()?;
            self.pending_verify = None;
        }
        if let Some((step, ids)) = self.units.get(self.next).cloned() {
            self.run(step, ids.clone(), timer)?;
            let submitters = match step {
                10 => self.submitters()?,
                _ => Vec::new(),
            };
            let sent = self.model.step(step, &submitters).into_iter();
            log.extend(sent.filter(|r| r.from == 0 || ids.contains(&r.from)));
            self.next += 1;
        }
        Ok(if self.is_done() {
            SortStatus::Done
        } else {
            SortStatus::Pending
        })
    }

    /// The parties whose submissions `P₀` accepted, in party order, once
    /// it verified them. In memory it accepts every submission.
    ///
    /// # Errors
    ///
    /// [`SortError::Internal`] if `P₀` has no report or flagged one.
    fn submitters(&self) -> Result<Vec<usize>, SortError> {
        let report = self.initiator.as_ref().and_then(InitiatorMachine::report);
        let Some(report) = report.filter(|report| report.is_clean()) else {
            return Err(SortError::Internal("no clean report from the initiator"));
        };
        let mut parties: Vec<usize> = report.accepted.iter().map(|a| a.submission.party).collect();
        parties.sort_unstable();
        Ok(parties)
    }

    /// Advances the participants `ids` (1-based) and the initiator, if the
    /// session has one, through their rounds of paper step `step`, each
    /// `advance` charged to its party: in passes, each party as far as its
    /// mailboxes allow, until none moves. Party 1's keygen check is
    /// parked; every party observes the same transcripts.
    ///
    /// # Errors
    ///
    /// [`SortError::Internal`] if a party faults or is still waiting inside
    /// the step: in memory only a bug can cause either.
    fn run(
        &mut self,
        step: u8,
        ids: RangeInclusive<usize>,
        timer: &mut PartyTimer,
    ) -> Result<(), SortError> {
        let SortMachine {
            initiator,
            parties,
            mail,
            pending_verify,
            ..
        } = self;
        let participants = parties[*ids.start() - 1..*ids.end()].iter_mut();
        let mut machines: Vec<(usize, &mut dyn Machine)> =
            ids.zip(participants).map(|(id, m)| (id, m as _)).collect();
        machines.extend(initiator.as_mut().map(|m| (0, m as _)));
        let mut moved = true;
        while moved {
            moved = false;
            for (id, machine) in &mut machines {
                while let Some(round) = machine.round().filter(|r| r.step == step) {
                    let Some(inbox) = mail.take(*id, &round.expects) else {
                        break;
                    };
                    let out = timer
                        .time(*id, || machine.advance(inbox))
                        .map_err(|_| SortError::Internal("a party machine faulted in memory"))?;
                    if *id == 1 && out.verify.is_some() {
                        *pending_verify = out.verify;
                    }
                    mail.post(*id, out.sends);
                    moved = true;
                }
            }
        }
        let waiting = machines
            .iter()
            .any(|(_, m)| m.round().is_some_and(|r| r.step == step));
        if waiting {
            return Err(SortError::Internal(
                "a party is still waiting inside a step",
            ));
        }
        Ok(())
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
    use crate::offline::{party_streams, PartyStock};
    use ppgr_elgamal::{encrypt_bits, JointKey};
    use ppgr_group::GroupKind;
    use ppgr_hash::HashDrbg;
    use ppgr_net::TrafficSummary;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::Barrier;

    fn sort_values(vals: &[u64], l: usize, seed: u64) -> SortOutcome {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<BigUint> = vals.iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(vals.len() + 1);
        unlinkable_sort(&group, &values, l, &mut rng, &log, &mut timer).unwrap()
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
        let values = [BigUint::from(1u64)];
        assert_eq!(
            unlinkable_sort(&group, &values, 4, &mut rng, &log, &mut timer),
            Err(SortError::TooFewParties(1))
        );
        let mut timer = PartyTimer::new(3);
        let values = [BigUint::from(16u64), BigUint::from(1u64)];
        assert_eq!(
            unlinkable_sort(&group, &values, 4, &mut rng, &log, &mut timer),
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
        let _ = unlinkable_sort(&group, &values, 6, &mut rng, &log, &mut timer).unwrap();
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

    /// `fan_out_within` on a budget of `cap` with `held` slots already
    /// claimed: each range and whether a helper ran it, and the claimed
    /// count afterwards.
    fn fan_out_held(
        cap: usize,
        held: usize,
        total: usize,
        workers: usize,
    ) -> (Vec<(Range<usize>, bool)>, usize) {
        let busy = AtomicUsize::new(0);
        let hold = Claim::take(&busy, cap, held);
        assert_eq!(hold.slots, held);
        let caller = std::thread::current().id();
        let out = fan_out_within(
            &busy,
            cap,
            total,
            workers,
            |range| range,
            |range| (range, std::thread::current().id() != caller),
        );
        (out, busy.load(Ordering::Relaxed))
    }

    #[test]
    fn fan_out_returns_every_range_once_in_order() {
        let (cap, total) = (4, 13);
        for workers in 1..=5 {
            // No helper free, some free, all free.
            for held in [cap, cap - 2, 0] {
                let (out, after) = fan_out_held(cap, held, total, workers);
                let ranges: Vec<Range<usize>> = out.iter().map(|(r, _)| r.clone()).collect();
                let want: Vec<Range<usize>> = (0..workers)
                    .map(|p| p * total / workers..(p + 1) * total / workers)
                    .collect();
                assert_eq!(ranges, want, "{workers} workers, {held} held");
                let helped: Vec<bool> = out.iter().map(|&(_, h)| h).collect();
                let free = (workers - 1).min(cap - held);
                // Ranges 1..=free ran on helpers, the rest on the caller.
                let expect: Vec<bool> = (0..workers).map(|p| (1..=free).contains(&p)).collect();
                assert_eq!(helped, expect, "{workers} workers, {held} held");
                assert_eq!(after, held, "slots returned");
            }
        }
        // Fewer indices than workers: one range per index; none at all.
        let (out, _) = fan_out_held(cap, 0, 3, 5);
        assert_eq!(out.len(), 3);
        let (out, _) = fan_out_held(cap, 0, 0, 5);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0..0);
    }

    #[test]
    fn fan_out_callers_stay_within_the_budget() {
        // Eight callers start together, each asking for four workers, and
        // every helper they get stays busy until all eight have claimed
        // theirs: every claim is made while every granted helper runs. The
        // process-wide budget may also serve other tests meanwhile; that
        // only leaves fewer helpers here.
        const CALLERS: usize = 8;
        let start = Barrier::new(CALLERS);
        let (claimed, running, peak) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        std::thread::scope(|s| {
            for _ in 0..CALLERS {
                s.spawn(|| {
                    let caller = std::thread::current().id();
                    start.wait();
                    let out = fan_out(
                        8,
                        4,
                        |range| range,
                        |range| {
                            if std::thread::current().id() == caller {
                                // Range 0 runs after the caller's claim.
                                if range.start == 0 {
                                    claimed.fetch_add(1, Ordering::SeqCst);
                                }
                                return range;
                            }
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            while claimed.load(Ordering::SeqCst) < CALLERS {
                                std::thread::yield_now();
                            }
                            running.fetch_sub(1, Ordering::SeqCst);
                            range
                        },
                    );
                    assert_eq!(out, [0..2, 2..4, 4..6, 6..8]);
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak < cores(),
            "{peak} helpers ran at once on {} cores",
            cores()
        );
    }

    #[test]
    fn fan_out_reraises_a_panic_and_returns_its_slots() {
        // Range 2 panics on a helper (nothing held) and on the caller
        // (every slot held); range 0 always panics on the caller.
        let cap = 4;
        for (bad, held) in [(2, 0), (2, cap), (0, 0)] {
            let busy = AtomicUsize::new(0);
            let hold = Claim::take(&busy, cap, held);
            let caught = std::panic::catch_unwind(|| {
                fan_out_within(
                    &busy,
                    cap,
                    4,
                    4,
                    |range| range,
                    |range| assert_ne!(range.start, bad, "range {bad} failed"),
                )
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted assert message");
            assert!(
                message.contains(&format!("range {bad} failed")),
                "{message}"
            );
            assert_eq!(busy.load(Ordering::Relaxed), held, "slots returned");
            drop(hold);
            assert_eq!(busy.load(Ordering::Relaxed), 0);
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
                SortOptions { threads },
                &mut rng,
                &log,
                &mut timer,
            )
            .unwrap()
        };
        let (serial_out, serial_trace) = run(1);
        let (parallel_out, parallel_trace) = run(4);
        assert_eq!(serial_out, parallel_out);
        assert_eq!(serial_out.ranks, vec![4, 1, 3, 1, 5]);
        assert_eq!(serial_trace.returned_sets, parallel_trace.returned_sets);
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
        let opponents: Vec<&[Ciphertext]> = (1..=n)
            .filter(|&j| j != me)
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
                let sent = tau_set(&scheme, &key_table, &opponents, &beta, l, masks, workers);
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
    fn chain_hop_matches_the_per_ciphertext_loop() {
        // A party's stocked hop jobs and the shared hop body must return
        // exactly what the reference loop does — for each foreign set, in
        // owner order: partial_decrypt, then randomize_plaintext by the
        // party's next randomizer per ciphertext, then a shuffle of the set
        // — on any worker count. The loop replays the party's offline
        // stream past its key share, nonce, challenge shares and masks. With
        // l = 3, two foreign sets of 6 on three workers and three sets of 9
        // on two each put a range boundary inside a set.
        let (l, seed) = (3, 17);
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let scheme = ExpElGamal::new(group.clone());
            for (n, me) in [(3, 2), (4, 4)] {
                let stock = PartyStock::mint(&group, seed, n, l, me);
                let kp = &stock.keys;
                let mut rng = StdRng::seed_from_u64(3);
                let sets: Vec<Vec<Ciphertext>> = (0..n)
                    .map(|_| {
                        (0..((n - 1) * l) as u64)
                            .map(|m| {
                                let m = group.scalar_from_u64(m % 3);
                                scheme.encrypt(kp.public_key(), &m, &mut rng)
                            })
                            .collect()
                    })
                    .collect();
                let (_, mut replay) = party_streams(seed, me);
                let _ = group.random_nonzero_scalar(&mut replay);
                for _ in 0..1 + (n - 1) + n * l {
                    let _ = group.random_scalar(&mut replay);
                }
                let mut expect = sets.clone();
                for (owner, set) in expect.iter_mut().enumerate() {
                    if owner + 1 == me {
                        continue;
                    }
                    *set = set
                        .iter()
                        .map(|ct| {
                            let c = scheme.partial_decrypt(ct, kp.secret_key());
                            let r = group.random_nonzero_scalar(&mut replay);
                            scheme.randomize_plaintext(&c, &r)
                        })
                        .collect();
                    set.shuffle(&mut replay);
                }
                for workers in [1, 2, 3] {
                    let label = format!("{kind} n={n} workers={workers}");
                    let mut hopped = sets.clone();
                    chain_hop(&scheme, &mut hopped, &stock.hops, workers);
                    assert_eq!(hopped, expect, "{label}");
                    assert_eq!(hopped[me - 1], sets[me - 1], "{label}: own set untouched");
                }
            }
        }
    }

    #[test]
    fn count_zeros_matches_the_per_ciphertext_reference() {
        // Step 9 against partial_decrypt then is_identity, ciphertext by
        // ciphertext: sets with no zero, one zero and four, each holding
        // one ciphertext whose β is the identity (its α the generator, in
        // the last set the identity). Six ciphertexts on two or three
        // workers put a range boundary inside the set.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let scheme = ExpElGamal::new(group.clone());
            let mut rng = StdRng::seed_from_u64(31);
            let kp = KeyPair::generate(&group, &mut rng);
            let set = |plaintexts: [u64; 5], bare_alpha: &Element| -> Vec<Ciphertext> {
                let mut rng = StdRng::seed_from_u64(plaintexts.iter().sum());
                let mut set: Vec<Ciphertext> = plaintexts
                    .iter()
                    .map(|&m| scheme.encrypt(kp.public_key(), &group.scalar_from_u64(m), &mut rng))
                    .collect();
                set.insert(
                    2,
                    Ciphertext {
                        alpha: bare_alpha.clone(),
                        beta: group.identity(),
                    },
                );
                set
            };
            let sets = [
                (set([1, 2, 3, 4, 5], group.generator()), 0),
                (set([1, 2, 0, 4, 5], group.generator()), 1),
                (set([0, 2, 0, 0, 5], &group.identity()), 4),
            ];
            for (set, zeros) in &sets {
                let reference = set
                    .iter()
                    .filter(|ct| {
                        let stripped = scheme.partial_decrypt(ct, kp.secret_key());
                        group.is_identity(&stripped.alpha)
                    })
                    .count();
                assert_eq!(reference, *zeros, "{kind}");
                for workers in [1, 2, 3] {
                    let got = count_zeros(&scheme, set, kp.secret_key(), workers);
                    assert_eq!(got, reference, "{kind} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn deviating_hops_match_their_golden_digests() {
        // SHA-256 over the ranks and every returned ciphertext, as
        // `tests/transcript_digests.rs` digests them, for every hop's
        // (shuffle, randomize) setting: the honest hop and its three
        // deviations, written into every party's stock. The session seed
        // is drawn as `run_sort` draws it. Skipping either mechanism
        // costs privacy, not correctness: every setting ranks right.
        let cases = [
            (
                GroupKind::Ecc160,
                true,
                true,
                "59219d5c87e75aa6986d3b7c3aa8b078685d206377d883942060dae844dc9a26",
            ),
            (
                GroupKind::Ecc160,
                true,
                false,
                "f93fdc9ef5d615798ec760f52673bc258eb4e0f1c7d36807b85e9e591c5d996d",
            ),
            (
                GroupKind::Ecc160,
                false,
                true,
                "b5167e00f9dd86fc229e738f0bdb04a197f2520048dd3e44837f01f1993cf626",
            ),
            (
                GroupKind::Ecc160,
                false,
                false,
                "f7fb52e09adcb43c2a82dff30ca086009134ccadb88c98e4b31b372a8165e1b5",
            ),
            (
                GroupKind::Dl1024,
                true,
                true,
                "34547d57236672611ff613b82fad78899feba68ad9d081c0743c206a44b2998e",
            ),
            (
                GroupKind::Dl1024,
                true,
                false,
                "d24e8f97a03bfe82af5c485807822908db45683225587799565b5161baacbb98",
            ),
            (
                GroupKind::Dl1024,
                false,
                true,
                "81e336522377f5f7c5966a7da77ab6c9948b6f63d36f09d08d1b9d8f2ef09717",
            ),
            (
                GroupKind::Dl1024,
                false,
                false,
                "773731d3f0f13eb8a04206ed62d11faee6568e36e9173a334a649a85be2a23be",
            ),
        ];
        let values: Vec<BigUint> = [9u64, 2, 5, 9].iter().map(|&v| BigUint::from(v)).collect();
        for (kind, shuffle, randomize, golden) in cases {
            let group = kind.group();
            let seed = StdRng::seed_from_u64(77).gen();
            let fp = StockFingerprint::new(seed, values.len(), 4, kind);
            let mut stock = OfflineStock::generate(fp, 1, || false).unwrap();
            for party in 0..values.len() {
                if !shuffle {
                    stock.skip_shuffle(party);
                }
                if !randomize {
                    stock.skip_randomization(&group, party);
                }
            }
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            let options = SortOptions { threads: 1 };
            let (outcome, trace) =
                run_on(&group, &values, 4, options, stock, &log, &mut timer).unwrap();
            let label = format!("{kind} shuffle={shuffle} randomize={randomize}");
            assert_eq!(outcome.ranks, plain_ranks(&values), "{label}");
            let mut h = ppgr_hash::Sha256::new();
            for rank in &outcome.ranks {
                h.update(&(*rank as u64).to_be_bytes());
            }
            for ct in trace.returned_sets.iter().flatten() {
                h.update(&ct.encode(&group));
            }
            assert_eq!(ppgr_hash::to_hex(&h.finalize()), golden, "{label}");
        }
    }

    /// What [`drive`] observed.
    struct Driven {
        outcome: Result<(SortOutcome, SortTrace), SortError>,
        traffic: TrafficSummary,
        /// The keygen check the loop claimed, if it claimed one.
        job: Option<KeygenVerifyJob>,
        /// Steps that succeeded before the run finished or failed.
        steps: usize,
    }

    /// The stock for an ECC-160 session of `n` parties and `l` bits seeded
    /// `seed`, with `corrupt`'s proof invalidated, if any.
    fn stock(seed: u64, n: usize, l: usize, corrupt: Option<usize>) -> OfflineStock {
        let fp = StockFingerprint::new(seed, n, l, GroupKind::Ecc160);
        let mut stock = OfflineStock::generate(fp, 1, || false).unwrap();
        if let Some(party) = corrupt {
            stock.corrupt_key_proof(&GroupKind::Ecc160.group(), party);
        }
        stock
    }

    /// Drives one machine to completion on the stock for `seed` (with
    /// `corrupt`'s proof invalidated, if any). With `claim`, the loop takes
    /// the parked keygen check the way a batching runtime does; without,
    /// nobody does and the machine settles it.
    fn drive(claim: bool, seed: u64, corrupt: Option<usize>) -> Driven {
        let group = GroupKind::Ecc160.group();
        let values: Vec<BigUint> = [13u64, 200, 78, 200]
            .iter()
            .map(|&v| BigUint::from(v))
            .collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(values.len() + 1);
        let options = SortOptions { threads: 1 };
        let stock = stock(seed, values.len(), 8, corrupt);
        let mut machine = SortMachine::new(&group, &values, 8, options, stock).unwrap();
        let (mut job, mut steps) = (None, 0);
        let outcome = loop {
            match machine.step(&log, &mut timer) {
                Ok(SortStatus::Pending) => {
                    steps += 1;
                    if claim {
                        job = job.or(machine.take_pending_verify());
                    }
                }
                Ok(SortStatus::Done) => {
                    break machine
                        .into_result()
                        .ok_or(SortError::Internal("done without result"))
                }
                Err(e) => {
                    // A failed check stays failed however often the
                    // machine is stepped again.
                    assert_eq!(machine.step(&log, &mut timer), Err(e.clone()));
                    break Err(e);
                }
            }
        };
        Driven {
            outcome,
            traffic: log.summary(),
            job,
            steps,
        }
    }

    #[test]
    fn claimed_and_unclaimed_checks_give_identical_runs() {
        let claimed = drive(true, 31, None);
        let unclaimed = drive(false, 31, None);
        assert!(unclaimed.job.is_none());
        let job = claimed.job.expect("the keygen step parks a job");
        assert_eq!(job.group_kind(), GroupKind::Ecc160);
        assert_eq!(job.proofs(), 4);
        assert_eq!(job.verify_inline(), Ok(()));
        // Who settles the check moves work, never bytes.
        let (claimed_out, claimed_trace) = claimed.outcome.unwrap();
        let (unclaimed_out, unclaimed_trace) = unclaimed.outcome.unwrap();
        assert_eq!(claimed_out, unclaimed_out);
        assert_eq!(claimed_trace.returned_sets, unclaimed_trace.returned_sets);
        assert_eq!(claimed.traffic, unclaimed.traffic);
    }

    #[test]
    fn corrupted_proof_is_blamed_by_whoever_settles_the_check() {
        // Unclaimed: keygen succeeds, and the encrypt step settles the
        // check before any other work.
        let unclaimed = drive(false, 8, Some(1));
        assert_eq!(
            unclaimed.outcome.unwrap_err(),
            SortError::ProofRejected { party: 2 }
        );
        assert_eq!(unclaimed.steps, 1, "the step after keygen must fail");
        // Claimed: the machine runs to the end, and the claimed job
        // carries the same verdict.
        let claimed = drive(true, 8, Some(1));
        assert!(claimed.outcome.is_ok());
        assert_eq!(
            claimed.job.expect("claimed job").verify_inline(),
            Err(SortError::ProofRejected { party: 2 })
        );
    }

    #[test]
    fn batched_jobs_settle_with_per_session_verdicts() {
        let group = GroupKind::Ecc160.group();
        let values: Vec<BigUint> = [9u64, 2, 5].iter().map(|&v| BigUint::from(v)).collect();
        let job_for = |seed: u64, corrupt: Option<usize>| {
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            let options = SortOptions { threads: 1 };
            let stock = stock(seed, 3, 4, corrupt);
            let mut machine = SortMachine::new(&group, &values, 4, options, stock).unwrap();
            loop {
                let status = machine.step(&log, &mut timer).unwrap();
                if let Some(job) = machine.take_pending_verify() {
                    return job;
                }
                assert_ne!(
                    status,
                    SortStatus::Done,
                    "session finished without parking a verify job"
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
