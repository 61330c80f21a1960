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
use crate::offline::OfflineStock;
use crate::timing::PartyTimer;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, KeyPair, MaskPair};
use ppgr_group::{Element, FixedBaseTable, Group, GroupKind, HopScalars, Scalar};
use ppgr_net::TrafficLog;
use ppgr_zkp::{verify_sessions_multi_batch, MultiVerifierTranscript};
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
    /// A caller attached an offline stock minted for a different group
    /// instantiation straight to a [`SortMachine`]. The typed error guards
    /// such direct callers. A precompute pool lane cannot mis-key: it mints
    /// from the session's own fingerprint, and
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
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            shuffle: true,
            randomize: true,
            threads: 0,
        }
    }
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
/// start of its next step. A mesh party builds the same job over the
/// transcripts it observed, its own included, and settles it inline.
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

/// Step 7's body (paper Fig. 1): a party's τ set against the opponents'
/// published bit vectors `opponents` (in opponent order), rerandomized
/// under the joint key with the single-use mask row `masks`, one mask per
/// set ciphertext. The `n − 1` comparisons, then the masks, split into
/// near-equal ranges over `workers` threads. Returns the set and the CPU
/// time spent.
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
) -> (Vec<Ciphertext>, Duration) {
    let (chunks, compare_cpu) = fan_out(
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
    let (parts, rerandomize_cpu) = fan_out(
        raw.len(),
        workers,
        |range| {
            let row: Vec<MaskPair> = masks.by_ref().take(range.len()).collect();
            (&raw[range], row)
        },
        |(cts, row)| scheme.rerandomize_batch_with_precomputed(key_table, cts, row),
    );
    let set = parts.into_iter().flatten().collect();
    (set, compare_cpu + rerandomize_cpu)
}

/// One foreign set's share of a chain hop: the index of its owner's set,
/// its plaintext randomizers prepared under the hop party's key share
/// (`None` when the run does not randomize), and its drawn output order
/// (`order[j]` is the input landing at position `j`).
pub(crate) type HopJob = (usize, Option<Vec<HopScalars>>, Vec<usize>);

/// Step 8's body (paper Fig. 1): one party's hop over the foreign sets
/// `jobs` names. Every named set is partially decrypted under `secret`,
/// multiplied by its prepared randomizers and shuffled into its drawn
/// order, then replaces the old set in `sets`. Returns the CPU time spent.
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
    secret: &Scalar,
    workers: usize,
) -> Duration {
    // Every set in a session has the same length, (n − 1)·l.
    let len = sets[0].len();
    let inputs: &[Vec<Ciphertext>] = sets;
    let (outputs, cpu) = fan_out(
        jobs.len() * len,
        workers,
        |range| range,
        |range| {
            pieces(range, len)
                .map(|(k, local)| {
                    let (owner, prep, order) = &jobs[k];
                    let (set, order) = (&inputs[*owner], Some(&order[local]));
                    let mut out = Vec::new();
                    match prep {
                        // `−x·r` and the recodings came prepared under the
                        // hop party's share.
                        Some(prep) => scheme.partial_decrypt_randomize_prepared_gather_into(
                            set, prep, order, &mut out,
                        ),
                        None => scheme.partial_decrypt_gather_into(set, secret, order, &mut out),
                    }
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
    cpu
}

/// Step 9's body (paper Fig. 1): strips the owner's key layer from the
/// returned `set` (only the `positions` given, or all of it) with one
/// gathered partial decryption — the key share's digit recoding is done
/// once and the masks share a single inversion — and counts the exposed
/// `α·β^{−x}` that are the identity, i.e. the zeros.
pub(crate) fn count_zeros(
    scheme: &ExpElGamal,
    set: &[Ciphertext],
    secret: &Scalar,
    positions: Option<&[usize]>,
) -> usize {
    let mut stripped = Vec::new();
    scheme.partial_decrypt_gather_into(set, secret, positions, &mut stripped);
    stripped
        .iter()
        .filter(|ct| scheme.group().is_identity(&ct.alpha))
        .count()
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
    /// Precomputed randomness, attached warm by a pool or drawn cold at the
    /// offline step; consumed front-to-back in protocol order.
    stock: Option<OfflineStock>,
    /// The keygen proof check parked by the keygen step: claimed by a
    /// batching caller via [`SortMachine::take_pending_verify`], or settled
    /// at the start of the next step.
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
    /// different group instantiation than this session. This guards
    /// callers that attach stocks themselves; pools attach through
    /// [`SessionMachine::attach_offline_stock`](crate::SessionMachine::attach_offline_stock),
    /// whose lanes mint from the session's own fingerprint.
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
    /// (reachable only via dishonest provers in the game harness). The
    /// step after keygen reports it when no caller claimed the check, and
    /// keeps reporting it however often the machine is stepped again.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<SortStatus, SortError> {
        // Settle a keygen check nobody claimed before any other work.
        // It reads only published material and draws nothing, so the
        // transcript does not depend on who settles it. Like the offline
        // split, it is charged to nobody's per-party ledger.
        if let Some(job) = &self.pending_verify {
            job.verify_inline()?;
            self.pending_verify = None;
        }
        match self.state {
            SortState::Offline => {
                // Cold fallback: no pool attached a stock, so draw and mint
                // the whole keygen tier from the protocol stream here, on
                // the session clock. Warm machines skip this entirely.
                // Offline work is charged to nobody's per-party ledger —
                // that is the point of the split.
                if self.stock.is_none() {
                    self.stock = Some(OfflineStock::draw(
                        &self.group,
                        self.n,
                        self.l,
                        rng,
                        self.workers,
                    ));
                }
                self.state = SortState::KeyGen;
                Ok(SortStatus::Pending)
            }
            SortState::KeyGen => {
                self.step_keygen(log)?;
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
    /// minted key pairs, assembled proofs and the prepared joint-key table,
    /// leaving online only the share exchange and proof verification.
    ///
    /// The proofs are not checked here: the step parks them as a
    /// [`KeygenVerifyJob`], which a batching caller claims or the next
    /// step settles.
    fn step_keygen(&mut self, log: &TrafficLog) -> Result<(), SortError> {
        let n = self.n;
        let keys = self
            .stock
            .as_mut()
            .and_then(OfflineStock::take_keys)
            .ok_or(SortError::Internal("offline key stock exhausted"))?;
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
        // Every verifier checks the same transcripts against the same
        // keys, so one check of each proof stands for all of them.
        self.pending_verify = Some(KeygenVerifyJob::new(
            &self.group,
            keys.pairs.iter().map(|k| k.public_key().clone()).collect(),
            keys.proofs,
        ));
        self.round += 3;
        self.keys = keys.pairs;
        self.key_table = Some(keys.table);
        Ok(())
    }

    /// Step 6: bitwise encryption under the joint key, published to all.
    ///
    /// The stock delivered the joint key's prepared comb table at the
    /// keygen step and both halves of every mask, so nothing here
    /// exponentiates beyond one group operation per set bit.
    fn step_encrypt(&mut self, log: &TrafficLog, timer: &mut PartyTimer) -> Result<(), SortError> {
        let n = self.n;
        let key_table = self
            .key_table
            .as_ref()
            .ok_or(SortError::Internal("no key table at encrypt"))?;
        let stock = self
            .stock
            .as_mut()
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
                    encrypt_bits_with_precomputed(&self.scheme, key_table, v, self.l, row)
                });
                for other in 1..=n {
                    if other != party {
                        log.record(self.round, party, other, self.l * self.ct_len, "sort/bits");
                    }
                }
                Ok(cts)
            })
            .collect::<Result<_, SortError>>()?;
        self.round += 1;
        Ok(())
    }

    /// Step 7 for one party: her τ set ([`tau_set`]) against every other
    /// party's encrypted bits, concatenated in `opponent_order` and
    /// rerandomized with her stocked mask row before it leaves her hands.
    fn step_compare(
        &mut self,
        idx: usize,
        log: &TrafficLog,
        timer: &mut PartyTimer,
    ) -> Result<(), SortError> {
        let party = idx + 1;
        let opponents: Vec<usize> = (0..self.n).filter(|&i| i != idx).collect();
        // tidy:allow(determinism) — wall-clock used for timing accounting only, never protocol state
        let start = Instant::now();
        let row = self
            .stock
            .as_mut()
            .and_then(OfflineStock::take_compare_row)
            .ok_or(SortError::Internal("offline compare stock exhausted"))?;
        if row.len() != opponents.len() * self.l {
            return Err(SortError::Internal("offline compare stock shape mismatch"));
        }
        let key_table = self
            .key_table
            .as_ref()
            .ok_or(SortError::Internal("no key table at compare"))?;
        let bits: Vec<&[Ciphertext]> = opponents
            .iter()
            .map(|&opp| self.encrypted_bits[opp].as_slice())
            .collect();
        let (set, cpu) = tau_set(
            &self.scheme,
            key_table,
            &bits,
            &self.values[idx],
            self.l,
            row,
            self.workers,
        );
        timer.record(party, start.elapsed(), cpu);
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

    /// Step 8 for one party: her hop ([`chain_hop`]) of the shuffle-decrypt
    /// chain P₁ → P₂ → … → P_n. The plaintext randomizers come from the
    /// offline stock and the shuffle permutations are drawn from `rng` in
    /// the serial order before any worker starts, so the transcript is
    /// identical for any thread count.
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
        let stock = self
            .stock
            .as_mut()
            .ok_or(SortError::Internal("no offline stock at hop"))?;
        // The stock always holds a randomizer set per (hop, foreign set) —
        // its shape is options-independent — so a non-randomizing run
        // simply leaves them unconsumed.
        let jobs: Vec<HopJob> = self
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
                    Some(prep)
                } else {
                    None
                };
                // A permutation shuffled with the same draws the in-place
                // `shuffle` would consume (Fisher–Yates swaps depend only
                // on the length), fused into result placement.
                let mut order: Vec<usize> = (0..set.len()).collect();
                if self.options.shuffle {
                    order.shuffle(rng);
                }
                Ok((owner, prep, order))
            })
            .collect::<Result<_, SortError>>()?;
        let draw_cpu = draw_start.elapsed();
        let cpu = chain_hop(
            &self.scheme,
            &mut self.sets,
            &jobs,
            self.keys[idx].secret_key(),
            self.workers,
        );
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
    /// zeros ([`count_zeros`]), then the result and trace are assembled
    /// (moving, not cloning, the protocol state).
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
        // near-equal ranges across the workers; each piece counts its
        // owner's zeros among its positions. This is RNG-free and
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
                        let zeros = count_zeros(
                            &self.scheme,
                            &self.sets[owner],
                            self.keys[owner].secret_key(),
                            Some(&positions[local]),
                        );
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

    /// What [`drive`] observed.
    struct Driven {
        outcome: Result<(SortOutcome, SortTrace), SortError>,
        traffic: TrafficSummary,
        /// The keygen check the loop claimed, if it claimed one.
        job: Option<KeygenVerifyJob>,
        /// Steps that succeeded before the run finished or failed.
        steps: usize,
    }

    /// Drives one machine to completion on a cold stock drawn from its own
    /// seed (with `corrupt`'s proof invalidated, if any). With `claim`, the
    /// loop takes the parked keygen check the way a batching runtime does;
    /// without, nobody does and the machine settles it.
    fn drive(claim: bool, seed: u64, corrupt: Option<usize>) -> Driven {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stock_rng = StdRng::seed_from_u64(seed ^ 0xa5);
        let values: Vec<BigUint> = [13u64, 200, 78, 200]
            .iter()
            .map(|&v| BigUint::from(v))
            .collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(values.len() + 1);
        let options = SortOptions {
            threads: 1,
            ..SortOptions::default()
        };
        let mut machine = SortMachine::new(&group, &values, 8, options, 0).unwrap();
        let mut stock = OfflineStock::draw(&group, values.len(), 8, &mut stock_rng, 1);
        if let Some(party) = corrupt {
            stock.corrupt_key_proof(&group, party);
        }
        machine.attach_offline_stock(stock).unwrap();
        let (mut job, mut steps) = (None, 0);
        let outcome = loop {
            match machine.step(&mut rng, &log, &mut timer) {
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
                    assert_eq!(machine.step(&mut rng, &log, &mut timer), Err(e.clone()));
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
        // Unclaimed: offline and keygen succeed, and the encrypt step
        // settles the check before any other work.
        let unclaimed = drive(false, 8, Some(1));
        assert_eq!(
            unclaimed.outcome.unwrap_err(),
            SortError::ProofRejected { party: 2 }
        );
        assert_eq!(unclaimed.steps, 2, "the step after keygen must fail");
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
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stock_rng = StdRng::seed_from_u64(seed ^ 0xa5);
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(values.len() + 1);
            let options = SortOptions {
                threads: 1,
                ..SortOptions::default()
            };
            let mut machine = SortMachine::new(&group, &values, 4, options, 0).unwrap();
            let mut stock = OfflineStock::draw(&group, 3, 4, &mut stock_rng, 1);
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
