//! Batch Schnorr verification: k transcripts, one multi-exponentiation.
//!
//! A single transcript `(h, c, z)` for statement `y` verifies as
//! `g^z = h·y^c` — two full exponentiations per proof. Scaling each
//! equation by an independent small combiner `wᵢ` and multiplying them
//! together gives one aggregate check,
//!
//! ```text
//!     g^{Σ wᵢzᵢ}  =  Π hᵢ^{wᵢ} · yᵢ^{wᵢcᵢ}
//! ```
//!
//! whose right-hand side is a 2k-term multi-exponentiation
//! ([`Group::try_multi_exp`]) with half the scalars only 128 bits wide,
//! and whose left-hand side is a single fixed-base exponentiation. A
//! cheater passes the aggregate check only by predicting its combiner —
//! probability `≤ 2⁻¹²⁸` per attempt.
//!
//! The combiners are derived **deterministically** by hashing the whole
//! transcript set (statements, commitments, challenges, responses) under
//! a domain-separation tag. Ambient randomness (`thread_rng`, `OsRng`)
//! is deliberately not used: the framework's transcripts must be
//! bit-identical across replays (`ppgr-tidy` enforces this crate-wide),
//! and deterministic combiners lose nothing — a prover cannot influence
//! her combiner without also changing the hash input she must satisfy.
//!
//! Batch rejection falls back to per-proof verification, so the caller
//! always learns *which* proof failed (`SortError::ProofRejected` in
//! `ppgr-core` still names the culprit party). The individual checks are
//! authoritative; the aggregate equation is purely an accelerator.
//!
//! Two granularities of attribution are offered. [`verify_batch_all`]
//! reports **every** rejected proof in protocol order, not just the first
//! culprit. [`verify_sessions_multi_batch`] collapses one or *many
//! sessions'* multi-verifier proof sets into one MSM and, on rejection,
//! hands back a per-session rejection list, so cross-session amortization
//! never blurs which session (and which prover inside it) cheated; a
//! single session is simply a batch of one.

use crate::multi::MultiVerifierTranscript;
use crate::schnorr::SchnorrTranscript;
use ppgr_bigint::BigUint;
use ppgr_group::{Element, Group, Scalar};
use ppgr_hash::Sha256;

/// Domain-separation tag for combiner derivation.
const DOMAIN: &[u8] = b"ppgr/zkp/batch/v1";

/// Combiner width in bytes (128 bits): small enough that half the MSM
/// scalars are cheap, large enough that forging the aggregate equation
/// is as hard as forging a proof.
const COMBINER_BYTES: usize = 16;

/// Verifies `k` Schnorr transcripts in one aggregate equation.
///
/// Each item pairs a statement `yᵢ` with its transcript. Returns `Ok(())`
/// if every proof verifies; otherwise `Err(i)` with the index of the
/// first failing proof (established by the per-proof fallback scan, never
/// by the aggregate equation alone).
///
/// The empty batch is vacuously valid. Cross-family or otherwise
/// malformed inputs are handled like any rejection: the fallback scan
/// attributes them.
pub fn verify_batch(group: &Group, items: &[(&Element, &SchnorrTranscript)]) -> Result<(), usize> {
    verify_batch_all(group, items).map_err(|rejected| rejected[0])
}

/// [`verify_batch`] with full attribution: on rejection, `Err` carries
/// **every** failing index in protocol (input) order, never just the
/// first. The list is established by the authoritative per-proof rescan
/// and is always non-empty.
///
/// # Errors
///
/// `Err(rejected)` with the sorted indices of all individually failing
/// proofs.
pub fn verify_batch_all(
    group: &Group,
    items: &[(&Element, &SchnorrTranscript)],
) -> Result<(), Vec<usize>> {
    if items.is_empty() {
        return Ok(());
    }
    if items.len() == 1 {
        let (y, t) = items[0];
        return if t.verify(group, y) {
            Ok(())
        } else {
            Err(vec![0])
        };
    }
    if batch_equation_holds(group, items) == Some(true) {
        return Ok(());
    }
    scan_all(group, items)
}

/// All proofs one session contributed that failed individual
/// verification, reported by [`verify_sessions_multi_batch`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct SessionRejections {
    /// Index of the session in the submitted slice.
    pub session: usize,
    /// Indices of the rejected proofs *within that session's set*, in
    /// protocol order. Never empty.
    pub proofs: Vec<usize>,
}

/// Cross-session aggregate verification: every session's multi-verifier
/// proof set, each transcript collapsed to its single-verifier form
/// (summed challenge) and all folded into **one** aggregate equation (a
/// single `2·Σkᵢ`-term multi-exponentiation), so concurrent sessions
/// amortize their Schnorr verification into one MSM call. One session's
/// proofs are checked as a batch of one session.
///
/// The combiners are derived from the flat concatenation of all sessions'
/// transcripts under the same domain tag as [`verify_batch`] — still
/// deterministic, and a prover in one session cannot influence another
/// session's combiner without changing the hash input she must satisfy.
///
/// On rejection, the authoritative per-proof rescan attributes **all**
/// failing proofs back to their sessions, in submission order, with each
/// session's rejections in protocol order — per-session first-culprit
/// attribution survives batching by taking `proofs[0]` of that session's
/// entry.
///
/// # Errors
///
/// `Err(rejections)` with one [`SessionRejections`] entry per session
/// that contributed at least one individually failing proof.
pub fn verify_sessions_multi_batch(
    group: &Group,
    sessions: &[&[(&Element, &MultiVerifierTranscript)]],
) -> Result<(), Vec<SessionRejections>> {
    let singles: Vec<SchnorrTranscript> = sessions
        .iter()
        .flat_map(|items| items.iter().map(|(_, t)| t.as_single(group)))
        .collect();
    let flat: Vec<(&Element, &SchnorrTranscript)> = sessions
        .iter()
        .flat_map(|items| items.iter().map(|(y, _)| *y))
        .zip(&singles)
        .collect();
    if flat.is_empty() {
        return Ok(());
    }
    if flat.len() > 1 && batch_equation_holds(group, &flat) == Some(true) {
        return Ok(());
    }
    // Aggregate failed (or was degenerate): rescan each proof individually
    // and fold the verdicts back onto session boundaries.
    let mut rejections = Vec::new();
    let mut offset = 0;
    for (session, items) in sessions.iter().enumerate() {
        let proofs: Vec<usize> = (0..items.len())
            .filter(|i| {
                let (y, t) = flat[offset + i];
                !t.verify(group, y)
            })
            .collect();
        if !proofs.is_empty() {
            rejections.push(SessionRejections { session, proofs });
        }
        offset += items.len();
    }
    if rejections.is_empty() {
        Ok(())
    } else {
        Err(rejections)
    }
}

/// Per-proof fallback: authoritative, names every failing index in input
/// order. Finding none is possible only on a combiner collision
/// (`≤ 2⁻¹²⁸`) or after a transient aggregate mismatch that individual
/// checks refute — either way the individual verdicts win.
fn scan_all(group: &Group, items: &[(&Element, &SchnorrTranscript)]) -> Result<(), Vec<usize>> {
    let rejected: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, (y, t))| !t.verify(group, y))
        .map(|(i, _)| i)
        .collect();
    if rejected.is_empty() {
        Ok(())
    } else {
        Err(rejected)
    }
}

/// Evaluates the aggregate equation. `None` means the input could not be
/// combined (e.g. a cross-family element) — the caller treats that like a
/// rejection and lets the fallback scan attribute it.
fn batch_equation_holds(group: &Group, items: &[(&Element, &SchnorrTranscript)]) -> Option<bool> {
    let combiners = derive_combiners(group, items)?;
    // Left side: g^{Σ wᵢzᵢ} — one fixed-base exponentiation.
    let mut z_total = group.scalar_from_u64(0);
    // Right side: the 2k MSM terms (hᵢ, wᵢ) and (yᵢ, wᵢ·cᵢ).
    let mut scaled: Vec<(Scalar, Scalar)> = Vec::with_capacity(items.len());
    for (w, (_, t)) in combiners.iter().zip(items) {
        z_total = group.scalar_add(&z_total, &group.scalar_mul(w, &t.response));
        scaled.push((w.clone(), group.scalar_mul(w, &t.challenge)));
    }
    let mut terms: Vec<(&Element, &Scalar)> = Vec::with_capacity(2 * items.len());
    for ((y, t), (w, wc)) in items.iter().zip(&scaled) {
        terms.push((&t.commitment, w));
        terms.push((y, wc));
    }
    let lhs = group.exp_gen(&z_total);
    let rhs = group.try_multi_exp(&terms).ok()?;
    Some(lhs == rhs)
}

/// Derives the 128-bit combiners: one SHA-256 pass binds the entire
/// transcript set into a seed, then each index is expanded from the seed.
/// Returns `None` if any element cannot be encoded under this group.
fn derive_combiners(
    group: &Group,
    items: &[(&Element, &SchnorrTranscript)],
) -> Option<Vec<Scalar>> {
    let scalar_len = group.order().bits().div_ceil(8);
    let mut h = Sha256::new();
    h.update(DOMAIN);
    h.update(&(items.len() as u64).to_be_bytes());
    for (y, t) in items {
        h.update(&group.try_encode(y).ok()?);
        h.update(&group.try_encode(&t.commitment).ok()?);
        h.update(&scalar_bytes(scalar_len, &t.challenge));
        h.update(&scalar_bytes(scalar_len, &t.response));
    }
    let seed = h.finalize();
    Some(
        (0..items.len())
            .map(|i| {
                let mut hi = Sha256::new();
                hi.update(DOMAIN);
                hi.update(&seed);
                hi.update(&(i as u64).to_be_bytes());
                let digest = hi.finalize();
                let w = group.scalar_from(&BigUint::from_bytes_be(&digest[..COMBINER_BYTES]));
                // A zero combiner would drop proof i from the aggregate
                // equation entirely; map it to 1 (probability 2⁻¹²⁸).
                if w.is_zero() {
                    group.scalar_from_u64(1)
                } else {
                    w
                }
            })
            .collect(),
    )
}

/// Fixed-width big-endian scalar bytes, so the hash input is unambiguous.
fn scalar_bytes(width: usize, s: &Scalar) -> Vec<u8> {
    let raw = s.value().to_bytes_be();
    let mut out = vec![0u8; width.saturating_sub(raw.len())];
    out.extend_from_slice(&raw);
    out
}
