//! Proof-tamper entry points for malicious-security tests.
//!
//! The byzantine scenario matrix (`ppgr-core/tests/byzantine.rs`) and the
//! offline-stock corruption hook need to derange Schnorr transcripts in
//! controlled, reproducible ways: a response nudged off by one, two
//! provers' responses swapped, a response lifted from an unrelated
//! statement. Centralising the deranging here keeps every tamper
//! deterministic and keeps test harnesses from reinventing scalar
//! arithmetic — and gives the `fault-surface` tidy rule one sanctioned
//! place where proof tampering is allowed to live.
//!
//! Nothing here weakens the verifier: these helpers only ever *produce
//! invalid proofs*, which verification must reject with the tampered
//! prover named.

use crate::schnorr::{SchnorrNonce, SchnorrTranscript};
use ppgr_group::Group;

/// Nudges the response scalar by one: `z ← z + 1 mod q`. The transcript's
/// algebra (`g^z = h·y^c`) breaks with probability 1, so verification
/// must reject it and name this prover.
#[doc(hidden)]
pub fn bump_response(group: &Group, t: &mut SchnorrTranscript) {
    t.response = group.scalar_add(&t.response, &group.scalar_from_u64(1));
}

/// Moves a precomputed nonce's commitment off its secret: `h ← h·g`. A
/// proof spending the nonce still answers with `r` but commits to
/// `g^{r+1}`, so verification must reject it and name this prover.
#[doc(hidden)]
pub fn bump_nonce_commitment(group: &Group, nonce: &mut SchnorrNonce) {
    nonce.commitment = group.op(&nonce.commitment, group.generator());
}

/// Swaps the responses of two transcripts — each proof now answers the
/// other's challenge ("swapped proofs"). Both become invalid unless the
/// witnesses, nonces and challenges all coincide.
#[doc(hidden)]
pub fn swap_responses(a: &mut SchnorrTranscript, b: &mut SchnorrTranscript) {
    std::mem::swap(&mut a.response, &mut b.response);
}

/// A deterministic, in-range, wrong response scalar, encoded big-endian
/// at the group's scalar width — exactly the bytes an honest prover's
/// response message carries, so a wire-level `Tamper::Replace` built from
/// this slots into the protocol undetected until verification.
///
/// Derived from `seed` by a fixed multiplier (no ambient randomness): the
/// same seed always forges the same bytes.
#[doc(hidden)]
pub fn forged_response_bytes(group: &Group, seed: u64) -> Vec<u8> {
    let s = group.scalar_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let width = group.order().bits().div_ceil(8);
    let raw = s.value().to_bytes_be();
    let mut out = vec![0u8; width.saturating_sub(raw.len())];
    out.extend_from_slice(&raw);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiVerifierProof, SchnorrProver};
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn transcript(
        group: &ppgr_group::Group,
        seed: u64,
    ) -> (ppgr_group::Element, SchnorrTranscript) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = group.random_scalar(&mut rng);
        let y = group.exp_gen(&x);
        let (prover, commitment) = SchnorrProver::commit(group, x, &mut rng);
        let c = group.random_scalar(&mut rng);
        (y, prover.respond(&c, commitment))
    }

    #[test]
    fn bumped_response_fails_verification() {
        let group = GroupKind::Ecc160.group();
        let (y, mut t) = transcript(&group, 1);
        assert!(t.verify(&group, &y));
        bump_response(&group, &mut t);
        assert!(!t.verify(&group, &y));
    }

    #[test]
    fn bumped_nonce_commitment_fails_verification() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(4);
        let x = group.random_scalar(&mut rng);
        let y = group.exp_gen(&x);
        let challenges = vec![group.random_scalar(&mut rng)];
        let honest = SchnorrNonce::draw(&group, &mut StdRng::seed_from_u64(5));
        let proof = MultiVerifierProof::assemble(&group, &x, honest, challenges.clone());
        assert!(proof.verify(&group, &y));
        let mut nonce = SchnorrNonce::draw(&group, &mut StdRng::seed_from_u64(5));
        bump_nonce_commitment(&group, &mut nonce);
        let proof = MultiVerifierProof::assemble(&group, &x, nonce, challenges);
        assert!(!proof.verify(&group, &y));
    }

    #[test]
    fn swapped_responses_fail_both_verifications() {
        let group = GroupKind::Ecc160.group();
        let (ya, mut ta) = transcript(&group, 2);
        let (yb, mut tb) = transcript(&group, 3);
        swap_responses(&mut ta, &mut tb);
        assert!(!ta.verify(&group, &ya));
        assert!(!tb.verify(&group, &yb));
    }

    #[test]
    fn forged_response_bytes_are_deterministic_and_scalar_width() {
        let group = GroupKind::Ecc160.group();
        let a = forged_response_bytes(&group, 7);
        let b = forged_response_bytes(&group, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), group.order().bits().div_ceil(8));
        assert_ne!(a, forged_response_bytes(&group, 8));
    }
}
