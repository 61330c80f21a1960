//! The interactive Schnorr identification protocol (single verifier).
//!
//! Proves knowledge of `x = log_g y` in three moves:
//!
//! 1. prover → verifier: commitment `h = g^r`
//! 2. verifier → prover: random challenge `c`
//! 3. prover → verifier: response `z = r + x·c mod q`
//!
//! The verifier accepts iff `g^z = h·y^c`.

use ppgr_bigint::Secret;
use ppgr_group::{Element, Group, Scalar};
use rand::Rng;
use std::fmt;

/// Prover state between the commitment and response moves.
///
/// # Example
///
/// ```
/// use ppgr_group::GroupKind;
/// use ppgr_zkp::SchnorrProver;
/// use rand::SeedableRng;
///
/// let group = GroupKind::Ecc160.group();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = group.random_scalar(&mut rng);
/// let y = group.exp_gen(&x);
///
/// let (prover, commitment) = SchnorrProver::commit(&group, x, &mut rng);
/// let challenge = group.random_scalar(&mut rng); // verifier's move
/// let transcript = prover.respond(&challenge, commitment);
/// assert!(transcript.verify(&group, &y));
/// ```
pub struct SchnorrProver {
    group: Group,
    witness: Secret<Scalar>,
    nonce: Secret<Scalar>,
}

impl fmt::Debug for SchnorrProver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrProver")
            .field("group", &self.group)
            .field("witness", &self.witness)
            .field("nonce", &self.nonce)
            .finish()
    }
}

/// A precomputed commitment nonce `(r, h = g^r)` for the offline/online
/// phase split: the exponentiation happens ahead of time (offline), the
/// online proof only performs scalar arithmetic on `r`.
///
/// A nonce is strictly single-use — answering two different challenges
/// with the same `r` surrenders the witness (see [`extract_witness`]) —
/// so consuming APIs take it by value.
pub struct SchnorrNonce {
    nonce: Secret<Scalar>,
    pub(crate) commitment: Element,
}

impl SchnorrNonce {
    /// Draws a fresh nonce and computes its commitment (the offline work).
    ///
    /// Draws exactly one scalar from `rng` — the same single draw the
    /// inline proof paths perform — so a precomputed proof fed from the
    /// same randomness stream is bit-identical to an inline one.
    pub fn draw<R: Rng + ?Sized>(group: &Group, rng: &mut R) -> Self {
        let r = group.random_scalar(rng);
        let commitment = group.exp_gen(&r);
        SchnorrNonce {
            nonce: Secret::new(r),
            commitment,
        }
    }

    /// The public commitment `h = g^r`.
    pub fn commitment(&self) -> &Element {
        &self.commitment
    }

    pub(crate) fn into_parts(self) -> (Secret<Scalar>, Element) {
        (self.nonce, self.commitment)
    }
}

impl fmt::Debug for SchnorrNonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrNonce")
            .field("nonce", &self.nonce)
            .field("commitment", &self.commitment)
            .finish()
    }
}

/// A complete transcript `(h, c, z)`; verification is stateless.
#[derive(Clone, Debug)]
pub struct SchnorrTranscript {
    /// Commitment `h = g^r`.
    pub commitment: Element,
    /// Challenge `c`.
    pub challenge: Scalar,
    /// Response `z = r + x·c`.
    pub response: Scalar,
}

impl SchnorrProver {
    /// First move: commit to a fresh nonce, returning `(state, h)`.
    pub fn commit<R: Rng + ?Sized>(group: &Group, witness: Scalar, rng: &mut R) -> (Self, Element) {
        let nonce = group.random_scalar(rng);
        let commitment = group.exp_gen(&nonce);
        (
            SchnorrProver {
                group: group.clone(),
                witness: Secret::new(witness),
                nonce: Secret::new(nonce),
            },
            commitment,
        )
    }

    /// Third move: answer the verifier's challenge.
    pub fn respond(self, challenge: &Scalar, commitment: Element) -> SchnorrTranscript {
        let response = self.group.scalar_add(
            self.nonce.expose(),
            &self.group.scalar_mul(self.witness.expose(), challenge),
        );
        SchnorrTranscript {
            commitment,
            challenge: challenge.clone(),
            response,
        }
    }
}

impl SchnorrTranscript {
    /// Verifier's check: `g^z = h·y^c`.
    ///
    /// A transcript whose commitment (or a statement) comes from a
    /// different group family can never be an accepting proof, so it is
    /// rejected rather than treated as a programming error — a verifier
    /// must survive arbitrary attacker-supplied messages.
    pub fn verify(&self, group: &Group, statement: &Element) -> bool {
        let lhs = group.exp_gen(&self.response);
        let Ok(yc) = group.try_exp(statement, &self.challenge) else {
            return false;
        };
        let Ok(rhs) = group.try_op(&self.commitment, &yc) else {
            return false;
        };
        lhs == rhs
    }
}

/// HVZK simulator: produces a transcript indistinguishable from a real one
/// *without* the witness, by sampling `z, c` first and solving for `h`.
///
/// Used by the security-game harness to demonstrate the zero-knowledge
/// property empirically (simulated and real transcripts have identical
/// distributions for an honest verifier).
pub fn simulate_transcript<R: Rng + ?Sized>(
    group: &Group,
    statement: &Element,
    rng: &mut R,
) -> SchnorrTranscript {
    let challenge = group.random_scalar(rng);
    let response = group.random_scalar(rng);
    // h = g^z / y^c
    let commitment = group.div(&group.exp_gen(&response), &group.exp(statement, &challenge));
    SchnorrTranscript {
        commitment,
        challenge,
        response,
    }
}

/// Special-soundness extractor: from two accepting transcripts with the
/// same commitment and different challenges, recovers the witness
/// `x = (z − z′)/(c − c′) mod q`.
///
/// Returns `None` if the transcripts do not share a commitment or the
/// challenges coincide. This is the knowledge extractor invoked (as a
/// thought experiment) by Lemma 3's simulator; the harness uses it for
/// real.
pub fn extract_witness(
    group: &Group,
    a: &SchnorrTranscript,
    b: &SchnorrTranscript,
) -> Option<Scalar> {
    if a.commitment != b.commitment || a.challenge == b.challenge {
        return None;
    }
    let dz = group.scalar_sub(&a.response, &b.response);
    let dc = group.scalar_sub(&a.challenge, &b.challenge);
    let dc_inv = group.scalar_inv(&dc)?;
    Some(group.scalar_mul(&dz, &dc_inv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Group, Scalar, Element, StdRng) {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(11);
        let x = group.random_scalar(&mut rng);
        let y = group.exp_gen(&x);
        (group, x, y, rng)
    }

    #[test]
    fn completeness() {
        let (group, x, y, mut rng) = setup();
        for _ in 0..10 {
            let (p, h) = SchnorrProver::commit(&group, x.clone(), &mut rng);
            let c = group.random_scalar(&mut rng);
            let t = p.respond(&c, h);
            assert!(t.verify(&group, &y));
        }
    }

    #[test]
    fn soundness_wrong_witness_fails() {
        let (group, x, y, mut rng) = setup();
        let wrong = group.scalar_add(&x, &group.scalar_from_u64(1));
        let (p, h) = SchnorrProver::commit(&group, wrong, &mut rng);
        let c = group.random_nonzero_scalar(&mut rng);
        let t = p.respond(&c, h);
        assert!(!t.verify(&group, &y));
    }

    #[test]
    fn tampered_transcript_fails() {
        let (group, x, y, mut rng) = setup();
        let (p, h) = SchnorrProver::commit(&group, x, &mut rng);
        let c = group.random_scalar(&mut rng);
        let mut t = p.respond(&c, h);
        t.response = group.scalar_add(&t.response, &group.scalar_from_u64(1));
        assert!(!t.verify(&group, &y));
    }

    #[test]
    fn cross_family_transcript_rejected_without_panicking() {
        // An attacker handing a DL commitment to an ECC verifier gets a
        // clean rejection, not a crash.
        let (group, x, y, mut rng) = setup();
        let dl = GroupKind::Dl1024.group();
        let (p, h) = SchnorrProver::commit(&group, x, &mut rng);
        let c = group.random_scalar(&mut rng);
        let mut t = p.respond(&c, h);
        t.commitment = dl.generator().clone();
        assert!(!t.verify(&group, &y));
        let foreign_statement = dl.generator().clone();
        assert!(!SchnorrTranscript {
            commitment: group.generator().clone(),
            challenge: group.scalar_from_u64(1),
            response: group.scalar_from_u64(1),
        }
        .verify(&group, &foreign_statement));
    }

    #[test]
    fn simulated_transcripts_verify() {
        let (group, _x, y, mut rng) = setup();
        for _ in 0..10 {
            let t = simulate_transcript(&group, &y, &mut rng);
            assert!(t.verify(&group, &y), "simulator output must be accepting");
        }
    }

    #[test]
    fn extractor_recovers_witness() {
        let (group, x, y, mut rng) = setup();
        // Rewind the prover: same nonce, two challenges.
        let nonce = group.random_scalar(&mut rng);
        let h = group.exp_gen(&nonce);
        let mk = |c: &Scalar| SchnorrTranscript {
            commitment: h.clone(),
            challenge: c.clone(),
            response: group.scalar_add(&nonce, &group.scalar_mul(&x, c)),
        };
        let c1 = group.random_scalar(&mut rng);
        let c2 = group.scalar_add(&c1, &group.scalar_from_u64(1));
        let t1 = mk(&c1);
        let t2 = mk(&c2);
        assert!(t1.verify(&group, &y) && t2.verify(&group, &y));
        assert_eq!(extract_witness(&group, &t1, &t2), Some(x));
    }

    #[test]
    fn debug_redacts_witness_and_nonce() {
        let (group, x, _y, mut rng) = setup();
        let witness_digits = x.to_string();
        let (p, _h) = SchnorrProver::commit(&group, x, &mut rng);
        let dump = format!("{:?}", p);
        assert!(dump.contains("Secret(<redacted>)"), "got: {dump}");
        assert!(
            !dump.contains(&witness_digits),
            "witness value leaked through Debug: {dump}"
        );
    }

    #[test]
    fn extractor_rejects_same_challenge_or_commitment_mismatch() {
        let (group, x, y, mut rng) = setup();
        let (p, h) = SchnorrProver::commit(&group, x.clone(), &mut rng);
        let c = group.random_scalar(&mut rng);
        let t = p.respond(&c, h);
        assert!(extract_witness(&group, &t, &t.clone()).is_none());
        let other = simulate_transcript(&group, &y, &mut rng);
        assert!(extract_witness(&group, &t, &other).is_none());
    }
}
