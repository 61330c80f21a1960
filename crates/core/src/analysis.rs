//! Operation-count and wire analysis of the framework (paper Sec. VI-B).
//!
//! These formulas serve three purposes:
//!
//! 1. they regenerate the in-text complexity comparison (`O(l²n + ln²λ)`
//!    group multiplications and `O(n)` rounds for the framework versus
//!    `O(l·t·n²(log n)³)` and `O((279l+5)n(log n)²)` for the SS baseline —
//!    the `analysis` experiment of the reproduce harness);
//! 2. they drive the *calibrated model* timings for figure scales that
//!    are impractical to run end-to-end on one core: the harness measures
//!    the per-exponentiation cost of each group and multiplies by
//!    [`participant_ops`];
//! 3. [`WireModel`] is the paper's wire model, the one place it is
//!    written: every message each step of Fig. 1 sends, with its size and
//!    round. The [`SortMachine`](crate::SortMachine) logs each unit's
//!    share of it to the traffic log, and the Fig. 3(b) network simulation
//!    replays it round by round.

use crate::wire::FIELD_BYTES;
use ppgr_dotprod::DotProduct;
use ppgr_elgamal::Ciphertext;
use ppgr_group::GroupKind;
pub use ppgr_net::TrafficRecord;

/// Exponentiation counts one participant performs, by phase.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct ParticipantOps {
    /// Key generation + proving + verifying (step 5).
    pub setup_exps: u64,
    /// Bitwise encryption (step 6).
    pub encrypt_exps: u64,
    /// Comparison circuit scalar multiplications (step 7).
    pub compare_exps: u64,
    /// Shuffle-decrypt chain (step 8) — the dominant term.
    pub chain_exps: u64,
    /// Final decryption of the returned set (step 9).
    pub final_exps: u64,
}

impl ParticipantOps {
    /// Total exponentiations.
    pub fn total(&self) -> u64 {
        self.setup_exps + self.encrypt_exps + self.compare_exps + self.chain_exps + self.final_exps
    }
}

/// Exponentiations a participant performs for group size `n` and bit
/// length `l`.
///
/// Derivation (each ElGamal ciphertext op = component-wise):
/// * setup: 1 keygen + 1 proof commitment + 1 response check-side is
///   verifier work: verifying `n−1` proofs costs 2 exps each;
/// * encryption: `l` bits × 2 exps;
/// * comparison: per opponent, `l` scalar-multiplications of ciphertexts
///   (2 exps each) — the additions are multiplications, not exps;
/// * chain: `(n−1)` sets × `(n−1)·l` ciphertexts × 3 exps (one partial
///   decryption + two plaintext-randomization exps);
/// * final: `(n−1)·l` single-component exponentiations.
pub fn participant_ops(n: usize, l: usize) -> ParticipantOps {
    let (n, l) = (n as u64, l as u64);
    ParticipantOps {
        setup_exps: 2 + 2 * (n - 1),
        encrypt_exps: 2 * l,
        compare_exps: 2 * l * (n - 1),
        chain_exps: 3 * l * (n - 1) * (n - 1),
        final_exps: l * (n - 1),
    }
}

/// The messages of one run of the protocol (paper Sec. VI-B), written
/// once: a phase-2 run (steps 5–9) of `n` parties on `l`-bit values, or a
/// whole session, which adds the dot products (step 3) and the
/// submissions (step 10).
///
/// A phase-2 run spans `n + 6` rounds from round 0: four of keygen, one
/// each for the bits and the τ sets, `n − 1` chain hops and the return. A
/// session spans `n + 9`: its phase 2 starts at round 2, after the dot
/// product's two, and the submissions take the last. Bytes are payloads,
/// with no framing, and keygen carries no echo.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct WireModel {
    n: usize,
    /// Encoded widths of an encrypted value (`l` ciphertexts), a group
    /// element and a scalar.
    bits: usize,
    elem: usize,
    scalar: usize,
    /// In a session, the bytes of a dot product's round 1 and of a
    /// submission.
    session: Option<(usize, usize)>,
}

impl WireModel {
    /// A phase-2 run of `n` parties on `l`-bit values in group `kind`.
    pub fn sort(kind: GroupKind, n: usize, l: usize) -> Self {
        let group = kind.group();
        WireModel {
            n,
            bits: l * Ciphertext::encoded_len(&group),
            elem: group.element_len(),
            scalar: group.order().bits().div_ceil(8),
            session: None,
        }
    }

    /// A whole session of `n` participants on `l`-bit masked gains in
    /// group `kind`, over a questionnaire of `m` attributes, `t` of them
    /// equal-to. Round 1 of a dot product is `s` rows and two more vectors
    /// of `m + t + 1` field elements; a submission is `m` values and a
    /// rank, 8 bytes each.
    pub fn session(kind: GroupKind, n: usize, l: usize, m: usize, t: usize) -> Self {
        let round1 = (DotProduct::DEFAULT_S + 2) * (m + t + 1) * FIELD_BYTES;
        WireModel {
            session: Some((round1, 8 * m + 8)),
            ..Self::sort(kind, n, l)
        }
    }

    /// The rounds the run spans: `n + 6`, or `n + 9` for a session.
    pub fn rounds(&self) -> u32 {
        self.n as u32 + if self.session.is_some() { 9 } else { 6 }
    }

    /// Every message paper step `step` sends, in log order. Step 10 is a
    /// submission from each of `submitters`, in the order given; a
    /// decline is not charged. Steps 3 and 10 send nothing in a phase-2
    /// run, and steps 1, 2 and 4 never do.
    pub fn step(&self, step: u8, submitters: &[usize]) -> Vec<TrafficRecord> {
        // Phase 2 starts at round `r`: keygen takes four rounds, the bits
        // and the τ sets one each, the chain `n − 1` and the return one.
        let (n, r) = (self.n, 2 * u32::from(self.session.is_some()));
        let (set, mut sent) = ((n - 1) * self.bits, Vec::new());
        let mut send = |round, from, to, bytes, phase| {
            sent.push(TrafficRecord {
                round,
                from,
                to,
                bytes,
                phase,
            })
        };
        let pairs =
            || (1..=n).flat_map(move |a| (1..=n).filter(move |&b| b != a).map(move |b| (a, b)));
        match (step, self.session) {
            (3, Some((round1, _))) => {
                for p in 1..=n {
                    send(0, p, 0, round1, "gain");
                    send(1, 0, p, 2 * FIELD_BYTES, "gain");
                }
            }
            // The key shares, then each pair's commitment, challenge share
            // and response.
            (5, _) => {
                pairs().for_each(|(a, b)| send(r, a, b, self.elem, "sort/keys"));
                for (a, b) in pairs() {
                    send(r + 1, a, b, self.elem, "sort/zkp");
                    send(r + 2, b, a, self.scalar, "sort/zkp");
                    send(r + 3, a, b, self.scalar, "sort/zkp");
                }
            }
            (6, _) => pairs().for_each(|(a, b)| send(r + 4, a, b, self.bits, "sort/bits")),
            (7, _) => (2..=n).for_each(|j| send(r + 5, j, 1, set, "sort/collect")),
            // Each hop sends the whole vector on.
            (8, _) => (1..n).for_each(|j| send(r + 5 + j as u32, j, j + 1, n * set, "sort/chain")),
            (9, _) => (1..n).for_each(|owner| send(r + 5 + n as u32, n, owner, set, "sort/return")),
            (10, Some((_, bytes))) => {
                for &s in submitters {
                    send(r + 6 + n as u32, s, 0, bytes, "submit");
                }
            }
            _ => {}
        }
        sent
    }

    /// Every message of the run, step by step, with `submitters` as in
    /// [`WireModel::step`].
    pub fn records(&self, submitters: &[usize]) -> Vec<TrafficRecord> {
        (1..=10)
            .flat_map(|step| self.step(step, submitters))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_dominates_at_scale() {
        let ops = participant_ops(25, 52);
        assert!(ops.chain_exps > ops.compare_exps * 10);
        assert!(ops.chain_exps > ops.encrypt_exps * 100);
        assert_eq!(
            ops.total(),
            ops.setup_exps + ops.encrypt_exps + ops.compare_exps + ops.chain_exps + ops.final_exps
        );
    }

    #[test]
    fn quadratic_growth_in_n() {
        // Fig. 2(a): our framework grows ~quadratically in n.
        let a = participant_ops(10, 52).total();
        let b = participant_ops(20, 52).total();
        let ratio = b as f64 / a as f64;
        assert!((3.0..5.0).contains(&ratio), "expected ≈4×, got {ratio}");
    }

    #[test]
    fn linear_growth_in_l() {
        // Fig. 2(c)/(d): linear in l (which d₁ and h feed).
        let a = participant_ops(25, 30).total();
        let b = participant_ops(25, 60).total();
        let ratio = b as f64 / a as f64;
        assert!((1.8..2.2).contains(&ratio), "expected ≈2×, got {ratio}");
    }

    #[test]
    fn wire_model_fills_its_rounds() {
        // Every round holds a message, and none lies past the last.
        for n in 2..=6 {
            let sort = WireModel::sort(GroupKind::Ecc160, n, 5);
            let session = WireModel::session(GroupKind::Dl1024, n, 5, 3, 1);
            for (model, rounds) in [(sort, n + 6), (session, n + 9)] {
                assert_eq!(model.rounds() as usize, rounds);
                let mut seen = vec![false; rounds];
                for r in model.records(&[1]) {
                    seen[r.round as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "n = {n}: {seen:?}");
            }
        }
    }

    #[test]
    fn wire_model_prices_each_message() {
        let (n, l) = (4, 6);
        let model = WireModel::session(GroupKind::Ecc160, n, l, 3, 1);
        let group = GroupKind::Ecc160.group();
        let ct = Ciphertext::encoded_len(&group);
        let count = |step| model.step(step, &[2, 3]).len();
        // n(n−1) key shares and three proof messages per pair.
        assert_eq!(count(5), 4 * n * (n - 1));
        assert_eq!(count(10), 2);
        let bytes = |step| -> usize { model.step(step, &[2, 3]).iter().map(|r| r.bytes).sum() };
        assert_eq!(bytes(3), n * ((8 + 2) * 5 + 2) * FIELD_BYTES);
        assert_eq!(bytes(6), n * (n - 1) * l * ct);
        assert_eq!(bytes(8), (n - 1) * n * (n - 1) * l * ct);
        assert_eq!(bytes(10), 2 * (8 * 3 + 8));
        // A phase-2 run has no phase 1 or 3.
        let sort = WireModel::sort(GroupKind::Ecc160, n, l);
        assert!(sort.step(3, &[]).is_empty() && sort.step(10, &[1]).is_empty());
    }
}
