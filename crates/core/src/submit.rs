//! Phase 3 — ranking submission and over-claim detection
//! (paper Fig. 1, last step, and the active-attack discussion in Sec. V).
//!
//! Participants whose rank is at most `k` submit their information vector
//! and claimed rank to the initiator. The initiator recomputes each
//! submitter's gain from the submitted vector and checks consistency:
//! claimed ranks must be distinct-or-tied exactly as the recomputed gains
//! order them. A low-ranking participant who over-claims therefore either
//! collides with an honest claimant's rank or inverts the gain order —
//! both are flagged.
//!
//! Submitting and gathering are rounds of the party machines (the private
//! `party` module), which every driver steps: a participant submits or
//! declines after its phase 2, and the initiator rejects a claimed rank
//! above `n` or a malformed vector as its sender's fault before
//! [`verify_submissions`] judges the set.

use crate::attrs::{gain, InfoVector, InitiatorProfile, Questionnaire};

/// One participant's submission to the initiator.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Submission {
    /// Submitting party (1-based).
    pub party: usize,
    /// The rank the participant claims to hold.
    pub claimed_rank: usize,
    /// Her information vector.
    pub info: InfoVector,
}

/// A submission the initiator accepted, with the recomputed gain.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct AcceptedSubmission {
    /// The submission.
    pub submission: Submission,
    /// Gain recomputed by the initiator from the submitted vector.
    pub gain: i128,
}

/// Why the initiator flagged a submission.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum SubmissionFlag {
    /// Two submissions claim the same rank but have different gains.
    RankCollision {
        /// The contested rank.
        rank: usize,
        /// The colliding parties.
        parties: Vec<usize>,
    },
    /// Claimed ranks invert the recomputed gain order.
    OrderInversion {
        /// Party whose claim is inconsistent.
        party: usize,
    },
    /// Claimed rank exceeds the published `k`.
    RankOutOfRange {
        /// The submitting party.
        party: usize,
    },
}

/// The initiator's verdict on the submission set.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct VerificationReport {
    /// Submissions that passed all checks.
    pub accepted: Vec<AcceptedSubmission>,
    /// Detected inconsistencies.
    pub flags: Vec<SubmissionFlag>,
}

impl VerificationReport {
    /// `true` when no inconsistencies were found.
    pub fn is_clean(&self) -> bool {
        self.flags.is_empty()
    }
}

/// The initiator's verification: recompute gains, check rank/gain
/// consistency (ties in gain may share a rank; distinct gains must not).
pub fn verify_submissions(
    q: &Questionnaire,
    profile: &InitiatorProfile,
    submissions: &[Submission],
    k: usize,
) -> VerificationReport {
    let mut report = VerificationReport::default();
    let mut scored: Vec<(&Submission, i128)> = submissions
        .iter()
        .map(|s| (s, gain(q, profile, &s.info)))
        .collect();

    for (s, _) in &scored {
        if s.claimed_rank > k || s.claimed_rank == 0 {
            report
                .flags
                .push(SubmissionFlag::RankOutOfRange { party: s.party });
        }
    }

    // Same claimed rank must mean same gain.
    scored.sort_by_key(|(s, _)| s.claimed_rank);
    for window in scored.windows(2) {
        let (a, ga) = (&window[0].0, window[0].1);
        let (b, gb) = (&window[1].0, window[1].1);
        if a.claimed_rank == b.claimed_rank && ga != gb {
            report.flags.push(SubmissionFlag::RankCollision {
                rank: a.claimed_rank,
                parties: vec![a.party, b.party],
            });
        }
        // Lower claimed rank must mean gain at least as large.
        if a.claimed_rank < b.claimed_rank && ga < gb {
            report
                .flags
                .push(SubmissionFlag::OrderInversion { party: a.party });
        }
    }

    for (s, g) in scored {
        let flagged = report.flags.iter().any(|f| match f {
            SubmissionFlag::RankCollision { parties, .. } => parties.contains(&s.party),
            SubmissionFlag::OrderInversion { party } => *party == s.party,
            SubmissionFlag::RankOutOfRange { party } => *party == s.party,
        });
        if !flagged {
            report.accepted.push(AcceptedSubmission {
                submission: s.clone(),
                gain: g,
            });
        }
    }
    report.accepted.sort_by_key(|a| a.submission.claimed_rank);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AttributeKind, CriterionVector, Questionnaire, WeightVector};

    fn setup() -> (Questionnaire, InitiatorProfile, Vec<InfoVector>) {
        let q = Questionnaire::builder()
            .attribute("score", AttributeKind::GreaterThan)
            .build()
            .unwrap();
        let profile = InitiatorProfile {
            criterion: CriterionVector::new(&q, vec![0], 15).unwrap(),
            weights: WeightVector::new(&q, vec![1], 8).unwrap(),
        };
        // Gains are just the raw scores here.
        let infos: Vec<InfoVector> = [40u64, 10, 30, 20]
            .iter()
            .map(|&v| InfoVector::new(&q, vec![v], 15).unwrap())
            .collect();
        (q, profile, infos)
    }

    /// `party`'s submission of `claimed_rank` with `info`.
    fn submission(party: usize, claimed_rank: usize, info: &InfoVector) -> Submission {
        Submission {
            party,
            claimed_rank,
            info: info.clone(),
        }
    }

    #[test]
    fn honest_flow_is_clean() {
        let (q, profile, infos) = setup();
        // Ranks 1, 4, 2, 3 with k = 2: parties 1 and 3 submit.
        let subs = vec![submission(1, 1, &infos[0]), submission(3, 2, &infos[2])];
        let report = verify_submissions(&q, &profile, &subs, 2);
        assert!(report.is_clean());
        assert_eq!(report.accepted.len(), 2);
        assert_eq!(report.accepted[0].submission.party, 1);
        assert_eq!(report.accepted[0].gain, 40);
    }

    #[test]
    fn tied_gains_may_share_a_rank() {
        let (q, profile, _) = setup();
        let tied: Vec<InfoVector> = [25u64, 25]
            .iter()
            .map(|&v| InfoVector::new(&q, vec![v], 15).unwrap())
            .collect();
        let subs = vec![submission(1, 1, &tied[0]), submission(2, 1, &tied[1])];
        let report = verify_submissions(&q, &profile, &subs, 1);
        assert!(report.is_clean());
        assert_eq!(report.accepted.len(), 2);
    }

    #[test]
    fn overclaim_collision_detected() {
        let (q, profile, infos) = setup();
        // True ranks: party1→1, party3→2. Party 2 (lowest gain) claims rank 2.
        let subs = vec![
            submission(1, 1, &infos[0]),
            submission(3, 2, &infos[2]),
            submission(2, 2, &infos[1]),
        ];
        let report = verify_submissions(&q, &profile, &subs, 2);
        assert!(!report.is_clean());
        assert!(report
            .flags
            .iter()
            .any(|f| matches!(f, SubmissionFlag::RankCollision { rank: 2, .. })));
        // The honest rank-1 submission survives.
        assert!(report.accepted.iter().any(|a| a.submission.party == 1));
    }

    #[test]
    fn order_inversion_detected() {
        let (q, profile, infos) = setup();
        // Party 2 (gain 10) claims rank 1; party 1 (gain 40) claims rank 2.
        let subs = vec![submission(2, 1, &infos[1]), submission(1, 2, &infos[0])];
        let report = verify_submissions(&q, &profile, &subs, 2);
        assert!(report
            .flags
            .iter()
            .any(|f| matches!(f, SubmissionFlag::OrderInversion { party: 2 })));
    }

    #[test]
    fn rank_out_of_range_detected() {
        let (q, profile, infos) = setup();
        let subs = vec![submission(4, 9, &infos[3])];
        let report = verify_submissions(&q, &profile, &subs, 2);
        assert!(report
            .flags
            .iter()
            .any(|f| matches!(f, SubmissionFlag::RankOutOfRange { party: 4 })));
        assert!(report.accepted.is_empty());
    }
}
