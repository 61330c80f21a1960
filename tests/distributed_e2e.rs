//! The distributed (thread-per-party, serialized-messages) runner,
//! exercised through the public facade.
//!
//! Both runners draw every party's randomness from the same per-party
//! streams of the session seed, so for every seed they compute the same
//! masked gains and return the same ranks, gain ties included.

use ppgr::core::{
    run_distributed, AttributeKind, CriterionVector, FrameworkParams, GroupRanking, InfoVector,
    InitiatorProfile, Questionnaire, WeightVector,
};
use ppgr::group::GroupKind;
use ppgr::hash::HashDrbg;
use proptest::prelude::*;
use rand::SeedableRng;

fn scored_population(scores: &[u64]) -> (Questionnaire, InitiatorProfile, Vec<InfoVector>) {
    let q = Questionnaire::builder()
        .attribute("score", AttributeKind::GreaterThan)
        .build()
        .unwrap();
    let profile = InitiatorProfile {
        criterion: CriterionVector::new(&q, vec![0], 6).unwrap(),
        weights: WeightVector::new(&q, vec![1], 3).unwrap(),
    };
    let infos = scores
        .iter()
        .map(|&v| InfoVector::new(&q, vec![v], 6).unwrap())
        .collect();
    (q, profile, infos)
}

fn params(q: Questionnaire, n: usize, k: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(q)
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
fn distributed_known_scores() {
    let scores = [10u64, 40, 25, 5];
    let (q, profile, infos) = scored_population(&scores);
    let p = params(q, scores.len(), 2, 3);
    let out = run_distributed(&p, profile, infos).unwrap();
    assert_eq!(out.ranks, vec![3, 1, 2, 4]);
    assert!(out.report.is_clean());
    let accepted: Vec<usize> = out
        .report
        .accepted
        .iter()
        .map(|a| a.submission.party)
        .collect();
    assert_eq!(accepted, vec![2, 3], "rank-1 then rank-2 submitters");
}

#[test]
fn distributed_agrees_with_orchestrated_on_distinct_scores() {
    let scores = [7u64, 19, 30];
    let (q, profile, infos) = scored_population(&scores);
    let p = params(q, scores.len(), 1, 9);

    let orchestrated = GroupRanking::new(p.clone())
        .with_population(profile.clone(), infos.clone())
        .unwrap()
        .run()
        .unwrap();
    let distributed = run_distributed(&p, profile, infos).unwrap();
    assert_eq!(orchestrated.ranks(), &distributed.ranks[..]);
    assert_eq!(distributed.ranks, vec![3, 2, 1]);
}

#[test]
fn gain_ties_break_arbitrarily_but_consistently_with_order() {
    // Equal gains receive different masks ρ_j, so the framework breaks
    // gain ties into an arbitrary strict order (explicitly allowed by the
    // paper, Sec. V: "If p_i = p_j, it does not matter if P_i ranks
    // higher or lower"). Both runners draw the same masks, so they break
    // the tie the same way: the strict winner first, the tied pair ranks
    // {2, 3} in one order.
    let scores = [7u64, 7, 30];
    let (q, profile, infos) = scored_population(&scores);
    let p = params(q, scores.len(), 1, 9);

    let orchestrated = GroupRanking::new(p.clone())
        .with_population(profile.clone(), infos.clone())
        .unwrap()
        .run()
        .unwrap();
    let distributed = run_distributed(&p, profile, infos).unwrap();
    let ranks = orchestrated.ranks();
    assert_eq!(
        ranks,
        &distributed.ranks[..],
        "both runners break the tie alike"
    );
    assert_eq!(ranks[2], 1, "strict winner must be rank 1: {ranks:?}");
    let mut tied: Vec<usize> = vec![ranks[0], ranks[1]];
    tied.sort_unstable();
    assert_eq!(tied, vec![2, 3], "tied pair gets ranks 2 and 3: {ranks:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed, on ECC-160 with `n` in 2..=4 or on DL-1024 with
    /// `n = 3`, with two participants sharing one info vector (equal
    /// gains), the mesh returns exactly the in-memory run's ranks, and its
    /// initiator accepts exactly the in-memory run's submissions — the
    /// same parties, claimed ranks, gains and vectors — and flags none
    /// (an in-memory run fails on any flag).
    #[test]
    fn runners_agree_on_ranks_and_top_k(
        shape in 0usize..4,
        seed in any::<u64>(),
        first in 0usize..4,
        gap in 0usize..3,
        k in 1usize..5,
    ) {
        // Shapes 0–2 are ECC-160 with n = 2..=4, shape 3 is DL-1024 with
        // n = 3.
        let (kind, n) = match shape {
            3 => (GroupKind::Dl1024, 3),
            s => (GroupKind::Ecc160, s + 2),
        };
        let (k, first) = (k.min(n), first % n);
        let second = (first + 1 + gap % (n - 1)) % n;
        let p = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(k)
            .attr_bits(6)
            .weight_bits(3)
            .mask_bits(6)
            .group(kind)
            .seed(seed)
            .build()
            .unwrap();
        let (profile, mut infos) = p.random_population(&mut HashDrbg::seed_from_u64(seed));
        infos[second] = infos[first].clone();

        let orchestrated = GroupRanking::new(p.clone())
            .with_population(profile.clone(), infos.clone())
            .unwrap()
            .run()
            .unwrap();
        let distributed = run_distributed(&p, profile, infos).unwrap();
        prop_assert_eq!(orchestrated.ranks(), &distributed.ranks[..]);
        prop_assert_eq!(orchestrated.top_k(), &distributed.report.accepted[..]);
        prop_assert!(distributed.report.flags.is_empty(), "{:?}", distributed.report.flags);
    }
}
