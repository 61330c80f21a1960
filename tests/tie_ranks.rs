//! Tie handling through the shuffle-decrypt chain, plus serial/parallel
//! equivalence of the sorting engine.
//!
//! The paper allows equal masked gains to share a rank ("If `p_i = p_j`,
//! it does not matter if `P_i` ranks higher or lower than `P_j`", Sec. V):
//! every party counts the τ-zeros in her returned set, and equal β values
//! produce the same zero count no matter how the chain shuffles and
//! re-randomizes the sets. These tests pin that behaviour down — a
//! regression here would mean a hop mangled τ = 0 plaintexts.

use ppgr::bigint::BigUint;
use ppgr::core::sorting::{plain_ranks, run_sort, SortOptions};
use ppgr::core::PartyTimer;
use ppgr::elgamal::Ciphertext;
use ppgr::group::GroupKind;
use ppgr::net::{TrafficLog, TrafficSummary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sort_with(values: &[u64], l: usize, seed: u64, options: SortOptions) -> Vec<usize> {
    run_with(values, l, seed, options).0
}

/// Ranks, the sets returned to their owners and the traffic summary of one
/// run.
fn run_with(
    values: &[u64],
    l: usize,
    seed: u64,
    options: SortOptions,
) -> (Vec<usize>, Vec<Vec<Ciphertext>>, TrafficSummary) {
    let group = GroupKind::Ecc160.group();
    let values: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(values.len() + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let (out, trace) = run_sort(&group, &values, l, options, &mut rng, &log, &mut timer).unwrap();
    (out.ranks, trace.returned_sets, log.summary())
}

#[test]
fn duplicate_betas_share_a_rank_across_the_chain() {
    // Two-way and three-way ties at the top, middle and bottom; the next
    // distinct value's rank skips the tied block (standard competition
    // ranking), and every seed's shuffle chain preserves it.
    let cases: &[(&[u64], &[usize])] = &[
        (&[50, 50, 7], &[1, 1, 3]),
        (&[7, 50, 50], &[3, 1, 1]),
        (&[50, 7, 50], &[1, 3, 1]),
        (&[9, 9, 9, 2], &[1, 1, 1, 4]),
        (&[2, 9, 9, 9], &[4, 1, 1, 1]),
        (&[30, 12, 30, 12, 5], &[1, 3, 1, 3, 5]),
        (&[0, 0, 63, 63], &[3, 3, 1, 1]),
    ];
    for (seed, (values, expect)) in cases.iter().enumerate() {
        let ranks = sort_with(values, 6, seed as u64 + 1, SortOptions::default());
        assert_eq!(&ranks, expect, "values {values:?} seed {seed}");
        let as_big: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
        assert_eq!(
            ranks,
            plain_ranks(&as_big),
            "reference disagrees for {values:?}"
        );
    }
}

#[test]
fn duplicate_partial_gains_tie_through_the_full_framework() {
    // Identical info vectors ⇒ identical partial gains. The gain phase
    // masks each β_j with a distinct ρ_j < ρ, which may break the tie into
    // an arbitrary strict order (the paper explicitly permits either
    // outcome) but must never *reorder* distinct gains; equal-gain parties
    // must land in adjacent ranks.
    use ppgr::core::{FrameworkParams, GroupRanking, Questionnaire};
    use ppgr::hash::HashDrbg;

    let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(4)
        .top_k(1)
        .attr_bits(5)
        .weight_bits(3)
        .mask_bits(6)
        .seed(33)
        .build()
        .unwrap();
    let mut rng = HashDrbg::seed_from_u64(params.seed());
    let (profile, mut infos) = params.random_population(&mut rng);
    // Force a duplicate partial gain: parties 2 and 3 share an info vector.
    infos[2] = infos[1].clone();
    let outcome = GroupRanking::new(params)
        .with_population(profile, infos)
        .unwrap()
        .run()
        .unwrap();
    let ranks = outcome.ranks();
    let (a, b) = (ranks[1], ranks[2]);
    assert!(
        a.abs_diff(b) <= 1,
        "equal gains must rank adjacently (or tie), got {ranks:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial (`threads = 1`) and fanned-out (`threads = 2, 3`) executions
    /// of the sorting engine are indistinguishable for the same RNG seed —
    /// randomness is pre-drawn serially, so the parallel schedule cannot
    /// leak into ranks or transcripts: every returned ciphertext and the
    /// whole traffic summary match. With n from 2 to 7 and (n − 1)·3
    /// ciphertexts per set, the workers' range boundaries fall both inside
    /// a set and between sets. Duplicates are likely at this value range,
    /// so tie handling is exercised under parallelism too.
    #[test]
    fn parallel_and_serial_sorting_agree(
        values in prop::collection::vec(0u64..8, 2..=7),
        seed in 0u64..1_000,
    ) {
        let run = |threads: usize| {
            run_with(&values, 3, seed, SortOptions { threads })
        };
        let (ranks, returned, traffic) = run(1);
        for threads in [2, 3] {
            let (p_ranks, p_returned, p_traffic) = run(threads);
            prop_assert_eq!(&p_ranks, &ranks, "threads = {}", threads);
            prop_assert_eq!(p_returned.len(), returned.len());
            for (owner, (p_set, set)) in p_returned.iter().zip(&returned).enumerate() {
                prop_assert_eq!(p_set.len(), set.len(), "owner {}", owner);
                for (i, (p_ct, ct)) in p_set.iter().zip(set).enumerate() {
                    prop_assert_eq!(
                        p_ct, ct,
                        "threads = {}, owner {}, ciphertext {}", threads, owner, i
                    );
                }
            }
            prop_assert_eq!(&p_traffic, &traffic, "threads = {}", threads);
        }
        let as_big: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
        prop_assert_eq!(ranks, plain_ranks(&as_big));
    }

    /// N sessions interleaved on the throughput runtime are bit-identical
    /// to the same sessions run solo and serially: same ranks, same wire
    /// transcript (byte counts, rounds, labels). Each session owns its
    /// seeded DRBG and its steps stay strictly sequential, so no worker
    /// count or steal schedule can perturb a transcript.
    #[test]
    fn runtime_sessions_match_solo_serial_runs(
        base_seed in 0u64..1_000,
        workers in 1usize..5,
        sessions in 2usize..5,
    ) {
        use ppgr::core::{FrameworkParams, GroupRanking, Questionnaire};
        use ppgr::runtime::Runtime;

        let params_for = |seed: u64| {
            FrameworkParams::builder(Questionnaire::synthetic(1, 1))
                .participants(3)
                .top_k(1)
                .attr_bits(4)
                .weight_bits(2)
                .mask_bits(4)
                .group(GroupKind::Ecc160)
                .seed(seed)
                .build()
                .unwrap()
        };
        let runtime = Runtime::with_workers(workers);
        let handles: Vec<_> = (0..sessions)
            .map(|i| runtime.submit(params_for(base_seed + i as u64)))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let pooled = handle.join().unwrap();
            let solo = GroupRanking::new(params_for(base_seed + i as u64))
                .with_random_population()
                .run()
                .unwrap();
            prop_assert_eq!(pooled.ranks(), solo.ranks());
            prop_assert_eq!(pooled.traffic(), solo.traffic());
        }
    }
}
