//! Integration-level security checks: the game harness run through the
//! public facade, plus transcript-level invariants.

use ppgr::bigint::BigUint;
use ppgr::core::games;
use ppgr::core::sorting::{run_sort, SortOptions};
use ppgr::core::PartyTimer;
use ppgr::elgamal::ExpElGamal;
use ppgr::group::GroupKind;
use ppgr::net::TrafficLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn shuffle_is_the_unlinkability_mechanism() {
    let group = GroupKind::Ecc160.group();
    let broken = games::unlinkability_attack(&group, 6, 8, false, 10);
    let honest = games::unlinkability_attack(&group, 6, 16, true, 11);
    assert_eq!(broken.accuracy(), 1.0);
    assert!(honest.accuracy() < 0.85, "got {}", honest.accuracy());
}

#[test]
fn randomization_is_the_gain_hiding_mechanism() {
    let group = GroupKind::Ecc160.group();
    assert_eq!(games::value_recovery_rate(&group, 6, false, 12), 1.0);
    assert!(games::value_recovery_rate(&group, 6, true, 13) < 0.15);
}

#[test]
fn returned_sets_contain_no_repeated_ciphertexts() {
    // Randomization guarantees distinct ciphertexts even for equal τ.
    let group = GroupKind::Ecc160.group();
    let values: Vec<BigUint> = [9u64, 9, 9].iter().map(|&v| BigUint::from(v)).collect();
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(4);
    let mut rng = StdRng::seed_from_u64(14);
    let (_, trace) = run_sort(
        &group,
        &values,
        4,
        SortOptions::default(),
        &mut rng,
        &log,
        &mut timer,
    )
    .unwrap();
    for set in &trace.returned_sets {
        for i in 0..set.len() {
            for j in i + 1..set.len() {
                assert_ne!(set[i], set[j], "ciphertexts must never repeat");
            }
        }
    }
}

#[test]
fn owner_cannot_learn_which_opponent_beat_her() {
    // Equal-rank scenarios with swapped opponents produce identical
    // zero-counts for the owner; the zero position is uniform under the
    // shuffle so two specific runs almost surely differ in position but
    // agree in count.
    let group = GroupKind::Ecc160.group();
    let scheme = ExpElGamal::new(group.clone());
    let mut positions = Vec::new();
    for seed in 0..6u64 {
        let values: Vec<BigUint> = [10u64, 40, 25].iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let (out, trace) = run_sort(
            &group,
            &values,
            6,
            SortOptions::default(),
            &mut rng,
            &log,
            &mut timer,
        )
        .unwrap();
        assert_eq!(out.ranks, vec![3, 1, 2]);
        // Party 3 (value 25) has exactly one zero (loses to 40).
        let key = trace.keys[2].secret_key();
        let zeros: Vec<usize> = trace.returned_sets[2]
            .iter()
            .enumerate()
            .filter(|(_, ct)| scheme.decrypts_to_zero(key, ct))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(zeros.len(), 1);
        positions.push(zeros[0]);
    }
    // Across seeds the zero position must vary (shuffled), i.e. not all equal.
    assert!(
        positions.windows(2).any(|w| w[0] != w[1]),
        "zero positions should be randomized across runs: {positions:?}"
    );
}
