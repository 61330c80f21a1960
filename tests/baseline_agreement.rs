//! Cross-implementation agreement: the paper's framework, the SS-baseline
//! sorting protocol, and the plaintext reference must all produce the
//! same ranking for the same inputs.

use ppgr::bigint::BigUint;
use ppgr::core::sorting::plain_ranks;
use ppgr::core::{unlinkable_sort, PartyTimer};
use ppgr::group::GroupKind;
use ppgr::net::TrafficLog;
use ppgr::smc::sort::ss_group_rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn elgamal_ranks(values: &[u64], l: usize, seed: u64) -> Vec<usize> {
    let group = GroupKind::Ecc160.group();
    let mut rng = StdRng::seed_from_u64(seed);
    let big: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(values.len() + 1);
    unlinkable_sort(&group, &big, l, &mut rng, &log, &mut timer)
        .unwrap()
        .ranks
}

/// SS positional ranks break ties arbitrarily (a sorting network cannot
/// express equality); check it refines the reference: strict orderings
/// must agree, and the rank multiset must be the permutation 1..n.
fn assert_refines(ss: &[usize], reference: &[usize], values: &[u64]) {
    for a in 0..values.len() {
        for b in 0..values.len() {
            if reference[a] < reference[b] {
                assert!(
                    ss[a] < ss[b],
                    "SS broke a strict ordering on {values:?}: {ss:?}"
                );
            }
        }
    }
    let mut sorted = ss.to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, (1..=values.len()).collect::<Vec<_>>(), "{values:?}");
}

#[test]
fn all_three_implementations_agree() {
    let cases: &[&[u64]] = &[
        &[5, 9, 1],
        &[200, 13, 78, 200],
        &[0, 0, 0, 1],
        &[255, 0, 128, 64, 32],
    ];
    for (i, values) in cases.iter().enumerate() {
        let l = 8;
        let reference = plain_ranks(&values.iter().map(|&v| BigUint::from(v)).collect::<Vec<_>>());
        let elgamal = elgamal_ranks(values, l, i as u64);
        let ss = ss_group_rank(values, l, i as u64 + 100).unwrap();
        assert_eq!(
            elgamal, reference,
            "ElGamal protocol vs reference on {values:?}"
        );
        assert_refines(&ss, &reference, values);
    }
}

#[test]
fn random_inputs_agree() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..3 {
        let n = rng.gen_range(3..6);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        let reference = plain_ranks(&values.iter().map(|&v| BigUint::from(v)).collect::<Vec<_>>());
        assert_eq!(elgamal_ranks(&values, 6, trial), reference, "{values:?}");
        let ss = ss_group_rank(&values, 6, trial + 50).unwrap();
        assert_refines(&ss, &reference, &values);
    }
}

#[test]
fn rank_multiset_is_always_valid() {
    // Ranks must be: rank r appears exactly (number of values tied at that
    // level), and r = 1 + number of strictly larger values.
    let values = [7u64, 7, 3, 9, 3, 3];
    let ranks = elgamal_ranks(&values, 5, 5);
    assert_eq!(ranks, vec![2, 2, 4, 1, 4, 4]);
}
