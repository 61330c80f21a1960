//! Warm-vs-cold equivalence properties for the offline stock.
//!
//! A session served from the precompute pool must be indistinguishable
//! on the wire from a cold session: identical ranks AND identical
//! traffic transcripts, for arbitrary `(n, seed)`.

use ppgr_core::{
    FrameworkParams, GroupRanking, OfflineStock, Outcome, Questionnaire, SessionMachine, SortError,
    SortMachine, SortOptions, StockFingerprint,
};
use ppgr_group::GroupKind;
use proptest::prelude::*;

fn machine_for(n: usize, seed: u64) -> SessionMachine {
    let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(1)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params");
    GroupRanking::new(params)
        .with_random_population()
        .into_machine()
        .expect("machine")
}

/// The stock a pool mints for `fp`.
fn generate(fp: StockFingerprint) -> OfflineStock {
    OfflineStock::generate(fp, 1, || false).expect("an uncancelled generation completes")
}

fn run(mut machine: SessionMachine) -> Outcome {
    while !machine.is_done() {
        machine.step().expect("session step");
    }
    machine.into_outcome().expect("finished outcome")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn warm_stock_matches_cold_ranks_and_transcripts(n in 2usize..5, seed in 0u64..10_000) {
        let cold = run(machine_for(n, seed));

        let mut warm = machine_for(n, seed);
        let stock = generate(warm.offline_fingerprint());
        prop_assert!(warm.attach_offline_stock(stock), "pool stock must attach");
        let warm = run(warm);

        // Ranks agree and the wire transcripts are bit-identical: the
        // stock changes where the exponentiations happen, never what is
        // sent.
        prop_assert_eq!(cold.ranks(), warm.ranks());
        prop_assert_eq!(cold.traffic(), warm.traffic());
    }
}

#[test]
fn wrong_group_stock_is_rejected_with_a_typed_error() {
    // A stock minted for a different group instantiation, handed straight
    // to a sorting machine, must surface as `StockGroupMismatch`.
    let group = GroupKind::Ecc160.group();
    let values: Vec<_> = [3u64, 1, 2]
        .iter()
        .map(|&v| ppgr_bigint::BigUint::from(v))
        .collect();
    let stock = generate(StockFingerprint::new(9, 3, 6, GroupKind::Ecc224));
    match SortMachine::new(&group, &values, 6, SortOptions::default(), stock) {
        Err(SortError::StockGroupMismatch { expected, got }) => {
            assert_eq!(expected, GroupKind::Ecc160);
            assert_eq!(got, GroupKind::Ecc224);
        }
        other => panic!("expected StockGroupMismatch, got {other:?}"),
    }
}

#[test]
fn matching_group_but_wrong_shape_is_still_an_internal_error() {
    // The group check is the typed front door; shape mismatches within
    // the right group keep their internal-error path.
    let group = GroupKind::Ecc160.group();
    let values: Vec<_> = [3u64, 1, 2]
        .iter()
        .map(|&v| ppgr_bigint::BigUint::from(v))
        .collect();
    // Right group, wrong participant count, then wrong bit length.
    for (n, l) in [(4, 6), (3, 7)] {
        let stock = generate(StockFingerprint::new(9, n, l, GroupKind::Ecc160));
        assert!(matches!(
            SortMachine::new(&group, &values, 6, SortOptions::default(), stock),
            Err(SortError::Internal(_))
        ));
    }
}
