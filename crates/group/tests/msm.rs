//! Multi-exponentiation correctness: `multi_exp` must agree with the
//! naive per-term fold on both group families, including the degenerate
//! shapes the engine special-cases (empty input, zero scalars, identity
//! bases, duplicate bases) and inputs large enough to cross the
//! Straus→Pippenger switchover.

use ppgr_group::{Element, Group, GroupError, GroupKind, Scalar};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reference evaluation: one exponentiation per term, folded with
/// the group operation. The powers come from `exp_batch`, whose ladder
/// (signed digits on curves) is not the engine's, so the engine is never
/// its own reference.
fn naive_fold(g: &Group, pairs: &[(&Element, &Scalar)]) -> Element {
    g.exp_batch(pairs)
        .iter()
        .fold(g.identity(), |acc, p| g.op(&acc, p))
}

/// Builds a pseudorandom instance with the requested degenerate shapes
/// mixed in: scalar 0, the identity element, and a duplicated base.
fn instance(g: &Group, n: usize, seed: u64) -> (Vec<Element>, Vec<Scalar>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bases: Vec<Element> = Vec::with_capacity(n);
    let mut scalars: Vec<Scalar> = Vec::with_capacity(n);
    for i in 0..n {
        let base = match i % 7 {
            0 if i > 0 => bases[i - 1].clone(), // duplicate base
            3 => g.identity(),
            _ => g.exp_gen(&g.random_scalar(&mut rng)),
        };
        let scalar = match i % 5 {
            2 => g.scalar_from_u64(0),
            4 => g.scalar_from_u64(1),
            _ => g.random_scalar(&mut rng),
        };
        bases.push(base);
        scalars.push(scalar);
    }
    (bases, scalars)
}

fn check_multi_exp(kind: GroupKind, n: usize, seed: u64) {
    let g = kind.group();
    let (bases, scalars) = instance(&g, n, seed);
    let pairs: Vec<(&Element, &Scalar)> = bases.iter().zip(&scalars).collect();
    assert_eq!(
        g.multi_exp(&pairs),
        naive_fold(&g, &pairs),
        "{kind:?} n={n} seed={seed}"
    );
}

#[test]
fn multi_exp_empty_input_is_identity() {
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let g = kind.group();
        assert!(g.is_identity(&g.multi_exp(&[])));
    }
}

#[test]
fn multi_exp_all_zero_scalars_is_identity() {
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let g = kind.group();
        let (bases, _) = instance(&g, 6, 7);
        let zero = g.scalar_from_u64(0);
        let pairs: Vec<(&Element, &Scalar)> = bases.iter().map(|b| (b, &zero)).collect();
        assert!(g.is_identity(&g.multi_exp(&pairs)));
    }
}

#[test]
fn multi_exp_rejects_cross_family_elements() {
    let ec = GroupKind::Ecc160.group();
    let dl = GroupKind::Dl1024.group();
    let foreign = dl.generator().clone();
    let s = ec.scalar_from_u64(3);
    assert!(matches!(
        ec.try_multi_exp(&[(&foreign, &s)]),
        Err(GroupError::FamilyMismatch { .. })
    ));
}

#[test]
fn multi_exp_large_input_crosses_into_pippenger() {
    // 96 terms is far past the Straus/Pippenger switchover on both
    // families; correctness here exercises the bucket path end to end.
    check_multi_exp(GroupKind::Ecc160, 96, 11);
    check_multi_exp(GroupKind::Dl1024, 96, 13);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn multi_exp_matches_naive_fold_ecc(n in 1usize..24, seed in 0u64..1000) {
        check_multi_exp(GroupKind::Ecc160, n, seed);
    }

    #[test]
    fn multi_exp_matches_naive_fold_dl(n in 1usize..12, seed in 0u64..1000) {
        check_multi_exp(GroupKind::Dl1024, n, seed);
    }
}
