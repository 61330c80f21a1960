//! Cross-crate property-based tests: protocol outputs must match the
//! plaintext reference on arbitrary inputs.

use ppgr::bigint::BigUint;
use ppgr::core::circuit::{compare_plain, signals_less_than};
use ppgr::core::gain::to_unsigned;
use ppgr::core::sorting::plain_ranks;
use ppgr::core::{unlinkable_sort, PartyTimer};
use ppgr::group::GroupKind;
use ppgr::net::sim::Topology;
use ppgr::net::TrafficLog;
use ppgr::smc::sort::ss_group_rank;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The plaintext comparison circuit is a correct comparator for all
    /// 16-bit pairs.
    #[test]
    fn circuit_matches_comparison(a in 0u64..=0xffff, b in 0u64..=0xffff) {
        let taus = compare_plain(&BigUint::from(a), &BigUint::from(b), 16);
        prop_assert_eq!(signals_less_than(&taus), a < b);
        prop_assert!(taus.iter().filter(|&&t| t == 0).count() <= 1);
    }

    /// Signed→unsigned masking conversion is strictly monotone.
    #[test]
    fn to_unsigned_monotone(a in -1000i128..1000, b in -1000i128..1000) {
        prop_assume!(a < b);
        prop_assert!(to_unsigned(a, 12) < to_unsigned(b, 12));
    }

    /// The SS baseline ranks arbitrary values like the plaintext
    /// reference, up to tie-breaking (a sorting network assigns distinct
    /// positions to equal keys).
    #[test]
    fn ss_ranks_match_reference(values in prop::collection::vec(0u64..256, 2..6), seed in 0u64..1000) {
        let expect = plain_ranks(&values.iter().map(|&v| BigUint::from(v)).collect::<Vec<_>>());
        let got = ss_group_rank(&values, 8, seed).unwrap();
        for a in 0..values.len() {
            for b in 0..values.len() {
                if expect[a] < expect[b] {
                    prop_assert!(got[a] < got[b], "strict order broken: {:?} vs {:?}", got, expect);
                }
            }
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (1..=values.len()).collect::<Vec<_>>());
    }

    /// Random connected topologies route between every pair.
    #[test]
    fn topologies_fully_routable(nodes in 2usize..20, extra in 0usize..10, seed in 0u64..100) {
        let max_edges = nodes * (nodes - 1) / 2;
        let edges = (nodes - 1 + extra).min(max_edges);
        let topo = Topology::random_connected(nodes, edges, seed);
        prop_assert!(topo.is_connected());
        for a in 0..nodes {
            prop_assert!(topo.route(a, (a + 1) % nodes).is_some());
        }
    }
}

proptest! {
    // The ElGamal sorting protocol is expensive; keep the case count low —
    // these are full multi-party cryptographic executions.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn elgamal_sort_matches_reference(values in prop::collection::vec(0u64..32, 2..4), seed in 0u64..50) {
        let group = GroupKind::Ecc160.group();
        let big: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(values.len() + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = unlinkable_sort(&group, &big, 5, &mut rng, &log, &mut timer).unwrap();
        prop_assert_eq!(out.ranks, plain_ranks(&big));
    }
}
