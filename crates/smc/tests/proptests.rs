//! Property-based tests for the secret-sharing baseline.

use ppgr_smc::compare::{cmp_ge, cmp_lt};
use ppgr_smc::cost;
use ppgr_smc::SsEngine;
use proptest::prelude::*;

proptest! {
    // Each case runs a real multi-party comparison — keep counts small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn comparison_matches_integers(a in 0u64..1 << 16, b in 0u64..1 << 16, seed in 0u64..100) {
        let mut e = SsEngine::new(3, 1, seed).unwrap();
        let f = e.field().clone();
        let sa = e.input(&f.from_u64(a));
        let sb = e.input(&f.from_u64(b));
        let ge = cmp_ge(&mut e, &sa, &sb, 16);
        let expect = if a >= b { f.one() } else { f.zero() };
        prop_assert_eq!(e.open(&ge), expect);
    }

    #[test]
    fn lt_is_complement_of_ge(a in 0u64..256, b in 0u64..256, seed in 0u64..100) {
        let mut e = SsEngine::new(3, 1, seed).unwrap();
        let f = e.field().clone();
        let sa = e.input(&f.from_u64(a));
        let sb = e.input(&f.from_u64(b));
        let ge = cmp_ge(&mut e, &sa, &sb, 8);
        let lt = cmp_lt(&mut e, &sa, &sb, 8);
        let sum = e.add(&ge, &lt);
        prop_assert_eq!(e.open(&sum), f.one(), "ge + lt must be exactly 1");
    }

    #[test]
    fn linear_algebra_on_shares(a in any::<u32>(), b in any::<u32>(), c in 1u32..1000, seed in 0u64..100) {
        let mut e = SsEngine::new(5, 2, seed).unwrap();
        let f = e.field().clone();
        let sa = e.input(&f.from_u64(a as u64));
        let sb = e.input(&f.from_u64(b as u64));
        let combo = {
            let scaled = e.mul_public(&sa, &f.from_u64(c as u64));
            e.add(&scaled, &sb)
        };
        prop_assert_eq!(
            e.open(&combo),
            f.from_u64(c as u64 * a as u64 + b as u64)
        );
        // BGW multiplication agrees with integer multiplication.
        let prod = e.mul(&sa, &sb);
        prop_assert_eq!(e.open(&prod), f.from_u64(a as u64 * b as u64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cost-model sanity: every published formula is monotone in its
    /// arguments (a wrong exponent or swapped parameter breaks this).
    #[test]
    fn cost_models_monotone(n in 4usize..100, l in 8usize..100) {
        prop_assert!(cost::no07_mults_per_comparison(l + 1) > cost::no07_mults_per_comparison(l));
        prop_assert!(cost::jonsson_comparisons(2 * n) > cost::jonsson_comparisons(n));
        prop_assert!(cost::ss_sort_int_mults(n + 4, l) > cost::ss_sort_int_mults(n, l));
        prop_assert!(cost::ss_sort_int_mults(n, l + 8) > cost::ss_sort_int_mults(n, l));
        prop_assert!(cost::framework_group_mults(n + 4, l, 160) > cost::framework_group_mults(n, l, 160));
        prop_assert!(cost::ss_sort_rounds(n + 4, l) > cost::ss_sort_rounds(n, l));
    }
}
