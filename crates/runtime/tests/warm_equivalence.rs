//! Pool-served sessions are transcript-identical to solo cold runs for
//! arbitrary `(n, seed, workers)`.
//!
//! The precompute lanes mint the whole stock (joint keys, Schnorr proofs,
//! both mask halves), so this pins the strongest claim: a warm session
//! stepped by any number of pool workers produces the same ranks and the
//! same wire traffic as the serial cold run.

use ppgr_core::{FrameworkParams, GroupRanking, Questionnaire};
use ppgr_group::GroupKind;
use ppgr_runtime::{PrecomputeConfig, Runtime, RuntimeConfig};
use proptest::prelude::*;

fn small_params(n: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(1)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn warm_keygen_pool_sessions_match_cold_solo_runs(
        n in 2usize..5,
        seed in 0u64..10_000,
        workers in 1usize..4,
    ) {
        let rt = Runtime::new(RuntimeConfig {
            workers,
            precompute: PrecomputeConfig {
                depth: 1,
                refill_workers: 1,
            },
            ..RuntimeConfig::default()
        });
        let gid = rt.register_group(small_params(n, seed));
        // Wait for the lane so the session definitely starts warm.
        while rt.precomputed(gid) == 0 {
            std::thread::yield_now();
        }
        let pooled = rt.submit_group(gid).join().expect("pooled outcome");
        let solo = GroupRanking::new(small_params(n, seed))
            .with_random_population()
            .run()
            .expect("solo outcome");
        prop_assert_eq!(pooled.ranks(), solo.ranks());
        prop_assert_eq!(pooled.traffic(), solo.traffic());
    }
}
