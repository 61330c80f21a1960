//! Offline/online split properties: a session served from a precomputed
//! offline stock must be bit-identical — ranks *and* wire transcript — to
//! the same session generating its stock inline, for any worker count,
//! whether the stock is attached by hand or drawn from the runtime's
//! background precompute pool.

use ppgr::core::{
    FrameworkParams, GroupRanking, OfflineStock, Outcome, Questionnaire, SortOptions,
};
use ppgr::group::GroupKind;
use ppgr::runtime::{PrecomputeConfig, Runtime, RuntimeConfig};
use proptest::prelude::*;

fn params_for(n: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(1)
        .attr_bits(5)
        .weight_bits(2)
        .mask_bits(5)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

/// Cold reference: the Offline phase generates the stock inline.
fn cold_run(n: usize, seed: u64, workers: usize) -> Outcome {
    let options = SortOptions {
        threads: workers,
        ..SortOptions::default()
    };
    let mut machine = GroupRanking::new(params_for(n, seed))
        .with_random_population()
        .into_machine_with(options)
        .expect("machine");
    while !machine.is_done() {
        machine.step().expect("cold step");
    }
    machine.into_outcome().expect("cold outcome")
}

/// Warm run: the stock is generated up front (the pool's refill path) and
/// attached before the first step.
fn warm_run(n: usize, seed: u64, workers: usize) -> Outcome {
    let options = SortOptions {
        threads: workers,
        ..SortOptions::default()
    };
    let mut machine = GroupRanking::new(params_for(n, seed))
        .with_random_population()
        .into_machine_with(options)
        .expect("machine");
    let stock = OfflineStock::generate(machine.offline_fingerprint(), 1, || false)
        .expect("an uncancelled generation completes");
    assert!(
        machine.attach_offline_stock(stock),
        "stock minted from the machine's own fingerprint must attach"
    );
    while !machine.is_done() {
        machine.step().expect("warm step");
    }
    machine.into_outcome().expect("warm outcome")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm == cold for arbitrary group size, seed, and per-party worker
    /// count: same ranks, same wire transcript (the traffic summary counts
    /// every message and byte, so any divergence in what crosses the wire
    /// shows up here).
    #[test]
    fn warm_stock_matches_cold_inline_generation(
        n in 2usize..=4,
        seed in 0u64..1_000_000,
        workers in 1usize..=3,
    ) {
        let cold = cold_run(n, seed, 1);
        let warm = warm_run(n, seed, workers);
        prop_assert_eq!(cold.ranks(), warm.ranks());
        prop_assert_eq!(cold.traffic(), warm.traffic());
    }

    /// A pool-served session equals the solo cold run of the same derived
    /// seed, for any runtime worker count — whether the lane was already
    /// stocked (warm hit) or the machine fell back to inline generation
    /// (cold miss) must be unobservable in the outcome.
    #[test]
    fn pool_served_sessions_match_solo_runs(
        n in 2usize..=3,
        base in 0u64..1_000_000,
        workers in 1usize..=3,
    ) {
        let runtime = Runtime::new(RuntimeConfig {
            workers,
            session_budget: None,
            verify_batch: 0,
            precompute: PrecomputeConfig { depth: 2, refill_workers: 1 },
        });
        let gid = runtime.register_group(params_for(n, base));
        let handles: Vec<_> = (0..2).map(|_| runtime.submit_group(gid)).collect();
        for (k, handle) in handles.into_iter().enumerate() {
            let pooled = handle.join().expect("pooled run");
            let solo = cold_run(n, base.wrapping_add(k as u64), 1);
            prop_assert_eq!(pooled.ranks(), solo.ranks(), "session {}", k);
            prop_assert_eq!(pooled.traffic(), solo.traffic(), "session {}", k);
        }
    }
}

/// Dropping the runtime while refill lanes are mid-generation must cancel
/// the in-progress stocks and return promptly instead of finishing them —
/// the test fails by hanging if cancellation regresses.
#[test]
fn runtime_drop_cancels_in_progress_refills() {
    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        session_budget: None,
        verify_batch: 0,
        precompute: PrecomputeConfig {
            depth: 4,
            refill_workers: 2,
        },
    });
    // Deep lanes of a large group: the refill workers are guaranteed to be
    // inside `OfflineStock::generate` when the drop lands.
    for i in 0..4u64 {
        let _ = runtime.register_group(params_for(8, 10_000 * (i + 1)));
    }
    drop(runtime);
}
