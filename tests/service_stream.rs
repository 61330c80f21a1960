//! Service-level amortization invariant: a stream of ranking sessions
//! submitted through the sharded front door must yield — for every
//! *admitted* session — ranks and wire transcripts bit-identical to solo
//! serial runs of the same parameters, for any shard count, worker count
//! and verify-batch window. Cross-session batching may reorder work,
//! never bytes. Shed sessions fail typed at the door and leave the
//! admitted subset's transcripts untouched.

use ppgr::core::{FrameworkParams, GroupRanking, Outcome, Questionnaire, SortOptions};
use ppgr::group::GroupKind;
use ppgr::service::{AdmitError, Service, ServiceConfig};
use proptest::prelude::*;

fn params_for(n: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(2.min(n))
        .attr_bits(5)
        .weight_bits(2)
        .mask_bits(5)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

/// Solo reference: one machine, one thread, inline verification.
fn solo_run(n: usize, seed: u64) -> Outcome {
    let mut machine = GroupRanking::new(params_for(n, seed))
        .with_random_population()
        .into_machine_with(SortOptions::default())
        .expect("machine");
    while !machine.is_done() {
        machine.step().expect("solo step");
    }
    machine.into_outcome().expect("solo outcome")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole invariant, end to end: arbitrary shard/worker/batch
    /// topology, a burst of concurrent sessions, every admitted outcome
    /// bit-identical (ranks *and* traffic summary) to its solo run.
    #[test]
    fn service_stream_matches_solo_runs(
        n in 2usize..=4,
        base in 0u64..1_000_000,
        shards in 1usize..=3,
        workers in 1usize..=2,
        batch in 0usize..=4,
    ) {
        let service = Service::new(ServiceConfig {
            shards,
            workers_per_shard: workers,
            verify_batch: batch,
            ..ServiceConfig::default()
        });
        let sessions = 5u64;
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                service
                    .submit(i, params_for(n, base.wrapping_add(i)))
                    .expect("unbounded window admits everything")
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let served = handle.join().expect("admitted session completes");
            let solo = solo_run(n, base.wrapping_add(i as u64));
            prop_assert_eq!(served.ranks(), solo.ranks(), "session {}", i);
            prop_assert_eq!(served.traffic(), solo.traffic(), "session {}", i);
        }
        let m = service.metrics();
        prop_assert_eq!(m.sessions_admitted, sessions);
        prop_assert_eq!(m.sessions_completed, sessions);
        prop_assert_eq!(m.sessions_in_flight, 0);
    }

    /// Admission shedding cannot perturb the admitted subset: with a
    /// one-deep window on one shard, some of the burst is shed with a
    /// typed error, and every session that *was* admitted still matches
    /// its solo run byte for byte.
    #[test]
    fn shed_subset_leaves_admitted_transcripts_identical(
        base in 0u64..1_000_000,
        batch in 0usize..=3,
    ) {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            max_in_flight: 1,
            verify_batch: batch,
            ..ServiceConfig::default()
        });
        let sessions = 4u64;
        let mut admitted = Vec::new();
        let mut shed = 0u64;
        for i in 0..sessions {
            match service.submit(i, params_for(3, base.wrapping_add(i))) {
                Ok(handle) => admitted.push((i, handle)),
                Err(err) => {
                    prop_assert!(
                        matches!(err, AdmitError::Saturated { limit: 1, .. }),
                        "unexpected rejection: {:?}", err
                    );
                    shed += 1;
                }
            }
        }
        // A one-deep window in front of a burst of four must shed at least
        // once (the first session cannot resolve before the second submit).
        prop_assert!(shed >= 1, "window never filled");
        for (i, handle) in admitted {
            let served = handle.join().expect("admitted session completes");
            let solo = solo_run(3, base.wrapping_add(i));
            prop_assert_eq!(served.ranks(), solo.ranks(), "session {}", i);
            prop_assert_eq!(served.traffic(), solo.traffic(), "session {}", i);
        }
        let m = service.metrics();
        prop_assert_eq!(m.sessions_rejected_saturated, shed);
        prop_assert_eq!(m.sessions_admitted + shed, sessions);
    }
}
