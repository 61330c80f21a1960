//! The traffic log is the paper's wire model (`WireModel`): an in-memory
//! session logs exactly the model's messages for its accepted submitters,
//! rounds included, each of its steps logs only its own unit's share, in
//! order, and a phase-2 run logs the model's phase 2.

use ppgr::bigint::BigUint;
use ppgr::core::analysis::{TrafficRecord, WireModel};
use ppgr::core::sorting::{run_sort, SortOptions};
use ppgr::core::{FrameworkParams, GroupRanking, PartyTimer, Questionnaire, SessionStatus};
use ppgr::group::GroupKind;
use ppgr::net::TrafficLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KINDS: [GroupKind; 2] = [GroupKind::Ecc160, GroupKind::Dl1024];

/// The records each of a session's `2n + 7` steps logs by the model: none
/// for the offline step and the unblinding, one participant's share of
/// steps 7 and 8 per step, and the whole of every other step.
fn per_step(model: &WireModel, n: usize, submitters: &[usize]) -> Vec<Vec<TrafficRecord>> {
    let whole = |step| model.step(step, submitters);
    let one = |step, i| -> Vec<_> { whole(step).into_iter().filter(|r| r.from == i).collect() };
    let mut steps = vec![Vec::new(), whole(3), Vec::new(), whole(5), whole(6)];
    steps.extend((1..=n).map(|i| one(7, i)));
    steps.extend((1..=n).map(|i| one(8, i)));
    steps.extend([whole(9), whole(10)]);
    steps
}

#[test]
fn sessions_log_the_wire_model() {
    for kind in KINDS {
        for (greater, equal) in [(1, 2), (3, 1)] {
            for n in 2..=6 {
                let label = format!("{kind} synthetic({greater}, {equal}) n = {n}");
                let q = Questionnaire::synthetic(greater, equal);
                let (m, t) = (q.dimension(), q.equal_to_count());
                let params = FrameworkParams::builder(q)
                    .participants(n)
                    .top_k(2)
                    .attr_bits(6)
                    .weight_bits(3)
                    .mask_bits(6)
                    .group(kind)
                    .seed(n as u64)
                    .build()
                    .expect("valid params");
                let model = WireModel::session(kind, n, params.beta_bits(), m, t);
                let ranking = GroupRanking::new(params).with_random_population();
                let log = ranking.traffic_log();
                let mut machine = ranking.into_machine().expect("population");
                let mut logged = Vec::new();
                loop {
                    let seen = log.records().len();
                    let status = machine.step().expect("fault-free session");
                    logged.push(log.records().split_off(seen));
                    if status == SessionStatus::Done {
                        break;
                    }
                }
                let outcome = machine.into_outcome().expect("finished");
                let mut submitters: Vec<usize> =
                    outcome.top_k().iter().map(|a| a.submission.party).collect();
                submitters.sort_unstable();
                assert_eq!(log.records(), model.records(&submitters), "{label}");
                assert_eq!(logged, per_step(&model, n, &submitters), "{label}");
                assert_eq!(outcome.traffic().rounds, model.rounds(), "{label}");
            }
        }
    }
}

#[test]
fn phase_two_runs_log_the_wire_model() {
    for kind in KINDS {
        for n in 2..=6 {
            let l = 4;
            let values: Vec<BigUint> = (0..n as u64).map(|v| BigUint::from(v * 5 % 16)).collect();
            let log = TrafficLog::new();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut timer = PartyTimer::new(n + 1);
            let options = SortOptions::default();
            run_sort(
                &kind.group(),
                &values,
                l,
                options,
                &mut rng,
                &log,
                &mut timer,
            )
            .expect("valid run");
            let model = WireModel::sort(kind, n, l);
            assert_eq!(model.rounds() as usize, n + 6);
            assert_eq!(log.records(), model.records(&[]), "{kind} n = {n}");
            assert_eq!(log.summary().rounds, model.rounds(), "{kind} n = {n}");
        }
    }
}
