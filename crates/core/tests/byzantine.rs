//! Active-adversary scripting against the distributed runner: a scripted
//! misbehaving party (corrupted bytes, bad proofs, equivocation,
//! inconsistent shuffles, forged or replayed abort frames) must always be
//! the party blamed — never an honest intermediary — and every honest
//! survivor must exit within one phase deadline.
//!
//! The culprit's *thread* always runs honest code; its `FaultyMesh`
//! rewrites outgoing bytes (`tamper`/`equivocate`) or injects forged
//! frames at phase entry (`forge`). This mirrors a compromised process
//! whose protocol stack is hostile while the rest of the fleet is honest.

use ppgr_core::wire::{AbortFrame, AbortKind, TAG_DATA};
use ppgr_core::{
    run_distributed, run_distributed_with, DistributedConfig, DistributedError, DistributedFailure,
    FrameworkParams, Questionnaire,
};
use ppgr_group::GroupKind;
use ppgr_hash::HashDrbg;
use ppgr_net::{FaultPlan, Phase, PhaseBudget, Tamper};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Initiator + 3 participants: enough that every failure has an honest
/// *bystander* (a party with no first-hand evidence, fed only hearsay),
/// which is exactly where wrong blame propagation would show up.
fn params(seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(3)
        .top_k(1)
        .attr_bits(5)
        .weight_bits(3)
        .mask_bits(5)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .unwrap()
}

fn run_with_plan(plan: FaultPlan, seed: u64) -> DistributedFailure {
    let p = params(seed);
    let mut rng = HashDrbg::seed_from_u64(p.seed());
    let (profile, infos) = p.random_population(&mut rng);
    let config = DistributedConfig {
        budget: PhaseBudget::uniform(Duration::from_secs(5)),
        faults: Some(Arc::new(plan)),
    };
    let started = Instant::now();
    let failure = run_distributed_with(&p, profile, infos, config)
        .expect_err("a scripted misbehavior must fail the session");
    // Liveness: misbehavior is detected by inspection or by a poison
    // frame, never by waiting a 5-second deadline out — every thread
    // (culprit's included) must be joined well within one phase budget.
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "survivors took {:?} to exit",
        started.elapsed()
    );
    failure
}

/// Every *honest* observer blames the culprit — either directly
/// (`blamed()` names it) or through hearsay whose original accuser is the
/// culprit itself (a forged frame carries the forger in `reporter`). The
/// culprit's own thread runs honest code and may rightly dispute being
/// framed, so it is exempt; the consensus primary must still pin the
/// culprit.
fn assert_culprit_blamed(failure: &DistributedFailure, culprit: usize) {
    assert_eq!(
        failure.primary.blamed(),
        culprit,
        "consensus primary was {} (expected blame on {culprit})",
        failure.primary
    );
    assert!(!failure.observations.is_empty());
    for (observer, error) in &failure.observations {
        if *observer == culprit {
            continue;
        }
        let ok = error.blamed() == culprit
            || matches!(error, DistributedError::Reported { reporter, .. } if *reporter == culprit);
        assert!(
            ok,
            "party {observer} observed \"{error}\" — neither blames {culprit} nor traces to its forged frame"
        );
    }
}

/// At least one honest observer held first-hand evidence (not hearsay,
/// not a refuted accusation) against the culprit.
fn assert_direct_evidence(failure: &DistributedFailure, culprit: usize) {
    assert!(
        failure.observations.iter().any(|(observer, e)| {
            *observer != culprit
                && matches!(
                    e,
                    DistributedError::Protocol { party, .. } if *party == culprit
                )
        }),
        "no honest party held first-hand evidence against {culprit}: {:?}",
        failure.observations
    );
}

// ---- Corrupted ciphertext / message bytes, one phase at a time. --------

#[test]
fn corrupt_gain_message_blames_the_sender() {
    // Trailing garbage on P3's dot-product message: the initiator's
    // `done()` check counts the unconsumed byte and blames P3. (P3 goes
    // last in the initiator's service order, so no honest party still has
    // an in-flight send to the initiator when it aborts.)
    let plan = FaultPlan::new().tamper(3, Phase::Gain, 0, Tamper::Append(vec![0xAB]));
    let failure = run_with_plan(plan, 900);
    assert_culprit_blamed(&failure, 3);
    assert_direct_evidence(&failure, 3);
}

#[test]
fn misshaped_gain_message_blames_the_sender() {
    // P3's dot-product message decodes cleanly but carries zero rows and
    // empty vectors — a shape no honest sender produces. The initiator
    // must reject it as P3's protocol violation before answering it.
    let mut payload = vec![TAG_DATA];
    payload.extend_from_slice(&[0u8; 12]);
    let plan = FaultPlan::new().equivocate(3, 0, Phase::Gain, 0, Tamper::Replace(payload));
    let failure = run_with_plan(plan, 914);
    assert_culprit_blamed(&failure, 3);
    assert_direct_evidence(&failure, 3);
}

#[test]
fn tampered_initiator_reply_blames_the_initiator() {
    // The last byte of the initiator's `a` flips on its reply to P1: the
    // masked gain P1 recovers is garbage. That is the initiator's fault,
    // not P1's, and P1 holds the evidence first-hand.
    let plan = FaultPlan::new().equivocate(
        0,
        1,
        Phase::Gain,
        0,
        Tamper::FlipByte {
            offset: 32,
            mask: 0x01,
        },
    );
    let failure = run_with_plan(plan, 915);
    assert_culprit_blamed(&failure, 0);
    assert!(
        failure
            .observations
            .iter()
            .any(|(o, e)| *o == 1 && matches!(e, DistributedError::Protocol { party: 0, .. })),
        "P1 must hold first-hand evidence against the initiator: {:?}",
        failure.observations
    );
}

// ---- The initiator's checks on each submission (phase 3). -------------

/// A data frame carrying `rank` and then, for a submission, the count and
/// the values — the layout of a submission or (rank 0) a decline.
fn submission_frame(rank: u64, values: &[u64]) -> Vec<u8> {
    let mut frame = vec![TAG_DATA];
    frame.extend_from_slice(&rank.to_be_bytes());
    if !values.is_empty() {
        frame.extend_from_slice(&(values.len() as u32).to_be_bytes());
        for v in values {
            frame.extend_from_slice(&v.to_be_bytes());
        }
    }
    frame
}

#[test]
fn submission_claiming_a_rank_beyond_n_blames_the_submitter() {
    // P2 claims rank 9 of 3: no participant can hold it, so the initiator
    // rejects the frame as P2's protocol violation before verification.
    let plan = FaultPlan::new().tamper(
        2,
        Phase::Submit,
        0,
        Tamper::Replace(submission_frame(9, &[])),
    );
    let failure = run_with_plan(plan, 916);
    assert_culprit_blamed(&failure, 2);
    assert_direct_evidence(&failure, 2);
}

#[test]
fn padded_submission_blames_the_submitter() {
    // One byte trails P3's submission (or decline): the frame does not
    // decode, and the initiator blames its sender.
    let plan = FaultPlan::new().tamper(3, Phase::Submit, 0, Tamper::Append(vec![0x00]));
    let failure = run_with_plan(plan, 917);
    assert_culprit_blamed(&failure, 3);
    assert_direct_evidence(&failure, 3);
}

#[test]
fn submission_with_an_over_wide_value_blames_the_submitter() {
    // P1 submits rank 1 with a value of 1000 where attributes are 5 bits
    // wide: the vector is not one a participant can hold.
    let frame = submission_frame(1, &[1, 1000, 2]);
    let plan = FaultPlan::new().tamper(1, Phase::Submit, 0, Tamper::Replace(frame));
    let failure = run_with_plan(plan, 918);
    assert_culprit_blamed(&failure, 1);
    assert_direct_evidence(&failure, 1);
}

#[test]
fn corrupt_encrypt_broadcast_blames_the_sender_on_every_lane() {
    // P2's encrypted bit vector is truncated mid-ciphertext on *every*
    // lane. Which receivers read the bad bytes first-hand depends on
    // scheduling: a receiver whose own broadcast first hits the lane of a
    // peer that already aborted adopts that peer's queued abort frame
    // (its last words) before reading P2's bytes. The guarantee is that
    // someone holds first-hand evidence and every other honest party
    // adopted exactly such a party's accusation.
    let plan = FaultPlan::new().tamper(2, Phase::Encrypt, 0, Tamper::Truncate(6));
    let failure = run_with_plan(plan, 901);
    assert_culprit_blamed(&failure, 2);
    let first_hand = |party: usize| {
        failure
            .observations
            .iter()
            .any(|(o, e)| *o == party && matches!(e, DistributedError::Protocol { party: 2, .. }))
    };
    assert!(
        failure.observations.iter().any(|(o, _)| first_hand(*o)),
        "no receiver caught the corruption first-hand: {:?}",
        failure.observations
    );
    for (observer, error) in failure.observations.iter().filter(|(o, _)| *o != 2) {
        let ok = match error {
            DistributedError::Protocol { party: 2, .. } => true,
            DistributedError::Reported {
                party: 2, reporter, ..
            } => first_hand(*reporter),
            _ => false,
        };
        assert!(
            ok,
            "party {observer} observed \"{error}\", neither first-hand evidence nor a first-hand accuser's frame"
        );
    }
}

#[test]
fn corrupt_hop_chain_blames_the_immediate_sender() {
    // P2 corrupts the shuffle-chain vector it forwards to P3. Every hop
    // re-encodes what it forwards, so bad bytes always implicate the
    // immediate sender — P1's honest upstream work must not be blamed.
    let plan = FaultPlan::new().equivocate(2, 3, Phase::Hop, 0, Tamper::Append(vec![0xFF]));
    let failure = run_with_plan(plan, 902);
    assert_culprit_blamed(&failure, 2);
    assert_direct_evidence(&failure, 2);
}

// ---- Invalid / forged Schnorr proofs at keygen. ------------------------

#[test]
fn flipped_proof_response_is_rejected_and_blamed() {
    // One bit of P2's Schnorr response flips in flight (all lanes). The
    // batch verifier's fallback scan must name P2, and consensus must
    // prefer that first-hand rejection over anything else.
    // P2's per-lane KeyGen sequence: pk(0), share(1), echo(2),
    // commitment(3), response(4).
    let plan = FaultPlan::new().tamper(
        2,
        Phase::KeyGen,
        4,
        Tamper::FlipByte {
            offset: 12,
            mask: 0x10,
        },
    );
    let failure = run_with_plan(plan, 903);
    assert_culprit_blamed(&failure, 2);
    assert!(
        failure
            .observations
            .iter()
            .any(|(o, e)| { *o != 2 && matches!(e, DistributedError::ProofRejected { party: 2 }) }),
        "a verifier must hold a first-hand proof rejection: {:?}",
        failure.observations
    );
    assert!(matches!(
        failure.primary,
        DistributedError::ProofRejected { party: 2 }
    ));
}

#[test]
fn forged_proof_response_is_rejected_and_blamed() {
    // P2's response is wholesale replaced with a well-formed, in-range,
    // deterministic scalar lifted from nowhere — exactly the bytes an
    // honest message carries, wrong only algebraically. Verification is
    // the only line of defense and must hold.
    let group = GroupKind::Ecc160.group();
    let mut payload = vec![TAG_DATA];
    payload.extend_from_slice(&ppgr_zkp::tamper::forged_response_bytes(&group, 42));
    let plan = FaultPlan::new().tamper(2, Phase::KeyGen, 4, Tamper::Replace(payload));
    let failure = run_with_plan(plan, 904);
    assert_culprit_blamed(&failure, 2);
    assert!(matches!(
        failure.primary,
        DistributedError::ProofRejected { party: 2 }
    ));
}

// ---- Equivocating broadcasts (per-lane rewrites). ----------------------

#[test]
fn equivocated_keygen_share_is_caught_by_the_echo() {
    // P3 sends the prover (P1) a different challenge share than it
    // broadcasts to everyone else. Without the echo round this would
    // break P1's proof and get *P1* blamed; with it, P1 compares the
    // share against P3's own broadcast digest and blames P3 first-hand.
    // P3's per-lane KeyGen sequence: pk(0), share(1), echo(2), ...
    let plan = FaultPlan::new().equivocate(
        3,
        1,
        Phase::KeyGen,
        1,
        Tamper::FlipByte {
            offset: 10,
            mask: 0x02,
        },
    );
    let failure = run_with_plan(plan, 905);
    assert_culprit_blamed(&failure, 3);
    assert_direct_evidence(&failure, 3);
    // The prover (the equivocation's victim) must never be blamed.
    for (observer, error) in &failure.observations {
        if *observer == 3 {
            continue; // the culprit's own thread disputes the frame
        }
        assert_ne!(
            error.blamed(),
            1,
            "honest prover blamed by {observer}: {error}"
        );
    }
}

#[test]
fn equivocated_encrypt_broadcast_blames_the_sender() {
    // P1's bit vector grows trailing garbage on the lane to P3 only; P2
    // sees clean bytes and learns the truth via P3's abort frame.
    let plan = FaultPlan::new().equivocate(1, 3, Phase::Encrypt, 0, Tamper::Append(vec![0x00]));
    let failure = run_with_plan(plan, 906);
    assert_culprit_blamed(&failure, 1);
    assert_direct_evidence(&failure, 1);
}

// ---- Inconsistent shuffles (duplicated ciphertexts). -------------------

#[test]
fn duplicated_ciphertext_in_hop_chain_is_caught() {
    // P2 duplicates the first ciphertext of P1's set over the second
    // while forwarding the chain to P3 — an inconsistent shuffle that
    // would bias the zero count. Honest processors re-randomize every
    // element, so a repeat is impossible by chance and P3 blames P2.
    let group = GroupKind::Ecc160.group();
    let ct_len = 2 * group.element_len();
    // Chain frame: tag(1) | set count u32(4) | set0: len u32(4) | cts...
    let first_ct = 1 + 4 + 4;
    let plan = FaultPlan::new().equivocate(
        2,
        3,
        Phase::Hop,
        0,
        Tamper::CopyWithin {
            src: first_ct,
            dst: first_ct + ct_len,
            len: ct_len,
        },
    );
    let failure = run_with_plan(plan, 907);
    assert_culprit_blamed(&failure, 2);
    assert_direct_evidence(&failure, 2);
}

#[test]
fn duplicated_ciphertext_in_encrypt_broadcast_is_caught() {
    // Same corruption one phase earlier: P3's published bit vector
    // repeats a ciphertext on every lane; both receivers catch it.
    let group = GroupKind::Ecc160.group();
    let ct_len = 2 * group.element_len();
    let first_ct = 1 + 4; // tag(1) | count u32(4) | cts...
    let plan = FaultPlan::new().tamper(
        3,
        Phase::Encrypt,
        0,
        Tamper::CopyWithin {
            src: first_ct,
            dst: first_ct + ct_len,
            len: ct_len,
        },
    );
    let failure = run_with_plan(plan, 908);
    assert_culprit_blamed(&failure, 3);
    assert_direct_evidence(&failure, 3);
}

// ---- Forged and replayed abort frames. ---------------------------------

fn forged_frame(blamed: usize, phase: Phase, kind: AbortKind, reporter: usize) -> Vec<u8> {
    AbortFrame {
        blamed,
        phase,
        kind,
        reporter,
    }
    .encode()
    .to_vec()
}

#[test]
fn forged_abort_frame_blames_the_forger_not_the_framed_party() {
    // P3 injects a frame accusing honest P1 of a timeout. P1 is alive to
    // read it, refutes it, and names the frame's claimed reporter — the
    // forger. Bystanders hold hearsay whose `reporter` is the forger, so
    // consensus must land on P3 even though nobody saw bad bytes.
    let plan = FaultPlan::new().forge(
        3,
        Phase::Encrypt,
        forged_frame(1, Phase::Encrypt, AbortKind::Timeout, 3),
    );
    let failure = run_with_plan(plan, 909);
    assert_culprit_blamed(&failure, 3);
    assert!(
        matches!(
            failure.primary,
            DistributedError::FalselyAccused { party: 3, .. }
        ),
        "the framed party's refutation must win consensus: {}",
        failure.primary
    );
}

#[test]
fn replayed_stale_abort_frame_blames_the_replayer() {
    // P2 replays a frame that looks like a long-past failure: it accuses
    // P3 of a Gain-phase disconnect during the Hop phase. The accused is
    // demonstrably alive, so the stale frame converts to a refutation
    // naming its reporter — the replayer.
    let plan = FaultPlan::new().forge(
        2,
        Phase::Hop,
        forged_frame(3, Phase::Gain, AbortKind::Disconnected, 2),
    );
    let failure = run_with_plan(plan, 910);
    assert_culprit_blamed(&failure, 2);
    assert!(matches!(
        failure.primary,
        DistributedError::FalselyAccused { party: 2, .. }
    ));
}

#[test]
fn second_forged_frame_cannot_overwrite_the_first() {
    // P3 injects two contradictory frames in the same phase. The
    // seen-abort latch must keep every receiver's exit derived from the
    // *first* frame: P2 (framed by the second) must exit as a hearsay
    // observer of the first accusation, not as a falsely-accused party.
    let plan = FaultPlan::new()
        .forge(
            3,
            Phase::Encrypt,
            forged_frame(1, Phase::Encrypt, AbortKind::Disconnected, 3),
        )
        .forge(
            3,
            Phase::Encrypt,
            forged_frame(2, Phase::Encrypt, AbortKind::Disconnected, 3),
        );
    let failure = run_with_plan(plan, 911);
    assert_culprit_blamed(&failure, 3);
    let p2 = failure
        .observations
        .iter()
        .find(|(o, _)| *o == 2)
        .map(|(_, e)| e)
        .expect("P2 must report an observation");
    assert!(
        matches!(
            p2,
            DistributedError::Reported {
                party: 1,
                reporter: 3,
                ..
            }
        ),
        "P2 must derive its exit from the first frame, got: {p2}"
    );
}

#[test]
fn self_accusing_forged_frame_blames_the_delivering_lane() {
    // A frame whose reporter accuses itself cannot come from honest code
    // (fail() never blames its own author). Receivers bin it as a
    // protocol violation by whoever delivered it — here the forger's own
    // lane, so the forger is blamed with first-hand evidence everywhere.
    let plan = FaultPlan::new().forge(
        1,
        Phase::Encrypt,
        forged_frame(1, Phase::Encrypt, AbortKind::Timeout, 1),
    );
    let failure = run_with_plan(plan, 912);
    assert_culprit_blamed(&failure, 1);
    assert_direct_evidence(&failure, 1);
    assert!(matches!(
        failure.primary,
        DistributedError::Protocol { party: 1, .. }
    ));
}

// ---- Fault-free plans must not perturb anything. -----------------------

#[test]
fn empty_plan_with_misbehavior_machinery_matches_the_default_runner() {
    // The misbehavior tier (tamper hooks, echo round, integrity checks)
    // must consume no randomness and change no bytes on the honest path:
    // a session run under an empty plan is bit-identical to the default
    // runner.
    let p = params(913);
    let mut rng = HashDrbg::seed_from_u64(p.seed());
    let (profile, infos) = p.random_population(&mut rng);
    let plain = run_distributed(&p, profile.clone(), infos.clone()).unwrap();
    let scripted = run_distributed_with(
        &p,
        profile,
        infos,
        DistributedConfig {
            budget: PhaseBudget::uniform(Duration::from_secs(30)),
            faults: Some(Arc::new(FaultPlan::new())),
        },
    )
    .unwrap();
    assert_eq!(plain.ranks, scripted.ranks);
    assert!(scripted.report.is_clean());
}
