//! Golden transcript digests for the sorting machine and for whole
//! sessions.
//!
//! Each sorting digest is SHA-256 over a run's ranks and the encoding of
//! every ciphertext returned to its owner after the whole shuffle-decrypt
//! chain. Ranks alone cannot catch a change in *how* the chain computes —
//! a different hop kernel, stock layout or shuffle would still rank
//! correctly — so these digests pin the bytes themselves across commits.
//!
//! Two entry points are covered per group: a machine built on the stock
//! `OfflineStock::generate` mints for the session's fingerprint, and
//! `run_sort`, which draws the session seed from its RNG and generates
//! that stock itself, so its digest also pins the seed draw. Every digest
//! must be independent of the worker count.
//!
//! A session digest pins phases 1 and 3 around them: the masked gains,
//! the ranks, every submission the initiator accepted and every traffic
//! record but its round.
//!
//! Any intended change to the protocol's bytes re-pins the constants
//! below, deliberately and in the same change.

use ppgr::bigint::BigUint;
use ppgr::core::sorting::{run_sort, SortMachine, SortOptions, SortOutcome, SortStatus, SortTrace};
use ppgr::core::{
    FrameworkParams, GroupRanking, OfflineStock, PartyTimer, Questionnaire, StockFingerprint,
};
use ppgr::group::{Group, GroupKind};
use ppgr::hash::{to_hex, Sha256};
use ppgr::net::TrafficLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Digests a run's ranks and returned sets.
fn digest(group: &Group, outcome: &SortOutcome, trace: &SortTrace) -> String {
    let mut h = Sha256::new();
    for rank in &outcome.ranks {
        h.update(&(*rank as u64).to_be_bytes());
    }
    for set in &trace.returned_sets {
        for ct in set {
            h.update(&ct.encode(group));
        }
    }
    to_hex(&h.finalize())
}

/// Steps a machine built on the fingerprint's stock to completion.
fn machine_digest(
    kind: GroupKind,
    values: &[BigUint],
    l: usize,
    seed: u64,
    threads: usize,
) -> String {
    let group = kind.group();
    let options = SortOptions { threads };
    let fp = StockFingerprint::new(seed, values.len(), l, kind);
    let stock = OfflineStock::generate(fp, threads, || false).expect("uncancelled generation");
    let mut machine = SortMachine::new(&group, values, l, options, stock).expect("valid session");
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(values.len() + 1);
    while machine.step(&log, &mut timer).expect("step") == SortStatus::Pending {}
    let (outcome, trace) = machine.into_result().expect("finished");
    digest(&group, &outcome, &trace)
}

/// Runs `run_sort` with an RNG seeded `seed`.
fn run_sort_digest(
    kind: GroupKind,
    values: &[BigUint],
    l: usize,
    seed: u64,
    threads: usize,
) -> String {
    let group = kind.group();
    let options = SortOptions { threads };
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(values.len() + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let (outcome, trace) =
        run_sort(&group, values, l, options, &mut rng, &log, &mut timer).expect("run");
    digest(&group, &outcome, &trace)
}

/// Checks one session shape against its golden machine and `run_sort`
/// digests, on one and two workers.
fn check(kind: GroupKind, values: &[u64], l: usize, seed: u64, machine: &str, sorted: &str) {
    let values: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
    for threads in [1, 2] {
        let label = format!("{kind} threads={threads}");
        assert_eq!(
            machine_digest(kind, &values, l, seed, threads),
            machine,
            "{label}: machine on the generated stock"
        );
        assert_eq!(
            run_sort_digest(kind, &values, l, seed, threads),
            sorted,
            "{label}: run_sort"
        );
    }
}

#[test]
fn ecc160_transcripts_match_their_golden_digests() {
    check(
        GroupKind::Ecc160,
        &[200, 17, 200, 95],
        8,
        0xD16E57,
        "eb4a5443c6254fa2bfbf31bae768e46ddaad25792911065497f30da49d494e88",
        "0f3e1af3cd38857a4f0018144da49a0721689b51b9246ef6073d76a51345f642",
    );
}

#[test]
fn dl1024_transcripts_match_their_golden_digests() {
    check(
        GroupKind::Dl1024,
        &[9, 3, 12],
        4,
        0xD16E58,
        "ab2269865362a5a4f21493db9341b5bbceda7ea2f23697d4b9c520582e794354",
        "c08cbe413d3a692b3fc327177a583145f96f2a88c01b4a554caac8a78cc5989e",
    );
}

#[test]
fn dl2048_transcripts_match_their_golden_digests() {
    check(
        GroupKind::Dl2048,
        &[3, 1, 2],
        2,
        0xD16E59,
        "9e9c97da4195e9a619b82efb953c776d3c9f2aeefae918ac1bd27e71e41fb75a",
        "3075a0de66b9cc6f542c0a022052302d15f18064881de9a0a2dac4d465bcd215",
    );
}

#[test]
fn dl3072_transcripts_match_their_golden_digests() {
    check(
        GroupKind::Dl3072,
        &[2, 1],
        2,
        0xD16E5A,
        "244645c815f54e59e23189a2a8cf57a0f4b9540a08e3f75c5fe620b2981b34eb",
        "8f3aa0a9a4b73f4c3a49104131508ad039ef8df2f7fe06b60e429b47f4415f6b",
    );
}

/// Digests a whole in-memory session of `n` participants: its masked
/// gains, ranks, accepted submissions (party, claimed rank, gain, values)
/// and traffic records (sender, receiver, bytes, label, in log order).
fn session_digest(kind: GroupKind, n: usize, seed: u64) -> String {
    let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(2)
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(kind)
        .seed(seed)
        .build()
        .expect("valid params");
    let ranking = GroupRanking::new(params).with_random_population();
    let log = ranking.traffic_log();
    let outcome = ranking.run().expect("fault-free session");
    let mut h = Sha256::new();
    let mut put = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    };
    for beta in &outcome.masked_gains().betas {
        put(&beta.to_bytes_be());
    }
    for rank in outcome.ranks() {
        put(&(*rank as u64).to_be_bytes());
    }
    for accepted in outcome.top_k() {
        let submission = &accepted.submission;
        put(&(submission.party as u64).to_be_bytes());
        put(&(submission.claimed_rank as u64).to_be_bytes());
        put(&accepted.gain.to_be_bytes());
        for value in submission.info.values() {
            put(&value.to_be_bytes());
        }
    }
    for record in log.records() {
        put(&(record.from as u64).to_be_bytes());
        put(&(record.to as u64).to_be_bytes());
        put(&(record.bytes as u64).to_be_bytes());
        put(record.phase.as_bytes());
    }
    to_hex(&h.finalize())
}

#[test]
fn whole_sessions_match_their_golden_digests() {
    assert_eq!(
        session_digest(GroupKind::Ecc160, 4, 0x5E55),
        "e626b93fe040f20e94e2e79a45399224187843bfac88fc6cecf590b840f52c41",
        "ECC-160 session"
    );
    assert_eq!(
        session_digest(GroupKind::Dl1024, 3, 0x5E56),
        "d0cda7bafa3db0213ec50e87a115f83c12af87c96a0fb0f10146469261a7684d",
        "DL-1024 session"
    );
}
