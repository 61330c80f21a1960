//! Golden transcript digests for the sorting machine.
//!
//! Each digest is SHA-256 over a run's ranks and the encoding of every
//! ciphertext returned to its owner after the whole shuffle-decrypt chain.
//! Ranks alone cannot catch a change in *how* the chain computes — a
//! different hop kernel, mask draw order or shuffle would still rank
//! correctly — so these digests pin the bytes themselves across commits.
//!
//! Two stock sources are covered per group: the cold path (the machine
//! draws and mints its keygen-tier stock from its own protocol stream) and
//! a machine with a pool-style masks-tier stock attached. A keygen-tier
//! stock for the same fingerprint must land on the masks-tier digest, and
//! every digest must be independent of the worker count.
//!
//! Any intended change to the protocol's bytes re-pins the constants
//! below, deliberately and in the same change.

use ppgr::bigint::BigUint;
use ppgr::core::sorting::{SortMachine, SortOptions, SortStatus};
use ppgr::core::{OfflineStock, PartyTimer, StockFingerprint};
use ppgr::group::GroupKind;
use ppgr::hash::{to_hex, Sha256};
use ppgr::net::TrafficLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which offline stock the machine runs on.
#[derive(Clone, Copy, Debug)]
enum Stock {
    /// Drawn and minted at the machine's own offline step.
    Cold,
    /// `OfflineStock::generate_masks_only` for the session's fingerprint.
    Masks,
    /// `OfflineStock::generate` for the session's fingerprint.
    Keygen,
}

/// Runs one session to completion and digests its ranks and returned sets.
fn digest(
    kind: GroupKind,
    values: &[u64],
    l: usize,
    seed: u64,
    stock: Stock,
    threads: usize,
) -> String {
    let group = kind.group();
    let values: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
    let options = SortOptions {
        threads,
        ..SortOptions::default()
    };
    let mut machine = SortMachine::new(&group, &values, l, options, 0).expect("valid session");
    let fp = StockFingerprint::new(seed, values.len(), l, kind);
    match stock {
        Stock::Cold => {}
        Stock::Masks => machine
            .attach_offline_stock(OfflineStock::generate_masks_only(fp))
            .expect("masks stock attaches"),
        Stock::Keygen => machine
            .attach_offline_stock(OfflineStock::generate(fp))
            .expect("keygen stock attaches"),
    }
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(values.len() + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    while machine.step(&mut rng, &log, &mut timer).expect("step") == SortStatus::Pending {}
    let (outcome, trace) = machine.into_result().expect("finished");
    let mut h = Sha256::new();
    for rank in &outcome.ranks {
        h.update(&(*rank as u64).to_be_bytes());
    }
    for set in &trace.returned_sets {
        for ct in set {
            h.update(&ct.encode(&group));
        }
    }
    to_hex(&h.finalize())
}

/// Checks one session shape against its golden cold and masks digests, on
/// one and two workers.
fn check(kind: GroupKind, values: &[u64], l: usize, seed: u64, cold: &str, masks: &str) {
    for threads in [1, 2] {
        let label = format!("{kind} threads={threads}");
        assert_eq!(
            digest(kind, values, l, seed, Stock::Cold, threads),
            cold,
            "{label}: cold"
        );
        assert_eq!(
            digest(kind, values, l, seed, Stock::Masks, threads),
            masks,
            "{label}: masks-tier stock"
        );
        assert_eq!(
            digest(kind, values, l, seed, Stock::Keygen, threads),
            masks,
            "{label}: keygen-tier stock"
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
        "a62422d9f5dafc8c0beb9d5ba3b6b7efba69a16526455d769f2d65e07549f7e2",
        "fc61e1c49510c610ead5ae72bccf58039ae8d998e78165fbbb7e1fa5ed33a59b",
    );
}

#[test]
fn dl1024_transcripts_match_their_golden_digests() {
    check(
        GroupKind::Dl1024,
        &[9, 3, 12],
        4,
        0xD16E58,
        "1d58f1a225014188e1f6696348d8be95206b63459c71a7f5dc35794e7ba468ec",
        "91660c08eb8c260c50589dc19212e9b07ffa236b9151db416c8b4cc5bb40c00b",
    );
}
