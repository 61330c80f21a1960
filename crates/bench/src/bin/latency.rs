//! Cold-vs-warm session latency benchmark for the offline/online split.
//!
//! Runs N independent ranking sessions two ways — *cold* (the session
//! generates its offline stock inline, on the clock) and *warm-keygen*
//! (the whole stock — pooled key shares, Schnorr nonces and challenge
//! shares, the joint-key table, both mask halves and prepared hop
//! scalars — attached off the clock, exactly what the runtime's
//! precompute lanes mint) — asserts both outcomes are bit-identical per
//! seed, and writes machine-readable results to `BENCH_latency.json`
//! (schema: `crates/bench/schema/BENCH_latency.schema.json`).
//!
//! The warm stock comes from [`OfflineStock::generate`] on the machine's
//! own fingerprint — the code path the runtime's background refill lane
//! runs — so the warm measurement is the online latency of a pool-served
//! session without the scheduler noise of measuring through the pool
//! itself (on a single-core host, a concurrent refill would contend with
//! the very session it serves).
//!
//! ```text
//! cargo run --release -p ppgr-bench --bin latency
//! cargo run --release -p ppgr-bench --bin latency -- --sessions 31 --n 4
//! cargo run --release -p ppgr-bench --bin latency -- --smoke   # CI: small + self-check
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use ppgr_core::{
    FrameworkParams, GroupRanking, OfflineStock, Outcome, Questionnaire, SessionMachine,
};
use ppgr_group::GroupKind;
use std::time::{Duration, Instant};

struct Config {
    sessions: usize,
    participants: usize,
    smoke: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!("usage: latency [--sessions N] [--n PARTICIPANTS] [--smoke] [--out PATH]");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        sessions: 61,
        participants: 4,
        smoke: false,
        out: "BENCH_latency.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--sessions" => cfg.sessions = value("--sessions").parse().unwrap_or_else(|_| usage()),
            "--n" => cfg.participants = value("--n").parse().unwrap_or_else(|_| usage()),
            "--smoke" => cfg.smoke = true,
            "--out" => cfg.out = value("--out"),
            _ => usage(),
        }
    }
    if cfg.smoke {
        // Small enough for a CI debug-or-release smoke lap.
        cfg.sessions = cfg.sessions.min(2);
        cfg.participants = cfg.participants.min(3);
    }
    if cfg.sessions == 0 || cfg.participants < 2 {
        usage();
    }
    cfg
}

fn usage_missing(name: &str) -> String {
    eprintln!("missing value for {name}");
    usage();
}

fn machine_for(participants: usize, seed: u64) -> SessionMachine {
    let params = FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(participants)
        .top_k(2.min(participants))
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params");
    GroupRanking::new(params)
        .with_random_population()
        .into_machine()
        .expect("machine")
}

/// Steps the machine to completion with the clock running only from the
/// moment it is called — any stock attached beforehand is off the clock.
fn run_clocked(mut machine: SessionMachine) -> (Duration, Outcome) {
    let start = Instant::now();
    while !machine.is_done() {
        machine.step().expect("session step");
    }
    let elapsed = start.elapsed();
    (elapsed, machine.into_outcome().expect("finished outcome"))
}

fn median(durations: &[Duration]) -> Duration {
    let mut sorted = durations.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

/// The two measured lanes, in their canonical (JSON) order.
const LANES: usize = 2;
const COLD: usize = 0;
const WARM_KEYGEN: usize = 1;

fn main() {
    let cfg = parse_args();
    eprintln!(
        "latency: {} sessions, ECC-160 n={}, cold vs warm-keygen",
        cfg.sessions, cfg.participants
    );

    // Cold: the Offline phase generates the full stock inline, on the
    // clock. Warm-keygen: the whole stock — pooled keys, assembled
    // proofs, both mask halves — attached off the clock; online work is
    // reduced to exchanging shares, batch-verifying proofs and the
    // inherently-online variable-base hop exponentiations.
    //
    // The lanes run interleaved per seed with a rotating order, so slow
    // drift in the host's clock speed (shared CPU, thermal throttle)
    // lands on every lane equally instead of biasing whichever lane ran
    // last; the medians then resolve gaps well below the run-to-run noise
    // of a single session.
    let run_lane = |lane: usize, k: usize| {
        let mut machine = machine_for(cfg.participants, k as u64);
        if lane == WARM_KEYGEN {
            let stock = OfflineStock::generate(machine.offline_fingerprint(), 1, || false)
                .expect("an uncancelled generation completes");
            assert!(
                machine.attach_offline_stock(stock),
                "stock fingerprint must match the machine that minted it"
            );
        }
        run_clocked(machine)
    };
    let mut durations: [Vec<Duration>; LANES] = Default::default();
    let mut outcomes: [Vec<Outcome>; LANES] = Default::default();
    for k in 0..cfg.sessions {
        for step in 0..LANES {
            let lane = (k + step) % LANES;
            let (d, o) = run_lane(lane, k);
            durations[lane].push(d);
            outcomes[lane].push(o);
        }
    }

    let mut identical = true;
    for (k, (w, c)) in outcomes[WARM_KEYGEN]
        .iter()
        .zip(&outcomes[COLD])
        .enumerate()
    {
        if w.ranks() != c.ranks() || w.traffic() != c.traffic() {
            identical = false;
            eprintln!("session {k}: warm_keygen outcome diverged from cold run!");
        }
    }
    assert!(identical, "warm sessions must match cold runs bit-for-bit");

    let medians: Vec<Duration> = durations.iter().map(|lane| median(lane)).collect();
    let speedup_keygen = medians[COLD].as_secs_f64() / medians[WARM_KEYGEN].as_secs_f64();
    eprintln!(
        "cold median: {:.2?} | warm-keygen median: {:.2?} ({speedup_keygen:.2}x)",
        medians[COLD], medians[WARM_KEYGEN]
    );

    let lane_json = |durs: &[Duration]| {
        format!(
            "{{\n    \"median_seconds\": {:.6},\n    \"min_seconds\": {:.6},\n    \
             \"max_seconds\": {:.6}\n  }}",
            median(durs).as_secs_f64(),
            durs.iter().min().expect("nonempty").as_secs_f64(),
            durs.iter().max().expect("nonempty").as_secs_f64(),
        )
    };
    let json = format!(
        "{{\n  \"schema\": \"crates/bench/schema/BENCH_latency.schema.json\",\n  \
         \"version\": 3,\n  \"config\": {{\n    \"group\": \"Ecc160\",\n    \
         \"participants\": {},\n    \"sessions\": {},\n    \"smoke\": {}\n  }},\n  \
         \"cold\": {},\n  \"warm_keygen\": {},\n  \
         \"speedup_keygen\": {:.6},\n  \
         \"outcomes_identical\": {}\n}}\n",
        cfg.participants,
        cfg.sessions,
        cfg.smoke,
        lane_json(&durations[COLD]),
        lane_json(&durations[WARM_KEYGEN]),
        speedup_keygen,
        identical
    );
    std::fs::write(&cfg.out, &json).expect("write BENCH_latency.json");
    eprintln!("wrote {}", cfg.out);

    // Self-check (what CI's smoke lap asserts): determinism held and the
    // emitted JSON is well-formed enough to round-trip its fields. Speed is
    // deliberately NOT asserted here — CI machines are too noisy; the
    // committed full-size run is where warm < cold is demonstrated.
    assert!(
        medians.iter().all(|m| m.as_secs_f64() > 0.0) && speedup_keygen.is_finite(),
        "degenerate timing"
    );
    for field in [
        "\"schema\"",
        "\"version\": 3",
        "\"config\"",
        "\"cold\"",
        "\"warm_keygen\"",
        "\"median_seconds\"",
        "\"speedup_keygen\"",
        "\"outcomes_identical\": true",
    ] {
        assert!(json.contains(field), "JSON missing {field}");
    }
}
