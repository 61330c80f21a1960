//! Saturation benchmark for the ranking-as-a-service front door.
//!
//! Measures a *curve*: sessions/sec as a function of offered load (how
//! many requests the synthetic client keeps outstanding against the
//! service at once), plus the cross-session verify-amortization
//! microbenchmark (k sessions' Schnorr checks, one aggregate MSM versus k
//! per-session batches). Every curve point asserts the tentpole
//! invariant in-harness: each served outcome is bit-identical — ranks
//! *and* wire transcript — to a solo serial run of the same parameters.
//!
//! Results go to `BENCH_throughput.json`
//! (schema: `crates/bench/schema/BENCH_throughput.schema.json`, v2).
//!
//! ```text
//! cargo run --release -p ppgr-bench --bin throughput
//! cargo run --release -p ppgr-bench --bin throughput -- --sessions 8 --shard-workers 4
//! cargo run --release -p ppgr-bench --bin throughput -- --smoke   # CI: small + self-check
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use ppgr_core::{FrameworkParams, GroupRanking, Outcome, Questionnaire};
use ppgr_group::GroupKind;
use ppgr_service::{Service, ServiceConfig, ServiceHandle};
use ppgr_zkp::{verify_sessions_multi_batch, MultiVerifierProof};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

struct Config {
    sessions: usize,
    shards: usize,
    shard_workers: usize,
    verify_batch: usize,
    participants: usize,
    smoke: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: throughput [--sessions N] [--shards S] [--shard-workers W] \
         [--batch B] [--n PARTICIPANTS] [--smoke] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        sessions: 8,
        shards: 1,
        shard_workers: 0,
        verify_batch: 4,
        participants: 8,
        smoke: false,
        out: "BENCH_throughput.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--sessions" => cfg.sessions = value("--sessions").parse().unwrap_or_else(|_| usage()),
            "--shards" => cfg.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--shard-workers" => {
                cfg.shard_workers = value("--shard-workers").parse().unwrap_or_else(|_| usage())
            }
            "--batch" => cfg.verify_batch = value("--batch").parse().unwrap_or_else(|_| usage()),
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
    if cfg.sessions == 0 || cfg.participants < 2 || cfg.shards == 0 {
        usage();
    }
    cfg
}

fn usage_missing(name: &str) -> String {
    eprintln!("missing value for {name}");
    usage();
}

fn params_for(participants: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(participants)
        .top_k(2.min(participants))
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(GroupKind::Ecc160)
        .seed(seed)
        .build()
        .expect("valid params")
}

/// One saturation-curve point: `sessions` requests pushed through a fresh
/// service while keeping up to `offered` outstanding at once (a sliding
/// client window), outcomes checked bit-for-bit against the solo
/// reference runs.
struct CurvePoint {
    offered: usize,
    wall: Duration,
    admitted: u64,
    shed: u64,
    batched_proofs: u64,
}

fn run_curve_point(cfg: &Config, workers: usize, offered: usize, solo: &[Outcome]) -> CurvePoint {
    let service = Service::new(ServiceConfig {
        shards: cfg.shards,
        workers_per_shard: workers,
        verify_batch: cfg.verify_batch,
        ..ServiceConfig::default()
    });
    let mut outcomes: Vec<Option<Outcome>> = (0..cfg.sessions).map(|_| None).collect();
    let mut window: VecDeque<(usize, ServiceHandle)> = VecDeque::new();
    let start = Instant::now();
    for i in 0..cfg.sessions {
        if window.len() == offered {
            let (j, handle) = window.pop_front().expect("non-empty window");
            outcomes[j] = Some(handle.join().expect("served session"));
        }
        let handle = service
            .submit(i as u64, params_for(cfg.participants, i as u64))
            .expect("unbounded window admits everything");
        window.push_back((i, handle));
    }
    while let Some((j, handle)) = window.pop_front() {
        outcomes[j] = Some(handle.join().expect("served session"));
    }
    let wall = start.elapsed();
    for (i, (served, reference)) in outcomes.iter().zip(solo).enumerate() {
        let served = served.as_ref().expect("every session joined");
        assert!(
            served.ranks() == reference.ranks() && served.traffic() == reference.traffic(),
            "offered {offered}, session {i}: served outcome diverged from solo run"
        );
    }
    let metrics = service.metrics();
    CurvePoint {
        offered,
        wall,
        admitted: metrics.sessions_admitted,
        shed: metrics.sessions_rejected_saturated + metrics.sessions_rejected_deadline,
        batched_proofs: metrics.verify_batched_proofs,
    }
}

/// Cross-session verify amortization, isolated: `k` sessions of
/// `proofs_per_session` multi-verifier Schnorr proofs each, verified as
/// `k` per-session aggregate batches versus **one** cross-session MSM.
struct AmortizationResult {
    sessions: usize,
    proofs_per_session: usize,
    per_session: Duration,
    batched: Duration,
}

fn run_verify_amortization(cfg: &Config) -> AmortizationResult {
    let group = GroupKind::Ecc160.group();
    let k = cfg.sessions.max(4);
    let per_session_proofs = cfg.participants;
    let verifiers = cfg.participants - 1;
    let mut rng = StdRng::seed_from_u64(0xa3);
    let sessions: Vec<Vec<_>> = (0..k)
        .map(|_| {
            (0..per_session_proofs)
                .map(|_| {
                    let witness = group.random_scalar(&mut rng);
                    let statement = group.exp_gen(&witness);
                    let transcript =
                        MultiVerifierProof::run(&group, &witness, verifiers.max(1), &mut rng);
                    (statement, transcript)
                })
                .collect()
        })
        .collect();
    let borrowed: Vec<Vec<_>> = sessions
        .iter()
        .map(|s| s.iter().map(|(y, t)| (y, t)).collect())
        .collect();
    let slices: Vec<&[_]> = borrowed.iter().map(Vec::as_slice).collect();

    let rounds = if cfg.smoke { 2 } else { 5 };
    let per_session_start = Instant::now();
    for _ in 0..rounds {
        for items in &borrowed {
            verify_sessions_multi_batch(&group, &[items]).expect("honest proofs verify");
        }
    }
    let per_session = per_session_start.elapsed() / rounds;

    let batched_start = Instant::now();
    for _ in 0..rounds {
        verify_sessions_multi_batch(&group, &slices).expect("honest proofs verify");
    }
    let batched = batched_start.elapsed() / rounds;

    AmortizationResult {
        sessions: k,
        proofs_per_session: per_session_proofs,
        per_session,
        batched,
    }
}

fn main() {
    let cfg = parse_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = if cfg.shard_workers == 0 {
        cores
    } else {
        cfg.shard_workers
    };
    eprintln!(
        "throughput: {} sessions, ECC-160 n={}, {} shard(s) × {} worker(s), \
         verify batch {} ({} cores)",
        cfg.sessions, cfg.participants, cfg.shards, workers, cfg.verify_batch, cores
    );

    // Solo reference: the same sessions back-to-back, one at a time. Also
    // the bit-identity oracle for every curve point.
    let serial_start = Instant::now();
    let solo: Vec<Outcome> = (0..cfg.sessions)
        .map(|i| {
            GroupRanking::new(params_for(cfg.participants, i as u64))
                .with_random_population()
                .run()
                .expect("solo run")
        })
        .collect();
    let serial = serial_start.elapsed();
    let rate = |d: Duration| cfg.sessions as f64 / d.as_secs_f64();
    let serial_rate = rate(serial);
    eprintln!("baseline back-to-back: {serial:.2?} ({serial_rate:.3} sessions/s)");

    // The saturation curve: offered load 1 (closed-loop serial client)
    // up through a window that keeps every worker saturated.
    let offered_loads: &[usize] = if cfg.smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut curve = Vec::new();
    for &offered in offered_loads {
        let point = run_curve_point(&cfg, workers, offered, &solo);
        eprintln!(
            "offered {:>2}: {:.2?} ({:.3} sessions/s, {} admitted, {} shed, \
             {} proofs batch-verified)",
            point.offered,
            point.wall,
            rate(point.wall),
            point.admitted,
            point.shed,
            point.batched_proofs,
        );
        curve.push(point);
    }

    let amort = run_verify_amortization(&cfg);
    let amort_speedup = amort.per_session.as_secs_f64() / amort.batched.as_secs_f64();
    eprintln!(
        "verify amortization: {} sessions × {} proofs — per-session {:.2?}, \
         one MSM {:.2?} ({amort_speedup:.2}x)",
        amort.sessions, amort.proofs_per_session, amort.per_session, amort.batched,
    );

    let curve_json: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"offered\": {},\n      \"wall_seconds\": {:.6},\n      \
                 \"sessions_per_sec\": {:.6},\n      \"admitted\": {},\n      \
                 \"shed\": {},\n      \"batched_proofs\": {}\n    }}",
                p.offered,
                p.wall.as_secs_f64(),
                rate(p.wall),
                p.admitted,
                p.shed,
                p.batched_proofs
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"crates/bench/schema/BENCH_throughput.schema.json\",\n  \
         \"version\": 2,\n  \"config\": {{\n    \"group\": \"Ecc160\",\n    \
         \"participants\": {},\n    \"sessions\": {},\n    \"shards\": {},\n    \
         \"workers_per_shard\": {},\n    \"verify_batch\": {},\n    \
         \"available_cores\": {},\n    \"smoke\": {}\n  }},\n  \
         \"baseline\": {{\n    \"wall_seconds\": {:.6},\n    \"sessions_per_sec\": {:.6}\n  }},\n  \
         \"curve\": [\n{}\n  ],\n  \
         \"verify_amortization\": {{\n    \"sessions\": {},\n    \
         \"proofs_per_session\": {},\n    \"per_session_ms\": {:.6},\n    \
         \"batched_ms\": {:.6},\n    \"speedup\": {:.6}\n  }},\n  \
         \"ranks_identical\": true\n}}\n",
        cfg.participants,
        cfg.sessions,
        cfg.shards,
        workers,
        cfg.verify_batch,
        cores,
        cfg.smoke,
        serial.as_secs_f64(),
        serial_rate,
        curve_json.join(",\n"),
        amort.sessions,
        amort.proofs_per_session,
        amort.per_session.as_secs_f64() * 1e3,
        amort.batched.as_secs_f64() * 1e3,
        amort_speedup,
    );
    std::fs::write(&cfg.out, &json).expect("write BENCH_throughput.json");
    eprintln!("wrote {}", cfg.out);

    // Self-check (what CI's smoke lap asserts): the curve has enough
    // points, rates are positive finite, the amortization numbers exist.
    assert!(curve.len() >= 3, "saturation curve needs >= 3 points");
    assert!(
        serial_rate > 0.0 && serial_rate.is_finite(),
        "baseline rate not positive"
    );
    for p in &curve {
        let r = rate(p.wall);
        assert!(
            r > 0.0 && r.is_finite(),
            "offered {} rate not positive",
            p.offered
        );
        assert_eq!(p.admitted, cfg.sessions as u64, "curve sheds nothing");
    }
    assert!(
        amort_speedup > 0.0 && amort_speedup.is_finite(),
        "amortization speedup not positive"
    );
    for field in [
        "\"schema\"",
        "\"version\": 2",
        "\"config\"",
        "\"baseline\"",
        "\"curve\"",
        "\"verify_amortization\"",
        "\"speedup\"",
        "\"ranks_identical\": true",
    ] {
        assert!(json.contains(field), "JSON missing {field}");
    }
}
