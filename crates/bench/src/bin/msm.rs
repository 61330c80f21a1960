//! MSM and batch-verification benchmark.
//!
//! Measures two things on ECC-160 and DL-1024 and writes
//! machine-readable results to `BENCH_msm.json`
//! (schema: `crates/bench/schema/BENCH_msm.schema.json`):
//!
//! 1. **Batch Schnorr verification** at the key-generation batch width:
//!    one verifier checking n−1 proofs one by one (two exponentiations
//!    each) versus one aggregate equation through `ppgr_zkp::verify_batch`
//!    (one fixed-base exponentiation plus a 2(n−1)-term MSM). The two
//!    sides' reps are interleaved and each side reports its fastest rep;
//!    a full-size run asserts the ECC-160 and DL-1024 speedups are at
//!    least 2×.
//! 2. **The MSM engine** itself: `Group::multi_exp` versus the naive
//!    per-term exp-and-fold across input sizes spanning the
//!    Straus→Pippenger switchover.
//!
//! ```text
//! cargo run --release -p ppgr-bench --bin msm
//! cargo run --release -p ppgr-bench --bin msm -- --n 16 --reps 10
//! cargo run --release -p ppgr-bench --bin msm -- --smoke   # CI: small + self-check
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use ppgr_group::{Element, Group, GroupKind, Scalar};
use ppgr_zkp::{verify_batch, SchnorrProver, SchnorrTranscript};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct Config {
    parties: usize,
    reps: u32,
    smoke: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!("usage: msm [--n PARTIES] [--reps R] [--smoke] [--out PATH]");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        parties: 16,
        reps: 20,
        smoke: false,
        out: "BENCH_msm.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--n" => cfg.parties = value("--n").parse().unwrap_or_else(|_| usage()),
            "--reps" => cfg.reps = value("--reps").parse().unwrap_or_else(|_| usage()),
            "--smoke" => cfg.smoke = true,
            "--out" => cfg.out = value("--out"),
            _ => usage(),
        }
    }
    if cfg.smoke {
        cfg.parties = cfg.parties.min(6);
        cfg.reps = cfg.reps.min(2);
    }
    if cfg.parties < 2 || cfg.reps == 0 {
        usage();
    }
    cfg
}

fn usage_missing(name: &str) -> String {
    eprintln!("missing value for {name}");
    usage();
}

struct BatchRow {
    group: &'static str,
    proofs: usize,
    per_proof_ms: f64,
    batch_ms: f64,
    speedup: f64,
}

struct MsmRow {
    group: &'static str,
    terms: usize,
    naive_ms: f64,
    msm_ms: f64,
    speedup: f64,
}

fn group_label(kind: GroupKind) -> &'static str {
    match kind {
        GroupKind::Ecc160 => "Ecc160",
        GroupKind::Ecc224 => "Ecc224",
        GroupKind::Ecc256 => "Ecc256",
        GroupKind::Dl1024 => "Dl1024",
        GroupKind::Dl2048 => "Dl2048",
        GroupKind::Dl3072 => "Dl3072",
    }
}

fn make_proofs(g: &Group, k: usize, seed: u64) -> (Vec<Element>, Vec<SchnorrTranscript>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut statements = Vec::with_capacity(k);
    let mut transcripts = Vec::with_capacity(k);
    for _ in 0..k {
        let x = g.random_scalar(&mut rng);
        statements.push(g.exp_gen(&x));
        let (p, h) = SchnorrProver::commit(g, x, &mut rng);
        let c = g.random_scalar(&mut rng);
        transcripts.push(p.respond(&c, h));
    }
    (statements, transcripts)
}

/// One verifier's key-generation workload: n−1 foreign proofs, verified
/// per proof (the pre-batch path) and as one aggregate equation.
fn bench_batch_verify(kind: GroupKind, parties: usize, reps: u32) -> BatchRow {
    let g = kind.group();
    let proofs = parties - 1;
    let (ys, ts) = make_proofs(&g, proofs, 0xBA7C4 + parties as u64);
    let items: Vec<(&Element, &SchnorrTranscript)> = ys.iter().zip(&ts).collect();
    // Warm the generator comb table so neither path pays its one-off build.
    std::hint::black_box(g.exp_gen(&g.scalar_from_u64(3)));

    let per_proof_rep = || {
        let start = Instant::now();
        for (y, t) in &items {
            assert!(t.verify(&g, y), "valid proof rejected");
        }
        start.elapsed()
    };
    let batch_rep = || {
        let start = Instant::now();
        assert!(verify_batch(&g, &items).is_ok(), "valid batch rejected");
        start.elapsed()
    };
    // The two sides alternate rep by rep, each going first in every other
    // rep, so neither runs on a quieter stretch of the machine than the
    // other; each side reports its fastest rep, since load and frequency
    // changes only ever add time.
    let (mut per_proof, mut batch) = (Duration::MAX, Duration::MAX);
    for rep in 0..reps {
        if rep % 2 == 0 {
            per_proof = per_proof.min(per_proof_rep());
            batch = batch.min(batch_rep());
        } else {
            batch = batch.min(batch_rep());
            per_proof = per_proof.min(per_proof_rep());
        }
    }

    let per_proof_ms = per_proof.as_secs_f64() * 1e3;
    let batch_ms = batch.as_secs_f64() * 1e3;
    BatchRow {
        group: group_label(kind),
        proofs,
        per_proof_ms,
        batch_ms,
        speedup: per_proof_ms / batch_ms,
    }
}

/// `Group::multi_exp` versus the naive exp-and-fold at one input size.
fn bench_msm(kind: GroupKind, terms: usize, reps: u32) -> MsmRow {
    let g = kind.group();
    let mut rng = StdRng::seed_from_u64(0x4D534D + terms as u64);
    let bases: Vec<Element> = (0..terms)
        .map(|_| g.exp_gen(&g.random_scalar(&mut rng)))
        .collect();
    let scalars: Vec<Scalar> = (0..terms).map(|_| g.random_scalar(&mut rng)).collect();
    let pairs: Vec<(&Element, &Scalar)> = bases.iter().zip(&scalars).collect();

    let start = Instant::now();
    let mut naive_result = g.identity();
    for _ in 0..reps {
        naive_result = pairs
            .iter()
            .fold(g.identity(), |acc, (b, s)| g.op(&acc, &g.exp(b, s)));
    }
    let naive = start.elapsed() / reps;

    let start = Instant::now();
    let mut msm_result = g.identity();
    for _ in 0..reps {
        msm_result = g.multi_exp(&pairs);
    }
    let msm = start.elapsed() / reps;

    assert_eq!(naive_result, msm_result, "MSM diverged from naive fold");
    let naive_ms = naive.as_secs_f64() * 1e3;
    let msm_ms = msm.as_secs_f64() * 1e3;
    MsmRow {
        group: group_label(kind),
        terms,
        naive_ms,
        msm_ms,
        speedup: naive_ms / msm_ms,
    }
}

fn main() {
    let cfg = parse_args();
    let kinds = [GroupKind::Ecc160, GroupKind::Dl1024];
    let sizes: &[usize] = if cfg.smoke { &[8] } else { &[8, 32, 128] };
    eprintln!(
        "msm: n={} (batch of {} proofs), reps={}, sizes={sizes:?}",
        cfg.parties,
        cfg.parties - 1,
        cfg.reps
    );

    let mut batch_rows = Vec::new();
    for kind in kinds {
        let row = bench_batch_verify(kind, cfg.parties, cfg.reps);
        eprintln!(
            "{}: {} proofs per-proof {:.3} ms | batch {:.3} ms | speedup {:.2}x",
            row.group, row.proofs, row.per_proof_ms, row.batch_ms, row.speedup
        );
        batch_rows.push(row);
    }

    let mut msm_rows = Vec::new();
    for kind in kinds {
        // DL reps are costly at large sizes; a couple suffice there.
        let reps = if kind.is_dl() {
            cfg.reps.min(3)
        } else {
            cfg.reps
        };
        for &terms in sizes {
            let row = bench_msm(kind, terms, reps);
            eprintln!(
                "{}: {} terms naive {:.3} ms | msm {:.3} ms | speedup {:.2}x",
                row.group, row.terms, row.naive_ms, row.msm_ms, row.speedup
            );
            msm_rows.push(row);
        }
    }

    let batch_json: Vec<String> = batch_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"group\": \"{}\",\n      \"proofs\": {},\n      \
                 \"per_proof_ms\": {:.6},\n      \"batch_ms\": {:.6},\n      \
                 \"speedup\": {:.6},\n      \"results_match\": true\n    }}",
                r.group, r.proofs, r.per_proof_ms, r.batch_ms, r.speedup
            )
        })
        .collect();
    let msm_json: Vec<String> = msm_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"group\": \"{}\",\n      \"terms\": {},\n      \
                 \"naive_ms\": {:.6},\n      \"msm_ms\": {:.6},\n      \
                 \"speedup\": {:.6},\n      \"results_match\": true\n    }}",
                r.group, r.terms, r.naive_ms, r.msm_ms, r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"crates/bench/schema/BENCH_msm.schema.json\",\n  \
         \"version\": 1,\n  \"config\": {{\n    \"parties\": {},\n    \
         \"reps\": {},\n    \"smoke\": {}\n  }},\n  \
         \"batch_verify\": [\n{}\n  ],\n  \"msm\": [\n{}\n  ]\n}}\n",
        cfg.parties,
        cfg.reps,
        cfg.smoke,
        batch_json.join(",\n"),
        msm_json.join(",\n")
    );
    std::fs::write(&cfg.out, &json).expect("write BENCH_msm.json");
    eprintln!("wrote {}", cfg.out);

    // Self-check (what CI's smoke lap asserts): every measurement is
    // positive and finite, and the full-size run clears the 2× gate the
    // key-generation phase is rebuilt around.
    for r in &batch_rows {
        assert!(r.per_proof_ms > 0.0 && r.batch_ms > 0.0 && r.speedup.is_finite());
        if !cfg.smoke {
            assert!(
                r.speedup >= 2.0,
                "{}: batch verification speedup {:.2}x below the 2x gate",
                r.group,
                r.speedup
            );
        }
    }
    for r in &msm_rows {
        assert!(r.naive_ms > 0.0 && r.msm_ms > 0.0 && r.speedup.is_finite());
    }
    for field in ["\"schema\"", "\"config\"", "\"batch_verify\"", "\"msm\""] {
        assert!(json.contains(field), "JSON missing {field}");
    }
}
