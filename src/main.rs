//! `ppgr` — command-line demo of the privacy-preserving group ranking
//! framework.
//!
//! ```text
//! ppgr run  --participants 6 --top-k 2 --group ecc160 --seed 7 \
//!           --attrs age:eq,friends:gt --d1 8 --d2 4 --mask 8 [--distributed]
//! ppgr sort --values 83,71,97,71 --bits 8 --group ecc160
//! ppgr simulate --participants 4 --group dl1024
//! ppgr info
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use ppgr::bigint::BigUint;
use ppgr::core::submit::AcceptedSubmission;
use ppgr::core::{
    run_distributed, unlinkable_sort, AttributeKind, FrameworkParams, GroupRanking, PartyTimer,
    Questionnaire,
};
use ppgr::group::GroupKind;
use ppgr::hash::HashDrbg;
use ppgr::net::sim::NetworkSim;
use ppgr::net::TrafficLog;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "sort" => cmd_sort(rest),
        "simulate" => cmd_simulate(rest),
        "info" => cmd_info(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ppgr — privacy preserving group ranking (ICDCS 2012)

commands:
  run       run the full three-phase framework on a random population
            --participants N   (default 5)
            --top-k K          (default 2)
            --group KIND       dl1024|dl2048|dl3072|ecc160|ecc224|ecc256 (default ecc160)
            --attrs SPEC       e.g. age:eq,friends:gt (default one eq + two gt)
            --d1 BITS          attribute width (default 6)
            --d2 BITS          weight width (default 3)
            --mask BITS        mask width h (default 6)
            --seed N           (default 0)
            --distributed      run thread-per-party over channels
  sort      run only the identity-unlinkable sorting protocol
            --values a,b,c     the parties' private integers
            --bits L           bit length (default: fit the max value)
            --group KIND / --seed N
  simulate  replay a run's traffic over the 80-node / 2 Mbps / 50 ms network
            --participants N / --group KIND / --seed N
  info      list the available group instantiations";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {flag:?}"));
        };
        if name == "distributed" {
            map.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    flags.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("--{key}: bad number {v:?}"))
    })
}

fn get_group(flags: &HashMap<String, String>) -> Result<GroupKind, String> {
    match flags.get("group").map(String::as_str).unwrap_or("ecc160") {
        "dl1024" => Ok(GroupKind::Dl1024),
        "dl2048" => Ok(GroupKind::Dl2048),
        "dl3072" => Ok(GroupKind::Dl3072),
        "ecc160" => Ok(GroupKind::Ecc160),
        "ecc224" => Ok(GroupKind::Ecc224),
        "ecc256" => Ok(GroupKind::Ecc256),
        other => Err(format!("unknown group {other:?}")),
    }
}

fn parse_questionnaire(spec: Option<&String>) -> Result<Questionnaire, String> {
    let Some(spec) = spec else {
        return Ok(Questionnaire::synthetic(1, 2));
    };
    let mut b = Questionnaire::builder();
    for part in spec.split(',') {
        let (name, kind) = part
            .split_once(':')
            .ok_or_else(|| format!("attribute {part:?} must be name:eq or name:gt"))?;
        let kind = match kind {
            "eq" => AttributeKind::EqualTo,
            "gt" => AttributeKind::GreaterThan,
            other => return Err(format!("unknown attribute kind {other:?}")),
        };
        b = b.attribute(name, kind);
    }
    b.build().map_err(|e| e.to_string())
}

fn build_params(flags: &HashMap<String, String>) -> Result<FrameworkParams, String> {
    let q = parse_questionnaire(flags.get("attrs"))?;
    FrameworkParams::builder(q)
        .participants(get_usize(flags, "participants", 5)?)
        .top_k(get_usize(flags, "top-k", 2)?)
        .attr_bits(get_usize(flags, "d1", 6)? as u32)
        .weight_bits(get_usize(flags, "d2", 3)? as u32)
        .mask_bits(get_usize(flags, "mask", 6)? as u32)
        .group(get_group(flags)?)
        .seed(get_usize(flags, "seed", 0)? as u64)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let params = build_params(&flags)?;
    println!(
        "n={}, k={}, group={}, l={} bits, seed={}",
        params.participants(),
        params.top_k(),
        params.group(),
        params.beta_bits(),
        params.seed()
    );
    if flags.contains_key("distributed") {
        let mut rng = HashDrbg::seed_from_u64(params.seed());
        let (profile, infos) = params.random_population(&mut rng);
        let out = run_distributed(&params, profile, infos).map_err(|e| e.to_string())?;
        println!("distributed run (thread per party):");
        for (i, r) in out.ranks.iter().enumerate() {
            println!("  P{} → rank {r}", i + 1);
        }
        print_top_k(&out.report.accepted);
        println!(
            "initiator accepted {} submissions; report clean: {}",
            out.report.accepted.len(),
            out.report.is_clean()
        );
    } else {
        let outcome = GroupRanking::new(params)
            .with_random_population()
            .run()
            .map_err(|e| e.to_string())?;
        for (i, r) in outcome.ranks().iter().enumerate() {
            println!("  P{} → rank {r}", i + 1);
        }
        print_top_k(outcome.top_k());
        let t = outcome.traffic();
        println!(
            "traffic: {} msgs / {} bytes / {} rounds",
            t.messages, t.total_bytes, t.rounds
        );
        println!(
            "mean participant compute: {:?}",
            outcome.timings().mean_participant_total()
        );
    }
    Ok(())
}

/// One `top-k:` line per submission the initiator accepted, in either
/// mode, so the two runners' outputs can be diffed line for line.
fn print_top_k(accepted: &[AcceptedSubmission]) {
    for acc in accepted {
        println!(
            "  top-k: P{} (rank {}, gain {})",
            acc.submission.party, acc.submission.claimed_rank, acc.gain
        );
    }
}

fn cmd_sort(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let spec = flags.get("values").ok_or("--values a,b,c required")?;
    let values: Vec<u64> = spec
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?}")))
        .collect::<Result<_, _>>()?;
    let max_bits = values
        .iter()
        .map(|v| 64 - v.leading_zeros())
        .max()
        .unwrap_or(1) as usize;
    let l = get_usize(&flags, "bits", max_bits.max(1))?;
    let group = get_group(&flags)?.group();
    let seed = get_usize(&flags, "seed", 0)? as u64;

    let big: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(values.len() + 1);
    let mut rng = HashDrbg::seed_from_u64(seed);
    let out =
        unlinkable_sort(&group, &big, l, &mut rng, &log, &mut timer).map_err(|e| e.to_string())?;
    for (i, (v, r)) in values.iter().zip(&out.ranks).enumerate() {
        println!("P{} (value {v}) → rank {r}", i + 1);
    }
    let s = log.summary();
    println!("wire: {} msgs / {} bytes", s.messages, s.total_bytes);
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let params = build_params(&flags)?;
    let n = params.participants();
    let runner = GroupRanking::new(params).with_random_population();
    let log = runner.traffic_log();
    let outcome = runner.run().map_err(|e| e.to_string())?;
    let sim = NetworkSim::paper_setup(n + 1, 7);
    let report = sim.simulate_log(&log).map_err(|e| e.to_string())?;
    println!(
        "protocol: {} msgs / {} bytes; simulated completion on the paper's network: {:.2} s",
        outcome.traffic().messages,
        outcome.traffic().total_bytes,
        report.completion_s
    );
    Ok(())
}

fn cmd_info() -> Result<(), String> {
    println!("available groups (NIST-equivalent security levels):");
    for kind in GroupKind::all() {
        let g = kind.group();
        println!(
            "  {kind:<8} {:>3}-bit security, element {} bytes, order {} bits",
            kind.security_level().bits(),
            g.element_len(),
            g.order().bits()
        );
    }
    Ok(())
}
