//! The repository benchmark: four workloads, the end-to-end metrics a user
//! of the ranking system sees, and a traced run that attributes them to
//! layers. See `README.md` in this directory for the rationale, the metric
//! glossary and how to read the trace.
//!
//! ```text
//! cargo run --release --manifest-path ppgr-benchmark/Cargo.toml -- --seed 1
//! cargo run --release --manifest-path ppgr-benchmark/Cargo.toml -- \
//!     --workload solo-ecc160 --seed 1 --seconds 15 --trace 0
//! cargo run --release --manifest-path ppgr-benchmark/Cargo.toml -- --seed 1 --smoke
//! ```
//!
//! Every metric is printed as `<workload> <metric> <value> <unit>`; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`). The exit status is nonzero if
//! any session failed or any output was wrong.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

mod check;
mod openloop;
mod probe;
mod speed;
mod stats;
mod workloads;

use stats::{json_str, json_true_field, json_u64_field, median, Trace};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Ctx, Measured, Workload, WORKLOADS};

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("session_p50_ms", "ms"),
    ("session_tail_ms", "ms"),
    ("goodput_sps", "sessions/s"),
    ("participant_compute_ms", "ms"),
    ("bytes_per_participant", "B"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 26] = [
    ("core.offline_ms", "ms"),
    ("core.gain_ms", "ms"),
    ("core.keygen_ms", "ms"),
    ("core.encrypt_ms", "ms"),
    ("core.compare_ms", "ms"),
    ("core.hop_ms", "ms"),
    ("core.hop_max_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.submit_ms", "ms"),
    ("core.driver_ms", "ms"),
    ("core.hop_us_per_ct", "us"),
    ("group.exp_var_us", "us"),
    ("group.exp_fixed_us", "us"),
    ("group.msm_term_us", "us"),
    ("group.op_us", "us"),
    ("zkp.verify_us_per_proof", "us"),
    ("net.bytes.gain", "B"),
    ("net.bytes.keygen", "B"),
    ("net.bytes.encrypt", "B"),
    ("net.bytes.compare", "B"),
    ("net.bytes.hop", "B"),
    ("net.bytes.return", "B"),
    ("net.bytes.submit", "B"),
    ("net.messages", "count"),
    ("net.rounds", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Setups per run: the run's own plus fresh processes doing only setup,
/// so `setup_s` is a median rather than one cold-start sample.
const SETUPS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: ppgr-benchmark --seed N [--workload NAME] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 15.0,
        trace: false,
        trace_out: None,
        smoke: false,
        setup_probe: false,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w.name == name.as_str())
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    // Host speed before set-up; set-up is timed from just after it.
    let before = speed::sample(1);
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        None => run_all(&args),
        Some(w) if args.setup_probe => match workloads::setup(&ctx(w, &args, None)) {
            Ok(_) => {
                println!("{}", setup_seconds(origin, before).0);
                true
            }
            Err(e) => {
                eprintln!("{}: setup failed: {e}", w.name);
                false
            }
        },
        Some(w) => run_one(w, &args, origin, before),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn ctx(workload: Workload, args: &Args, trace: Option<Trace>) -> Ctx {
    Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace,
        root: 0,
    }
}

/// This process's own arguments for `workload`, to re-run this binary.
fn child_args(args: &Args, workload: Workload) -> Vec<String> {
    let mut out = vec![
        "--workload".to_string(),
        workload.name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(args.trace).to_string(),
    ];
    if args.smoke {
        out.push("--smoke".into());
    }
    out
}

/// Runs this binary with `args` and waits for it; returns its standard
/// output if it exited successfully.
fn rerun(args: Vec<String>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        print!("{stdout}");
        Err(format!("`{}` exited with {}", args.join(" "), out.status))
    }
}

/// Seconds since `origin` (process start), rescaled to the reference host
/// speed by the samples `before` set-up and now, and as measured. Set-up
/// is mostly one thread's work, so one thread samples.
fn setup_seconds(origin: Instant, before: f64) -> (f64, f64) {
    let raw = origin.elapsed().as_secs_f64();
    let after = speed::sample(1);
    (raw * speed::factor((before + after) / 2.0), raw)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run_one(w: Workload, args: &Args, origin: Instant, before: f64) -> bool {
    let mut ctx = ctx(w, args, args.trace.then(|| Trace::new(origin)));
    if let Some(trace) = ctx.trace.as_mut() {
        ctx.root = trace.open("workload", None, origin);
    }
    let service = match workloads::setup(&ctx) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("{}: setup failed: {e}", w.name);
            return false;
        }
    };
    let setup_end = Instant::now();
    let (setup_s, setup_raw_s) = setup_seconds(origin, before);
    let mut setups = vec![setup_s];
    let root = ctx.root;
    if let Some(trace) = ctx.trace.as_mut() {
        trace.push("setup", Some(root), None, origin, setup_end);
    }
    eprintln!(
        "{}: seed {} · {} s nominal · trace {} · setup {setup_raw_s:.3} s",
        w.name, args.seed, args.seconds, args.trace
    );

    let mut m = Measured::default();
    m.factors.push(setup_s / setup_raw_s);
    workloads::run(&mut ctx, service, &mut m);
    let mut problems = std::mem::take(&mut m.errors);
    match peak_rss_mb() {
        Some(mb) => {
            m.values.insert("peak_rss_mb".into(), mb);
        }
        None => problems.push("no VmHWM in /proc/self/status".into()),
    }
    if let Some(mut trace) = ctx.trace.take() {
        trace.close(ctx.root, Instant::now());
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.json", w.name, args.seed))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace.to_json(w.name, args.seed)));
        match written {
            Ok(()) => eprintln!("{}: trace written to {}", w.name, path.display()),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
    }

    // Fresh processes repeat the setup after the measurement, so they
    // neither share this process's caches nor compete with its sessions.
    let mut probe_args = child_args(args, w);
    probe_args.push("--setup-probe".into());
    for _ in 1..if args.smoke { 2 } else { SETUPS } {
        match rerun(probe_args.clone()).and_then(|out| {
            out.lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok())
                .ok_or_else(|| "setup probe printed no time".to_string())
        }) {
            Ok(s) => setups.push(s),
            Err(e) => problems.push(e),
        }
    }
    m.values.insert("setup_s".into(), median(&setups));

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in list {
        match m.values.get(name) {
            Some(v) if v.is_finite() => {
                println!("{} {name} {v} {unit}", w.name);
                json.push(metric_entry(name, v, unit));
            }
            other => problems.push(format!("metric {name} is {other:?}")),
        }
    }
    for e in &m.extras {
        println!("{} {} {} {}", w.name, e.name, e.value, e.unit);
    }
    for p in &problems {
        eprintln!("{}: FAILED: {p}", w.name);
    }
    let correct = m.failed == 0 && problems.is_empty();
    println!("{}", result_line(correct, m.attempted, m.failed, &json));
    correct
}

/// One `"name": {"value": v, "unit": u}` entry of the result line.
fn metric_entry(name: &str, value: impl std::fmt::Display, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json_str(name),
        json_str(unit)
    )
}

/// The result line, the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Runs every workload in a process of its own, so setup time, peak
/// memory and caches are per workload, then prints one combined result.
fn run_all(args: &Args) -> bool {
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut json = Vec::new();
    for w in WORKLOADS {
        let out = match rerun(child_args(args, w)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{e}");
                correct = false;
                continue;
            }
        };
        let Some(result) = out.lines().last() else {
            correct = false;
            continue;
        };
        correct &= json_true_field(result, "correct");
        attempted += json_u64_field(result, "attempted").unwrap_or(0);
        failed += json_u64_field(result, "failed").unwrap_or(0);
        for line in out.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let [_, name, value, unit] = fields[..] {
                if list.iter().any(|&(n, _)| n == name) {
                    json.push(metric_entry(&format!("{}.{name}", w.name), value, unit));
                }
            }
        }
    }
    correct &= failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &json));
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} for {name}");
        }
        for w in WORKLOADS {
            assert!(ok(w.name), "bad workload name {}", w.name);
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "duplicate name"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&argv)
        };
        let a = parse("--workload mesh-ecc160 --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.map(|w| w.name), Some("mesh-ecc160"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse("--seed 1").is_ok_and(|a| a.workload.is_none() && !a.trace));
        for bad in [
            "",
            "--workload nope --seed 1",
            "--seed x",
            "--seed 1 --trace 2",
            "--seed 1 --seconds 0",
            "--seed 1 --seconds",
            "--seed 1 --bogus",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
