//! Runs every workload at minimum size and checks its result line against
//! the metric lists in the repository's `BENCHMARK.json`: untraced runs
//! must report every end-to-end metric, traced runs every per-layer
//! metric, and no session may fail.

use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `name` of every object in the `key` array of `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let at = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[at..];
    let array = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.trim_start().trim_start_matches(':').trim_start();
            value[1..]
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

/// `(name, value)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, f64)> {
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    body.split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            let name = pair[0].trim_end_matches([':', ' ']).rsplit('"').nth(1);
            let value = pair[1].split(',').next().expect("value");
            (
                name.expect("metric name").to_string(),
                value.parse().expect("numeric value"),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppgr-benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

fn check_result(stdout: &str, expected: &[String]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\": true"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    assert!(!last.contains("\"attempted\": 0,"), "{last}");
    let got = metrics(last);
    let got_names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got_names, expected, "metric set");
    assert!(got.iter().all(|(_, v)| v.is_finite()));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let json = benchmark_json();
    let e2e = names(&json, "end_to_end");
    let start = Instant::now();
    // No `--workload`: one process per workload, then a combined line.
    let (ok, stdout) = run(&["--seed", "1", "--smoke"]);
    assert!(ok, "{stdout}");
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "{:?}",
        start.elapsed()
    );
    let mut expected = Vec::new();
    for w in names(&json, "workloads") {
        expected.extend(e2e.iter().map(|m| format!("{w}.{m}")));
        assert!(
            stdout.contains(&format!("{w} failed_frac 0 ratio")),
            "{w} failed sessions:\n{stdout}"
        );
    }
    check_result(&stdout, &expected);
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    let json = benchmark_json();
    let layers = names(&json, "per_layer");
    for w in names(&json, "workloads") {
        let trace = format!("{}/{w}.json", env!("CARGO_TARGET_TMPDIR"));
        let args = [
            "--workload",
            &w,
            "--seed",
            "2",
            "--trace",
            "1",
            "--trace-out",
            &trace,
            "--smoke",
        ];
        let (ok, stdout) = run(&args);
        assert!(ok, "{w}: {stdout}");
        check_result(&stdout, &layers);
        let spans = std::fs::read_to_string(&trace).expect("trace written");
        for name in ["\"workload\"", "\"setup\"", "\"probe:exp_var\""] {
            assert!(spans.contains(name), "{w} trace lacks {name}");
        }
    }
}

#[test]
fn a_bad_argument_fails_without_a_result() {
    let (ok, stdout) = run(&["--workload", "no-such-workload", "--seed", "1"]);
    assert!(!ok);
    assert!(stdout.is_empty());
}
