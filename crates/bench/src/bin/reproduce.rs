//! Regenerates every figure of the paper's evaluation (Sec. VII).
//!
//! ```text
//! cargo run --release -p ppgr-bench --bin reproduce -- all
//! cargo run --release -p ppgr-bench --bin reproduce -- fig2a fig3b
//! cargo run --release -p ppgr-bench --bin reproduce -- validate
//! ```
//!
//! Methodology: per-operation costs are measured on this machine, the
//! calibrated model is validated against real end-to-end runs at small
//! scale (`validate`), and each figure's series is produced from the
//! model at the paper's scales (full runs at n=70 with 3072-bit keys
//! would take hours on one core). Fig. 3(b) runs the discrete-event
//! network simulator on exact synthetic wire traces.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use ppgr_bench::calibrate::Calibration;
use ppgr_bench::model::{self, framework_participant_time, ss_participant_time, PaperDefaults};
use ppgr_bench::table::{fmt_bytes, fmt_duration, Table};
use ppgr_bench::traces;
use ppgr_core::analysis::{self, WireModel};
use ppgr_core::bit_length;
use ppgr_group::{GroupKind, SecurityLevel};
use ppgr_net::sim::NetworkSim;
use ppgr_smc::cost;
use std::cell::OnceCell;

/// A figure's generator: most price operations at this machine's
/// calibrated rates, and one needs no rates at all.
#[derive(Clone, Copy)]
enum Figure {
    Calibrated(fn(&Calibration)),
    Uncalibrated(fn()),
}

/// Every figure by name, in the order `all` runs them.
const FIGURES: [(&str, Figure); 8] = [
    ("validate", Figure::Calibrated(validate)),
    ("fig2a", Figure::Calibrated(fig2a)),
    ("fig2b", Figure::Calibrated(fig2b)),
    ("fig2c", Figure::Calibrated(fig2c)),
    ("fig2d", Figure::Calibrated(fig2d)),
    ("fig3a", Figure::Calibrated(fig3a)),
    ("fig3b", Figure::Calibrated(fig3b)),
    ("analysis", Figure::Uncalibrated(analysis_table)),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<Figure> = Vec::new();
    for name in &names {
        match FIGURES.iter().find(|(fig, _)| fig == name) {
            Some(&(_, run)) => figs.push(run),
            None if name == "all" => {}
            None => {
                let valid: Vec<&str> = FIGURES.iter().map(|(fig, _)| *fig).collect();
                eprintln!(
                    "unknown figure: {name} (expected all, {})",
                    valid.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if figs.is_empty() || names.iter().any(|name| name == "all") {
        figs = FIGURES.iter().map(|&(_, run)| run).collect();
    }
    // Calibrated once, by the first figure that reads the rates.
    let cal = OnceCell::new();
    for fig in figs {
        match fig {
            Figure::Calibrated(run) => run(cal.get_or_init(calibrate)),
            Figure::Uncalibrated(run) => run(),
        }
    }
}

/// Measures and prints this machine's per-operation costs.
fn calibrate() -> Calibration {
    println!("calibrating per-operation costs on this machine…");
    let cal = Calibration::measure(true);
    for ((kind, var), ((_, fixed), (_, hop))) in cal
        .exp
        .iter()
        .zip(cal.fixed_exp.iter().zip(cal.chain_hop.iter()))
    {
        println!(
            "  {kind}: {} per exponentiation ({} fixed-base, {} fused chain hop)",
            fmt_duration(*var),
            fmt_duration(*fixed),
            fmt_duration(*hop),
        );
    }
    println!("  field mul (SS unit): {}\n", fmt_duration(cal.field_mul));
    cal
}

/// Small-scale end-to-end runs versus the calibrated model.
fn validate(cal: &Calibration) {
    let mut t = Table::new(
        "validate — measured full protocol vs calibrated model",
        &["group", "n", "measured", "model", "ratio"],
    );
    for (kind, n) in [
        (GroupKind::Ecc160, 5usize),
        (GroupKind::Ecc160, 8),
        (GroupKind::Dl1024, 4),
    ] {
        let v = model::validate(cal, kind, n);
        t.row(vec![
            kind.to_string(),
            n.to_string(),
            fmt_duration(v.measured),
            fmt_duration(v.predicted),
            format!("{:.2}{}", v.ratio(), if v.acceptable() { "" } else { " ⚠" }),
        ]);
    }
    // The SS runnable engine, small scale.
    let ss = model::measure_ss(8, 12, 7);
    t.row(vec![
        "SS (runnable)".into(),
        "8".into(),
        fmt_duration(ss),
        "—".into(),
        "—".into(),
    ]);
    t.note("model = per-phase op counts × measured rates (fixed-base tables, fused chain hops, variable-base exps); acceptable within 3×");
    println!("{}", t.render());
}

/// Fig. 2(a): per-participant computation vs number of participants.
fn fig2a(cal: &Calibration) {
    let d = PaperDefaults::default();
    let l = d.l();
    let mut t = Table::new(
        format!("Fig. 2(a) — per-participant computation vs n  (m=10, d1=15, h=15, l={l})"),
        &["n", "ECC-160", "DL-1024", "SS"],
    );
    for n in [5usize, 10, 15, 20, 25, 30, 35, 40, 45] {
        t.row(vec![
            n.to_string(),
            fmt_duration(framework_participant_time(cal, GroupKind::Ecc160, n, l)),
            fmt_duration(framework_participant_time(cal, GroupKind::Dl1024, n, l)),
            fmt_duration(ss_participant_time(cal, n, l)),
        ]);
    }
    t.note("paper shape: SS grows ~cubically, ours ~quadratically; ECC fastest");
    println!("{}", t.render());
}

/// Fig. 2(b): sweep the attribute dimension m.
fn fig2b(cal: &Calibration) {
    let d = PaperDefaults::default();
    let mut t = Table::new(
        "Fig. 2(b) — per-participant computation vs m  (n=25, d1=15, h=15)",
        &["m", "l", "ECC-160", "DL-1024", "SS"],
    );
    for m in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let l = bit_length(m, d.d1, d.d2, d.h);
        t.row(vec![
            m.to_string(),
            l.to_string(),
            fmt_duration(framework_participant_time(cal, GroupKind::Ecc160, d.n, l)),
            fmt_duration(framework_participant_time(cal, GroupKind::Dl1024, d.n, l)),
            fmt_duration(ss_participant_time(cal, d.n, l)),
        ]);
    }
    t.note("m only enters through ⌈log₂ m⌉ in l → logarithmic growth");
    println!("{}", t.render());
}

/// Fig. 2(c): sweep the attribute bit width d₁.
fn fig2c(cal: &Calibration) {
    let d = PaperDefaults::default();
    let mut t = Table::new(
        "Fig. 2(c) — per-participant computation vs d1  (n=25, m=10, h=15)",
        &["d1", "l", "ECC-160", "DL-1024", "SS"],
    );
    for d1 in [10u32, 15, 20, 25, 30, 35] {
        let l = bit_length(d.m, d1, d.d2, d.h);
        t.row(vec![
            d1.to_string(),
            l.to_string(),
            fmt_duration(framework_participant_time(cal, GroupKind::Ecc160, d.n, l)),
            fmt_duration(framework_participant_time(cal, GroupKind::Dl1024, d.n, l)),
            fmt_duration(ss_participant_time(cal, d.n, l)),
        ]);
    }
    t.note("d1 adds to l linearly → linear growth for every framework");
    println!("{}", t.render());
}

/// Fig. 2(d): sweep the mask bit width h.
fn fig2d(cal: &Calibration) {
    let d = PaperDefaults::default();
    let mut t = Table::new(
        "Fig. 2(d) — per-participant computation vs h  (n=25, m=10, d1=15)",
        &["h", "l", "ECC-160", "DL-1024", "SS"],
    );
    for h in [10u32, 15, 20, 25, 30, 35] {
        let l = bit_length(d.m, d.d1, d.d2, h);
        t.row(vec![
            h.to_string(),
            l.to_string(),
            fmt_duration(framework_participant_time(cal, GroupKind::Ecc160, d.n, l)),
            fmt_duration(framework_participant_time(cal, GroupKind::Dl1024, d.n, l)),
            fmt_duration(ss_participant_time(cal, d.n, l)),
        ]);
    }
    t.note("h adds to l linearly, exactly like d1");
    println!("{}", t.render());
}

/// Fig. 3(a): equivalent security levels at n = 70.
fn fig3a(cal: &Calibration) {
    let d = PaperDefaults::default();
    let l = d.l();
    let n = 70usize;
    let mut t = Table::new(
        "Fig. 3(a) — per-participant computation vs security level (n=70)",
        &["level", "DL", "ECC", "DL/ECC"],
    );
    for level in SecurityLevel::all() {
        let dl = framework_participant_time(cal, level.dl(), n, l);
        let ecc = framework_participant_time(cal, level.ecc(), n, l);
        t.row(vec![
            level.to_string(),
            fmt_duration(dl),
            fmt_duration(ecc),
            format!("{:.1}×", dl.as_secs_f64() / ecc.as_secs_f64()),
        ]);
    }
    t.note("paper shape: ECC advantage widens as the level rises");
    println!("{}", t.render());
}

/// Fig. 3(b): per-participant *execution* time (computation + network)
/// on the simulated network — the paper's y-axis.
fn fig3b(cal: &Calibration) {
    let d = PaperDefaults::default();
    let l = d.l();
    let mut t = Table::new(
        "Fig. 3(b) — execution time (compute + network) on the 80-node/320-edge 2 Mbps/50 ms network",
        &["n", "ECC-160", "DL-1024", "SS (batched)", "SS (unbatched)", "ECC bytes", "DL bytes"],
    );
    for n in [5usize, 10, 20, 30, 40, 50, 60, 70] {
        let sim = NetworkSim::paper_setup(n + 1, 7);
        let ecc_trace = traces::framework_trace(GroupKind::Ecc160, n, l, d.m, d.t, 3);
        let dl_trace = traces::framework_trace(GroupKind::Dl1024, n, l, d.m, d.t, 3);
        let ss_b = traces::ss_trace(n, l, d.m, d.t);
        let ss_u = traces::ss_trace_unbatched(n, l, d.m, d.t);
        let ecc = sim
            .simulate(&ecc_trace)
            .expect("trace is well formed")
            .completion_s
            + framework_participant_time(cal, GroupKind::Ecc160, n, l).as_secs_f64();
        let dl = sim
            .simulate(&dl_trace)
            .expect("trace is well formed")
            .completion_s
            + framework_participant_time(cal, GroupKind::Dl1024, n, l).as_secs_f64();
        let ss_compute = ss_participant_time(cal, n, l).as_secs_f64();
        let ss_batched = sim
            .simulate(&ss_b)
            .expect("trace is well formed")
            .completion_s
            + ss_compute;
        let ss_unbatched = sim
            .simulate(&ss_u)
            .expect("trace is well formed")
            .completion_s
            + ss_compute;
        t.row(vec![
            n.to_string(),
            fmt_duration(std::time::Duration::from_secs_f64(ecc)),
            fmt_duration(std::time::Duration::from_secs_f64(dl)),
            fmt_duration(std::time::Duration::from_secs_f64(ss_batched)),
            fmt_duration(std::time::Duration::from_secs_f64(ss_unbatched)),
            fmt_bytes(traces::trace_bytes(&ecc_trace)),
            fmt_bytes(traces::trace_bytes(&dl_trace)),
        ]);
    }
    t.note("ECC best everywhere (paper ✓); the two SS columns bracket the paper's SS curve:");
    t.note("  batched = mult sub-messages pipelined (SS beats DL at small n, paper ✓);");
    t.note("  unbatched = every mult ships shares (SS behind DL at large n, paper ✓). See EXPERIMENTS.md.");
    println!("{}", t.render());
}

/// The Sec. VI-B complexity comparison; it needs no calibration.
fn analysis_table() {
    let d = PaperDefaults::default();
    let l = d.l();
    let lambda = 160usize;
    let mut t = Table::new(
        "Sec. VI-B — asymptotic cost comparison (concrete counts)",
        &[
            "n",
            "ours: group mults",
            "ours: rounds",
            "SS: int mults",
            "SS: rounds",
        ],
    );
    for n in [10usize, 25, 45, 70] {
        t.row(vec![
            n.to_string(),
            cost::framework_group_mults(n, l, lambda).to_string(),
            WireModel::session(GroupKind::Ecc160, n, l, d.m, d.t)
                .rounds()
                .to_string(),
            cost::ss_sort_int_mults(n, l).to_string(),
            cost::ss_sort_rounds(n, l).to_string(),
        ]);
    }
    t.note("ours: O(l²n + ln²λ) mults, O(n) rounds; SS: O(l·t·n²(log n)³) mults, O((279l+5)·n·(log n)²) rounds");
    let mut ops = Table::new(
        format!("participant exponentiation breakdown (n=25, l={l})"),
        &["phase", "exps"],
    );
    let b = analysis::participant_ops(25, l);
    ops.row(vec!["setup (keys+ZKP)".into(), b.setup_exps.to_string()]);
    ops.row(vec!["bit encryption".into(), b.encrypt_exps.to_string()]);
    ops.row(vec!["comparisons".into(), b.compare_exps.to_string()]);
    ops.row(vec![
        "shuffle-decrypt chain".into(),
        b.chain_exps.to_string(),
    ]);
    ops.row(vec!["final decryption".into(), b.final_exps.to_string()]);
    ops.row(vec!["total".into(), b.total().to_string()]);
    println!("{}", t.render());
    println!("{}", ops.render());
}
