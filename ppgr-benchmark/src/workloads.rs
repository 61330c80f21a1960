//! The four workloads: what each runs, and the numbers it takes away.
//!
//! Every workload reports the same end-to-end metrics (untraced run) and
//! the same per-layer metrics (traced run), so the two sets of results can
//! be compared workload by workload. Numbers that only one workload has —
//! the service's per-rate figures, the mesh runner's blame latency — are
//! printed as extra lines.

use crate::check::{self, check_gain_order, expected_top_k, plaintext_gains, Stepped};
use crate::openloop::{self, ratio, Rate, Target};
use crate::probe;
use crate::speed;
use crate::stats::{median, percentile, self_time_ns, tail_percentile, Trace};
use ppgr_core::{
    run_distributed_with, DistributedConfig, FrameworkParams, Outcome, Questionnaire, SortOptions,
};
use ppgr_group::GroupKind;
use ppgr_hash::{HashDrbg, Sha256};
use ppgr_net::{FaultPlan, MetricsSnapshot, Phase};
use ppgr_service::{Service, ServiceConfig, ServiceHandle};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload drives the program.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Kind {
    /// One client, one session at a time, stepped in memory.
    Solo,
    /// Sessions through the sharded service front door: waves, then an
    /// open-loop sweep.
    Service,
    /// The thread-per-party runner, with crash and in-memory lanes.
    Mesh,
}

/// One workload: a set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// How sessions are driven.
    pub kind: Kind,
    /// The group instantiation.
    pub group: GroupKind,
    /// Participants per session (3 under `--smoke`).
    pub n: usize,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo-ecc160",
        kind: Kind::Solo,
        group: GroupKind::Ecc160,
        n: 8,
    },
    Workload {
        name: "solo-dl1024",
        kind: Kind::Solo,
        group: GroupKind::Dl1024,
        n: 3,
    },
    Workload {
        name: "service-open",
        kind: Kind::Service,
        group: GroupKind::Ecc160,
        n: 4,
    },
    Workload {
        name: "mesh-ecc160",
        kind: Kind::Mesh,
        group: GroupKind::Ecc160,
        n: 4,
    },
];

/// The benchmark's session parameters: the same shape every existing
/// bench binary uses (one equal-to and two greater-than attributes,
/// 6/3/6 attribute/weight/mask bits, so l = 25), top-2.
pub fn params(group: GroupKind, n: usize, seed: u64) -> FrameworkParams {
    FrameworkParams::builder(Questionnaire::synthetic(1, 2))
        .participants(n)
        .top_k(2.min(n))
        .attr_bits(6)
        .weight_bits(3)
        .mask_bits(6)
        .group(group)
        .seed(seed)
        .build()
        .expect("the benchmark's fixed parameters are valid")
}

/// A session seed derived from the run seed, the workload, the lane and
/// the session's index, so no two sessions of a run share inputs and the
/// same `--seed` always produces the same sessions.
pub fn derive_seed(seed: u64, workload: &str, lane: &str, index: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(b"ppgr-benchmark/v1\0");
    h.update(&seed.to_le_bytes());
    h.update(workload.as_bytes());
    h.update(b"\0");
    h.update(lane.as_bytes());
    h.update(b"\0");
    h.update(&index.to_le_bytes());
    let digest = h.finalize();
    let mut word = [0u8; 8];
    word.copy_from_slice(&digest[..8]);
    u64::from_le_bytes(word)
}

/// One run's settings and, when traced, its spans.
pub struct Ctx {
    /// The workload being run.
    pub workload: Workload,
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Nominal measured seconds (`--seconds`).
    pub seconds: f64,
    /// Minimum sizes, for the smoke test.
    pub smoke: bool,
    /// Spans, in a traced run.
    pub trace: Option<Trace>,
    /// The workload span every other span descends from.
    pub root: usize,
}

impl Ctx {
    /// Participants per session.
    pub fn n(&self) -> usize {
        if self.smoke {
            3
        } else {
            self.workload.n
        }
    }

    /// The parameters of session `index` of `lane`.
    pub fn params(&self, lane: &str, index: usize) -> FrameworkParams {
        let seed = derive_seed(self.seed, self.workload.name, lane, index as u64);
        params(self.workload.group, self.n(), seed)
    }

    /// Session count for a lane sized at `per_second` sessions per nominal
    /// second. Counts, not deadlines, bound each lane, so a seed always
    /// yields the same inputs whatever the host's speed.
    fn count(&self, per_second: f64, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((per_second * self.seconds).round() as usize).max(1)
        }
    }
}

/// One printed number.
#[derive(Clone, Debug, PartialEq)]
pub struct Extra {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Sessions checked.
    pub attempted: u64,
    /// Sessions that errored or produced a wrong result.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Values of the metrics listed in `BENCHMARK.json`.
    pub values: BTreeMap<String, f64>,
    /// Numbers specific to this workload, printed only.
    pub extras: Vec<Extra>,
    /// Every host-speed factor applied (see [`speed`]).
    pub factors: Vec<f64>,
}

impl Measured {
    /// Counts one checked session.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push(Extra {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Median and tail of the session latencies (rescaled to the reference
    /// speed) as the end-to-end metrics, with the unscaled median beside.
    fn latency(&mut self, latencies_ms: &[f64], raw_ms: &[f64]) {
        let p = tail_percentile(latencies_ms.len());
        self.set("session_p50_ms", median(latencies_ms));
        self.set(
            "session_tail_ms",
            percentile(latencies_ms, p).unwrap_or(0.0),
        );
        self.extra("session_tail_percentile", f64::from(p), "pct");
        self.extra("session_samples", latencies_ms.len() as f64, "count");
        self.extra("session_p50_raw_ms", median(raw_ms), "ms");
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        workers_per_shard: speed::cores(),
        max_in_flight: 16,
        verify_batch: 4,
        ..ServiceConfig::default()
    }
}

/// Everything before the first timed session: the group's tables, the
/// service (returned, for the service workload) and one untimed, checked
/// warm-up session down the workload's own path.
pub fn setup(ctx: &Ctx) -> Result<Option<Service>, String> {
    let group = ctx.workload.group.group();
    black_box(group.exp_gen(&group.scalar_from_u64(3)));
    let warm = ctx.params("warmup", 0);
    match ctx.workload.kind {
        Kind::Solo => {
            check::run_stepped(&warm, SortOptions::default(), None, None)?;
            Ok(None)
        }
        Kind::Service => {
            let service = Service::new(service_config());
            let outcome = service
                .submit(u64::MAX, warm.clone())
                .map_err(|e| format!("warm-up shed: {e}"))?
                .join()
                .map_err(|e| format!("warm-up: {e}"))?;
            check::check_outcome(&warm, &outcome)?;
            Ok(Some(service))
        }
        Kind::Mesh => {
            mesh_session(&warm)?;
            Ok(None)
        }
    }
}

/// Runs the measured part of the workload on what [`setup`] returned.
pub fn run(ctx: &mut Ctx, service: Option<Service>, m: &mut Measured) {
    match (ctx.workload.kind, service) {
        (Kind::Solo, _) => run_solo(ctx, m),
        (Kind::Service, Some(service)) => run_service(ctx, &service, m),
        (Kind::Mesh, _) => run_mesh(ctx, m),
        (Kind::Service, None) => m.fail("service workload set up without a service".into()),
    }
    if ctx.trace.is_some() {
        run_probes(ctx, m);
    }
    let failed_frac = ratio(m.failed as f64, m.attempted as f64);
    m.extra("failed_frac", failed_frac, "ratio");
    let speed = median(&m.factors);
    m.extra("host.speed_factor", speed, "ratio");
}

/// `(metric, traffic labels)` for the per-phase wire bytes.
const NET_PHASES: [(&str, &[&str]); 7] = [
    ("net.bytes.gain", &["gain"]),
    ("net.bytes.keygen", &["sort/keys", "sort/zkp"]),
    ("net.bytes.encrypt", &["sort/bits"]),
    ("net.bytes.compare", &["sort/collect"]),
    ("net.bytes.hop", &["sort/chain"]),
    ("net.bytes.return", &["sort/return"]),
    ("net.bytes.submit", &["submit"]),
];

/// Per-session figures read from in-memory outcomes.
#[derive(Default)]
struct OutcomeStats {
    compute_ms: Vec<f64>,
    bytes_per_participant: Vec<f64>,
    net: BTreeMap<&'static str, Vec<f64>>,
}

impl OutcomeStats {
    /// Records one outcome; `factor` rescales its timings to the
    /// reference speed.
    fn add(&mut self, outcome: &Outcome, n: usize, factor: f64) {
        self.compute_ms
            .push(ms(outcome.timings().mean_participant_total()) * factor);
        let traffic = outcome.traffic();
        let sent: u64 = (1..=n)
            .map(|p| traffic.bytes_sent_by_party.get(&p).copied().unwrap_or(0))
            .sum();
        self.bytes_per_participant.push(sent as f64 / n as f64);
        for (metric, labels) in NET_PHASES {
            let bytes: u64 = labels
                .iter()
                .map(|l| traffic.bytes_by_phase.get(l).copied().unwrap_or(0))
                .sum();
            self.net.entry(metric).or_default().push(bytes as f64);
        }
        self.net
            .entry("net.messages")
            .or_default()
            .push(traffic.messages as f64);
        self.net
            .entry("net.rounds")
            .or_default()
            .push(f64::from(traffic.rounds));
    }

    fn end_to_end(&self, m: &mut Measured) {
        m.set("participant_compute_ms", median(&self.compute_ms));
        let bytes = &self.bytes_per_participant;
        m.set(
            "bytes_per_participant",
            ratio(bytes.iter().sum(), bytes.len() as f64),
        );
    }

    fn layers(&self, m: &mut Measured) {
        for (metric, values) in &self.net {
            m.set(metric, median(values));
        }
    }
}

/// Stepped in-memory sessions, with the host's speed sampled on `threads`
/// threads between steps. In a traced run every other session is traced
/// step by step, and the rest give the untraced baseline for the tracing
/// overhead.
struct Lane {
    threads: usize,
    /// Session times rescaled to the reference speed, and as measured.
    wall_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Traced sessions' spans, with their per-step and overall factors.
    spans: Vec<(usize, Vec<f64>, f64)>,
    runs: usize,
    outcomes: OutcomeStats,
}

impl Lane {
    fn new(threads: usize) -> Self {
        Lane {
            threads,
            wall_ms: Vec::new(),
            raw_ms: Vec::new(),
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
            spans: Vec::new(),
            runs: 0,
            outcomes: OutcomeStats::default(),
        }
    }

    fn run(
        &mut self,
        ctx: &mut Ctx,
        m: &mut Measured,
        params: &FrameworkParams,
        options: SortOptions,
        session: u64,
    ) -> Result<Outcome, String> {
        let traced = self.runs % 2 == 1;
        self.runs += 1;
        let root = ctx.root;
        let trace = ctx
            .trace
            .as_mut()
            .filter(|_| traced)
            .map(|t| (t, root, session));
        let Stepped {
            raw,
            scaled_ms,
            factor,
            step_factors,
            outcome,
            span,
        } = check::run_stepped(params, options, Some(self.threads), trace)?;
        m.factors.push(factor);
        self.wall_ms.push(scaled_ms);
        self.raw_ms.push(ms(raw));
        match span {
            Some(id) => {
                self.traced_ms.push(scaled_ms);
                self.spans.push((id, step_factors, factor));
            }
            None => self.untraced_ms.push(scaled_ms),
        }
        self.outcomes.add(&outcome, params.participants(), factor);
        Ok(outcome)
    }

    /// The `core.*`, `net.*` and `trace.*` metrics, from this lane's spans
    /// and outcomes. Each step's time is rescaled by its own factor.
    fn layers(&self, trace: &Trace, n: usize, l: usize, m: &mut Measured) {
        let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let spans = trace.spans();
        for (id, step_factors, factor) in &self.spans {
            let kids = trace.children(*id);
            // (phase, rescaled ms) of each step, in schedule order.
            let steps: Vec<(&str, f64)> = kids
                .iter()
                .filter_map(|k| k.name.strip_prefix("step:").map(|p| (p, k.duration_ns())))
                .zip(step_factors)
                .map(|((phase, ns), f)| (phase, ns as f64 / 1e6 * f))
                .collect();
            let total = |phases: &[&str]| -> f64 {
                steps
                    .iter()
                    .filter(|(p, _)| phases.contains(p))
                    .map(|(_, t)| t)
                    .sum()
            };
            let hop_ms = total(&["hop"]);
            let hop_max_ms = steps
                .iter()
                .filter(|(p, _)| *p == "hop")
                .map(|&(_, t)| t)
                .fold(0.0, f64::max);
            let driver_ms = self_time_ns(&spans[*id], &kids) as f64 / 1e6 * factor;
            let ciphertexts = (n * (n - 1) * (n - 1) * l) as f64;
            for (metric, value) in [
                ("core.offline_ms", total(&["offline", "sort-offline"])),
                ("core.gain_ms", total(&["gain"])),
                ("core.keygen_ms", total(&["keygen"])),
                ("core.encrypt_ms", total(&["encrypt"])),
                ("core.compare_ms", total(&["compare"])),
                ("core.hop_ms", hop_ms),
                ("core.hop_max_ms", hop_max_ms),
                ("core.finish_ms", total(&["finish"])),
                ("core.submit_ms", total(&["submit"])),
                ("core.driver_ms", driver_ms),
                ("core.hop_us_per_ct", hop_ms * 1e3 / ciphertexts),
            ] {
                per.entry(metric).or_default().push(value);
            }
        }
        for (metric, values) in per {
            m.set(metric, median(&values));
        }
        m.set(
            "trace.overhead_frac",
            ratio(median(&self.traced_ms), median(&self.untraced_ms)) - 1.0,
        );
        self.outcomes.layers(m);
    }
}

/// The per-layer metrics of `lane`, in a traced run.
fn lane_layers(ctx: &Ctx, lane: &Lane, m: &mut Measured) {
    if let Some(trace) = &ctx.trace {
        let l = ctx.params("session", 0).beta_bits();
        lane.layers(trace, ctx.n(), l, m);
    }
}

fn run_solo(ctx: &mut Ctx, m: &mut Measured) {
    let sessions = ctx.count(2.0, 2);
    let mut lane = Lane::new(speed::cores());
    for i in 0..sessions {
        let params = ctx.params("session", i);
        let result = lane.run(ctx, m, &params, SortOptions::default(), i as u64);
        m.check("session", result.map(drop));
    }
    m.latency(&lane.wall_ms, &lane.raw_ms);
    let busy_s: f64 = lane.wall_ms.iter().sum::<f64>() / 1e3;
    m.set("goodput_sps", ratio(lane.wall_ms.len() as f64, busy_s));
    lane.outcomes.end_to_end(m);
    lane_layers(ctx, &lane, m);
}

/// The service workload's open-loop sweep: a light rate, one near the
/// 2-core host's capacity and an overload, for 15/7.5/7.5 % of the run.
fn service_rates(ctx: &Ctx) -> Vec<Rate> {
    let stretch = |per_second: f64, share: f64| Rate {
        per_second,
        length: Duration::from_secs_f64(ctx.seconds * share),
    };
    if ctx.smoke {
        vec![Rate {
            per_second: 4.0,
            length: Duration::from_secs(1),
        }]
    } else {
        vec![
            stretch(10.0, 0.15),
            stretch(20.0, 0.075),
            stretch(40.0, 0.075),
        ]
    }
}

/// A p95 above this misses the service's latency limit.
const LATENCY_LIMIT_MS: f64 = 250.0;

/// The service under open-loop load: checks every outcome and keeps the
/// first few for the in-memory reference lane.
struct ServiceLoad<'a> {
    service: &'a Service,
    params: Vec<FrameworkParams>,
    keep: usize,
    kept: BTreeMap<usize, Outcome>,
    snapshots: Vec<MetricsSnapshot>,
    errors: Vec<String>,
}

impl Target for ServiceLoad<'_> {
    type Ticket = ServiceHandle;

    fn submit(&mut self, index: usize) -> Option<ServiceHandle> {
        self.service
            .submit(index as u64, self.params[index].clone())
            .ok()
    }

    fn is_done(&self, handle: &ServiceHandle) -> bool {
        handle.is_finished()
    }

    fn finish(&mut self, index: usize, handle: ServiceHandle) -> Result<(), String> {
        let params = &self.params[index];
        let result = handle
            .join()
            .map_err(|e| e.to_string())
            .and_then(|outcome| check::check_outcome(params, &outcome).map(|()| outcome));
        match result {
            Ok(outcome) => {
                if index < self.keep {
                    self.kept.insert(index, outcome);
                }
                Ok(())
            }
            Err(e) => {
                if self.errors.len() < 5 {
                    self.errors.push(format!("arrival {index}: {e}"));
                }
                Err(e)
            }
        }
    }

    fn on_step(&mut self, _step: usize) {
        self.snapshots.push(self.service.metrics());
    }
}

/// One wave: a batch of sessions pushed through the service with at most
/// a window of them in flight, between two host-speed samples on every
/// worker's core.
struct Wave {
    /// Each successful session's latency from its admission, in ms,
    /// rescaled to the reference speed.
    latencies_ms: Vec<f64>,
    /// The same, as measured.
    raw_ms: Vec<f64>,
    /// First admission to last completion, as measured.
    makespan: Duration,
    /// The wave's host-speed factor.
    factor: f64,
}

/// Runs `batch` (session id, parameters) as one [`Wave`] with at most
/// `window` sessions in flight, admitting the next as each completes;
/// checks every outcome and records it in `stats`.
fn wave(
    service: &Service,
    batch: &[(u64, FrameworkParams)],
    window: usize,
    m: &mut Measured,
    stats: &mut OutcomeStats,
) -> Wave {
    type Slot = Option<(Duration, Duration, Result<Outcome, String>)>;
    let workers = service_config().workers_per_shard;
    let (done, factor) = speed::around(workers, || {
        let start = Instant::now();
        let submit = |i: usize| {
            let (id, params) = &batch[i];
            let handle = service.submit(*id, params.clone());
            (start.elapsed(), handle.map_err(|e| format!("shed: {e}")))
        };
        let mut open: Vec<(usize, Duration, Result<ServiceHandle, String>)> = Vec::new();
        let mut done: Vec<Slot> = (0..batch.len()).map(|_| None).collect();
        let mut next = 0;
        // Completions are polled at least every 1 ms, so a session that
        // finishes before an earlier one is not charged its wait.
        while next < batch.len() || !open.is_empty() {
            while next < batch.len() && open.len() < window {
                let (at, handle) = submit(next);
                open.push((next, at, handle));
                next += 1;
            }
            let mut i = 0;
            while i < open.len() {
                if open[i].2.as_ref().is_ok_and(|h| !h.is_finished()) {
                    i += 1;
                    continue;
                }
                let (index, admitted, handle) = open.swap_remove(i);
                let result = handle.and_then(|h| h.join().map_err(|e| e.to_string()));
                done[index] = Some((admitted, start.elapsed(), result));
            }
            if !open.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        done
    });
    let mut out = Wave {
        latencies_ms: Vec::new(),
        raw_ms: Vec::new(),
        makespan: Duration::ZERO,
        factor,
    };
    m.factors.push(factor);
    for ((_, params), slot) in batch.iter().zip(done) {
        let Some((admitted, finished, result)) = slot else {
            continue;
        };
        out.makespan = out.makespan.max(finished);
        let result = result.and_then(|o| check::check_outcome(params, &o).map(|()| o));
        if let Ok(outcome) = &result {
            let latency = ms(finished - admitted);
            out.latencies_ms.push(latency * factor);
            out.raw_ms.push(latency);
            stats.add(outcome, params.participants(), factor);
        }
        m.check("service session", result.map(drop));
    }
    out
}

/// The service workload. Its end-to-end metrics come from waves, each
/// between two host-speed samples taken while the service is idle: waves
/// of one session per worker (latency with every core busy and nothing
/// queued) and waves that keep the in-flight window full for three
/// windows' worth of sessions (throughput at capacity, with verify
/// batching and scratch reuse at work). The
/// open-loop sweep runs too long for that — the host's speed changes
/// within it, and a sample taken beside busy workers measures their
/// contention, not the host — so its numbers are printed as workload
/// lines, rescaled by the samples around the whole sweep.
fn run_service(ctx: &mut Ctx, service: &Service, m: &mut Measured) {
    let config = service_config();
    let batch = |ctx: &Ctx, lane: &str, tag: u64, wave: usize, width: usize| {
        (wave * width..(wave + 1) * width)
            .map(|i| ((tag << 32) | i as u64, ctx.params(lane, i)))
            .collect::<Vec<_>>()
    };

    let (mut latency_ms, mut raw_ms) = (Vec::new(), Vec::new());
    let mut stats = OutcomeStats::default();
    for w in 0..ctx.count(1.5, 1) {
        let pair = batch(ctx, "paired", 1, w, config.workers_per_shard);
        let done = wave(service, &pair, pair.len(), m, &mut stats);
        latency_ms.extend(done.latencies_ms);
        raw_ms.extend(done.raw_ms);
    }
    m.latency(&latency_ms, &raw_ms);
    stats.end_to_end(m);
    let unloaded = median(&latency_ms);

    let (mut sessions, mut busy_s) = (0, 0.0);
    for w in 0..ctx.count(0.2, 1) {
        let full = batch(ctx, "full", 2, w, 3 * config.max_in_flight);
        let done = wave(
            service,
            &full,
            config.max_in_flight,
            m,
            &mut OutcomeStats::default(),
        );
        sessions += done.latencies_ms.len();
        busy_s += done.makespan.as_secs_f64() * done.factor;
    }
    m.set("goodput_sps", ratio(sessions as f64, busy_s));

    // The open-loop sweep.
    let rates = service_rates(ctx);
    let total: usize = rates.iter().map(Rate::arrivals).sum();
    let refs = ctx.count(1.0, 2).min(rates[0].arrivals());
    let mut load = ServiceLoad {
        service,
        params: (0..total).map(|i| ctx.params("arrival", i)).collect(),
        keep: refs,
        kept: BTreeMap::new(),
        snapshots: Vec::new(),
        errors: Vec::new(),
    };
    let idle = speed::sample(config.workers_per_shard);
    let (start, arrivals) = openloop::run(&mut load, &rates, Duration::from_millis(1));
    let factor = speed::factor((idle + speed::sample(config.workers_per_shard)) / 2.0);
    for a in arrivals.iter().filter(|a| !a.shed) {
        m.attempted += 1;
        if a.failed {
            m.failed += 1;
        }
    }
    m.errors.append(&mut load.errors);
    if let Some(trace) = ctx.trace.as_mut() {
        for (i, a) in arrivals.iter().enumerate() {
            if let Some(done) = a.done {
                trace.push(
                    "service.session",
                    Some(ctx.root),
                    Some(i as u64),
                    start + a.due,
                    start + done,
                );
            }
        }
    }
    m.extra("service.unloaded_ms", unloaded, "ms");
    let mut max_ok = 0.0;
    let steps = openloop::step_stats(&rates, &arrivals);
    for (i, (rate, s)) in rates.iter().zip(&steps).enumerate() {
        let tag = format!("r{}", rate.per_second);
        let (before, after) = (&load.snapshots[i], &load.snapshots[i + 1]);
        let flushes = after.verify_flushes - before.verify_flushes;
        let batched = after.verify_batched_sessions - before.verify_batched_sessions;
        let (p50, p95) = (s.p50_ms() * factor, s.p95_ms() * factor);
        m.extra(format!("service.p50_ms.{tag}"), p50, "ms");
        m.extra(format!("service.p95_ms.{tag}"), p95, "ms");
        m.extra(format!("service.queue_wait_ms.{tag}"), p50 - unloaded, "ms");
        m.extra(
            format!("service.shed_frac.{tag}"),
            ratio(s.shed as f64, s.offered as f64),
            "ratio",
        );
        m.extra(
            format!("service.completed_sps.{tag}"),
            s.completed_per_s / factor,
            "sessions/s",
        );
        m.extra(
            format!("runtime.verify_sessions_per_flush.{tag}"),
            ratio(batched as f64, flushes as f64),
            "sessions",
        );
        m.extra(format!("gen.late_max_ms.{tag}"), s.late_max_ms, "ms");
        if p95 <= LATENCY_LIMIT_MS && s.shed == 0 && s.ok_frac() >= 0.97 {
            max_ok = rate.per_second;
        }
    }
    m.extra("max_ok_rate_sps", max_ok, "sessions/s");
    m.extra("service.sweep_speed_factor", factor, "ratio");
    let end = service.metrics();
    m.extra(
        "runtime.scratch_reuse_frac",
        ratio(end.scratch_reused as f64, end.sessions_admitted as f64),
        "ratio",
    );
    for cache in &end.caches {
        m.extra(
            format!("group.comb_hit_frac.{}", cache.label.replace('/', ".")),
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        );
    }

    // In-memory reference lane: the first arrivals replayed solo must be
    // bit-identical to what the service returned.
    let mut lane = Lane::new(1);
    let options = SortOptions {
        threads: 1,
        ..SortOptions::default()
    };
    for i in 0..refs {
        let Some(served) = load.kept.get(&i) else {
            continue;
        };
        let params = load.params[i].clone();
        let result = lane
            .run(ctx, m, &params, options, i as u64)
            .and_then(|solo| {
                if solo.ranks() == served.ranks() && solo.traffic() == served.traffic() {
                    Ok(())
                } else {
                    Err("service outcome differs from its solo replay".to_string())
                }
            });
        m.check("reference session", result);
    }
    lane_layers(ctx, &lane, m);
}

/// Fault-free mesh session: the outcome's ranks follow the plaintext gain
/// order and the initiator accepted exactly the top k.
fn mesh_session(params: &FrameworkParams) -> Result<Vec<usize>, String> {
    let (profile, infos) = params.random_population(&mut HashDrbg::seed_from_u64(params.seed()));
    let outcome = run_distributed_with(params, profile, infos, DistributedConfig::default())
        .map_err(|f| format!("fault-free mesh session failed: {f}"))?;
    check_gain_order(&plaintext_gains(params), &outcome.ranks)?;
    let want = expected_top_k(&outcome.ranks, params.top_k());
    if !outcome.report.is_clean() || outcome.report.accepted.len() != want {
        return Err(format!(
            "initiator accepted {} submissions ({} flags), expected {want}",
            outcome.report.accepted.len(),
            outcome.report.flags.len()
        ));
    }
    Ok(outcome.ranks)
}

/// The mesh workload's interleaving of its three lanes: fault-free (F),
/// crash-stop (C) and in-memory reference (R) sessions, 10:3:2.
const MESH_CYCLE: &str = "FFFFFCRFFFFFCRC";
const MESH_SMOKE: &str = "FRCFR";

fn run_mesh(ctx: &mut Ctx, m: &mut Measured) {
    let (cycles, pattern) = if ctx.smoke {
        (1, MESH_SMOKE)
    } else {
        (ctx.count(0.4, 1), MESH_CYCLE)
    };
    let n = ctx.n();
    // The n + 1 party threads share the host's cores.
    let cores = speed::cores();
    let (mut mesh_ms, mut mesh_raw_ms, mut blame_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut lane = Lane::new(1);
    let reference = SortOptions {
        threads: 1,
        ..SortOptions::default()
    };
    let mut last: Option<(FrameworkParams, Vec<usize>)> = None;
    let (mut f, mut c) = (0, 0);
    for lane_kind in pattern.chars().cycle().take(cycles * pattern.len()) {
        match lane_kind {
            'F' => {
                let params = ctx.params("mesh", f);
                let ((result, start, end), factor) = speed::around(cores, || {
                    let start = Instant::now();
                    (mesh_session(&params), start, Instant::now())
                });
                if let Some(trace) = ctx.trace.as_mut() {
                    trace.push("mesh.run", Some(ctx.root), Some(f as u64), start, end);
                }
                if let Ok(ranks) = &result {
                    m.factors.push(factor);
                    mesh_ms.push(ms(end - start) * factor);
                    mesh_raw_ms.push(ms(end - start));
                    last = Some((params, ranks.clone()));
                }
                m.check("mesh session", result.map(drop));
                f += 1;
            }
            'C' => {
                let params = ctx.params("crash", c);
                let pick = derive_seed(ctx.seed, ctx.workload.name, "culprit", c as u64);
                let culprit = 1 + (pick % n as u64) as usize;
                let phase = Phase::ALL[((pick >> 32) % Phase::ALL.len() as u64) as usize];
                let (profile, infos) =
                    params.random_population(&mut HashDrbg::seed_from_u64(params.seed()));
                let config = DistributedConfig {
                    faults: Some(Arc::new(FaultPlan::new().crash_stop(culprit, phase))),
                    ..DistributedConfig::default()
                };
                let ((result, start, end), factor) = speed::around(cores, || {
                    let start = Instant::now();
                    let result = run_distributed_with(&params, profile, infos, config);
                    (result, start, Instant::now())
                });
                if let Some(trace) = ctx.trace.as_mut() {
                    trace.push("mesh.blame", Some(ctx.root), Some(c as u64), start, end);
                }
                blame_ms.push(ms(end - start) * factor);
                let verdict = match result {
                    Ok(_) => Err(format!(
                        "party {culprit} crashed at {phase} but the session passed"
                    )),
                    Err(failure) if failure.primary.blamed() == culprit => Ok(()),
                    Err(failure) => Err(format!(
                        "party {culprit} crashed at {phase}, blamed {}",
                        failure.primary.blamed()
                    )),
                };
                m.check("crash session", verdict);
                c += 1;
            }
            _ => {
                // Replays the last fault-free mesh session's seed in memory.
                let Some((params, mesh_ranks)) = last.take() else {
                    continue;
                };
                let gains = plaintext_gains(&params);
                let distinct = gains
                    .iter()
                    .enumerate()
                    .all(|(i, g)| !gains[..i].contains(g));
                let result = lane
                    .run(ctx, m, &params, reference, lane.runs as u64)
                    .and_then(|o| {
                        if distinct && o.ranks() != mesh_ranks.as_slice() {
                            Err(format!(
                                "mesh ranks {mesh_ranks:?} differ from in-memory {:?}",
                                o.ranks()
                            ))
                        } else {
                            Ok(())
                        }
                    });
                m.check("reference session", result);
            }
        }
    }
    let mesh_total_s: f64 = mesh_ms.iter().sum::<f64>() / 1e3;
    m.latency(&mesh_ms, &mesh_raw_ms);
    m.set("goodput_sps", ratio(mesh_ms.len() as f64, mesh_total_s));
    // The mesh runner reports neither per-party time nor traffic; both come
    // from the in-memory replays of the same seeds.
    lane.outcomes.end_to_end(m);
    let inmem = median(&lane.wall_ms);
    m.extra("blame_p50_ms", median(&blame_ms), "ms");
    m.extra(
        "mesh.blame_max_ms",
        blame_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.extra("mesh.inmem_p50_ms", inmem, "ms");
    m.extra("mesh.overhead_ms", median(&mesh_ms) - inmem, "ms");
    lane_layers(ctx, &lane, m);
}

/// Kernel probes on the workload's group (traced runs only).
fn run_probes(ctx: &mut Ctx, m: &mut Measured) {
    let calls = if ctx.smoke { 5 } else { 200 };
    let n = ctx.n();
    let seed = derive_seed(ctx.seed, ctx.workload.name, "probe", 0);
    let group = ctx.workload.group.group();
    let root = ctx.root;
    let Some(trace) = ctx.trace.as_mut() else {
        return;
    };
    let (k, factor) = speed::around(1, || probe::kernels(&group, n, calls, seed, trace, root));
    m.factors.push(factor);
    m.check(
        "batch verification probe",
        if k.verified {
            Ok(())
        } else {
            Err("honest proofs rejected".to_string())
        },
    );
    m.set("group.exp_var_us", k.exp_var_us * factor);
    m.set("group.exp_fixed_us", k.exp_fixed_us * factor);
    m.set("group.msm_term_us", k.msm_term_us * factor);
    m.set("group.op_us", k.op_us * factor);
    m.set("zkp.verify_us_per_proof", k.verify_us_per_proof * factor);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_every_input() {
        let base = derive_seed(1, "solo-ecc160", "session", 0);
        assert_eq!(base, derive_seed(1, "solo-ecc160", "session", 0));
        for other in [
            derive_seed(2, "solo-ecc160", "session", 0),
            derive_seed(1, "solo-dl1024", "session", 0),
            derive_seed(1, "solo-ecc160", "warmup", 0),
            derive_seed(1, "solo-ecc160", "session", 1),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn mesh_cycles_mix_the_lanes_ten_three_two() {
        let count = |p: &str, c| p.chars().filter(|&x| x == c).count();
        assert_eq!(
            (
                count(MESH_CYCLE, 'F'),
                count(MESH_CYCLE, 'C'),
                count(MESH_CYCLE, 'R')
            ),
            (10, 3, 2)
        );
        // Every replay follows a fault-free session it can replay.
        for p in [MESH_CYCLE, MESH_SMOKE] {
            assert!(p.find('F') < p.find('R'));
        }
    }
}
