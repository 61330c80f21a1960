//! What the benchmark checks about every session it times, and the
//! stepping loop that times an in-memory session one step at a time.

use crate::speed;
use crate::stats::Trace;
use ppgr_core::sorting::plain_ranks;
use ppgr_core::{compute_gain, FrameworkParams, GroupRanking, Outcome, SortOptions};
use ppgr_hash::HashDrbg;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One step of a session's fixed schedule: the span name it is timed
/// under and the traffic labels it may record.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Step {
    /// The phase name, as used in `step:<phase>` spans.
    pub phase: &'static str,
    /// The only `TrafficLog` labels this step may add.
    pub labels: &'static [&'static str],
}

const fn step(phase: &'static str, labels: &'static [&'static str]) -> Step {
    Step { phase, labels }
}

/// The `2n + 7` steps a [`ppgr_core::SessionMachine`] takes for `n`
/// participants: offline, gain, sort-offline, keygen, encrypt, compare×n,
/// hop×n, finish, submit.
pub fn schedule(n: usize) -> Vec<Step> {
    let mut steps = vec![
        step("offline", &[]),
        step("gain", &["gain"]),
        step("sort-offline", &[]),
        step("keygen", &["sort/keys", "sort/zkp"]),
        step("encrypt", &["sort/bits"]),
    ];
    steps.extend(std::iter::repeat_n(step("compare", &["sort/collect"]), n));
    steps.extend(std::iter::repeat_n(step("hop", &["sort/chain"]), n));
    steps.push(step("finish", &["sort/return"]));
    steps.push(step("submit", &["submit"]));
    steps
}

/// The plaintext gains of the population `params` generates.
pub fn plaintext_gains(params: &FrameworkParams) -> Vec<i128> {
    let (profile, infos) = params.random_population(&mut HashDrbg::seed_from_u64(params.seed()));
    infos
        .iter()
        .map(|info| compute_gain(params.questionnaire(), &profile, info))
        .collect()
}

/// Fails if a strictly larger gain did not get a strictly better rank.
pub fn check_gain_order(gains: &[i128], ranks: &[usize]) -> Result<(), String> {
    if gains.len() != ranks.len() {
        return Err(format!("{} ranks for {} gains", ranks.len(), gains.len()));
    }
    for (a, (ga, ra)) in gains.iter().zip(ranks).enumerate() {
        for (b, (gb, rb)) in gains.iter().zip(ranks).enumerate() {
            if ga > gb && ra >= rb {
                return Err(format!(
                    "party {} (gain {ga}) ranked {ra}, not ahead of party {} (gain {gb}, rank {rb})",
                    a + 1,
                    b + 1
                ));
            }
        }
    }
    Ok(())
}

/// How many parties a correct run admits to the top `k`: those whose rank
/// is at most `k` (more than `k` only when masked gains tie).
pub fn expected_top_k(ranks: &[usize], k: usize) -> usize {
    ranks.iter().filter(|&&r| r <= k).count()
}

/// Checks an in-memory outcome: its ranks are the plaintext ranks of its
/// masked gains, they respect the plaintext gain order, and the initiator
/// accepted exactly the top-k submissions.
pub fn check_outcome(params: &FrameworkParams, outcome: &Outcome) -> Result<(), String> {
    let expected = plain_ranks(&outcome.masked_gains().betas);
    if outcome.ranks() != expected.as_slice() {
        return Err(format!(
            "ranks {:?} differ from the plaintext ranks {expected:?} of the masked gains",
            outcome.ranks()
        ));
    }
    check_gain_order(&plaintext_gains(params), outcome.ranks())?;
    let want = expected_top_k(&expected, params.top_k());
    if outcome.top_k().len() != want {
        return Err(format!(
            "{} top-k submissions accepted, expected {want}",
            outcome.top_k().len()
        ));
    }
    Ok(())
}

/// A stepped session's result.
pub struct Stepped {
    /// Time in the session itself: its steps plus the stepping loop's work
    /// between them, without the host-speed samples.
    pub raw: Duration,
    /// The same time rescaled to the reference speed, in ms: each step by
    /// the samples on either side of it, the loop's own time by their mean.
    pub scaled_ms: f64,
    /// The session's host-speed factor (`scaled_ms` over `raw`).
    pub factor: f64,
    /// Each step's host-speed factor, in schedule order.
    pub step_factors: Vec<f64>,
    /// The session's outcome.
    pub outcome: Outcome,
    /// The session's span, when traced.
    pub span: Option<usize>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one in-memory session step by step, the way
/// [`GroupRanking::run`] does, checking that it follows the fixed
/// [`schedule`] and that each step only records its own phase's traffic.
///
/// With `calibrate`, the host's speed is sampled on that many threads
/// before the first step and after every step (see [`speed`]); without,
/// every factor is 1. With a trace, the session, each step and each sample
/// become spans under `parent`.
pub fn run_stepped(
    params: &FrameworkParams,
    options: SortOptions,
    calibrate: Option<usize>,
    trace: Option<(&mut Trace, usize, u64)>,
) -> Result<Stepped, String> {
    let ranking = GroupRanking::new(params.clone()).with_random_population();
    let log = ranking.traffic_log();
    let steps = schedule(params.participants());
    let mut spans: Vec<(Instant, Instant)> = Vec::with_capacity(steps.len());
    let mut samples: Vec<(Instant, Instant)> = Vec::with_capacity(steps.len() + 1);
    let mut sample = || match calibrate {
        Some(threads) => {
            let s = Instant::now();
            let burst = speed::sample(threads);
            samples.push((s, Instant::now()));
            burst
        }
        None => speed::REFERENCE_US,
    };
    let mut step_factors = Vec::with_capacity(steps.len());
    let start = Instant::now();
    let mut before = sample();
    let build = Instant::now();
    let mut machine = ranking
        .into_machine_with(options)
        .map_err(|e| format!("machine: {e}"))?;
    let mut between = build.elapsed();
    let (mut steps_ms, mut scaled_steps_ms) = (0.0, 0.0);
    let mut seen = 0;
    for (k, step) in steps.iter().enumerate() {
        let s = Instant::now();
        let status = machine.step();
        let e = Instant::now();
        spans.push((s, e));
        let status = status.map_err(|err| format!("step {k} ({}): {err}", step.phase))?;
        let records = log.records();
        if let Some(r) = records[seen..]
            .iter()
            .find(|r| !step.labels.contains(&r.phase))
        {
            return Err(format!(
                "step {k} ({}) recorded `{}` traffic",
                step.phase, r.phase
            ));
        }
        seen = records.len();
        let last = k + 1 == steps.len();
        if machine.is_done() != last {
            return Err(format!(
                "session finished after {} steps, expected {} ({status:?})",
                k + 1,
                steps.len()
            ));
        }
        between += e.elapsed();
        let after = sample();
        let factor = speed::factor((before + after) / 2.0);
        step_factors.push(factor);
        steps_ms += ms(e - s);
        scaled_steps_ms += ms(e - s) * factor;
        before = after;
    }
    let taken = Instant::now();
    let outcome = machine
        .into_outcome()
        .ok_or_else(|| "finished machine without an outcome".to_string())?;
    let end = Instant::now();
    between += end - taken;
    let factor = if steps_ms > 0.0 {
        scaled_steps_ms / steps_ms
    } else {
        1.0
    };
    let span = trace.map(|(trace, parent, session)| {
        let id = trace.push("session", Some(parent), Some(session), start, end);
        for (step, &(s, e)) in steps.iter().zip(&spans) {
            trace.push(
                format!("step:{}", step.phase),
                Some(id),
                Some(session),
                s,
                e,
            );
        }
        for &(s, e) in &samples {
            trace.push("calibrate", Some(id), Some(session), s, e);
        }
        id
    });
    check_outcome(params, &outcome)?;
    let raw_steps: Duration = spans.iter().map(|&(s, e)| e - s).sum();
    Ok(Stepped {
        raw: raw_steps + between,
        scaled_ms: scaled_steps_ms + ms(between) * factor,
        factor,
        step_factors,
        outcome,
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_two_n_plus_seven_steps() {
        for n in 2..10 {
            let s = schedule(n);
            assert_eq!(s.len(), 2 * n + 7);
            assert_eq!(s.iter().filter(|s| s.phase == "hop").count(), n);
            assert_eq!(s.last().map(|s| s.phase), Some("submit"));
        }
    }

    #[test]
    fn gain_order_is_strict_only_for_distinct_gains() {
        assert!(check_gain_order(&[5, 3, 9], &[2, 3, 1]).is_ok());
        // Tied gains may rank either way.
        assert!(check_gain_order(&[4, 4, 1], &[2, 1, 3]).is_ok());
        assert!(check_gain_order(&[5, 3], &[2, 1]).is_err());
        assert!(check_gain_order(&[5, 3], &[1, 1]).is_err());
        assert!(check_gain_order(&[5], &[1, 2]).is_err());
        assert_eq!(expected_top_k(&[1, 2, 2, 4], 2), 3);
    }
}
