//! A one-thread open-loop load generator: sessions arrive on a fixed
//! schedule whether or not earlier ones have finished, and each is timed
//! from when it was due, so a stall is charged to every session it delays.

use crate::stats::{median, percentile};
use std::time::{Duration, Instant};

/// The system under load, as the generator sees it.
pub trait Target {
    /// A claim on an admitted session.
    type Ticket;
    /// Submits arrival `index`; `None` when the target sheds it.
    fn submit(&mut self, index: usize) -> Option<Self::Ticket>;
    /// Whether the session behind `ticket` has resolved (must not block).
    fn is_done(&self, ticket: &Self::Ticket) -> bool;
    /// Collects a resolved session; `Err` when it failed or was wrong.
    fn finish(&mut self, index: usize, ticket: Self::Ticket) -> Result<(), String>;
    /// Called as rate `step` begins, and with `step == rates.len()` once
    /// every session has resolved.
    fn on_step(&mut self, _step: usize) {}
}

/// One constant-rate stretch of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rate {
    /// Arrivals per second.
    pub per_second: f64,
    /// How long the rate is offered.
    pub length: Duration,
}

impl Rate {
    /// Arrivals this stretch offers.
    pub fn arrivals(&self) -> usize {
        (self.per_second * self.length.as_secs_f64()).round() as usize
    }
}

/// What happened to one arrival. Times are offsets from the schedule start.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Index into the schedule's rates.
    pub step: usize,
    /// When the arrival was due.
    pub due: Duration,
    /// When the generator actually submitted it.
    pub sent: Duration,
    /// When the generator saw it resolve (`None` if shed).
    pub done: Option<Duration>,
    /// The target refused it.
    pub shed: bool,
    /// It resolved with an error or a wrong result.
    pub failed: bool,
}

impl Arrival {
    /// Latency from the due time, for admitted arrivals.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }
}

/// Runs the whole schedule against `target`, polling for completions at
/// least every `poll`, then waits for every admitted session to resolve.
/// Returns the schedule's start and what happened to each arrival.
pub fn run<T: Target>(target: &mut T, rates: &[Rate], poll: Duration) -> (Instant, Vec<Arrival>) {
    let start = Instant::now();
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut pending: Vec<(usize, T::Ticket)> = Vec::new();
    let mut offset = Duration::ZERO;
    for (step, rate) in rates.iter().enumerate() {
        target.on_step(step);
        for k in 0..rate.arrivals() {
            let due = offset + Duration::from_secs_f64(k as f64 / rate.per_second);
            loop {
                reap(target, &mut pending, &mut arrivals, start);
                let now = start.elapsed();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(poll));
            }
            let index = arrivals.len();
            let sent = start.elapsed();
            let ticket = target.submit(index);
            arrivals.push(Arrival {
                step,
                due,
                sent,
                done: None,
                shed: ticket.is_none(),
                failed: false,
            });
            if let Some(ticket) = ticket {
                pending.push((index, ticket));
            }
        }
        offset += rate.length;
    }
    while !pending.is_empty() {
        reap(target, &mut pending, &mut arrivals, start);
        if !pending.is_empty() {
            std::thread::sleep(poll);
        }
    }
    target.on_step(rates.len());
    (start, arrivals)
}

/// Collects every pending session that has resolved.
fn reap<T: Target>(
    target: &mut T,
    pending: &mut Vec<(usize, T::Ticket)>,
    arrivals: &mut [Arrival],
    start: Instant,
) {
    let mut i = 0;
    while i < pending.len() {
        if target.is_done(&pending[i].1) {
            let (index, ticket) = pending.swap_remove(i);
            arrivals[index].done = Some(start.elapsed());
            arrivals[index].failed = target.finish(index, ticket).is_err();
        } else {
            i += 1;
        }
    }
}

/// The numbers one rate of the schedule produced.
#[derive(Clone, Debug, PartialEq)]
pub struct StepStats {
    /// Arrivals offered.
    pub offered: usize,
    /// Arrivals shed at admission.
    pub shed: usize,
    /// Admitted arrivals that failed.
    pub failed: usize,
    /// Latencies (ms, from due time) of admitted arrivals that succeeded.
    pub latencies_ms: Vec<f64>,
    /// Sessions that resolved successfully while this rate was offered,
    /// per second of the stretch.
    pub completed_per_s: f64,
    /// How far behind schedule the generator submitted, at worst (ms).
    pub late_max_ms: f64,
}

impl StepStats {
    /// Median latency (ms).
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// 95th-percentile latency (ms); `0.0` when nothing completed.
    pub fn p95_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 95).unwrap_or(0.0)
    }

    /// Share of offered arrivals that completed successfully.
    pub fn ok_frac(&self) -> f64 {
        ratio(self.latencies_ms.len() as f64, self.offered as f64)
    }
}

/// Splits `arrivals` back into per-rate statistics.
pub fn step_stats(rates: &[Rate], arrivals: &[Arrival]) -> Vec<StepStats> {
    let mut window_start = Duration::ZERO;
    rates
        .iter()
        .enumerate()
        .map(|(step, rate)| {
            let window_end = window_start + rate.length;
            let mine: Vec<&Arrival> = arrivals.iter().filter(|a| a.step == step).collect();
            let completed = arrivals
                .iter()
                .filter(|a| {
                    !a.failed && a.done.is_some_and(|d| d >= window_start && d < window_end)
                })
                .count();
            window_start = window_end;
            StepStats {
                offered: mine.len(),
                shed: mine.iter().filter(|a| a.shed).count(),
                failed: mine.iter().filter(|a| a.failed).count(),
                latencies_ms: mine
                    .iter()
                    .filter(|a| !a.failed)
                    .filter_map(|a| a.latency())
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect(),
                completed_per_s: ratio(completed as f64, rate.length.as_secs_f64()),
                late_max_ms: mine
                    .iter()
                    .map(|a| a.sent.saturating_sub(a.due).as_secs_f64() * 1e3)
                    .fold(0.0, f64::max),
            }
        })
        .collect()
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A FIFO server with 1 ms of work per session, whose first session's
    /// collection blocks the generator for `stall`.
    struct Stalling {
        free_at: Instant,
        stall: Duration,
    }

    impl Target for Stalling {
        type Ticket = Instant;

        fn submit(&mut self, _index: usize) -> Option<Instant> {
            self.free_at = self.free_at.max(Instant::now()) + Duration::from_millis(1);
            Some(self.free_at)
        }

        fn is_done(&self, ready: &Instant) -> bool {
            Instant::now() >= *ready
        }

        fn finish(&mut self, index: usize, _ready: Instant) -> Result<(), String> {
            if index == 0 {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }
    }

    #[test]
    fn a_stalled_completion_is_charged_to_later_sessions_from_their_due_times() {
        let stall = Duration::from_millis(60);
        let mut target = Stalling {
            free_at: Instant::now(),
            stall,
        };
        // 200/s for 100 ms: arrivals due every 5 ms.
        let rates = [Rate {
            per_second: 200.0,
            length: Duration::from_millis(100),
        }];
        let (_, arrivals) = run(&mut target, &rates, Duration::from_millis(1));
        assert_eq!(arrivals.len(), 20);
        // Session 0 resolves at ≥ 1 ms and its collection holds the one
        // generator thread until ≥ 61 ms: every session due before then
        // is sent late, and its latency counts from its due time.
        let blocked_until = Duration::from_millis(61);
        let mut charged = 0;
        for a in &arrivals[1..] {
            assert!(!a.shed && !a.failed);
            let latency = a.latency().expect("every session resolves");
            if a.due < blocked_until {
                assert!(a.sent >= blocked_until, "due {:?} sent {:?}", a.due, a.sent);
                assert!(latency >= blocked_until - a.due);
                charged += 1;
            }
            assert!(latency >= Duration::from_millis(1));
        }
        assert!(charged >= 11, "sessions due at 5..60 ms wait for the stall");
        let stats = step_stats(&rates, &arrivals);
        assert_eq!(stats[0].offered, 20);
        assert!(stats[0].late_max_ms >= 55.0);
        // Twelve of twenty arrivals queued behind the stall, so it shows
        // in the median, not only in the tail.
        assert!(stats[0].p50_ms() >= 10.0);
    }

    #[test]
    fn step_stats_split_by_rate_and_count_sheds_and_failures() {
        let ms = Duration::from_millis;
        let rates = [
            Rate {
                per_second: 10.0,
                length: ms(200),
            },
            Rate {
                per_second: 20.0,
                length: ms(100),
            },
        ];
        let arrival = |step, due, done: Option<u64>, shed, failed| Arrival {
            step,
            due: ms(due),
            sent: ms(due + 1),
            done: done.map(ms),
            shed,
            failed,
        };
        let arrivals = [
            arrival(0, 0, Some(50), false, false),
            arrival(0, 100, Some(250), false, false),
            arrival(1, 200, None, true, false),
            arrival(1, 250, Some(260), false, true),
        ];
        let stats = step_stats(&rates, &arrivals);
        assert_eq!(stats[0].offered, 2);
        assert_eq!(stats[0].latencies_ms, vec![50.0, 150.0]);
        // One success resolved inside the first 200 ms window, one in the
        // second; the failed one counts in neither.
        assert_eq!(stats[0].completed_per_s, 5.0);
        assert_eq!(stats[1].completed_per_s, 10.0);
        assert_eq!((stats[1].shed, stats[1].failed), (1, 1));
        assert!(stats[1].latencies_ms.is_empty());
        assert_eq!(stats[1].ok_frac(), 0.0);
        assert_eq!(stats[0].late_max_ms, 1.0);
    }
}
