//! The front door: admission control, sharded submission, and the
//! scrape-ready metrics surface.

use crate::ring::HashRing;
use ppgr_core::{FrameworkParams, GroupRanking, Outcome, RunError, SortOptions};
use ppgr_net::{MetricsSnapshot, PhaseBudget};
use ppgr_runtime::{Runtime, RuntimeConfig, SessionHandle};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for a [`Service`].
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct ServiceConfig {
    /// Worker-group shards (`0` = 1). Each shard is an independent
    /// [`Runtime`] with its own run queue and verify collector; sessions
    /// are routed to shards by consistent hash of their session id, so a
    /// given id always lands on the same shard's queues.
    pub shards: usize,
    /// Worker threads per shard (`0` = 1). The sharded default is
    /// deliberately narrow: on one host, `shards × workers_per_shard`
    /// should not exceed the core count.
    pub workers_per_shard: usize,
    /// Bounded in-flight window per shard (`0` = unbounded). Admission
    /// sheds with [`AdmitError::Saturated`] once a shard holds this many
    /// unresolved sessions.
    pub max_in_flight: usize,
    /// Cross-session verify batch window handed to each shard's runtime
    /// ([`RuntimeConfig::verify_batch`]; `0`/`1` = no batching).
    pub verify_batch: usize,
    /// Per-phase allowances driving the admission projection. The default
    /// ([`PhaseBudget::default`]) allows 30 s per phase.
    pub budget: PhaseBudget,
    /// Admission horizon: a session whose *projected* completion — its
    /// [`PhaseBudget::session_total`] multiplied by its queue depth share —
    /// exceeds this is shed with [`AdmitError::ProjectedOverBudget`]
    /// instead of being queued to miss its deadline. `None` disables the
    /// projection check. The projection is clock-free: it reasons over
    /// budgets and queue depths only, never wall-clock timestamps.
    pub horizon: Option<Duration>,
    /// Wall-clock budget per admitted session, enforced by the shard
    /// runtime at step boundaries (`None` = unbounded).
    pub session_budget: Option<Duration>,
}

impl ServiceConfig {
    fn resolve_shards(&self) -> usize {
        self.shards.max(1)
    }

    fn resolve_workers(&self) -> usize {
        self.workers_per_shard.max(1)
    }
}

/// Why admission control refused a session. Typed so callers can
/// distinguish back-off (`Saturated`) from re-parameterize-or-retry-later
/// (`ProjectedOverBudget`) without string matching.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum AdmitError {
    /// The target shard's bounded in-flight window is full.
    Saturated {
        /// The shard the session hashed to.
        shard: usize,
        /// Unresolved sessions the shard holds.
        in_flight: usize,
        /// The configured window ([`ServiceConfig::max_in_flight`]).
        limit: usize,
    },
    /// The session's projected completion exceeds the admission horizon.
    ProjectedOverBudget {
        /// The shard the session hashed to.
        shard: usize,
        /// Budget-based completion projection at admission time.
        projected: Duration,
        /// The configured ceiling ([`ServiceConfig::horizon`]).
        horizon: Duration,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Saturated {
                shard,
                in_flight,
                limit,
            } => write!(
                f,
                "shard {shard} saturated: {in_flight} sessions in flight (limit {limit})"
            ),
            AdmitError::ProjectedOverBudget {
                shard,
                projected,
                horizon,
            } => write!(
                f,
                "shard {shard} projects completion in {projected:?}, over the {horizon:?} horizon"
            ),
        }
    }
}

impl Error for AdmitError {}

/// Monotonic service counters (relaxed atomics: telemetry, never
/// synchronization).
#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected_saturated: AtomicU64,
    rejected_deadline: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    wire_messages: AtomicU64,
    wire_bytes: AtomicU64,
}

/// One worker-group shard: an independent runtime plus its in-flight count.
struct Shard {
    runtime: Runtime,
    in_flight: Arc<AtomicUsize>,
}

/// A claim on a session admitted through a [`Service`].
#[derive(Debug)]
pub struct ServiceHandle {
    inner: SessionHandle,
    session_id: u64,
    shard: usize,
}

impl ServiceHandle {
    /// Blocks until the session completes and returns its outcome.
    ///
    /// # Errors
    ///
    /// Whatever [`RunError`] the session produced (see
    /// [`SessionHandle::join`]).
    pub fn join(self) -> Result<Outcome, RunError> {
        self.inner.join()
    }

    /// Requests cooperative cancellation (see [`SessionHandle::cancel`]).
    pub fn cancel(&self) {
        self.inner.cancel();
    }

    /// Whether the session has already resolved (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// The session id the request was admitted under.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The shard the session was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// The ranking-as-a-service front door.
///
/// Accepts a stream of ranking-session requests, routes each by consistent
/// hash of its session id onto one of several worker-group shards, and
/// sheds load it cannot serve within budget ([`AdmitError`]). Admitted
/// sessions flow through the shard's [`Runtime`], which batches keygen
/// proof verification across concurrent sessions while keeping every
/// session's transcript bit-identical to a solo serial run: amortization
/// reorders work, never bytes.
pub struct Service {
    config: ServiceConfig,
    ring: HashRing,
    shards: Vec<Shard>,
    counters: Arc<Counters>,
}

impl Service {
    /// Starts a service per `config`: one [`Runtime`] per shard, workers
    /// pinned, verify windows armed.
    pub fn new(config: ServiceConfig) -> Self {
        let shards = config.resolve_shards();
        let shard_pool = (0..shards)
            .map(|_| Shard {
                runtime: Runtime::new(RuntimeConfig {
                    workers: config.resolve_workers(),
                    session_budget: config.session_budget,
                    verify_batch: config.verify_batch,
                    ..RuntimeConfig::default()
                }),
                in_flight: Arc::new(AtomicUsize::new(0)),
            })
            .collect();
        Service {
            ring: HashRing::new(shards),
            shards: shard_pool,
            counters: Arc::new(Counters::default()),
            config,
        }
    }

    /// The number of worker-group shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Projects how long a freshly admitted session would take to clear
    /// its shard, from budgets and queue depth alone (clock-free): the
    /// session's own phase-budget total, scaled by how many queue "waves"
    /// of already-admitted sessions (`queued_ahead` of it) must drain
    /// through the shard's workers first. An empty shard projects exactly
    /// one `session_total`.
    fn projected_completion(&self, queued_ahead: usize, participants: usize) -> Duration {
        let workers = self.config.resolve_workers();
        let waves = (queued_ahead / workers).saturating_add(1);
        self.config
            .budget
            .session_total(participants)
            .saturating_mul(u32::try_from(waves).unwrap_or(u32::MAX))
    }

    /// Admits (or sheds) one ranking-session request.
    ///
    /// `session_id` is the caller's stable identifier for the request —
    /// it picks the shard (consistent hash), so retries of the same id
    /// land on the same run queues. The session itself is seeded by
    /// `params` exactly as a solo [`GroupRanking`] run would be.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Saturated`] when the target shard's in-flight window
    /// is full; [`AdmitError::ProjectedOverBudget`] when the budget
    /// projection exceeds the configured horizon. Shed sessions consume no
    /// worker time and leave no state behind.
    pub fn submit(
        &self,
        session_id: u64,
        params: FrameworkParams,
    ) -> Result<ServiceHandle, AdmitError> {
        let shard = self.ring.route(session_id);
        let target = &self.shards[shard];
        // Reserve the in-flight slot optimistically; shed paths release it.
        // The reservation (not a read-then-add) keeps concurrent submitters
        // from both slipping under the window.
        let prior = target.in_flight.fetch_add(1, Ordering::AcqRel);
        if self.config.max_in_flight > 0 && prior >= self.config.max_in_flight {
            target.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.counters
                .rejected_saturated
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Saturated {
                shard,
                in_flight: prior,
                limit: self.config.max_in_flight,
            });
        }
        if let Some(horizon) = self.config.horizon {
            let projected = self.projected_completion(prior, params.participants());
            if projected > horizon {
                target.in_flight.fetch_sub(1, Ordering::AcqRel);
                self.counters
                    .rejected_deadline
                    .fetch_add(1, Ordering::Relaxed);
                return Err(AdmitError::ProjectedOverBudget {
                    shard,
                    projected,
                    horizon,
                });
            }
        }
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let options = SortOptions {
            threads: 1,
            ..SortOptions::default()
        };
        let machine = GroupRanking::new(params)
            .with_random_population()
            .into_machine_with(options)
            .expect("a populated ranking always builds a machine");
        let counters = Arc::clone(&self.counters);
        let in_flight = Arc::clone(&target.in_flight);
        let inner = target.runtime.submit_session_observed(
            machine,
            self.config.session_budget,
            move |result| {
                match result {
                    Ok(outcome) => {
                        counters.completed.fetch_add(1, Ordering::Relaxed);
                        let traffic = outcome.traffic();
                        counters
                            .wire_messages
                            .fetch_add(traffic.messages, Ordering::Relaxed);
                        counters
                            .wire_bytes
                            .fetch_add(traffic.total_bytes, Ordering::Relaxed);
                    }
                    Err(_) => {
                        counters.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                in_flight.fetch_sub(1, Ordering::AcqRel);
            },
        );
        Ok(ServiceHandle {
            inner,
            session_id,
            shard,
        })
    }

    /// A scrape-ready snapshot of the service's counters: admission and
    /// completion totals, per-shard aggregates of the runtimes'
    /// amortization stats and wire totals of completed sessions. The
    /// snapshot's `caches` section stays empty: joint-key comb tables are
    /// owned per session, so there is no shared cache to report.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot {
            sessions_admitted: self.counters.admitted.load(Ordering::Relaxed),
            sessions_rejected_saturated: self.counters.rejected_saturated.load(Ordering::Relaxed),
            sessions_rejected_deadline: self.counters.rejected_deadline.load(Ordering::Relaxed),
            sessions_completed: self.counters.completed.load(Ordering::Relaxed),
            sessions_failed: self.counters.failed.load(Ordering::Relaxed),
            sessions_in_flight: self
                .shards
                .iter()
                .map(|s| s.in_flight.load(Ordering::Acquire) as u64)
                .sum(),
            shards: self.shards.len() as u64,
            workers: self.shards.iter().map(|s| s.runtime.workers() as u64).sum(),
            wire_messages: self.counters.wire_messages.load(Ordering::Relaxed),
            wire_bytes: self.counters.wire_bytes.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        };
        for shard in &self.shards {
            let stats = shard.runtime.stats();
            snapshot.verify_flushes += stats.verify_flushes;
            snapshot.verify_batched_sessions += stats.verify_batched_sessions;
            snapshot.verify_batched_proofs += stats.verify_batched_proofs;
        }
        snapshot
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("shards", &self.shards.len())
            .field("workers_per_shard", &self.config.resolve_workers())
            .field("max_in_flight", &self.config.max_in_flight)
            .field("verify_batch", &self.config.verify_batch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_core::Questionnaire;
    use ppgr_group::GroupKind;

    fn small_params(n: usize, seed: u64) -> FrameworkParams {
        FrameworkParams::builder(Questionnaire::synthetic(1, 2))
            .participants(n)
            .top_k(1)
            .attr_bits(6)
            .weight_bits(3)
            .mask_bits(6)
            .group(GroupKind::Ecc160)
            .seed(seed)
            .build()
            .expect("valid params")
    }

    #[test]
    fn admitted_sessions_match_solo_runs() {
        let service = Service::new(ServiceConfig {
            shards: 2,
            workers_per_shard: 1,
            verify_batch: 3,
            ..ServiceConfig::default()
        });
        let handles: Vec<ServiceHandle> = (0..4)
            .map(|i| {
                service
                    .submit(i, small_params(3, 7000 + i))
                    .expect("admitted")
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let served = handle.join().expect("session completes");
            let solo = GroupRanking::new(small_params(3, 7000 + i as u64))
                .with_random_population()
                .run()
                .expect("solo run");
            assert_eq!(served.ranks(), solo.ranks());
            assert_eq!(served.traffic(), solo.traffic());
        }
        let m = service.metrics();
        assert_eq!(m.sessions_admitted, 4);
        assert_eq!(m.sessions_completed, 4);
        assert_eq!(m.sessions_failed, 0);
        assert_eq!(m.sessions_in_flight, 0);
        assert_eq!(m.shards, 2);
        assert_eq!(m.workers, 2);
        assert!(m.wire_messages > 0 && m.wire_bytes > 0);
    }

    #[test]
    fn same_session_id_routes_to_the_same_shard() {
        let service = Service::new(ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        });
        let a = service.submit(99, small_params(2, 1)).expect("admitted");
        let b = service.submit(99, small_params(2, 2)).expect("admitted");
        assert_eq!(a.shard(), b.shard());
        assert_eq!(a.session_id(), 99);
        a.join().expect("a");
        b.join().expect("b");
    }

    #[test]
    fn projection_sheds_sessions_over_the_horizon() {
        // A generous per-phase budget against a tiny horizon: every
        // admission projects over it, deterministically (no clock reads).
        let service = Service::new(ServiceConfig {
            budget: PhaseBudget::uniform(Duration::from_secs(1)),
            horizon: Some(Duration::from_millis(1)),
            ..ServiceConfig::default()
        });
        let err = service.submit(5, small_params(3, 50)).expect_err("shed");
        match err {
            AdmitError::ProjectedOverBudget {
                projected, horizon, ..
            } => {
                assert!(projected > horizon);
                // n = 3 ⇒ gain+keygen+encrypt+compare+submit + (n+1) hops
                // = 9 phases of 1 s on an empty shard.
                assert_eq!(projected, Duration::from_secs(9));
            }
            other => panic!("wrong rejection: {other:?}"),
        }
        let m = service.metrics();
        assert_eq!(m.sessions_admitted, 0);
        assert_eq!(m.sessions_rejected_deadline, 1);
        assert_eq!(m.sessions_in_flight, 0, "shed must release its slot");
    }

    #[test]
    fn saturation_sheds_when_the_window_is_full() {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 1,
            max_in_flight: 2,
            ..ServiceConfig::default()
        });
        // Two admitted sessions fill the window long before the single
        // worker can resolve them; the third is shed at the door.
        let a = service.submit(1, small_params(4, 60)).expect("admitted");
        let b = service.submit(2, small_params(4, 61)).expect("admitted");
        let err = service.submit(3, small_params(4, 62)).expect_err("shed");
        assert!(
            matches!(
                err,
                AdmitError::Saturated {
                    shard: 0,
                    in_flight: 2,
                    limit: 2,
                }
            ),
            "wrong rejection: {err:?}"
        );
        a.join().expect("a");
        b.join().expect("b");
        let m = service.metrics();
        assert_eq!(m.sessions_admitted, 2);
        assert_eq!(m.sessions_rejected_saturated, 1);
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.sessions_in_flight, 0);
    }

    #[test]
    fn metrics_surface_amortization_and_caches() {
        let service = Service::new(ServiceConfig {
            shards: 1,
            workers_per_shard: 2,
            verify_batch: 2,
            ..ServiceConfig::default()
        });
        let handles: Vec<ServiceHandle> = (0..4)
            .map(|i| {
                service
                    .submit(i, small_params(3, 71 + i))
                    .expect("admitted")
            })
            .collect();
        for handle in handles {
            handle.join().expect("session completes");
        }
        let m = service.metrics();
        assert_eq!(
            m.verify_batched_sessions, 4,
            "every session's keygen check must settle through the collector"
        );
        assert_eq!(m.verify_batched_proofs, 12);
        assert!(m.verify_flushes >= 1);
        // Comb tables are per session, so no shared cache is reported.
        assert!(m.caches.is_empty());
        // The snapshot serializes under the pinned contract.
        let json = m.to_json();
        for field in MetricsSnapshot::FIELDS {
            assert!(json.contains(&format!("\"{field}\"")));
        }
    }
}
