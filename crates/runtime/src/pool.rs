//! The persistent work-stealing worker pool.
//!
//! Scheduling unit = one [`SessionMachine::step`] — key generation, bit
//! encryption, one party's comparison batch, or one chain hop. A worker
//! that steps a still-pending session pushes it back onto the *back* of
//! its own deque and pops from the back too (LIFO), so the owner keeps
//! driving the same session — warm caches, no gratuitous interleaving —
//! while idle workers steal from the *front* of other workers' deques
//! (FIFO), picking up whole sessions. The chain's sequential-hop invariant
//! is preserved structurally: a session is owned by exactly one worker at
//! a time, so its steps can never run concurrently with each other.

use crate::handle::{Observer, SessionHandle, Slot};
use crate::precompute::{GroupId, PrecomputeConfig, PrecomputePool};
use ppgr_core::{
    verify_deferred_jobs, FrameworkParams, GroupRanking, KeygenVerifyJob, RunError, SessionMachine,
    SessionStatus, SortOptions,
};
use ppgr_net::Deadline;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker sleeps between steal attempts. Short against a
/// hop (milliseconds of exponentiations) but long enough not to spin.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Configuration for a [`Runtime`].
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct RuntimeConfig {
    /// Worker threads in the pool (`0` = one per available core).
    pub workers: usize,
    /// Default wall-clock budget per session (`None` = unbounded). A
    /// session past its budget is abandoned at the next step boundary
    /// with [`RunError::DeadlineExceeded`], reclaiming its worker — a
    /// wedged session cannot hold a pool thread forever.
    pub session_budget: Option<Duration>,
    /// The offline precompute pool serving
    /// [`Runtime::register_group`] / [`Runtime::submit_group`].
    pub precompute: PrecomputeConfig,
    /// Cross-session verify batch window (`0` or `1` = disabled). When
    /// `> 1`, a worker claims each session's keygen proof check
    /// ([`SessionMachine::take_pending_verify`]) and parks the session in
    /// a pool-wide collector; the collector settles up to `verify_batch`
    /// sessions at a time through one aggregate multi-exponentiation
    /// ([`ppgr_core::verify_deferred_jobs`]), with per-session blame
    /// preserved. It flushes when the window fills and whenever a worker
    /// goes idle, so a lone session is never held hostage waiting for
    /// peers. Otherwise the check is left to the session, which settles it
    /// at its next step. Verification is RNG-free and sends no bytes, so
    /// batching reorders work, never bytes: transcripts and ranks stay
    /// bit-identical to solo runs.
    pub verify_batch: usize,
}

impl RuntimeConfig {
    fn resolve_workers(self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// A session plus the mailbox its outcome is delivered to.
struct Task {
    machine: SessionMachine,
    slot: Arc<Slot>,
    /// Wall-clock expiry; checked between steps (never mid-step).
    deadline: Option<Deadline>,
}

/// A session parked in the verify collector: its claimed keygen check
/// plus the task itself, which resumes only after the check passes.
struct Parked {
    job: KeygenVerifyJob,
    task: Task,
}

/// Amortization counters, maintained with relaxed atomics (monotonic
/// telemetry, never synchronization).
#[derive(Default)]
struct Counters {
    verify_flushes: AtomicU64,
    verify_batched_sessions: AtomicU64,
    verify_batched_proofs: AtomicU64,
}

/// A point-in-time copy of a pool's cross-session amortization counters
/// ([`Runtime::stats`]).
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct RuntimeStats {
    /// Aggregate verify flushes run (batched settles of the collector).
    pub verify_flushes: u64,
    /// Sessions whose keygen checks were settled in those flushes.
    pub verify_batched_sessions: u64,
    /// Individual proofs folded into the aggregate equations.
    pub verify_batched_proofs: u64,
}

/// State shared by the submitters and every worker.
struct Shared {
    /// Global FIFO that `submit` feeds; workers drain it when their own
    /// deque is empty.
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques: owner pops LIFO (back), thieves pop FIFO (front).
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Parking lot for idle workers.
    gate: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// [`RuntimeConfig::verify_batch`].
    verify_batch: usize,
    /// Sessions parked awaiting a batched keygen verify.
    pending_verify: Mutex<Vec<Parked>>,
    stats: Counters,
}

impl Shared {
    fn inject(&self, task: Task) {
        self.injector
            .lock()
            .expect("injector mutex")
            .push_back(task);
        self.wake.notify_all();
    }
}

/// A persistent pool executing many ranking sessions concurrently.
///
/// Dropping the runtime drains it: workers finish every submitted session
/// before exiting, so handles joined after the drop still resolve.
/// Cancelled or deadline-expired sessions also resolve — with
/// [`RunError::Cancelled`] / [`RunError::DeadlineExceeded`] — so a drain
/// can never hang on a wedged session.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    session_budget: Option<Duration>,
    precompute: PrecomputePool,
}

impl Runtime {
    /// Starts a pool per `config`.
    pub fn new(config: RuntimeConfig) -> Self {
        let workers = config.resolve_workers();
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            verify_batch: config.verify_batch,
            pending_verify: Mutex::new(Vec::new()),
            stats: Counters::default(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppgr-runtime-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            shared,
            workers: handles,
            session_budget: config.session_budget,
            precompute: PrecomputePool::new(config.precompute),
        }
    }

    /// Starts a pool with exactly `workers` threads (`0` = one per core).
    pub fn with_workers(workers: usize) -> Self {
        Runtime::new(RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        })
    }

    /// The number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A point-in-time copy of the pool's cross-session amortization
    /// counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            verify_flushes: self.shared.stats.verify_flushes.load(Ordering::Relaxed),
            verify_batched_sessions: self
                .shared
                .stats
                .verify_batched_sessions
                .load(Ordering::Relaxed),
            verify_batched_proofs: self
                .shared
                .stats
                .verify_batched_proofs
                .load(Ordering::Relaxed),
        }
    }

    /// The sort options this pool builds sessions with: single-threaded,
    /// because the pool supplies the parallelism.
    fn session_options(&self) -> SortOptions {
        SortOptions { threads: 1 }
    }

    /// Submits a session for `params` with its seeded random population —
    /// the deployment shape: one call per group that wants a ranking.
    ///
    /// Each session runs single-threaded (`threads: 1`): under multi-session
    /// load the pool itself supplies the parallelism, and per-party scoped
    /// fan-out inside a session would only fight it for cores.
    pub fn submit(&self, params: FrameworkParams) -> SessionHandle {
        self.submit_ranking(GroupRanking::new(params).with_random_population())
    }

    /// Submits a session with an explicit wall-clock budget, overriding
    /// the pool default (`None` = unbounded for this session).
    pub fn submit_with_budget(
        &self,
        params: FrameworkParams,
        budget: Option<Duration>,
    ) -> SessionHandle {
        self.submit_ranking_with_budget(GroupRanking::new(params).with_random_population(), budget)
    }

    /// Submits a fully configured orchestrator (custom population etc.).
    ///
    /// Configuration errors surface on [`SessionHandle::join`], keeping the
    /// submit path non-blocking and uniform.
    pub fn submit_ranking(&self, ranking: GroupRanking) -> SessionHandle {
        self.submit_ranking_with_budget(ranking, self.session_budget)
    }

    fn submit_ranking_with_budget(
        &self,
        ranking: GroupRanking,
        budget: Option<Duration>,
    ) -> SessionHandle {
        let slot = Slot::new();
        let handle = SessionHandle {
            slot: Arc::clone(&slot),
        };
        match ranking.into_machine_with(self.session_options()) {
            Ok(machine) => {
                self.inject(Task {
                    machine,
                    slot,
                    deadline: budget.map(Deadline::after),
                });
            }
            Err(e) => slot.fill(Err(e)),
        }
        handle
    }

    /// Registers a recurring group: opens a precompute lane for its
    /// parameter template (and warms the group's generator comb table).
    /// Background refill workers immediately start stocking the lane's
    /// upcoming sessions' offline randomness.
    pub fn register_group(&self, params: FrameworkParams) -> GroupId {
        self.precompute.register(params)
    }

    /// Submits the next session of a registered group: session `k` runs
    /// with seed `base_seed + k` and, when the refill workers got there in
    /// time, starts warm from its precomputed offline stock. A session the
    /// pool could not stock in time runs cold — same transcript and ranks,
    /// only more online work.
    ///
    /// # Panics
    ///
    /// Panics if `gid` was not issued by this runtime.
    pub fn submit_group(&self, gid: GroupId) -> SessionHandle {
        let (params, stock) = self.precompute.take(gid);
        let slot = Slot::new();
        let handle = SessionHandle {
            slot: Arc::clone(&slot),
        };
        match GroupRanking::new(params)
            .with_random_population()
            .into_machine_with(self.session_options())
        {
            Ok(mut machine) => {
                if let Some(stock) = stock {
                    // The pool generated the stock for exactly this
                    // fingerprint; a rejected attach degrades to a cold
                    // (still bit-identical) run rather than an error.
                    let _ = machine.attach_offline_stock(stock);
                }
                self.inject(Task {
                    machine,
                    slot,
                    deadline: self.session_budget.map(Deadline::after),
                });
            }
            Err(e) => slot.fill(Err(e)),
        }
        handle
    }

    /// How many offline stocks are ready for group `gid` right now
    /// (between 0 and the configured precompute depth).
    ///
    /// # Panics
    ///
    /// Panics if `gid` was not issued by this runtime.
    pub fn precomputed(&self, gid: GroupId) -> usize {
        self.precompute.ready(gid)
    }

    /// Submits an already-built [`SessionMachine`] (full control over sort
    /// options; a partially stepped machine resumes where it stood).
    pub fn submit_session(&self, machine: SessionMachine) -> SessionHandle {
        self.submit_machine(machine, self.session_budget, None)
    }

    /// [`Runtime::submit_session`] with an explicit wall-clock budget and a
    /// completion observer, fired exactly once — before any joiner can see
    /// the result — with the session's outcome or error. This is the entry
    /// point for admission controllers (e.g. `ppgr-service`) that track
    /// in-flight counts: the observer runs on the worker that settles the
    /// session, whether it completed, failed, was cancelled or expired.
    pub fn submit_session_observed(
        &self,
        machine: SessionMachine,
        budget: Option<Duration>,
        on_settle: impl FnOnce(&Result<ppgr_core::Outcome, RunError>) + Send + 'static,
    ) -> SessionHandle {
        self.submit_machine(machine, budget, Some(Box::new(on_settle)))
    }

    fn submit_machine(
        &self,
        machine: SessionMachine,
        budget: Option<Duration>,
        observer: Option<Observer>,
    ) -> SessionHandle {
        let slot = Slot::new();
        if let Some(observer) = observer {
            slot.observe(observer);
        }
        let handle = SessionHandle {
            slot: Arc::clone(&slot),
        };
        self.inject(Task {
            machine,
            slot,
            deadline: budget.map(Deadline::after),
        });
        handle
    }

    fn inject(&self, task: Task) {
        self.shared.inject(task);
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new(RuntimeConfig::default())
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Refill first: a half-generated stock aborts at its next
        // cancellation poll, so the drain below never waits on offline
        // work nobody will consume.
        self.precompute.shutdown();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if let Some(mut task) = find_task(shared, me) {
            // Cancellation and deadlines are enforced at step boundaries:
            // the machine is abandoned (not interrupted), the slot resolves
            // with a typed error, and this worker moves on — a wedged or
            // unwanted session never pins a pool thread.
            if task.slot.is_cancelled() {
                task.slot.fill(Err(RunError::Cancelled));
                continue;
            }
            if task.deadline.is_some_and(|d| d.expired()) {
                task.slot.fill(Err(RunError::DeadlineExceeded));
                continue;
            }
            match task.machine.step() {
                Ok(SessionStatus::Pending) => {
                    // With a batch window, claim a parked keygen check for
                    // the collector; without one, leave it to the session's
                    // next step.
                    let job = if shared.verify_batch > 1 {
                        task.machine.take_pending_verify()
                    } else {
                        None
                    };
                    match job {
                        Some(job) => park_for_verify(shared, Parked { job, task }),
                        // Back of our own deque: we pop LIFO, so we keep
                        // driving this session unless a thief takes it
                        // first.
                        None => shared.locals[me]
                            .lock()
                            .expect("local deque mutex")
                            .push_back(task),
                    }
                }
                Ok(SessionStatus::Done) => {
                    let outcome = task.machine.into_outcome().expect("machine reported Done");
                    task.slot.fill(Ok(outcome));
                }
                Err(e) => task.slot.fill(Err(e)),
            }
            continue;
        }
        // No runnable task: settle any parked verifies before idling, so a
        // partial window never strands its sessions (and, on shutdown, the
        // drain below sees their resumed tasks).
        if flush_verify(shared) {
            continue;
        }
        // Nothing anywhere. Exit only on shutdown — and because a pending
        // task is always either in some deque, held by the worker that
        // will immediately re-enqueue it to its own deque, or parked in the
        // verify collector (flushed above), every submitted session still
        // completes before the last busy worker exits (drain-on-shutdown).
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let guard = shared.gate.lock().expect("gate mutex");
        // wait_timeout (not wait): a submit could slip in between our scan
        // and the park, so cap the worst-case wakeup latency instead of
        // relying on the notification alone.
        let _ = shared
            .wake
            .wait_timeout(guard, IDLE_PARK)
            .expect("gate condvar");
    }
}

/// Parks a session awaiting its batched keygen verify; flushes the
/// collector if this filled the window.
fn park_for_verify(shared: &Shared, parked: Parked) {
    let full = {
        let mut pending = shared
            .pending_verify
            .lock()
            .expect("verify collector mutex");
        pending.push(parked);
        pending.len() >= shared.verify_batch
    };
    if full {
        let _ = flush_verify(shared);
    }
}

/// Settles every parked keygen check in one aggregate settle
/// ([`verify_deferred_jobs`] — one multi-exponentiation per group kind),
/// failing rejected sessions with the same per-party blame their solo runs
/// would assign and re-enqueueing the survivors. Returns whether anything
/// was flushed.
fn flush_verify(shared: &Shared) -> bool {
    let batch: Vec<Parked> = {
        let mut pending = shared
            .pending_verify
            .lock()
            .expect("verify collector mutex");
        std::mem::take(&mut *pending)
        // Lock released before the expensive aggregate below; a concurrent
        // flush simply takes whatever parked in the meantime.
    };
    if batch.is_empty() {
        return false;
    }
    // Settle cancellations and expiries first — their verdicts are moot.
    let mut live: Vec<Parked> = Vec::with_capacity(batch.len());
    for parked in batch {
        if parked.task.slot.is_cancelled() {
            parked.task.slot.fill(Err(RunError::Cancelled));
        } else if parked.task.deadline.is_some_and(|d| d.expired()) {
            parked.task.slot.fill(Err(RunError::DeadlineExceeded));
        } else {
            live.push(parked);
        }
    }
    if live.is_empty() {
        return true;
    }
    let (jobs, tasks): (Vec<KeygenVerifyJob>, Vec<Task>) =
        live.into_iter().map(|p| (p.job, p.task)).unzip();
    let proofs: u64 = jobs.iter().map(|j| j.proofs() as u64).sum();
    let verdicts = verify_deferred_jobs(&jobs);
    shared.stats.verify_flushes.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .verify_batched_sessions
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    shared
        .stats
        .verify_batched_proofs
        .fetch_add(proofs, Ordering::Relaxed);
    for (task, verdict) in tasks.into_iter().zip(verdicts) {
        match verdict {
            Ok(()) => shared.inject(task),
            Err(e) => task.slot.fill(Err(RunError::Sort(e))),
        }
    }
    true
}

/// Own deque first (LIFO), then the global injector, then steal round-robin
/// from the other workers' deque fronts.
fn find_task(shared: &Shared, me: usize) -> Option<Task> {
    if let Some(task) = shared.locals[me]
        .lock()
        .expect("local deque mutex")
        .pop_back()
    {
        return Some(task);
    }
    if let Some(task) = shared.injector.lock().expect("injector mutex").pop_front() {
        return Some(task);
    }
    let n = shared.locals.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(task) = shared.locals[victim]
            .lock()
            .expect("local deque mutex")
            .pop_front()
        {
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_core::{FrameworkParams, Questionnaire, RunError};
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
            .unwrap()
    }

    #[test]
    fn pooled_sessions_match_solo_serial_runs() {
        let runtime = Runtime::with_workers(3);
        let handles: Vec<_> = (0..4)
            .map(|i| runtime.submit(small_params(3, 1000 + i)))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let pooled = handle.join().unwrap();
            let solo = GroupRanking::new(small_params(3, 1000 + i as u64))
                .with_random_population()
                .run()
                .unwrap();
            assert_eq!(pooled.ranks(), solo.ranks());
            assert_eq!(pooled.traffic(), solo.traffic());
        }
    }

    #[test]
    fn more_sessions_than_workers_all_complete() {
        let runtime = Runtime::with_workers(2);
        let handles: Vec<_> = (0..6)
            .map(|i| runtime.submit(small_params(2, 50 + i)))
            .collect();
        for handle in handles {
            let outcome = handle.join().unwrap();
            assert_eq!(outcome.ranks().len(), 2);
        }
    }

    #[test]
    fn configuration_error_surfaces_on_join() {
        let runtime = Runtime::with_workers(1);
        // No population supplied → the session fails at machine creation.
        let handle = runtime.submit_ranking(GroupRanking::new(small_params(3, 1)));
        assert_eq!(handle.join().unwrap_err(), RunError::MissingPopulation);
    }

    #[test]
    fn drop_drains_pending_sessions() {
        let runtime = Runtime::with_workers(2);
        let handles: Vec<_> = (0..3)
            .map(|i| runtime.submit(small_params(2, 300 + i)))
            .collect();
        drop(runtime); // joins workers; they must finish everything first
        for handle in handles {
            assert!(handle.is_finished());
            assert!(handle.join().is_ok());
        }
    }

    #[test]
    fn cancelled_queued_session_resolves_without_running() {
        let runtime = Runtime::with_workers(1);
        // The single worker drives the first session LIFO until done, so
        // the second sits queued long enough for the cancel to land.
        let busy = runtime.submit(small_params(3, 61));
        let doomed = runtime.submit(small_params(3, 62));
        doomed.cancel();
        assert_eq!(doomed.join().unwrap_err(), RunError::Cancelled);
        assert!(busy.join().is_ok());
    }

    #[test]
    fn expired_deadline_reclaims_the_worker_for_later_sessions() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            session_budget: Some(Duration::ZERO),
            ..RuntimeConfig::default()
        });
        // Already expired at the first step boundary → abandoned, typed.
        let wedged = runtime.submit(small_params(3, 71));
        assert_eq!(wedged.join().unwrap_err(), RunError::DeadlineExceeded);
        // The worker is free again: an unbounded session completes.
        let healthy = runtime.submit_with_budget(small_params(3, 72), None);
        assert_eq!(healthy.join().unwrap().ranks().len(), 3);
    }

    #[test]
    fn drop_drains_with_crashed_sessions_mixed_in() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            session_budget: None,
            ..RuntimeConfig::default()
        });
        let healthy: Vec<_> = (0..2)
            .map(|i| runtime.submit(small_params(2, 400 + i)))
            .collect();
        // A session dead-on-arrival (zero budget) and a cancelled one.
        let dead = runtime.submit_with_budget(small_params(2, 410), Some(Duration::ZERO));
        let cancelled = runtime.submit(small_params(2, 411));
        cancelled.cancel();
        drop(runtime); // drain must resolve *every* slot, failures included
        assert_eq!(dead.join().unwrap_err(), RunError::DeadlineExceeded);
        // The cancel races the workers: either it landed in time or the
        // session completed first — both resolve, neither hangs the drain.
        match cancelled.join() {
            Err(RunError::Cancelled) | Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
        for h in healthy {
            assert!(h.is_finished());
            assert_eq!(h.join().unwrap().ranks().len(), 2);
        }
    }

    #[test]
    fn batched_verify_sessions_match_solo_runs() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            verify_batch: 3,
            ..RuntimeConfig::default()
        });
        let handles: Vec<_> = (0..5)
            .map(|i| runtime.submit(small_params(3, 9000 + i)))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let pooled = handle.join().unwrap();
            let solo = GroupRanking::new(small_params(3, 9000 + i as u64))
                .with_random_population()
                .run()
                .unwrap();
            assert_eq!(pooled.ranks(), solo.ranks());
            assert_eq!(pooled.traffic(), solo.traffic());
        }
        let stats = runtime.stats();
        assert_eq!(
            stats.verify_batched_sessions, 5,
            "every session's keygen check must pass through the collector"
        );
        assert_eq!(stats.verify_batched_proofs, 15);
        assert!(
            stats.verify_flushes >= 1 && stats.verify_flushes <= 5,
            "flushes happen per window or on idle, got {}",
            stats.verify_flushes
        );
    }

    #[test]
    fn corrupted_proof_is_blamed_with_and_without_a_batch_window() {
        use ppgr_core::{OfflineStock, SortError};
        for verify_batch in [0, 4] {
            let runtime = Runtime::new(RuntimeConfig {
                workers: 2,
                verify_batch,
                ..RuntimeConfig::default()
            });
            let mut bad = GroupRanking::new(small_params(3, 880))
                .with_random_population()
                .into_machine_with(runtime.session_options())
                .unwrap();
            let mut stock = OfflineStock::generate(bad.offline_fingerprint(), 1, || false).unwrap();
            stock.corrupt_key_proof(&GroupKind::Ecc160.group(), 1);
            assert!(bad.attach_offline_stock(stock));
            let bad_handle = runtime.submit_session(bad);
            let good: Vec<_> = (0..3)
                .map(|i| runtime.submit(small_params(3, 881 + i)))
                .collect();
            let err = bad_handle.join().unwrap_err();
            assert_eq!(
                err,
                RunError::Sort(SortError::ProofRejected { party: 2 }),
                "window {verify_batch}: the corrupted session's prover must be blamed"
            );
            assert_eq!(err.blamed(), Some(2), "window {verify_batch}");
            for (i, handle) in good.into_iter().enumerate() {
                let pooled = handle.join().unwrap();
                let solo = GroupRanking::new(small_params(3, 881 + i as u64))
                    .with_random_population()
                    .run()
                    .unwrap();
                assert_eq!(pooled.ranks(), solo.ranks(), "window {verify_batch}");
                assert_eq!(pooled.traffic(), solo.traffic(), "window {verify_batch}");
            }
            // Without a window the sessions check themselves; with one,
            // every session's check goes through the collector.
            let expected = if verify_batch > 1 { 4 } else { 0 };
            assert_eq!(
                runtime.stats().verify_batched_sessions,
                expected,
                "window {verify_batch}"
            );
        }
        assert_eq!(RunError::Cancelled.blamed(), None);
        assert_eq!(RunError::DeadlineExceeded.blamed(), None);
    }

    #[test]
    fn observer_fires_before_join_resolves() {
        use std::sync::atomic::AtomicU64;
        let runtime = Runtime::with_workers(1);
        let seen = Arc::new(AtomicU64::new(0));
        let machine = GroupRanking::new(small_params(2, 895))
            .with_random_population()
            .into_machine()
            .unwrap();
        let observed = Arc::clone(&seen);
        let handle = runtime.submit_session_observed(machine, None, move |result| {
            if result.is_ok() {
                observed.fetch_add(1, Ordering::SeqCst);
            }
        });
        let outcome = handle.join().unwrap();
        assert_eq!(outcome.ranks().len(), 2);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            1,
            "observer must have fired before join returned"
        );
    }

    #[test]
    fn submit_session_resumes_a_prebuilt_machine() {
        let mut machine = GroupRanking::new(small_params(3, 7))
            .with_random_population()
            .into_machine()
            .unwrap();
        // Step it part-way before handing it to the pool.
        machine.step().unwrap();
        machine.step().unwrap();
        let runtime = Runtime::with_workers(1);
        let pooled = runtime.submit_session(machine).join().unwrap();
        let solo = GroupRanking::new(small_params(3, 7))
            .with_random_population()
            .run()
            .unwrap();
        assert_eq!(pooled.ranks(), solo.ranks());
    }
}
