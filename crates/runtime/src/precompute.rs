//! The background precompute pool feeding sessions their offline stocks.
//!
//! A deployment serves *recurring* groups: the same parameter template,
//! session after session, each with the next seed. Between sessions the
//! machine is idle — exactly when the offline work of the next few
//! sessions ([`OfflineStock`]) can be done for free. This module keeps a
//! bounded, deterministic stock lane per registered group:
//!
//! * [`Runtime::register_group`](crate::Runtime::register_group) opens a
//!   lane (and warms the group's generator comb table);
//! * background refill workers keep each lane topped up to
//!   [`PrecomputeConfig::depth`] stocks, generated strictly by session
//!   sequence number — session `k` of a group uses seed
//!   `base_seed + k`, so the stock for it is
//!   [`OfflineStock::generate`] of that fingerprint, bit-identical to
//!   what the session would build cold;
//! * [`Runtime::submit_group`](crate::Runtime::submit_group) pops the
//!   matching stock if it is ready and attaches it to the session —
//!   otherwise the session simply runs cold. Either way the transcript
//!   is the same; only the online latency differs.
//!
//! Refill generation polls a cancellation hook between parties and hop
//! sets, so dropping the runtime never waits for a half-built stock.

use ppgr_core::{FrameworkParams, OfflineStock, StockFingerprint};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle refill worker sleeps between scans for lanes that
/// need topping up.
const REFILL_PARK: Duration = Duration::from_millis(1);

/// Configuration for the precompute pool of a
/// [`Runtime`](crate::Runtime).
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct PrecomputeConfig {
    /// Stocks kept ready per registered group (sessions `next .. next+depth`
    /// are precomputed ahead of their submission). `0` disables
    /// precomputation — every session runs cold.
    pub depth: usize,
    /// Background refill threads shared by all lanes.
    pub refill_workers: usize,
}

impl Default for PrecomputeConfig {
    fn default() -> Self {
        PrecomputeConfig {
            depth: 2,
            refill_workers: 1,
        }
    }
}

/// Identifies a registered recurring group within its runtime.
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub struct GroupId(pub(crate) usize);

/// One registered group's stock lane.
struct Lane {
    /// Parameter template; session `k` runs `params.with_seed(seed + k)`.
    params: FrameworkParams,
    /// Sequence number of the next session to be submitted.
    next_take: u64,
    /// Next sequence number a refill worker will reserve.
    next_refill: u64,
    /// Reservations currently being generated off-lock.
    inflight: usize,
    /// Completed stocks, ascending by sequence number.
    ready: VecDeque<(u64, OfflineStock)>,
}

impl Lane {
    /// Whether a refill worker should reserve another sequence number.
    fn wants_refill(&self, depth: usize) -> bool {
        // Target window: seqs [next_take, next_take + depth). Count what is
        // already ready or being built toward it.
        self.next_refill < self.next_take.saturating_add(depth as u64)
    }
}

struct PoolShared {
    lanes: Mutex<Vec<Lane>>,
    gate: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// The background refill pool. Owned by a [`Runtime`](crate::Runtime);
/// shut down (flag + join) before the step workers drain.
pub(crate) struct PrecomputePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    depth: usize,
}

impl PrecomputePool {
    pub(crate) fn new(config: PrecomputeConfig) -> Self {
        let shared = Arc::new(PoolShared {
            lanes: Mutex::new(Vec::new()),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // With depth 0 nothing would ever be generated; don't spawn workers
        // that can only spin.
        let worker_count = if config.depth == 0 {
            0
        } else {
            config.refill_workers
        };
        let workers = (0..worker_count)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let depth = config.depth;
                std::thread::Builder::new()
                    .name(format!("ppgr-precompute-{me}"))
                    .spawn(move || refill_loop(&shared, depth))
                    .expect("spawn precompute worker")
            })
            .collect();
        PrecomputePool {
            shared,
            workers,
            depth: config.depth,
        }
    }

    /// Opens a lane for `params` and warms the group's generator comb
    /// table (built lazily by the first `g^x` and kept by the process-wide
    /// group instance, so the first session does not pay the build).
    ///
    /// Warming is deduplicated by group kind: registering many lanes over
    /// the same group exponentiates once, on the first registration.
    pub(crate) fn register(&self, params: FrameworkParams) -> GroupId {
        let kind = params.group();
        let mut lanes = self.shared.lanes.lock().expect("lanes mutex");
        let known_kind = lanes.iter().any(|lane| lane.params.group() == kind);
        let id = GroupId(lanes.len());
        lanes.push(Lane {
            params,
            next_take: 0,
            next_refill: 0,
            inflight: 0,
            ready: VecDeque::new(),
        });
        drop(lanes);
        if !known_kind {
            // Outside the lanes lock: table construction is the expensive
            // part and must not serialize concurrent registrations.
            let group = kind.group();
            let _ = group.exp_gen(&group.scalar_from_u64(1));
        }
        self.shared.wake.notify_all();
        id
    }

    /// Claims the next session of group `gid`: its concrete parameters and
    /// the precomputed stock, if the refill workers got there in time
    /// (`None` → the session runs cold).
    ///
    /// # Panics
    ///
    /// Panics if `gid` was not issued by this runtime.
    pub(crate) fn take(&self, gid: GroupId) -> (FrameworkParams, Option<OfflineStock>) {
        let mut lanes = self.shared.lanes.lock().expect("lanes mutex");
        let lane = lanes.get_mut(gid.0).expect("group id from this runtime");
        let seq = lane.next_take;
        lane.next_take += 1;
        // Anything below the claimed seq can never be used again.
        while lane.ready.front().is_some_and(|(s, _)| *s < seq) {
            lane.ready.pop_front();
        }
        let stock = if lane.ready.front().is_some_and(|(s, _)| *s == seq) {
            lane.ready.pop_front().map(|(_, stock)| stock)
        } else {
            None
        };
        let params = lane
            .params
            .clone()
            .with_seed(lane.params.seed().wrapping_add(seq));
        drop(lanes);
        // The claim opened a refill slot at the window's far end.
        self.shared.wake.notify_all();
        (params, stock)
    }

    /// How many stocks are ready for group `gid` right now.
    ///
    /// # Panics
    ///
    /// Panics if `gid` was not issued by this runtime.
    pub(crate) fn ready(&self, gid: GroupId) -> usize {
        let lanes = self.shared.lanes.lock().expect("lanes mutex");
        lanes
            .get(gid.0)
            .expect("group id from this runtime")
            .ready
            .len()
    }

    /// Stops the refill workers: in-progress generations abort at their
    /// next cancellation poll, then the threads are joined. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PrecomputePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PrecomputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecomputePool")
            .field("workers", &self.workers.len())
            .field("depth", &self.depth)
            .finish()
    }
}

/// Scans the lanes for one that wants refilling and reserves its next
/// sequence number, releasing the lock for the (expensive) generation.
fn reserve(shared: &PoolShared, depth: usize) -> Option<(GroupId, u64, StockFingerprint)> {
    let mut lanes = shared.lanes.lock().expect("lanes mutex");
    for (idx, lane) in lanes.iter_mut().enumerate() {
        if !lane.wants_refill(depth) {
            continue;
        }
        // If submissions outpaced refill, skip straight to the live window
        // instead of generating stocks nobody will ever claim.
        let seq = lane.next_refill.max(lane.next_take);
        lane.next_refill = seq + 1;
        lane.inflight += 1;
        let params = lane
            .params
            .clone()
            .with_seed(lane.params.seed().wrapping_add(seq));
        let fp = StockFingerprint::new(
            params.seed(),
            params.participants(),
            params.beta_bits(),
            params.group(),
        );
        return Some((GroupId(idx), seq, fp));
    }
    None
}

fn refill_loop(shared: &PoolShared, depth: usize) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some((gid, seq, fp)) = reserve(shared, depth) else {
            let guard = shared.gate.lock().expect("gate mutex");
            // wait_timeout: a register/take could slip in between the scan
            // and the park.
            let _ = shared
                .wake
                .wait_timeout(guard, REFILL_PARK)
                .expect("gate condvar");
            continue;
        };
        // The expensive part, off-lock and cancellable: a shutdown mid-stock
        // aborts at the next poll instead of finishing ~n² exponentiations.
        let stock =
            OfflineStock::generate_cancellable(fp, &mut || shared.shutdown.load(Ordering::SeqCst));
        let mut lanes = shared.lanes.lock().expect("lanes mutex");
        let lane = &mut lanes[gid.0];
        lane.inflight -= 1;
        if let Some(stock) = stock {
            // A take may have raced past this seq while we generated; a
            // stale stock would never be claimed, so drop it.
            if seq >= lane.next_take {
                let at = lane.ready.partition_point(|(s, _)| *s < seq);
                lane.ready.insert(at, (seq, stock));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, RuntimeConfig};
    use ppgr_core::{GroupRanking, Questionnaire};
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

    fn runtime(workers: usize, depth: usize) -> Runtime {
        Runtime::new(RuntimeConfig {
            workers,
            precompute: PrecomputeConfig {
                depth,
                refill_workers: 1,
            },
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn group_sessions_match_solo_runs_with_derived_seeds() {
        // Warm or cold, session k of a group must equal the solo run with
        // seed base + k — the pool only moves work, never changes it.
        let rt = runtime(2, 2);
        let gid = rt.register_group(small_params(3, 9_000));
        let handles: Vec<_> = (0..3).map(|_| rt.submit_group(gid)).collect();
        for (k, handle) in handles.into_iter().enumerate() {
            let pooled = handle.join().unwrap();
            let solo = GroupRanking::new(small_params(3, 9_000 + k as u64))
                .with_random_population()
                .run()
                .unwrap();
            assert_eq!(pooled.ranks(), solo.ranks(), "session {k}");
            assert_eq!(pooled.traffic(), solo.traffic(), "session {k}");
        }
    }

    #[test]
    fn warm_session_matches_solo_run() {
        // Wait until the lane is stocked so the submission definitely
        // consumes a precomputed stock, then compare against solo.
        let rt = runtime(1, 2);
        let gid = rt.register_group(small_params(3, 500));
        while rt.precomputed(gid) == 0 {
            std::thread::yield_now();
        }
        let pooled = rt.submit_group(gid).join().unwrap();
        let solo = GroupRanking::new(small_params(3, 500))
            .with_random_population()
            .run()
            .unwrap();
        assert_eq!(pooled.ranks(), solo.ranks());
        assert_eq!(pooled.traffic(), solo.traffic());
    }

    #[test]
    fn lane_fills_to_depth_and_no_further() {
        let rt = runtime(1, 2);
        let gid = rt.register_group(small_params(2, 40));
        // Refill must reach the configured depth...
        while rt.precomputed(gid) < 2 {
            std::thread::yield_now();
        }
        // ...and never exceed it (give the worker a chance to overshoot).
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rt.precomputed(gid), 2);
    }

    #[test]
    fn depth_zero_disables_precompute_but_sessions_still_run() {
        let rt = runtime(1, 0);
        let gid = rt.register_group(small_params(2, 70));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(rt.precomputed(gid), 0);
        let outcome = rt.submit_group(gid).join().unwrap();
        assert_eq!(outcome.ranks().len(), 2);
    }

    #[test]
    fn multiple_lanes_refill_independently() {
        let rt = runtime(1, 1);
        let a = rt.register_group(small_params(2, 100));
        let b = rt.register_group(small_params(3, 200));
        while rt.precomputed(a) < 1 || rt.precomputed(b) < 1 {
            std::thread::yield_now();
        }
        let oa = rt.submit_group(a).join().unwrap();
        let ob = rt.submit_group(b).join().unwrap();
        assert_eq!(oa.ranks().len(), 2);
        assert_eq!(ob.ranks().len(), 3);
    }

    #[test]
    fn drop_mid_refill_does_not_hang() {
        // A large lane keeps the refill worker busy generating when the
        // runtime drops; the cancellation hook must abort the in-progress
        // stock instead of finishing it.
        let rt = runtime(1, 4);
        for i in 0..4 {
            let _ = rt.register_group(small_params(8, 1_000 * (i + 1)));
        }
        drop(rt); // must return promptly; a hang fails the test harness
    }
}
