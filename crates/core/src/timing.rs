//! Per-party computation timing for the orchestrated executions.
//!
//! The paper's Fig. 2/3(a) report *each participant's computation
//! overhead*. The orchestrator runs all parties in one thread, so it
//! brackets every piece of party-local work with [`PartyTimer::time`] and
//! accumulates wall-clock per party; work a party fans out across worker
//! threads is charged as the wall-clock it waited.

use std::time::{Duration, Instant};

/// Accumulated wall-clock computation time per party (index 0 =
/// initiator).
#[derive(Clone, Debug)]
pub struct PartyTimer {
    wall: Vec<Duration>,
}

impl PartyTimer {
    /// A timer for `parties` parties (including the initiator slot 0).
    pub fn new(parties: usize) -> Self {
        PartyTimer {
            wall: vec![Duration::ZERO; parties],
        }
    }

    /// Times `f` and charges the elapsed time to `party`.
    pub fn time<T>(&mut self, party: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.wall[party] += start.elapsed();
        out
    }

    /// Total wall-clock charged to `party`.
    pub fn spent(&self, party: usize) -> Duration {
        self.wall[party]
    }

    /// Mean wall-clock over participant slots `1..` (what Fig. 2 plots).
    pub fn mean_participant(&self) -> Duration {
        let n = self.wall.len().saturating_sub(1);
        if n == 0 {
            return Duration::ZERO;
        }
        self.wall[1..].iter().sum::<Duration>() / n as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_to_the_right_party() {
        let mut t = PartyTimer::new(3);
        let v = t.time(1, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(t.spent(1) >= Duration::from_millis(5));
        assert_eq!(t.spent(2), Duration::ZERO);
    }

    #[test]
    fn aggregates() {
        let mut t = PartyTimer::new(3);
        t.time(1, || std::thread::sleep(Duration::from_millis(2)));
        t.time(2, || std::thread::sleep(Duration::from_millis(6)));
        assert!(t.spent(2) >= Duration::from_millis(6));
        assert!(t.mean_participant() >= Duration::from_millis(4));
    }

    #[test]
    fn empty_participant_set() {
        let t = PartyTimer::new(1);
        assert_eq!(t.mean_participant(), Duration::ZERO);
    }
}
