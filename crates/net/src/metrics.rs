//! Traffic accounting shared by all protocol executions.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Party identifier: `0` is the initiator, `1..=n` are participants.
pub type PartyId = usize;

/// One recorded wire message.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct TrafficRecord {
    /// Logical round (messages in the same round may be concurrent;
    /// consecutive rounds are barrier-ordered).
    pub round: u32,
    /// Sender.
    pub from: PartyId,
    /// Receiver.
    pub to: PartyId,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Protocol phase label (for reporting).
    pub phase: &'static str,
}

/// A thread-safe log of protocol traffic.
///
/// Cloning shares the log (`Arc` internally), so one log can be handed to
/// every party of a threaded execution.
#[derive(Clone, Debug, Default)]
pub struct TrafficLog {
    inner: Arc<Mutex<Vec<TrafficRecord>>>,
}

impl TrafficLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message.
    pub fn record(
        &self,
        round: u32,
        from: PartyId,
        to: PartyId,
        bytes: usize,
        phase: &'static str,
    ) {
        self.inner.lock().push(TrafficRecord {
            round,
            from,
            to,
            bytes,
            phase,
        });
    }

    /// Records every message of `records`, in order.
    pub fn extend(&self, records: impl IntoIterator<Item = TrafficRecord>) {
        self.inner.lock().extend(records);
    }

    /// Snapshot of all records, in insertion order.
    pub fn records(&self) -> Vec<TrafficRecord> {
        self.inner.lock().clone()
    }

    /// Clears the log.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Aggregated view.
    pub fn summary(&self) -> TrafficSummary {
        let records = self.inner.lock();
        let mut by_party: BTreeMap<PartyId, u64> = BTreeMap::new();
        let mut by_phase: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut max_round = 0;
        let mut total = 0u64;
        for r in records.iter() {
            total += r.bytes as u64;
            *by_party.entry(r.from).or_default() += r.bytes as u64;
            *by_phase.entry(r.phase).or_default() += r.bytes as u64;
            max_round = max_round.max(r.round);
        }
        TrafficSummary {
            messages: records.len() as u64,
            total_bytes: total,
            rounds: if records.is_empty() { 0 } else { max_round + 1 },
            bytes_sent_by_party: by_party,
            bytes_by_phase: by_phase,
        }
    }
}

/// Aggregate statistics over a [`TrafficLog`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct TrafficSummary {
    /// Total number of messages.
    pub messages: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Number of logical rounds observed.
    pub rounds: u32,
    /// Bytes sent, keyed by sending party.
    pub bytes_sent_by_party: BTreeMap<PartyId, u64>,
    /// Bytes per protocol phase.
    pub bytes_by_phase: BTreeMap<&'static str, u64>,
}

/// Counters for one named cache surfaced in a [`MetricsSnapshot`].
///
/// Kept dependency-free on purpose: a cache would live in a higher crate,
/// and whoever assembles the snapshot converts its native stats into this
/// wire shape. No cache is reported (comb tables are owned per session);
/// the type stays because the snapshot's field contract includes
/// `caches`.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct CacheCounters {
    /// Stable cache identifier, e.g. `"ecc160/comb"`.
    pub label: String,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that built the value.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
}

/// A point-in-time, scrape-ready export of a ranking service's counters.
///
/// Field names are part of the wire contract — [`MetricsSnapshot::FIELDS`]
/// pins them (and their order in [`MetricsSnapshot::to_json`]), and a unit
/// test below fails if the struct and the pinned list ever drift. Renaming
/// a field is a breaking change to every scraper; add fields at the end
/// instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Sessions accepted by admission control.
    pub sessions_admitted: u64,
    /// Sessions shed because a shard's in-flight window was full.
    pub sessions_rejected_saturated: u64,
    /// Sessions shed because their projected completion exceeded the
    /// admission horizon.
    pub sessions_rejected_deadline: u64,
    /// Admitted sessions that completed with a ranking.
    pub sessions_completed: u64,
    /// Admitted sessions that resolved with an error.
    pub sessions_failed: u64,
    /// Sessions admitted but not yet resolved.
    pub sessions_in_flight: u64,
    /// Worker-group shards serving the session stream.
    pub shards: u64,
    /// Worker threads across all shards.
    pub workers: u64,
    /// Cross-session verify-batch flushes (one aggregate MSM each).
    pub verify_flushes: u64,
    /// Sessions whose proofs went through a batched flush.
    pub verify_batched_sessions: u64,
    /// Individual proofs folded into batched flushes.
    pub verify_batched_proofs: u64,
    /// Always 0: sessions do not share hop buffers. Kept so the pinned
    /// [`MetricsSnapshot::FIELDS`] contract stays stable.
    pub scratch_reused: u64,
    /// Wire messages across all completed sessions.
    pub wire_messages: u64,
    /// Wire payload bytes across all completed sessions.
    pub wire_bytes: u64,
    /// Per-cache counters; empty while no shared cache exists.
    pub caches: Vec<CacheCounters>,
}

impl MetricsSnapshot {
    /// The scrape contract: every field of the snapshot, in the order
    /// [`MetricsSnapshot::to_json`] emits them.
    pub const FIELDS: [&'static str; 15] = [
        "sessions_admitted",
        "sessions_rejected_saturated",
        "sessions_rejected_deadline",
        "sessions_completed",
        "sessions_failed",
        "sessions_in_flight",
        "shards",
        "workers",
        "verify_flushes",
        "verify_batched_sessions",
        "verify_batched_proofs",
        "scratch_reused",
        "wire_messages",
        "wire_bytes",
        "caches",
    ];

    /// The per-cache object fields, in emission order.
    pub const CACHE_FIELDS: [&'static str; 5] = ["label", "hits", "misses", "evictions", "entries"];

    /// Folds one session's [`TrafficSummary`] into the wire totals.
    pub fn absorb_traffic(&mut self, summary: &TrafficSummary) {
        self.wire_messages = self.wire_messages.saturating_add(summary.messages);
        self.wire_bytes = self.wire_bytes.saturating_add(summary.total_bytes);
    }

    /// Serializes the snapshot as one stable-field-order JSON object
    /// (hand-rolled — the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        let scalars: [(&str, u64); 14] = [
            ("sessions_admitted", self.sessions_admitted),
            (
                "sessions_rejected_saturated",
                self.sessions_rejected_saturated,
            ),
            (
                "sessions_rejected_deadline",
                self.sessions_rejected_deadline,
            ),
            ("sessions_completed", self.sessions_completed),
            ("sessions_failed", self.sessions_failed),
            ("sessions_in_flight", self.sessions_in_flight),
            ("shards", self.shards),
            ("workers", self.workers),
            ("verify_flushes", self.verify_flushes),
            ("verify_batched_sessions", self.verify_batched_sessions),
            ("verify_batched_proofs", self.verify_batched_proofs),
            ("scratch_reused", self.scratch_reused),
            ("wire_messages", self.wire_messages),
            ("wire_bytes", self.wire_bytes),
        ];
        for (name, value) in scalars {
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
            out.push(',');
        }
        out.push_str("\"caches\":[");
        for (i, cache) in self.caches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":\"");
            for ch in cache.label.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push_str(&format!(
                "\",\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}}",
                cache.hits, cache.misses, cache.evictions, cache.entries
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let log = TrafficLog::new();
        log.record(0, 1, 2, 100, "setup");
        log.record(0, 2, 1, 50, "setup");
        log.record(1, 1, 0, 25, "submit");
        let s = log.summary();
        assert_eq!(s.messages, 3);
        assert_eq!(s.total_bytes, 175);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.bytes_sent_by_party[&1], 125);
        assert_eq!(s.bytes_by_phase["setup"], 150);
    }

    #[test]
    fn clones_share_state() {
        let log = TrafficLog::new();
        let log2 = log.clone();
        log2.record(0, 0, 1, 10, "x");
        assert_eq!(log.summary().messages, 1);
        log.clear();
        assert_eq!(log2.summary().messages, 0);
    }

    #[test]
    fn empty_summary() {
        let s = TrafficLog::new().summary();
        assert_eq!(s.messages, 0);
        assert_eq!(s.rounds, 0);
        assert!(s.bytes_sent_by_party.is_empty());
    }

    fn sample_snapshot() -> MetricsSnapshot {
        // A full struct literal: if a field is added, removed or renamed,
        // this stops compiling — forcing FIELDS (the scrape contract)
        // to be revisited in the same change.
        MetricsSnapshot {
            sessions_admitted: 10,
            sessions_rejected_saturated: 2,
            sessions_rejected_deadline: 1,
            sessions_completed: 8,
            sessions_failed: 1,
            sessions_in_flight: 1,
            shards: 2,
            workers: 4,
            verify_flushes: 3,
            verify_batched_sessions: 7,
            verify_batched_proofs: 21,
            scratch_reused: 6,
            wire_messages: 1234,
            wire_bytes: 98765,
            caches: vec![CacheCounters {
                label: "ecc160/comb".into(),
                hits: 40,
                misses: 5,
                evictions: 1,
                entries: 4,
            }],
        }
    }

    #[test]
    fn snapshot_field_names_are_pinned_in_order() {
        let json = sample_snapshot().to_json();
        // Every pinned field appears as a JSON key, in contract order.
        let mut cursor = 0;
        for field in MetricsSnapshot::FIELDS {
            let key = format!("\"{field}\":");
            let at = json[cursor..]
                .find(&key)
                .unwrap_or_else(|| panic!("field {field} missing or out of order"));
            cursor += at + key.len();
        }
        let mut cursor = json.find("\"caches\"").expect("caches key");
        for field in MetricsSnapshot::CACHE_FIELDS {
            let key = format!("\"{field}\":");
            let at = json[cursor..]
                .find(&key)
                .unwrap_or_else(|| panic!("cache field {field} missing or out of order"));
            cursor += at + key.len();
        }
    }

    #[test]
    fn snapshot_json_carries_the_values() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sessions_admitted\":10"));
        assert!(json.contains("\"verify_batched_proofs\":21"));
        assert!(json.contains("\"label\":\"ecc160/comb\""));
        assert!(json.contains("\"entries\":4"));
        // No trailing comma before the closing brackets.
        assert!(!json.contains(",]") && !json.contains(",}"));
    }

    #[test]
    fn snapshot_escapes_cache_labels() {
        let mut snap = MetricsSnapshot::default();
        snap.caches.push(CacheCounters {
            label: "we\"ird\\label".into(),
            ..CacheCounters::default()
        });
        let json = snap.to_json();
        assert!(json.contains(r#""label":"we\"ird\\label""#));
    }

    #[test]
    fn snapshot_absorbs_traffic_summaries() {
        let log = TrafficLog::new();
        log.record(0, 1, 2, 100, "setup");
        log.record(1, 2, 1, 50, "submit");
        let mut snap = MetricsSnapshot::default();
        snap.absorb_traffic(&log.summary());
        snap.absorb_traffic(&log.summary());
        assert_eq!(snap.wire_messages, 4);
        assert_eq!(snap.wire_bytes, 300);
    }
}
