//! Message-passing substrate and the NS2-substitute network simulator.
//!
//! Four layers, bottom-up:
//!
//! * [`LocalMesh`] — a crossbeam-channel mesh for running protocol parties
//!   as real threads exchanging owned messages (used by examples and
//!   integration tests that want genuine concurrency). Receives can be
//!   bounded by a [`Deadline`] so a crashed peer cannot hang the session;
//!   [`PhaseBudget`] assigns each lockstep [`Phase`] its allowance.
//! * [`FaultyMesh`] — a deterministic fault-injection wrapper around a
//!   party's mesh handle, driven by a [`FaultPlan`]: liveness faults
//!   (crash-stop, silent stall, message delay, message drop) plus scripted
//!   *misbehavior* — byte [`Tamper`]s, per-lane equivocation and forged
//!   frame injection — for malicious-security testing.
//! * [`TrafficLog`] — a shared recorder of `(round, from, to, bytes)`
//!   tuples; the framework logs every wire message here so the harness can
//!   account bandwidth exactly.
//! * [`sim`] — a discrete-event network simulator standing in for the
//!   paper's NS2 setup (Sec. VII): a seeded random connected graph
//!   (80 nodes / 320 edges in the paper), 2 Mbps duplex links with 50 ms
//!   latency, Dijkstra shortest-path routing, FIFO store-and-forward
//!   queueing, and round-barrier scheduling. Feeding it a [`TrafficLog`]
//!   trace reproduces the Fig. 3(b) experiment.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod deadline;
mod fault;
mod mesh;
mod metrics;
pub mod sim;

pub use deadline::{Deadline, Phase, PhaseBudget};
pub use fault::{CrashStash, FaultKind, FaultPlan, FaultyMesh, Tamper, TamperBytes};
pub use mesh::{LocalMesh, MeshError, PartyHandle};
pub use metrics::{
    CacheCounters, MetricsSnapshot, PartyId, TrafficLog, TrafficRecord, TrafficSummary,
};
