//! Ranking-as-a-service front door.
//!
//! [`ppgr_runtime::Runtime`] executes many ranking sessions on one worker
//! pool; this crate puts a *service* in front of it, for the deployment
//! where ranking requests arrive as an open-ended stream rather than a
//! batch someone is willing to wait for:
//!
//! * **Sharded sessions** — requests are routed by consistent hash of
//!   their session id onto independent worker-group shards (each its own
//!   [`Runtime`](ppgr_runtime::Runtime) with its own run queues), so a
//!   given id always lands on the same queues and one pathological group
//!   cannot convoy every core behind it.
//! * **Admission control** — each shard carries a bounded in-flight window
//!   and a clock-free completion projection driven by
//!   [`PhaseBudget`](ppgr_net::PhaseBudget): a request the service cannot
//!   plausibly finish within the configured horizon is shed *at the door*
//!   with a typed [`AdmitError`], consuming no worker time, instead of
//!   being queued to miss its deadline quietly.
//! * **Cross-session crypto amortization** — admitted sessions share the
//!   shard runtime's batched keygen proof verification (many sessions'
//!   Schnorr checks collapse into one aggregate multi-exponentiation, with
//!   per-session blame preserved), the offline precompute lanes, and
//!   recycled hop scratch buffers.
//!
//! The amortization invariant, inherited from the runtime and pinned by
//! the workspace proptests: **batching reorders work, never bytes**. Every
//! admitted session's ranks and wire transcript are bit-identical to a
//! solo serial run with the same parameters — shed sessions simply do not
//! run.
//!
//! [`Service::metrics`] exports a scrape-ready [`MetricsSnapshot`]
//! (stable field names, pinned by test in `ppgr-net`) aggregating
//! admission counters and runtime amortization stats.
//!
//! # Example
//!
//! ```
//! use ppgr_core::{FrameworkParams, Questionnaire};
//! use ppgr_group::GroupKind;
//! use ppgr_service::{Service, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Service::new(ServiceConfig {
//!     shards: 2,
//!     workers_per_shard: 1,
//!     verify_batch: 4,
//!     ..ServiceConfig::default()
//! });
//! let params = FrameworkParams::builder(Questionnaire::synthetic(1, 1))
//!     .participants(3)
//!     .top_k(1)
//!     .attr_bits(4)
//!     .weight_bits(2)
//!     .mask_bits(4)
//!     .group(GroupKind::Ecc160)
//!     .seed(7)
//!     .build()?;
//! let handle = service.submit(42, params).expect("admitted");
//! let outcome = handle.join()?;
//! assert_eq!(outcome.ranks().len(), 3);
//! assert_eq!(service.metrics().sessions_completed, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod front;
mod ring;

pub use front::{AdmitError, Service, ServiceConfig, ServiceHandle};
pub use ppgr_net::MetricsSnapshot;
