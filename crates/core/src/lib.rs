//! The privacy-preserving group ranking framework — the paper's core
//! contribution (Li, Zhao, Xue, Silva — ICDCS 2012).
//!
//! An initiator `P₀` and `n` participants jointly rank the participants by
//! the gain function of Definition 1 so that:
//!
//! * nobody's private vector leaks (*private input hiding*),
//! * no party learns any gain value (*gain secure*), and
//! * up to `n−2` colluders cannot link a gain to its owner's identity as
//!   long as the owner's final rank is hidden (*identity unlinkability*).
//!
//! The three protocol phases (Fig. 1 of the paper) map to modules:
//!
//! | phase | module |
//! |-------|--------|
//! | secure gain computation | [`gain`] |
//! | unlinkable gain comparison (the multiparty sorting protocol) | [`sorting`] + [`circuit`] |
//! | ranking submission | [`submit`] |
//!
//! [`framework::GroupRanking`] orchestrates all three;
//! [`games`] implements the security-game harnesses of Definitions 5/7;
//! [`analysis`] encodes the Sec. VI-B complexity formulas.
//!
//! # Example
//!
//! ```
//! use ppgr_core::{AttributeKind, FrameworkParams, GroupRanking, Questionnaire};
//! use ppgr_group::GroupKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = Questionnaire::builder()
//!     .attribute("age", AttributeKind::EqualTo)
//!     .attribute("friends", AttributeKind::GreaterThan)
//!     .build()?;
//! let params = FrameworkParams::builder(q)
//!     .participants(4)
//!     .top_k(2)
//!     .group(GroupKind::Ecc160)
//!     .attr_bits(8)
//!     .weight_bits(4)
//!     .mask_bits(8)
//!     .seed(7)
//!     .build()?;
//! let outcome = GroupRanking::new(params).with_random_population().run()?;
//! assert_eq!(outcome.top_k().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod analysis;
mod attrs;
pub mod circuit;
pub mod distributed;
mod framework;
pub mod gain;
pub mod games;
pub mod offline;
mod params;
mod party;
pub mod sorting;
pub mod submit;
mod timing;
pub mod wire;

pub use attrs::{
    gain as compute_gain, partial_gain as compute_partial_gain, AttributeKind, AttributeSpec,
    CriterionVector, InfoVector, InitiatorProfile, Questionnaire, QuestionnaireBuilder,
    VectorError, WeightVector,
};
pub use distributed::{
    consensus_primary, run_distributed, run_distributed_with, DistributedConfig, DistributedError,
    DistributedFailure, DistributedOutcome,
};
pub use framework::{GroupRanking, Outcome, PhaseTimings, RunError, SessionMachine, SessionStatus};
pub use offline::{OfflineStock, StockFingerprint, STOCK_LAYOUT};
pub use params::{bit_length, FrameworkParams, FrameworkParamsBuilder, ParamError};
pub use sorting::{
    unlinkable_sort, verify_deferred_jobs, KeygenVerifyJob, SortError, SortMachine, SortOptions,
    SortOutcome, SortStatus,
};
pub use timing::PartyTimer;
