//! Schnorr zero-knowledge proofs of discrete-log knowledge.
//!
//! Step 5 of the framework (paper Fig. 1) has every participant prove
//! knowledge of her ElGamal secret key to *all* other parties. This crate
//! implements:
//!
//! * the classic interactive, honest-verifier ZK Schnorr identification
//!   ([`schnorr`]) with its HVZK simulator and special-soundness extractor
//!   (both used by the security-game harness in `ppgr-core`);
//! * the paper's **multi-verifier** extension (Sec. IV-E): every verifier
//!   publishes a challenge share `c_j`, the prover answers
//!   `z = r + x·Σc_j`, and each verifier checks `g^z = h·y^{Σc_j}`
//!   ([`multi`]);
//! * a Fiat–Shamir non-interactive variant ([`nizk`]) for contexts without
//!   interaction (not used by the HBC framework itself, provided for
//!   completeness);
//! * **batch verification** ([`batch`]): k transcripts collapsed into a
//!   single multi-exponentiation via deterministic 128-bit combiners,
//!   falling back to per-proof checks so rejections still name the
//!   culprit.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod batch;
pub mod multi;
pub mod nizk;
pub mod schnorr;
#[doc(hidden)]
pub mod tamper;

pub use batch::{verify_batch, verify_batch_all, verify_sessions_multi_batch, SessionRejections};
pub use multi::{MultiVerifierProof, MultiVerifierTranscript};
pub use schnorr::{
    extract_witness, simulate_transcript, SchnorrNonce, SchnorrProver, SchnorrTranscript,
};
