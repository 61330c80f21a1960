//! Prime-order groups in which DDH is assumed hard.
//!
//! The framework of the paper is instantiated over two families (Sec. IV-B):
//!
//! * **DL** — the subgroup of quadratic residues modulo a safe prime.
//!   We ship the RFC 3526 MODP safe primes at 1024/2048/3072 bits
//!   ([`DlGroup`]).
//! * **ECC** — prime-order elliptic-curve groups. We implement the SECG
//!   short-Weierstrass curves secp160r1 / secp224r1 / secp256r1 from
//!   scratch ([`EcGroup`]), matching the paper's 160-bit ECC setting and
//!   the NIST security-level equivalences used in Fig. 3(a).
//!
//! [`Group`] is the object all protocol crates program against; elements
//! are opaque [`Element`] values and exponents are [`Scalar`]s mod the
//! group order `q`.
//!
//! # Example
//!
//! ```
//! use ppgr_group::{Group, GroupKind};
//! use rand::SeedableRng;
//!
//! let g = GroupKind::Ecc160.group();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let x = g.random_scalar(&mut rng);
//! let y = g.random_scalar(&mut rng);
//! // (g^x)^y == (g^y)^x — the heart of Diffie–Hellman.
//! let a = g.exp(&g.exp(g.generator(), &x), &y);
//! let b = g.exp(&g.exp(g.generator(), &y), &x);
//! assert_eq!(a, b);
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod dl;
mod ec;
mod kind;
mod msm;
mod scalar;
mod traits;

pub use dl::{DlComb, DlGroup, DlParams};
pub use ec::{CurveParams, EcComb, EcGroup, EcPoint};
pub use kind::{GroupKind, SecurityLevel};
pub use scalar::Scalar;
pub use traits::{DecodeElementError, Element, FixedBaseTable, Group, GroupError, HopScalars};
