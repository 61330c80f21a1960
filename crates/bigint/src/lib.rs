//! Arbitrary-precision unsigned integer arithmetic and prime-field types.
//!
//! This crate is the numeric substrate for the `ppgr` workspace. The allowed
//! dependency set for this reproduction contains no big-integer or
//! cryptography crate, so everything is implemented here from scratch:
//!
//! * [`BigUint`] — little-endian `u64`-limb unsigned integers with
//!   schoolbook/Karatsuba multiplication and Knuth Algorithm D division.
//! * [`Montgomery`] — Montgomery-form modular multiplication and windowed
//!   modular exponentiation for odd moduli (the hot path of every ElGamal
//!   operation in the framework).
//! * [`Montgomery4`] — the same for moduli of at most four limbs, on a
//!   32-byte `Copy` element: the curve fields. Its two kernels (P-160 and
//!   four-limb CIOS) implement [`FieldKernel`], which also carries the
//!   in-domain square root ([`FieldKernel::sqrt`]), and [`with_kernel!`]
//!   runs code generic over that trait with the context's kernel picked
//!   once.
//! * [`modular`] — free-standing modular helpers: inverse (binary extended
//!   gcd), Jacobi symbol (binary, in place on limbs), Tonelli–Shanks square
//!   roots on `BigUint`.
//! * [`prime`] — Miller–Rabin probabilistic primality testing and random
//!   prime generation.
//! * [`Fp`] / [`FpCtx`] — a prime-field element type with a shared context,
//!   used by the secure dot-product protocol and the Shamir/BGW baseline.
//!
//! # Example
//!
//! ```
//! use ppgr_bigint::BigUint;
//!
//! let a = BigUint::from(10u64).pow(30);
//! let b = BigUint::from_dec_str("1000000000000000000000000000000").unwrap();
//! assert_eq!(a, b);
//! let m = BigUint::from(1_000_003u64);
//! assert_eq!(a.modpow(&BigUint::from(2u64), &m), (&a * &a) % &m);
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod arith;
pub mod ct;
mod fp;
pub mod modular;
mod montgomery;
mod montgomery4;
pub mod prime;
mod random;
pub mod secret;
mod uint;

pub use ct::{ct_eq_limbs, ct_select_limb, ct_select_limbs};
pub use fp::{Fp, FpCtx};
pub use montgomery::{MontElem, Montgomery};
pub use montgomery4::{CiosKernel, FieldKernel, Kernel, MontElem4, Montgomery4, P160Kernel};
pub use random::{random_below, random_bits, random_nbit};
pub use secret::{Secret, Wipe};
pub use uint::{BigUint, ParseBigUintError};
