//! Arbitrary-precision unsigned integer arithmetic and prime-field types.
//!
//! This crate is the numeric substrate for the `ppgr` workspace. The allowed
//! dependency set for this reproduction contains no big-integer or
//! cryptography crate, so everything is implemented here from scratch:
//!
//! * [`BigUint`] — little-endian `u64`-limb unsigned integers with
//!   schoolbook/Karatsuba multiplication and Knuth Algorithm D division.
//! * [`Montgomery`] — the one Montgomery context, for every odd modulus of
//!   at most 48 limbs (the hot path of every group operation in the
//!   framework). It runs one of five kernels: P-160, or CIOS at 4, 16, 32
//!   or 48 limbs, each implementing [`FieldKernel`] on elements of its own
//!   width, with exponentiation, inversion, batch inversion and the square
//!   root written once on the trait. [`with_kernel!`] runs code generic
//!   over that trait with the context's kernel picked once, for the curve
//!   fields' two kernels or the DL primes' three.
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
mod kernel;
pub mod modular;
mod montgomery;
pub mod prime;
mod random;
pub mod secret;
mod uint;

pub use ct::{ct_eq_limbs, ct_select_limb, ct_select_limbs};
pub use fp::{Fp, FpCtx};
pub use kernel::{odd_powers, windows, CiosKernel, FieldKernel, P160Kernel};
pub use montgomery::{Kernel, Montgomery};
pub use random::{random_below, random_bits, random_nbit};
pub use secret::{Secret, Wipe};
pub use uint::{BigUint, ParseBigUintError};
