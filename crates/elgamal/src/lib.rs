//! ElGamal over a DDH group: standard, exponential (additively
//! homomorphic), distributed-key and threshold-decryption forms.
//!
//! The unlinkable gain-comparison phase of the framework (paper Sec. V,
//! steps 5–9) rests on three properties implemented here:
//!
//! 1. **Additive homomorphism** of the "modified" (exponential) ElGamal
//!    `E(m) = (g^m·y^r, g^r)` — see [`ExpElGamal::add`] and friends;
//!    decryption yields `g^m`, which suffices because the protocol only
//!    ever tests `m = 0`.
//! 2. **Joint keys**: every participant contributes `y_j = g^{x_j}`; the
//!    joint key is `y = Π y_j` and nobody knows `x = Σ x_j`
//!    ([`JointKey`]). Decryption proceeds by
//!    [`ExpElGamal::partial_decrypt`] (one key layer at a time).
//! 3. **Plaintext randomization**: raising both components to a random `r`
//!    maps plaintext `m ↦ r·m`, fixing zero — exactly the step-8 trick that
//!    hides non-zero `τ` values while preserving the zero count
//!    ([`ExpElGamal::randomize_plaintext`]).
//!
//! # Example
//!
//! ```
//! use ppgr_elgamal::{ExpElGamal, KeyPair};
//! use ppgr_group::GroupKind;
//! use rand::SeedableRng;
//!
//! let group = GroupKind::Ecc160.group();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let kp = KeyPair::generate(&group, &mut rng);
//! let scheme = ExpElGamal::new(group.clone());
//!
//! let a = scheme.encrypt(kp.public_key(), &group.scalar_from_u64(20), &mut rng);
//! let b = scheme.encrypt(kp.public_key(), &group.scalar_from_u64(22), &mut rng);
//! let sum = scheme.add(&a, &b);
//! // Decryption reveals g^42; we can test it against a known value.
//! let gm = scheme.decrypt_to_element(kp.secret_key(), &sum);
//! assert_eq!(gm, group.exp_gen(&group.scalar_from_u64(42)));
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod bits;
mod cipher;
mod keys;

pub use bits::{decrypt_bits, encrypt_bits, encrypt_bits_with_precomputed};
pub use cipher::{Ciphertext, ElGamal, ExpElGamal, MaskPair};
pub use keys::{JointKey, KeyPair};
