//! Anonymous data collection by decryption mix-net — the
//! Brickell–Shmatikov idea (KDD'06) the paper's shuffle is borrowed from
//! (paper Sec. II: "We leverage the key idea of the random shuffle in
//! \[13\]").
//!
//! `n` group members each submit an opaque message to a data collector
//! such that the collector (and up to `n − 2` colluding members) cannot
//! link a message to its author:
//!
//! 1. every member publishes a public key;
//! 2. each member wraps her message in `n` layers of hybrid encryption
//!    (innermost = member `n`'s key, outermost = member `1`'s key);
//! 3. member 1 strips the outer layer from *all* onions and shuffles,
//!    passes the batch to member 2, and so on;
//! 4. after member `n`, the batch is the multiset of plaintexts in a
//!    random composite order — any single honest mixer's shuffle suffices
//!    for unlinkability.
//!
//! The hybrid layer is ElGamal KEM + HKDF-derived XOR stream + HMAC tag
//! ([`hybrid`]). The mix-net itself is [`mixnet`].
//!
//! # Example
//!
//! ```
//! use ppgr_anon::mixnet::AnonymousCollection;
//! use ppgr_group::GroupKind;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let session = AnonymousCollection::setup(GroupKind::Ecc160.group(), 3, &mut rng);
//! let onions = vec![
//!     session.wrap(b"alpha", &mut rng).unwrap(),
//!     session.wrap(b"bravo", &mut rng).unwrap(),
//!     session.wrap(b"charlie", &mut rng).unwrap(),
//! ];
//! let collected = session.mix_and_collect(onions, &mut rng).unwrap();
//! let mut msgs: Vec<&[u8]> = collected.iter().map(Vec::as_slice).collect();
//! msgs.sort();
//! assert_eq!(msgs, vec![&b"alpha"[..], b"bravo", b"charlie"]);
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod hybrid;
pub mod mixnet;
