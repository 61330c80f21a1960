//! The decryption mix-net: layered onions, strip-and-shuffle rounds.

use crate::hybrid::{self, HybridCiphertext, HybridError};
use ppgr_elgamal::KeyPair;
use ppgr_group::Group;
use rand::seq::SliceRandom;
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Mix-net failure.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum MixError {
    /// A layer failed to authenticate (tampering or wrong layer order).
    Layer(usize, HybridError),
    /// An onion's framing was malformed at some layer.
    Malformed(usize),
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixError::Layer(i, e) => write!(f, "mixer {i} could not strip a layer: {e}"),
            MixError::Malformed(i) => write!(f, "mixer {i} received a malformed onion"),
        }
    }
}

impl Error for MixError {}

/// A collection session: the members' key pairs (the simulation holds all
/// of them; a deployment would hold only its own).
#[derive(Debug)]
pub struct AnonymousCollection {
    group: Group,
    keys: Vec<KeyPair>,
}

impl AnonymousCollection {
    /// Creates a session with `n` members, generating their keys.
    pub fn setup<R: Rng + ?Sized>(group: Group, n: usize, rng: &mut R) -> Self {
        let keys = (0..n).map(|_| KeyPair::generate(&group, rng)).collect();
        AnonymousCollection { group, keys }
    }

    /// Number of members.
    pub fn members(&self) -> usize {
        self.keys.len()
    }

    /// Wraps a message in all `n` layers: outermost is member 0's key, so
    /// member 0 strips first.
    ///
    /// # Errors
    ///
    /// Infallible in practice; `Result` mirrors the deployment API where
    /// remote keys may be invalid.
    pub fn wrap<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> Result<Vec<u8>, MixError> {
        let mut onion = message.to_vec();
        for kp in self.keys.iter().rev() {
            let ct = hybrid::encrypt(&self.group, kp.public_key(), &onion, rng);
            onion = hybrid::to_bytes(&self.group, &ct);
        }
        Ok(onion)
    }

    /// One mixer's step: strip this mixer's layer from every onion, then
    /// shuffle the batch.
    ///
    /// # Errors
    ///
    /// See [`MixError`].
    pub fn mix_step<R: Rng + ?Sized>(
        &self,
        mixer: usize,
        batch: Vec<Vec<u8>>,
        rng: &mut R,
    ) -> Result<Vec<Vec<u8>>, MixError> {
        let mut out = self.strip(mixer, batch)?;
        out.shuffle(rng);
        Ok(out)
    }

    /// Strips mixer `mixer`'s layer from every onion, keeping the batch's
    /// order.
    fn strip(&self, mixer: usize, batch: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, MixError> {
        let mut out = Vec::with_capacity(batch.len());
        for onion in batch {
            let ct: HybridCiphertext =
                hybrid::from_bytes(&self.group, &onion).ok_or(MixError::Malformed(mixer))?;
            let inner = hybrid::decrypt(&self.group, self.keys[mixer].secret_key(), &ct)
                .map_err(|e| MixError::Layer(mixer, e))?;
            out.push(inner);
        }
        Ok(out)
    }

    /// Runs the whole pipeline: every member strips and shuffles in turn;
    /// the returned batch is the unlinkable multiset of plaintexts.
    ///
    /// # Errors
    ///
    /// See [`MixError`].
    pub fn mix_and_collect<R: Rng + ?Sized>(
        &self,
        mut batch: Vec<Vec<u8>>,
        rng: &mut R,
    ) -> Result<Vec<Vec<u8>>, MixError> {
        for mixer in 0..self.keys.len() {
            batch = self.mix_step(mixer, batch, rng)?;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session(n: usize, seed: u64) -> (AnonymousCollection, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = AnonymousCollection::setup(GroupKind::Ecc160.group(), n, &mut rng);
        (s, rng)
    }

    #[test]
    fn collects_all_messages() {
        let (s, mut rng) = session(4, 1);
        let msgs: Vec<&[u8]> = vec![b"a", b"bb", b"ccc", b"dddd"];
        let onions = msgs
            .iter()
            .map(|m| s.wrap(m, &mut rng).unwrap())
            .collect::<Vec<_>>();
        let mut got = s.mix_and_collect(onions, &mut rng).unwrap();
        got.sort();
        let mut want: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_vec()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn order_is_randomized() {
        // Across several sessions, the output order of a marked message
        // varies — shuffling happened.
        let mut positions = Vec::new();
        for seed in 0..6 {
            let (s, mut rng) = session(3, seed);
            let onions = vec![
                s.wrap(b"marked", &mut rng).unwrap(),
                s.wrap(b"x", &mut rng).unwrap(),
                s.wrap(b"y", &mut rng).unwrap(),
            ];
            let got = s.mix_and_collect(onions, &mut rng).unwrap();
            positions.push(got.iter().position(|m| m == b"marked").unwrap());
        }
        assert!(positions.windows(2).any(|w| w[0] != w[1]), "{positions:?}");
    }

    #[test]
    fn single_honest_shuffler_suffices() {
        // Mixers 0 and 2 only strip, mixer 1 mixes: the marked message
        // still moves.
        let mut moved = false;
        for seed in 0..8 {
            let (s, mut rng) = session(3, 100 + seed);
            let onions = vec![
                s.wrap(b"marked", &mut rng).unwrap(),
                s.wrap(b"x", &mut rng).unwrap(),
            ];
            let batch = s.strip(0, onions).unwrap();
            let batch = s.mix_step(1, batch, &mut rng).unwrap();
            let got = s.strip(2, batch).unwrap();
            if got[0] != b"marked" {
                moved = true;
            }
        }
        assert!(moved, "one honest mixer must still unlink positions");
    }

    #[test]
    fn no_shuffle_at_all_is_linkable() {
        // Negative control: when every mixer only strips, input order is
        // preserved — the linking attack wins.
        let (s, mut rng) = session(3, 42);
        let mut got = vec![
            s.wrap(b"first", &mut rng).unwrap(),
            s.wrap(b"second", &mut rng).unwrap(),
            s.wrap(b"third", &mut rng).unwrap(),
        ];
        for mixer in 0..3 {
            got = s.strip(mixer, got).unwrap();
        }
        assert_eq!(
            got,
            vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]
        );
    }

    #[test]
    fn tampered_onion_rejected() {
        let (s, mut rng) = session(3, 7);
        let mut onion = s.wrap(b"msg", &mut rng).unwrap();
        let last = onion.len() - 1;
        onion[last] ^= 0xFF;
        let err = s.mix_and_collect(vec![onion], &mut rng).unwrap_err();
        assert!(matches!(err, MixError::Layer(0, _)));
    }

    #[test]
    fn onion_grows_linearly_with_members() {
        let (s3, mut rng) = session(3, 9);
        let (s6, mut rng6) = session(6, 9);
        let o3 = s3.wrap(b"m", &mut rng).unwrap();
        let o6 = s6.wrap(b"m", &mut rng6).unwrap();
        let layer = 2 * GroupKind::Ecc160.group().element_len() + 32;
        assert_eq!(o6.len() - o3.len(), 3 * layer);
    }
}
