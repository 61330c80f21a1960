//! Key material: single key pairs and distributed joint keys.

use ppgr_bigint::Secret;
use ppgr_group::{Element, Group, Scalar};
use rand::Rng;
use std::fmt;

/// An ElGamal key pair `(x, y = g^x)`.
///
/// The secret exponent is held in a [`Secret`] wrapper: `{:?}` on a
/// `KeyPair` redacts it, and the limbs are wiped (best-effort) on drop.
#[derive(Clone)]
pub struct KeyPair {
    secret: Secret<Scalar>,
    public: Element,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyPair")
            .field("secret", &self.secret)
            .field("public", &self.public)
            .finish()
    }
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(group: &Group, rng: &mut R) -> Self {
        let secret = group.random_nonzero_scalar(rng);
        let public = group.exp_gen(&secret);
        KeyPair {
            secret: Secret::new(secret),
            public,
        }
    }

    /// The secret exponent `x`.
    pub fn secret_key(&self) -> &Scalar {
        self.secret.expose()
    }

    /// The public element `y = g^x`.
    pub fn public_key(&self) -> &Element {
        &self.public
    }
}

/// A joint public key `y = Π y_j` assembled from per-party shares.
///
/// The corresponding secret `x = Σ x_j` is never materialized; decryption
/// requires one [`partial_decrypt`](crate::ExpElGamal::partial_decrypt) per
/// share (paper Sec. IV-D, "distributed way").
#[derive(Clone, Debug)]
pub struct JointKey {
    shares: Vec<Element>,
    combined: Element,
}

impl JointKey {
    /// Combines the published per-party public shares.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty.
    pub fn combine(group: &Group, shares: &[Element]) -> Self {
        assert!(!shares.is_empty(), "need at least one key share");
        let mut combined = shares[0].clone();
        for s in &shares[1..] {
            combined = group.op(&combined, s);
        }
        JointKey {
            shares: shares.to_vec(),
            combined,
        }
    }

    /// The combined public key `y`.
    pub fn public_key(&self) -> &Element {
        &self.combined
    }

    /// The individual shares `y_j` (indexed as supplied).
    pub fn shares(&self) -> &[Element] {
        &self.shares
    }

    /// Number of contributing parties.
    pub fn parties(&self) -> usize {
        self.shares.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keypair_consistency() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&group, &mut rng);
        assert_eq!(group.exp_gen(kp.secret_key()), *kp.public_key());
    }

    #[test]
    fn joint_key_is_product_of_shares() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(2);
        let kps: Vec<KeyPair> = (0..5)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        let shares: Vec<Element> = kps.iter().map(|k| k.public_key().clone()).collect();
        let joint = JointKey::combine(&group, &shares);
        // g^(Σ x_j) == Π y_j
        let mut sum = group.scalar_from_u64(0);
        for kp in &kps {
            sum = group.scalar_add(&sum, kp.secret_key());
        }
        assert_eq!(group.exp_gen(&sum), *joint.public_key());
        assert_eq!(joint.parties(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one key share")]
    fn empty_shares_panic() {
        let group = GroupKind::Ecc160.group();
        let _ = JointKey::combine(&group, &[]);
    }

    #[test]
    fn debug_redacts_secret_key() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(&group, &mut rng);
        let dump = format!("{:?}", kp);
        assert!(dump.contains("Secret(<redacted>)"), "got: {dump}");
        let secret_digits = kp.secret_key().to_string();
        assert!(
            !dump.contains(&secret_digits),
            "secret scalar value leaked through Debug: {dump}"
        );
    }
}
