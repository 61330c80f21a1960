//! The Paillier cryptosystem — the additively homomorphic alternative the
//! paper discusses and rejects (Sec. II).
//!
//! The paper's Related Work weighs partially homomorphic encryption
//! (Paillier \[10\], used by the comparison protocols of \[8, 9\]) as the
//! basis for multiparty sorting and concludes it cannot provide identity
//! unlinkability: computing `max{a,b} = (a>b)·(a−b)+b` under encryption
//! needs *ciphertext×ciphertext* multiplication, which an additive scheme
//! lacks, so a comparison result always surfaces at some party.
//!
//! We implement Paillier faithfully anyway, because the reproduction
//! should let a reader *check* that argument: the crate's tests
//! demonstrate what the scheme can do (adding, scaling by plaintext
//! constants) and its API simply has no ciphertext-product operation to
//! call — while the `ppgr-elgamal` exponential scheme supports the
//! zero-test + plaintext-randomization combination the framework actually
//! needs.
//!
//! # Example
//!
//! ```
//! use ppgr_paillier::Keypair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let kp = Keypair::generate(256, &mut rng); // demo size; use ≥ 2048 in anger
//! let a = kp.public().encrypt_u64(20, &mut rng);
//! let b = kp.public().encrypt_u64(22, &mut rng);
//! let sum = kp.public().add(&a, &b);
//! assert_eq!(kp.decrypt_u64(&sum), Some(42));
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

use ppgr_bigint::{modular, prime, random_below, BigUint, Montgomery};
use rand::Rng;

/// A Paillier public key `(n, n²)` with `g = n + 1`.
#[derive(Clone, Debug)]
pub struct PublicKey {
    n: BigUint,
    n_squared: BigUint,
    mont: Montgomery,
}

/// A Paillier ciphertext (an element of `Z*_{n²}`).
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// The raw value.
    pub fn value(&self) -> &BigUint {
        &self.0
    }
}

/// A key pair: public modulus plus the factorization-derived trapdoor.
#[derive(Clone, Debug)]
pub struct Keypair {
    public: PublicKey,
    /// `λ = lcm(p−1, q−1)`.
    lambda: BigUint,
    /// `μ = (L(g^λ mod n²))^{−1} mod n`.
    mu: BigUint,
}

impl PublicKey {
    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Encrypts `m ∈ [0, n)`: `c = (1+n)^m · r^n mod n²`.
    ///
    /// # Panics
    ///
    /// Panics if `m ≥ n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> PaillierCiphertext {
        assert!(m < &self.n, "plaintext must be below the modulus");
        // (1+n)^m = 1 + m·n (mod n²) — the binomial shortcut.
        let gm = (&BigUint::one() + &(m * &self.n)) % &self.n_squared;
        let r = loop {
            let candidate = random_below(rng, &self.n);
            if !candidate.is_zero() && candidate.gcd(&self.n).is_one() {
                break candidate;
            }
        };
        let rn = self.mont.pow(&r, &self.n);
        PaillierCiphertext(self.mont.mul(&gm, &rn))
    }

    /// Encrypts a `u64`.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> PaillierCiphertext {
        self.encrypt(&BigUint::from(m), rng)
    }

    /// Homomorphic addition: `E(a)·E(b) = E(a+b mod n)`.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(self.mont.mul(&a.0, &b.0))
    }

    /// Plaintext-constant multiplication: `E(a)^k = E(k·a mod n)`.
    pub fn scale(&self, a: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(self.mont.pow(&a.0, k))
    }

    /// Homomorphic negation: `E(−a) = E(a)^{n−1}`.
    pub fn neg(&self, a: &PaillierCiphertext) -> PaillierCiphertext {
        let n_minus_1 = self.n.checked_sub(&BigUint::one()).expect("n > 1");
        self.scale(a, &n_minus_1)
    }

    /// Re-randomization: multiply by a fresh encryption of zero.
    pub fn rerandomize<R: Rng + ?Sized>(
        &self,
        a: &PaillierCiphertext,
        rng: &mut R,
    ) -> PaillierCiphertext {
        let zero = self.encrypt(&BigUint::zero(), rng);
        self.add(a, &zero)
    }
}

impl Keypair {
    /// Generates a key with two fresh `bits/2`-bit primes.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 16`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 16, "modulus too small");
        let half = bits / 2;
        let (p, q) = loop {
            let p = prime::random_prime(rng, half);
            let q = prime::random_prime(rng, bits - half);
            if p != q {
                break (p, q);
            }
        };
        let n = &p * &q;
        let n_squared = &n * &n;
        let one = BigUint::one();
        let p1 = p.checked_sub(&one).expect("p > 1");
        let q1 = q.checked_sub(&one).expect("q > 1");
        let gcd = p1.gcd(&q1);
        let lambda = &(&p1 * &q1) / &gcd;

        let mont = Montgomery::new(n_squared.clone());
        // μ = (L((1+n)^λ mod n²))^{−1} mod n, L(u) = (u−1)/n.
        let glambda = {
            // (1+n)^λ mod n² = 1 + λ·n (mod n²)
            (&one + &(&lambda * &n)) % &n_squared
        };
        let l_val = (&glambda - &one).div_rem(&n).0;
        let mu = modular::mod_inverse(&l_val, &n).expect("λ invertible for valid keys");
        Keypair {
            public: PublicKey { n, n_squared, mont },
            lambda,
            mu,
        }
    }

    /// The public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Decrypts: `m = L(c^λ mod n²)·μ mod n`.
    pub fn decrypt(&self, ct: &PaillierCiphertext) -> BigUint {
        let pk = &self.public;
        let clambda = pk.mont.pow(&ct.0, &self.lambda);
        let l_val = (&clambda - &BigUint::one()).div_rem(&pk.n).0;
        (&l_val * &self.mu) % &pk.n
    }

    /// Decrypts to `u64` if it fits.
    pub fn decrypt_u64(&self, ct: &PaillierCiphertext) -> Option<u64> {
        self.decrypt(ct).to_u64()
    }

    /// Decrypts a centered value in `(−n/2, n/2]` to `i128` if it fits
    /// (for homomorphic subtraction results).
    pub fn decrypt_i128(&self, ct: &PaillierCiphertext) -> Option<i128> {
        let v = self.decrypt(ct);
        let half = self.public.n.shr(1);
        if v <= half {
            v.to_u128().and_then(|u| i128::try_from(u).ok())
        } else {
            let mag = &self.public.n - &v;
            mag.to_u128()
                .and_then(|u| i128::try_from(u).ok())
                .map(|m| -m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kp() -> (Keypair, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        (Keypair::generate(256, &mut rng), rng)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (kp, mut rng) = kp();
        for m in [0u64, 1, 42, u64::MAX] {
            let ct = kp.public().encrypt_u64(m, &mut rng);
            assert_eq!(kp.decrypt_u64(&ct), Some(m));
        }
    }

    #[test]
    fn additive_homomorphism() {
        let (kp, mut rng) = kp();
        let a = kp.public().encrypt_u64(1000, &mut rng);
        let b = kp.public().encrypt_u64(2345, &mut rng);
        assert_eq!(kp.decrypt_u64(&kp.public().add(&a, &b)), Some(3345));
    }

    #[test]
    fn scaling_and_negation() {
        let (kp, mut rng) = kp();
        let a = kp.public().encrypt_u64(7, &mut rng);
        let scaled = kp.public().scale(&a, &BigUint::from(6u64));
        assert_eq!(kp.decrypt_u64(&scaled), Some(42));
        // a − b as centered value.
        let b = kp.public().encrypt_u64(10, &mut rng);
        let diff = kp.public().add(&a, &kp.public().neg(&b));
        assert_eq!(kp.decrypt_i128(&diff), Some(-3));
    }

    #[test]
    fn rerandomization_changes_ct_not_plaintext() {
        let (kp, mut rng) = kp();
        let a = kp.public().encrypt_u64(5, &mut rng);
        let b = kp.public().rerandomize(&a, &mut rng);
        assert_ne!(a, b);
        assert_eq!(kp.decrypt_u64(&b), Some(5));
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (kp, mut rng) = kp();
        let a = kp.public().encrypt_u64(5, &mut rng);
        let b = kp.public().encrypt_u64(5, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn the_papers_objection_holds() {
        // max{a,b} = (a>b)(a−b)+b needs E(x)·E(y) → E(x·y). Paillier's
        // group operation on ciphertexts is homomorphic *addition*; there
        // is no ciphertext-product API, and composing the ops we do have
        // cannot produce E(a·b) from E(a), E(b) without the secret key.
        // What we *can* do — and all we can do — is affine arithmetic:
        let (kp, mut rng) = kp();
        let a = kp.public().encrypt_u64(6, &mut rng);
        let b = kp.public().encrypt_u64(9, &mut rng);
        let affine = kp
            .public()
            .add(&kp.public().scale(&a, &BigUint::from(2u64)), &b);
        assert_eq!(kp.decrypt_u64(&affine), Some(21)); // 2a + b, not a·b
    }

    #[test]
    #[should_panic(expected = "below the modulus")]
    fn oversized_plaintext_rejected() {
        let (kp, mut rng) = kp();
        let n = kp.public().modulus().clone();
        let _ = kp.public().encrypt(&n, &mut rng);
    }
}
