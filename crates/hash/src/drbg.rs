//! A deterministic random bit generator in the style of NIST HMAC-DRBG.
//!
//! Implements [`rand::RngCore`] + [`rand::SeedableRng`] so it can be used
//! anywhere the workspace needs *reproducible* randomness (experiment
//! harness, per-party seeded RNGs derived from a master seed).

use crate::hmac::HmacSha256;
use rand::{CryptoRng, RngCore, SeedableRng};

/// HMAC-DRBG over SHA-256 (simplified: no reseed counter enforcement —
/// this workspace uses it for reproducible simulation, not production
/// key generation).
///
/// The output stream is `V₁ ‖ V₂ ‖ …` with `Vᵢ = HMAC(K, Vᵢ₋₁)`, read in
/// order across calls. The generator keeps its key's [`HmacSha256`],
/// whose ipad and opad blocks are absorbed once per key, so a 32-byte
/// block costs two SHA-256 compressions; and it hands out the current
/// `V` itself from a read position, so drawing allocates nothing.
#[derive(Clone, Debug)]
pub struct HashDrbg {
    key: [u8; 32],
    /// `HMAC(key, ·)` with the key absorbed; rebuilt only when the key
    /// changes.
    mac: HmacSha256,
    /// The last block generated, whose bytes from `read` on are not yet
    /// handed out.
    v: [u8; 32],
    read: usize,
}

impl HashDrbg {
    /// Instantiates from seed material of any length.
    pub fn new(seed_material: &[u8]) -> Self {
        let key = [0u8; 32];
        let mut drbg = HashDrbg {
            key,
            mac: HmacSha256::new(&key),
            v: [1u8; 32],
            read: 32,
        };
        drbg.update(seed_material);
        drbg
    }

    /// Derives an independent child generator, labelled by `label`.
    ///
    /// Used to give each simulated party its own RNG from a master seed so
    /// that experiments are reproducible regardless of scheduling order.
    pub fn fork(&self, label: &[u8]) -> HashDrbg {
        let mut material = self.key.to_vec();
        material.extend_from_slice(b"/fork/");
        material.extend_from_slice(label);
        HashDrbg::new(&material)
    }

    /// `HMAC(key, parts[0] ‖ parts[1] ‖ …)` under the current key.
    fn hmac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    /// HMAC-DRBG's update with provided data (the seed material, possibly
    /// empty): two rounds of `K = HMAC(K, V ‖ tag ‖ provided);
    /// V = HMAC(K, V)`, tags 0 and 1.
    fn update(&mut self, provided: &[u8]) {
        for tag in [0x00, 0x01] {
            self.key = self.hmac(&[&self.v, &[tag], provided]);
            self.mac = HmacSha256::new(&self.key);
            self.v = self.hmac(&[&self.v]);
        }
    }
}

impl RngCore for HashDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, mut dest: &mut [u8]) {
        while !dest.is_empty() {
            if self.read == self.v.len() {
                self.v = self.hmac(&[&self.v]);
                self.read = 0;
            }
            let take = (self.v.len() - self.read).min(dest.len());
            let (head, rest) = dest.split_at_mut(take);
            head.copy_from_slice(&self.v[self.read..self.read + take]);
            self.read += take;
            dest = rest;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl CryptoRng for HashDrbg {}

impl SeedableRng for HashDrbg {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        HashDrbg::new(&seed)
    }

    fn seed_from_u64(state: u64) -> Self {
        HashDrbg::new(&state.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{to_hex, Sha256};

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HashDrbg::seed_from_u64(7);
        let mut b = HashDrbg::seed_from_u64(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HashDrbg::seed_from_u64(1);
        let mut b = HashDrbg::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = HashDrbg::seed_from_u64(3);
        let mut f1 = root.fork(b"party-1");
        let mut f1_again = root.fork(b"party-1");
        let mut f2 = root.fork(b"party-2");
        let x = f1.next_u64();
        assert_eq!(x, f1_again.next_u64());
        assert_ne!(x, f2.next_u64());
    }

    #[test]
    fn output_is_roughly_balanced() {
        let mut rng = HashDrbg::seed_from_u64(4);
        let mut ones = 0u32;
        let n = 10_000;
        for _ in 0..n {
            ones += rng.next_u64().count_ones();
        }
        let total = n * 64;
        let ratio = ones as f64 / total as f64;
        assert!((0.49..0.51).contains(&ratio), "bit balance {ratio}");
    }

    /// One read of [`stream_digest`]'s mix.
    enum Read {
        Fill(usize),
        U32,
        U64,
    }

    /// The SHA-256 of `rng`'s first 4 KiB, read as a repeating mix of
    /// `fill_bytes` of 1 to 100 bytes, `next_u32` and `next_u64`, so every
    /// read length meets every offset within a 32-byte block.
    fn stream_digest(mut rng: HashDrbg) -> String {
        use Read::*;
        const TOTAL: usize = 4096;
        let reads = [
            Fill(1),
            Fill(7),
            U32,
            Fill(8),
            Fill(21),
            U64,
            Fill(32),
            Fill(33),
            Fill(100),
        ];
        let mut h = Sha256::new();
        let mut done = 0;
        for read in reads.iter().cycle() {
            let left = TOTAL - done;
            if left == 0 {
                break;
            }
            let bytes = match *read {
                U32 if left >= 4 => rng.next_u32().to_le_bytes().to_vec(),
                U64 if left >= 8 => rng.next_u64().to_le_bytes().to_vec(),
                Fill(n) if n <= left => {
                    let mut buf = vec![0u8; n];
                    rng.fill_bytes(&mut buf);
                    buf
                }
                _ => {
                    let mut buf = vec![0u8; left];
                    rng.fill_bytes(&mut buf);
                    buf
                }
            };
            h.update(&bytes);
            done += bytes.len();
        }
        to_hex(&h.finalize())
    }

    /// Golden digests of the stream, pinned before the generator kept its
    /// keyed hash state: seeded roots, a raw seed, and the two forks
    /// `party_streams` takes from a session seed.
    #[test]
    fn streams_match_their_golden_digests() {
        let root = HashDrbg::seed_from_u64(1);
        for (name, rng, want) in [
            (
                "seed_from_u64(0)",
                HashDrbg::seed_from_u64(0),
                "ade2fe721bae035010fcb59d899603e3a93fd2dbcfc9582aabadde1e5b493278",
            ),
            (
                "seed_from_u64(1)",
                HashDrbg::seed_from_u64(1),
                "9f2afc9d206a268290ab85090ad5a6138dd95a7c18e252f49817629c3f162530",
            ),
            (
                "seed_from_u64(u64::MAX)",
                HashDrbg::seed_from_u64(u64::MAX),
                "908dc2c7798108642ad810fe905c59c67e8fc8bdcf3a894a52c65e788f10f63f",
            ),
            (
                "from_seed([7; 32])",
                HashDrbg::from_seed([7; 32]),
                "0865c83e75f48d3af71aa38d267cfee764e0078c6ed5fe015996e86ff6a1149a",
            ),
            (
                "party-1",
                root.fork(b"party-1"),
                "94ff1ace1c7b1855f1f6009669d797213fb5843f9a2b82a56c06441c14b528e0",
            ),
            (
                "offline/party-3",
                root.fork(b"offline").fork(b"party-3"),
                "f8d8d61cf63ab3441142ec7b2c9ba9f03d7771cdad42fc0f44b6564b690d7aea",
            ),
        ] {
            assert_eq!(stream_digest(rng), want, "{name}");
        }
    }

    #[test]
    fn partial_reads_consume_stream_in_order() {
        let mut a = HashDrbg::seed_from_u64(5);
        let mut b = HashDrbg::seed_from_u64(5);
        let mut one = [0u8; 1];
        let mut many = [0u8; 10];
        let mut combined = Vec::new();
        for _ in 0..10 {
            a.fill_bytes(&mut one);
            combined.push(one[0]);
        }
        b.fill_bytes(&mut many);
        assert_eq!(combined, many);
    }
}
