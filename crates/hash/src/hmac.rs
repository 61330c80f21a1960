//! RFC 2104 HMAC instantiated with SHA-256.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Incremental HMAC-SHA-256.
///
/// The key is absorbed once, when the MAC is built: `inner` and `outer`
/// hold SHA-256 states that have already compressed the ipad and opad
/// blocks. A caller that MACs many messages under one key clones a keyed
/// MAC per message, which costs the message's compressions plus one for
/// the outer hash, never the two key blocks again.
///
/// # Example
///
/// ```
/// use ppgr_hash::{hmac_sha256, HmacSha256};
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC with the given key (any length; long keys are hashed).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacSha256 {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            to_hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        assert_eq!(
            to_hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn one_keyed_state_serves_many_messages() {
        for key in [&b"k"[..], &[0xaa; 64], &[0x0b; 131]] {
            let keyed = HmacSha256::new(key);
            let long = [0x5a; 200];
            for msg in [&b""[..], b"a", &[0x36; 55], &[0x5c; 64], &long] {
                let mut mac = keyed.clone();
                mac.update(msg);
                assert_eq!(
                    mac.finalize(),
                    hmac_sha256(key, msg),
                    "key {} msg {}",
                    key.len(),
                    msg.len()
                );
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"hello world"));
    }
}
