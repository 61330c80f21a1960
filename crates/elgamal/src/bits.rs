//! Bitwise encryption of integers (paper Fig. 1, step 6).
//!
//! Each participant encrypts the binary representation of her masked gain
//! `β` bit by bit under the joint key: `E(β)_B = [E(β^l), …, E(β^1)]`.
//! We store bits least-significant-first internally; the comparison circuit
//! in `ppgr-core` indexes them accordingly.

use crate::cipher::{Ciphertext, ExpElGamal, MaskPair};
use ppgr_bigint::BigUint;
use ppgr_group::{Element, FixedBaseTable, Scalar};
use rand::Rng;

/// Encrypts the low `l` bits of `value` under `public_key`.
///
/// Returns `l` ciphertexts, least-significant bit first. This is the
/// per-bit reference form; protocol parties encrypt through
/// [`encrypt_bits_with_precomputed`].
///
/// # Panics
///
/// Panics if `value` does not fit in `l` bits — a protocol-parameter bug
/// that must not be silently truncated.
pub fn encrypt_bits<R: Rng + ?Sized>(
    scheme: &ExpElGamal,
    public_key: &Element,
    value: &BigUint,
    l: usize,
    rng: &mut R,
) -> Vec<Ciphertext> {
    assert!(value.bits() <= l, "value exceeds the declared bit length l");
    let group = scheme.group();
    let zero = group.scalar_from_u64(0);
    let one = group.scalar_from_u64(1);
    (0..l)
        .map(|i| {
            let bit: &Scalar = if value.bit(i) { &one } else { &zero };
            scheme.encrypt(public_key, bit, rng)
        })
        .collect()
}

/// [`encrypt_bits`] through a prepared public-key table, batched, with
/// the exponentiations optionally done ahead of time: `masks[i]` carries
/// `r_i` and, once filled by [`MaskPair::fill`], `g^{r_i}` and `y^{r_i}`
/// for bit `i` (least-significant first). With filled masks the online
/// cost is one group operation per set bit; bare masks are filled first,
/// in one batch per half, through comb tables with shared affine
/// conversions.
///
/// Consumes the masks: each is single-use. For masks drawn from the
/// stream positions [`encrypt_bits`] would have used
/// ([`MaskPair::draw`] takes one scalar per mask, in bit order), the
/// output is bit-identical to [`encrypt_bits`].
///
/// # Panics
///
/// Panics if `value` does not fit in `l` bits or if `masks` does not hold
/// exactly `l` entries.
pub fn encrypt_bits_with_precomputed(
    scheme: &ExpElGamal,
    key_table: &FixedBaseTable,
    value: &BigUint,
    l: usize,
    masks: Vec<MaskPair>,
) -> Vec<Ciphertext> {
    assert!(value.bits() <= l, "value exceeds the declared bit length l");
    // Hoisted so the assert formats only the (public) count, never the
    // mask vector itself.
    let mask_count = masks.len();
    assert_eq!(mask_count, l, "one mask pair per bit");
    let group = scheme.group();
    let g1 = group.generator();
    let parts = MaskPair::into_filled_halves(group, key_table, masks);
    // The set bits' `g·y^r` products share one batched affine conversion
    // instead of paying a field inversion per one-bit.
    let set_pairs: Vec<(&Element, &Element)> = parts
        .iter()
        .enumerate()
        .filter(|(i, _)| value.bit(*i))
        .map(|(_, (mask, _))| (g1, mask))
        .collect();
    let mut set_alphas = group.op_batch(&set_pairs).into_iter();
    parts
        .into_iter()
        .enumerate()
        .map(|(i, (mask, beta))| {
            let alpha = if value.bit(i) {
                // tidy:allow(panic) — one batched product was queued above for every set bit, so the iterator cannot run dry
                set_alphas.next().expect("one product per set bit")
            } else {
                mask
            };
            Ciphertext { alpha, beta }
        })
        .collect()
}

/// Decrypts a bitwise encryption back to the integer (test helper: requires
/// the full secret key, which no protocol party ever holds).
pub fn decrypt_bits(scheme: &ExpElGamal, secret_key: &Scalar, bits: &[Ciphertext]) -> BigUint {
    let mut v = BigUint::zero();
    for (i, ct) in bits.iter().enumerate() {
        if !scheme.decrypts_to_zero(secret_key, ct) {
            v.set_bit(i, true);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ExpElGamal::new(group);
        for v in [0u64, 1, 0b1011, 0xffff, 0x8000_0000] {
            let v = BigUint::from(v);
            let cts = encrypt_bits(&scheme, kp.public_key(), &v, 32, &mut rng);
            assert_eq!(cts.len(), 32);
            assert_eq!(decrypt_bits(&scheme, kp.secret_key(), &cts), v);
        }
    }

    #[test]
    fn precomputed_masks_match_per_bit_encryption() {
        // Same stream position → bit-identical ciphertexts, which is what
        // lets the offline pool swap in without changing any wire bytes.
        // Bare masks and masks filled offline must both reproduce the
        // per-bit path exactly.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let mut rng = StdRng::seed_from_u64(6);
            let kp = KeyPair::generate(&group, &mut rng);
            let scheme = ExpElGamal::new(group.clone());
            let table = scheme.prepare_key(kp.public_key());
            let v = BigUint::from(0b0110_0101u64);
            let mut rng_a = StdRng::seed_from_u64(77);
            let serial = encrypt_bits(&scheme, kp.public_key(), &v, 10, &mut rng_a);
            for fill in [false, true] {
                let mut masks = MaskPair::draw(&group, &mut StdRng::seed_from_u64(77), 10);
                if fill {
                    MaskPair::fill(&group, &table, &mut masks);
                }
                let warm = encrypt_bits_with_precomputed(&scheme, &table, &v, 10, masks);
                assert_eq!(warm, serial, "{kind}");
            }
            assert_eq!(decrypt_bits(&scheme, kp.secret_key(), &serial), v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the declared bit length")]
    fn oversized_value_panics() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ExpElGamal::new(group);
        let _ = encrypt_bits(&scheme, kp.public_key(), &BigUint::from(16u64), 4, &mut rng);
    }

    #[test]
    fn bit_ciphertexts_are_all_distinct() {
        // Even equal bits must encrypt to distinct ciphertexts (fresh r).
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ExpElGamal::new(group);
        let cts = encrypt_bits(&scheme, kp.public_key(), &BigUint::zero(), 16, &mut rng);
        for i in 0..cts.len() {
            for j in i + 1..cts.len() {
                assert_ne!(cts[i], cts[j]);
            }
        }
    }
}
