//! The homomorphic bitwise comparison circuit (paper Fig. 1, step 7).
//!
//! Party `P_j` holds her own bits `β_j` in plaintext and the other party's
//! bits only as exponential-ElGamal ciphertexts `E(β_i^t)`. She computes,
//! for every bit position `t` (1-based from the LSB, `t = l` the MSB):
//!
//! ```text
//! γ^t = β_j^t ⊕ β_i^t                      (linear: own bit is plaintext)
//! ω^t = (l − t + 1)·(1 − γ^t) + Σ_{v>t} γ^v
//! τ^t = ω^t + β_j^t
//! ```
//!
//! `τ^t = 0` at exactly one position iff `β_j < β_i` (the most significant
//! differing bit has `β_i = 1`); all `τ` values are non-negative and at
//! most `2l`. Counting zero decryptions across all her comparisons
//! gives `P_j` the number of parties ranked above her.

use ppgr_bigint::BigUint;
use ppgr_elgamal::{Ciphertext, ExpElGamal};
use ppgr_group::{Element, Scalar};

/// Computes the encrypted `τ` vector for one comparison.
///
/// * `own` — `P_j`'s value (plaintext, low `l` bits used);
/// * `other_bits` — `E(β_i)` bitwise, LSB first, exactly `l` ciphertexts.
///
/// Returns `l` ciphertexts `E(τ^1) … E(τ^l)` (LSB-position first).
///
/// The circuit is evaluated entirely through the group's batch entry
/// points: expanding `τ^t` per own-bit case gives
///
/// ```text
/// own bit 0:  τ = (−w)·E(β) + E(w) + S        (w = l − t + 1)
/// own bit 1:  τ =   w ·E(β) + E(1) + S
/// ```
///
/// so one [`ppgr_group::Group::exp_batch`] powers every ciphertext
/// component by its weight, one [`ppgr_group::Group::inv_batch`] inverts
/// the `2l` components the formula negates (the opponent's `E(β)` where
/// the own bit is 1, for `γ = 1 − β`; its weight power where it is 0), one
/// [`ppgr_group::Group::op_scan`] per component accumulates the suffix
/// sums `S^t` with a single shared normalization, and two
/// [`ppgr_group::Group::op_batch`] rounds fold in the plaintext constants
/// and suffixes. On the elliptic-curve family this replaces the
/// per-operation field inversion (hundreds per call) with roughly half a
/// dozen; on the DL family, where an inversion is a full exponentiation,
/// the `2l` inverses share one. The produced group elements — and thus the
/// published transcript bytes — are identical to the per-op evaluation.
///
/// # Panics
///
/// Panics if `other_bits.len() != l` or `own` exceeds `l` bits.
pub fn compare_encrypted(
    scheme: &ExpElGamal,
    own: &BigUint,
    other_bits: &[Ciphertext],
    l: usize,
) -> Vec<Ciphertext> {
    assert_eq!(other_bits.len(), l, "bitwise encryption length mismatch");
    assert!(own.bits() <= l, "own value exceeds l bits");
    let group = scheme.group();

    // Plaintext constants g^c used by the τ formula: c = 1 for own bit 1,
    // c = weight for own bit 0; weights span 1..=l, so tabulate them all.
    let const_scalars: Vec<Scalar> = (1..=l as u64).map(|v| group.scalar_from_u64(v)).collect();
    let gen_pows = group.exp_gen_batch(&const_scalars);

    // Every ciphertext component raised to its position weight.
    let exp_pairs: Vec<(&Element, &Scalar)> = (0..l)
        .flat_map(|idx| {
            let w = &const_scalars[l - idx - 1];
            [(&other_bits[idx].alpha, w), (&other_bits[idx].beta, w)]
        })
        .collect();
    let powered = group.exp_batch(&exp_pairs);

    // The 2l inverses the formula needs, in one batch: own bit 1 negates
    // the opponent's (α, β), own bit 0 the powered (α^w, β^w).
    let to_invert: Vec<&Element> = (0..l)
        .flat_map(|idx| {
            if own.bit(idx) {
                [&other_bits[idx].alpha, &other_bits[idx].beta]
            } else {
                [&powered[2 * idx], &powered[2 * idx + 1]]
            }
        })
        .collect();
    let inverses = group.inv_batch(&to_invert);

    // γ^t components: own bit 0 → (α, β); own bit 1 → (g·α⁻¹, β⁻¹) — the
    // plaintext lives in α, so only the α products need group work, shared
    // across one batch.
    let bit1: Vec<usize> = (0..l).filter(|&idx| own.bit(idx)).collect();
    let alpha_pairs: Vec<(&Element, &Element)> = bit1
        .iter()
        .map(|&idx| (&inverses[2 * idx], &gen_pows[0]))
        .collect();
    let bit1_alphas = group.op_batch(&alpha_pairs);
    let mut gamma_alphas: Vec<&Element> = other_bits.iter().map(|ct| &ct.alpha).collect();
    for (k, &idx) in bit1.iter().enumerate() {
        gamma_alphas[idx] = &bit1_alphas[k];
    }
    let gamma_betas: Vec<&Element> = (0..l)
        .map(|idx| {
            if own.bit(idx) {
                &inverses[2 * idx + 1]
            } else {
                &other_bits[idx].beta
            }
        })
        .collect();

    // Suffix sums S^t = Σ_{v>t} γ^v: one scan per component over
    // γ^l, …, γ^2 (MSB down), so suffix[idx] = scan[l − 2 − idx].
    let rev_alphas: Vec<&Element> = gamma_alphas[1..].iter().rev().copied().collect();
    let rev_betas: Vec<&Element> = gamma_betas[1..].iter().rev().copied().collect();
    let scan_alphas = group.op_scan(&rev_alphas);
    let scan_betas = group.op_scan(&rev_betas);

    // Each position's signed power: (α^w, β^w) for own bit 1, its inverse
    // for own bit 0.
    let signed: Vec<(&Element, &Element)> = (0..l)
        .map(|idx| {
            let pair = if own.bit(idx) { &powered } else { &inverses };
            (&pair[2 * idx], &pair[2 * idx + 1])
        })
        .collect();

    // α picks up its plaintext constant, then both components add the
    // suffix; the final position's suffix is the empty sum.
    let alpha_consts: Vec<(&Element, &Element)> = (0..l)
        .map(|idx| {
            let c = if own.bit(idx) { 1 } else { l - idx };
            (signed[idx].0, &gen_pows[c - 1])
        })
        .collect();
    let alpha_mid = group.op_batch(&alpha_consts);
    let identity = group.identity();
    let final_pairs: Vec<(&Element, &Element)> = (0..l)
        .flat_map(|idx| {
            let (sa, sb) = if idx + 1 < l {
                (&scan_alphas[l - 2 - idx], &scan_betas[l - 2 - idx])
            } else {
                (&identity, &identity)
            };
            [(&alpha_mid[idx], sa), (signed[idx].1, sb)]
        })
        .collect();
    let combined = group.op_batch(&final_pairs);
    (0..l)
        .map(|idx| Ciphertext {
            alpha: combined[2 * idx].clone(),
            beta: combined[2 * idx + 1].clone(),
        })
        .collect()
}

/// Plaintext reference model of the same circuit (tests/verification):
/// returns the `τ` values as integers.
pub fn compare_plain(own: &BigUint, other: &BigUint, l: usize) -> Vec<u64> {
    let mut gammas = vec![0u64; l];
    for (idx, gamma) in gammas.iter_mut().enumerate() {
        *gamma = u64::from(own.bit(idx) != other.bit(idx));
    }
    (0..l)
        .map(|idx| {
            let weight = (l - idx) as u64;
            let suffix: u64 = gammas[idx + 1..].iter().sum();
            weight * (1 - gammas[idx]) + suffix + u64::from(own.bit(idx))
        })
        .collect()
}

/// Whether a plaintext `τ` vector signals `own < other` (contains a zero).
pub fn signals_less_than(taus: &[u64]) -> bool {
    taus.contains(&0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_elgamal::{encrypt_bits, KeyPair};
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plain_circuit_matches_comparison_exhaustively() {
        let l = 5;
        for a in 0u64..32 {
            for b in 0u64..32 {
                let taus = compare_plain(&BigUint::from(a), &BigUint::from(b), l);
                assert_eq!(signals_less_than(&taus), a < b, "a={a} b={b} taus={taus:?}");
                // At most one zero (paper's claim).
                assert!(taus.iter().filter(|&&t| t == 0).count() <= 1);
                // Bounded values: τ ≤ 2l (weight + suffix + own bit).
                assert!(taus.iter().all(|&t| t <= 2 * l as u64));
            }
        }
    }

    #[test]
    fn encrypted_circuit_matches_plain_model() {
        // DL-1024 too: there the batched inversion is a real field
        // inversion, not a negation.
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let mut rng = StdRng::seed_from_u64(5);
            let kp = KeyPair::generate(&group, &mut rng);
            let scheme = ExpElGamal::new(group.clone());
            let l = 6;
            for (a, b) in [(0u64, 0u64), (5, 9), (9, 5), (63, 62), (31, 32), (1, 63)] {
                let own = BigUint::from(a);
                let other = BigUint::from(b);
                let other_ct = encrypt_bits(&scheme, kp.public_key(), &other, l, &mut rng);
                let taus_ct = compare_encrypted(&scheme, &own, &other_ct, l);
                let expect = compare_plain(&own, &other, l);
                for (ct, &want) in taus_ct.iter().zip(&expect) {
                    let got = scheme
                        .decrypt_small(kp.secret_key(), ct, 2 * l as u64 + 4)
                        .expect("τ is small");
                    assert_eq!(got, want, "{kind} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn zero_detection_through_decryption() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(6);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ExpElGamal::new(group.clone());
        let l = 8;
        let own = BigUint::from(100u64);
        let bigger = BigUint::from(200u64);
        let smaller = BigUint::from(50u64);
        for (other, expect_zero) in [(&bigger, true), (&smaller, false), (&own, false)] {
            let cts = encrypt_bits(&scheme, kp.public_key(), other, l, &mut rng);
            let taus = compare_encrypted(&scheme, &own, &cts, l);
            let zeros = taus
                .iter()
                .filter(|ct| scheme.decrypts_to_zero(kp.secret_key(), ct))
                .count();
            assert_eq!(zeros == 1, expect_zero, "other={other:?}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_bit_count_panics() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ExpElGamal::new(group);
        let cts = encrypt_bits(&scheme, kp.public_key(), &BigUint::from(1u64), 4, &mut rng);
        let _ = compare_encrypted(&scheme, &BigUint::from(1u64), &cts, 5);
    }
}
