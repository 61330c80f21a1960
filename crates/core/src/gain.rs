//! Phase 1 — secure gain computation (paper Fig. 1, steps 1–4).
//!
//! Each participant runs the secure dot product with the initiator:
//! the participant supplies `w′_j = [vg_j, ve_j∗ve_j, ve_j]` (her data),
//! the initiator supplies `v′_j = [ρ·wg, −ρ·we, 2ρ(w∗ve₀)]` and the mask
//! `α = ρ_j`, and the participant ends up with the masked partial gain
//! `β_j = ρ·p_j + ρ_j`, converted to an unsigned `l`-bit integer.
//!
//! `ρ` (an `h`-bit secret of the initiator) is shared across participants;
//! `ρ_j ∈ [0, ρ)` varies per participant. Because `ρ_j < ρ`, the masking
//! preserves the *strict* order of distinct partial gains. *Equal* partial
//! gains end up with distinct `β` values almost surely, i.e. the masking
//! breaks gain ties into an arbitrary strict order — exactly what the
//! paper allows ("If `p_i = p_j`, it does not matter if `P_i` ranks higher
//! or lower than `P_j`", Sec. V).
//!
//! The exchange itself is rounds of the party machines (the private
//! `party` module), which both drivers step: a participant's machine
//! computes its round 1 when it is built and unblinds `β_j` from the
//! initiator's reply, checking that it fits `l` bits; the initiator's
//! machine checks each round 1's shape before answering it. This module
//! holds the vectors both sides form and the conversion to `l` bits.
//! Every party draws from its own online stream: the initiator's supplies
//! `ρ` and then every `ρ_j`, participant `j`'s supplies its round 1, so
//! both drivers compute the same `β_j` and break ties the same way.

use crate::attrs::{InfoVector, InitiatorProfile, Questionnaire};
use ppgr_bigint::{BigUint, Fp, FpCtx};
use rand::Rng;
use std::sync::Arc;

/// Output of the gain phase, held by the orchestrator: each participant's
/// private masked gain (in real deployments each `β_j` exists only at
/// `P_j`; the orchestrator model keeps them together for diagnostics).
#[derive(Clone, Debug)]
pub struct GainPhaseOutput {
    /// `β_j` as unsigned `l`-bit integers, index `j-1` for participant `j`.
    pub betas: Vec<BigUint>,
}

/// Draws the initiator's secret `ρ`: exactly `h` bits (top bit set ⇒
/// `ρ ≥ 2^{h−1} > 0`).
///
/// # Panics
///
/// Panics if `h` is outside `1..64`. `FrameworkParams::build` already
/// rejects such widths; the check keeps an uncomposed call (e.g. a
/// hand-rolled params struct in a fuzz harness) from silently wrapping.
pub(crate) fn draw_rho<R: Rng + ?Sized>(h: u32, rng: &mut R) -> u64 {
    assert!(
        (1..64).contains(&h),
        "mask width h={h} outside supported 1..64"
    );
    let top = 1u64 << (h - 1);
    top | rng.gen_range(0..top)
}

/// The initiator's dot-product vector `v′ = [ρ·wg, −ρ·we, 2ρ(we∗ve₀)]`,
/// shared by every participant.
///
/// # Panics
///
/// Panics if a term overflows `i128`, which the params' bit-length
/// calculus rules out.
pub(crate) fn initiator_vector(
    field: &Arc<FpCtx>,
    q: &Questionnaire,
    profile: &InitiatorProfile,
    rho: u64,
) -> Vec<Fp> {
    let (m, t) = (q.dimension(), q.equal_to_count());
    let w = profile.weights.values();
    let v0 = profile.criterion.values();
    let mul = |a: i128, b: i128| {
        a.checked_mul(b)
            // tidy:allow(panic) — params' bit-length calculus bounds every term far below i128::MAX
            .expect("initiator vector term exceeds exact i128 gain arithmetic")
    };
    let mut v = Vec::with_capacity(m + t);
    // ρ·wg  (greater-than weights)
    for &wk in &w[t..m] {
        v.push(field.from_i128(mul(rho as i128, wk as i128)));
    }
    // −ρ·we (equal-to weights)
    for &wk in &w[..t] {
        v.push(field.from_i128(mul(-(rho as i128), wk as i128)));
    }
    // 2ρ·(we ∗ ve₀)
    for k in 0..t {
        v.push(field.from_i128(mul(mul(2 * rho as i128, w[k] as i128), v0[k] as i128)));
    }
    v
}

/// A participant's dot-product vector `w′ = [vg_j, ve_j∗ve_j, ve_j]`.
pub(crate) fn participant_vector(
    field: &Arc<FpCtx>,
    q: &Questionnaire,
    info: &InfoVector,
) -> Vec<Fp> {
    let (m, t) = (q.dimension(), q.equal_to_count());
    let vj = info.values();
    let mut wv = Vec::with_capacity(m + t);
    for &vk in &vj[t..m] {
        wv.push(field.from_i128(vk as i128));
    }
    for &vk in &vj[..t] {
        wv.push(field.from_i128(vk as i128 * vk as i128));
    }
    for &vk in &vj[..t] {
        wv.push(field.from_i128(vk as i128));
    }
    wv
}

/// Converts a signed masked gain to the unsigned `l`-bit representation by
/// adding `2^{l−1}` (paper Sec. III-A) — order-preserving.
///
/// # Panics
///
/// Panics if `l` is outside `1..=120` (the exact-`i128` regime enforced
/// by [`FrameworkParams`](crate::FrameworkParams)) or the value falls
/// outside `[−2^{l−1}, 2^{l−1})`, which would mean the bit-length calculus
/// was violated.
pub fn to_unsigned(value: i128, l: usize) -> BigUint {
    assert!(
        (1..=120).contains(&l),
        "bit length l={l} outside supported 1..=120"
    );
    let offset = 1i128 << (l - 1);
    let shifted = value
        .checked_add(offset)
        // tidy:allow(panic) — documented panicking contract: unreachable while the params calculus holds
        .unwrap_or_else(|| panic!("masked gain {value} exceeds {l}-bit budget"));
    assert!(
        (0..(1i128 << l)).contains(&shifted),
        "masked gain {value} exceeds {l}-bit budget"
    );
    BigUint::from(shifted as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{partial_gain, Questionnaire};
    use crate::framework::{GroupRanking, SessionStatus};
    use crate::offline::party_streams;
    use crate::params::FrameworkParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (FrameworkParams, InitiatorProfile, Vec<InfoVector>) {
        let q = Questionnaire::synthetic(2, 3);
        let params = FrameworkParams::builder(q)
            .participants(n)
            .top_k(1)
            .attr_bits(8)
            .weight_bits(4)
            .mask_bits(8)
            .seed(seed)
            .build()
            .unwrap();
        let (profile, infos) = params.random_population(&mut StdRng::seed_from_u64(seed));
        (params, profile, infos)
    }

    /// The orchestrator on `params` and the population.
    fn ranking(
        params: &FrameworkParams,
        profile: &InitiatorProfile,
        infos: &[InfoVector],
    ) -> GroupRanking {
        GroupRanking::new(params.clone())
            .with_population(profile.clone(), infos.to_vec())
            .unwrap()
    }

    /// Every participant's `β` after a whole in-memory session, where the
    /// party machines ran phase 1.
    fn betas(
        params: &FrameworkParams,
        profile: &InitiatorProfile,
        infos: &[InfoVector],
    ) -> Vec<BigUint> {
        let outcome = ranking(params, profile, infos).run().unwrap();
        outcome.masked_gains().betas.clone()
    }

    #[test]
    fn masked_gains_preserve_partial_gain_order() {
        let (params, profile, infos) = setup(8, 1);
        let betas = betas(&params, &profile, &infos);

        let q = params.questionnaire();
        let gains: Vec<i128> = infos.iter().map(|i| partial_gain(q, &profile, i)).collect();
        for a in 0..infos.len() {
            for b in 0..infos.len() {
                if gains[a] > gains[b] {
                    assert!(
                        betas[a] > betas[b],
                        "order broken between {a} ({}) and {b} ({})",
                        gains[a],
                        gains[b]
                    );
                }
            }
        }
    }

    #[test]
    fn betas_fit_bit_length() {
        let (params, profile, infos) = setup(5, 2);
        let l = params.beta_bits();
        for b in &betas(&params, &profile, &infos) {
            assert!(b.bits() <= l);
        }
    }

    #[test]
    fn traffic_is_logged_per_participant() {
        // A session's first three steps: the offline stock, the dot-product
        // exchange, the unblinding.
        let (params, profile, infos) = setup(4, 3);
        let ranking = ranking(&params, &profile, &infos);
        let log = ranking.traffic_log();
        let mut session = ranking.into_machine().unwrap();
        for _ in 0..3 {
            assert_eq!(session.step().unwrap(), SessionStatus::Pending);
        }
        let s = log.summary();
        assert_eq!(s.messages, 8, "one exchange per participant");
        assert!(s.bytes_by_phase["gain"] > 0);
        // Initiator replies are small (2 elements); participant messages dominate.
        assert!(s.bytes_sent_by_party[&1] > s.bytes_sent_by_party[&0] / 4);
    }

    #[test]
    fn betas_are_the_masked_partial_gains() {
        // β_j = ρ·p_j + ρ_j in l bits, with ρ and then every ρ_j drawn
        // from the initiator's online stream.
        let (params, profile, infos) = setup(5, 4);
        let (mut online, _) = party_streams(params.seed(), 0);
        let rho = draw_rho(params.mask_bits(), &mut online);
        let q = params.questionnaire();
        let expected: Vec<BigUint> = infos
            .iter()
            .map(|info| {
                let rho_j = online.gen_range(0..rho) as i128;
                let masked = rho as i128 * partial_gain(q, &profile, info) + rho_j;
                to_unsigned(masked, params.beta_bits())
            })
            .collect();
        assert_eq!(betas(&params, &profile, &infos), expected);
    }

    #[test]
    fn to_unsigned_is_monotone() {
        assert!(to_unsigned(-5, 8) < to_unsigned(-4, 8));
        assert!(to_unsigned(-1, 8) < to_unsigned(0, 8));
        assert!(to_unsigned(0, 8) < to_unsigned(127, 8));
        assert_eq!(to_unsigned(0, 8), BigUint::from(128u64));
    }

    #[test]
    #[should_panic(expected = "bit budget")]
    fn to_unsigned_overflow_panics() {
        let _ = to_unsigned(1 << 20, 8);
    }

    #[test]
    #[should_panic(expected = "outside supported 1..=120")]
    fn to_unsigned_rejects_zero_width() {
        let _ = to_unsigned(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside supported 1..=120")]
    fn to_unsigned_rejects_oversized_width() {
        // l = 127 would make `1i128 << l` overflow; the guard fires first.
        let _ = to_unsigned(0, 127);
    }

    #[test]
    #[should_panic(expected = "bit budget")]
    fn to_unsigned_underflow_panics() {
        // More negative than −2^{l−1}: below the representable window.
        let _ = to_unsigned(-(1 << 20), 8);
    }

    #[test]
    fn to_unsigned_accepts_window_extremes() {
        assert_eq!(to_unsigned(-(1 << 7), 8), BigUint::zero());
        assert_eq!(to_unsigned((1 << 7) - 1, 8), BigUint::from(255u64));
        // The widest supported budget round-trips without i128 overflow.
        let top = (1i128 << 119) - 1;
        assert_eq!(to_unsigned(top, 120).bits(), 120);
    }
}
