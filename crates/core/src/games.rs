//! Security-game falsification harnesses (Definitions 3–7 of the paper).
//!
//! A reproduction cannot "run" a reduction proof, but it *can* implement
//! the games and concrete attacks, then check that each attack succeeds
//! exactly when the corresponding protocol mechanism is disabled:
//!
//! * [`unlinkability_attack`] — the identity-linking attack of
//!   Definition 7: a colluding set owner locates the zero in her returned
//!   `τ` set and maps its position back to an opponent identity. It wins
//!   with probability ≈ 1 when honest parties *skip the shuffle*, and
//!   drops to coin-flipping when the shuffle is on — demonstrating the
//!   shuffle is the load-bearing unlinkability mechanism.
//! * [`value_recovery_rate`] — gain leakage through un-randomized `τ`
//!   values (Lemma 3's mechanism): with plaintext randomization disabled,
//!   every `τ` is small enough to brute-force from `g^τ`; with it on,
//!   non-zero plaintexts are uniform in the exponent and unrecoverable.
//! * [`indcpa_statistic_advantage`] — an IND-CPA-style bit-guessing game
//!   against the bitwise encryption (Lemma 2): a keyless statistic gets
//!   ≈ 0 advantage while the keyed distinguisher (positive control) gets
//!   advantage 1.
//! * [`interval_invariance_holds`] — Definition 5's observable: colluder
//!   views (their ranks and zero counts) are identical for any two honest
//!   values in the same interval of the adversary's values.

use crate::sorting::{run_sort, SortOptions};
use crate::timing::PartyTimer;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{ExpElGamal, JointKey, KeyPair};
use ppgr_group::Group;
use ppgr_hash::HashDrbg;
use ppgr_net::TrafficLog;
use rand::{Rng, SeedableRng};

/// Outcome of a repeated attack game.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct GameReport {
    /// Number of independent trials.
    pub trials: u32,
    /// Trials in which the adversary guessed the hidden bit correctly.
    pub successes: u32,
}

impl GameReport {
    /// Empirical success probability.
    pub fn accuracy(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }
}

/// The identity-linking attack (Definition 7).
///
/// Three parties: `P₁`, `P₂` honest, `P₃` the colluder (the maximum
/// `n − 2` for `n = 3`). A hidden bit assigns `(v_hi, v_lo)` to
/// `(P₁, P₂)` or `(P₂, P₁)`; `P₃`'s value lies strictly between. `P₃`
/// decrypts her returned set and guesses from the *position* of the zero:
/// block 0 ↔ opponent `P₁`, block 1 ↔ opponent `P₂`.
pub fn unlinkability_attack(
    group: &Group,
    l: usize,
    trials: u32,
    shuffle: bool,
    seed: u64,
) -> GameReport {
    let mut rng = HashDrbg::seed_from_u64(seed);
    let scheme = ExpElGamal::new(group.clone());
    let (v_hi, v_lo, v_adv) = (40u64, 10u64, 25u64);
    let mut successes = 0;
    for _ in 0..trials {
        let b = rng.gen_bool(0.5);
        let (p1, p2) = if b { (v_lo, v_hi) } else { (v_hi, v_lo) };
        let values: Vec<BigUint> = [p1, p2, v_adv].iter().map(|&v| BigUint::from(v)).collect();
        let log = TrafficLog::new();
        let mut timer = PartyTimer::new(4);
        let options = SortOptions {
            shuffle,
            randomize: true,
            ..SortOptions::default()
        };
        let (_out, trace) = run_sort(group, &values, l, options, &mut rng, &log, &mut timer)
            // tidy:allow(panic) — game harness drives fixed valid setups, not attacker input
            .expect("valid game setup");

        // The colluder is party 3 (index 2); she owns her secret key.
        let own_key = trace.keys[2].secret_key();
        let set = &trace.returned_sets[2];
        let zero_pos = set
            .iter()
            .position(|ct| scheme.decrypts_to_zero(own_key, ct))
            // tidy:allow(panic) — game fixture guarantees exactly one larger opponent value
            .expect("exactly one opponent beats the colluder");
        // Opponent order for P₃ was [P₁, P₂]: block = zero_pos / l.
        let guess_b = zero_pos / l != 0; // zero in P₂'s block → P₂ holds v_hi → b = true
        if guess_b == b {
            successes += 1;
        }
    }
    GameReport { trials, successes }
}

/// Fraction of non-zero returned-set plaintexts the colluder can recover
/// by brute-forcing the exponent up to `2l + 4` (the `τ` value bound).
///
/// With `randomize = false` this is 1.0 — the protocol would leak every
/// `τ` profile; with randomization it collapses to ≈ 0.
pub fn value_recovery_rate(group: &Group, l: usize, randomize: bool, seed: u64) -> f64 {
    let mut rng = HashDrbg::seed_from_u64(seed);
    let scheme = ExpElGamal::new(group.clone());
    let values: Vec<BigUint> = [40u64, 10, 25].iter().map(|&v| BigUint::from(v)).collect();
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(4);
    let options = SortOptions {
        shuffle: true,
        randomize,
        ..SortOptions::default()
    };
    let (_out, trace) = run_sort(group, &values, l, options, &mut rng, &log, &mut timer)
        // tidy:allow(panic) — game harness drives fixed valid setups, not attacker input
        .expect("valid game setup");

    let own_key = trace.keys[2].secret_key();
    let set = &trace.returned_sets[2];
    let mut nonzero = 0u32;
    let mut recovered = 0u32;
    for ct in set {
        if scheme.decrypts_to_zero(own_key, ct) {
            continue;
        }
        nonzero += 1;
        if scheme
            .decrypt_small(own_key, ct, 2 * l as u64 + 4)
            .is_some()
        {
            recovered += 1;
        }
    }
    recovered as f64 / nonzero.max(1) as f64
}

/// IND-CPA-style bit-guessing advantage of a fixed ciphertext statistic.
///
/// Encrypts a random bit `T` times under a 3-party joint key. The keyless
/// distinguisher guesses from a fixed byte statistic of the encoding; the
/// keyed distinguisher (`with_key = true`, positive control) decrypts.
/// Returns `|accuracy − ½| · 2` (the distinguishing advantage).
pub fn indcpa_statistic_advantage(group: &Group, trials: u32, with_key: bool, seed: u64) -> f64 {
    let mut rng = HashDrbg::seed_from_u64(seed);
    let scheme = ExpElGamal::new(group.clone());
    let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(group, &mut rng)).collect();
    let shares: Vec<_> = keys.iter().map(|k| k.public_key().clone()).collect();
    let joint = JointKey::combine(group, &shares);
    // Full secret only exists for the positive control.
    let full_secret = keys.iter().fold(group.scalar_from_u64(0), |acc, k| {
        group.scalar_add(&acc, k.secret_key())
    });

    let mut correct = 0u32;
    for _ in 0..trials {
        let b = rng.gen_bool(0.5);
        let m = group.scalar_from_u64(u64::from(b));
        let ct = scheme.encrypt(joint.public_key(), &m, &mut rng);
        let guess = if with_key {
            !scheme.decrypts_to_zero(&full_secret, &ct)
        } else {
            // Keyless statistic: parity of the first data byte of α.
            let enc = group.encode(&ct.alpha);
            enc.iter().map(|&x| x as u32).sum::<u32>() % 2 == 1
        };
        if guess == b {
            correct += 1;
        }
    }
    (correct as f64 / trials as f64 - 0.5).abs() * 2.0
}

/// Definition 5's interval condition, observed from the colluder side:
/// swapping the honest party's value within the same interval of the
/// adversary's values must leave every colluder-visible zero count and
/// rank unchanged.
pub fn interval_invariance_holds(group: &Group, l: usize, seed: u64) -> bool {
    let scheme = ExpElGamal::new(group.clone());
    let adversary_values = [10u64, 30u64];
    // Two honest candidates inside (10, 30).
    let observations: Vec<(usize, usize)> = [17u64, 23]
        .iter()
        .map(|&honest| {
            let mut rng = HashDrbg::seed_from_u64(seed);
            let values: Vec<BigUint> = [honest, adversary_values[0], adversary_values[1]]
                .iter()
                .map(|&v| BigUint::from(v))
                .collect();
            let log = TrafficLog::new();
            let mut timer = PartyTimer::new(4);
            let (out, trace) = run_sort(
                group,
                &values,
                l,
                SortOptions::default(),
                &mut rng,
                &log,
                &mut timer,
            )
            // tidy:allow(panic) — game harness drives fixed valid setups, not attacker input
            .expect("valid game setup");
            // Colluders are parties 2 and 3: observe their ranks and the
            // zero counts of their returned sets.
            let zeros: usize = (1..3)
                .map(|idx| {
                    trace.returned_sets[idx]
                        .iter()
                        .filter(|ct| scheme.decrypts_to_zero(trace.keys[idx].secret_key(), ct))
                        .count()
                })
                .sum();
            (out.ranks[1] * 10 + out.ranks[2], zeros)
        })
        .collect();
    observations[0] == observations[1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_group::GroupKind;

    const L: usize = 6;

    #[test]
    fn linking_attack_wins_without_shuffle() {
        let group = GroupKind::Ecc160.group();
        let report = unlinkability_attack(&group, L, 12, false, 1);
        assert_eq!(report.accuracy(), 1.0, "no shuffle → perfect linking");
    }

    #[test]
    fn linking_attack_is_chance_with_shuffle() {
        let group = GroupKind::Ecc160.group();
        let report = unlinkability_attack(&group, L, 30, true, 2);
        let acc = report.accuracy();
        assert!(
            (0.2..=0.8).contains(&acc),
            "shuffle should force ≈½, got {acc}"
        );
    }

    #[test]
    fn tau_values_leak_without_randomization() {
        let group = GroupKind::Ecc160.group();
        assert_eq!(value_recovery_rate(&group, L, false, 3), 1.0);
    }

    #[test]
    fn tau_values_hidden_with_randomization() {
        let group = GroupKind::Ecc160.group();
        let rate = value_recovery_rate(&group, L, true, 4);
        assert!(
            rate < 0.10,
            "randomized τ should be unrecoverable, rate {rate}"
        );
    }

    #[test]
    fn keyless_statistic_has_negligible_advantage() {
        let group = GroupKind::Ecc160.group();
        let adv = indcpa_statistic_advantage(&group, 200, false, 5);
        assert!(adv < 0.25, "keyless advantage should be small, got {adv}");
    }

    #[test]
    fn keyed_distinguisher_wins_positive_control() {
        let group = GroupKind::Ecc160.group();
        let adv = indcpa_statistic_advantage(&group, 50, true, 6);
        assert_eq!(adv, 1.0);
    }

    #[test]
    fn interval_invariance() {
        let group = GroupKind::Ecc160.group();
        assert!(interval_invariance_holds(&group, L, 7));
    }
}
