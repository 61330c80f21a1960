//! Security-game falsification harnesses (Definitions 3–7 of the paper).
//!
//! A reproduction cannot "run" a reduction proof, but it *can* implement
//! the games and concrete attacks, then check that each attack succeeds
//! exactly when the corresponding protocol mechanism is skipped:
//!
//! * [`unlinkability_attack`] — the identity-linking attack of
//!   Definition 7: a colluding set owner locates the zero in her returned
//!   `τ` set and maps its position back to an opponent identity. It wins
//!   with probability ≈ 1 when every hop *skips the shuffle*, and drops to
//!   coin-flipping when the hops shuffle — demonstrating the shuffle is
//!   the load-bearing unlinkability mechanism.
//! * [`value_recovery_rate`] — gain leakage through un-randomized `τ`
//!   values (Lemma 3's mechanism): when every hop skips its randomizers,
//!   every `τ` is small enough to brute-force from `g^τ`; when they
//!   randomize, non-zero plaintexts are uniform in the exponent and
//!   unrecoverable.
//! * [`indcpa_statistic_advantage`] — an IND-CPA-style bit-guessing game
//!   against the bitwise encryption (Lemma 2): a keyless statistic gets
//!   ≈ 0 advantage while the keyed distinguisher (positive control) gets
//!   advantage 1.
//! * [`interval_invariance_holds`] — Definition 5's observable: colluder
//!   views (their ranks and zero counts) are identical for any two honest
//!   values in the same interval of the adversary's values.
//!
//! A hop that skips a mechanism is not a protocol switch: the skipping
//! party's offline stock is edited after minting — identity permutations,
//! or randomizers of 1 — and every machine runs the one honest hop on it.

use crate::offline::{OfflineStock, StockFingerprint};
use crate::sorting::{run_on, SortOptions, SortOutcome, SortTrace};
use crate::timing::PartyTimer;
use ppgr_bigint::BigUint;
use ppgr_elgamal::{Ciphertext, ExpElGamal, JointKey, KeyPair};
use ppgr_group::{Group, Scalar};
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

/// One session on `values` (party order) whose stock `deviate` edits
/// before the parties' machines run on it. The session seed is drawn from
/// `rng` as [`run_sort`](crate::sorting::run_sort) draws it.
fn play<R: Rng + ?Sized>(
    group: &Group,
    values: &[u64],
    l: usize,
    rng: &mut R,
    deviate: impl FnOnce(&mut OfflineStock),
) -> (SortOutcome, SortTrace) {
    let values: Vec<BigUint> = values.iter().map(|&v| BigUint::from(v)).collect();
    let fp = StockFingerprint::new(rng.gen(), values.len(), l, group.kind());
    let mut stock = OfflineStock::generate(fp, 1, || false)
        // tidy:allow(panic) — the never-cancelling hook makes None unreachable
        .expect("generation with a never-cancelling hook always completes");
    deviate(&mut stock);
    let (log, mut timer) = (TrafficLog::new(), PartyTimer::new(values.len() + 1));
    let options = SortOptions::default();
    run_on(group, &values, l, options, stock, &log, &mut timer)
        // tidy:allow(panic) — game harness drives fixed valid setups, not attacker input
        .expect("valid game setup")
}

/// The identity-linking attack (Definition 7).
///
/// Three parties: `P₁`, `P₂` honest, `P₃` the colluder (the maximum
/// `n − 2` for `n = 3`). A hidden bit assigns `(v_hi, v_lo)` to
/// `(P₁, P₂)` or `(P₂, P₁)`; `P₃`'s value lies strictly between. `P₃`
/// decrypts her returned set and guesses from the *position* of the zero:
/// block 0 ↔ opponent `P₁`, block 1 ↔ opponent `P₂`. With `shuffle`
/// false, every party's hop skips its shuffle.
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
        let (_, trace) = play(group, &[p1, p2, v_adv], l, &mut rng, |stock| {
            if !shuffle {
                (0..3).for_each(|party| stock.skip_shuffle(party));
            }
        });

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
/// When every party's hop skips its randomization (`randomize` false) this
/// is 1.0 — the protocol would leak every `τ` profile; with randomization
/// it collapses to ≈ 0.
pub fn value_recovery_rate(group: &Group, l: usize, randomize: bool, seed: u64) -> f64 {
    let mut rng = HashDrbg::seed_from_u64(seed);
    let (_, trace) = play(group, &[40, 10, 25], l, &mut rng, |stock| {
        if !randomize {
            (0..3).for_each(|party| stock.skip_randomization(group, party));
        }
    });
    let (key, set) = (trace.keys[2].secret_key(), &trace.returned_sets[2]);
    recovery(group, key, set, l)
}

/// The share of `set`'s non-zero plaintexts under `key` that brute force
/// up to `2l + 4` recovers.
fn recovery(group: &Group, key: &Scalar, set: &[Ciphertext], l: usize) -> f64 {
    let scheme = ExpElGamal::new(group.clone());
    let mut nonzero = 0u32;
    let mut recovered = 0u32;
    for ct in set {
        if scheme.decrypts_to_zero(key, ct) {
            continue;
        }
        nonzero += 1;
        if scheme.decrypt_small(key, ct, 2 * l as u64 + 4).is_some() {
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
            let values = [honest, adversary_values[0], adversary_values[1]];
            let (out, trace) = play(group, &values, l, &mut rng, |_| ());
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
    use std::collections::HashSet;

    const L: usize = 6;

    /// `P₃`'s key pair and returned set in sessions on 10, 40, 25, one per
    /// seed 0–7, each on a stock `deviate` edited.
    fn colluder_views(
        group: &Group,
        deviate: impl Fn(&mut OfflineStock),
    ) -> Vec<(KeyPair, Vec<Ciphertext>)> {
        (0..8)
            .map(|seed| {
                let mut rng = HashDrbg::seed_from_u64(seed);
                let (_, mut trace) = play(group, &[10, 40, 25], L, &mut rng, &deviate);
                (
                    trace.keys.swap_remove(2),
                    trace.returned_sets.swap_remove(2),
                )
            })
            .collect()
    }

    #[test]
    fn one_shuffling_hop_unlinks() {
        // P₃'s set is hopped by P₁ and P₂ alone. While both skip their
        // shuffles, its one zero (40 beats 25) stays where the comparison
        // put it: the top bit of P₂'s block. If either shuffles, the zero
        // moves across seeds.
        let group = GroupKind::Ecc160.group();
        let scheme = ExpElGamal::new(group.clone());
        for skipping in [&[0, 1][..], &[0], &[1]] {
            let views = colluder_views(&group, |stock| {
                for &party in skipping {
                    stock.skip_shuffle(party);
                }
            });
            let positions: HashSet<usize> = views
                .iter()
                .map(|(key, set)| {
                    let zero = |ct: &Ciphertext| scheme.decrypts_to_zero(key.secret_key(), ct);
                    set.iter().position(zero).expect("40 beats 25")
                })
                .collect();
            if skipping.len() == 2 {
                assert_eq!(positions, HashSet::from([2 * L - 1]));
            } else {
                assert!(positions.len() > 1, "skipping {skipping:?}: {positions:?}");
            }
        }
    }

    #[test]
    fn one_randomizing_hop_hides_the_values() {
        // Likewise, P₃ recovers every non-zero τ while neither P₁ nor P₂
        // randomizes, and none once one of them does.
        let group = GroupKind::Ecc160.group();
        for skipping in [&[0, 1][..], &[0], &[1]] {
            let views = colluder_views(&group, |stock| {
                for &party in skipping {
                    stock.skip_randomization(&group, party);
                }
            });
            let want = if skipping.len() == 2 { 1.0 } else { 0.0 };
            for (key, set) in views {
                let rate = recovery(&group, key.secret_key(), &set, L);
                assert_eq!(rate, want, "skipping {skipping:?}");
            }
        }
    }

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
