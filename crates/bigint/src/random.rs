//! Uniform random [`BigUint`] generation, generic over any [`rand::Rng`].

use crate::uint::BigUint;
use rand::Rng;

/// Fills `limbs` with `bits` uniformly random bits, low limb first, one
/// `rng.gen::<u64>()` per limb, the top limb masked to the bits left over.
/// `limbs` holds exactly `bits.div_ceil(64)` limbs.
fn fill_bits<R: Rng + ?Sized>(rng: &mut R, limbs: &mut [u64], bits: usize) {
    for limb in limbs.iter_mut() {
        *limb = rng.gen();
    }
    let extra = limbs.len() * 64 - bits;
    if let Some(top) = limbs.last_mut().filter(|_| extra > 0) {
        *top &= u64::MAX >> extra;
    }
}

/// A uniformly random value with exactly `bits` random bits (may have
/// leading zero bits, i.e. the result is uniform in `[0, 2^bits)`).
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    let mut v = vec![0; bits.div_ceil(64)];
    fill_bits(rng, &mut v, bits);
    BigUint::from_limbs(v)
}

/// A uniformly random value of exactly `bits` significant bits
/// (top bit forced to one). `bits` must be at least 1.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn random_nbit<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 1, "need at least one bit");
    let mut v = random_bits(rng, bits);
    v.set_bit(bits - 1, true);
    v
}

/// A uniformly random value in `[0, bound)` by rejection sampling: each
/// candidate is [`random_bits`] at `bound`'s bit length, drawn into one
/// buffer at `bound`'s width and compared there, so a rejected candidate
/// allocates nothing and only the accepted one becomes a [`BigUint`].
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "bound must be positive");
    let (top, bits) = (bound.limbs(), bound.bits());
    let mut v = vec![0; top.len()];
    loop {
        fill_bits(rng, &mut v, bits);
        // Same width, so the top limbs decide.
        if v.iter().rev().lt(top.iter().rev()) {
            return BigUint::from_limbs(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bits_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [1usize, 7, 64, 65, 257] {
            for _ in 0..20 {
                let v = random_bits(&mut rng, bits);
                assert!(v.bits() <= bits);
            }
        }
        assert!(random_bits(&mut rng, 0).is_zero());
    }

    #[test]
    fn random_nbit_exact_width() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [1usize, 8, 64, 100] {
            for _ in 0..20 {
                assert_eq!(random_nbit(&mut rng, bits).bits(), bits);
            }
        }
    }

    #[test]
    fn random_below_is_below_and_covers_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = BigUint::from(10u64);
        let mut seen = [false; 10];
        for _ in 0..400 {
            let v = random_below(&mut rng, &bound);
            assert!(v < bound);
            seen[v.to_u64().unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn random_below_draws_what_a_candidate_per_draw_drew() {
        // The sampler before the shared buffer: a fresh `random_bits` per
        // candidate. Both must read the same stream the same way.
        fn reference<R: Rng>(rng: &mut R, bound: &BigUint) -> BigUint {
            loop {
                let candidate = random_bits(rng, bound.bits());
                if &candidate < bound {
                    return candidate;
                }
            }
        }
        let one = BigUint::one();
        let mut bounds = vec![one.clone(), BigUint::from(10u64), BigUint::from(u64::MAX)];
        for bits in [64, 65, 160, 161, 1023, 1024] {
            let pow = BigUint::power_of_two(bits);
            bounds.extend([&pow - &one, pow.clone(), &pow + &one]);
        }
        for (i, bound) in bounds.iter().enumerate() {
            let mut a = StdRng::seed_from_u64(i as u64);
            let mut b = a.clone();
            for _ in 0..50 {
                assert_eq!(random_below(&mut a, bound), reference(&mut b, bound));
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "bound={bound:?}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_bits(&mut StdRng::seed_from_u64(42), 256);
        let b = random_bits(&mut StdRng::seed_from_u64(42), 256);
        assert_eq!(a, b);
    }
}
