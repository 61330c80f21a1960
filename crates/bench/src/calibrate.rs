//! Per-operation cost measurement on the current machine.

use ppgr_bigint::FpCtx;
use ppgr_dotprod::default_field;
use ppgr_elgamal::{ExpElGamal, KeyPair};
use ppgr_group::GroupKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measures the cost of one group exponentiation (random base, full-width
/// random exponent) for `kind`, averaged over `samples`.
pub fn exp_time(kind: GroupKind, samples: u32) -> Duration {
    let g = kind.group();
    let mut rng = StdRng::seed_from_u64(0xCA11B7A7E);
    let x = g.random_scalar(&mut rng);
    let mut acc = g.exp_gen(&x);
    let start = Instant::now();
    for _ in 0..samples {
        let s = g.random_scalar(&mut rng);
        acc = g.exp(&acc, &s);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(acc);
    elapsed / samples
}

/// Measures the table-amortized fixed-base exponentiation cost: one comb
/// table is built for a fresh base and `samples` exponentiations run
/// through it, so the (one-off) precomputation is spread across the batch
/// exactly as the protocol spreads the joint-key table across all of a
/// party's encryptions.
pub fn fixed_base_exp_time(kind: GroupKind, samples: u32) -> Duration {
    let g = kind.group();
    let mut rng = StdRng::seed_from_u64(0xF18ED);
    let base = g.exp_gen(&g.random_scalar(&mut rng));
    let scalars: Vec<_> = (0..samples).map(|_| g.random_scalar(&mut rng)).collect();
    let start = Instant::now();
    let table = g.prepare_base(&base);
    let mut acc = g.identity();
    for s in &scalars {
        acc = g.op(&acc, &g.exp_prepared(&table, s));
    }
    let elapsed = start.elapsed();
    std::hint::black_box(acc);
    elapsed / samples
}

/// Measures one fused shuffle-chain hop (partial decryption + plaintext
/// randomization) per ciphertext — the unit the protocol's dominant step-8
/// term is made of — through the production kernel: one prepared gather
/// over a set of `samples` ciphertexts, with the hop scalars prepared
/// beforehand as the offline stock prepares them. One untimed warm-up
/// pass first lets the timed pass reuse the allocator's memory instead of
/// faulting in fresh pages. The op-count analysis books a hop as 3
/// exponentiations; the fused kernel does it in ≈1.7.
pub fn chain_hop_time(kind: GroupKind, samples: u32) -> Duration {
    let g = kind.group();
    let mut rng = StdRng::seed_from_u64(0xC4A17);
    let kp = KeyPair::generate(&g, &mut rng);
    let scheme = ExpElGamal::new(g.clone());
    let cts: Vec<_> = (0..samples)
        .map(|_| scheme.encrypt(kp.public_key(), &g.scalar_from_u64(0), &mut rng))
        .collect();
    let rs: Vec<_> = (0..samples)
        .map(|_| g.random_nonzero_scalar(&mut rng))
        .collect();
    let prep = g.prepare_hop_scalars(kp.secret_key(), &rs);
    let mut out = Vec::with_capacity(cts.len());
    scheme.partial_decrypt_randomize_prepared_gather_into(&cts, &prep, None, &mut out);
    let start = Instant::now();
    scheme.partial_decrypt_randomize_prepared_gather_into(&cts, &prep, None, &mut out);
    let elapsed = start.elapsed();
    std::hint::black_box(out);
    elapsed / samples
}

/// Measures the amortized per-term cost of a multi-exponentiation at a
/// representative batch width (32 terms, full-width scalars) — the rate
/// batch Schnorr verification pays per MSM term, in place of a full
/// variable-base exponentiation per proof.
pub fn msm_term_time(kind: GroupKind, samples: u32) -> Duration {
    const TERMS: usize = 32;
    let g = kind.group();
    let mut rng = StdRng::seed_from_u64(0x4D534D);
    let bases: Vec<_> = (0..TERMS)
        .map(|_| g.exp_gen(&g.random_scalar(&mut rng)))
        .collect();
    let scalar_sets: Vec<Vec<_>> = (0..samples)
        .map(|_| (0..TERMS).map(|_| g.random_scalar(&mut rng)).collect())
        .collect();
    let mut acc = g.identity();
    let start = Instant::now();
    for scalars in &scalar_sets {
        let pairs: Vec<_> = bases.iter().zip(scalars).collect();
        acc = g.op(&acc, &g.multi_exp(&pairs));
    }
    let elapsed = start.elapsed();
    std::hint::black_box(acc);
    elapsed / (samples * TERMS as u32)
}

/// Measures one 256-bit field multiplication (the SS baseline's integer
/// multiplication unit), averaged over `samples`.
pub fn field_mul_time(samples: u32) -> Duration {
    let field: Arc<FpCtx> = default_field();
    let mut rng = StdRng::seed_from_u64(0xF1E1D);
    let mut acc = field.random(&mut rng);
    let b = field.random_nonzero(&mut rng);
    let start = Instant::now();
    for _ in 0..samples {
        acc = &acc * &b;
    }
    let elapsed = start.elapsed();
    std::hint::black_box(acc);
    elapsed / samples
}

/// A calibration bundle for all six groups plus the field unit.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Variable-base per-exponentiation time, indexed by
    /// [`GroupKind::all`] order.
    pub exp: [(GroupKind, Duration); 6],
    /// Table-amortized fixed-base per-exponentiation time (the rate paid
    /// for generator and joint-key exponentiations), same order.
    pub fixed_exp: [(GroupKind, Duration); 6],
    /// Fused per-ciphertext shuffle-chain hop time (books as 3
    /// exponentiations in the op counts), same order.
    pub chain_hop: [(GroupKind, Duration); 6],
    /// Amortized per-term multi-exponentiation time (the batch
    /// Schnorr-verification rate), same order.
    pub msm_term: [(GroupKind, Duration); 6],
    /// Per-field-multiplication time (SS baseline unit).
    pub field_mul: Duration,
}

impl Calibration {
    /// Runs the full calibration (`quick` uses fewer samples).
    pub fn measure(quick: bool) -> Self {
        let samples = if quick { 20 } else { 100 };
        let kinds = GroupKind::all();
        // The slow DL groups get fewer samples to bound wall time.
        let budget = |k: GroupKind| if k.is_dl() { samples.min(25) } else { samples };
        let exp = kinds.map(|k| (k, exp_time(k, budget(k))));
        let fixed_exp = kinds.map(|k| (k, fixed_base_exp_time(k, budget(k))));
        let chain_hop = kinds.map(|k| (k, chain_hop_time(k, budget(k))));
        // Each msm_term sample is a full 32-term MSM, so a handful of
        // samples already averages over a thousand terms.
        let msm_term = kinds.map(|k| (k, msm_term_time(k, budget(k).min(5))));
        Calibration {
            exp,
            fixed_exp,
            chain_hop,
            msm_term,
            field_mul: field_mul_time(20_000),
        }
    }

    /// Variable-base per-exponentiation time for `kind`.
    pub fn exp_for(&self, kind: GroupKind) -> Duration {
        Self::lookup(&self.exp, kind)
    }

    /// Table-amortized fixed-base per-exponentiation time for `kind`.
    pub fn fixed_exp_for(&self, kind: GroupKind) -> Duration {
        Self::lookup(&self.fixed_exp, kind)
    }

    /// Fused per-ciphertext chain-hop time for `kind`.
    pub fn chain_hop_for(&self, kind: GroupKind) -> Duration {
        Self::lookup(&self.chain_hop, kind)
    }

    /// Amortized per-MSM-term time for `kind`.
    pub fn msm_term_for(&self, kind: GroupKind) -> Duration {
        Self::lookup(&self.msm_term, kind)
    }

    fn lookup(table: &[(GroupKind, Duration); 6], kind: GroupKind) -> Duration {
        table
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, d)| *d)
            .expect("all kinds calibrated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fastest of five interleaved trials of each side. Alternating
    /// the sides exposes both to the same host load, and the minimum drops
    /// the trials a busy host slowed down.
    fn fastest_of(a: impl Fn() -> Duration, b: impl Fn() -> Duration) -> (Duration, Duration) {
        (0..5).fold((Duration::MAX, Duration::MAX), |(fa, fb), _| {
            (fa.min(a()), fb.min(b()))
        })
    }

    #[test]
    fn exp_time_positive_and_ordered() {
        let ecc = exp_time(GroupKind::Ecc160, 5);
        let dl = exp_time(GroupKind::Dl1024, 5);
        assert!(ecc > Duration::ZERO);
        assert!(dl > ecc, "DL-1024 must cost more than ECC-160");
    }

    #[test]
    fn field_mul_is_microseconds() {
        let t = field_mul_time(1000);
        assert!(t > Duration::ZERO);
        assert!(
            t < Duration::from_millis(1),
            "field mul should be ≪ 1 ms, got {t:?}"
        );
    }

    #[test]
    fn fixed_base_amortizes_below_variable_base() {
        // With enough exponentiations per table, the fixed-base rate must
        // beat the variable-base rate — that is the point of the tables.
        let (fixed, var) = fastest_of(
            || fixed_base_exp_time(GroupKind::Ecc160, 50),
            || exp_time(GroupKind::Ecc160, 50),
        );
        assert!(fixed > Duration::ZERO);
        assert!(
            fixed < var,
            "fixed-base {fixed:?} should beat variable-base {var:?}"
        );
    }

    #[test]
    fn msm_term_beats_variable_base_exp() {
        // The whole point of the engine: one 32-term MSM must be far
        // cheaper than 32 independent exponentiations.
        let (term, var) = fastest_of(
            || msm_term_time(GroupKind::Ecc160, 5),
            || exp_time(GroupKind::Ecc160, 30),
        );
        assert!(term > Duration::ZERO);
        assert!(
            term < var,
            "per-term MSM {term:?} should beat a full exp ({var:?})"
        );
    }

    #[test]
    fn fused_chain_hop_beats_three_exps() {
        let (hop, var) = fastest_of(
            || chain_hop_time(GroupKind::Ecc160, 30),
            || exp_time(GroupKind::Ecc160, 30),
        );
        assert!(hop > Duration::ZERO);
        assert!(
            hop < var * 3,
            "fused hop {hop:?} should undercut 3 exps ({var:?} each)"
        );
    }
}
