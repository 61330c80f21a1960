//! Kernel probes for the traced run: the group and proof-verification
//! calls the protocol spends its time in, timed one call at a time on the
//! workload's own group.

use crate::stats::{median, Trace};
use ppgr_group::{Element, Group, Scalar};
use ppgr_hash::HashDrbg;
use ppgr_zkp::{verify_sessions_multi_batch, MultiVerifierProof, MultiVerifierTranscript};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Terms in the multi-exponentiation probe.
const MSM_TERMS: usize = 64;
/// Sessions folded into one verification probe.
const VERIFY_SESSIONS: usize = 4;
/// A probe stops early once it has spent this long (and made ≥ 5 calls),
/// so the slow DL-1024 kernels keep the traced run short.
const PROBE_BUDGET: Duration = Duration::from_millis(600);

/// Median microseconds per call of `f` over up to `calls` calls, recorded
/// as one `probe:<name>` span under `parent`.
fn time_calls(
    trace: &mut Trace,
    parent: usize,
    name: &str,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if i >= 4 && start.elapsed() > PROBE_BUDGET {
            break;
        }
    }
    trace.push(
        format!("probe:{name}"),
        Some(parent),
        None,
        start,
        Instant::now(),
    );
    median(&samples)
}

/// Per-call medians of the probed kernels, in microseconds.
pub struct Kernels {
    /// Variable-base exponentiation `b^s`.
    pub exp_var_us: f64,
    /// Fixed-base exponentiation `g^s`.
    pub exp_fixed_us: f64,
    /// One term of a 64-term multi-exponentiation.
    pub msm_term_us: f64,
    /// One group operation.
    pub op_us: f64,
    /// One proof inside a cross-session batch verification.
    pub verify_us_per_proof: f64,
    /// Every batch of honest proofs verified.
    pub verified: bool,
}

/// Probes `group` with `calls` calls per kernel; `parties` sizes the
/// verification batch (`4` sessions × `parties` proofs).
pub fn kernels(
    group: &Group,
    parties: usize,
    calls: usize,
    seed: u64,
    trace: &mut Trace,
    parent: usize,
) -> Kernels {
    let mut rng = HashDrbg::seed_from_u64(seed);
    let scalars: Vec<Scalar> = (0..calls.max(MSM_TERMS))
        .map(|_| group.random_scalar(&mut rng))
        .collect();
    let bases: Vec<Element> = scalars
        .iter()
        .map(|s| group.exp_gen(&group.scalar_add(s, &group.scalar_from_u64(1))))
        .collect();
    let at = |i: usize| i % scalars.len();

    let exp_var_us = time_calls(trace, parent, "exp_var", calls, |i| {
        black_box(group.exp(&bases[at(i + 1)], &scalars[at(i)]));
    });
    let exp_fixed_us = time_calls(trace, parent, "exp_fixed", calls, |i| {
        black_box(group.exp_gen(&scalars[at(i)]));
    });
    let pairs: Vec<(&Element, &Scalar)> = bases[..MSM_TERMS].iter().zip(&scalars).collect();
    let msm_us = time_calls(trace, parent, "msm", calls, |_| {
        black_box(group.multi_exp(&pairs));
    });
    let op_us = time_calls(trace, parent, "op", calls, |i| {
        black_box(group.op(&bases[at(i)], &bases[at(i + 1)]));
    });

    let proofs: Vec<Vec<(Element, MultiVerifierTranscript)>> = (0..VERIFY_SESSIONS)
        .map(|_| {
            (0..parties)
                .map(|_| {
                    let x = group.random_scalar(&mut rng);
                    let proof = MultiVerifierProof::run(group, &x, parties, &mut rng);
                    (group.exp_gen(&x), proof)
                })
                .collect()
        })
        .collect();
    let items: Vec<Vec<(&Element, &MultiVerifierTranscript)>> = proofs
        .iter()
        .map(|s| s.iter().map(|(y, t)| (y, t)).collect())
        .collect();
    let sessions: Vec<&[(&Element, &MultiVerifierTranscript)]> =
        items.iter().map(Vec::as_slice).collect();
    let mut verified = true;
    let verify_us = time_calls(trace, parent, "verify", calls, |_| {
        verified &= verify_sessions_multi_batch(group, &sessions).is_ok();
    });

    Kernels {
        exp_var_us,
        exp_fixed_us,
        msm_term_us: msm_us / MSM_TERMS as f64,
        op_us,
        verify_us_per_proof: verify_us / (VERIFY_SESSIONS * parties) as f64,
        verified,
    }
}
