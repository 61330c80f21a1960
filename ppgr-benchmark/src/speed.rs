//! Host speed.
//!
//! The benchmark shares its cores with other tenants, whose load moves a
//! session's wall time by up to 2× within minutes on the 2-vCPU host the
//! benchmark was sized on. A fixed calibration kernel, timed right before
//! and after each measurement on as many threads as the measured work
//! keeps busy, tracks that: every reported time is rescaled to what it
//! would have been at the reference speed ([`REFERENCE_US`]), and every
//! rate by the inverse. The kernel is the benchmark's own code, so no
//! change to the program under test can move it.

use std::hint::black_box;
use std::time::Instant;

/// Limbs of the kernel's Montgomery multiplication: 512 bits, between the
/// P-160 field and the DL-1024 group the workloads use.
const LIMBS: usize = 8;
/// Multiplications per burst.
const ROUNDS: usize = 3_000;
/// One burst's time on the reference host (Intel Xeon, 2 vCPUs, the
/// fastest state observed), in µs. Times are reported as if every burst
/// had taken this long.
pub const REFERENCE_US: f64 = 250.0;

/// `-m⁻¹ mod 2⁶⁴` for odd `m`.
fn neg_inv(m: u64) -> u64 {
    let mut x: u64 = 1;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
    }
    x.wrapping_neg()
}

/// Montgomery multiplication (CIOS) modulo `m`, the inner loop of the
/// bignum arithmetic the protocol spends its time in.
fn mont_mul(a: &[u64; LIMBS], b: &[u64; LIMBS], m: &[u64; LIMBS], n0: u64) -> [u64; LIMBS] {
    let mut t = [0u64; LIMBS + 2];
    for &bi in b {
        let mut carry = 0u128;
        for j in 0..LIMBS {
            let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[LIMBS]) + carry;
        t[LIMBS] = s as u64;
        t[LIMBS + 1] = (s >> 64) as u64;
        let u = t[0].wrapping_mul(n0);
        let mut carry = (u128::from(t[0]) + u128::from(u) * u128::from(m[0])) >> 64;
        for j in 1..LIMBS {
            let s = u128::from(t[j]) + u128::from(u) * u128::from(m[j]) + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[LIMBS]) + carry;
        t[LIMBS - 1] = s as u64;
        t[LIMBS] = t[LIMBS + 1] + (s >> 64) as u64;
    }
    let mut out = [0u64; LIMBS];
    out.copy_from_slice(&t[..LIMBS]);
    out
}

/// The kernel: repeated squaring of a fixed value. Returns its last limb
/// so the work cannot be optimized away (and so a test can pin it).
fn kernel(rounds: usize) -> u64 {
    let mut m = [u64::MAX; LIMBS];
    m[0] = u64::MAX - 58;
    let n0 = neg_inv(m[0]);
    let mut x = [0x1234_5678_9abc_def1u64; LIMBS];
    x[LIMBS - 1] >>= 2;
    for _ in 0..rounds {
        x = mont_mul(&x, &x, black_box(&m), n0);
    }
    x[0]
}

fn burst_us() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    start.elapsed().as_secs_f64() * 1e6
}

/// One burst on each of `threads` threads at once; their mean time in µs.
/// The calling thread runs one of them, so a one-thread sample measures
/// the core the measured work itself runs on.
pub fn sample(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(burst_us)).collect();
        let own = burst_us();
        own + others
            .into_iter()
            .map(|h| h.join().expect("calibration burst"))
            .sum::<f64>()
    });
    total / threads as f64
}

/// The factor that rescales a time measured while bursts took `burst_us`
/// to the reference speed.
pub fn factor(burst_us: f64) -> f64 {
    REFERENCE_US / burst_us
}

/// Runs `work` between two samples on `threads` threads and returns its
/// result with the factor for the interval.
pub fn around<T>(threads: usize, work: impl FnOnce() -> T) -> (T, f64) {
    let before = sample(threads);
    let out = work();
    let after = sample(threads);
    (out, factor((before + after) / 2.0))
}

/// Worker threads a session with default sort options keeps busy.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_calibration_kernel_never_changes() {
        // Times are only comparable across commits while the kernel does
        // exactly the same work; this pins it.
        assert_eq!(kernel(ROUNDS), kernel(ROUNDS));
        assert_eq!(kernel(3), 0xc7d8_a3c5_cd23_06f6);
    }

    #[test]
    fn montgomery_multiplication_by_the_montgomery_one_is_identity() {
        // R mod m for m = 2^512 − 59 (limbs all ones but the lowest) is 59.
        let mut m = [u64::MAX; LIMBS];
        m[0] = u64::MAX - 58;
        let mut r = [0u64; LIMBS];
        r[0] = 59;
        let x = [7u64, 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(mont_mul(&x, &r, &m, neg_inv(m[0])), x);
        assert_eq!(m[0].wrapping_mul(neg_inv(m[0])), u64::MAX);
    }

    #[test]
    fn samples_are_positive_and_rescale_to_the_reference() {
        assert!(sample(2) > 0.0);
        assert_eq!(factor(REFERENCE_US), 1.0);
        assert_eq!(factor(2.0 * REFERENCE_US), 0.5);
        let (v, f) = around(1, || 5);
        assert_eq!(v, 5);
        assert!(f > 0.0 && f.is_finite());
    }
}
