//! The Ioannidis–Grama–Atallah secure two-party dot product (paper
//! Sec. IV-A), implemented over a prime field `Z_p`.
//!
//! Two parties hold private vectors and jointly compute their dot product:
//!
//! * the **sender** (Bob in the paper; the *participant* in the framework)
//!   holds `w` and learns `β = w·v + α`;
//! * the **receiver** (Alice; the *initiator*) holds `v` and the mask `α`
//!   and learns nothing.
//!
//! In the original protocol the parties finish by exchanging `α` and `β`
//! so both learn `w·v`; the group-ranking framework deliberately *skips*
//! that exchange — the initiator chooses `v = ρ·(weights)` and `α = ρ_j`,
//! so the participant ends up with the masked partial gain `ρ·p_j + ρ_j`
//! and neither side learns the true gain (paper Fig. 1, steps 1–4).
//!
//! ## Field substitution
//!
//! The published protocol is written over the reals. We run it in `Z_p`
//! (a fixed 256-bit prime), where every division is an exact field
//! inversion; since the masked results are `≪ p`, they are recovered
//! exactly. The security argument — the adversary faces an underdetermined
//! linear system — is unchanged (see DESIGN.md §3).
//!
//! # Example
//!
//! ```
//! use ppgr_bigint::FpCtx;
//! use ppgr_dotprod::{default_field, DotProduct};
//! use rand::SeedableRng;
//!
//! let field = default_field();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let w: Vec<_> = [1i128, 2, 3].iter().map(|&x| field.from_i128(x)).collect();
//! let v: Vec<_> = [4i128, 5, 6].iter().map(|&x| field.from_i128(x)).collect();
//! let alpha = field.from_i128(100);
//!
//! let proto = DotProduct::new(field.clone());
//! let (state, msg1) = proto.sender_round1(&w, &mut rng);
//! let msg2 = proto.receiver_round2(&v, &alpha, &msg1);
//! let beta = state.finish(&msg2);
//! // β = w·v + α = 32 + 100
//! assert_eq!(beta.to_i128_centered(), Some(132));
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

use ppgr_bigint::{BigUint, Fp, FpCtx, Secret};
use rand::Rng;
use std::sync::Arc;

/// A 256-bit prime for the protocol field: `2^256 − 189` (the largest
/// 256-bit prime of the form `2^256 − c`).
const FIELD_PRIME_HEX: &str = "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43";

/// The default protocol field `Z_{2^256 − 189}`.
pub fn default_field() -> Arc<FpCtx> {
    // tidy:allow(panic) — parses a vetted compile-time prime constant; exercised by every test
    FpCtx::new(BigUint::from_hex_str(FIELD_PRIME_HEX).expect("vetted constant"))
}

/// First-round message: `(QX, c′, g)` from the sender to the receiver.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Round1Message {
    /// The product matrix `QX` (`s × d`), rows outer.
    pub qx: Vec<Vec<Fp>>,
    /// Blinded row-combination vector `c′ = c + R₁R₂·f`.
    pub c_prime: Vec<Fp>,
    /// Blinding helper `g = R₁R₃·f`.
    pub g: Vec<Fp>,
}

/// Second-round message: `(a, h)` from the receiver back to the sender.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Round2Message {
    /// `a = z − c′·v′`.
    pub a: Fp,
    /// `h = g·v′`.
    pub h: Fp,
}

/// Sender-side secret state between rounds.
///
/// The blinding factors are the sender's only protection for `w`; they are
/// held in [`Secret`] wrappers so `{:?}` redacts them and the limbs are
/// wiped (best-effort) when the state is dropped.
pub struct SenderState {
    /// `b = Σ_i Q_{ir}` (column-`r` sum of `Q`).
    b: Secret<Fp>,
    /// Blinding factors.
    r2: Secret<Fp>,
    r3: Secret<Fp>,
}

impl std::fmt::Debug for SenderState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderState")
            .field("b", &self.b)
            .field("r2", &self.r2)
            .field("r3", &self.r3)
            .finish()
    }
}

impl SenderState {
    /// Completes the protocol: `β = (a + h·R₂/R₃) / b = w·v + α`.
    pub fn finish(self, msg: &Round2Message) -> Fp {
        let r2 = self.r2.expose();
        let r3 = self.r3.expose();
        // tidy:allow(panic) — R₃ is drawn with random_nonzero, so inversion cannot fail
        let ratio = r2 * &r3.inv().expect("R₃ is sampled nonzero");
        let numerator = &msg.a + &(&msg.h * &ratio);
        // tidy:allow(panic) — Q is resampled in round 1 until b ≠ 0, so inversion cannot fail
        numerator * self.b.expose().inv().expect("b is sampled nonzero")
    }
}

/// The protocol object; holds the field and the matrix size parameter `s`.
#[derive(Clone, Debug)]
pub struct DotProduct {
    field: Arc<FpCtx>,
    s: usize,
}

impl DotProduct {
    /// Default matrix size (`s`); the reference implementation notes `s`
    /// "is not necessary to be a big number" and independent of `n`.
    pub const DEFAULT_S: usize = 8;

    /// Creates the protocol over `field` with the default `s`.
    pub fn new(field: Arc<FpCtx>) -> Self {
        DotProduct {
            field,
            s: Self::DEFAULT_S,
        }
    }

    /// Overrides the hidden-matrix size `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s < 2` (the row-hiding argument needs at least one decoy
    /// row).
    pub fn with_s(field: Arc<FpCtx>, s: usize) -> Self {
        assert!(s >= 2, "s must be at least 2");
        DotProduct { field, s }
    }

    /// The protocol field.
    pub fn field(&self) -> &Arc<FpCtx> {
        &self.field
    }

    /// Sender (participant) round 1: hides `w` inside `QX` and blinds the
    /// correction vector.
    ///
    /// `w` has `d−1` entries; the hidden row is `[wᵀ, 1]`.
    pub fn sender_round1<R: Rng + ?Sized>(
        &self,
        w: &[Fp],
        rng: &mut R,
    ) -> (SenderState, Round1Message) {
        let f = &self.field;
        let d = w.len() + 1;
        let s = self.s;
        let r = rng.gen_range(0..s);

        // X: s×d random, row r = [w, 1].
        let mut x: Vec<Vec<Fp>> = (0..s)
            .map(|i| {
                if i == r {
                    let mut row: Vec<Fp> = w.to_vec();
                    row.push(f.one());
                    row
                } else {
                    (0..d).map(|_| f.random(rng)).collect()
                }
            })
            .collect();

        // Q: s×s random, resampled until b = Σ_i Q_{ir} ≠ 0.
        let (q, b) = loop {
            let q: Vec<Vec<Fp>> = (0..s)
                .map(|_| (0..s).map(|_| f.random(rng)).collect())
                .collect();
            let mut b = f.zero();
            for row in &q {
                b = &b + &row[r];
            }
            if !b.is_zero() {
                break (q, b);
            }
        };

        // QX (s×d).
        let qx: Vec<Vec<Fp>> = (0..s)
            .map(|i| {
                (0..d)
                    .map(|k| {
                        let mut acc = f.zero();
                        for j in 0..s {
                            acc = &acc + &(&q[i][j] * &x[j][k]);
                        }
                        acc
                    })
                    .collect()
            })
            .collect();

        // c = Σ_{j≠r} (Σ_i Q_{ij}) · x_j   (d-vector).
        let col_sums: Vec<Fp> = (0..s)
            .map(|j| {
                let mut acc = f.zero();
                for row in &q {
                    acc = &acc + &row[j];
                }
                acc
            })
            .collect();
        let mut c = vec![f.zero(); d];
        for (j, row) in x.iter().enumerate() {
            if j == r {
                continue;
            }
            for (k, cell) in row.iter().enumerate() {
                c[k] = &c[k] + &(&col_sums[j] * cell);
            }
        }
        // Wipe X rows we no longer need (w itself stays with the caller).
        x.clear();

        let r1 = f.random_nonzero(rng);
        let r2 = f.random_nonzero(rng);
        let r3 = f.random_nonzero(rng);
        let fvec: Vec<Fp> = (0..d).map(|_| f.random(rng)).collect();
        let r1r2 = &r1 * &r2;
        let r1r3 = &r1 * &r3;
        let c_prime: Vec<Fp> = c
            .iter()
            .zip(&fvec)
            .map(|(ci, fi)| ci + &(&r1r2 * fi))
            .collect();
        let g: Vec<Fp> = fvec.iter().map(|fi| &r1r3 * fi).collect();

        (
            SenderState {
                b: Secret::new(b),
                r2: Secret::new(r2),
                r3: Secret::new(r3),
            },
            Round1Message { qx, c_prime, g },
        )
    }

    /// Receiver (initiator) round 2: forms `v′ = [v, α]` and answers with
    /// `(a, h)`. It draws no randomness.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() + 1` does not match the sender's dimension.
    pub fn receiver_round2(&self, v: &[Fp], alpha: &Fp, msg: &Round1Message) -> Round2Message {
        let f = &self.field;
        let d = v.len() + 1;
        assert!(
            msg.qx.iter().all(|row| row.len() == d) && msg.c_prime.len() == d && msg.g.len() == d,
            "dimension mismatch between sender and receiver vectors"
        );
        let mut v_prime: Vec<Fp> = v.to_vec();
        v_prime.push(alpha.clone());

        // y = QX·v′ ; z = Σ y_i
        let mut z = f.zero();
        for row in &msg.qx {
            let mut yi = f.zero();
            for (cell, vk) in row.iter().zip(&v_prime) {
                yi = &yi + &(cell * vk);
            }
            z = &z + &yi;
        }
        let dot = |a: &[Fp], b: &[Fp]| {
            let mut acc = f.zero();
            for (x, y) in a.iter().zip(b) {
                acc = &acc + &(x * y);
            }
            acc
        };
        let a = &z - &dot(&msg.c_prime, &v_prime);
        let h = dot(&msg.g, &v_prime);
        Round2Message { a, h }
    }

    /// Runs the *full* original protocol in which both parties learn `w·v`
    /// (the final `α`/`β` exchange included). The framework never calls
    /// this; it exists to test against the published functionality.
    pub fn mutual<R: Rng + ?Sized>(&self, w: &[Fp], v: &[Fp], rng: &mut R) -> Fp {
        let alpha = self.field.random(rng);
        let (state, m1) = self.sender_round1(w, rng);
        let m2 = self.receiver_round2(v, &alpha, &m1);
        let beta = state.finish(&m2);
        // Exchange: both compute β − α = w·v.
        beta - alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plain_dot(f: &Arc<FpCtx>, w: &[i128], v: &[i128]) -> i128 {
        let _ = f;
        w.iter().zip(v).map(|(a, b)| a * b).sum()
    }

    fn to_fp(f: &Arc<FpCtx>, xs: &[i128]) -> Vec<Fp> {
        xs.iter().map(|&x| f.from_i128(x)).collect()
    }

    #[test]
    fn masked_output_is_dot_plus_alpha() {
        let f = default_field();
        let proto = DotProduct::new(f.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let w = [3i128, -7, 11, 0, 5];
        let v = [2i128, 9, -4, 8, 1];
        let (state, m1) = proto.sender_round1(&to_fp(&f, &w), &mut rng);
        let alpha = f.from_i128(1_000_000);
        let m2 = proto.receiver_round2(&to_fp(&f, &v), &alpha, &m1);
        let beta = state.finish(&m2);
        assert_eq!(
            beta.to_i128_centered(),
            Some(plain_dot(&f, &w, &v) + 1_000_000)
        );
    }

    #[test]
    fn mutual_protocol_matches_plain_dot() {
        let f = default_field();
        let proto = DotProduct::new(f.clone());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let w: Vec<i128> = (0..7).map(|_| rng.gen_range(-1000..1000)).collect();
            let v: Vec<i128> = (0..7).map(|_| rng.gen_range(-1000..1000)).collect();
            let out = proto.mutual(&to_fp(&f, &w), &to_fp(&f, &v), &mut rng);
            assert_eq!(out.to_i128_centered(), Some(plain_dot(&f, &w, &v)));
        }
    }

    #[test]
    fn works_for_dimension_one_and_zero_vectors() {
        let f = default_field();
        let proto = DotProduct::new(f.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let out = proto.mutual(&to_fp(&f, &[42]), &to_fp(&f, &[10]), &mut rng);
        assert_eq!(out.to_i128_centered(), Some(420));
        let out = proto.mutual(&to_fp(&f, &[0, 0]), &to_fp(&f, &[5, 9]), &mut rng);
        assert_eq!(out.to_i128_centered(), Some(0));
    }

    #[test]
    fn different_s_parameters_agree() {
        let f = default_field();
        let mut rng = StdRng::seed_from_u64(4);
        let w = to_fp(&f, &[1, 2, 3, 4]);
        let v = to_fp(&f, &[5, 6, 7, 8]);
        for s in [2usize, 3, 8, 16] {
            let proto = DotProduct::with_s(f.clone(), s);
            let out = proto.mutual(&w, &v, &mut rng);
            assert_eq!(out.to_i128_centered(), Some(70), "s = {s}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let f = default_field();
        let proto = DotProduct::new(f.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let (_state, m1) = proto.sender_round1(&to_fp(&f, &[1, 2, 3]), &mut rng);
        let _ = proto.receiver_round2(&to_fp(&f, &[1, 2]), &f.zero(), &m1);
    }

    #[test]
    fn round1_reveals_no_direct_copy_of_w() {
        // The hidden row of X never appears verbatim in QX (probabilistic
        // sanity check, not a security proof).
        let f = default_field();
        let proto = DotProduct::new(f.clone());
        let mut rng = StdRng::seed_from_u64(6);
        let w = to_fp(&f, &[123, 456, 789]);
        let (_s, m1) = proto.sender_round1(&w, &mut rng);
        for row in &m1.qx {
            assert_ne!(&row[..3], &w[..], "w leaked as a plain row of QX");
        }
    }
}
