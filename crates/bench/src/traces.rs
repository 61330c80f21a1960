//! Synthetic wire traces for the Fig. 3(b) network simulation.
//!
//! Message sizes and round structure of both frameworks are deterministic
//! functions of `(n, l, group)` — no cryptography needs to run to know
//! what crosses the wire. These generators mirror the `TrafficLog` calls
//! of the real implementation — the sorting machine's steps
//! (`ppgr-core::sorting`), which log phases 1 and 3 as well as phase 2 —
//! and an NS2-style model of the SS baseline.

use ppgr_group::GroupKind;
use ppgr_net::sim::TraceMessage;
use ppgr_smc::cost;

/// Field element wire size used by the gain phase (256-bit field).
const FIELD_BYTES: usize = 32;
/// Dot-product hidden-matrix rows (`s` in the protocol).
const DOTPROD_S: usize = 8;

/// Trace of the paper's framework: phase 1 + phase 2 + submission.
///
/// Parties: `0` = initiator, `1..=n` participants. Each inner vector is a
/// barrier round.
pub fn framework_trace(
    kind: GroupKind,
    n: usize,
    l: usize,
    m: usize,
    t: usize,
    k: usize,
) -> Vec<Vec<TraceMessage>> {
    let group = kind.group();
    let elem = group.element_len();
    let ct = 2 * elem;
    let scalar = group.order().bits().div_ceil(8);
    let d = m + t + 1; // dot-product dimension
    let mut rounds: Vec<Vec<TraceMessage>> = Vec::new();

    // Phase 1: each participant ↔ initiator (two rounds, all in parallel).
    let round1_elems = DOTPROD_S * d + 2 * d;
    rounds.push(
        (1..=n)
            .map(|p| TraceMessage {
                from: p,
                to: 0,
                bytes: round1_elems * FIELD_BYTES,
            })
            .collect(),
    );
    rounds.push(
        (1..=n)
            .map(|p| TraceMessage {
                from: 0,
                to: p,
                bytes: 2 * FIELD_BYTES,
            })
            .collect(),
    );

    // Phase 2, step 5: key shares + ZKP (commitment, challenges, response).
    let all_to_all = |bytes: usize| -> Vec<TraceMessage> {
        let mut msgs = Vec::new();
        for from in 1..=n {
            for to in 1..=n {
                if from != to {
                    msgs.push(TraceMessage { from, to, bytes });
                }
            }
        }
        msgs
    };
    rounds.push(all_to_all(elem)); // y_j
    rounds.push(all_to_all(elem)); // proof commitments
    rounds.push(all_to_all(scalar)); // challenge shares
    rounds.push(all_to_all(scalar)); // responses

    // Step 6: bitwise encryptions broadcast.
    rounds.push(all_to_all(l * ct));

    // Step 7: sets to P₁.
    rounds.push(
        (2..=n)
            .map(|p| TraceMessage {
                from: p,
                to: 1,
                bytes: (n - 1) * l * ct,
            })
            .collect(),
    );

    // Step 8: the chain — n−1 sequential hops of the full vector V.
    let v_bytes = n * (n - 1) * l * ct;
    for hop in 1..n {
        rounds.push(vec![TraceMessage {
            from: hop,
            to: hop + 1,
            bytes: v_bytes,
        }]);
    }
    // Return each set to its owner.
    rounds.push(
        (1..n)
            .map(|p| TraceMessage {
                from: n,
                to: p,
                bytes: (n - 1) * l * ct,
            })
            .collect(),
    );

    // Phase 3: top-k submissions.
    rounds.push(
        (1..=k.min(n))
            .map(|p| TraceMessage {
                from: p,
                to: 0,
                bytes: m * 8 + 8,
            })
            .collect(),
    );
    rounds
}

/// Rounds per Nishide–Ohta comparison when its multiplications are
/// batched layer-parallel (the constant-round structure of the protocol).
pub const NO07_ROUNDS: usize = 15;

/// Trace of the SS framework: gain phase as above, then the sorting
/// network evaluated layer by layer. Comparisons within a layer run in
/// parallel; each comparison spends [`NO07_ROUNDS`] rounds (the
/// constant-round structure of the masked-comparison protocol, with the
/// `279l+5` multiplication sub-messages pipelined and batched into one
/// share-vector message per ordered pair per round — the most favourable
/// defensible model for the baseline; see EXPERIMENTS.md for why the
/// un-batched alternative would bury the SS curve entirely).
pub fn ss_trace(n: usize, l: usize, m: usize, t: usize) -> Vec<Vec<TraceMessage>> {
    let d = m + t + 1;
    let mut rounds: Vec<Vec<TraceMessage>> = Vec::new();
    // Gain phase (same as the framework: the paper feeds β into Jónsson).
    let round1_elems = DOTPROD_S * d + 2 * d;
    rounds.push(
        (1..=n)
            .map(|p| TraceMessage {
                from: p,
                to: 0,
                bytes: round1_elems * FIELD_BYTES,
            })
            .collect(),
    );
    rounds.push(
        (1..=n)
            .map(|p| TraceMessage {
                from: 0,
                to: p,
                bytes: 2 * FIELD_BYTES,
            })
            .collect(),
    );

    // Sorting network: depth ≈ log₂n·(log₂n+1)/2 layers of ≤ n/2
    // comparators each.
    let log = (usize::BITS - n.next_power_of_two().leading_zeros() - 1) as usize;
    let depth = log * (log + 1) / 2;
    let comparators_per_layer = (n / 2).max(1);
    // One batched share-vector per comparator per pair per round.
    let bytes_per_pair_per_round = comparators_per_layer * FIELD_BYTES;
    let _ = cost::no07_mults_per_comparison(l); // cost model used for computation, not wire bytes
    for _layer in 0..depth {
        for _r in 0..NO07_ROUNDS {
            let mut msgs = Vec::with_capacity(n * (n - 1));
            for from in 1..=n {
                for to in 1..=n {
                    if from != to {
                        msgs.push(TraceMessage {
                            from,
                            to,
                            bytes: bytes_per_pair_per_round,
                        });
                    }
                }
            }
            rounds.push(msgs);
        }
    }
    rounds
}

/// The *unbatched* SS trace: every one of the `279l+5` multiplication
/// invocations per comparison ships its own share to every other party
/// (the literal reading of the paper's round formula). This model makes
/// the SS baseline slower than everything at every `n` — together with
/// [`ss_trace`] it brackets the paper's Fig. 3(b) SS curve (see
/// EXPERIMENTS.md).
pub fn ss_trace_unbatched(n: usize, l: usize, m: usize, t: usize) -> Vec<Vec<TraceMessage>> {
    let mut rounds = ss_trace(n, l, m, t);
    let mults_per_round = (cost::no07_mults_per_comparison(l) as usize).div_ceil(NO07_ROUNDS);
    // Scale every sorting-phase message by the per-round multiplication
    // batch it would otherwise have to carry (gain phase = first 2 rounds).
    for round in rounds.iter_mut().skip(2) {
        for msg in round.iter_mut() {
            msg.bytes *= mults_per_round;
        }
    }
    rounds
}

/// Total payload bytes of a trace (sanity metric).
pub fn trace_bytes(trace: &[Vec<TraceMessage>]) -> u64 {
    trace
        .iter()
        .flat_map(|r| r.iter())
        .map(|m| m.bytes as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_core::{FrameworkParams, GroupRanking, Questionnaire};

    #[test]
    fn in_memory_sessions_log_the_rounds_of_the_trace() {
        // The traffic log's round count is the largest round plus one, so
        // a record logged past the last round would show up here.
        for n in 2..=5 {
            let q = Questionnaire::synthetic(1, 2);
            let (m, t) = (q.dimension(), q.equal_to_count());
            let params = FrameworkParams::builder(q)
                .participants(n)
                .top_k(2)
                .attr_bits(6)
                .weight_bits(3)
                .mask_bits(6)
                .group(GroupKind::Ecc160)
                .seed(n as u64)
                .build()
                .unwrap();
            let (l, k) = (params.beta_bits(), params.top_k());
            let outcome = GroupRanking::new(params)
                .with_random_population()
                .run()
                .unwrap();
            let trace = framework_trace(GroupKind::Ecc160, n, l, m, t, k);
            assert_eq!(outcome.traffic().rounds as usize, trace.len(), "n = {n}");
        }
    }

    #[test]
    fn framework_trace_shape() {
        let trace = framework_trace(GroupKind::Ecc160, 5, 52, 10, 3, 2);
        // 2 gain + 4 setup + 1 bits + 1 collect + 4 chain hops + 1 return + 1 submit.
        assert_eq!(trace.len(), 2 + 4 + 1 + 1 + 4 + 1 + 1);
        // Chain hops are single messages.
        assert_eq!(trace[9].len(), 1);
        assert!(trace_bytes(&trace) > 0);
    }

    #[test]
    fn dl_trace_is_heavier_than_ecc() {
        let ecc = trace_bytes(&framework_trace(GroupKind::Ecc160, 10, 52, 10, 3, 2));
        let dl = trace_bytes(&framework_trace(GroupKind::Dl1024, 10, 52, 10, 3, 2));
        assert!(dl > 4 * ecc, "DL ciphertexts are ≈6× larger: {dl} vs {ecc}");
    }

    #[test]
    fn ss_trace_has_many_more_rounds() {
        let fw = framework_trace(GroupKind::Ecc160, 16, 52, 10, 3, 2).len();
        let ss = ss_trace(16, 52, 10, 3).len();
        assert!(ss > 5 * fw, "SS rounds {ss} vs framework {fw}");
    }

    #[test]
    fn ss_round_count_scales_with_depth() {
        let small = ss_trace(8, 52, 10, 3).len();
        let large = ss_trace(64, 52, 10, 3).len();
        assert!(large > small);
    }
}
