//! Synthetic wire traces for the Fig. 3(b) network simulation.
//!
//! Message sizes and round structure of both frameworks are deterministic
//! functions of `(n, l, group)` — no cryptography needs to run to know
//! what crosses the wire. The framework's trace is the paper's wire model
//! ([`WireModel`]), the one the sorting machine logs; the SS baseline's is
//! an NS2-style model around the same gain phase.

use ppgr_core::analysis::{TrafficRecord, WireModel};
use ppgr_group::GroupKind;
use ppgr_net::sim::TraceMessage;
use ppgr_smc::cost;

/// Field element wire size of an SS share (256-bit field).
const FIELD_BYTES: usize = 32;

/// `records` grouped into `rounds` barrier rounds, each sorted by sender
/// and then receiver. The simulator queues a round's messages on their
/// links in trace order, so the order is part of the trace.
fn by_round(rounds: u32, mut records: Vec<TrafficRecord>) -> Vec<Vec<TraceMessage>> {
    records.sort_by_key(|r| (r.round, r.from, r.to));
    let mut trace = vec![Vec::new(); rounds as usize];
    for r in records {
        let (from, to, bytes) = (r.from, r.to, r.bytes);
        trace[r.round as usize].push(TraceMessage { from, to, bytes });
    }
    trace
}

/// Trace of the paper's framework: the wire model of a whole session, in
/// which parties `1..=k` submit.
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
    let model = WireModel::session(kind, n, l, m, t);
    let submitters: Vec<usize> = (1..=k.min(n)).collect();
    by_round(model.rounds(), model.records(&submitters))
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
    // Gain phase (same as the framework: the paper feeds β into Jónsson).
    // Its bytes do not depend on the group.
    let gain = WireModel::session(GroupKind::Ecc160, n, l, m, t).step(3, &[]);
    let mut rounds = by_round(2, gain);

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
    use ppgr_net::sim::NetworkSim;

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
    fn fig3b_inputs_are_pinned() {
        // The `fig3b_network` bench's inputs (l = 52, m = 10, t = 3,
        // k = 3): each trace's rounds, bytes and completion time on the
        // paper's network. The simulator is deterministic, so every value
        // is exact.
        type Pin = (usize, u64, f64);
        let pins: [(usize, Pin, Pin, Pin); 3] = [
            (
                5,
                (14, 312_952, 4.367503999999999),
                (14, 1_790_408, 15.446800000000003),
                (92, 137_920, 18.462592000000157),
            ),
            (
                10,
                (19, 2_372_672, 20.439792000000004),
                (19, 14_229_128, 110.229008),
                (152, 2_205_440, 31.5577600000015),
            ),
            (
                20,
                (29, 18_298_312, 157.104496),
                (29, 111_068_168, 933.4427199999983),
                (227, 27_450_880, 87.91144000000533),
            ),
        ];
        for (n, ecc, dl, ss) in pins {
            let sim = NetworkSim::paper_setup(n + 1, 7);
            for (label, trace, pin) in [
                (
                    "ECC-160",
                    framework_trace(GroupKind::Ecc160, n, 52, 10, 3, 3),
                    ecc,
                ),
                (
                    "DL-1024",
                    framework_trace(GroupKind::Dl1024, n, 52, 10, 3, 3),
                    dl,
                ),
                ("SS", ss_trace(n, 52, 10, 3), ss),
            ] {
                let seconds = sim.simulate(&trace).unwrap().completion_s;
                let got = (trace.len(), trace_bytes(&trace), seconds);
                assert_eq!(got, pin, "{label}, n = {n}");
            }
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
    fn framework_needs_far_fewer_rounds_than_ss() {
        // The framework's rounds grow linearly in n; the SS sort's grow
        // with every comparison's multiplications.
        for n in 4..100 {
            for l in 8..100 {
                let ours = WireModel::session(GroupKind::Ecc160, n, l, 10, 3).rounds();
                assert!(
                    u64::from(ours) < cost::ss_sort_rounds(n, l),
                    "n = {n}, l = {l}"
                );
            }
        }
        let ours = WireModel::session(GroupKind::Ecc160, 25, 52, 10, 3).rounds();
        assert_eq!(ours, 34);
        assert!(cost::ss_sort_rounds(25, 52) > 100 * u64::from(ours));
    }

    #[test]
    fn ss_round_count_scales_with_depth() {
        let small = ss_trace(8, 52, 10, 3).len();
        let large = ss_trace(64, 52, 10, 3).len();
        assert!(large > small);
    }
}
