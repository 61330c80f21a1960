//! Batch verification soundness and attribution: a valid batch passes, a
//! tampered proof inside a batch of valid ones is rejected *and* pinned
//! to the right index, and the aggregate equation never overrules the
//! individual checks.

use ppgr_group::{Element, Group, GroupKind, Scalar};
use ppgr_zkp::{
    verify_batch, verify_batch_all, verify_sessions_multi_batch, MultiVerifierProof, SchnorrProver,
    SessionRejections,
};
use ppgr_zkp::{MultiVerifierTranscript, SchnorrTranscript};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn proofs(g: &Group, k: usize, seed: u64) -> (Vec<Element>, Vec<SchnorrTranscript>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut statements = Vec::with_capacity(k);
    let mut transcripts = Vec::with_capacity(k);
    for _ in 0..k {
        let x = g.random_scalar(&mut rng);
        statements.push(g.exp_gen(&x));
        let (p, h) = SchnorrProver::commit(g, x, &mut rng);
        let c = g.random_scalar(&mut rng);
        transcripts.push(p.respond(&c, h));
    }
    (statements, transcripts)
}

fn items<'a>(
    ys: &'a [Element],
    ts: &'a [SchnorrTranscript],
) -> Vec<(&'a Element, &'a SchnorrTranscript)> {
    ys.iter().zip(ts).collect()
}

#[test]
fn valid_batches_pass_on_both_families() {
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let g = kind.group();
        for k in [0usize, 1, 2, 5, 15] {
            let (ys, ts) = proofs(&g, k, 42 + k as u64);
            assert_eq!(verify_batch(&g, &items(&ys, &ts)), Ok(()), "{kind:?} k={k}");
        }
    }
}

#[test]
fn single_tampered_proof_is_attributed_to_the_right_index() {
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let g = kind.group();
        for bad in [0usize, 3, 7] {
            let (ys, mut ts) = proofs(&g, 8, 99);
            ts[bad].response = g.scalar_add(&ts[bad].response, &g.scalar_from_u64(1));
            assert_eq!(
                verify_batch(&g, &items(&ys, &ts)),
                Err(bad),
                "{kind:?} bad={bad}"
            );
        }
    }
}

#[test]
fn multiple_bad_proofs_report_the_first() {
    let g = GroupKind::Ecc160.group();
    let (ys, mut ts) = proofs(&g, 8, 7);
    for bad in [2usize, 5] {
        ts[bad].challenge = g.scalar_add(&ts[bad].challenge, &g.scalar_from_u64(3));
    }
    assert_eq!(verify_batch(&g, &items(&ys, &ts)), Err(2));
}

#[test]
fn tampered_singleton_batch_is_rejected() {
    let g = GroupKind::Ecc160.group();
    let (ys, mut ts) = proofs(&g, 1, 1);
    ts[0].response = g.scalar_add(&ts[0].response, &g.scalar_from_u64(1));
    assert_eq!(verify_batch(&g, &items(&ys, &ts)), Err(0));
}

#[test]
fn cross_family_element_is_rejected_not_panicking() {
    let g = GroupKind::Ecc160.group();
    let dl = GroupKind::Dl1024.group();
    let (mut ys, ts) = proofs(&g, 4, 3);
    ys[1] = dl.generator().clone();
    assert_eq!(verify_batch(&g, &items(&ys, &ts)), Err(1));
}

#[test]
fn batch_verdict_is_deterministic() {
    // Same transcripts, same verdict, no ambient randomness: run twice.
    let g = GroupKind::Ecc160.group();
    let (ys, ts) = proofs(&g, 6, 1234);
    let a = verify_batch(&g, &items(&ys, &ts));
    let b = verify_batch(&g, &items(&ys, &ts));
    assert_eq!(a, b);
    assert_eq!(a, Ok(()));
}

#[test]
fn all_variant_reports_every_rejection_in_protocol_order() {
    let g = GroupKind::Ecc160.group();
    let (ys, mut ts) = proofs(&g, 8, 7);
    for bad in [2usize, 5, 6] {
        ts[bad].challenge = g.scalar_add(&ts[bad].challenge, &g.scalar_from_u64(3));
    }
    assert_eq!(verify_batch_all(&g, &items(&ys, &ts)), Err(vec![2, 5, 6]));
    // The first-culprit wrapper is exactly the head of the full list.
    assert_eq!(verify_batch(&g, &items(&ys, &ts)), Err(2));
}

fn multi_proofs(
    g: &Group,
    k: usize,
    verifiers: usize,
    seed: u64,
) -> (Vec<Element>, Vec<MultiVerifierTranscript>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ys = Vec::with_capacity(k);
    let mut ts = Vec::with_capacity(k);
    for _ in 0..k {
        let x = g.random_scalar(&mut rng);
        ys.push(g.exp_gen(&x));
        ts.push(MultiVerifierProof::run(g, &x, verifiers, &mut rng));
    }
    (ys, ts)
}

fn multi_items<'a>(
    ys: &'a [Element],
    ts: &'a [MultiVerifierTranscript],
) -> Vec<(&'a Element, &'a MultiVerifierTranscript)> {
    ys.iter().zip(ts).collect()
}

/// One session's verdict: `Err` with its rejected proof indices.
fn verify_one_session(
    g: &Group,
    items: &[(&Element, &MultiVerifierTranscript)],
) -> Result<(), Vec<usize>> {
    verify_sessions_multi_batch(g, &[items]).map_err(|mut rejections| {
        assert_eq!(rejections.len(), 1, "a batch of one session");
        assert_eq!(rejections[0].session, 0);
        rejections.remove(0).proofs
    })
}

#[test]
fn one_session_batch_reports_every_rejection() {
    let g = GroupKind::Ecc160.group();
    let (ys, mut ts) = multi_proofs(&g, 6, 3, 400);
    for bad in [1usize, 4] {
        ts[bad].response = g.scalar_add(&ts[bad].response, &g.scalar_from_u64(1));
    }
    let refs = multi_items(&ys, &ts);
    assert_eq!(verify_one_session(&g, &refs), Err(vec![1, 4]));
}

#[test]
fn sessions_batch_passes_when_every_session_is_honest() {
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let g = kind.group();
        let sets: Vec<_> = (0..4).map(|s| multi_proofs(&g, 3, 2, 500 + s)).collect();
        let per_session: Vec<Vec<(&Element, &MultiVerifierTranscript)>> =
            sets.iter().map(|(ys, ts)| multi_items(ys, ts)).collect();
        let sessions: Vec<&[(&Element, &MultiVerifierTranscript)]> =
            per_session.iter().map(Vec::as_slice).collect();
        assert_eq!(
            verify_sessions_multi_batch(&g, &sessions),
            Ok(()),
            "{kind:?}"
        );
    }
}

#[test]
fn sessions_batch_attributes_every_failure_to_its_session() {
    // Sessions 1 and 3 each contribute bad proofs (session 3 two of them);
    // the rescan must name all of them, grouped per session in submission
    // order with each session's list in protocol order.
    let g = GroupKind::Ecc160.group();
    let mut sets: Vec<_> = (0..4).map(|s| multi_proofs(&g, 3, 2, 600 + s)).collect();
    sets[1].1[2].response = g.scalar_add(&sets[1].1[2].response, &g.scalar_from_u64(1));
    sets[3].1[0].response = g.scalar_add(&sets[3].1[0].response, &g.scalar_from_u64(1));
    sets[3].1[1].response = g.scalar_add(&sets[3].1[1].response, &g.scalar_from_u64(1));
    let per_session: Vec<Vec<(&Element, &MultiVerifierTranscript)>> =
        sets.iter().map(|(ys, ts)| multi_items(ys, ts)).collect();
    let sessions: Vec<&[(&Element, &MultiVerifierTranscript)]> =
        per_session.iter().map(Vec::as_slice).collect();
    assert_eq!(
        verify_sessions_multi_batch(&g, &sessions),
        Err(vec![
            SessionRejections {
                session: 1,
                proofs: vec![2],
            },
            SessionRejections {
                session: 3,
                proofs: vec![0, 1],
            },
        ])
    );
}

#[test]
fn sessions_batch_handles_empty_and_singleton_shapes() {
    let g = GroupKind::Ecc160.group();
    assert_eq!(verify_sessions_multi_batch(&g, &[]), Ok(()));
    // One session with one proof — degenerate aggregate, still verified.
    let (ys, mut ts) = multi_proofs(&g, 1, 2, 700);
    let good = multi_items(&ys, &ts);
    assert_eq!(
        verify_sessions_multi_batch(&g, &[good.as_slice(), &[]]),
        Ok(())
    );
    ts[0].response = g.scalar_add(&ts[0].response, &g.scalar_from_u64(1));
    let bad = multi_items(&ys, &ts);
    assert_eq!(
        verify_sessions_multi_batch(&g, &[&[], bad.as_slice()]),
        Err(vec![SessionRejections {
            session: 1,
            proofs: vec![0],
        }])
    );
}

#[test]
fn sessions_batch_verdict_matches_per_session_verdicts() {
    // The cross-session aggregate must agree with running each session's
    // own batch: same accepts, same per-session first culprit.
    let g = GroupKind::Dl1024.group();
    let mut sets: Vec<_> = (0..3).map(|s| multi_proofs(&g, 4, 3, 800 + s)).collect();
    sets[2].1[1].challenges[0] = g.scalar_add(&sets[2].1[1].challenges[0], &g.scalar_from_u64(5));
    let per_session: Vec<Vec<(&Element, &MultiVerifierTranscript)>> =
        sets.iter().map(|(ys, ts)| multi_items(ys, ts)).collect();
    let sessions: Vec<&[(&Element, &MultiVerifierTranscript)]> =
        per_session.iter().map(Vec::as_slice).collect();
    let aggregate = verify_sessions_multi_batch(&g, &sessions);
    for (s, items) in per_session.iter().enumerate() {
        let solo = verify_one_session(&g, items);
        match (&aggregate, solo) {
            (Ok(()), verdict) => assert_eq!(verdict, Ok(()), "session {s}"),
            (Err(rejections), verdict) => match rejections.iter().find(|r| r.session == s) {
                Some(r) => assert_eq!(verdict, Err(r.proofs.clone()), "session {s}"),
                None => assert_eq!(verdict, Ok(()), "session {s}"),
            },
        }
    }
}

#[test]
fn multi_verifier_batch_collapses_and_attributes() {
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let g = kind.group();
        let mut rng = StdRng::seed_from_u64(77);
        let mut ys: Vec<Element> = Vec::new();
        let mut ts: Vec<MultiVerifierTranscript> = Vec::new();
        for _ in 0..5 {
            let x = g.random_scalar(&mut rng);
            ys.push(g.exp_gen(&x));
            ts.push(MultiVerifierProof::run(&g, &x, 3, &mut rng));
        }
        let refs: Vec<(&Element, &MultiVerifierTranscript)> = ys.iter().zip(&ts).collect();
        assert_eq!(verify_one_session(&g, &refs), Ok(()), "{kind:?}");

        let bumped: Scalar = g.scalar_add(&ts[4].response, &g.scalar_from_u64(1));
        ts[4].response = bumped;
        let refs: Vec<(&Element, &MultiVerifierTranscript)> = ys.iter().zip(&ts).collect();
        assert_eq!(verify_one_session(&g, &refs), Err(vec![4]), "{kind:?}");
    }
}
