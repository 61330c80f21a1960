//! Property-based tests of the group abstraction: the group laws must
//! hold for random elements and scalars in both families, and the
//! decoders must agree with their reference algorithms and stay total.

use ppgr_bigint::{modular, BigUint, Montgomery};
use ppgr_group::{CurveParams, DlGroup, DlParams, EcPoint, Element, Group, GroupKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn element_from_seed(g: &Group, seed: u64) -> ppgr_group::Element {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = g.random_scalar(&mut rng);
    g.exp_gen(&s)
}

fn check_group_laws(g: &Group, s1: u64, s2: u64, s3: u64) {
    let a = element_from_seed(g, s1);
    let b = element_from_seed(g, s2);
    let c = element_from_seed(g, s3);
    // Associativity and commutativity (the group is abelian).
    assert_eq!(g.op(&g.op(&a, &b), &c), g.op(&a, &g.op(&b, &c)));
    assert_eq!(g.op(&a, &b), g.op(&b, &a));
    // Identity and inverses.
    assert_eq!(g.op(&a, &g.identity()), a);
    assert!(g.is_identity(&g.op(&a, &g.inv(&a))));
    // Exponent laws.
    let x = g.scalar_from(&BigUint::from(s1 | 1));
    let y = g.scalar_from(&BigUint::from(s2 | 1));
    let lhs = g.exp(&a, &g.scalar_add(&x, &y));
    let rhs = g.op(&g.exp(&a, &x), &g.exp(&a, &y));
    assert_eq!(lhs, rhs, "a^(x+y) = a^x · a^y");
    let lhs = g.exp(&g.exp(&a, &x), &y);
    let rhs = g.exp(&a, &g.scalar_mul(&x, &y));
    assert_eq!(lhs, rhs, "(a^x)^y = a^(xy)");
}

/// The curve decoder written on `modular::sqrt_mod_prime` over plain
/// `BigUint` values: the reference the field-kernel decoder must match,
/// verdict for verdict and point for point.
fn reference_curve_decode(c: &CurveParams, bytes: &[u8]) -> Option<Element> {
    if bytes.len() != 1 + c.p.bits().div_ceil(8) {
        return None;
    }
    let tag = bytes[0];
    if tag == 0x00 {
        return bytes
            .iter()
            .all(|&b| b == 0)
            .then(|| Element::Ec(EcPoint::infinity()));
    }
    if tag != 0x02 && tag != 0x03 {
        return None;
    }
    let x = BigUint::from_bytes_be(&bytes[1..]);
    if x >= c.p {
        return None;
    }
    let rhs = &(&(&(&(&x * &x) * &x) + &(&c.a * &x)) + &c.b) % &c.p;
    let y = modular::sqrt_mod_prime(&rhs, &c.p)?;
    let y = if y.is_odd() == (tag == 0x03) {
        y
    } else {
        &c.p - &y
    };
    Some(Element::Ec(EcPoint::affine(x, y)))
}

/// Whether `bytes` is an element of the DL group modulo the safe prime `p`:
/// a value in `[1, p)` that passes Euler's criterion.
fn euler_accepts(bytes: &[u8], p: &BigUint) -> bool {
    let v = BigUint::from_bytes_be(bytes);
    !v.is_zero() && &v < p && Montgomery::new(p.clone()).pow(&v, &p.shr(1)).is_one()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn curve_decoder_matches_the_sqrt_mod_prime_reference(
        curve in 0usize..3,
        on_curve in any::<bool>(),
        seed in any::<u64>(),
        odd in any::<bool>(),
        x in prop::collection::vec(any::<u8>(), 32),
    ) {
        let (kind, params) = [
            (GroupKind::Ecc160, CurveParams::secp160r1()),
            (GroupKind::Ecc224, CurveParams::secp224r1()),
            (GroupKind::Ecc256, CurveParams::secp256r1()),
        ][curve].clone();
        let g = kind.group();
        // Half are encodings of k·G; the rest a tag and a random x, about
        // half of which lie on no point.
        let bytes = if on_curve {
            g.encode(&element_from_seed(&g, seed))
        } else {
            let mut b = vec![if odd { 0x03 } else { 0x02 }];
            b.extend_from_slice(&x[..g.element_len() - 1]);
            b
        };
        prop_assert_eq!(g.decode(&bytes).ok(), reference_curve_decode(&params, &bytes));
    }

    #[test]
    fn dl_decoder_accepts_exactly_what_eulers_criterion_accepts(
        pick in 0usize..16,
        bytes in prop::collection::vec(any::<u8>(), 384),
    ) {
        // DL-1024 mostly: a DL-3072 criterion costs a 3072-bit exponentiation.
        let (kind, params) = match pick {
            0 => (GroupKind::Dl3072, DlParams::Modp3072),
            1 | 2 => (GroupKind::Dl2048, DlParams::Modp2048),
            _ => (GroupKind::Dl1024, DlParams::Modp1024),
        };
        let g = kind.group();
        let bytes = &bytes[..g.element_len()];
        let p = DlGroup::new(params).modulus().clone();
        prop_assert_eq!(g.decode(bytes).is_ok(), euler_accepts(bytes, &p));
    }

    #[test]
    fn decoders_are_total_and_accept_only_canonical_encodings(
        kind in 0usize..6,
        exact in any::<bool>(),
        len in 0usize..=768,
        tag in 0usize..4,
        bytes in prop::collection::vec(any::<u8>(), 768),
    ) {
        let g = GroupKind::all()[kind].group();
        // Every length from 0 to 2·element_len, and the exact one often.
        let len = if exact { g.element_len() } else { len % (2 * g.element_len() + 1) };
        let mut bytes = bytes[..len].to_vec();
        if let (Some(first), Some(&t)) = (bytes.first_mut(), [0x00, 0x02, 0x03].get(tag)) {
            *first = t;
        }
        if let Ok(e) = g.decode(&bytes) {
            prop_assert_eq!(g.encode(&e), bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ecc160_group_laws(s1 in 1u64.., s2 in 1u64.., s3 in 1u64..) {
        check_group_laws(&GroupKind::Ecc160.group(), s1, s2, s3);
    }

    #[test]
    fn dl1024_group_laws(s1 in 1u64.., s2 in 1u64.., s3 in 1u64..) {
        check_group_laws(&GroupKind::Dl1024.group(), s1, s2, s3);
    }

    #[test]
    fn encode_decode_round_trip_random_elements(seed in 0u64..1000, kind in 0usize..6) {
        let g = GroupKind::all()[kind].group();
        let e = element_from_seed(&g, seed);
        let enc = g.encode(&e);
        prop_assert_eq!(enc.len(), g.element_len());
        prop_assert_eq!(g.decode(&enc).unwrap(), e);
    }

    #[test]
    fn scalar_field_laws(a in 1u64.., b in 1u64.., c in 1u64..) {
        let g = GroupKind::Ecc160.group();
        let (a, b, c) = (g.scalar_from_u64(a), g.scalar_from_u64(b), g.scalar_from_u64(c));
        // Distributivity in Z_q.
        let lhs = g.scalar_mul(&a, &g.scalar_add(&b, &c));
        let rhs = g.scalar_add(&g.scalar_mul(&a, &b), &g.scalar_mul(&a, &c));
        prop_assert_eq!(lhs, rhs);
        // Inverse.
        if !a.is_zero() {
            let inv = g.scalar_inv(&a).unwrap();
            prop_assert_eq!(g.scalar_mul(&a, &inv), g.scalar_from_u64(1));
        }
    }
}
