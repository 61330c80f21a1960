//! Fig. 2(b) — the attribute-dimension sweep.
//!
//! `m` affects the gain phase directly (vector dimension) and the
//! comparison phase only through `⌈log₂ m⌉` inside `l`. This bench
//! measures the gain phase (one secure dot product per participant) as
//! `m` grows; the comparison-side effect is covered by `fig2_attr_bits`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppgr_dotprod::{default_field, DotProduct};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gain_vs_m(c: &mut Criterion) {
    let field = default_field();
    let proto = DotProduct::new(field.clone());
    let mut g = c.benchmark_group("fig2b_gain_phase");
    for m in [5usize, 10, 20, 40] {
        let t = m / 3;
        let d = m + t; // participant vector dimension
        let w: Vec<_> = (0..d as u64).map(|i| field.from_u64(i + 1)).collect();
        let v: Vec<_> = (0..d as u64).map(|i| field.from_u64(2 * i + 1)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let alpha = field.from_u64(5);
                let (state, m1) = proto.sender_round1(&w, &mut rng);
                let m2 = proto.receiver_round2(&v, &alpha, &m1);
                state.finish(&m2)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gain_vs_m);
criterion_main!(benches);
