//! Criterion bench for E7/E8: wall-clock cost of running each algorithm
//! to termination on the worst-case chain families and random graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lr_core::alg::AlgorithmKind;
use lr_core::engine::{run_engine, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::stream;

fn bench_chain_away(c: &mut Criterion) {
    let mut group = c.benchmark_group("work/chain_away");
    for n in [32usize, 128] {
        let inst = stream::chain_away(n).to_instance();
        for kind in [AlgorithmKind::FullReversal, AlgorithmKind::PartialReversal] {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &inst, |b, inst| {
                b.iter(|| {
                    let mut e = kind.engine(inst);
                    run_engine(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS)
                })
            });
        }
    }
    group.finish();
}

fn bench_alternating_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("work/alternating_chain");
    for n in [32usize, 128] {
        let inst = stream::alternating_chain(n).to_instance();
        for kind in [AlgorithmKind::FullReversal, AlgorithmKind::PartialReversal] {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &inst, |b, inst| {
                b.iter(|| {
                    let mut e = kind.engine(inst);
                    run_engine(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS)
                })
            });
        }
    }
    group.finish();
}

fn bench_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("work/random_connected");
    for n in [64usize, 256] {
        let inst = stream::random_connected(n, 2 * n, 77).to_instance();
        for kind in AlgorithmKind::ALL {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &inst, |b, inst| {
                b.iter(|| {
                    let mut e = kind.engine(inst);
                    run_engine(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chain_away,
    bench_alternating_chain,
    bench_random
);
criterion_main!(benches);
