//! Criterion bench for E1–E5: cost of the exhaustive verification
//! machinery — state-space exploration with invariant checking, and the
//! simulation-relation pair-space sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
use lr_core::invariants::newpr_invariants;
use lr_graph::stream;
use lr_ioa::explore::{explore, ExploreOptions};
use lr_simrel::model_check::{model_check_newpr, model_check_r, model_check_r_prime};
use lr_simrel::{r_checker, r_prime_checker};

fn bench_exhaustive_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_check/all_instances_n3");
    group.bench_function("newpr_invariants", |b| {
        b.iter(|| {
            let s = model_check_newpr(3);
            assert!(s.verified());
            s
        })
    });
    group.bench_function("r_prime_simulation", |b| {
        b.iter(|| {
            let s = model_check_r_prime(3);
            assert!(s.verified());
            s
        })
    });
    group.bench_function("r_simulation", |b| {
        b.iter(|| {
            let s = model_check_r(3);
            assert!(s.verified());
            s
        })
    });
    group.finish();
}

fn bench_single_instance_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_check/single_instance");
    let inst = stream::random_connected(7, 5, 42).to_instance();
    group.bench_function("explore_newpr_n7", |b| {
        let aut = NewPrAutomaton { inst: &inst };
        let invs = newpr_invariants(&inst);
        b.iter(|| {
            let r = explore(
                &aut,
                &invs,
                &ExploreOptions {
                    record_traces: false,
                    ..ExploreOptions::default()
                },
            );
            assert!(r.verified());
            r.states_visited
        })
    });
    group.bench_function("pair_space_r_prime_n7", |b| {
        let pr = PrSetAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        let checker = r_prime_checker(&inst);
        b.iter(|| checker.check_exhaustive(&pr, &os, 10_000_000).unwrap())
    });
    group.bench_function("pair_space_r_n7", |b| {
        let os = OneStepPrAutomaton { inst: &inst };
        let np = NewPrAutomaton { inst: &inst };
        let checker = r_checker(&inst);
        b.iter(|| checker.check_exhaustive(&os, &np, 10_000_000).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exhaustive_sweeps,
    bench_single_instance_exploration
);
criterion_main!(benches);
