//! Ablation bench: scheduling-policy effect on run time (the companion
//! work-count ablation is printed by `exp_pr_vs_fr`; DESIGN.md §3 calls
//! this out as the scheduler ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lr_core::alg::AlgorithmKind;
use lr_core::engine::{run_engine, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::stream;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/scheduler");
    let inst = stream::alternating_chain(129).to_instance();
    let policies: [(&str, SchedulePolicy); 4] = [
        ("greedy_rounds", SchedulePolicy::GreedyRounds),
        ("random_single", SchedulePolicy::RandomSingle { seed: 11 }),
        ("first_single", SchedulePolicy::FirstSingle),
        ("last_single", SchedulePolicy::LastSingle),
    ];
    for (name, policy) in policies {
        group.bench_with_input(
            BenchmarkId::new(name, "PR/alt_chain_129"),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut e = AlgorithmKind::PartialReversal.engine(&inst);
                    let stats = run_engine(e.as_mut(), policy, DEFAULT_MAX_STEPS);
                    assert!(stats.terminated);
                    stats.total_reversals
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
