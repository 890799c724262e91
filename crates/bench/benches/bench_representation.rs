//! Ablation bench: state-representation and run-loop cost.
//!
//! Two groups:
//!
//! * `ablation/representation` — the paper's mirrored `dir[u,v]` slots +
//!   neighbor lists (FrontierPrEngine) versus the compact Gafni–Bertsekas
//!   triple heights (FrontierTripleHeightsEngine) versus labeled links
//!   (FrontierBllEngine), all computing the same executions through the
//!   incremental run loop, at n ∈ {64, 256, 1024, 4096}.
//! * `representation/scan_vs_incremental` — the retained pre-refactor
//!   naive-scan loop ([`run_engine_scan`], O(n·Δ) per step) against the
//!   incremental enabled-set loop ([`run_engine`], O(Δ + s) per
//!   step) on identical PR executions. The scan loop is capped at
//!   n = 1024: the quadratic-step alternating chain already costs whole
//!   seconds per run there, which is the point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lr_core::alg::{
    BllLabeling, FrontierBllEngine, FrontierPrEngine, FrontierTripleHeightsEngine, ReversalEngine,
};
use lr_core::engine::{run_engine, run_engine_scan, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::stream;

fn run_all(engine: &mut dyn ReversalEngine) -> usize {
    let stats = run_engine(engine, SchedulePolicy::FirstSingle, DEFAULT_MAX_STEPS);
    assert!(stats.terminated, "bench instance must terminate");
    stats.steps
}

fn bench_representations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/representation");
    for n in [64usize, 256, 1024, 4096] {
        let inst = stream::alternating_chain(n + 1);
        group.bench_with_input(
            BenchmarkId::new("mirrored_dirs_lists", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut e = FrontierPrEngine::new(inst.clone());
                    run_all(&mut e)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("triple_heights", n), &inst, |b, inst| {
            b.iter(|| {
                let mut e = FrontierTripleHeightsEngine::new(inst.clone());
                run_all(&mut e)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("binary_link_labels", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut e = FrontierBllEngine::new(inst.clone(), BllLabeling::PartialReversal);
                    run_all(&mut e)
                })
            },
        );
    }
    group.finish();
}

fn bench_scan_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("representation/scan_vs_incremental");
    for n in [64usize, 256, 1024, 4096] {
        let inst = stream::alternating_chain(n + 1);
        group.bench_with_input(BenchmarkId::new("incremental", n), &inst, |b, inst| {
            b.iter(|| {
                let mut e = FrontierPrEngine::new(inst.clone());
                let stats = run_engine(&mut e, SchedulePolicy::FirstSingle, DEFAULT_MAX_STEPS);
                assert!(stats.terminated);
                stats.steps
            })
        });
        if n <= 1024 {
            group.bench_with_input(BenchmarkId::new("scan", n), &inst, |b, inst| {
                b.iter(|| {
                    let mut e = FrontierPrEngine::new(inst.clone());
                    let stats =
                        run_engine_scan(&mut e, SchedulePolicy::FirstSingle, DEFAULT_MAX_STEPS);
                    assert!(stats.terminated);
                    stats.steps
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_representations, bench_scan_vs_incremental);
criterion_main!(benches);
