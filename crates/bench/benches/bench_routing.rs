//! Criterion bench for E12: the distributed layer — convergence of the
//! message-passing reversal protocol and routing throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lr_graph::stream;
use lr_net::reversal::converge;
use lr_net::routing::RoutingHarness;
use lr_net::sim::LinkConfig;

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/convergence");
    for n in [32usize, 128] {
        let inst = stream::random_connected(n, 2 * n, 123).to_instance();
        group.bench_with_input(BenchmarkId::new("distributed_pr", n), &inst, |b, inst| {
            b.iter(|| converge(inst, LinkConfig::default(), 5, 100_000_000).stats())
        });
    }
    group.finish();
}

fn bench_packet_wave(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/packet_wave");
    for n in [32usize, 128] {
        let inst = stream::random_connected(n, 2 * n, 321).to_instance();
        group.bench_with_input(BenchmarkId::new("one_per_node", n), &inst, |b, inst| {
            b.iter(|| {
                let mut h = RoutingHarness::converged(inst, LinkConfig::default(), 9);
                for u in inst.graph.nodes().filter(|&u| u != inst.dest) {
                    h.send_packet(u);
                }
                let r = h.run(100_000_000);
                assert_eq!(r.delivered, r.injected);
                r
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_convergence, bench_packet_wave);
criterion_main!(benches);
