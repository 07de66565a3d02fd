//! Criterion benchmarks of the mesh network simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sal_link::{LinkConfig, LinkFamily, LinkSpec};
use sal_noc::{LinkModel, Mesh, Network, NetworkConfig, RoutingMode, TrafficPattern};

fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc/4x4_uniform_2000cycles");
    g.sample_size(10);
    for &rate in &[0.1, 0.4] {
        g.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            b.iter(|| {
                let cfg = NetworkConfig {
                    mesh: Mesh::new(4, 4),
                    link: LinkModel::ideal(),
                    input_queue_flits: 8,
                    packet_len_flits: 4,
                    faults: None,
                    routing: RoutingMode::XyStatic,
                    link_kills: Vec::new(),
                };
                let mut net = Network::new(cfg, TrafficPattern::UniformRandom, rate, 5);
                net.run(2_000, 500).delivered_flits
            });
        });
    }
    g.finish();
}

/// An 8x8 mesh of I3 (per-word serialized) channels under adaptive
/// routing: every head goes through `RouteTable::choose`.
fn bench_adaptive_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc/8x8_adaptive_i3_2000cycles");
    g.sample_size(10);
    let link = LinkModel::from_spec(&LinkSpec::paper(LinkFamily::PerWord), &LinkConfig::default());
    g.bench_with_input(BenchmarkId::from_parameter(0.2), &0.2, |b, &rate| {
        b.iter(|| {
            let cfg = NetworkConfig {
                mesh: Mesh::new(8, 8),
                link,
                input_queue_flits: 8,
                packet_len_flits: 4,
                faults: None,
                routing: RoutingMode::adaptive(),
                link_kills: Vec::new(),
            };
            let mut net = Network::new(cfg, TrafficPattern::UniformRandom, rate, 5);
            net.run(2_000, 500).delivered_flits
        });
    });
    g.finish();
}

criterion_group!(benches, bench_mesh, bench_adaptive_mesh);
criterion_main!(benches);
