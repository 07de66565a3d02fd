//! Criterion benchmarks of full gate-level link transfers, and of the
//! static-timing lint every generated link netlist passes through.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sal_bench::pareto::quick_grid;
use sal_cells::CircuitBuilder;
use sal_des::{NetGraph, Simulator};
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::testbench::worst_case_pattern;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec, ProtectionMode, RetryConfig};
use sal_tech::St012Library;

fn bench_links(c: &mut Criterion) {
    let mut g = c.benchmark_group("link/4flit_transfer");
    g.sample_size(10);
    for family in LinkFamily::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(family.label()),
            &family,
            |b, &family| {
                let spec = LinkSpec::paper(family);
                let cfg = LinkConfig::default();
                let words = worst_case_pattern(4, 32);
                b.iter(|| {
                    run_spec(&spec, &cfg, &words, &MeasureOptions::default())
                        .expect("clean run")
                        .total_power_uw()
                });
            },
        );
    }
    g.finish();
}

/// The bare link netlist of `spec`, as the lint sees it.
fn netgraph(spec: &LinkSpec) -> NetGraph {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    generate(&mut b, spec, "link", &LinkConfig::default()).expect("link builds cleanly");
    b.finish();
    sim.netgraph()
}

/// Static-timing margins alone (netlists built outside the timed
/// loop): the I2 CRC-8 link, whose cyclic strobe cones are the
/// largest of any shipped spec, and every point of the Pareto quick
/// grid in one pass.
fn bench_lint_timing(c: &mut Criterion) {
    let mut g = c.benchmark_group("lint/timing");
    g.sample_size(10);
    let crc = LinkSpec::builder()
        .family(LinkFamily::PerTransfer)
        .protection(ProtectionMode::Crc8)
        .retry(RetryConfig::default())
        .build()
        .expect("I2 with CRC-8 and default retry is a valid spec");
    let crc = netgraph(&crc);
    g.bench_function("i2_crc8", |b| {
        b.iter(|| sal_lint::timing_margins(black_box(&crc)).len());
    });
    let grid: Vec<NetGraph> = quick_grid().iter().map(netgraph).collect();
    g.bench_function("quick_grid", |b| {
        b.iter(|| {
            grid.iter()
                .map(|graph| sal_lint::timing_margins(black_box(graph)).len())
                .sum::<usize>()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_links, bench_lint_timing);
criterion_main!(benches);
