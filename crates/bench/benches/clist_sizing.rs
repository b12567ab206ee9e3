//! Clist sizing ablation (paper §6): replay cost of the same workload at
//! different Clist capacities. Smaller lists churn (evict + re-link) more.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dnhunter_bench::harness::resolver_events_from_frames;
use dnhunter_resolver::dimensioning::replay;
use dnhunter_simnet::{profiles, TraceGenerator};

fn bench_clist_sizes(c: &mut Criterion) {
    // A small but realistic workload extracted from a generated trace.
    let profile = profiles::eu1_ftth().scaled(0.15);
    let trace = TraceGenerator::new(profile, false).generate();
    let events = resolver_events_from_frames(
        trace
            .records
            .iter()
            .map(|r| (r.timestamp_micros(), r.frame.as_slice())),
    );
    let mut g = c.benchmark_group("clist_replay");
    for l in [128usize, 1_024, 8_192, 65_536] {
        g.bench_with_input(BenchmarkId::from_parameter(l), &l, |b, &l| {
            b.iter(|| black_box(replay(&events, l)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_clist_sizes);
criterion_main!(benches);
