//! Routing throughput of every partitioning scheme on a skewed stream, and
//! the cost of drawing the keys that feed it.
//!
//! PKG's pitch includes being cheap: stateless hashing plus a `d`-way argmin
//! per message. These benches verify the routing hot path stays within a few
//! tens of nanoseconds and quantify the cost of the routing-table baselines
//! and of the adaptive schemes' per-source head tracker.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pkg_core::{EstimateKind, SchemeSpec, SharedLoads};
use pkg_datagen::zipf::ZipfTable;
use pkg_datagen::DatasetProfile;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn keys(n: usize) -> Vec<u64> {
    DatasetProfile::lognormal1()
        .with_messages(n as u64)
        .with_keys(10_000)
        .build(1)
        .iter(2)
        .map(|m| m.key)
        .collect()
}

fn bench_routing(c: &mut Criterion) {
    let stream = keys(100_000);
    let mut g = c.benchmark_group("route");
    g.throughput(Throughput::Elements(stream.len() as u64));
    let schemes: Vec<(&str, SchemeSpec)> = vec![
        ("key_grouping", SchemeSpec::KeyGrouping),
        ("shuffle", SchemeSpec::ShuffleGrouping),
        ("pkg_d2_local", SchemeSpec::pkg(EstimateKind::Local)),
        ("pkg_d4_local", SchemeSpec::Pkg { d: 4, estimate: EstimateKind::Local }),
        ("pkg_d2_global", SchemeSpec::pkg(EstimateKind::Global)),
        ("static_potc", SchemeSpec::StaticPotc { estimate: EstimateKind::Local }),
        ("on_greedy", SchemeSpec::OnGreedy { estimate: EstimateKind::Local }),
        ("dchoices_local", SchemeSpec::d_choices(EstimateKind::Local)),
        ("wchoices_local", SchemeSpec::w_choices(EstimateKind::Local)),
    ];
    for (name, spec) in schemes {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let shared = SharedLoads::new(50);
                    spec.build(50, 42, 0, &shared, None)
                },
                |mut p| {
                    let mut acc = 0usize;
                    for (t, &k) in stream.iter().enumerate() {
                        acc = acc.wrapping_add(p.route(k, t as u64));
                    }
                    black_box(acc)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Zipf rank sampling at the WP head probability (p1 = 9.32%) over the key
/// counts of the scaled-down WP profiles, 100k draws per iteration.
fn bench_zipf(c: &mut Criterion) {
    const DRAWS: u64 = 100_000;
    let mut g = c.benchmark_group("zipf_sample");
    g.throughput(Throughput::Elements(DRAWS));
    for k in [10_000u64, 33_000] {
        let table = ZipfTable::with_p1(k, 0.0932);
        let mut rng = SmallRng::seed_from_u64(7);
        g.bench_function(format!("k{}k", k / 1_000), |b| {
            b.iter(|| (0..DRAWS).fold(0u64, |acc, _| acc.wrapping_add(table.sample(&mut rng))))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_routing, bench_zipf
}
criterion_main!(benches);
