//! Benchmarks for the extension APIs built on top of the core enumeration:
//! query-driven search vs. filtering a full enumeration, and exact top-k
//! mining.
//!
//! These do not correspond to a table or figure of the paper; they quantify
//! the value of the query and top-k entry points the library additionally
//! provides.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mqce_bench::datasets::{collab, email, SuiteScale};
use mqce_core::query::find_mqcs_containing;
use mqce_core::{find_largest_mqcs, MqceConfig, PreparedGraph, Session};

fn bench_query_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_query_vs_full");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for dataset in [collab(SuiteScale::Small), email(SuiteScale::Small)] {
        let config = MqceConfig::new(dataset.gamma_d, dataset.theta_d).unwrap();
        // Query the highest-degree vertex: the worst case for the restricted
        // search, since its 2-hop ball is the largest.
        let hub = (0..dataset.graph.num_vertices() as u32)
            .max_by_key(|&v| dataset.graph.degree(v))
            .unwrap_or(0);
        group.bench_with_input(
            BenchmarkId::new("full-then-filter", dataset.name),
            &dataset.graph,
            |b, g| {
                let session = Session::open(g.clone()).config(config);
                b.iter(|| {
                    let all = session.run();
                    all.mqcs.iter().filter(|m| m.contains(&hub)).count()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("query-driven", dataset.name),
            &dataset.graph,
            |b, g| b.iter(|| find_mqcs_containing(g, &[hub], &config).unwrap().mqcs.len()),
        );
    }
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_topk");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for dataset in [collab(SuiteScale::Small), email(SuiteScale::Small)] {
        let gamma = dataset.gamma_d;
        group.bench_with_input(
            BenchmarkId::new("topk-exact", dataset.name),
            &dataset.graph,
            |b, g| {
                b.iter(|| {
                    let prepared = PreparedGraph::new(g.clone());
                    find_largest_mqcs(&prepared, gamma, 5, None)
                        .unwrap()
                        .mqcs
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_query_vs_full, bench_topk);
criterion_main!(benches);
