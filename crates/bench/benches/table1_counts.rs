//! Table 1: the per-dataset MQC statistics pipeline (DCFastQC S1 output,
//! set-trie filtering, size statistics) measured end to end on the suite.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mqce_bench::datasets::{standard_suite, SuiteScale};
use mqce_core::{Algorithm, MqceConfig, Session};
use mqce_graph::GraphStats;

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_counts");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    for dataset in standard_suite(SuiteScale::Small) {
        // Graph-statistics columns (|V|, |E|, d, ω).
        group.bench_with_input(
            BenchmarkId::new("graph_stats", dataset.name),
            &dataset.graph,
            |b, g| b.iter(|| GraphStats::compute(g)),
        );
        // The densest stand-in produces tens of thousands of MQCs at its
        // default parameters; regenerating its Table-1 row is the job of the
        // `experiments` binary, not of a Criterion loop that repeats the full
        // pipeline ten times.
        if dataset.name == "social-dense" {
            continue;
        }
        // #MQC / #DCFastQC / size statistics columns.
        let config = MqceConfig::new(dataset.gamma_d, dataset.theta_d)
            .unwrap()
            .with_algorithm(Algorithm::DcFastQc)
            .with_time_limit(Duration::from_secs(3));
        group.bench_with_input(
            BenchmarkId::new("mqc_counts", dataset.name),
            &dataset.graph,
            |b, g| {
                let session = Session::open(g.clone()).config(config);
                b.iter(|| {
                    let result = session.run();
                    (result.mqcs.len(), result.qcs, result.mqc_size_stats())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
