//! MQCE-S2 cost (Section 2.2): the S2 pass at one and two workers on
//! realistic S1 outputs, compared against the serial inverted-index filter.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mqce_bench::datasets::{email, web, SuiteScale};
use mqce_core::{solve_s1, Algorithm, MqceConfig};
use mqce_settrie::{compact_parallel, filter_maximal};

fn bench_settrie(c: &mut Criterion) {
    let mut group = c.benchmark_group("settrie_filter");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    for dataset in [email(SuiteScale::Small), web(SuiteScale::Small)] {
        // Real S1 output of Quick+ (contains non-maximal QCs to filter out).
        let config = MqceConfig::new(dataset.gamma_d, dataset.theta_d)
            .unwrap()
            .with_algorithm(Algorithm::QuickPlus)
            .with_time_limit(Duration::from_secs(10));
        let s1 = solve_s1(&dataset.graph, &config).outputs;

        group.bench_with_input(
            BenchmarkId::new("filter_maximal", dataset.name),
            &s1,
            |b, sets| b.iter(|| filter_maximal(sets)),
        );
        for workers in [1, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("compact_parallel_x{workers}"), dataset.name),
                &s1,
                |b, sets| b.iter(|| compact_parallel(sets, workers, None)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_settrie);
criterion_main!(benches);
