//! Integration tests for the work-stealing parallel DC driver: skewed
//! subproblem families (one planted giant community plus many tiny ones)
//! must produce exactly the sequential maximal family at every thread
//! count, intra-subproblem splitting must actually fire on the skewed
//! shape, and deadlines must stay sound while branches are being stolen.

use std::time::{Duration, Instant};

use mqce::core::prelude::*;
use mqce::core::quasiclique::is_quasi_clique;
use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
use mqce_graph::Graph;

/// The full pipeline through the `Session` builder.
fn enumerate(g: &Graph, config: &MqceConfig) -> MqceResult {
    enumerate_threads(g, config, 1)
}

/// The full pipeline through the `Session` builder on `threads` workers.
fn enumerate_threads(g: &Graph, config: &MqceConfig, threads: usize) -> MqceResult {
    Session::open(g.clone())
        .config(*config)
        .threads(threads)
        .run()
}

/// Whether sorted set `a` is a subset of sorted set `b`.
fn is_sorted_subset(a: &[u32], b: &[u32]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

/// One heavy planted community and a tail of tiny ones: the shape where
/// whole-subproblem handout pins a single worker on the giant subproblem
/// while the rest go idle.
fn skewed_graph() -> Graph {
    let mut groups = vec![PlantedGroup {
        size: 26,
        density: 0.92,
    }];
    for _ in 0..10 {
        groups.push(PlantedGroup {
            size: 8,
            density: 1.0,
        });
    }
    planted_quasi_cliques(180, 0.015, &groups, 20240)
}

#[test]
fn skewed_family_parallel_matches_sequential_at_every_thread_count() {
    let g = skewed_graph();
    let config = MqceConfig::new(0.85, 6).unwrap().with_steal_granularity(1);
    let sequential = enumerate(&g, &config);
    assert!(!sequential.timed_out());
    assert!(!sequential.mqcs.is_empty());
    for threads in [1, 2, 4] {
        let parallel = enumerate_threads(&g, &config, threads);
        assert_eq!(
            parallel.mqcs, sequential.mqcs,
            "work-stealing driver differs from sequential at {threads} threads"
        );
        assert!(!parallel.timed_out());
        // Subproblem accounting is thread-count-invariant: every anchor
        // vertex is built exactly once no matter who runs it.
        assert_eq!(
            parallel.stats.dc_subproblems,
            sequential.stats.dc_subproblems
        );
        if threads > 1 {
            assert_eq!(parallel.thread_stats.len(), threads);
            let total: u64 = parallel.thread_stats.iter().map(|t| t.subproblems).sum();
            assert_eq!(total, parallel.stats.dc_subproblems);
        }
    }
}

#[test]
fn intra_subproblem_splitting_fires_on_a_single_giant_community() {
    // One dense community dominates the run: with 4 workers, three drain the
    // cheap tail quickly and go hungry, so the workers holding the heavy
    // subproblems donate branches. Whether a donation window opens in any
    // single run depends on OS scheduling (the deterministic coverage of the
    // branch-packaging itself lives in the scheduler's greedy-sink unit
    // test), so the run is repeated a few times; output equality is asserted
    // every time.
    let g = planted_quasi_cliques(
        80,
        0.01,
        &[PlantedGroup {
            size: 30,
            density: 0.9,
        }],
        7,
    );
    let config = MqceConfig::new(0.85, 6).unwrap().with_steal_granularity(1);
    let sequential = enumerate(&g, &config);
    let expected = sequential.mqcs;
    // The raw one-worker S1 stream, sorted and deduplicated.
    let mut seq_sorted = mqce::core::solve_s1(&g, &config).outputs;
    seq_sorted.sort_unstable();
    seq_sorted.dedup();
    assert_eq!(sequential.qcs, seq_sorted.len());
    let (mut pipeline_donated, mut raw_donated) = (false, false);
    for _attempt in 0..8 {
        let parallel = enumerate_threads(&g, &config, 4);
        assert_eq!(
            parallel.mqcs, expected,
            "stolen split tasks changed the maximal family"
        );
        assert_eq!(
            parallel.stats.split_executed, parallel.stats.split_donated,
            "every donated branch must be executed exactly once"
        );
        // The raw 4-worker S1 stream, whose split runs are checked the same
        // way: it may contain extra dominated sets from split points, but
        // every distinct set of the sequential stream.
        let raw = mqce::core::solve_s1_threads(&g, &config, 4);
        assert_eq!(
            raw.stats.split_executed, raw.stats.split_donated,
            "every donated branch must be executed exactly once"
        );
        assert_eq!(mqce::settrie::filter_maximal(&raw.outputs), expected);
        let mut par_sorted = raw.outputs;
        par_sorted.sort_unstable();
        par_sorted.dedup();
        assert!(seq_sorted
            .iter()
            .all(|s| par_sorted.binary_search(s).is_ok()));
        pipeline_donated |= parallel.stats.split_donated > 0;
        raw_donated |= raw.stats.split_donated > 0;
        if pipeline_donated && raw_donated {
            break;
        }
    }
    assert!(
        pipeline_donated && raw_donated,
        "no branches were donated in any of 8 runs on the giant-community workload"
    );
}

#[test]
fn one_worker_runs_the_scheduler_and_never_steals_or_splits() {
    // Every thread count runs the work-stealing scheduler, so every run
    // reports one row per worker. A lone worker is never hungry: even at
    // the most eager granularity it neither steals nor splits, and its
    // family equals the 2-worker one.
    let g = skewed_graph();
    let config = MqceConfig::new(0.85, 6).unwrap().with_steal_granularity(1);
    let runs: Vec<MqceResult> = (1..=4)
        .map(|threads| enumerate_threads(&g, &config, threads))
        .collect();
    for (threads, run) in (1..=4).zip(&runs) {
        assert_eq!(run.thread_stats.len(), threads, "{threads} threads");
    }
    let one = &runs[0];
    assert!(one
        .thread_stats
        .iter()
        .all(|t| t.steals == 0 && t.splits == 0));
    assert_eq!(one.stats.tasks_stolen, 0);
    assert_eq!(one.stats.split_donated, 0);
    assert_eq!(one.stats.split_executed, 0);
    assert_eq!(one.thread_stats[0].subproblems, one.stats.dc_subproblems);
    assert!(!one.timed_out());
    assert_eq!(one.mqcs, runs[1].mqcs);
}

#[test]
fn granularity_zero_disables_splitting_but_not_stealing() {
    let g = skewed_graph();
    let config = MqceConfig::new(0.85, 6).unwrap().with_steal_granularity(0);
    let outcome = enumerate_threads(&g, &config, 4);
    assert_eq!(outcome.stats.split_donated, 0);
    assert_eq!(outcome.stats.split_executed, 0);
    let sequential = enumerate(&g, &config);
    assert_eq!(outcome.mqcs, sequential.mqcs);
}

#[test]
fn quickplus_inner_survives_stealing() {
    // Smaller than the FastQC workloads: Quick+ has no worst-case guarantee
    // and would take tens of seconds on the full skewed graph.
    let mut groups = vec![PlantedGroup {
        size: 14,
        density: 0.95,
    }];
    for _ in 0..6 {
        groups.push(PlantedGroup {
            size: 7,
            density: 1.0,
        });
    }
    let g = planted_quasi_cliques(90, 0.015, &groups, 313);
    let config = MqceConfig::new(0.9, 5)
        .unwrap()
        .with_algorithm(Algorithm::QuickPlus)
        .with_steal_granularity(1);
    let sequential = enumerate(&g, &config);
    let parallel = enumerate_threads(&g, &config, 4);
    assert_eq!(parallel.mqcs, sequential.mqcs);
}

#[test]
fn parallel_matches_sequential_across_full_differential_grid() {
    // The γ × θ grid of the differential sweep, run through the work-stealing
    // driver (aggressive splitting) and compared cell by cell against the
    // sequential pipeline, on random, structured and degenerate graphs.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x57EA1);
    let mut graphs = vec![
        Graph::paper_figure1(),
        Graph::complete(7),
        Graph::star(6),
        Graph::empty(0),
        Graph::empty(4),
    ];
    for _ in 0..4 {
        let n = rng.gen_range(8..14);
        let p = rng.gen_range(0.2..0.85);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        graphs.push(Graph::from_edges(n, &edges));
    }
    for (i, g) in graphs.iter().enumerate() {
        for &gamma in &[0.5, 0.7, 0.9, 1.0] {
            for theta in 2..=4 {
                let config = MqceConfig::new(gamma, theta)
                    .unwrap()
                    .with_steal_granularity(1);
                let sequential = enumerate(g, &config);
                let parallel = enumerate_threads(g, &config, 4);
                assert_eq!(
                    parallel.mqcs, sequential.mqcs,
                    "graph {i}: parallel differs at gamma={gamma} theta={theta}"
                );
            }
        }
    }
}

#[test]
fn deadline_under_stealing_returns_sound_partial_result_quickly() {
    // A workload far too big for 40 ms: the run must stop near the deadline
    // (S2 gets its bounded grace slice) and still return only valid, pairwise
    // incomparable quasi-cliques.
    let g = planted_quasi_cliques(
        220,
        0.03,
        &[
            PlantedGroup {
                size: 30,
                density: 0.95,
            },
            PlantedGroup {
                size: 24,
                density: 0.95,
            },
        ],
        99,
    );
    let config = MqceConfig::new(0.8, 5)
        .unwrap()
        .with_steal_granularity(1)
        .with_time_limit(Duration::from_millis(40));
    let start = Instant::now();
    let result = enumerate_threads(&g, &config, 4);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "deadline was not honoured under stealing"
    );
    for mqc in &result.mqcs {
        assert!(mqc.len() >= 5);
        assert!(
            is_quasi_clique(&g, mqc, 0.8),
            "invalid QC in partial result"
        );
    }
    for (i, a) in result.mqcs.iter().enumerate() {
        for (j, b) in result.mqcs.iter().enumerate() {
            assert!(
                i == j || !is_sorted_subset(a, b),
                "partial result is not an antichain: {a:?} ⊆ {b:?}"
            );
        }
    }
}
