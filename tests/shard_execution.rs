//! Differential tests for sharded enumeration: the in-process shard driver
//! (`plan_shards` → `run_shard` per shard → `merge_shard_families`, the
//! same steps the multi-process `mqce --shards` coordinator runs over
//! worker processes) must produce a family byte-identical to the
//! single-process [`Session`](mqce::Session) pipeline across the γ×θ grid
//! at 1, 2 and 4 shards — and a shard whose anchor panics must surface as a
//! contained best-effort result, never as a hang or an escaped panic.

use std::time::{Duration, Instant};

use mqce::core::shard::{merge_shard_families, plan_shards, run_shard, run_sharded};
use mqce::core::{MqceConfig, PreparedGraph, Session};
use mqce::graph::generators::{
    community_graph, planted_quasi_cliques, CommunityGraphParams, PlantedGroup,
};
use mqce::graph::Graph;

fn community(n: usize, communities: usize, seed: u64) -> Graph {
    community_graph(
        CommunityGraphParams {
            n,
            num_communities: communities,
            p_intra: 0.9,
            inter_degree: 1.5,
        },
        seed,
    )
}

#[test]
fn sharded_family_matches_single_process_across_the_grid() {
    let graphs = [
        ("community-120", community(120, 8, 42)),
        ("community-200", community(200, 10, 7)),
        (
            "planted",
            planted_quasi_cliques(
                150,
                0.02,
                &[
                    PlantedGroup {
                        size: 14,
                        density: 0.95,
                    },
                    PlantedGroup {
                        size: 10,
                        density: 1.0,
                    },
                ],
                99,
            ),
        ),
    ];
    for (name, g) in &graphs {
        let prepared = PreparedGraph::new(g.clone());
        for gamma in [0.8, 0.9] {
            for theta in [4, 6] {
                let config = MqceConfig::new(gamma, theta).unwrap();
                let single = Session::open(g.clone()).config(config).run();
                for num_shards in [1, 2, 4] {
                    let outcome = run_sharded(&prepared, &config, num_shards, 1)
                        .expect("DCFastQC is shardable");
                    assert_eq!(
                        outcome.mqcs, single.mqcs,
                        "{name}: {num_shards}-shard family differs from \
                         single-process at gamma={gamma} theta={theta}"
                    );
                    assert!(
                        !outcome.best_effort,
                        "{name}: unfaulted sharded run reported best-effort"
                    );
                    assert_eq!(outcome.shard_millis.len(), outcome.shards);
                }
            }
        }
    }
}

#[test]
fn sharded_run_is_exact_with_threads_per_shard() {
    let g = community(160, 10, 11);
    let prepared = PreparedGraph::new(g.clone());
    let config = MqceConfig::new(0.9, 5).unwrap();
    let single = Session::open(g).config(config).run();
    let outcome = run_sharded(&prepared, &config, 3, 2).expect("DCFastQC is shardable");
    assert_eq!(outcome.mqcs, single.mqcs);
    assert!(!outcome.best_effort);
}

#[test]
fn merge_reports_its_engine_and_per_shard_interiors_splice_exactly() {
    let g = community(120, 8, 42);
    let prepared = PreparedGraph::new(g.clone());
    let config = MqceConfig::new(0.9, 4).unwrap();
    let plan = plan_shards(&prepared, &config, 3).expect("DCFastQC is shardable");
    assert_eq!(plan.shards.len(), 3);
    let families: Vec<_> = plan
        .shards
        .iter()
        .map(|spec| run_shard(&spec.slice, &spec.anchors, &spec.rank, &config, 1).mqcs)
        .collect();
    // Every shard family is internally maximal and over original vertex ids.
    let n = prepared.graph().num_vertices() as u32;
    for family in &families {
        for set in family {
            assert!(set.iter().all(|&v| v < n));
        }
    }
    let merged = merge_shard_families(&plan, families, 2);
    assert_eq!(merged.backend, "parallel");
    let single = Session::open(g).config(config).run();
    assert_eq!(merged.mqcs, single.mqcs);
}

#[test]
fn panicking_anchor_yields_contained_best_effort_not_a_hang() {
    let g = community(120, 8, 42);
    let prepared = PreparedGraph::new(g.clone());
    let mut config = MqceConfig::new(0.9, 4).unwrap();
    let reference = run_sharded(&prepared, &config, 4, 1).expect("DCFastQC is shardable");
    assert!(!reference.best_effort);
    // Fault an anchor whose subproblem actually executes (pruned anchors
    // never reach the searcher, so probe the plan's anchors until one
    // panics): exactly one shard then reports a contained panic.
    let plan = plan_shards(&prepared, &config, 4).expect("DCFastQC is shardable");
    let spec = &plan.shards[1];
    let outcome = spec
        .anchors
        .iter()
        .find_map(|&a| {
            config.params.fail_anchor = Some(spec.slice.to_global[a as usize]);
            let out = run_sharded(&prepared, &config, 4, 1).expect("DCFastQC is shardable");
            (out.stats.subproblem_panics >= 1).then_some(out)
        })
        .expect("some anchor of shard 1 executes a DC subproblem");
    assert!(
        outcome.best_effort,
        "a contained subproblem panic must surface as best_effort"
    );
    // The surviving sets are sound: each is a subset of some true maximal
    // set (the panicked anchor's own sets may be missing).
    for set in &outcome.mqcs {
        assert!(
            reference
                .mqcs
                .iter()
                .any(|m| set.iter().all(|v| m.contains(v))),
            "best-effort family emitted a set outside the true family"
        );
    }
}

/// A shard worker honours its time budget end to end: S1 stops at the
/// deadline, and the S2 pass runs under the pipeline's graced S2 deadline
/// instead of unbounded. The run returns
/// within the limit plus the grace slice and reports that it was cut short.
#[test]
fn shard_run_returns_within_its_time_limit_and_reports_timed_out() {
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
    let prepared = PreparedGraph::new(g);
    // All domination work happens in the S2 pass, which only the graced
    // S2 deadline bounds.
    let base = MqceConfig::new(0.6, 5).unwrap();
    let plan = plan_shards(&prepared, &base, 1).expect("DCFastQC is shardable");
    let spec = &plan.shards[0];
    // The pipeline's S2 grace is 10% of the limit, at least 100 ms. A zero
    // budget gets no grace; the same 100 ms then bounds its
    // budget-independent set-up.
    let grace = Duration::from_millis(100);
    for limit in [Duration::ZERO, Duration::from_millis(50)] {
        let config = base.with_time_limit(limit);
        for threads in [1, 2] {
            let start = Instant::now();
            let family = run_shard(&spec.slice, &spec.anchors, &spec.rank, &config, threads);
            let elapsed = start.elapsed();
            assert!(
                family.timed_out,
                "{limit:?} budget at {threads} threads not reported as timed out"
            );
            assert!(
                elapsed <= limit + grace,
                "{limit:?} budget at {threads} threads took {elapsed:?}"
            );
        }
    }
}
