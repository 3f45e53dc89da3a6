//! Differential harness for incremental enumeration under edge updates:
//! an [`IncrementalSession`] driven through random update schedules must
//! hold its family equal to a full recompute on the mutated graph after
//! every batch — across the γ×θ grid, at 1, 2 and 4 worker threads, with
//! schedules whose later batches delete edges the earlier batches inserted
//! (the round-trip shape that catches stale retained sets).

use mqce::core::{IncrementalSession, MqceConfig, MqceResult, Session};
use mqce::graph::generators::{community_graph, CommunityGraphParams};
use mqce::graph::{Graph, GraphDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full pipeline through the `Session` builder.
fn enumerate(g: &Graph, config: &MqceConfig) -> MqceResult {
    Session::open(g.clone()).config(*config).run()
}

const GAMMAS: [f64; 3] = [0.8, 0.9, 0.95];
const THETAS: [usize; 2] = [3, 5];

fn random_graph(rng: &mut StdRng, n: usize, p: f64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A deterministic 4-batch schedule of mixed inserts/deletes. The last
/// batch deletes edges inserted by the earlier batches, so the harness
/// exercises the insert-then-delete round trip, not just forward churn.
fn schedule(g: &Graph, seed: u64) -> Vec<GraphDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_vertices() as u32;
    let mut current = g.clone();
    let mut inserted: Vec<(u32, u32)> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..3 {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for _ in 0..4 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            if current.has_edge(u, v) {
                deletes.push((u, v));
            } else {
                inserts.push((u, v));
                inserted.push((u, v));
            }
        }
        let delta = GraphDelta::new(inserts, deletes);
        current = delta.apply(&current);
        batches.push(delta);
    }
    // Unwind half of what the schedule inserted (plus nothing else): these
    // edges exist in `current`, so the deletes are real.
    let unwind: Vec<(u32, u32)> = inserted
        .iter()
        .copied()
        .step_by(2)
        .filter(|&(u, v)| current.has_edge(u, v))
        .collect();
    batches.push(GraphDelta::new(Vec::new(), unwind));
    batches
}

/// Drives one graph's schedule through the whole γ×θ grid at one thread
/// count, asserting incremental ≡ full recompute after every batch.
fn run_grid(g: &Graph, label: &str, threads: usize, seed: u64) {
    let batches = schedule(g, seed);
    for gamma in GAMMAS {
        for theta in THETAS {
            let config = MqceConfig::new(gamma, theta).unwrap();
            let mut session = IncrementalSession::new(g.clone(), config, threads);
            let mut current = g.clone();
            for (step, delta) in batches.iter().enumerate() {
                let outcome = session.update(delta);
                current = delta.apply(&current);
                assert_eq!(
                    session.prepared().fingerprint(),
                    current.fingerprint(),
                    "{label}: graph drifted at step {step} \
                     (gamma={gamma}, theta={theta}, threads={threads})"
                );
                let fresh = enumerate(&current, &config);
                assert_eq!(
                    session.family(),
                    &fresh.mqcs[..],
                    "{label}: incremental family != full recompute at step {step} \
                     (gamma={gamma}, theta={theta}, threads={threads}, \
                      dirty={}, retired={}, retained={})",
                    outcome.dirty_subproblems,
                    outcome.retired,
                    outcome.retained,
                );
            }
        }
    }
}

fn graphs() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x17C);
    vec![
        ("paper figure 1".to_string(), Graph::paper_figure1()),
        (
            "community-60".to_string(),
            community_graph(
                CommunityGraphParams {
                    n: 60,
                    num_communities: 4,
                    p_intra: 0.9,
                    inter_degree: 1.5,
                },
                13,
            ),
        ),
        ("G(30, 0.3)".to_string(), random_graph(&mut rng, 30, 0.3)),
    ]
}

#[test]
fn incremental_equals_full_recompute_sequential() {
    for (label, g) in &graphs() {
        run_grid(g, label, 1, 0xBEEF);
    }
}

#[test]
fn incremental_equals_full_recompute_two_threads() {
    for (label, g) in &graphs() {
        run_grid(g, label, 2, 0xBEEF);
    }
}

#[test]
fn incremental_equals_full_recompute_four_threads() {
    for (label, g) in &graphs() {
        run_grid(g, label, 4, 0xBEEF);
    }
}

/// An injected searcher panic at a dirty anchor is contained by the anchor
/// driver at every thread count: the update returns and reports the panic.
/// (Whether the maintained family stays exact after a panic is not
/// asserted here.)
#[test]
fn injected_panic_in_a_dirty_subproblem_is_contained() {
    let g = community_graph(
        CommunityGraphParams {
            n: 60,
            num_communities: 4,
            p_intra: 0.9,
            inter_degree: 1.5,
        },
        13,
    );
    let base = MqceConfig::new(0.9, 5).unwrap();
    let with_fault = |anchor: u32| {
        let mut config = base;
        config.params.fail_anchor = Some(anchor);
        config
    };
    // An anchor whose subproblem reaches the searcher (pruned anchors never
    // do): a full run with the fault there contains exactly one panic.
    let anchor = (0..g.num_vertices() as u32)
        .find(|&v| enumerate(&g, &with_fault(v)).stats.subproblem_panics == 1)
        .expect("some anchor reaches the searcher");
    // Inserting an edge at the anchor puts it in the dirty closure and only
    // grows its subproblem, so the re-run reaches the searcher again.
    let other = (0..g.num_vertices() as u32)
        .find(|&w| w != anchor && !g.has_edge(anchor, w))
        .expect("the anchor is not adjacent to everything");
    let delta = GraphDelta::new(vec![(anchor, other)], Vec::new());
    for threads in [1, 4] {
        let mut session = IncrementalSession::new(g.clone(), with_fault(anchor), threads);
        let outcome = session.update(&delta);
        assert!(!outcome.full_recompute);
        assert!(outcome.dirty.contains(&anchor));
        assert_eq!(
            outcome.stats.subproblem_panics, 1,
            "threads={threads}: the dirty re-run did not contain the injected panic"
        );
    }
}
