//! Differential sweep: `enumerate_mqcs_default` (the full DCFastQC +
//! set-trie pipeline) against the exhaustive `naive` oracle over the whole
//! parameter grid γ ∈ {0.5, 0.7, 0.9, 1.0} × θ ∈ {2, 3, 4}, on a battery of
//! seeded small random graphs spanning sparse to near-complete densities.
//!
//! Unlike the property tests (which sample parameters per case), this sweep
//! guarantees every (γ, θ) cell of the grid is exercised on every graph.
//! The last test checks the S2 pass against the serial filter on the same
//! grid. (The bitset-kernel vs sorted-slice differential lives in
//! `mqce-core`'s pipeline unit tests, which can force either path.)

use mqce::core::naive;
use mqce::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GAMMAS: [f64; 4] = [0.5, 0.7, 0.9, 1.0];
const THETAS: [usize; 3] = [2, 3, 4];

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

fn sweep(g: &Graph, label: &str) {
    for gamma in GAMMAS {
        for theta in THETAS {
            let params = MqceParams::new(gamma, theta).unwrap();
            let expected = naive::all_maximal_quasi_cliques(g, params);
            let got = enumerate_mqcs_default(g, gamma, theta).unwrap();
            assert_eq!(
                got.mqcs, expected,
                "{label}: pipeline differs from oracle at gamma={gamma}, theta={theta}"
            );
        }
    }
}

#[test]
fn pipeline_matches_oracle_across_full_parameter_grid() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..12 {
        let n = rng.gen_range(5..10);
        let p = rng.gen_range(0.15..0.95);
        let g = random_graph(&mut rng, n, p);
        sweep(&g, &format!("random case {case} (n={n}, p={p:.2})"));
    }
}

#[test]
fn sweep_covers_structured_graphs() {
    sweep(&Graph::paper_figure1(), "paper figure 1");
    sweep(&Graph::complete(7), "K7");
    sweep(&Graph::cycle(8), "C8");
    sweep(&Graph::star(6), "star6");
    sweep(&Graph::path(7), "P7");
}

#[test]
fn sweep_covers_degenerate_graphs() {
    sweep(&Graph::empty(0), "empty");
    sweep(&Graph::empty(4), "4 isolated vertices");
    sweep(&Graph::from_edges(2, &[(0, 1)]), "single edge");
}

/// The S2 differential over the same grid the oracle sweep uses: every
/// (γ, θ) cell on a battery of seeded random graphs. The pipeline's pass
/// must reproduce the independent serial filter run on its own S1 family,
/// at one thread and at two.
#[test]
fn s2_pass_matches_filter_maximal_across_full_grid() {
    let mut rng = StdRng::seed_from_u64(0x52BD);
    let mut graphs: Vec<(String, Graph)> = (0..8)
        .map(|case| {
            let n = rng.gen_range(8..16);
            let p = rng.gen_range(0.2..0.9);
            (
                format!("s2 case {case} (n={n}, p={p:.2})"),
                random_graph(&mut rng, n, p),
            )
        })
        .collect();
    graphs.push(("paper figure 1".to_string(), Graph::paper_figure1()));
    graphs.push(("K7".to_string(), Graph::complete(7)));
    for (label, g) in &graphs {
        for gamma in GAMMAS {
            for theta in THETAS {
                let config = MqceConfig::new(gamma, theta).unwrap();
                let expected =
                    mqce::settrie::filter_maximal(&mqce::core::solve_s1(g, &config).outputs);
                for threads in [1, 2] {
                    let result = Session::open(g.clone())
                        .config(config)
                        .threads(threads)
                        .run();
                    assert_eq!(
                        result.mqcs, expected,
                        "{label}: S2 pass diverges at {threads} threads \
                         (gamma={gamma}, theta={theta})"
                    );
                }
            }
        }
    }
}

/// Maximality does not depend on θ, which is what lets the daemon answer a
/// request from a cached family at a lower θ: over the same grid, the
/// family at every θ′ ≥ θ is exactly the θ family's sets of size ≥ θ′, in
/// the same order, and a query's answer at θ′ is those of them that contain
/// the query vertex.
#[test]
fn larger_theta_families_are_filters_of_smaller_theta_families() {
    let mut rng = StdRng::seed_from_u64(0x7E7A);
    let mut graphs: Vec<(String, Graph)> = (0..8)
        .map(|case| {
            let n = rng.gen_range(8..16);
            let p = rng.gen_range(0.2..0.9);
            (
                format!("filter case {case} (n={n}, p={p:.2})"),
                random_graph(&mut rng, n, p),
            )
        })
        .collect();
    graphs.push(("paper figure 1".to_string(), Graph::paper_figure1()));
    graphs.push(("K7".to_string(), Graph::complete(7)));
    for (label, g) in &graphs {
        for gamma in GAMMAS {
            let families: Vec<Vec<Vec<u32>>> = THETAS
                .iter()
                .map(|&theta| enumerate_mqcs_default(g, gamma, theta).unwrap().mqcs)
                .collect();
            for (i, low) in families.iter().enumerate() {
                for (&theta, family) in THETAS.iter().zip(&families).skip(i) {
                    let filtered: Vec<Vec<u32>> =
                        low.iter().filter(|h| h.len() >= theta).cloned().collect();
                    assert_eq!(
                        &filtered, family,
                        "{label}: gamma={gamma}: theta={theta} != theta={} filtered",
                        THETAS[i]
                    );
                    let config = MqceConfig::new(gamma, theta).unwrap();
                    for v in g.vertices() {
                        let query = mqce::core::find_mqcs_containing(g, &[v], &config)
                            .unwrap()
                            .mqcs;
                        let holding: Vec<Vec<u32>> = filtered
                            .iter()
                            .filter(|h| h.contains(&v))
                            .cloned()
                            .collect();
                        assert_eq!(
                            query, holding,
                            "{label}: gamma={gamma}, theta={theta}: query {v} != filter"
                        );
                    }
                }
            }
        }
    }
}
