//! Differential sweep: `enumerate_mqcs_default` (the full DCFastQC +
//! set-trie pipeline) against the exhaustive `naive` oracle over the whole
//! parameter grid γ ∈ {0.5, 0.7, 0.9, 1.0} × θ ∈ {2, 3, 4}, on a battery of
//! seeded small random graphs spanning sparse to near-complete densities.
//!
//! Unlike the property tests (which sample parameters per case), this sweep
//! guarantees every (γ, θ) cell of the grid is exercised on every graph.
//!
//! The second half of the file is the *backend* differential: the bitset
//! adjacency kernel and the sorted-slice path must produce byte-identical
//! MQC sets (and identical raw S1 output) on every tested configuration —
//! including graphs too large for the oracle, where the two backends check
//! each other.

use mqce::core::naive;
use mqce::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full pipeline through the `Session` builder.
fn enumerate(g: &Graph, config: &MqceConfig) -> MqceResult {
    Session::open(g.clone()).config(*config).run()
}

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

/// Runs every algorithm × (γ, θ) cell with the bitset kernel forced on and
/// forced off, asserting the two backends agree exactly — on the maximal
/// sets *and* on the raw S1 output (the kernel must change how adjacency is
/// answered, never what the search emits).
fn sweep_backends(g: &Graph, label: &str) {
    for gamma in GAMMAS {
        for theta in THETAS {
            for algorithm in [Algorithm::DcFastQc, Algorithm::FastQc, Algorithm::QuickPlus] {
                let run = |backend: AdjacencyBackend| {
                    enumerate(
                        g,
                        &MqceConfig::new(gamma, theta)
                            .unwrap()
                            .with_algorithm(algorithm)
                            .with_backend(backend),
                    )
                };
                let slice = run(AdjacencyBackend::Slice);
                let bitset = run(AdjacencyBackend::Bitset);
                assert_eq!(
                    slice.mqcs, bitset.mqcs,
                    "{label}: backends disagree on MQCs ({algorithm:?}, gamma={gamma}, theta={theta})"
                );
                assert_eq!(
                    slice.qcs, bitset.qcs,
                    "{label}: backends disagree on raw S1 output ({algorithm:?}, gamma={gamma}, theta={theta})"
                );
                assert_eq!(
                    slice.stats.branches, bitset.stats.branches,
                    "{label}: backends explored different search trees ({algorithm:?}, gamma={gamma}, theta={theta})"
                );
            }
        }
    }
}

#[test]
fn backends_agree_on_random_graphs_across_full_grid() {
    // Property-style battery: seeded G(n, p) graphs sweeping size and
    // density, each swept over the full gamma × theta grid. Some of these
    // graphs are larger than the oracle allows — there the two backends
    // verify each other. Sizes are capped because the low-γ grid cells are
    // exponential on dense graphs.
    let mut rng = StdRng::seed_from_u64(0xB175E7);
    for case in 0..10 {
        let n = rng.gen_range(10..17);
        let p = rng.gen_range(0.15..0.85);
        let g = random_graph(&mut rng, n, p);
        sweep_backends(&g, &format!("backend case {case} (n={n}, p={p:.2})"));
    }
}

#[test]
fn backends_agree_on_structured_and_degenerate_graphs() {
    sweep_backends(&Graph::paper_figure1(), "paper figure 1");
    sweep_backends(&Graph::complete(9), "K9");
    sweep_backends(&Graph::star(8), "star8");
    sweep_backends(&Graph::empty(0), "empty");
    sweep_backends(&Graph::empty(5), "5 isolated vertices");
}

#[test]
fn backends_agree_across_word_boundary_graphs() {
    // Vertices beyond id 64 exercise the multi-word rows of the kernel.
    // Sparse enough to keep the low-γ grid cells tractable, and swept at the
    // dense-community shape only for the strong-pruning γ values.
    let mut rng = StdRng::seed_from_u64(0x60D);
    let sparse = random_graph(&mut rng, 80, 0.08);
    sweep_backends(&sparse, "word-boundary G(80, 0.08)");
    let dense = random_graph(&mut rng, 70, 0.5);
    for theta in [4, 6] {
        for algorithm in [Algorithm::DcFastQc, Algorithm::QuickPlus] {
            let run = |backend: AdjacencyBackend| {
                enumerate(
                    &dense,
                    &MqceConfig::new(0.9, theta)
                        .unwrap()
                        .with_algorithm(algorithm)
                        .with_backend(backend),
                )
            };
            let slice = run(AdjacencyBackend::Slice);
            let bitset = run(AdjacencyBackend::Bitset);
            assert_eq!(slice.mqcs, bitset.mqcs, "{algorithm:?} theta={theta}");
            assert_eq!(slice.qcs, bitset.qcs, "{algorithm:?} theta={theta}");
        }
    }
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
                for threads in [1, 2] {
                    let result = Session::open(g.clone())
                        .config(config)
                        .threads(threads)
                        .run();
                    assert_eq!(
                        result.mqcs,
                        mqce::settrie::filter_maximal(&result.qcs),
                        "{label}: S2 pass diverges at {threads} threads \
                         (gamma={gamma}, theta={theta})"
                    );
                }
            }
        }
    }
}

#[test]
fn auto_backend_matches_forced_backends() {
    // The adaptive heuristic may pick either path; whatever it picks must
    // match the forced-slice result through the whole grid.
    let mut rng = StdRng::seed_from_u64(0xA070);
    let g = random_graph(&mut rng, 25, 0.6);
    for gamma in GAMMAS {
        for theta in THETAS {
            let auto = enumerate(
                &g,
                &MqceConfig::new(gamma, theta)
                    .unwrap()
                    .with_backend(AdjacencyBackend::Auto),
            );
            let slice = enumerate(
                &g,
                &MqceConfig::new(gamma, theta)
                    .unwrap()
                    .with_backend(AdjacencyBackend::Slice),
            );
            assert_eq!(auto.mqcs, slice.mqcs, "gamma={gamma} theta={theta}");
        }
    }
}
