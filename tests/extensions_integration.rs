//! Integration tests for the extension modules built on top of the core
//! enumeration: query-driven search, top-k mining, kernel expansion, the
//! result verifier, the edge-based quasi-clique comparison and the graph
//! interchange formats.

use mqce::core::edge_qc;
use mqce::core::kernel::{expand_kernels, KernelConfig};
use mqce::core::quasiclique::is_quasi_clique;
use mqce::core::verify::{verify_mqc_set, Violation};
use mqce::graph::generators;
use mqce::graph::ordering::VertexOrdering;
use mqce::graph::{formats, stats};
use mqce::prelude::*;

fn random_graphs() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for seed in 0..4u64 {
        graphs.push((
            format!("gnm-sparse-{seed}"),
            generators::erdos_renyi_gnm(40, 90, seed),
        ));
        graphs.push((
            format!("gnm-dense-{seed}"),
            generators::erdos_renyi_gnm(25, 140, seed),
        ));
    }
    graphs.push((
        "planted".to_string(),
        generators::planted_quasi_cliques(
            60,
            0.03,
            &[
                generators::PlantedGroup {
                    size: 9,
                    density: 1.0,
                },
                generators::PlantedGroup {
                    size: 7,
                    density: 0.95,
                },
            ],
            11,
        ),
    ));
    graphs.push((
        "caveman".to_string(),
        generators::relaxed_caveman(5, 7, 0.1, 3),
    ));
    graphs.push((
        "smallworld".to_string(),
        generators::watts_strogatz(50, 6, 0.1, 9),
    ));
    graphs
}

#[test]
fn query_search_agrees_with_filtered_enumeration() {
    for (label, g) in random_graphs() {
        for (gamma, theta) in [(0.6, 4usize), (0.8, 3)] {
            let full = enumerate_mqcs_default(&g, gamma, theta).unwrap().mqcs;
            // Query every vertex that appears in some MQC, plus one that may not.
            let mut queries: Vec<Vec<u32>> = vec![vec![0], vec![g.num_vertices() as u32 / 2]];
            if let Some(first) = full.first() {
                queries.push(vec![first[0]]);
                if first.len() >= 2 {
                    queries.push(vec![first[0], first[1]]);
                }
            }
            for query in queries {
                let expected: Vec<Vec<u32>> = full
                    .iter()
                    .filter(|mqc| query.iter().all(|q| mqc.contains(q)))
                    .cloned()
                    .collect();
                let config = MqceConfig::new(gamma, theta).unwrap();
                let got = find_mqcs_containing(&g, &query, &config).unwrap().mqcs;
                assert_eq!(
                    got, expected,
                    "{label}: query {query:?} gamma={gamma} theta={theta}"
                );
            }
        }
    }
}

#[test]
fn topk_returns_the_largest_mqcs() {
    for (label, g) in random_graphs() {
        let gamma = 0.7;
        let full = enumerate_mqcs_default(&g, gamma, 2).unwrap().mqcs;
        let mut by_size = full.clone();
        by_size.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        let prepared = PreparedGraph::new(g.clone());
        for k in [1usize, 3, 10] {
            let top = find_largest_mqcs(&prepared, gamma, k, None).unwrap();
            let expected: Vec<Vec<u32>> = by_size.iter().take(k).cloned().collect();
            assert_eq!(top.mqcs, expected, "{label}: k={k}");
        }
    }
}

#[test]
fn kernel_expansion_is_sound_and_bounded_by_exact_topk() {
    for (label, g) in random_graphs() {
        let gamma = 0.7;
        let config = KernelConfig::new(gamma, 0.9, 3, 5).unwrap();
        let result = expand_kernels(&g, config).unwrap();
        for qc in &result.qcs {
            assert!(
                is_quasi_clique(&g, qc, gamma),
                "{label}: expansion is not a QC"
            );
        }
        let exact = find_largest_mqcs(&PreparedGraph::new(g.clone()), gamma, 1, None).unwrap();
        let exact_best = exact.mqcs.first().map(Vec::len).unwrap_or(0);
        let heuristic_best = result.qcs.first().map(Vec::len).unwrap_or(0);
        assert!(
            heuristic_best <= exact_best,
            "{label}: heuristic {heuristic_best} exceeds exact optimum {exact_best}"
        );
    }
}

#[test]
fn verifier_accepts_real_results_and_rejects_corrupted_ones() {
    for (label, g) in random_graphs().into_iter().take(6) {
        let gamma = 0.8;
        let theta = 3;
        let params = MqceParams::new(gamma, theta).unwrap();
        let result = enumerate_mqcs_default(&g, gamma, theta).unwrap();
        let clean = verify_mqc_set(&g, &result.mqcs, params);
        assert!(clean.is_ok(), "{label}: {clean}");

        if result.mqcs.is_empty() {
            continue;
        }
        // Corruption 1: drop a vertex from the first MQC. The truncated set
        // either stops being a QC, falls below θ, or (if it is still a QC)
        // admits the dropped vertex back as a single-vertex extension — all
        // of which the local verifier must flag.
        let mut corrupted = result.mqcs.clone();
        corrupted[0].pop();
        if !corrupted[0].is_empty() {
            let report = verify_mqc_set(&g, &corrupted, params);
            assert!(
                report.violations.iter().any(|v| {
                    matches!(
                        v,
                        Violation::NotAQuasiClique { .. }
                            | Violation::TooSmall { .. }
                            | Violation::SingleVertexExtension { .. }
                            | Violation::ContainedInAnother { .. }
                    )
                }),
                "{label}: dropped vertex not detected ({report})"
            );
        }
        // Corruption 2: duplicate an MQC as a strict subset of itself plus
        // noise is impossible; instead report a truncated copy alongside the
        // original — the containment check must fire.
        if result.mqcs[0].len() > theta {
            let mut with_subset = result.mqcs.clone();
            let mut sub = with_subset[0].clone();
            sub.pop();
            with_subset.push(sub);
            let report = verify_mqc_set(&g, &with_subset, params);
            assert!(
                report.violations.iter().any(|v| matches!(
                    v,
                    Violation::ContainedInAnother { .. }
                        | Violation::NotAQuasiClique { .. }
                        | Violation::TooSmall { .. }
                )),
                "{label}: planted containment not detected"
            );
        }
    }
}

#[test]
fn degree_qcs_are_edge_qcs_but_not_vice_versa() {
    // Soundness direction: every degree-based γ-QC satisfies the edge-based
    // bound at the same γ (sum the per-vertex degree bound over all vertices).
    let g = Graph::paper_figure1();
    for gamma in [0.5, 0.6, 0.7, 0.9] {
        let result = enumerate_mqcs_default(&g, gamma, 2).unwrap();
        for qc in &result.qcs {
            assert!(
                edge_qc::is_edge_quasi_clique(&g, qc, gamma),
                "degree-QC {qc:?} is not an edge-QC at gamma={gamma}"
            );
        }
    }
    // Converse fails: a star of 3 vertices has 2/3 of the possible edges but
    // the leaves have relative degree 1/2 < 0.6.
    let star = Graph::star(3);
    let set = vec![0u32, 1, 2];
    assert!(edge_qc::is_edge_quasi_clique(&star, &set, 0.6));
    assert!(!is_quasi_clique(&star, &set, 0.6));
}

#[test]
fn formats_roundtrip_preserves_enumeration_results() {
    let g = generators::planted_quasi_cliques(
        50,
        0.04,
        &[generators::PlantedGroup {
            size: 8,
            density: 1.0,
        }],
        29,
    );
    let reference = enumerate_mqcs_default(&g, 0.9, 5).unwrap().mqcs;

    // DIMACS roundtrip.
    let mut dimacs = Vec::new();
    formats::write_dimacs(&g, &mut dimacs).unwrap();
    let g_dimacs = formats::read_dimacs(dimacs.as_slice()).unwrap();
    assert_eq!(
        enumerate_mqcs_default(&g_dimacs, 0.9, 5).unwrap().mqcs,
        reference
    );

    // METIS roundtrip.
    let mut metis = Vec::new();
    formats::write_metis(&g, &mut metis).unwrap();
    let g_metis = formats::read_metis(metis.as_slice()).unwrap();
    assert_eq!(
        enumerate_mqcs_default(&g_metis, 0.9, 5).unwrap().mqcs,
        reference
    );

    // Statistics survive the roundtrips too.
    assert_eq!(GraphStats::compute(&g), GraphStats::compute(&g_dimacs));
    assert_eq!(GraphStats::compute(&g), GraphStats::compute(&g_metis));
}

#[test]
fn ordering_choice_does_not_change_results_only_costs() {
    // The DC framework is exact for any division ordering; the library uses
    // the degeneracy ordering for its complexity bound. Here we confirm the
    // orderings produce permutations with the documented forward-degree
    // relationship on a realistic graph.
    let g = generators::chung_lu_power_law(300, 6.0, 2.5, 41);
    let degeneracy = mqce::graph::core_decomp::degeneracy(&g);
    let deg_order = VertexOrdering::Degeneracy.compute(&g);
    assert_eq!(
        mqce::graph::ordering::max_forward_degree(&g, &deg_order),
        degeneracy
    );
    for ordering in [
        VertexOrdering::Input,
        VertexOrdering::DegreeDescending,
        VertexOrdering::Random(3),
    ] {
        let order = ordering.compute(&g);
        assert!(mqce::graph::ordering::max_forward_degree(&g, &order) >= degeneracy);
    }
}

#[test]
fn clustering_statistics_behave_on_generator_families() {
    // Small-world graphs have much higher clustering than ER graphs with the
    // same number of edges — the qualitative property the dataset suite relies
    // on when standing in for collaboration networks.
    let ws = generators::watts_strogatz(400, 8, 0.05, 5);
    let er = generators::erdos_renyi_gnm(400, ws.num_edges(), 5);
    let c_ws = stats::global_clustering_coefficient(&ws);
    let c_er = stats::global_clustering_coefficient(&er);
    assert!(
        c_ws > 3.0 * c_er,
        "expected small-world clustering ({c_ws:.3}) >> ER clustering ({c_er:.3})"
    );
    // Preferential attachment produces hubs; the grid does not.
    let ba = generators::barabasi_albert(400, 3, 7);
    assert!(ba.max_degree() > 20);
    assert_eq!(generators::grid(20, 20).max_degree(), 4);
}
