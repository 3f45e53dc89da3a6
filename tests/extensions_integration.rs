//! Integration tests for the extension modules built on top of the core
//! enumeration: query-driven search, top-k mining, the result verifier and
//! the graph interchange formats.

use mqce::core::verify::{verify_mqc_set, Violation};
use mqce::graph::generators;
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
