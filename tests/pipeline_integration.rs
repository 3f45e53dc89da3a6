//! Integration tests spanning the whole workspace through the `mqce` facade:
//! graph generation → MQCE-S1 enumeration → set-trie filtering.

use mqce::core::naive;
use mqce::graph::generators::{
    community_graph, erdos_renyi_gnm, planted_quasi_cliques, CommunityGraphParams, PlantedGroup,
};
use mqce::prelude::*;

/// The full pipeline through the `Session` builder.
fn enumerate(g: &Graph, config: &MqceConfig) -> MqceResult {
    Session::open(g.clone()).config(*config).run()
}

/// Every algorithm must agree with the exhaustive oracle on random small
/// graphs across the parameter grid.
#[test]
fn all_algorithms_match_oracle_on_random_graphs() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(123456);
    let algorithms = [
        Algorithm::DcFastQc,
        Algorithm::FastQc,
        Algorithm::BasicDcFastQc,
        Algorithm::QuickPlus,
        Algorithm::QuickPlusRaw,
    ];
    for case in 0..20 {
        let n = rng.gen_range(6..13);
        let p = rng.gen_range(0.25..0.85);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges);
        let gamma = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0][case % 6];
        let theta = 2 + case % 3;
        let expected = naive::all_maximal_quasi_cliques(&g, MqceParams::new(gamma, theta).unwrap());
        for algo in algorithms {
            let result = enumerate(
                &g,
                &MqceConfig::new(gamma, theta).unwrap().with_algorithm(algo),
            );
            assert_eq!(
                result.mqcs, expected,
                "{algo:?} differs from the oracle (case {case}, gamma={gamma}, theta={theta}, n={n})"
            );
        }
    }
}

/// The fast and baseline algorithms must agree with each other on graphs that
/// are too large for the oracle.
#[test]
fn algorithms_agree_on_medium_graphs() {
    // Workload sizes are chosen so that even Quick+ (the intentionally weak
    // baseline — the paper reports it as INF on large dense datasets)
    // finishes in well under a second: cross-algorithm *agreement* is what
    // this test checks, not relative speed.
    let graphs = vec![
        (
            "community",
            community_graph(
                CommunityGraphParams {
                    n: 80,
                    num_communities: 8,
                    p_intra: 0.85,
                    inter_degree: 1.5,
                },
                9,
            ),
            0.8,
            5,
        ),
        ("er-sparse", erdos_renyi_gnm(200, 1200, 17), 0.8, 4),
        (
            "planted",
            planted_quasi_cliques(
                120,
                0.03,
                &[
                    PlantedGroup {
                        size: 12,
                        density: 0.92,
                    },
                    PlantedGroup {
                        size: 9,
                        density: 0.95,
                    },
                ],
                33,
            ),
            0.85,
            6,
        ),
    ];
    for (name, g, gamma, theta) in graphs {
        let reference = enumerate(
            &g,
            &MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc),
        );
        assert!(!reference.mqcs.is_empty() || name == "er-sparse");
        for algo in [
            Algorithm::FastQc,
            Algorithm::BasicDcFastQc,
            Algorithm::QuickPlus,
        ] {
            let result = enumerate(
                &g,
                &MqceConfig::new(gamma, theta).unwrap().with_algorithm(algo),
            );
            assert_eq!(
                result.mqcs, reference.mqcs,
                "{algo:?} disagrees with DCFastQC on {name}"
            );
        }
    }
}

/// Every reported MQC must be a quasi-clique, be large enough, and admit no
/// single-vertex extension that is again a quasi-clique.
#[test]
fn outputs_are_sound_quasi_cliques() {
    let g = community_graph(
        CommunityGraphParams {
            n: 200,
            num_communities: 10,
            p_intra: 0.9,
            inter_degree: 2.0,
        },
        5,
    );
    let gamma = 0.85;
    let theta = 5;
    let result = enumerate_mqcs_default(&g, gamma, theta).unwrap();
    assert!(!result.mqcs.is_empty(), "expected some communities");
    for mqc in &result.mqcs {
        assert!(mqc.len() >= theta);
        assert!(is_quasi_clique(&g, mqc, gamma));
        // No single vertex can extend a maximal QC.
        for w in g.vertices() {
            if mqc.contains(&w) {
                continue;
            }
            let mut ext = mqc.clone();
            ext.push(w);
            assert!(
                !is_quasi_clique(&g, &ext, gamma),
                "MQC {mqc:?} extendable by {w}"
            );
        }
    }
    // No MQC may be a subset of another.
    for a in &result.mqcs {
        for b in &result.mqcs {
            if a != b {
                assert!(!a.iter().all(|v| b.contains(v)), "{a:?} ⊂ {b:?}");
            }
        }
    }
}

/// The S1 output of DCFastQC contains every maximal QC, and the set-trie
/// filter of the facade reduces it to exactly the maximal ones.
#[test]
fn s1_plus_settrie_equals_pipeline() {
    let g = planted_quasi_cliques(
        90,
        0.02,
        &[PlantedGroup {
            size: 10,
            density: 1.0,
        }],
        11,
    );
    let config = MqceConfig::new(0.9, 5).unwrap();
    let s1 = mqce::core::solve_s1(&g, &config);
    let filtered = filter_maximal(&s1.outputs);
    let pipeline = enumerate(&g, &config);
    assert_eq!(filtered, pipeline.mqcs);
    for mqc in &pipeline.mqcs {
        assert!(s1.outputs.contains(mqc), "S1 output must contain each MQC");
    }
}

/// Graph statistics, set-trie and solver compose for the Table-1 style report.
#[test]
fn table1_style_report_fields() {
    let g = community_graph(
        CommunityGraphParams {
            n: 100,
            num_communities: 6,
            p_intra: 0.9,
            inter_degree: 1.0,
        },
        3,
    );
    let stats = GraphStats::compute(&g);
    assert_eq!(stats.num_vertices, 100);
    assert!(stats.degeneracy >= 1);
    let result = enumerate_mqcs_default(&g, 0.85, 5).unwrap();
    if let Some((min, max, avg)) = result.mqc_size_stats() {
        assert!(min >= 5);
        assert!(max >= min);
        assert!(avg >= min as f64 && avg <= max as f64);
    }
    // #QCs reported by S1 is at least #MQCs.
    assert!(result.qcs >= result.mqcs.len());
}

/// Degenerate inputs are handled gracefully end to end.
#[test]
fn degenerate_inputs() {
    for algo in [Algorithm::DcFastQc, Algorithm::QuickPlus, Algorithm::FastQc] {
        let empty = Graph::empty(0);
        let r = enumerate(
            &empty,
            &MqceConfig::new(0.9, 2).unwrap().with_algorithm(algo),
        );
        assert!(r.mqcs.is_empty());

        let isolated = Graph::empty(5);
        let r = enumerate(
            &isolated,
            &MqceConfig::new(0.9, 1).unwrap().with_algorithm(algo),
        );
        // Each isolated vertex is a maximal QC of size 1.
        assert_eq!(r.mqcs.len(), 5);

        let single_edge = Graph::from_edges(2, &[(0, 1)]);
        let r = enumerate(
            &single_edge,
            &MqceConfig::new(1.0, 2).unwrap().with_algorithm(algo),
        );
        assert_eq!(r.mqcs, vec![vec![0, 1]]);
    }
}

/// Invalid parameters are rejected before any search happens.
#[test]
fn invalid_parameters_are_rejected() {
    assert!(MqceConfig::new(0.3, 2).is_err());
    assert!(MqceConfig::new(0.9, 0).is_err());
    assert!(enumerate_mqcs_default(&Graph::complete(3), 1.5, 2).is_err());
}
