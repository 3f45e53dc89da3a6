//! Regression fixtures: hand-verified maximal quasi-clique sets for small
//! graphs, checked against every algorithm configuration.
//!
//! Unlike the differential tests (which compare the algorithms against the
//! in-repo oracle), these fixtures pin the *expected answers themselves*, so a
//! bug that slipped into both the oracle and the searchers would still be
//! caught. The expected sets were computed independently (by hand /
//! brute-force outside the library) from Definition 1 and Definition 2 of the
//! paper.

use mqce::prelude::*;

/// The full pipeline through the `Session` builder.
fn enumerate(g: &Graph, config: &MqceConfig) -> MqceResult {
    Session::open(g.clone()).config(*config).run()
}

type Fixture = (&'static str, f64, usize, &'static [&'static [u32]]);

fn run_all_algorithms(g: &Graph, gamma: f64, theta: usize) -> Vec<(Algorithm, Vec<Vec<u32>>)> {
    [
        Algorithm::DcFastQc,
        Algorithm::FastQc,
        Algorithm::BasicDcFastQc,
        Algorithm::QuickPlus,
        Algorithm::QuickPlusRaw,
        Algorithm::Naive,
    ]
    .into_iter()
    .map(|algo| {
        let config = MqceConfig::new(gamma, theta).unwrap().with_algorithm(algo);
        (algo, enumerate(g, &config).mqcs)
    })
    .collect()
}

fn expected_sets(expected: &[&[u32]]) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = expected.iter().map(|s| s.to_vec()).collect();
    sets.sort();
    sets
}

fn check_fixtures(g: &Graph, fixtures: &[Fixture]) {
    for &(label, gamma, theta, expected) in fixtures {
        let expected = expected_sets(expected);
        for (algo, got) in run_all_algorithms(g, gamma, theta) {
            assert_eq!(
                got, expected,
                "{label}: algorithm {algo:?} at gamma={gamma}, theta={theta}"
            );
        }
        // The branching ablations must also reproduce the fixture.
        for branching in [
            BranchingStrategy::HybridSe,
            BranchingStrategy::SymSe,
            BranchingStrategy::Se,
        ] {
            let config = MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc)
                .with_branching(branching);
            assert_eq!(
                enumerate(g, &config).mqcs,
                expected,
                "{label}: branching {branching:?} at gamma={gamma}, theta={theta}"
            );
        }
    }
}

#[test]
fn paper_figure1_fixtures() {
    let g = Graph::paper_figure1();
    let fixtures: &[Fixture] = &[
        (
            "fig1 γ=0.5 θ=3",
            0.5,
            3,
            &[
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 3, 5],
                &[0, 1, 2, 4, 5, 6, 7],
                &[0, 1, 2, 4, 6, 7, 8],
                &[1, 2, 3, 4, 5, 6, 7],
                &[1, 2, 3, 4, 6, 7, 8],
                &[1, 2, 5, 6, 8],
                &[1, 2, 5, 7, 8],
                &[1, 5, 6, 7, 8],
            ],
        ),
        (
            "fig1 γ=0.6 θ=3",
            0.6,
            3,
            &[
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 5],
                &[1, 2, 3, 5],
                &[1, 2, 4, 5],
                &[1, 2, 5, 6],
                &[1, 2, 5, 7],
                &[1, 5, 6, 7, 8],
            ],
        ),
        (
            "fig1 γ=0.6 θ=4",
            0.6,
            4,
            &[
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 5],
                &[1, 2, 3, 5],
                &[1, 2, 4, 5],
                &[1, 2, 5, 6],
                &[1, 2, 5, 7],
                &[1, 5, 6, 7, 8],
            ],
        ),
        (
            "fig1 γ=0.7 θ=3",
            0.7,
            3,
            &[&[0, 1, 2, 3, 4], &[1, 2, 5], &[1, 5, 6, 7, 8]],
        ),
        (
            "fig1 γ=0.9 θ=3",
            0.9,
            3,
            &[
                &[0, 1, 2, 4],
                &[1, 2, 3, 4],
                &[1, 2, 5],
                &[1, 5, 6, 7],
                &[1, 6, 7, 8],
            ],
        ),
        (
            "fig1 γ=1.0 θ=2 (maximal cliques)",
            1.0,
            2,
            &[
                &[0, 1, 2, 4],
                &[1, 2, 3, 4],
                &[1, 2, 5],
                &[1, 5, 6, 7],
                &[1, 6, 7, 8],
            ],
        ),
    ];
    check_fixtures(&g, fixtures);
}

#[test]
fn two_cliques_sharing_a_vertex() {
    // Two 4-cliques {0,1,2,3} and {0,4,5,6} glued at vertex 0.
    let g = Graph::from_edges(
        7,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (0, 4),
            (0, 5),
            (0, 6),
            (4, 5),
            (4, 6),
            (5, 6),
        ],
    );
    let fixtures: &[Fixture] = &[
        ("shared γ=0.9 θ=3", 0.9, 3, &[&[0, 1, 2, 3], &[0, 4, 5, 6]]),
        ("shared γ=0.6 θ=3", 0.6, 3, &[&[0, 1, 2, 3], &[0, 4, 5, 6]]),
        // At γ=0.5 the whole graph qualifies (every vertex sees ≥ 3 of the 6
        // others), and it absorbs both cliques.
        ("shared γ=0.5 θ=4", 0.5, 4, &[&[0, 1, 2, 3, 4, 5, 6]]),
    ];
    check_fixtures(&g, fixtures);
}

#[test]
fn cycle_fixtures() {
    // In a 6-cycle, the 0.5-MQCs are exactly the six consecutive triples.
    let g = Graph::cycle(6);
    let fixtures: &[Fixture] = &[
        (
            "cycle6 γ=0.5 θ=3",
            0.5,
            3,
            &[
                &[0, 1, 2],
                &[0, 1, 5],
                &[0, 4, 5],
                &[1, 2, 3],
                &[2, 3, 4],
                &[3, 4, 5],
            ],
        ),
        (
            "cycle6 γ=0.5 θ=2",
            0.5,
            2,
            &[
                &[0, 1, 2],
                &[0, 1, 5],
                &[0, 4, 5],
                &[1, 2, 3],
                &[2, 3, 4],
                &[3, 4, 5],
            ],
        ),
        // With γ=0.9 a triple would need to be a triangle; the cycle has none,
        // so only the edges remain (and θ=3 rules even those out).
        ("cycle6 γ=0.9 θ=3", 0.9, 3, &[]),
    ];
    check_fixtures(&g, fixtures);
}

#[test]
fn complete_and_star_fixtures() {
    let complete = Graph::complete(6);
    check_fixtures(
        &complete,
        &[
            ("K6 γ=0.9 θ=3", 0.9, 3, &[&[0, 1, 2, 3, 4, 5]]),
            ("K6 γ=0.5 θ=2", 0.5, 2, &[&[0, 1, 2, 3, 4, 5]]),
            ("K6 γ=0.9 θ=7 (too large)", 0.9, 7, &[]),
        ],
    );

    // A star has no 0.9-QC of size ≥ 3 (leaves have relative degree 1/(k−1)),
    // but the whole star is a 0.5-QC for small sizes: with 4 leaves the hub
    // sees 4/4 and each leaf 1/4 < 0.5, so only triples {hub, leaf, leaf}
    // would need each leaf to see ⌈0.5·2⌉ = 1 — satisfied. The triples are
    // absorbed by no larger set, so they are the 0.5-MQCs.
    let star = Graph::star(5);
    check_fixtures(
        &star,
        &[
            ("star5 γ=0.9 θ=3", 0.9, 3, &[]),
            (
                "star5 γ=0.5 θ=3",
                0.5,
                3,
                &[
                    &[0, 1, 2],
                    &[0, 1, 3],
                    &[0, 1, 4],
                    &[0, 2, 3],
                    &[0, 2, 4],
                    &[0, 3, 4],
                ],
            ),
        ],
    );
}

#[test]
fn disconnected_components_are_enumerated_independently() {
    // Two disjoint triangles plus an isolated vertex.
    let g = Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    check_fixtures(
        &g,
        &[
            ("two triangles γ=0.9 θ=3", 0.9, 3, &[&[0, 1, 2], &[3, 4, 5]]),
            ("two triangles γ=0.5 θ=4", 0.5, 4, &[]),
        ],
    );
}

#[test]
fn property1_non_hereditary_example() {
    // The paper's Property 1 example: {v1,v3,v4,v5} is a 0.6-QC while its
    // subset {v1,v3,v4} is not (0-based: {0,2,3,4} vs {0,2,3}).
    let g = Graph::paper_figure1();
    assert!(mqce::core::quasiclique::is_quasi_clique(
        &g,
        &[0, 2, 3, 4],
        0.6
    ));
    assert!(!mqce::core::quasiclique::is_quasi_clique(
        &g,
        &[0, 2, 3],
        0.6
    ));
}

#[test]
fn fixture_results_pass_independent_verification() {
    let g = Graph::paper_figure1();
    for (gamma, theta) in [(0.5, 3usize), (0.6, 3), (0.7, 3), (0.9, 3)] {
        let result = enumerate_mqcs_default(&g, gamma, theta).unwrap();
        let params = MqceParams::new(gamma, theta).unwrap();
        let report = mqce::core::verify::verify_exact_against_oracle(&g, &result.mqcs, params);
        assert!(report.is_ok(), "gamma={gamma} theta={theta}: {report}");
    }
}
