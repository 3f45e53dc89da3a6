//! Quickstart: enumerate maximal quasi-cliques of a small graph.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mqce::prelude::*;

fn main() {
    // The running-example graph of the paper (Figure 1): a dense region on
    // vertices {0..4} and a second dense region on {1, 5..8}.
    let g = mqce::graph::Graph::paper_figure1();
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Enumerate all maximal 0.6-quasi-cliques with at least 4 vertices using
    // the default configuration (DCFastQC + Sym-SE branching).
    let gamma = 0.6;
    let theta = 4;
    let result = enumerate_mqcs_default(&g, gamma, theta).expect("valid parameters");

    println!(
        "found {} maximal {:.1}-quasi-cliques with >= {} vertices:",
        result.mqcs.len(),
        gamma,
        theta
    );
    for (i, mqc) in result.mqcs.iter().enumerate() {
        // Report 1-based vertex names to match the paper's figure.
        let names: Vec<String> = mqc.iter().map(|v| format!("v{}", v + 1)).collect();
        println!(
            "  MQC #{:<2} ({} vertices): {}",
            i + 1,
            mqc.len(),
            names.join(", ")
        );
        assert!(is_quasi_clique(&g, mqc, gamma));
    }

    println!("\nsearch statistics: {}", result.stats);
    println!(
        "S1 (branch-and-bound) took {:?}, S2 (maximality filtering) took {:?}",
        result.s1_time, result.s2_time
    );

    // The same call with a different algorithm, for comparison.
    let quick = Session::open(g.clone())
        .config(
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::QuickPlus),
        )
        .run();
    assert_eq!(quick.mqcs, result.mqcs);
    println!(
        "\nQuick+ baseline agrees, but emitted {} candidate QCs vs {} for DCFastQC",
        quick.qcs, result.qcs
    );
}
