//! Top-k mining and query-driven search.
//!
//! Scenario: an analyst has a large collaboration network and wants (a) the
//! handful of *largest* tightly-knit groups overall, and (b) the groups a
//! specific person belongs to — without enumerating every maximal
//! quasi-clique in the graph.
//!
//! Run with: `cargo run --release --example topk_and_query`

use mqce::graph::generators::{community_graph, CommunityGraphParams};
use mqce::prelude::*;

fn main() {
    // A synthetic collaboration network: 400 researchers in 25 groups with a
    // sprinkling of cross-group collaborations.
    let g = community_graph(
        CommunityGraphParams {
            n: 400,
            num_communities: 25,
            p_intra: 0.85,
            inter_degree: 1.5,
        },
        2024,
    );
    let gamma = 0.8;
    println!("graph: {}", GraphStats::compute(&g));

    // (a) The five largest maximal 0.8-quasi-cliques, found exactly.
    let prepared = PreparedGraph::new(g.clone());
    let top = find_largest_mqcs(&prepared, gamma, 5, None).expect("valid parameters");
    println!("\ntop-5 largest maximal {gamma}-quasi-cliques (exact):");
    for (rank, mqc) in top.mqcs.iter().enumerate() {
        println!(
            "  #{:<2} size {:<3} members {:?}",
            rank + 1,
            mqc.len(),
            &mqc[..mqc.len().min(12)]
        );
    }
    println!(
        "  (threshold search finished at theta = {} after {} rounds)",
        top.final_theta, top.rounds
    );

    // (b) Which dense groups does researcher 17 belong to? The query-driven
    // search restricts the work to the 2-hop neighbourhood of the query.
    let person = 17u32;
    let result = find_mqcs_containing(
        &g,
        &[person],
        &MqceConfig::new(gamma, 5).expect("valid parameters"),
    )
    .expect("query vertex exists");
    println!(
        "\nmaximal {gamma}-quasi-cliques of size >= 5 containing vertex {person} \
         (search universe: {} of {} vertices):",
        result.universe_size,
        g.num_vertices()
    );
    for mqc in &result.mqcs {
        println!("  size {:<3} members {:?}", mqc.len(), mqc);
    }
    if result.mqcs.is_empty() {
        println!("  (vertex {person} is not part of any group that dense)");
    }
}
