//! Compare the algorithms and branching strategies on one workload.
//!
//! A miniature version of the paper's Figures 7/11/12: run Quick+, FastQC and
//! DCFastQC (with every branching strategy) on the same graph and report
//! running time, branch counts and output sizes.
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```

use std::time::Instant;

use mqce::graph::generators::{community_graph, CommunityGraphParams};
use mqce::graph::GraphStats;
use mqce::prelude::*;

fn main() {
    // Communities of ~12 vertices keep the workload feasible for *every*
    // configuration, including the Quick+ baseline — on larger dense
    // communities Quick+ is the paper's INF column and never returns.
    let g = community_graph(
        CommunityGraphParams {
            n: 120,
            num_communities: 10,
            p_intra: 0.9,
            inter_degree: 2.0,
        },
        42,
    );
    let gamma = 0.85;
    let theta = 6;
    println!("workload: {}", GraphStats::compute(&g));
    println!("parameters: gamma={gamma} theta={theta}\n");

    let configurations: Vec<(&str, MqceConfig)> = vec![
        (
            "Quick+ (baseline)",
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::QuickPlus),
        ),
        (
            "FastQC (no DC)",
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::FastQc),
        ),
        (
            "BDCFastQC (basic DC)",
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::BasicDcFastQc),
        ),
        (
            "DCFastQC + SE",
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc)
                .with_branching(BranchingStrategy::Se),
        ),
        (
            "DCFastQC + Sym-SE",
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc)
                .with_branching(BranchingStrategy::SymSe),
        ),
        (
            "DCFastQC + Hybrid-SE",
            MqceConfig::new(gamma, theta)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc)
                .with_branching(BranchingStrategy::HybridSe),
        ),
    ];

    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>8}",
        "configuration", "time (ms)", "branches", "S1 output", "MQCs"
    );
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for (name, config) in configurations {
        let start = Instant::now();
        let result = Session::open(g.clone()).config(config).run();
        let elapsed = start.elapsed();
        println!(
            "{:<22} {:>10.1} {:>12} {:>10} {:>8}",
            name,
            elapsed.as_secs_f64() * 1e3,
            result.stats.branches,
            result.qcs,
            result.mqcs.len()
        );
        match &reference {
            None => reference = Some(result.mqcs.clone()),
            Some(expected) => assert_eq!(
                &result.mqcs, expected,
                "all configurations must produce the same maximal quasi-cliques"
            ),
        }
    }
    println!("\nall configurations agree on the set of maximal quasi-cliques.");
}
