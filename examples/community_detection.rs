//! Community detection on a synthetic social network.
//!
//! The paper motivates MQC enumeration with community search: members of a
//! real community interact with *most* (not necessarily all) other members,
//! which is exactly the γ-quasi-clique relaxation of a clique. This example
//! plants communities in a noisy social graph and shows that the enumerated
//! MQCs recover them.
//!
//! ```text
//! cargo run --release --example community_detection
//! ```

use mqce::graph::generators::{community_graph, CommunityGraphParams};
use mqce::graph::GraphStats;
use mqce::prelude::*;

fn main() {
    // A 400-vertex social network with 25 planted communities (~16 people
    // each): 85% of the possible intra-community ties exist, plus ~2 random
    // inter-community ties per person. (Communities much larger than this
    // contain combinatorially many overlapping quasi-cliques — enumerating
    // them all is possible but no longer a quick demo.)
    let params = CommunityGraphParams {
        n: 400,
        num_communities: 25,
        p_intra: 0.85,
        inter_degree: 2.0,
    };
    let g = community_graph(params, 20240614);
    println!("synthetic social network: {}", GraphStats::compute(&g));

    // Communities of at least 8 people where everyone knows at least 80% of
    // the other members.
    let gamma = 0.8;
    let theta = 8;
    let config = MqceConfig::new(gamma, theta)
        .unwrap()
        .with_algorithm(Algorithm::DcFastQc);
    let result = Session::open(g.clone()).config(config).run();

    println!(
        "\n{} maximal {:.0}%-quasi-cliques with >= {} members",
        result.mqcs.len(),
        gamma * 100.0,
        theta
    );
    if let Some((min, max, avg)) = result.mqc_size_stats() {
        println!("community sizes: min={min} max={max} avg={avg:.2}");
    }

    // Print the largest few communities.
    let mut by_size = result.mqcs.clone();
    by_size.sort_by_key(|c| std::cmp::Reverse(c.len()));
    for (i, community) in by_size.iter().take(5).enumerate() {
        println!(
            "  top-{} community ({} members): {:?}{}",
            i + 1,
            community.len(),
            &community[..community.len().min(12)],
            if community.len() > 12 { " …" } else { "" }
        );
    }

    println!("\nsearch statistics: {}", result.stats);
    println!(
        "S1 took {:?}, S2 took {:?}; {} candidate QCs were filtered to {} maximal ones",
        result.s1_time,
        result.s2_time,
        result.qcs,
        result.mqcs.len()
    );
}
