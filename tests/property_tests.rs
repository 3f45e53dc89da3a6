//! Property-based tests (proptest) over the core invariants of the workspace.

use mqce::core::naive;
use mqce::core::quasiclique::{max_disconnections, required_degree, tau};
use mqce::graph::core_decomp::core_decomposition;
use mqce::graph::subgraph::{two_hop_neighborhood, InducedSubgraph};
use mqce::prelude::*;
use mqce::settrie::filter_maximal_naive;
use proptest::prelude::*;

/// The full pipeline through the `Session` builder.
fn enumerate(g: &Graph, config: &MqceConfig) -> MqceResult {
    Session::open(g.clone()).config(*config).run()
}

/// Strategy: a random graph with 2..=10 vertices given as an edge mask.
fn small_graph() -> impl Strategy<Value = Graph> {
    (2usize..=10, any::<u64>()).prop_map(|(n, mask)| {
        let mut edges = Vec::new();
        let mut bit = 0;
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if mask & (1u64 << (bit % 64)) != 0 {
                    edges.push((u, v));
                }
                bit += 1;
            }
        }
        Graph::from_edges(n, &edges)
    })
}

/// Strategy: medium random graph (up to 40 vertices), too big for the oracle
/// but fine for cross-algorithm agreement.
fn medium_graph() -> impl Strategy<Value = Graph> {
    (10usize..=32, any::<u64>(), 0.08f64..0.35)
        .prop_map(|(n, seed, p)| mqce::graph::generators::erdos_renyi_gnp(n, p, seed))
}

fn gamma_values() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.5),
        Just(0.51),
        Just(0.6),
        Just(0.7),
        Just(0.75),
        Just(0.8),
        Just(0.9),
        Just(0.96),
        Just(1.0)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// τ and the degree requirement are two views of the same threshold:
    /// |H| − ⌈γ(|H|−1)⌉ = ⌊(1−γ)|H| + γ⌋.
    #[test]
    fn tau_and_required_degree_are_consistent(gamma in gamma_values(), size in 1usize..200) {
        prop_assert_eq!(
            size as i64 - required_degree(gamma, size) as i64,
            tau(gamma, size as f64)
        );
    }

    /// Lemma 1: G[H] (non-empty, connected assumed via γ ≥ 0.5 degrees) is a
    /// QC iff Δ(H) ≤ τ(|H|).
    #[test]
    fn lemma1_qc_iff_delta_below_tau(g in small_graph(), gamma in gamma_values()) {
        let all: Vec<u32> = g.vertices().collect();
        for size in 1..=all.len().min(6) {
            // Check a few prefixes instead of all subsets to keep it cheap.
            let h = &all[..size];
            let degree_ok = max_disconnections(&g, h) as i64 <= tau(gamma, h.len() as f64);
            let connected = mqce::graph::connectivity::is_connected_subset_in(
                &g, h, &mut Vec::new(), &mut Vec::new(), &mut std::collections::VecDeque::new());
            prop_assert_eq!(is_quasi_clique(&g, h, gamma), degree_ok && connected);
        }
    }

    /// The full pipeline (DCFastQC + set-trie) equals the exhaustive oracle.
    #[test]
    fn pipeline_matches_oracle(g in small_graph(), gamma in gamma_values(), theta in 2usize..4) {
        let expected = naive::all_maximal_quasi_cliques(
            &g, MqceParams::new(gamma, theta).unwrap());
        let result = enumerate_mqcs_default(&g, gamma, theta).unwrap();
        prop_assert_eq!(result.mqcs, expected);
    }

    /// Every S1 output is a quasi-clique containing at least θ vertices, for
    /// every algorithm.
    #[test]
    fn s1_outputs_are_quasi_cliques(g in small_graph(), gamma in gamma_values(), theta in 1usize..4) {
        for algo in [Algorithm::DcFastQc, Algorithm::FastQc, Algorithm::QuickPlus, Algorithm::QuickPlusRaw] {
            let config = MqceConfig::new(gamma, theta).unwrap().with_algorithm(algo);
            let outcome = mqce::core::solve_s1(&g, &config);
            prop_assert_eq!(outcome.stats.outputs_rejected, 0);
            for h in &outcome.outputs {
                prop_assert!(h.len() >= theta);
                prop_assert!(is_quasi_clique(&g, h, gamma));
            }
        }
    }

    /// FastQC and Quick+ agree on medium graphs (no oracle available).
    #[test]
    fn algorithms_agree_on_medium_graphs(g in medium_graph(), theta in 4usize..6) {
        let gamma = 0.85;
        let a = enumerate(&g, &MqceConfig::new(gamma, theta).unwrap()
            .with_algorithm(Algorithm::DcFastQc));
        let b = enumerate(&g, &MqceConfig::new(gamma, theta).unwrap()
            .with_algorithm(Algorithm::QuickPlus));
        prop_assert_eq!(&a.mqcs, &b.mqcs);
        let c = enumerate(&g, &MqceConfig::new(gamma, theta).unwrap()
            .with_algorithm(Algorithm::FastQc)
            .with_branching(BranchingStrategy::SymSe));
        prop_assert_eq!(&a.mqcs, &c.mqcs);
    }

    /// Every MQC lies inside the ⌈γ(θ−1)⌉-core of the graph (the justification
    /// for line 1 of Algorithm 3).
    #[test]
    fn mqcs_live_in_the_core(g in small_graph(), gamma in gamma_values(), theta in 2usize..4) {
        let k = required_degree(gamma, theta);
        let core = mqce::graph::core_decomp::k_core_vertices(&g, k);
        let result = enumerate_mqcs_default(&g, gamma, theta).unwrap();
        for mqc in &result.mqcs {
            for v in mqc {
                prop_assert!(core.contains(v), "vertex {} of MQC {:?} outside the {}-core", v, mqc, k);
            }
        }
    }

    /// For γ ≥ 0.5 every quasi-clique has diameter ≤ 2 (Property 2): all of
    /// its vertices are inside the closed 2-hop ball of any member.
    #[test]
    fn qcs_have_diameter_two(g in small_graph(), gamma in gamma_values()) {
        let qcs = naive::all_quasi_cliques(&g, MqceParams::new(gamma, 2).unwrap());
        for qc in qcs.iter().take(50) {
            let ball = two_hop_neighborhood(&g, qc[0]);
            for v in qc {
                prop_assert!(ball.contains(v));
            }
        }
    }

    /// The set-trie maximality filter agrees with the quadratic reference on
    /// arbitrary set families.
    #[test]
    fn settrie_filter_matches_naive(sets in proptest::collection::vec(
        proptest::collection::vec(0u32..15, 0..6), 0..25)) {
        prop_assert_eq!(filter_maximal(&sets), filter_maximal_naive(&sets));
    }

    /// The S2 pass agrees with the quadratic reference on arbitrary set
    /// families.
    #[test]
    fn s2_pass_matches_naive(sets in proptest::collection::vec(
        proptest::collection::vec(0u32..15, 0..6), 0..25)) {
        let out = mqce::settrie::compact_parallel(&sets, 2, None);
        prop_assert_eq!(out.mqcs, filter_maximal_naive(&sets));
    }

    /// Core decomposition invariant: every vertex of the k-core has at least k
    /// neighbours inside the k-core, and the degeneracy ordering is a
    /// permutation.
    #[test]
    fn core_decomposition_invariants(g in medium_graph()) {
        let decomp = core_decomposition(&g);
        prop_assert_eq!(decomp.ordering.len(), g.num_vertices());
        let mut sorted = decomp.ordering.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.num_vertices() as u32).collect::<Vec<_>>());
        let degeneracy = decomp.degeneracy;
        for k in 0..=degeneracy {
            let core = mqce::graph::core_decomp::k_core_vertices(&g, k);
            for &v in &core {
                let inside = g.neighbors(v).iter().filter(|u| core.contains(u)).count();
                prop_assert!(inside >= k);
            }
        }
    }

    /// Induced subgraphs preserve adjacency exactly.
    #[test]
    fn induced_subgraph_preserves_adjacency(g in medium_graph(), pick in any::<u64>()) {
        let vertices: Vec<u32> = g.vertices().filter(|&v| pick & (1 << (v % 64)) != 0).collect();
        let sub = InducedSubgraph::new(&g, &vertices);
        for (i, &gu) in sub.to_global.iter().enumerate() {
            for (j, &gv) in sub.to_global.iter().enumerate() {
                prop_assert_eq!(
                    sub.graph.has_edge(i as u32, j as u32),
                    g.has_edge(gu, gv)
                );
            }
        }
    }

    /// DIMACS and METIS serialisation round-trips reproduce the same graph
    /// (vertex count, edge set) on arbitrary medium graphs.
    #[test]
    fn format_roundtrips_are_lossless(g in medium_graph()) {
        let mut dimacs = Vec::new();
        mqce::graph::formats::write_dimacs(&g, &mut dimacs).unwrap();
        let gd = mqce::graph::formats::read_dimacs(dimacs.as_slice()).unwrap();
        prop_assert_eq!(gd.num_vertices(), g.num_vertices());
        prop_assert_eq!(&gd, &g);

        let mut metis = Vec::new();
        mqce::graph::formats::write_metis(&g, &mut metis).unwrap();
        let gm = mqce::graph::formats::read_metis(metis.as_slice()).unwrap();
        prop_assert_eq!(&gm, &g);
    }

    /// Query-driven search equals post-filtering the full enumeration, for
    /// every possible single-vertex query.
    #[test]
    fn query_search_equals_filtered_enumeration(g in small_graph(), gamma in gamma_values(), theta in 2usize..4) {
        let full = enumerate_mqcs_default(&g, gamma, theta).unwrap().mqcs;
        for q in g.vertices() {
            let expected: Vec<Vec<u32>> = full.iter().filter(|m| m.contains(&q)).cloned().collect();
            let config = MqceConfig::new(gamma, theta).unwrap();
            let got = find_mqcs_containing(&g, &[q], &config).unwrap().mqcs;
            prop_assert_eq!(got, expected, "query {}", q);
        }
    }

    /// Top-k mining returns exactly the k largest MQCs of the full enumeration.
    #[test]
    fn topk_matches_sorted_enumeration(g in small_graph(), gamma in gamma_values(), k in 1usize..4) {
        let mut by_size = enumerate_mqcs_default(&g, gamma, 2).unwrap().mqcs;
        by_size.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        by_size.truncate(k);
        let top = find_largest_mqcs(&PreparedGraph::new(g), gamma, k, None).unwrap();
        prop_assert_eq!(top.mqcs, by_size);
    }

    /// The independent verifier accepts every pipeline result.
    #[test]
    fn verifier_accepts_pipeline_results(g in medium_graph(), theta in 3usize..5) {
        let gamma = 0.8;
        let params = MqceParams::new(gamma, theta).unwrap();
        let result = enumerate_mqcs_default(&g, gamma, theta).unwrap();
        let report = verify_mqc_set(&g, &result.mqcs, params);
        prop_assert!(report.is_ok(), "{}", report);
        let config = MqceConfig::new(gamma, theta).unwrap();
        let s1 = verify_s1_output(&g, &mqce::core::solve_s1(&g, &config).outputs, params);
        prop_assert!(s1.is_ok(), "{}", s1);
    }

    /// The degeneracy ordering is a permutation, and its maximum forward
    /// degree (neighbours ranked later) equals the degeneracy.
    #[test]
    fn ordering_invariants(g in medium_graph()) {
        let order = core_decomposition(&g).ordering;
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.num_vertices() as u32).collect::<Vec<_>>());
        let mut rank = vec![0usize; order.len()];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i;
        }
        let max_forward = g
            .vertices()
            .map(|v| g.neighbors(v).iter().filter(|&&u| rank[u as usize] > rank[v as usize]).count())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(max_forward, mqce::graph::core_decomp::degeneracy(&g));
    }

    /// Inserting a batch and then deleting the same edges restores the
    /// original graph byte-identically: same fingerprint, same CSR, same
    /// degeneracy ordering — and an incremental session driven through the
    /// round trip returns to exactly its original maximal family.
    #[test]
    fn insert_then_delete_is_identity(g in medium_graph(), seed in any::<u64>()) {
        use mqce::graph::GraphDelta;
        let n = g.num_vertices() as u32;
        // Derive a deterministic batch of candidate edges from the seed.
        let mut edges = Vec::new();
        let mut x = seed | 1;
        for _ in 0..8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) as u32) % n;
            let v = ((x >> 13) as u32) % n;
            if u != v && !g.has_edge(u, v) {
                edges.push((u, v));
            }
        }
        let delta = GraphDelta::new(edges, Vec::new());
        let inverse = delta.inverse();
        let restored = inverse.apply(&delta.apply(&g));
        prop_assert_eq!(restored.fingerprint(), g.fingerprint());
        prop_assert_eq!(&restored, &g);
        let before = core_decomposition(&g);
        let after = core_decomposition(&restored);
        prop_assert_eq!(before.ordering, after.ordering);
        prop_assert_eq!(before.core_numbers, after.core_numbers);

        // Drive an incremental session through the round trip: insert batch,
        // delete the same edges, end up with the original family.
        let config = MqceConfig::new(0.8, 3).unwrap();
        let mut session = mqce::core::IncrementalSession::new(g.clone(), config, 1);
        let baseline = session.family().to_vec();
        session.update(&delta);
        session.update(&inverse);
        prop_assert_eq!(session.prepared().fingerprint(), g.fingerprint());
        prop_assert_eq!(session.family(), &baseline[..]);
    }

    /// Graph statistics stay in their mathematical ranges.
    #[test]
    fn statistics_ranges(g in medium_graph()) {
        use mqce::graph::stats::*;
        let c = global_clustering_coefficient(&g);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
        // 3·triangles never exceeds the number of wedges (each triangle is a
        // closed wedge at each of its three vertices).
        let wedges: usize = g.vertices().map(|v| { let d = g.degree(v); d * d.saturating_sub(1) / 2 }).sum();
        prop_assert!(3 * triangle_count(&g) <= wedges.max(1));
    }
}
