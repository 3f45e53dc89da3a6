//! Top-k largest maximal quasi-cliques.
//!
//! A common downstream use of MQC enumeration (and a related-work problem the
//! paper discusses, Sanei-Mehri et al. [34, 35]) is to report only the `k`
//! *largest* maximal γ-quasi-cliques. Rather than enumerating with a small
//! size threshold and sorting, this module starts from an upper bound on the
//! largest possible QC size and lowers the threshold geometrically until `k`
//! maximal QCs have been found — every probe reuses the full DCFastQC
//! machinery, so each round is cheap when the threshold is high.

use mqce_graph::VertexId;

use crate::config::{MqceConfig, ParamError};
use crate::pipeline::run_pipeline;
use crate::prepared::PreparedGraph;

/// Result of a top-k search.
#[derive(Clone, Debug, Default)]
pub struct TopKResult {
    /// The k largest maximal quasi-cliques found (largest first; ties broken
    /// lexicographically). May contain fewer than `k` entries if the graph has
    /// fewer maximal QCs of size ≥ 2.
    pub mqcs: Vec<Vec<VertexId>>,
    /// The size threshold the final enumeration ran with.
    pub final_theta: usize,
    /// Number of enumeration rounds performed.
    pub rounds: usize,
}

/// Upper bound on the size of any γ-quasi-clique for γ ≥ 0.5: `2ω + 1`, where
/// `ω` is the graph degeneracy (the bound the paper uses in Section 2.2).
pub fn max_qc_size_bound(prepared: &PreparedGraph) -> usize {
    2 * prepared.degeneracy() + 1
}

/// Finds the `k` largest maximal γ-quasi-cliques (of size ≥ 2).
///
/// `base` supplies the algorithm/branching/time-limit configuration; its
/// `theta` is ignored (the search manages the threshold itself). Every
/// round runs on the cached decomposition of `prepared`.
pub fn find_largest_mqcs(
    prepared: &PreparedGraph,
    gamma: f64,
    k: usize,
    base: Option<MqceConfig>,
) -> Result<TopKResult, ParamError> {
    // Validate gamma via the normal constructor.
    let template = match base {
        Some(cfg) => cfg,
        None => MqceConfig::new(gamma, 2)?,
    };
    let _ = MqceConfig::new(gamma, 2)?;
    if k == 0 || prepared.graph().num_vertices() == 0 {
        return Ok(TopKResult::default());
    }

    let mut theta = max_qc_size_bound(prepared).max(2);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let config = MqceConfig {
            params: crate::config::MqceParams::new(gamma, theta)?,
            ..template
        };
        let result = run_pipeline(prepared, &config, 1);
        let enough = result.mqcs.len() >= k;
        if enough || theta == 2 {
            let mut mqcs = result.mqcs;
            mqcs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
            mqcs.truncate(k);
            return Ok(TopKResult {
                mqcs,
                final_theta: theta,
                rounds,
            });
        }
        // Lower the threshold geometrically (but never below 2).
        theta = (theta / 2).max(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
    use mqce_graph::Graph;

    fn prep(g: &Graph) -> PreparedGraph {
        PreparedGraph::new(g.clone())
    }

    #[test]
    fn size_bound_holds_on_examples() {
        let g = Graph::complete(6);
        assert!(max_qc_size_bound(&prep(&g)) >= 6);
        let p = Graph::path(10);
        assert_eq!(max_qc_size_bound(&prep(&p)), 3);
    }

    #[test]
    fn finds_planted_groups_in_size_order() {
        let g = planted_quasi_cliques(
            60,
            0.01,
            &[
                PlantedGroup {
                    size: 12,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 8,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 6,
                    density: 1.0,
                },
            ],
            19,
        );
        let top = find_largest_mqcs(&prep(&g), 0.9, 2, None).unwrap();
        assert_eq!(top.mqcs.len(), 2);
        assert!(top.mqcs[0].len() >= top.mqcs[1].len());
        assert_eq!(top.mqcs[0], (0..12).collect::<Vec<_>>());
        assert_eq!(top.mqcs[1], (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn k_larger_than_available() {
        let g = Graph::complete(5);
        let top = find_largest_mqcs(&prep(&g), 0.9, 10, None).unwrap();
        assert_eq!(top.mqcs.len(), 1);
        assert_eq!(top.mqcs[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_k_and_empty_graph() {
        let g = Graph::complete(4);
        assert!(find_largest_mqcs(&prep(&g), 0.9, 0, None)
            .unwrap()
            .mqcs
            .is_empty());
        let empty = Graph::empty(0);
        assert!(find_largest_mqcs(&prep(&empty), 0.9, 3, None)
            .unwrap()
            .mqcs
            .is_empty());
    }

    #[test]
    fn invalid_gamma_is_rejected() {
        let g = Graph::complete(4);
        assert!(find_largest_mqcs(&prep(&g), 0.2, 1, None).is_err());
    }

    #[test]
    fn results_match_full_enumeration() {
        let g = Graph::paper_figure1();
        let top = find_largest_mqcs(&prep(&g), 0.6, 3, None).unwrap();
        let full = crate::pipeline::enumerate_mqcs_default(&g, 0.6, 2).unwrap();
        let mut by_size = full.mqcs.clone();
        by_size.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        assert_eq!(top.mqcs, by_size[..3.min(by_size.len())].to_vec());
    }
}
