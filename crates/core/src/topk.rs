//! Top-k largest maximal quasi-cliques.
//!
//! A common downstream use of MQC enumeration (and a related-work problem the
//! paper discusses, Sanei-Mehri et al. [34, 35]) is to report only the `k`
//! *largest* maximal γ-quasi-cliques. Rather than enumerating with a small
//! size threshold and sorting, this module starts from an upper bound on the
//! largest possible QC size and lowers the threshold geometrically until `k`
//! maximal QCs have been found — every probe reuses the full DCFastQC
//! machinery, so each round is cheap when the threshold is high.

use std::time::Instant;

use mqce_graph::VertexId;
use mqce_settrie::compact_parallel;

use crate::completeness::Completeness;
use crate::config::{MqceConfig, MqceParams, ParamError};
use crate::pipeline::run_pipeline;
use crate::prepared::PreparedGraph;
use crate::stats::SearchStats;

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
    /// Every round's verdict, merged. A partial list holds the largest sets
    /// found before a deadline or a contained panic cut a round short, and
    /// may miss some of the true top k.
    pub completeness: Completeness,
    /// Statistics of every round's S1 search, merged.
    pub stats: SearchStats,
}

/// Upper bound on the size of any γ-quasi-clique for γ ≥ 0.5: `2ω + 1`, where
/// `ω` is the graph degeneracy (the bound the paper uses in Section 2.2).
pub fn max_qc_size_bound(prepared: &PreparedGraph) -> usize {
    2 * prepared.degeneracy() + 1
}

/// Finds the `k` largest maximal γ-quasi-cliques (of size ≥ 2).
///
/// `base` supplies the rest of the configuration (algorithm, branching,
/// time limit and the implementation knobs of its params); its `gamma` is
/// replaced by `gamma` and its `theta` is ignored (the search manages the
/// threshold itself). Every round runs on the cached decomposition of
/// `prepared`.
///
/// The time limit is one budget for the whole search, not one per round:
/// each round runs on what is left of it (a spent budget runs the next
/// round with a zero limit, which does no work and is flagged), and the
/// search stops after the first round that reports a timeout.
pub fn find_largest_mqcs(
    prepared: &PreparedGraph,
    gamma: f64,
    k: usize,
    base: Option<MqceConfig>,
) -> Result<TopKResult, ParamError> {
    // Validates gamma; every round's theta is at least 2.
    let defaults = MqceConfig::new(gamma, 2)?;
    let mut template = base.unwrap_or(defaults);
    template.params.gamma = gamma;
    if k == 0 || prepared.graph().num_vertices() == 0 {
        return Ok(TopKResult::default());
    }

    let deadline = template.time_limit.map(|limit| Instant::now() + limit);
    let mut theta = max_qc_size_bound(prepared).max(2);
    let mut rounds = 0usize;
    let mut stats = SearchStats::default();
    let mut completeness = Completeness::default();
    // The last completed round's threshold and family: every maximal QC of
    // at least that size, hence the exact top of the ranking.
    let mut complete: (usize, Vec<Vec<VertexId>>) = (usize::MAX, Vec::new());
    loop {
        rounds += 1;
        let config = MqceConfig {
            params: MqceParams {
                theta,
                ..template.params
            },
            time_limit: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            ..template
        };
        let result = run_pipeline(prepared, &config, 1);
        let timed_out = result.timed_out();
        stats.merge(&result.stats);
        completeness.merge(result.completeness);
        if result.mqcs.len() >= k || theta == 2 || timed_out {
            let mut mqcs = result.mqcs;
            if timed_out {
                let (previous, exact) = complete;
                mqcs = merge_partial_round(mqcs, previous, exact);
            }
            mqcs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
            mqcs.truncate(k);
            return Ok(TopKResult {
                mqcs,
                final_theta: theta,
                rounds,
                completeness,
                stats,
            });
        }
        complete = (theta, result.mqcs);
        // Lower the threshold geometrically (but never below 2).
        theta = (theta / 2).max(2);
    }
}

/// The answer of a round cut short by its deadline, as an antichain: its
/// `partial` sets smaller than the previous exact round's threshold
/// `previous`, together with that round's family `exact`, minus the
/// partial sets contained in an exact set. The exact family holds every
/// maximal QC of size ≥ `previous`, so a partial set that large is already
/// in it, and one inside an exact set is not maximal. No exact set lies in
/// a partial one (exact sets are maximal, partial sets are QCs), and the
/// partial sets of one S2 pass are an antichain, so the one S2 pass over
/// the union drops exactly those partial sets.
fn merge_partial_round(
    partial: Vec<Vec<VertexId>>,
    previous: usize,
    exact: Vec<Vec<VertexId>>,
) -> Vec<Vec<VertexId>> {
    let mut merged: Vec<Vec<VertexId>> = partial
        .into_iter()
        .filter(|set| set.len() < previous)
        .collect();
    merged.extend(exact);
    compact_parallel(&merged, 1, None).mqcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
    use mqce_graph::Graph;

    fn prep(g: &Graph) -> PreparedGraph {
        PreparedGraph::new(g.clone())
    }

    /// A partial set inside an exact set is dropped; partial sets at least
    /// as large as the previous threshold give way to the exact family; the
    /// rest are kept.
    #[test]
    fn partial_round_merge_is_an_antichain() {
        let exact = vec![vec![1, 2, 3, 4, 5], vec![6, 7, 8, 9]];
        let partial = vec![
            vec![1, 2, 3],
            vec![2, 6, 7],
            vec![4, 5],
            vec![7, 8, 9, 10, 11],
        ];
        let mut merged = merge_partial_round(partial, 4, exact);
        merged.sort();
        assert_eq!(
            merged,
            vec![vec![1, 2, 3, 4, 5], vec![2, 6, 7], vec![6, 7, 8, 9]]
        );
        for a in &merged {
            for b in &merged {
                assert!(a == b || !a.iter().all(|v| b.contains(v)), "{a:?} ⊆ {b:?}");
            }
        }
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
        assert!(top.completeness.is_exact());
    }

    #[test]
    fn rounds_keep_the_callers_params() {
        // Regression: every round rebuilt its params from (γ, θ) alone, so
        // the caller's fault injection never reached the search.
        let g = Graph::complete(6);
        let mut base = MqceConfig::new(0.9, 3).unwrap();
        base.params.fail_anchor = Some(0);
        let top = find_largest_mqcs(&prep(&g), 0.9, 1, Some(base)).unwrap();
        assert!(top.stats.subproblem_panics > 0);
        assert_eq!(top.stats.last_panicked_anchor, Some(0));
        assert_eq!(top.completeness.panicked_anchor, Some(0));
    }

    #[test]
    fn time_limit_is_one_budget_across_rounds() {
        // Regression: every round used to get a fresh copy of the full
        // limit. Dense 40-vertex communities at γ = 0.6 are far more work
        // than the budget, spread over several rounds.
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        use std::time::Duration;
        let g = community_graph(
            CommunityGraphParams {
                n: 400,
                num_communities: 10,
                p_intra: 0.9,
                inter_degree: 2.0,
            },
            11,
        );
        let prepared = prep(&g);
        let limit = Duration::from_millis(200);
        let base = MqceConfig::new(0.6, 2).unwrap().with_time_limit(limit);
        let start = Instant::now();
        let top = find_largest_mqcs(&prepared, 0.6, usize::MAX, Some(base)).unwrap();
        let elapsed = start.elapsed();
        assert!(
            top.completeness.timed_out(),
            "a spent budget must be flagged"
        );
        // The limit, one S2 grace slice (100 ms at this limit), and slack
        // for the budget-independent per-round plan on slow machines.
        assert!(
            elapsed < limit + Duration::from_millis(100) + Duration::from_millis(500),
            "top-k overran its budget: {elapsed:?} over {} rounds",
            top.rounds
        );
    }
}
