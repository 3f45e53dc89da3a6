//! Query-driven maximal quasi-clique search.
//!
//! A common variant of MQCE (Section 7 of the paper: Chou et al., Lee &
//! Lakshmanan) asks only for the maximal γ-quasi-cliques that *contain a
//! given set of query vertices* — e.g. "which dense communities is this user
//! part of?". Enumerating everything and filtering afterwards wastes almost
//! all of the work; instead this module restricts the search up-front:
//!
//! * For γ ≥ 0.5 every quasi-clique has diameter at most 2 (Property 2), so
//!   any QC containing a query vertex `q` lies inside the closed 2-hop
//!   neighbourhood of `q`. The candidate universe is therefore the
//!   *intersection* of the query vertices' 2-hop neighbourhoods.
//! * The FastQC search is then seeded with the query set as the initial
//!   partial set `S`, so every explored branch already contains the query.
//!
//! Maximality filtering stays globally correct: any quasi-clique that
//! contains the result also contains the query, so it lives inside the same
//! restricted universe and is found by the same search.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mqce_graph::subgraph::two_hop_neighborhood;
use mqce_graph::{Graph, VertexId};
use mqce_settrie::SetArena;

use crate::branch::SearchScratch;
use crate::completeness::Completeness;
use crate::config::MqceConfig;
use crate::dc::InnerAlgorithm;
use crate::quasiclique::is_quasi_clique;
use crate::stats::SearchStats;

/// Errors specific to query-driven search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query set is empty.
    EmptyQuery,
    /// A query vertex id is not a vertex of the graph.
    VertexOutOfRange(VertexId),
    /// The same vertex appears twice in the query.
    DuplicateVertex(VertexId),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "the query vertex set is empty"),
            QueryError::VertexOutOfRange(v) => write!(f, "query vertex {v} is not in the graph"),
            QueryError::DuplicateVertex(v) => write!(f, "query vertex {v} appears twice"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Result of a query-driven search.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// The maximal γ-quasi-cliques of size ≥ θ that contain every query
    /// vertex, sorted lexicographically.
    pub mqcs: Vec<Vec<VertexId>>,
    /// Size of the restricted candidate universe the search ran on
    /// (query vertices included).
    pub universe_size: usize,
    /// Statistics of the branch-and-bound search.
    pub stats: SearchStats,
    /// Whether `mqcs` is exact, and if not, why not.
    pub completeness: Completeness,
    /// Wall-clock time of the whole query.
    pub elapsed: Duration,
}

/// Finds all maximal γ-quasi-cliques of size ≥ θ that contain every vertex of
/// `query`.
///
/// `config.algorithm` is ignored (the restricted search always uses FastQC);
/// the branching strategy and time limit are honoured.
///
/// # Errors
/// Returns a [`QueryError`] if the query is empty, contains duplicates, or
/// references a vertex outside the graph.
pub fn find_mqcs_containing(
    g: &Graph,
    query: &[VertexId],
    config: &MqceConfig,
) -> Result<QueryResult, QueryError> {
    let start = Instant::now();
    validate_query(g, query)?;
    let params = config.params;
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);

    // Candidate universe: intersection of the closed 2-hop neighbourhoods.
    let universe = query_universe(g, query);
    // If even the universe is smaller than θ, no result can exist.
    if universe.len() < params.theta {
        return Ok(QueryResult {
            mqcs: Vec::new(),
            universe_size: universe.len(),
            stats: SearchStats::default(),
            completeness: Completeness::default(),
            elapsed: start.elapsed(),
        });
    }

    // Work on the induced subgraph so the search's O(n) arrays are sized by
    // the (usually tiny) universe, not the whole graph.
    let sub = mqce_graph::InducedSubgraph::new(g, &universe);
    let local_query: Vec<VertexId> = query
        .iter()
        .map(|&v| sub.local(v).expect("query vertex is in its own universe"))
        .collect();
    let local_cand: Vec<VertexId> = (0..universe.len() as VertexId)
        .filter(|v| !local_query.contains(v))
        .collect();

    let mut bufs = SearchScratch::default();
    let stats = InnerAlgorithm::FastQc(config.branching).search(
        &sub.graph,
        None,
        &local_query,
        &local_cand,
        params,
        deadline,
        None,
        &mut bufs,
    );

    // The search can only emit sets that contain S = query, but be defensive
    // about it (and about the QC property) before filtering maximality.
    let mut qcs = SetArena::new();
    for set in bufs.sets.iter() {
        let global = sub.to_global_set(set);
        if query.iter().all(|q| global.contains(q))
            && global.len() >= params.theta
            && is_quasi_clique(g, &global, params.gamma)
        {
            qcs.push_set(&global);
        }
    }
    // Maximality filtering through the pipeline's S2 pass, honouring what
    // remains of the time budget (plus the standard grace slice).
    let s2_dl = crate::pipeline::s2_deadline(deadline, config.time_limit);
    let (s2_out, _) = crate::pipeline::compact_family(vec![qcs], 1, s2_dl);

    Ok(QueryResult {
        mqcs: s2_out.mqcs,
        universe_size: universe.len(),
        completeness: Completeness::new(&stats, s2_out.timed_out),
        stats,
        elapsed: start.elapsed(),
    })
}

/// Checks a query against `g` as [`find_mqcs_containing`] does: it must be
/// non-empty, name only vertices of `g` and name each at most once.
///
/// # Errors
/// The first [`QueryError`] found, the one [`find_mqcs_containing`] returns.
pub fn validate_query(g: &Graph, query: &[VertexId]) -> Result<(), QueryError> {
    if query.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    let mut seen: HashMap<VertexId, ()> = HashMap::with_capacity(query.len());
    for &q in query {
        if (q as usize) >= g.num_vertices() {
            return Err(QueryError::VertexOutOfRange(q));
        }
        if seen.insert(q, ()).is_some() {
            return Err(QueryError::DuplicateVertex(q));
        }
    }
    Ok(())
}

/// The candidate universe of a query: the intersection over all query
/// vertices of their closed 2-hop neighbourhoods (sorted). Always contains
/// the query vertices themselves, even if they are further than 2 hops apart
/// (in that case no QC exists and the search terminates immediately anyway).
pub fn query_universe(g: &Graph, query: &[VertexId]) -> Vec<VertexId> {
    let mut counts: HashMap<VertexId, usize> = HashMap::new();
    for &q in query {
        let mut hood = two_hop_neighborhood(g, q);
        if !hood.contains(&q) {
            hood.push(q);
        }
        for v in hood {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let mut universe: Vec<VertexId> = counts
        .into_iter()
        .filter_map(|(v, c)| (c == query.len()).then_some(v))
        .collect();
    for &q in query {
        if !universe.contains(&q) {
            universe.push(q);
        }
    }
    universe.sort_unstable();
    universe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::enumerate_mqcs_default;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};

    /// Query search with the default configuration at `(gamma, theta)`.
    fn find(
        g: &Graph,
        query: &[VertexId],
        gamma: f64,
        theta: usize,
    ) -> Result<QueryResult, QueryError> {
        find_mqcs_containing(g, query, &MqceConfig::new(gamma, theta).unwrap())
    }

    /// Reference implementation: full enumeration followed by a containment
    /// filter.
    fn reference_query(
        g: &Graph,
        query: &[VertexId],
        gamma: f64,
        theta: usize,
    ) -> Vec<Vec<VertexId>> {
        let all = enumerate_mqcs_default(g, gamma, theta).unwrap().mqcs;
        all.into_iter()
            .filter(|mqc| query.iter().all(|q| mqc.contains(q)))
            .collect()
    }

    #[test]
    fn matches_filtering_full_enumeration_on_paper_graph() {
        let g = Graph::paper_figure1();
        for gamma in [0.5, 0.6, 0.7, 0.9] {
            for theta in [2usize, 3, 4] {
                for query in [vec![0u32], vec![3], vec![0, 2], vec![4, 5], vec![0, 8]] {
                    let got = find(&g, &query, gamma, theta).unwrap().mqcs;
                    let expected = reference_query(&g, &query, gamma, theta);
                    assert_eq!(got, expected, "gamma={gamma} theta={theta} query={query:?}");
                }
            }
        }
    }

    #[test]
    fn planted_community_is_found_from_any_member() {
        let g = planted_quasi_cliques(
            70,
            0.02,
            &[PlantedGroup {
                size: 10,
                density: 1.0,
            }],
            31,
        );
        for q in [0u32, 4, 9] {
            let result = find(&g, &[q], 0.9, 8).unwrap();
            assert!(
                result
                    .mqcs
                    .iter()
                    .any(|mqc| (0..10).all(|v| mqc.contains(&v))),
                "query {q} misses the planted clique"
            );
            assert!(result.universe_size < 70, "universe was not restricted");
        }
    }

    #[test]
    fn disconnected_query_has_no_results() {
        // Two far-apart vertices of a path can never be in one QC (γ ≥ 0.5).
        let g = Graph::path(10);
        let result = find(&g, &[0, 9], 0.5, 2).unwrap();
        assert!(result.mqcs.is_empty());
    }

    #[test]
    fn query_errors() {
        let g = Graph::complete(4);
        assert_eq!(find(&g, &[], 0.9, 2).unwrap_err(), QueryError::EmptyQuery);
        assert_eq!(
            find(&g, &[7], 0.9, 2).unwrap_err(),
            QueryError::VertexOutOfRange(7)
        );
        assert_eq!(
            find(&g, &[1, 1], 0.9, 2).unwrap_err(),
            QueryError::DuplicateVertex(1)
        );
        assert!(QueryError::EmptyQuery.to_string().contains("empty"));
    }

    #[test]
    fn universe_is_intersection_of_two_hop_balls() {
        let g = Graph::path(7);
        // Vertex 3's 2-hop ball is {1..5}; vertex 4's is {2..6}; intersection
        // {2,3,4,5} plus the query vertices themselves.
        let u = query_universe(&g, &[3, 4]);
        assert_eq!(u, vec![2, 3, 4, 5]);
        let single = query_universe(&g, &[0]);
        assert_eq!(single, vec![0, 1, 2]);
    }

    #[test]
    fn theta_larger_than_universe_short_circuits() {
        let g = Graph::path(6);
        let result = find(&g, &[0], 0.9, 5).unwrap();
        assert!(result.mqcs.is_empty());
        assert_eq!(result.stats.branches, 0);
    }
}
