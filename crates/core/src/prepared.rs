//! Shared read-only graph state for long-lived serving processes.
//!
//! A CLI invocation pays graph parsing plus derived-state construction on
//! every run. A resident daemon should pay them once: [`PreparedGraph`]
//! bundles the graph with its content fingerprint, its core decomposition
//! (core numbers + global degeneracy ordering) and, when the graph is small
//! enough, a packed adjacency matrix — all immutable, so one instance behind
//! an `Arc` can serve any number of concurrent requests.
//!
//! Every pipeline run ([`Session::run`](crate::Session::run), top-k rounds,
//! incremental updates, shard planning) borrows this state instead of
//! re-deriving it: per-request core reduction becomes a filter over the
//! cached core numbers, and the per-request vertex ordering is the cached
//! global degeneracy ordering restricted to the surviving vertices. Both are
//! sound for the divide-and-conquer drivers — Property 2 assigns every
//! maximal quasi-clique to its lowest-ranked member under *any* total order,
//! and the final maximal family is canonical.

use mqce_graph::bitset::AdjacencyMatrix;
use mqce_graph::core_decomp::{core_decomposition, CoreDecomposition};
use mqce_graph::{Graph, VertexId};

/// A graph plus the derived read-only state a serving process reuses across
/// requests: content fingerprint, core decomposition and (for graphs within
/// the memory cap) a packed adjacency matrix.
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    graph: Graph,
    fingerprint: u64,
    cores: CoreDecomposition,
    matrix: Option<AdjacencyMatrix>,
}

impl PreparedGraph {
    /// Prepares `graph` for serving: computes the fingerprint and the core
    /// decomposition, and builds the adjacency matrix when the size cap
    /// recommends it.
    pub fn new(graph: Graph) -> Self {
        let fingerprint = graph.fingerprint();
        let cores = core_decomposition(&graph);
        let matrix = AdjacencyMatrix::recommended_for(graph.num_vertices())
            .then(|| AdjacencyMatrix::from_graph(&graph));
        PreparedGraph {
            graph,
            fingerprint,
            cores,
            matrix,
        }
    }

    /// Prepares `graph` reusing an already-computed core decomposition —
    /// the incremental-update path maintains the decomposition itself (see
    /// `mqce_graph::delta::update_core_decomposition`) and must not pay the
    /// peel a second time. `cores` must be the decomposition of `graph`.
    pub fn with_cores(graph: Graph, cores: CoreDecomposition) -> Self {
        debug_assert_eq!(cores.core_numbers.len(), graph.num_vertices());
        let fingerprint = graph.fingerprint();
        let matrix = AdjacencyMatrix::recommended_for(graph.num_vertices())
            .then(|| AdjacencyMatrix::from_graph(&graph));
        PreparedGraph {
            graph,
            fingerprint,
            cores,
            matrix,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// 64-bit content fingerprint of the graph (see [`Graph::fingerprint`]),
    /// computed once at preparation time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The cached core decomposition (core numbers, global degeneracy
    /// ordering and degeneracy).
    pub fn cores(&self) -> &CoreDecomposition {
        &self.cores
    }

    /// Degeneracy of the graph.
    pub fn degeneracy(&self) -> usize {
        self.cores.degeneracy
    }

    /// The packed adjacency matrix, when the graph was small enough to build
    /// one at preparation time.
    pub fn matrix(&self) -> Option<&AdjacencyMatrix> {
        self.matrix.as_ref()
    }

    /// Adjacency test that prefers the packed matrix when present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match &self.matrix {
            Some(m) => m.has_edge(u, v),
            None => self.graph.has_edge(u, v),
        }
    }

    /// Vertices with core number at least `k`, sorted ascending — the
    /// `k`-core filter evaluated against the cached core numbers, with no
    /// per-request decomposition.
    pub fn k_core_vertices(&self, k: usize) -> Vec<VertexId> {
        (0..self.graph.num_vertices() as VertexId)
            .filter(|&v| self.cores.core_numbers[v as usize] >= k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_graph::core_decomp::k_core_vertices;

    #[test]
    fn cached_k_core_matches_direct_computation() {
        let g = Graph::paper_figure1();
        let prepared = PreparedGraph::new(g.clone());
        for k in 0..=5 {
            assert_eq!(prepared.k_core_vertices(k), k_core_vertices(&g, k), "k={k}");
        }
        assert_eq!(prepared.fingerprint(), g.fingerprint());
        assert_eq!(prepared.degeneracy(), core_decomposition(&g).degeneracy);
    }

    #[test]
    fn matrix_built_for_small_graphs_and_agrees() {
        let g = Graph::paper_figure1();
        let prepared = PreparedGraph::new(g.clone());
        assert!(prepared.matrix().is_some());
        for u in 0..9u32 {
            for v in 0..9u32 {
                assert_eq!(prepared.has_edge(u, v), g.has_edge(u, v));
            }
        }
    }
}
