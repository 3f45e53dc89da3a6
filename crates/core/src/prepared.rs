//! Shared read-only graph state for long-lived serving processes.
//!
//! A CLI invocation pays graph parsing plus derived-state construction on
//! every run. A resident daemon should pay them once: [`PreparedGraph`]
//! bundles the graph with its content fingerprint and its core decomposition
//! (core numbers + global degeneracy ordering) — all immutable, so one
//! instance behind an `Arc` can serve any number of concurrent requests.
//!
//! Every pipeline run ([`Session::run`](crate::Session::run), top-k rounds,
//! incremental updates) borrows this state instead of
//! re-deriving it: per-request core reduction becomes a filter over the
//! cached core numbers, and the per-request vertex ordering is the cached
//! global degeneracy ordering restricted to the surviving vertices. Both are
//! sound for the divide-and-conquer drivers — Property 2 assigns every
//! maximal quasi-clique to its lowest-ranked member under *any* total order,
//! and the final maximal family is canonical.

use mqce_graph::core_decomp::{core_decomposition, CoreDecomposition};
use mqce_graph::delta::{dirty_two_hop_closure, update_core_decomposition};
use mqce_graph::{Graph, GraphDelta, SubproblemScratch, VertexId};

/// A graph plus the derived read-only state a serving process reuses across
/// requests: content fingerprint and core decomposition.
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    graph: Graph,
    fingerprint: u64,
    cores: CoreDecomposition,
}

impl PreparedGraph {
    /// Prepares `graph` for serving: computes the fingerprint and the core
    /// decomposition.
    pub fn new(graph: Graph) -> Self {
        let cores = core_decomposition(&graph);
        PreparedGraph::with_cores(graph, cores)
    }

    /// Prepares `graph` reusing an already-computed core decomposition, so
    /// [`apply_delta`](Self::apply_delta) does not pay the peel a second
    /// time. `cores` must be the decomposition of `graph`.
    fn with_cores(graph: Graph, cores: CoreDecomposition) -> Self {
        debug_assert_eq!(cores.core_numbers.len(), graph.num_vertices());
        let fingerprint = graph.fingerprint();
        PreparedGraph {
            graph,
            fingerprint,
            cores,
        }
    }

    /// The one update step of the daemon and the incremental session:
    /// applies `delta` and returns the prepared updated graph, the dirty
    /// two-hop closure (sorted; the vertices whose DC subproblems the batch
    /// can change, see `mqce_graph::delta::dirty_two_hop_closure`) and the
    /// number of vertices whose core number changed. The core decomposition
    /// is maintained from this one's rather than recomputed by a second
    /// peel; `scratch` serves the closure walk.
    ///
    /// Returns `None`, and builds nothing, when the batch changes no edge and
    /// adds no vertex ([`GraphDelta::changed_endpoints`] is empty): the graph,
    /// its fingerprint and every answer computed on it stay as they are.
    pub fn apply_delta(
        &self,
        delta: &GraphDelta,
        scratch: &mut SubproblemScratch,
    ) -> Option<(PreparedGraph, Vec<VertexId>, usize)> {
        if delta.changed_endpoints(&self.graph).is_empty() {
            return None;
        }
        let new_graph = delta.apply(&self.graph);
        let dirty = dirty_two_hop_closure(&self.graph, &new_graph, delta, scratch);
        let update = update_core_decomposition(&self.cores, &new_graph);
        let core_changed = update.changed.len();
        Some((
            PreparedGraph::with_cores(new_graph, update.cores),
            dirty,
            core_changed,
        ))
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
}
