//! Induced subgraphs with local/global id mappings and 2-hop neighbourhoods.
//!
//! The divide-and-conquer framework constructs, for each vertex `v_i`, the
//! subgraph induced by `Γ²(v_i) − {v_1..v_{i−1}}` and runs the
//! branch-and-bound search on it. The search works in *local* ids
//! (`0..|V_i|`), and the results are mapped back to the original graph.

use crate::bitset::AdjacencyMatrix;
use crate::graph::{Graph, VertexId};
use crate::scratch::SubproblemScratch;

/// An induced subgraph `G[H]` together with the mapping between its local
/// vertex ids (`0..H.len()`) and the original graph's ids.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph itself, over local ids.
    pub graph: Graph,
    /// `to_global[local] = global` (sorted ascending).
    pub to_global: Vec<VertexId>,
    /// Optional packed adjacency kernel over the local ids; populated by
    /// [`InducedSubgraph::with_adjacency`]. Local ids are contiguous, so the
    /// matrix rows are dense and cache-friendly.
    pub adjacency: Option<AdjacencyMatrix>,
}

impl InducedSubgraph {
    /// Builds the subgraph of `g` induced by `vertices` (duplicates are
    /// removed; order does not matter).
    pub fn new(g: &Graph, vertices: &[VertexId]) -> Self {
        let mut to_global: Vec<VertexId> = vertices.to_vec();
        to_global.sort_unstable();
        to_global.dedup();
        let mut local_of = vec![u32::MAX; g.num_vertices()];
        for (local, &global) in to_global.iter().enumerate() {
            local_of[global as usize] = local as u32;
        }
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); to_global.len()];
        for (local, &global) in to_global.iter().enumerate() {
            for &nb in g.neighbors(global) {
                let lnb = local_of[nb as usize];
                if lnb != u32::MAX {
                    adj[local].push(lnb);
                }
            }
        }
        InducedSubgraph {
            graph: Graph::from_adjacency(adj),
            to_global,
            adjacency: None,
        }
    }

    /// Builds the subgraph of `g` induced by `vertices` using reusable
    /// per-worker buffers: the scratch's epoch-stamped local-id map replaces
    /// the O(whole-graph) `local_of` refill, and the local CSR is filled
    /// directly into recycled `offsets`/`neighbors` buffers in a single pass
    /// (the monotone global→local map keeps each list sorted), skipping the
    /// `Vec<Vec<_>>` intermediate and the `from_adjacency` copy. After
    /// warmup this performs no heap allocation; hand the subgraph back via
    /// [`SubproblemScratch::recycle`] when done.
    pub fn new_in(g: &Graph, vertices: &[VertexId], scratch: &mut SubproblemScratch) -> Self {
        scratch.extract(g, vertices)
    }

    /// Builds the packed adjacency kernel for the subgraph when it fits the
    /// memory cap ([`AdjacencyMatrix::recommended_for`]). Whether a
    /// subproblem is worth a kernel is the caller's policy; the searchers
    /// decide it by [`AdjacencyMatrix::adaptive_for`].
    pub fn with_adjacency(mut self) -> Self {
        if self.adjacency.is_none() && AdjacencyMatrix::recommended_for(self.len()) {
            self.adjacency = Some(AdjacencyMatrix::from_graph(&self.graph));
        }
        self
    }

    /// Number of vertices in the subgraph.
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Whether the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    /// Maps a local vertex id back to the original graph.
    pub fn global(&self, local: VertexId) -> VertexId {
        self.to_global[local as usize]
    }

    /// Maps a global vertex id to the local id, if the vertex is present.
    pub fn local(&self, global: VertexId) -> Option<VertexId> {
        self.to_global
            .binary_search(&global)
            .ok()
            .map(|i| i as VertexId)
    }

    /// Maps a set of local ids back to (sorted) global ids.
    pub fn to_global_set(&self, locals: &[VertexId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = locals.iter().map(|&l| self.global(l)).collect();
        out.sort_unstable();
        out
    }
}

/// The closed 2-hop neighbourhood of `v`: `{v} ∪ Γ(v) ∪ Γ(Γ(v))`, sorted.
pub fn two_hop_neighborhood(g: &Graph, v: VertexId) -> Vec<VertexId> {
    let mut mark = vec![false; g.num_vertices()];
    mark[v as usize] = true;
    let mut out = vec![v];
    for &u in g.neighbors(v) {
        if !mark[u as usize] {
            mark[u as usize] = true;
            out.push(u);
        }
    }
    for &u in g.neighbors(v) {
        for &w in g.neighbors(u) {
            if !mark[w as usize] {
                mark[w as usize] = true;
                out.push(w);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::bfs_distances;

    #[test]
    fn induced_subgraph_of_complete() {
        let g = Graph::complete(6);
        let sub = InducedSubgraph::new(&g, &[1, 3, 5]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.graph.num_edges(), 3);
        assert_eq!(sub.to_global, vec![1, 3, 5]);
        assert_eq!(sub.global(0), 1);
        assert_eq!(sub.local(5), Some(2));
        assert_eq!(sub.local(2), None);
    }

    #[test]
    fn induced_subgraph_preserves_edges_exactly() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let vs = [1u32, 2, 4, 5];
        let sub = InducedSubgraph::new(&g, &vs);
        for &u in &vs {
            for &v in &vs {
                if u < v {
                    let lu = sub.local(u).unwrap();
                    let lv = sub.local(v).unwrap();
                    assert_eq!(sub.graph.has_edge(lu, lv), g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn duplicates_are_removed() {
        let g = Graph::path(4);
        let sub = InducedSubgraph::new(&g, &[2, 1, 1, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
    }

    #[test]
    fn to_global_set_roundtrip() {
        let g = Graph::cycle(8);
        let sub = InducedSubgraph::new(&g, &[7, 0, 1, 4]);
        let locals: Vec<u32> = (0..sub.len() as u32).collect();
        assert_eq!(sub.to_global_set(&locals), vec![0, 1, 4, 7]);
    }

    #[test]
    fn two_hop_matches_bfs() {
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        for v in 0..9u32 {
            let dist = bfs_distances(&g, v);
            let expect: Vec<u32> = (0..9u32).filter(|&u| dist[u as usize] <= 2).collect();
            assert_eq!(two_hop_neighborhood(&g, v), expect);
        }
    }

    #[test]
    fn two_hop_isolated_vertex() {
        let g = Graph::empty(3);
        assert_eq!(two_hop_neighborhood(&g, 1), vec![1]);
    }

    #[test]
    fn with_adjacency_builds_consistent_matrix() {
        let g = Graph::complete(8);
        let sub = InducedSubgraph::new(&g, &[0, 2, 4, 6, 7]).with_adjacency();
        let m = sub.adjacency.as_ref().expect("a small subgraph builds");
        assert_eq!(m.num_vertices(), sub.len());
        for u in sub.graph.vertices() {
            for v in sub.graph.vertices() {
                assert_eq!(m.has_edge(u, v), sub.graph.has_edge(u, v));
            }
        }
        // Empty subgraph never builds a matrix.
        let empty = InducedSubgraph::new(&g, &[]).with_adjacency();
        assert!(empty.adjacency.is_none());
    }

    #[test]
    fn empty_subgraph() {
        let g = Graph::path(3);
        let sub = InducedSubgraph::new(&g, &[]);
        assert!(sub.is_empty());
        assert_eq!(sub.graph.num_vertices(), 0);
    }
}
