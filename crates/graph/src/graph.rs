//! The core immutable graph representation.

use crate::builder::GraphBuilder;

/// Dense vertex identifier in `0..Graph::num_vertices()`.
pub type VertexId = u32;

/// An undirected, unweighted, simple graph stored in a CSR-like layout.
///
/// Adjacency lists are sorted, enabling `O(log d)` adjacency tests via binary
/// search and linear-time sorted-set intersections. The structure is immutable
/// once built; use [`GraphBuilder`] (or the convenience constructors) to
/// create one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: neighbours of `v` are `neighbors[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Self-loops and duplicate edges are ignored. Panics if an endpoint is
    /// `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Internal constructor from per-vertex adjacency sets that are already
    /// deduplicated. Used by [`GraphBuilder`].
    pub(crate) fn from_adjacency(mut adj: Vec<Vec<VertexId>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for list in adj.iter_mut() {
            list.sort_unstable();
            list.dedup();
            total += list.len();
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total);
        for list in &adj {
            neighbors.extend_from_slice(list);
        }
        debug_assert_eq!(total % 2, 0, "adjacency must be symmetric");
        Graph {
            offsets,
            neighbors,
            num_edges: total / 2,
        }
    }

    /// Builds a graph directly from finished CSR arrays.
    ///
    /// `offsets` must have length `n + 1` with `offsets[0] == 0`, and each
    /// per-vertex slice of `neighbors` must already be sorted, deduplicated,
    /// and symmetric. Callers that extract subgraphs into reusable buffers
    /// (see `SubproblemScratch`) use this to skip the `Vec<Vec<_>>`
    /// intermediate and the copy `from_adjacency` would pay.
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len() % 2, 0, "adjacency must be symmetric");
        debug_assert!(offsets.windows(2).all(|w| {
            let list = &neighbors[w[0]..w[1]];
            list.windows(2).all(|p| p[0] < p[1])
        }));
        let num_edges = neighbors.len() / 2;
        Graph {
            offsets,
            neighbors,
            num_edges,
        }
    }

    /// Decomposes the graph back into its CSR arrays so scratch owners can
    /// reclaim the buffers (inverse of [`Graph::from_csr_parts`]).
    pub(crate) fn into_csr_parts(self) -> (Vec<usize>, Vec<VertexId>) {
        (self.offsets, self.neighbors)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Edge density `|E| / |V|` as used in Table 1 of the paper.
    pub fn edge_density(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Sorted slice of neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Cheap 64-bit content fingerprint (FNV-1a over the CSR arrays).
    ///
    /// Two graphs with the same vertex count and identical sorted adjacency
    /// structure hash equal; any edge or labelling difference changes the
    /// digest with overwhelming probability. Intended as a cache key for
    /// long-lived services, not as a cryptographic commitment.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.num_vertices() as u64);
        mix(self.num_edges as u64);
        for &off in &self.offsets {
            mix(off as u64);
        }
        for &v in &self.neighbors {
            mix(u64::from(v));
        }
        h
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log d)`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search in the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all undirected edges, each reported once as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Number of neighbours of `v` inside the vertex set `set` (which need not
    /// be sorted). `O(|set| log d)`.
    pub fn degree_in(&self, v: VertexId, set: &[VertexId]) -> usize {
        set.iter()
            .filter(|&&u| u != v && self.has_edge(u, v))
            .count()
    }

    /// Returns a complete graph on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Returns a simple path `0 - 1 - ... - (n-1)`.
    pub fn path(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(v - 1, v);
        }
        b.build()
    }

    /// Returns a cycle on `n` vertices (`n >= 3`), or a path for smaller `n`.
    pub fn cycle(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(v - 1, v);
        }
        if n >= 3 {
            b.add_edge(n as VertexId - 1, 0);
        }
        b.build()
    }

    /// Returns a star with centre `0` and `n - 1` leaves.
    pub fn star(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(0, v);
        }
        b.build()
    }

    /// A 9-vertex example graph in the spirit of the paper's running example
    /// (Figure 1): a dense region on `{v1..v5}` plus a second dense region on
    /// `{v2, v6..v9}` bridged through `v2` and `v3`.
    ///
    /// Vertex `i` of the paper (1-based `v_i`) is vertex `i - 1` here. The
    /// figure's exact edge set is not published machine-readably, so this is a
    /// faithful-in-structure reconstruction; tests only assert properties that
    /// hold for *this* edge set (e.g. the Property 1 example of the paper).
    pub fn paper_figure1() -> Self {
        // 0-based translation of the figure's edges.
        let edges: &[(VertexId, VertexId)] = &[
            (0, 1), // v1-v2
            (0, 2), // v1-v3
            (0, 4), // v1-v5
            (1, 2), // v2-v3
            (1, 3), // v2-v4
            (1, 4), // v2-v5
            (2, 3), // v3-v4
            (2, 4), // v3-v5
            (3, 4), // v4-v5
            (1, 5), // v2-v6
            (1, 6), // v2-v7
            (1, 7), // v2-v8
            (1, 8), // v2-v9
            (5, 6), // v6-v7
            (5, 7), // v6-v8
            (6, 7), // v7-v8
            (6, 8), // v7-v9
            (7, 8), // v8-v9
            (2, 5), // v3-v6
        ];
        Graph::from_edges(9, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edge_density(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn from_edges_dedups_and_ignores_self_loops() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (2, 3)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn degrees_and_neighbors_sorted() {
        let g = Graph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (0, 1)]);
        assert_eq!(g.degree(3), 3);
        assert_eq!(g.neighbors(3), &[0, 1, 4]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn complete_graph_properties() {
        let g = Graph::complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn path_cycle_star() {
        assert_eq!(Graph::path(5).num_edges(), 4);
        assert_eq!(Graph::cycle(5).num_edges(), 5);
        assert_eq!(Graph::cycle(2).num_edges(), 1);
        let s = Graph::star(7);
        assert_eq!(s.num_edges(), 6);
        assert_eq!(s.degree(0), 6);
        assert_eq!(s.degree(3), 1);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        for &(u, v) in &edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn degree_in_subset() {
        let g = Graph::complete(5);
        assert_eq!(g.degree_in(0, &[1, 2, 3]), 3);
        assert_eq!(g.degree_in(0, &[0, 1, 2]), 2); // self is skipped
        let p = Graph::path(5);
        assert_eq!(p.degree_in(2, &[0, 1, 3, 4]), 2);
    }

    #[test]
    fn edge_density_matches_table1_definition() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((g.edge_density() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn paper_figure1_smoke() {
        let g = Graph::paper_figure1();
        assert_eq!(g.num_vertices(), 9);
        // v2 (index 1) is the hub connecting both dense regions.
        assert_eq!(g.degree(1), 8);
        // {v1,v3,v4,v5} = {0,2,3,4} is a 0.6-QC per the paper's Property 1 example:
        // every vertex there connects at least 2 of the other 3.
        for &v in &[0u32, 2, 3, 4] {
            assert!(g.degree_in(v, &[0, 2, 3, 4]) >= 2);
        }
        // ... while its subgraph {v1,v3,v4} is not (v1 connects only 1 of 2).
        assert_eq!(g.degree_in(0, &[0, 2, 3]), 1);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let g1 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g2 = Graph::from_edges(4, &[(2, 3), (0, 1), (1, 2)]);
        // Same edge set, different construction order: same digest.
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        // Deterministic across calls.
        assert_eq!(g1.fingerprint(), g1.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let base = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // One extra edge.
        let extra = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_ne!(base.fingerprint(), extra.fingerprint());
        // Same edges, one more isolated vertex.
        let wider = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        assert_ne!(base.fingerprint(), wider.fingerprint());
        // Same degree sequence, different wiring.
        let a = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let b = Graph::from_edges(4, &[(0, 2), (1, 3)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Empty graphs of different sizes differ too.
        assert_ne!(Graph::empty(3).fingerprint(), Graph::empty(4).fingerprint());
    }
}
