//! Summary statistics matching the dataset columns of Table 1 of the paper.

use crate::core_decomp::core_decomposition;
use crate::graph::Graph;

/// Dataset-level statistics: the columns `|V|`, `|E|`, `|E|/|V|`, `d`, `ω`
/// of Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Edge density `|E| / |V|`.
    pub edge_density: f64,
    /// Maximum degree `d`.
    pub max_degree: usize,
    /// Degeneracy `ω`.
    pub degeneracy: usize,
}

impl GraphStats {
    /// Computes the statistics of a graph (runs a core decomposition).
    pub fn compute(g: &Graph) -> Self {
        let decomp = core_decomposition(g);
        GraphStats {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            edge_density: g.edge_density(),
            max_degree: g.max_degree(),
            degeneracy: decomp.degeneracy,
        }
    }
}

/// Number of triangles in the graph (each counted once).
///
/// Uses the standard degree-ordered intersection method, `O(Σ d(v)²)` in the
/// worst case but fast on sparse graphs.
pub fn triangle_count(g: &Graph) -> usize {
    // Orient each edge from the lower-(degree, id) endpoint to the higher one
    // and intersect out-neighbourhoods.
    let n = g.num_vertices();
    let order = |v: crate::VertexId| (g.degree(v), v);
    let mut out: Vec<Vec<crate::VertexId>> = vec![Vec::new(); n];
    for (u, v) in g.edges() {
        if order(u) < order(v) {
            out[u as usize].push(v);
        } else {
            out[v as usize].push(u);
        }
    }
    for list in out.iter_mut() {
        list.sort_unstable();
    }
    let mut triangles = 0usize;
    for u in 0..n {
        let fu = &out[u];
        for &v in fu {
            let fv = &out[v as usize];
            // Sorted intersection of fu and fv.
            let (mut i, mut j) = (0usize, 0usize);
            while i < fu.len() && j < fv.len() {
                match fu[i].cmp(&fv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    triangles
}

/// Global clustering coefficient: `3·#triangles / #wedges` (0 when the graph
/// has no wedge).
pub fn global_clustering_coefficient(g: &Graph) -> f64 {
    let wedges: usize = g
        .vertices()
        .map(|v| {
            let d = g.degree(v);
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        return 0.0;
    }
    3.0 * triangle_count(g) as f64 / wedges as f64
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |E|/|V|={:.2} d={} w={}",
            self.num_vertices, self.num_edges, self.edge_density, self.max_degree, self.degeneracy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_complete_graph() {
        let s = GraphStats::compute(&Graph::complete(8));
        assert_eq!(s.num_vertices, 8);
        assert_eq!(s.num_edges, 28);
        assert_eq!(s.max_degree, 7);
        assert_eq!(s.degeneracy, 7);
        assert!((s.edge_density - 3.5).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::compute(&Graph::empty(0));
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.edge_density, 0.0);
    }

    #[test]
    fn triangle_counts() {
        assert_eq!(triangle_count(&Graph::complete(4)), 4);
        assert_eq!(triangle_count(&Graph::complete(6)), 20);
        assert_eq!(triangle_count(&Graph::cycle(5)), 0);
        assert_eq!(triangle_count(&Graph::cycle(3)), 1);
        assert_eq!(triangle_count(&Graph::path(6)), 0);
        assert_eq!(triangle_count(&Graph::empty(0)), 0);
        // Two triangles sharing an edge.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn clustering_coefficient() {
        assert!((global_clustering_coefficient(&Graph::complete(5)) - 1.0).abs() < 1e-12);
        assert_eq!(global_clustering_coefficient(&Graph::star(6)), 0.0);
        assert_eq!(global_clustering_coefficient(&Graph::empty(3)), 0.0);
        let tri_with_tail = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let c = global_clustering_coefficient(&tri_with_tail);
        assert!(c > 0.0 && c < 1.0);
    }

    #[test]
    fn display_is_stable() {
        let s = GraphStats::compute(&Graph::path(3));
        let text = s.to_string();
        assert!(text.contains("|V|=3"));
        assert!(text.contains("w=1"));
    }
}
