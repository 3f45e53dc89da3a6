//! Connectivity primitives: connectedness of vertex subsets and BFS
//! distances.

use crate::graph::{Graph, VertexId};

/// Returns `true` if the induced subgraph `G[set]` is connected, using
/// caller-owned scratch buffers so repeated predicate checks reuse the same
/// allocations. The buffers are resized and cleared here; their previous
/// contents are ignored.
///
/// The empty set and singletons are considered connected (matching the
/// quasi-clique definition, where a single vertex is a trivial QC).
pub fn is_connected_subset_in(
    g: &Graph,
    set: &[VertexId],
    in_set: &mut Vec<bool>,
    visited: &mut Vec<bool>,
    queue: &mut std::collections::VecDeque<VertexId>,
) -> bool {
    if set.len() <= 1 {
        return true;
    }
    in_set.clear();
    in_set.resize(g.num_vertices(), false);
    for &v in set {
        in_set[v as usize] = true;
    }
    visited.clear();
    visited.resize(g.num_vertices(), false);
    queue.clear();
    queue.push_back(set[0]);
    visited[set[0] as usize] = true;
    let mut reached = 1usize;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if in_set[w as usize] && !visited[w as usize] {
                visited[w as usize] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    reached == set.len()
}

/// Breadth-first distances from `source` (`usize::MAX` for unreachable
/// vertices). Useful for 2-hop neighbourhood checks in tests.
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == usize::MAX {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_connected_subset(g: &Graph, set: &[VertexId]) -> bool {
        is_connected_subset_in(
            g,
            set,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut std::collections::VecDeque::new(),
        )
    }

    #[test]
    fn subset_connectivity() {
        let g = Graph::path(6); // 0-1-2-3-4-5
        assert!(is_connected_subset(&g, &[1, 2, 3]));
        assert!(!is_connected_subset(&g, &[0, 2]));
        assert!(is_connected_subset(&g, &[4]));
        assert!(is_connected_subset(&g, &[]));
    }

    #[test]
    fn bfs_distances_on_cycle() {
        let g = Graph::cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], usize::MAX);
        assert_eq!(d[3], usize::MAX);
    }
}
