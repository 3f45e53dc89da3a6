//! Edge-update batches and incremental graph maintenance.
//!
//! A [`GraphDelta`] is a normalised batch of edge inserts and deletes. The
//! normalisation is exactly the edge-list loader's: self-loops are rejected,
//! both orientations of an edge collapse to one canonical `(min, max)` pair,
//! and duplicates are dropped — so an update batch and a file load agree on
//! what an edge *is* (see [`canonicalize_edges`], which both paths share via
//! the crate-internal `csr_from_edges` builder).
//!
//! [`GraphDelta::apply`] rebuilds the CSR in one slack-aware pass: the new
//! neighbour pool is allocated once with headroom for the inserts, and each
//! vertex's segment is produced by a three-way sorted merge (old neighbours ∪
//! inserted neighbours, minus deleted neighbours). No intermediate adjacency
//! is materialised and the result is canonical by construction, so
//! insert-then-delete round-trips reproduce the original CSR byte for byte
//! (same [`Graph::fingerprint`]).
//!
//! The module also provides the two building blocks the incremental
//! enumeration layer needs: [`dirty_two_hop_closure`] (the vertices whose DC
//! subproblem an update batch can affect, computed with the epoch-stamped
//! scratch walk) and [`update_core_decomposition`] (core numbers and
//! degeneracy ordering maintained across an update, with a changed-vertex
//! report).

use crate::core_decomp::{core_decomposition, CoreDecomposition};
use crate::graph::{Graph, VertexId};
use crate::scratch::SubproblemScratch;

/// Canonicalises a raw undirected edge list the way the edge-list loader
/// does: self-loops are rejected, each edge is oriented `(min, max)`, and the
/// list is sorted and deduplicated. Both orientations of the same edge, and
/// repeated mentions, collapse to one entry.
pub fn canonicalize_edges(edges: &mut Vec<(VertexId, VertexId)>) {
    for e in edges.iter_mut() {
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
}

/// Two-pass CSR construction over a flat undirected edge array: count
/// degrees, prefix-sum into offsets, fill each vertex's segment through a
/// cursor array, then sort + dedup each adjacency list in place with a
/// forward write cursor. Self-loops are skipped. This is the single
/// canonicalisation helper shared by the edge-list loader and the delta
/// rebuild, so file loads and update batches agree on edge semantics.
pub(crate) fn csr_from_edges(
    n: usize,
    edges: &[(VertexId, VertexId)],
) -> (Vec<usize>, Vec<VertexId>) {
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in edges {
        if u == v {
            continue;
        }
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut neighbors = vec![0 as VertexId; offsets[n]];
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for &(u, v) in edges {
        if u == v {
            continue;
        }
        neighbors[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        neighbors[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    drop(cursor);

    // Sort each adjacency list in place and drop duplicate edges, compacting
    // the pool with a forward write cursor. `write` never exceeds the current
    // segment's start, so the reads stay ahead of the writes.
    let mut write = 0usize;
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        neighbors[start..end].sort_unstable();
        offsets[v] = write;
        let mut prev = None;
        for i in start..end {
            let nb = neighbors[i];
            if prev != Some(nb) {
                neighbors[write] = nb;
                write += 1;
                prev = Some(nb);
            }
        }
    }
    offsets[n] = write;
    neighbors.truncate(write);
    (offsets, neighbors)
}

/// A normalised batch of edge updates: the inserts and deletes are each
/// canonicalised exactly like a loaded edge list ([`canonicalize_edges`]).
/// An edge named in both lists is deleted: deletes are applied last, so the
/// final edge set is `(E ∪ inserts) ∖ deletes`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    inserts: Vec<(VertexId, VertexId)>,
    deletes: Vec<(VertexId, VertexId)>,
}

impl GraphDelta {
    /// Builds a delta from raw edge lists. Self-loops, duplicates and
    /// reversed orientations are normalised away; inserting an edge that is
    /// already present (or deleting one that is absent) is a no-op at apply
    /// time.
    pub fn new(
        mut inserts: Vec<(VertexId, VertexId)>,
        mut deletes: Vec<(VertexId, VertexId)>,
    ) -> Self {
        canonicalize_edges(&mut inserts);
        canonicalize_edges(&mut deletes);
        GraphDelta { inserts, deletes }
    }

    /// The canonical insert list (`u < v`, sorted, deduplicated).
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// The canonical delete list (`u < v`, sorted, deduplicated).
    pub fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Whether the delta names no edges at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of edge updates in the batch (inserts plus deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The inverse batch: applying `self` then `self.inverse()` to a graph
    /// that contained every deleted edge and no inserted edge restores the
    /// original graph byte-identically.
    pub fn inverse(&self) -> GraphDelta {
        GraphDelta {
            inserts: self.deletes.clone(),
            deletes: self.inserts.clone(),
        }
    }

    /// The vertices whose edges the batch actually changes in `g`, sorted
    /// and deduplicated: both endpoints of every insert absent from `g` (and
    /// not deleted by the same batch) and of every delete present in `g`,
    /// plus every id the batch grows `g` by. Inserting a present edge or
    /// deleting an absent one changes nothing, so a batch for which this is
    /// empty leaves `g` as it is.
    pub fn changed_endpoints(&self, g: &Graph) -> Vec<VertexId> {
        let n = g.num_vertices();
        let present = |&(u, v): &(VertexId, VertexId)| (v as usize) < n && g.has_edge(u, v);
        let inserted = self
            .inserts
            .iter()
            .filter(|e| !present(e) && self.deletes.binary_search(e).is_err());
        let deleted = self.deletes.iter().filter(|e| present(e));
        let mut out: Vec<VertexId> = inserted
            .chain(deleted)
            .flat_map(|&(u, v)| [u, v])
            .chain(n as VertexId..self.required_vertices(g) as VertexId)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The number of vertices the updated graph needs: insert endpoints
    /// beyond the current vertex count grow the graph (vertices are never
    /// removed). Deletes never grow it: deleting an absent edge is a no-op.
    pub fn required_vertices(&self, g: &Graph) -> usize {
        let n = g.num_vertices();
        self.inserts
            .iter()
            .map(|&(_, v)| v as usize + 1)
            .fold(n, usize::max)
    }

    /// The largest insert endpoint this batch cannot grow an `n`-vertex graph
    /// to, if any. A batch of `k` inserts names at most `2k` new vertices, so
    /// an id at or above `n + 2k` skips ids, and [`apply`](Self::apply)
    /// would allocate a CSR offset for every skipped one (an id near
    /// `u32::MAX` asks for ~2³² of them). Callers that take batches from
    /// untrusted input refuse one for which this returns `Some`.
    pub fn insert_beyond_growth(&self, n: usize) -> Option<VertexId> {
        let limit = n + 2 * self.inserts.len();
        self.inserts
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| v as usize >= limit)
            .max()
    }

    /// Applies the batch to `g`, producing the updated graph via a
    /// slack-aware CSR rebuild: the neighbour pool is allocated once with
    /// headroom for the inserts, and each vertex's segment is a three-way
    /// sorted merge of its old neighbours with the inserted ones, skipping
    /// the deleted ones. Inserting a present edge and deleting an absent
    /// edge are no-ops; deletes win over inserts within one batch.
    pub fn apply(&self, g: &Graph) -> Graph {
        let n = self.required_vertices(g);
        let old_n = g.num_vertices();

        // Directed views of the canonical pairs, sorted by (src, dst) so
        // each vertex's additions/removals form one contiguous sorted run.
        let directed = |pairs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
            let mut out = Vec::with_capacity(pairs.len() * 2);
            for &(u, v) in pairs {
                out.push((u, v));
                out.push((v, u));
            }
            out.sort_unstable();
            out
        };
        let adds = directed(&self.inserts);
        let dels = directed(&self.deletes);

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        // Slack: old pool plus every insert in both directions. Deletes only
        // shrink the result, so this single allocation is never outgrown.
        let mut neighbors: Vec<VertexId> = Vec::with_capacity(g.num_edges() * 2 + adds.len());
        let (mut ai, mut di) = (0usize, 0usize);
        for v in 0..n as VertexId {
            let old: &[VertexId] = if (v as usize) < old_n {
                g.neighbors(v)
            } else {
                &[]
            };
            let add_start = ai;
            while ai < adds.len() && adds[ai].0 == v {
                ai += 1;
            }
            let del_start = di;
            while di < dels.len() && dels[di].0 == v {
                di += 1;
            }
            let add = &adds[add_start..ai];
            let del = &dels[del_start..di];

            // Merge old ∪ add (both sorted, cross-duplicates collapse), then
            // drop anything in del — all three runs walked once.
            let (mut oi, mut aj, mut dj) = (0usize, 0usize, 0usize);
            while oi < old.len() || aj < add.len() {
                let next = match (old.get(oi), add.get(aj)) {
                    (Some(&o), Some(&(_, a))) if o <= a => {
                        if o == a {
                            aj += 1; // insert of an existing edge: no-op
                        }
                        oi += 1;
                        o
                    }
                    (Some(_), Some(&(_, a))) => {
                        aj += 1;
                        a
                    }
                    (Some(&o), None) => {
                        oi += 1;
                        o
                    }
                    (None, Some(&(_, a))) => {
                        aj += 1;
                        a
                    }
                    (None, None) => unreachable!("loop condition holds"),
                };
                while dj < del.len() && del[dj].1 < next {
                    dj += 1;
                }
                if dj < del.len() && del[dj].1 == next {
                    continue; // deleted (deletes win over inserts)
                }
                neighbors.push(next);
            }
            offsets.push(neighbors.len());
        }
        Graph::from_csr_parts(offsets, neighbors)
    }
}

/// The closed two-hop closure of the vertices a delta changes (its
/// [`changed_endpoints`](GraphDelta::changed_endpoints) in `old`), under
/// **both** the old and the new graph: every vertex within distance ≤ 2 of
/// a changed endpoint before or after the batch, sorted ascending. A batch
/// that changes no edge has an empty closure.
///
/// This is exactly the set of anchors whose DC subproblem the batch can
/// change: a subproblem's subgraph is determined by the edges within
/// distance 2 of its anchor, so an anchor outside this closure extracts a
/// byte-identical subproblem before and after the update — and, because
/// every maximal quasi-clique has diameter ≤ 2 (Property 2, γ ≥ 0.5), a
/// per-vertex `query` answer for a vertex outside the closure is unchanged
/// too, which is what the serve cache's selective invalidation relies on.
///
/// The walk reuses `scratch`'s epoch-stamped array: one epoch bump, O(1)
/// clear, no allocation beyond the output vector.
pub fn dirty_two_hop_closure(
    old: &Graph,
    new: &Graph,
    delta: &GraphDelta,
    scratch: &mut SubproblemScratch,
) -> Vec<VertexId> {
    let n = old.num_vertices().max(new.num_vertices());
    let (stamp, tag) = scratch.stamp_epoch(n);
    let mut out: Vec<VertexId> = Vec::new();
    for t in delta.changed_endpoints(old) {
        for g in [old, new] {
            if (t as usize) >= g.num_vertices() {
                continue;
            }
            if stamp[t as usize] != tag {
                stamp[t as usize] = tag;
                out.push(t);
            }
            for &u in g.neighbors(t) {
                if stamp[u as usize] != tag {
                    stamp[u as usize] = tag;
                    out.push(u);
                }
                for &w in g.neighbors(u) {
                    if stamp[w as usize] != tag {
                        stamp[w as usize] = tag;
                        out.push(w);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Result of maintaining a [`CoreDecomposition`] across an update: the
/// decomposition of the new graph plus the changed-vertex report.
#[derive(Clone, Debug)]
pub struct CoreUpdate {
    /// Core numbers, degeneracy ordering and degeneracy of the new graph.
    pub cores: CoreDecomposition,
    /// Vertices whose core number differs from the old decomposition
    /// (including vertices the update added), sorted ascending.
    pub changed: Vec<VertexId>,
}

/// Maintains a core decomposition across an update batch.
///
/// Core numbers can cascade arbitrarily far from an updated edge (deleting
/// one edge of a long chain lowers the whole chain's core number), so the
/// maintenance recomputes the Batagelj–Zaversnik peel — which is already
/// O(V+E), far below the enumeration cost the decomposition feeds — and
/// diffs it against the old decomposition to produce an *exact*
/// changed-vertex report. An empty batch short-circuits to a clone.
pub fn update_core_decomposition(old: &CoreDecomposition, new_graph: &Graph) -> CoreUpdate {
    let cores = core_decomposition(new_graph);
    let changed: Vec<VertexId> = (0..new_graph.num_vertices())
        .filter(|&v| old.core_numbers.get(v).copied() != Some(cores.core_numbers[v]))
        .map(|v| v as VertexId)
        .collect();
    CoreUpdate { cores, changed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{community_graph, CommunityGraphParams};

    #[test]
    fn canonicalisation_rejects_self_loops_and_collapses_orientations() {
        // Duplicates, both orientations, and self-loops: one canonical edge
        // per undirected pair, loops gone.
        let delta = GraphDelta::new(
            vec![(2, 1), (1, 2), (3, 3), (1, 2), (4, 0)],
            vec![(5, 5), (7, 6), (6, 7)],
        );
        assert_eq!(delta.inserts(), &[(0, 4), (1, 2)]);
        assert_eq!(delta.deletes(), &[(6, 7)]);
        assert_eq!(delta.len(), 3);
        let g = Graph::from_edges(8, &[(6, 7)]);
        assert_eq!(delta.changed_endpoints(&g), vec![0, 1, 2, 4, 6, 7]);
    }

    #[test]
    fn apply_matches_from_edges_rebuild() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let delta = GraphDelta::new(vec![(0, 2), (1, 5)], vec![(2, 3), (4, 5)]);
        let updated = delta.apply(&g);
        let expected = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (0, 5), (0, 2), (1, 5)]);
        assert_eq!(updated.fingerprint(), expected.fingerprint());
        for v in updated.vertices() {
            assert_eq!(updated.neighbors(v), expected.neighbors(v));
        }
    }

    #[test]
    fn insert_present_and_delete_absent_are_noops() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let delta = GraphDelta::new(vec![(0, 1)], vec![(2, 3)]);
        let updated = delta.apply(&g);
        assert_eq!(updated.fingerprint(), g.fingerprint());
    }

    #[test]
    fn deletes_win_over_inserts_in_one_batch() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let both = GraphDelta::new(vec![(1, 2)], vec![(1, 2)]);
        assert!(!both.apply(&g).has_edge(1, 2));
        // And a present edge named by both lists ends up deleted.
        let both = GraphDelta::new(vec![(0, 1)], vec![(0, 1)]);
        assert!(!both.apply(&g).has_edge(0, 1));
    }

    #[test]
    fn endpoints_beyond_n_grow_the_graph() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let delta = GraphDelta::new(vec![(2, 6)], vec![]);
        let updated = delta.apply(&g);
        assert_eq!(updated.num_vertices(), 7);
        assert!(updated.has_edge(2, 6));
        assert!(updated.has_edge(0, 1));
        assert_eq!(updated.num_edges(), 2);
    }

    #[test]
    fn deletes_never_grow_the_graph() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let delta = GraphDelta::new(vec![], vec![(0, 10)]);
        assert_eq!(delta.required_vertices(&g), 3);
        let updated = delta.apply(&g);
        assert_eq!(updated.num_vertices(), 3);
        assert_eq!(updated.fingerprint(), g.fingerprint());
    }

    #[test]
    fn growth_bound_is_two_new_vertices_per_insert() {
        // Two inserts can name ids 3..=6 of a 3-vertex graph, not 7.
        let reachable = GraphDelta::new(vec![(0, 5), (4, 6)], vec![(0, 1000)]);
        assert_eq!(reachable.insert_beyond_growth(3), None);
        let gappy = GraphDelta::new(vec![(0, 7), (1, 2)], vec![]);
        assert_eq!(gappy.insert_beyond_growth(3), Some(7));
        let huge = GraphDelta::new(vec![(0, u32::MAX)], vec![]);
        assert_eq!(huge.insert_beyond_growth(3), Some(u32::MAX));
    }

    #[test]
    fn insert_then_delete_restores_the_original_csr() {
        let g = community_graph(
            CommunityGraphParams {
                n: 60,
                num_communities: 6,
                p_intra: 0.8,
                inter_degree: 1.0,
            },
            11,
        );
        // Edges among existing vertices that are not already present.
        let mut batch = Vec::new();
        for u in 0..60u32 {
            let v = (u * 17 + 5) % 60;
            if u != v && !g.has_edge(u, v) {
                batch.push((u, v));
            }
        }
        assert!(batch.len() > 10, "test needs a real batch");
        let delta = GraphDelta::new(batch, vec![]);
        let grown = delta.apply(&g);
        assert_ne!(grown.fingerprint(), g.fingerprint());
        let restored = delta.inverse().apply(&grown);
        assert_eq!(restored.fingerprint(), g.fingerprint());
        for v in g.vertices() {
            assert_eq!(restored.neighbors(v), g.neighbors(v));
        }
        // Identical CSR implies identical recomputed degeneracy ordering.
        let a = core_decomposition(&restored);
        let b = core_decomposition(&g);
        assert_eq!(a.ordering, b.ordering);
        assert_eq!(a.core_numbers, b.core_numbers);
    }

    #[test]
    fn dirty_closure_covers_exactly_the_two_hop_balls() {
        // Path 0-1-2-3-4-5-6: updating edge (2,3) must dirty the vertices
        // within distance 2 of 2 or 3 (old or new graph) and nothing else.
        let g = Graph::path(7);
        let delta = GraphDelta::new(vec![], vec![(2, 3)]);
        let new_g = delta.apply(&g);
        let mut scratch = SubproblemScratch::new();
        let dirty = dirty_two_hop_closure(&g, &new_g, &delta, &mut scratch);
        assert_eq!(dirty, vec![0, 1, 2, 3, 4, 5]);
        // A long-range insert dirties both balls, under old and new graph.
        let delta = GraphDelta::new(vec![(0, 6)], vec![]);
        let new_g = delta.apply(&g);
        let dirty = dirty_two_hop_closure(&g, &new_g, &delta, &mut scratch);
        assert_eq!(dirty, vec![0, 1, 2, 4, 5, 6]);
    }

    #[test]
    fn only_changed_edges_seed_the_closure() {
        let g = Graph::path(7);
        let mut scratch = SubproblemScratch::new();
        // Inserting a present edge and deleting absent ones (one beyond the
        // graph) changes nothing: no endpoint, no closure.
        let noop = GraphDelta::new(vec![(2, 3)], vec![(0, 6), (1, 40)]);
        assert!(noop.changed_endpoints(&g).is_empty());
        assert!(dirty_two_hop_closure(&g, &noop.apply(&g), &noop, &mut scratch).is_empty());
        // Only the real delete of a mixed batch seeds the walk.
        let mixed = GraphDelta::new(vec![(2, 3)], vec![(0, 1), (0, 6)]);
        assert_eq!(mixed.changed_endpoints(&g), vec![0, 1]);
        let new_g = mixed.apply(&g);
        assert_eq!(
            dirty_two_hop_closure(&g, &new_g, &mixed, &mut scratch),
            vec![0, 1, 2, 3]
        );
        // An insert the batch also deletes adds no edge, but its new ids
        // (and the one it skips) still grow the graph.
        let grow = GraphDelta::new(vec![(5, 8)], vec![(5, 8)]);
        assert_eq!(grow.changed_endpoints(&g), vec![7, 8]);
    }

    #[test]
    fn core_update_reports_changed_vertices() {
        let g = Graph::cycle(6); // all core 2
        let old = core_decomposition(&g);
        let delta = GraphDelta::new(vec![], vec![(0, 1)]);
        let new_g = delta.apply(&g);
        let update = update_core_decomposition(&old, &new_g);
        // A broken cycle is a path: every vertex drops from core 2 to 1.
        assert_eq!(update.changed, vec![0, 1, 2, 3, 4, 5]);
        assert!(update.cores.core_numbers.iter().all(|&c| c == 1));
        // No-op delta: nothing changes.
        let noop = update_core_decomposition(&update.cores, &new_g);
        assert!(noop.changed.is_empty());
    }
}
