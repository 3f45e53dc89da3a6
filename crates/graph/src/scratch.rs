//! Reusable per-worker scratch for allocation-free subgraph extraction.
//!
//! The divide-and-conquer driver builds one induced subgraph per vertex —
//! hundreds of thousands of them on SNAP-class inputs. The naive
//! [`InducedSubgraph::new`] pays a `vec![u32::MAX; N]` local-id map
//! (O(whole-graph) work *per subproblem*), a `Vec<Vec<_>>` adjacency, and a
//! second copy inside `Graph::from_adjacency`. [`SubproblemScratch`] removes
//! all of that from the steady state:
//!
//! * an **epoch-stamped local-id map**: one `u32` stamp array allocated once
//!   per worker; an entry is valid only when `stamp[v]` equals the current
//!   epoch, so "clearing" the map is a single epoch bump (O(1)) instead of an
//!   O(N) refill. The epoch wraps safely by zeroing the stamps once every
//!   `u32::MAX` uses.
//! * **reusable CSR buffers**: [`InducedSubgraph::new_in`] fills `offsets` /
//!   `neighbors` directly in a single pass (see below) and the finished
//!   subgraph can be handed back with [`SubproblemScratch::recycle`], so the
//!   buffers ping-pong between the scratch and the live subproblem without
//!   touching the allocator.
//! * a **stamped two-hop walk** ([`SubproblemScratch::two_hop_into`])
//!   replacing the `vec![false; N]` visited map of
//!   [`two_hop_neighborhood`](crate::subgraph::two_hop_neighborhood).
//!
//! Single-pass CSR extraction: the host graph's adjacency lists are sorted by
//! global id and the `to_global` map is sorted ascending, so the global→local
//! relabelling is monotone — mapped local adjacency lists come out already
//! sorted. One sweep appending stamped neighbours in local-vertex order
//! therefore produces a finished CSR; the "two-pass degree-count + fill"
//! shape is only needed when edges arrive unordered (see the edge-list
//! loader).

use crate::graph::{Graph, VertexId};
use crate::subgraph::InducedSubgraph;

/// Reusable buffers for building [`InducedSubgraph`]s without steady-state
/// heap allocation. One instance per worker thread; see the module docs.
#[derive(Debug, Default)]
pub struct SubproblemScratch {
    /// `stamp[v] == epoch` ⇔ `local_id[v]` is valid for the current use.
    stamp: Vec<u32>,
    /// Local id of global vertex `v` under the current epoch.
    local_id: Vec<u32>,
    /// Current validity tag; bumped before every use so `0` never matches.
    epoch: u32,
    /// Reusable CSR offsets buffer (returned via [`Self::recycle`]).
    offsets: Vec<usize>,
    /// Reusable CSR neighbours buffer.
    neighbors: Vec<VertexId>,
    /// Reusable sorted member list.
    to_global: Vec<VertexId>,
}

impl SubproblemScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused for the worker's whole run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the stamp arrays cover vertices `0..n`. New entries are
    /// zero-initialised, which can never equal a live epoch (epochs start
    /// at 1), so growth does not invalidate the stamping discipline.
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.local_id.resize(n, 0);
        }
    }

    /// Starts a new stamped use over a universe of `n` vertices and returns
    /// `(stamp, tag)`: an entry is "marked" for this use iff
    /// `stamp[v] == tag`. Also used directly by walks that mark vertices
    /// without building a subgraph (the update step's dirty closure), so
    /// they share this array instead of allocating their own stamp `Vec`.
    pub fn stamp_epoch(&mut self, n: usize) -> (&mut [u32], u32) {
        let tag = self.bump_epoch(n);
        (&mut self.stamp[..], tag)
    }

    /// Bumps the epoch for a universe of `n` vertices and returns the fresh
    /// tag; fields are then addressed directly (borrow-splitting helper).
    fn bump_epoch(&mut self, n: usize) -> u32 {
        self.ensure(n);
        if self.epoch == u32::MAX {
            // Wrap: all outstanding tags become ambiguous, so forget them.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Collects the closed 2-hop neighbourhood `{v} ∪ Γ(v) ∪ Γ(Γ(v))` of `v`
    /// into `out` (cleared first; result sorted ascending). Equivalent to
    /// [`two_hop_neighborhood`](crate::subgraph::two_hop_neighborhood) but
    /// reuses the stamp array instead of allocating a visited map.
    pub fn two_hop_into(&mut self, g: &Graph, v: VertexId, out: &mut Vec<VertexId>) {
        let (stamp, tag) = self.stamp_epoch(g.num_vertices());
        out.clear();
        stamp[v as usize] = tag;
        out.push(v);
        for &u in g.neighbors(v) {
            if stamp[u as usize] != tag {
                stamp[u as usize] = tag;
                out.push(u);
            }
        }
        for &u in g.neighbors(v) {
            for &w in g.neighbors(u) {
                if stamp[w as usize] != tag {
                    stamp[w as usize] = tag;
                    out.push(w);
                }
            }
        }
        out.sort_unstable();
    }

    /// Builds the subgraph of `g` induced by `vertices` into this scratch's
    /// buffers (the worker-facing entry point is
    /// [`InducedSubgraph::new_in`]). Duplicates in `vertices` are removed;
    /// order does not matter. After warmup this performs no heap allocation.
    pub(crate) fn extract(&mut self, g: &Graph, vertices: &[VertexId]) -> InducedSubgraph {
        let mut to_global = std::mem::take(&mut self.to_global);
        to_global.clear();
        to_global.extend_from_slice(vertices);
        to_global.sort_unstable();
        to_global.dedup();

        let tag = self.bump_epoch(g.num_vertices());
        for (local, &global) in to_global.iter().enumerate() {
            self.stamp[global as usize] = tag;
            self.local_id[global as usize] = local as u32;
        }

        let mut offsets = std::mem::take(&mut self.offsets);
        let mut neighbors = std::mem::take(&mut self.neighbors);
        offsets.clear();
        neighbors.clear();
        offsets.push(0);
        // Single pass: the global→local map is monotone over g's sorted
        // adjacency lists, so each local list is appended already sorted.
        for &global in &to_global {
            for &nb in g.neighbors(global) {
                if self.stamp[nb as usize] == tag {
                    neighbors.push(self.local_id[nb as usize]);
                }
            }
            offsets.push(neighbors.len());
        }

        InducedSubgraph {
            graph: Graph::from_csr_parts(offsets, neighbors),
            to_global,
            adjacency: None,
        }
    }

    /// Reclaims the CSR and member buffers of a finished subproblem so the
    /// next [`InducedSubgraph::new_in`] call reuses them instead of
    /// allocating. Accepts any subgraph; larger buffers win.
    pub fn recycle(&mut self, sub: InducedSubgraph) {
        let (offsets, neighbors) = sub.graph.into_csr_parts();
        self.recycle_parts(offsets, neighbors, sub.to_global);
    }

    /// Buffer-level variant of [`Self::recycle`] for callers that have
    /// already decomposed the subproblem (e.g. the work-stealing scheduler,
    /// which keeps the graph inside a shared task and reclaims it only once
    /// every stolen branch has finished).
    pub fn recycle_graph(&mut self, graph: Graph, to_global: Vec<VertexId>) {
        let (offsets, neighbors) = graph.into_csr_parts();
        self.recycle_parts(offsets, neighbors, to_global);
    }

    fn recycle_parts(
        &mut self,
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        to_global: Vec<VertexId>,
    ) {
        if offsets.capacity() > self.offsets.capacity() {
            self.offsets = offsets;
        }
        if neighbors.capacity() > self.neighbors.capacity() {
            self.neighbors = neighbors;
        }
        if to_global.capacity() > self.to_global.capacity() {
            self.to_global = to_global;
        }
    }

    /// Forces the epoch close to the wrap point (test support).
    #[cfg(test)]
    pub(crate) fn set_epoch_near_wrap(&mut self) {
        self.epoch = u32::MAX - 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{community_graph, CommunityGraphParams};
    use crate::subgraph::two_hop_neighborhood;

    fn assert_same_subgraph(a: &InducedSubgraph, b: &InducedSubgraph) {
        assert_eq!(a.to_global, b.to_global);
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for v in a.graph.vertices() {
            assert_eq!(a.graph.neighbors(v), b.graph.neighbors(v));
        }
    }

    #[test]
    fn new_in_matches_new_on_varied_shapes() {
        let graphs = vec![
            Graph::complete(9),
            Graph::path(12),
            Graph::cycle(7),
            Graph::star(10),
            Graph::paper_figure1(),
            community_graph(
                CommunityGraphParams {
                    n: 60,
                    num_communities: 5,
                    p_intra: 0.8,
                    inter_degree: 1.5,
                },
                11,
            ),
        ];
        let mut scratch = SubproblemScratch::new();
        for g in &graphs {
            let n = g.num_vertices() as u32;
            let picks: Vec<Vec<u32>> = vec![
                vec![],
                (0..n).collect(),
                (0..n).step_by(2).collect(),
                (0..n.min(5)).rev().collect(),
                vec![0, 0, n - 1, n - 1, n / 2],
            ];
            for vs in picks {
                let fresh = InducedSubgraph::new(g, &vs);
                let scr = InducedSubgraph::new_in(g, &vs, &mut scratch);
                assert_same_subgraph(&fresh, &scr);
                scratch.recycle(scr);
            }
        }
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let g = Graph::complete(6);
        let mut scratch = SubproblemScratch::new();
        // Mark everything under an early epoch, then force a wrap and check
        // the stale stamps are not mistaken for live ones.
        let _ = InducedSubgraph::new_in(&g, &[0, 1, 2, 3, 4, 5], &mut scratch);
        scratch.set_epoch_near_wrap();
        for _ in 0..8 {
            let fresh = InducedSubgraph::new(&g, &[1, 3]);
            let scr = InducedSubgraph::new_in(&g, &[1, 3], &mut scratch);
            assert_same_subgraph(&fresh, &scr);
            scratch.recycle(scr);
        }
    }

    #[test]
    fn two_hop_into_matches_allocating_version() {
        let g = community_graph(
            CommunityGraphParams {
                n: 80,
                num_communities: 8,
                p_intra: 0.7,
                inter_degree: 1.0,
            },
            3,
        );
        let mut scratch = SubproblemScratch::new();
        let mut out = Vec::new();
        for v in g.vertices() {
            scratch.two_hop_into(&g, v, &mut out);
            assert_eq!(out, two_hop_neighborhood(&g, v));
        }
    }

    #[test]
    fn recycle_keeps_buffers_warm() {
        let g = Graph::complete(32);
        let vs: Vec<u32> = (0..32).collect();
        let mut scratch = SubproblemScratch::new();
        let sub = InducedSubgraph::new_in(&g, &vs, &mut scratch);
        let ptr = sub.graph.neighbors(0).as_ptr();
        scratch.recycle(sub);
        // Same-size re-extraction reuses the recycled neighbour buffer.
        let sub2 = InducedSubgraph::new_in(&g, &vs, &mut scratch);
        assert_eq!(sub2.graph.neighbors(0).as_ptr(), ptr);
    }
}
