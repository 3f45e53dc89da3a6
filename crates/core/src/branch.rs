//! Shared branch-and-bound search state.
//!
//! Both searchers (FastQC and the Quick+ baseline) operate on a branch
//! `B = (S, C, D)`:
//!
//! * `S` — the partial set: vertices contained in every vertex set covered by
//!   the branch;
//! * `C` — the candidate set: vertices that may still be added to `S`;
//! * `D` — the exclusion set: vertices that may not appear (represented only
//!   implicitly: a vertex that is in neither `S` nor `C` is excluded).
//!
//! The state is maintained incrementally with an undo discipline instead of
//! cloning per branch: moving a vertex between `C` and `S`, or removing it
//! from `C`, updates two degree arrays (`δ(·,S)` and `δ(·,S∪C)`) in `O(d)`
//! time, exactly as the paper's complexity analysis assumes (Section 4.1).
//!
//! In addition to the degree arrays, the context optionally carries a packed
//! bitset adjacency kernel ([`AdjacencyMatrix`]). When present (small or
//! dense subproblems within the memory cap, see
//! [`AdjacencyMatrix::adaptive_for`]), edge tests become
//! `O(1)` word loads, the Rule-1 adjacency counting becomes a popcount over a
//! critical-vertex mask, and the QC predicate evaluated at every emission
//! point runs word-parallel instead of via per-vertex binary searches.

use std::borrow::Cow;
use std::time::Instant;

use mqce_graph::bitset::{AdjacencyMatrix, BitSet};
use mqce_graph::{Graph, VertexId};
use mqce_settrie::SetArena;

use crate::config::MqceParams;
use crate::quasiclique::{is_quasi_clique_in, no_single_vertex_extension_in, tau, QcScratch, EPS};
use crate::scheduler::{SplitRequest, SplitSink};
use crate::stats::{SearchStats, ThreadStats};

/// How often (in explored branches) the wall-clock deadline is polled.
const TIME_CHECK_INTERVAL: u64 = 1024;

/// Frames deeper than this never donate their untaken sibling branches:
/// near-leaf subtrees are too small to amortise the fixed cost of rebuilding
/// a search context, so only the shallow, coarse-grained frontier is split.
const MAX_SPLIT_DEPTH: u64 = 4;

/// Result of one branch-and-bound search invocation.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Quasi-cliques emitted by the search (local vertex ids, each sorted).
    pub outputs: Vec<Vec<VertexId>>,
    /// Search statistics.
    pub stats: SearchStats,
    /// Per-worker counters of the work-stealing scheduler, one per worker
    /// (empty for searches that do not go through it).
    pub thread_stats: Vec<ThreadStats>,
}

/// S1's outputs as its workers left them: one flat arena per worker
/// (original graph ids, each set sorted, duplicates possible), handed to
/// S2 without boxing.
#[derive(Debug, Default)]
pub(crate) struct FlatOutcome {
    pub(crate) sets: Vec<SetArena>,
    pub(crate) stats: SearchStats,
    pub(crate) thread_stats: Vec<ThreadStats>,
}

impl FlatOutcome {
    /// Every set boxed, in arena order.
    pub(crate) fn boxed(self) -> SearchOutcome {
        SearchOutcome {
            outputs: self.sets.iter().flat_map(SetArena::to_vecs).collect(),
            stats: self.stats,
            thread_stats: self.thread_stats,
        }
    }
}

/// Reusable per-worker search buffers.
///
/// Every array the search state needs is sized by the (local) subproblem
/// graph, so a worker that solves many subproblems in sequence can reset
/// these buffers in O(|H|) instead of re-allocating them: one
/// `SearchScratch` lives for the worker's whole run and is threaded into
/// [`SearchCtx::new_with_kernel`] per subproblem. Stolen split tasks reuse
/// the thief's scratch, not a new allocation.
pub(crate) struct SearchScratch {
    /// Vertex membership flags.
    in_s: Vec<bool>,
    in_c: Vec<bool>,
    /// The partial set `S`, as a stack (push/pop order).
    s: Vec<VertexId>,
    /// `deg_s[v] = δ(v, S)` for every vertex of the (local) graph.
    deg_s: Vec<u32>,
    /// `deg_sc[v] = δ(v, S ∪ C)` for every vertex of the (local) graph.
    deg_sc: Vec<u32>,
    /// Scratch buffer for per-candidate counting passes.
    counts: Vec<u32>,
    /// Degree recomputation buffer for [`DegSource::Recompute`].
    recompute_degs: Vec<u32>,
    /// Reusable mask for the kernel path of
    /// [`SearchCtx::count_adjacency_to`]; re-dimensioned (not re-allocated)
    /// per subproblem so the per-branch refinement never hits the allocator.
    critical_mask: BitSet,
    /// Free-list of per-frame vertex buffers (see [`SearchCtx::take_buf`]);
    /// stabilises at roughly `max_depth × buffer-kinds` entries, after which
    /// branching is allocation-free.
    pool: Vec<Vec<VertexId>>,
    /// Scratch for the per-emission quasi-clique predicates
    /// ([`SearchCtx::is_qc`], [`SearchCtx::no_extension`]), so the membership
    /// masks and BFS state they need are reused across branches.
    qc: QcScratch,
    /// Emitted quasi-cliques (local ids, each sorted), packed back-to-back.
    /// Owned by the scratch so the driver can read them by slice without
    /// boxing.
    pub(crate) sets: SetArena,
}

impl Default for SearchScratch {
    fn default() -> Self {
        SearchScratch {
            in_s: Vec::new(),
            in_c: Vec::new(),
            s: Vec::new(),
            deg_s: Vec::new(),
            deg_sc: Vec::new(),
            counts: Vec::new(),
            recompute_degs: Vec::new(),
            critical_mask: BitSet::new(0),
            pool: Vec::new(),
            qc: QcScratch::default(),
            sets: SetArena::new(),
        }
    }
}

impl SearchScratch {
    /// Re-dimensions every buffer for an `n`-vertex (local) graph and
    /// empties the emitted-set arena. O(n) and allocation-free once the
    /// buffers have grown to the largest subproblem seen.
    fn reset(&mut self, n: usize, kernel_n: Option<usize>) {
        self.in_s.clear();
        self.in_s.resize(n, false);
        self.in_c.clear();
        self.in_c.resize(n, false);
        self.s.clear();
        self.deg_s.clear();
        self.deg_s.resize(n, 0);
        self.deg_sc.clear();
        self.deg_sc.resize(n, 0);
        self.counts.clear();
        self.counts.resize(n, 0);
        if let Some(k) = kernel_n {
            self.critical_mask.reset(k);
        }
        self.sets.clear();
    }
}

/// Mutable search state shared by the branch-and-bound algorithms.
pub(crate) struct SearchCtx<'g> {
    pub(crate) g: &'g Graph,
    /// Optional packed adjacency kernel: borrowed from the DC subproblem's
    /// [`InducedSubgraph`](mqce_graph::InducedSubgraph) when one was built
    /// there, or owned when the context built it for a whole-graph search.
    kernel: Option<Cow<'g, AdjacencyMatrix>>,
    pub(crate) gamma: f64,
    pub(crate) theta: usize,
    /// Worker-owned buffers; reset per subproblem, reused across them.
    bufs: &'g mut SearchScratch,
    pub(crate) stats: SearchStats,
    deadline: Option<Instant>,
    pub(crate) aborted: bool,
    /// Children cut before they entered a branch; polled for the deadline
    /// like entered branches, but kept out of `stats.branches`.
    cut_children: u64,
    depth: u64,
    /// Cooperative work-donation hook of the work-stealing scheduler; `None`
    /// for whole-graph and query searches (the poll then compiles to a
    /// branch on a constant).
    splitter: Option<&'g dyn SplitSink>,
}

impl<'g> SearchCtx<'g> {
    /// Creates a context over `g` with the branch `(s_init, cand, implicit D)`.
    ///
    /// `s_init` and `cand` must be disjoint; vertices in neither are treated
    /// as excluded.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(
        g: &'g Graph,
        params: MqceParams,
        s_init: &[VertexId],
        cand: &[VertexId],
        deadline: Option<Instant>,
        bufs: &'g mut SearchScratch,
    ) -> Self {
        Self::new_with_kernel(g, None, params, s_init, cand, deadline, bufs)
    }

    /// [`SearchCtx::new`] with an optionally pre-built adjacency kernel
    /// (typically the one the DC driver attached to the subproblem's induced
    /// subgraph). When none is supplied, the adjacency policy
    /// ([`MqceParams::uses_kernel`]) decides whether the context builds its
    /// own.
    ///
    /// `bufs` is reset for this subproblem (clearing any previously emitted
    /// sets) and reused; after warmup, context construction performs no heap
    /// allocation beyond an optional owned kernel.
    pub(crate) fn new_with_kernel(
        g: &'g Graph,
        kernel: Option<&'g AdjacencyMatrix>,
        params: MqceParams,
        s_init: &[VertexId],
        cand: &[VertexId],
        deadline: Option<Instant>,
        bufs: &'g mut SearchScratch,
    ) -> Self {
        let n = g.num_vertices();
        let kernel: Option<Cow<'g, AdjacencyMatrix>> = kernel.map(Cow::Borrowed).or_else(|| {
            params
                .uses_kernel(n, g.num_edges())
                .then(|| Cow::Owned(AdjacencyMatrix::from_graph(g)))
        });
        bufs.reset(n, kernel.as_deref().map(|m| m.num_vertices()));
        let ctx = SearchCtx {
            g,
            kernel,
            gamma: params.gamma,
            theta: params.theta,
            bufs,
            stats: SearchStats::default(),
            deadline,
            aborted: false,
            cut_children: 0,
            depth: 0,
            splitter: None,
        };
        for &v in cand {
            debug_assert!(!ctx.bufs.in_c[v as usize], "duplicate candidate {v}");
            ctx.bufs.in_c[v as usize] = true;
        }
        for &v in s_init {
            debug_assert!(!ctx.bufs.in_c[v as usize], "vertex {v} in both S and C");
            debug_assert!(!ctx.bufs.in_s[v as usize], "duplicate S vertex {v}");
            ctx.bufs.in_s[v as usize] = true;
            ctx.bufs.s.push(v);
        }
        for &v in s_init.iter().chain(cand.iter()) {
            let in_s = ctx.bufs.in_s[v as usize];
            for &u in g.neighbors(v) {
                ctx.bufs.deg_sc[u as usize] += 1;
                if in_s {
                    ctx.bufs.deg_s[u as usize] += 1;
                }
            }
        }
        ctx
    }

    /// Attaches the work-donation hook of the work-stealing driver.
    pub(crate) fn with_splitter(mut self, splitter: &'g dyn SplitSink) -> Self {
        self.splitter = Some(splitter);
        self
    }

    /// Whether this context answers adjacency from a bitset kernel.
    #[cfg(test)]
    pub(crate) fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// Consumes the context, producing the final statistics. The emitted
    /// family stays behind in the scratch's [`SearchScratch::sets`] arena for
    /// the caller to stream or materialise.
    pub(crate) fn finish(self) -> SearchStats {
        let mut stats = self.stats;
        stats.timed_out = self.aborted;
        stats
    }

    /// Takes a cleared vertex buffer from the frame pool (allocation-free
    /// once the pool has warmed up); return it with
    /// [`put_buf`](Self::put_buf) when the frame unwinds.
    #[inline]
    pub(crate) fn take_buf(&mut self) -> Vec<VertexId> {
        self.bufs.pool.pop().unwrap_or_default()
    }

    /// Returns a frame buffer to the pool for reuse.
    #[inline]
    pub(crate) fn put_buf(&mut self, mut buf: Vec<VertexId>) {
        buf.clear();
        self.bufs.pool.push(buf);
    }

    // ---- branch bookkeeping -------------------------------------------------

    /// Current size of the partial set `S`.
    #[inline]
    pub(crate) fn s_len(&self) -> usize {
        self.bufs.s.len()
    }

    /// Current partial set (unsorted, in insertion order).
    #[inline]
    pub(crate) fn s_vertices(&self) -> &[VertexId] {
        &self.bufs.s
    }

    /// `δ(v, S)`.
    #[inline]
    pub(crate) fn deg_s(&self, v: VertexId) -> usize {
        self.bufs.deg_s[v as usize] as usize
    }

    /// `δ(v, S ∪ C)`.
    #[inline]
    pub(crate) fn deg_sc(&self, v: VertexId) -> usize {
        self.bufs.deg_sc[v as usize] as usize
    }

    /// Whether `v` is currently in `C`.
    #[inline]
    pub(crate) fn in_c(&self, v: VertexId) -> bool {
        self.bufs.in_c[v as usize]
    }

    /// Adjacency test dispatching to the bitset kernel when available
    /// (`O(1)` word load) and to the CSR binary search otherwise.
    #[inline]
    pub(crate) fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.kernel.as_deref() {
            Some(m) => m.has_edge(u, v),
            None => self.g.has_edge(u, v),
        }
    }

    /// The γ-QC predicate on `h`, kernel-accelerated when available. Runs on
    /// the reusable [`QcScratch`] so warm calls never allocate.
    #[inline]
    pub(crate) fn is_qc(&mut self, h: &[VertexId]) -> bool {
        let adj = self.kernel.as_deref();
        is_quasi_clique_in(self.g, adj, h, self.gamma, &mut self.bufs.qc)
    }

    /// Moves a candidate vertex into `S`.
    pub(crate) fn push_s(&mut self, v: VertexId) {
        debug_assert!(self.bufs.in_c[v as usize], "push_s: {v} is not a candidate");
        self.bufs.in_c[v as usize] = false;
        self.bufs.in_s[v as usize] = true;
        self.bufs.s.push(v);
        for &u in self.g.neighbors(v) {
            self.bufs.deg_s[u as usize] += 1;
        }
    }

    /// Reverses [`push_s`](Self::push_s) (the vertex returns to `C`).
    pub(crate) fn pop_s(&mut self, v: VertexId) {
        debug_assert_eq!(self.bufs.s.last(), Some(&v), "pop_s out of order");
        self.bufs.s.pop();
        self.bufs.in_s[v as usize] = false;
        self.bufs.in_c[v as usize] = true;
        for &u in self.g.neighbors(v) {
            self.bufs.deg_s[u as usize] -= 1;
        }
    }

    /// Removes a candidate vertex from `C` (moving it to the implicit
    /// exclusion set).
    pub(crate) fn remove_c(&mut self, v: VertexId) {
        debug_assert!(
            self.bufs.in_c[v as usize],
            "remove_c: {v} is not a candidate"
        );
        self.bufs.in_c[v as usize] = false;
        for &u in self.g.neighbors(v) {
            self.bufs.deg_sc[u as usize] -= 1;
        }
    }

    /// Reverses [`remove_c`](Self::remove_c).
    pub(crate) fn restore_c(&mut self, v: VertexId) {
        debug_assert!(!self.bufs.in_c[v as usize] && !self.bufs.in_s[v as usize]);
        self.bufs.in_c[v as usize] = true;
        for &u in self.g.neighbors(v) {
            self.bufs.deg_sc[u as usize] += 1;
        }
    }

    /// Enters a recursive call: counts the branch, tracks depth, and polls the
    /// deadline. Returns `false` if the search must abort.
    pub(crate) fn enter_branch(&mut self) -> bool {
        self.stats.branches += 1;
        self.depth += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.depth);
        if self.aborted {
            return false;
        }
        self.poll_deadline(self.stats.branches)
    }

    /// Counts a child that was cut before entering a branch toward the
    /// deadline poll, so a search that prunes most of its children still
    /// stops on time; check `aborted` afterwards.
    pub(crate) fn cut_child(&mut self) {
        self.cut_children += 1;
        if !self.aborted {
            self.poll_deadline(self.cut_children);
        }
    }

    /// Checks the deadline every [`TIME_CHECK_INTERVAL`] counts of `count`,
    /// marking the search aborted once it has passed.
    fn poll_deadline(&mut self, count: u64) -> bool {
        if let Some(deadline) = self.deadline {
            if count.is_multiple_of(TIME_CHECK_INTERVAL) && Instant::now() >= deadline {
                self.aborted = true;
                return false;
            }
        }
        true
    }

    /// Leaves a recursive call.
    pub(crate) fn leave_branch(&mut self) {
        self.depth -= 1;
    }

    /// Whether the current frame should donate its `rest` untaken sibling
    /// branches to hungry workers. Only shallow frames qualify (see
    /// [`MAX_SPLIT_DEPTH`]); the final word — is anyone hungry, and is the
    /// batch coarse enough — belongs to the scheduler's sink.
    #[inline]
    pub(crate) fn should_split(&self, rest: usize) -> bool {
        match self.splitter {
            Some(sink) if self.depth <= MAX_SPLIT_DEPTH && !self.aborted => sink.want_split(rest),
            _ => false,
        }
    }

    /// Donates self-contained branch descriptions to the scheduler. The
    /// caller must stop exploring those branches itself — they now belong to
    /// whichever worker steals them.
    pub(crate) fn donate(&mut self, branches: Vec<SplitRequest>) {
        if let Some(sink) = self.splitter {
            self.stats.split_donated += branches.len() as u64;
            sink.donate(branches);
        }
    }

    // ---- derived quantities -------------------------------------------------

    /// Number of non-neighbours of `v` within `S` (counting `v` itself if
    /// `v ∈ S`): `δ̄(v, S) = |S| − δ(v, S)`.
    #[inline]
    pub(crate) fn disconnections_s(&self, v: VertexId) -> usize {
        self.bufs.s.len() - self.deg_s(v)
    }

    /// `Δ(S)` — the maximum number of disconnections of a vertex within
    /// `G[S]`.
    pub(crate) fn delta_s(&self) -> usize {
        self.bufs
            .s
            .iter()
            .map(|&v| self.disconnections_s(v))
            .max()
            .unwrap_or(0)
    }

    /// `d_min(B) = min_{v∈S} δ(v, S∪C)`; `None` when `S` is empty.
    pub(crate) fn d_min(&self) -> Option<usize> {
        self.bufs.s.iter().map(|&v| self.deg_sc(v)).min()
    }

    /// `σ(B)` — the upper bound on the size of any QC under the branch
    /// (Equation 10). `cand_len` is the current `|C|`.
    pub(crate) fn sigma(&self, cand_len: usize) -> f64 {
        let total = (self.bufs.s.len() + cand_len) as f64;
        match self.d_min() {
            None => total,
            Some(dmin) => total.min(dmin as f64 / self.gamma + 1.0),
        }
    }

    /// `τ(σ(B))` for the current branch.
    pub(crate) fn tau_sigma(&self, cand_len: usize) -> i64 {
        tau(self.gamma, self.sigma(cand_len))
    }

    /// Whether `σ(B) < |S|`, i.e. region `R'2` is empty and the branch can be
    /// pruned outright.
    pub(crate) fn sigma_below_s(&self, cand_len: usize) -> bool {
        self.sigma(cand_len) + EPS < self.bufs.s.len() as f64
    }

    /// `Δ(S ∪ C)` for the current branch, where `cand` is the current
    /// candidate list.
    pub(crate) fn delta_sc(&self, cand: &[VertexId]) -> usize {
        let total = self.bufs.s.len() + cand.len();
        self.bufs
            .s
            .iter()
            .chain(cand.iter())
            .map(|&v| total - self.deg_sc(v))
            .max()
            .unwrap_or(0)
    }

    // ---- refinement helpers -------------------------------------------------

    /// Computes, for each candidate in `cand`, how many of the `critical`
    /// vertices it is adjacent to; the result is written into the scratch
    /// buffer and returned as a closure-friendly vector indexed by vertex id.
    ///
    /// Used by Refinement Rule 1: with `Δ(S) ≤ τ`, `Δ(S∪{v}) > τ` holds iff
    /// `δ̄(v, S∪{v}) > τ` or `v` misses some vertex `u ∈ S` with
    /// `δ̄(u,S) = τ`; the latter set is `critical`.
    pub(crate) fn count_adjacency_to(&mut self, critical: &[VertexId], cand: &[VertexId]) {
        if !critical.is_empty() {
            if let Some(m) = self.kernel.as_deref() {
                // Word-parallel path: one popcount over the critical-vertex
                // mask per candidate, `O(|C| · n/64)` instead of
                // `O(Σ_{u ∈ critical} d(u))`.
                let mask = &mut self.bufs.critical_mask;
                mask.clear();
                for &u in critical {
                    mask.insert(u);
                }
                for &v in cand {
                    self.bufs.counts[v as usize] =
                        m.degree_in_mask(v, &self.bufs.critical_mask) as u32;
                }
                return;
            }
        }
        for &v in cand {
            self.bufs.counts[v as usize] = 0;
        }
        for &u in critical {
            for &w in self.g.neighbors(u) {
                // Only counts for candidates; other entries are ignored.
                self.bufs.counts[w as usize] = self.bufs.counts[w as usize].wrapping_add(1);
            }
        }
    }

    /// Reads the counter produced by
    /// [`count_adjacency_to`](Self::count_adjacency_to).
    #[inline]
    pub(crate) fn adjacency_count(&self, v: VertexId) -> u32 {
        self.bufs.counts[v as usize]
    }

    // ---- output -------------------------------------------------------------

    /// Emits the vertex set `h` as a quasi-clique output.
    ///
    /// * Verifies the QC predicate (a violation indicates a bug and is counted
    ///   in `outputs_rejected` instead of silently corrupting the S1 output —
    ///   a non-QC in the output could eliminate a true MQC during filtering).
    /// * If `check_maximality` is set, applies the necessary condition of
    ///   maximality (no single-vertex extension is a QC) used by FastQC;
    ///   `deg_source` tells the context where `δ(·, h)` can be read from.
    ///
    /// Returns `true` if the set was actually emitted.
    pub(crate) fn emit(
        &mut self,
        h: &[VertexId],
        deg_source: DegSource,
        check_maximality: bool,
    ) -> bool {
        if h.len() < self.theta {
            return false;
        }
        if !self.is_qc(h) {
            self.stats.outputs_rejected += 1;
            debug_assert!(false, "attempted to emit a non-quasi-clique: {h:?}");
            return false;
        }
        if check_maximality && !self.no_extension(h, deg_source) {
            self.stats.outputs_suppressed_by_maximality += 1;
            return false;
        }
        self.bufs.sets.begin();
        for &v in h {
            self.bufs.sets.push_elem(v);
        }
        self.bufs.sets.commit_sorted();
        self.stats.outputs += 1;
        true
    }

    /// The necessary condition of maximality: no single vertex extends `h`
    /// to a larger quasi-clique. `deg_source` tells the context where
    /// `δ(·, h)` can be read from; [`DegSource::Recompute`] fills a reusable
    /// scratch buffer instead of allocating.
    pub(crate) fn no_extension(&mut self, h: &[VertexId], deg_source: DegSource) -> bool {
        if matches!(deg_source, DegSource::Recompute) {
            self.bufs.recompute_degs.clear();
            self.bufs.recompute_degs.resize(self.g.num_vertices(), 0);
            for &v in h {
                for &u in self.g.neighbors(v) {
                    self.bufs.recompute_degs[u as usize] += 1;
                }
            }
        }
        let degs: &[u32] = match deg_source {
            DegSource::PartialSet => &self.bufs.deg_s,
            DegSource::PartialAndCandidates => &self.bufs.deg_sc,
            DegSource::Recompute => &self.bufs.recompute_degs,
        };
        no_single_vertex_extension_in(
            self.g,
            self.kernel.as_deref(),
            h,
            degs,
            self.g.vertices(),
            self.gamma,
            &mut self.bufs.qc,
        )
    }
}

/// Where [`SearchCtx::emit`] reads `δ(·, h)` from when checking the necessary
/// condition of maximality.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum DegSource {
    /// `h == S`: use the maintained `δ(·, S)` array.
    PartialSet,
    /// `h == S ∪ C`: use the maintained `δ(·, S∪C)` array.
    PartialAndCandidates,
    /// Recompute `δ(·, h)` from scratch (used by the Quick+ baseline).
    Recompute,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(gamma: f64, theta: usize) -> MqceParams {
        MqceParams::new(gamma, theta).unwrap()
    }

    #[test]
    fn degree_arrays_initialised_correctly() {
        let mut bufs = SearchScratch::default();
        let g = Graph::paper_figure1();
        let cand: Vec<VertexId> = (1..9).collect();
        let ctx = SearchCtx::new(&g, params(0.9, 2), &[0], &cand, None, &mut bufs);
        for v in g.vertices() {
            assert_eq!(ctx.deg_sc(v), g.degree(v), "deg_sc mismatch at {v}");
            assert_eq!(
                ctx.deg_s(v),
                usize::from(g.has_edge(v, 0)),
                "deg_s mismatch at {v}"
            );
        }
        assert_eq!(ctx.s_len(), 1);
    }

    #[test]
    fn push_pop_and_remove_are_inverses() {
        let mut bufs = SearchScratch::default();
        let g = Graph::complete(6);
        let cand: Vec<VertexId> = (0..6).collect();
        let mut ctx = SearchCtx::new(&g, params(0.9, 2), &[], &cand, None, &mut bufs);
        let before_s: Vec<u32> = (0..6).map(|v| ctx.deg_s(v) as u32).collect();
        let before_sc: Vec<u32> = (0..6).map(|v| ctx.deg_sc(v) as u32).collect();

        ctx.push_s(2);
        assert!(!ctx.in_c(2));
        assert_eq!(ctx.deg_s(0), 1);
        ctx.remove_c(4);
        assert!(!ctx.in_c(4));
        assert_eq!(ctx.deg_sc(0), 4);
        ctx.restore_c(4);
        ctx.pop_s(2);

        let after_s: Vec<u32> = (0..6).map(|v| ctx.deg_s(v) as u32).collect();
        let after_sc: Vec<u32> = (0..6).map(|v| ctx.deg_sc(v) as u32).collect();
        assert_eq!(before_s, after_s);
        assert_eq!(before_sc, after_sc);
        assert!(ctx.in_c(2) && ctx.in_c(4));
    }

    #[test]
    fn delta_and_sigma() {
        let mut bufs = SearchScratch::default();
        let g = Graph::paper_figure1();
        // Branch with S = {v1, v3, v4} = {0, 2, 3} and C = the rest, as in the
        // Section 4.2 walk-through (numbers differ because the figure's exact
        // edge set is reconstructed, but the definitions are exercised).
        let s = [0u32, 2, 3];
        let cand: Vec<VertexId> = vec![1, 4, 5, 6, 7, 8];
        let ctx = SearchCtx::new(&g, params(0.7, 2), &s, &cand, None, &mut bufs);
        // Δ(S): v1 is non-adjacent to v4 and itself → 2.
        assert_eq!(ctx.delta_s(), 2);
        assert_eq!(ctx.disconnections_s(0), 2);
        // d_min = min degree of S members in the full graph.
        let expect_dmin = s.iter().map(|&v| g.degree(v)).min().unwrap();
        assert_eq!(ctx.d_min(), Some(expect_dmin));
        let sigma = ctx.sigma(cand.len());
        assert!(sigma <= 9.0 + 1e-9);
        assert!((sigma - (expect_dmin as f64 / 0.7 + 1.0).min(9.0)).abs() < 1e-9);
    }

    #[test]
    fn delta_sc_matches_bruteforce() {
        let mut bufs = SearchScratch::default();
        let g = Graph::paper_figure1();
        let cand: Vec<VertexId> = (0..9).collect();
        let ctx = SearchCtx::new(&g, params(0.9, 2), &[], &cand, None, &mut bufs);
        let brute = crate::quasiclique::max_disconnections(&g, &cand);
        assert_eq!(ctx.delta_sc(&cand), brute);
    }

    #[test]
    fn emit_checks_qc_and_size() {
        let mut bufs = SearchScratch::default();
        let g = Graph::complete(4);
        let cand: Vec<VertexId> = (0..4).collect();
        let mut ctx = SearchCtx::new(&g, params(0.9, 3), &[], &cand, None, &mut bufs);
        assert!(
            !ctx.emit(&[0, 1], DegSource::Recompute, false),
            "below theta"
        );
        assert!(ctx.emit(&[0, 1, 2, 3], DegSource::Recompute, false));
        assert_eq!(ctx.stats.outputs, 1);
        assert_eq!(ctx.stats.outputs_rejected, 0);
    }

    #[test]
    fn emit_maximality_filter() {
        let mut bufs = SearchScratch::default();
        let g = Graph::complete(5);
        let cand: Vec<VertexId> = (0..5).collect();
        let mut ctx = SearchCtx::new(&g, params(0.9, 3), &[], &cand, None, &mut bufs);
        // {0,1,2,3} extends to the full clique → suppressed.
        assert!(!ctx.emit(&[0, 1, 2, 3], DegSource::Recompute, true));
        assert_eq!(ctx.stats.outputs_suppressed_by_maximality, 1);
        assert!(ctx.emit(&[0, 1, 2, 3, 4], DegSource::Recompute, true));
    }

    #[test]
    fn sigma_below_s_detects_empty_region() {
        let mut bufs = SearchScratch::default();
        // Star: centre 0 with 5 leaves; S = two leaves (non-adjacent).
        let g = Graph::star(6);
        let ctx = SearchCtx::new(&g, params(0.9, 2), &[1, 2], &[0, 3, 4, 5], None, &mut bufs);
        // d_min = 1 (each leaf sees only the centre), σ = 1/0.9 + 1 ≈ 2.11 ≥ 2,
        // so the region is not empty yet...
        assert!(!ctx.sigma_below_s(4));
        // ...but with a third leaf in S, σ ≈ 2.11 < 3.
        let ctx = SearchCtx::new(&g, params(0.9, 2), &[1, 2, 3], &[0, 4, 5], None, &mut bufs);
        assert!(ctx.sigma_below_s(3));
    }

    #[test]
    fn enter_branch_counts_and_aborts_on_deadline() {
        let mut bufs = SearchScratch::default();
        let g = Graph::complete(3);
        let cand: Vec<VertexId> = (0..3).collect();
        let deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        let mut ctx = SearchCtx::new(&g, params(0.9, 2), &[], &cand, deadline, &mut bufs);
        // The deadline is polled every TIME_CHECK_INTERVAL branches.
        let mut aborted = false;
        for _ in 0..(TIME_CHECK_INTERVAL + 1) {
            if !ctx.enter_branch() {
                aborted = true;
                break;
            }
            ctx.leave_branch();
        }
        assert!(aborted);
        assert!(ctx.finish().timed_out);
    }
}
