//! Divide-and-conquer frameworks (Section 5, Algorithm 3).
//!
//! `DCFastQC` divides the graph into one subproblem per vertex: under the
//! degeneracy ordering `⟨v_1, …, v_n⟩`, subproblem `i` searches the subgraph
//! induced by `V_i = Γ²(v_i) − {v_1..v_{i−1}}` for quasi-cliques that contain
//! `v_i` and exclude all earlier vertices. Property 2 (diameter ≤ 2 for
//! γ ≥ 0.5) guarantees every maximal QC is found in exactly one subproblem.
//!
//! Before searching, each subgraph is shrunk by:
//! * the global `⌈γ(θ−1)⌉`-core reduction (line 1 of Algorithm 3),
//! * `MAX_ROUND` rounds of **one-hop** and **two-hop** pruning (Section 5).
//!
//! The *basic* DC framework of [19, 24] (`BDCFastQC` in Figure 12) is also
//! provided: it splits on the input order and applies only the one-hop rule.

use std::time::Instant;

use mqce_graph::bitset::{AdjacencyMatrix, BitSet};
use mqce_graph::subgraph::InducedSubgraph;
use mqce_graph::{Graph, SubproblemScratch, VertexId};

use crate::branch::{FlatOutcome, SearchCtx, SearchScratch};
use crate::config::{BranchingStrategy, MqceParams};
use crate::fastqc::FastQc;
use crate::prepared::PreparedGraph;
use crate::quasiclique::{required_degree, tau};
use crate::quickplus::QuickPlus;
use crate::scheduler::SplitSink;
use crate::stats::SearchStats;

/// Which branch-and-bound searcher the DC driver invokes per subproblem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerAlgorithm {
    /// FastQC (Algorithm 2) with the given branching strategy.
    FastQc(BranchingStrategy),
    /// The Quick+ baseline (Algorithm 1).
    QuickPlus,
}

impl InnerAlgorithm {
    /// Runs this searcher on `g` from the branch `(s_init, cand, implicit
    /// D)` with the caller's reusable [`SearchScratch`], leaving every
    /// emitted quasi-clique in `bufs.sets` (ids of `g`, each sorted) and
    /// returning the search statistics. The emitted family contains every
    /// maximal QC of size ≥ θ that lies in `s_init ∪ cand` and contains
    /// `s_init`.
    ///
    /// Every search runs through here: the scheduler's task body (`s_init =
    /// [v_i]` and the pruned two-hop candidates, or a donated branch), the
    /// whole-graph algorithms (`s_init = []`, every vertex) and query search
    /// (`s_init` = the query). `kernel` is a bitset kernel already built
    /// over `g`; without one the adjacency policy
    /// ([`MqceParams::uses_kernel`]) decides whether to build it. While
    /// branching at shallow depths the searcher polls `splitter` and, when a
    /// worker is hungry, donates its untaken sibling branches instead of
    /// exploring them itself.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search(
        self,
        g: &Graph,
        kernel: Option<&AdjacencyMatrix>,
        s_init: &[VertexId],
        cand: &[VertexId],
        params: MqceParams,
        deadline: Option<Instant>,
        splitter: Option<&dyn SplitSink>,
        bufs: &mut SearchScratch,
    ) -> SearchStats {
        let mut ctx = SearchCtx::new_with_kernel(g, kernel, params, s_init, cand, deadline, bufs);
        if let Some(splitter) = splitter {
            ctx = ctx.with_splitter(splitter);
        }
        let mut root = ctx.take_buf();
        root.extend_from_slice(cand);
        match self {
            InnerAlgorithm::FastQc(branching) => FastQc {
                ctx: &mut ctx,
                branching,
            }
            .recurse(root),
            InnerAlgorithm::QuickPlus => QuickPlus { ctx: &mut ctx }.recurse(root),
        };
        ctx.finish()
    }
}

/// Configuration of the divide-and-conquer driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DcConfig {
    /// Process vertices in degeneracy order (paper's DC) or input order
    /// (basic DC of [19, 24]).
    pub degeneracy_order: bool,
    /// Apply the two-hop pruning rule in addition to the one-hop rule.
    pub two_hop_pruning: bool,
    /// Number of pruning rounds per subgraph (`MAX_ROUND`).
    pub max_round: usize,
    /// Reduce the input graph to its `⌈γ(θ−1)⌉`-core first.
    pub core_reduction: bool,
}

impl DcConfig {
    /// The paper's DC framework (Algorithm 3) with the default `MAX_ROUND = 2`.
    pub fn paper_default() -> Self {
        DcConfig {
            degeneracy_order: true,
            two_hop_pruning: true,
            max_round: 2,
            core_reduction: true,
        }
    }

    /// The basic DC framework of [19, 24]: input order, one-hop pruning only.
    pub fn basic() -> Self {
        DcConfig {
            degeneracy_order: false,
            two_hop_pruning: false,
            max_round: 1,
            core_reduction: true,
        }
    }

    /// Sets `MAX_ROUND`.
    pub fn with_max_round(mut self, max_round: usize) -> Self {
        self.max_round = max_round;
        self
    }
}

/// The prepared decomposition: core-reduced graph, vertex ordering and ranks,
/// plus the parameters and DC configuration it was built for (the same ones
/// every subproblem of the plan is pruned and searched with).
pub(crate) struct DcPlan {
    /// The ⌈γ(θ−1)⌉-core of the input (or the whole graph), with id mapping.
    pub(crate) reduced: InducedSubgraph,
    /// Vertices of the reduced graph in processing order.
    pub(crate) ordering: Vec<VertexId>,
    /// `rank[v]` = position of `v` in `ordering` (any monotone values work:
    /// ranks are only ever compared).
    pub(crate) rank: Vec<usize>,
    /// Enumeration parameters.
    pub(crate) params: MqceParams,
    /// Pruning configuration.
    pub(crate) dc: DcConfig,
}

impl DcPlan {
    /// Lines 1-2 of Algorithm 3 against the cached state of a
    /// [`PreparedGraph`]: the core reduction is a filter over the prepared
    /// core numbers, and the processing order is `order` (the incremental
    /// session's stable order), else the cached global degeneracy ordering
    /// (or the input order for the basic DC), restricted to the surviving
    /// vertices — no per-run core decomposition. Any total order is sound
    /// for the DC drivers (Property 2 assigns each maximal QC to its
    /// lowest-ranked member under whatever order is in force), and the
    /// restriction of a degeneracy ordering keeps the forward-degree bound.
    pub(crate) fn from_prepared(
        prepared: &PreparedGraph,
        params: MqceParams,
        dc: DcConfig,
        order: Option<&[VertexId]>,
    ) -> DcPlan {
        let g = prepared.graph();
        let reduced: InducedSubgraph = if dc.core_reduction {
            let core_k = required_degree(params.gamma, params.theta);
            InducedSubgraph::new(g, &prepared.k_core_vertices(core_k))
        } else {
            let all: Vec<VertexId> = g.vertices().collect();
            InducedSubgraph::new(g, &all)
        };
        let order = match order {
            Some(order) => order,
            None if dc.degeneracy_order => &prepared.cores().ordering,
            None => &reduced.to_global,
        };
        let ordering: Vec<VertexId> = order.iter().filter_map(|&v| reduced.local(v)).collect();
        let mut rank = vec![0usize; reduced.graph.num_vertices()];
        for (i, &v) in ordering.iter().enumerate() {
            rank[v as usize] = i;
        }
        DcPlan {
            reduced,
            ordering,
            rank,
            params,
            dc,
        }
    }
}

/// Per-worker reusable state of the DC scheduler: subgraph-extraction scratch,
/// the inner searcher's frame/degree buffers, pruning masks and the candidate
/// list. One instance per worker thread; every buffer is allocated on first
/// use and then reused for the worker's whole run, making the per-subproblem
/// hot path allocation-free in steady state.
#[derive(Default)]
pub(crate) struct DcScratch {
    /// Epoch-stamped extraction buffers (two-hop walk + local CSR).
    pub(crate) sub: SubproblemScratch,
    /// Two-hop ball of the current anchor (reduced-graph ids).
    pub(crate) ball: Vec<VertexId>,
    /// The inner searcher's reusable buffers (incl. its output arena).
    pub(crate) search: SearchScratch,
    /// Pruning-round masks and degree snapshots.
    pub(crate) prune: PruneScratch,
    /// Pruned candidate list of the current subproblem (local ids).
    pub(crate) cand: Vec<VertexId>,
}

/// Reusable buffers for [`prune_subgraph_in`].
pub(crate) struct PruneScratch {
    /// Surviving-vertex mask after the last pruning run.
    alive: Vec<bool>,
    /// Per-round degree snapshot.
    degree: Vec<usize>,
    /// Per-round anchor-adjacency snapshot.
    anchor_adj: Vec<bool>,
    /// Word-parallel mirror of `alive` while a bitset kernel is in use.
    alive_mask: BitSet,
}

impl Default for PruneScratch {
    fn default() -> Self {
        PruneScratch {
            alive: Vec::new(),
            degree: Vec::new(),
            anchor_adj: Vec::new(),
            alive_mask: BitSet::new(0),
        }
    }
}

/// Lines 4-6 of Algorithm 3 for a single anchor vertex `vi`: build `G_i` into
/// the worker's reusable buffers and prune it. On success the pruned
/// candidate set is left in `scratch.cand` (local ids, anchor excluded).
/// Returns `None` (with `stats` still updated) when the subproblem cannot
/// hold a quasi-clique of size ≥ θ. After warmup this performs no heap
/// allocation beyond the optional bitset kernel.
pub(crate) fn build_subproblem_in(
    plan: &DcPlan,
    vi: VertexId,
    stats: &mut SearchStats,
    scratch: &mut DcScratch,
) -> Option<(InducedSubgraph, VertexId)> {
    let (params, rg) = (plan.params, &plan.reduced.graph);
    // V_i = Γ²(v_i) − {v_1..v_{i−1}} (closed 2-hop ball, later-ranked only).
    let my_rank = plan.rank[vi as usize];
    scratch.sub.two_hop_into(rg, vi, &mut scratch.ball);
    scratch.ball.retain(|&u| plan.rank[u as usize] >= my_rank);
    stats.dc_subproblems += 1;
    stats.dc_vertices_before_pruning += scratch.ball.len() as u64;
    if scratch.ball.len() < params.theta {
        stats.dc_vertices_after_pruning += scratch.ball.len() as u64;
        return None;
    }

    // Attach the bitset kernel for dense subproblems: the subgraph is
    // relabelled to 0..n, so the matrix rows are dense and are shared by the
    // pruning rounds, the searcher and its emission checks.
    let mut sub = InducedSubgraph::new_in(rg, &scratch.ball, &mut scratch.sub);
    if params.uses_kernel(sub.len(), sub.graph.num_edges()) {
        sub = sub.with_adjacency();
    }
    let local_vi = sub
        .local(vi)
        .expect("anchor vertex is always in its own 2-hop ball");

    // ---- lines 5-6: MAX_ROUND rounds of one-hop / two-hop pruning ----
    prune_subgraph_in(
        &sub.graph,
        sub.adjacency.as_ref(),
        local_vi,
        params,
        plan.dc,
        &mut scratch.prune,
    );
    let alive = &scratch.prune.alive;
    scratch.cand.clear();
    scratch.cand.extend(
        (0..sub.graph.num_vertices() as VertexId).filter(|&u| u != local_vi && alive[u as usize]),
    );
    stats.dc_vertices_after_pruning += 1 + scratch.cand.len() as u64;
    if 1 + scratch.cand.len() < params.theta {
        scratch.sub.recycle(sub);
        return None;
    }
    Some((sub, local_vi))
}

/// Runs the subproblems of `anchors` (reduced-graph ids, in processing
/// order) on the work-stealing scheduler with `threads` workers — every full
/// run and incremental dirty-anchor re-run goes through here, at every
/// thread count. A single worker is never hungry, so it never
/// splits a subproblem. The maximal family is the same at every thread
/// count (the raw S1 outputs may carry a few extra dominated sets from split
/// points, which MQCE-S2 removes).
pub(crate) fn run_anchors(
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    threads: usize,
    deadline: Option<Instant>,
) -> FlatOutcome {
    if anchors.is_empty() {
        return FlatOutcome::default();
    }
    crate::scheduler::run_dc_work_stealing(plan, anchors, inner, threads.max(1), deadline)
}

/// Applies `MAX_ROUND` rounds of one-hop and (optionally) two-hop pruning on
/// the subgraph; `anchor` (the local id of `v_i`) is never removed. The
/// surviving-vertex mask is left in `scratch.alive`. When a bitset kernel is
/// supplied, the degree and common-neighbour counts run word-parallel over an
/// alive-vertex mask. All working buffers live in `scratch` and are reused
/// across subproblems.
fn prune_subgraph_in(
    sub: &Graph,
    adj: Option<&AdjacencyMatrix>,
    anchor: VertexId,
    params: MqceParams,
    dc: DcConfig,
    scratch: &mut PruneScratch,
) {
    let n = sub.num_vertices();
    scratch.alive.clear();
    scratch.alive.resize(n, true);
    scratch.degree.clear();
    scratch.degree.resize(n, 0);
    let min_deg = required_degree(params.gamma, params.theta);
    // f(θ) = θ − τ(θ) − τ(θ+1) (common-neighbour requirement of the two-hop rule).
    let f_theta = params.theta as i64
        - tau(params.gamma, params.theta as f64)
        - tau(params.gamma, params.theta as f64 + 1.0);
    // Alive mask mirrored alongside `alive` while the kernel is in use.
    let use_mask = adj.is_some();
    if use_mask {
        scratch.alive_mask.reset_full(n);
    }

    for _ in 0..dc.max_round.max(1) {
        let mut changed = false;

        // One-hop pruning: δ(u, V_i) < ⌈γ(θ−1)⌉. Degrees are snapshotted
        // before any removal so the rule is evaluated against the round's
        // starting set, matching the slice path.
        for v in 0..n as VertexId {
            if !scratch.alive[v as usize] {
                continue;
            }
            scratch.degree[v as usize] = match adj {
                Some(m) => m.degree_in_mask(v, &scratch.alive_mask),
                None => sub
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| scratch.alive[u as usize])
                    .count(),
            };
        }
        for v in 0..n as VertexId {
            if v != anchor && scratch.alive[v as usize] && scratch.degree[v as usize] < min_deg {
                scratch.alive[v as usize] = false;
                if use_mask {
                    scratch.alive_mask.remove(v);
                }
                changed = true;
            }
        }

        // Two-hop pruning: common-neighbour counts with the anchor.
        if dc.two_hop_pruning && f_theta > 0 {
            scratch.anchor_adj.clear();
            scratch.anchor_adj.resize(n, false);
            for &u in sub.neighbors(anchor) {
                if scratch.alive[u as usize] {
                    scratch.anchor_adj[u as usize] = true;
                }
            }
            for v in 0..n as VertexId {
                if v == anchor || !scratch.alive[v as usize] {
                    continue;
                }
                let common = match adj {
                    // `row(anchor)` is not filtered by liveness, but the AND
                    // with the live alive mask subsumes the `anchor_adj`
                    // snapshot (liveness only decreases within a round).
                    Some(m) => m.common_neighbors_in_mask(v, anchor, &scratch.alive_mask) as i64,
                    None => sub
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| scratch.alive[u as usize] && scratch.anchor_adj[u as usize])
                        .count() as i64,
                };
                let threshold = if scratch.anchor_adj[v as usize] {
                    f_theta
                } else {
                    f_theta + 2
                };
                if common < threshold {
                    scratch.alive[v as usize] = false;
                    if use_mask {
                        scratch.alive_mask.remove(v);
                    }
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
impl DcPlan {
    /// Test shorthand: the plan of a whole graph, prepared on the spot.
    pub(crate) fn for_graph(g: &Graph, params: MqceParams, dc: DcConfig) -> DcPlan {
        DcPlan::from_prepared(&PreparedGraph::new(g.clone()), params, dc, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::SearchOutcome;
    use crate::naive;
    use mqce_settrie::filter_maximal;

    fn params(gamma: f64, theta: usize) -> MqceParams {
        MqceParams::new(gamma, theta).unwrap()
    }

    /// S1 over the whole graph on one thread, without S2.
    fn run_dc(
        g: &Graph,
        params: MqceParams,
        inner: InnerAlgorithm,
        dc: DcConfig,
        deadline: Option<Instant>,
    ) -> SearchOutcome {
        run_dc_parallel(g, params, inner, dc, 1, deadline)
    }

    /// S1 over the whole graph on `threads` workers, without S2.
    fn run_dc_parallel(
        g: &Graph,
        params: MqceParams,
        inner: InnerAlgorithm,
        dc: DcConfig,
        threads: usize,
        deadline: Option<Instant>,
    ) -> SearchOutcome {
        let plan = DcPlan::for_graph(g, params, dc);
        run_anchors(&plan, &plan.ordering, inner, threads, deadline).boxed()
    }

    fn check_dc_against_oracle(g: &Graph, gamma: f64, theta: usize, dc: DcConfig) {
        let p = params(gamma, theta);
        let outcome = run_dc(
            g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            dc,
            None,
        );
        assert_eq!(outcome.stats.outputs_rejected, 0);
        for h in &outcome.outputs {
            assert!(crate::quasiclique::is_quasi_clique(g, h, gamma));
            assert!(h.len() >= theta);
        }
        let filtered = filter_maximal(&outcome.outputs);
        let expected = naive::all_maximal_quasi_cliques(g, p);
        assert_eq!(
            filtered,
            expected,
            "DC mismatch gamma={gamma} theta={theta} dc={dc:?} (n={}, m={})",
            g.num_vertices(),
            g.num_edges()
        );
    }

    #[test]
    fn paper_graph_all_settings() {
        let g = Graph::paper_figure1();
        for &gamma in &[0.5, 0.6, 0.7, 0.9, 1.0] {
            for theta in 2..=4 {
                check_dc_against_oracle(&g, gamma, theta, DcConfig::paper_default());
                check_dc_against_oracle(&g, gamma, theta, DcConfig::basic());
            }
        }
    }

    /// The adjacency seam reaches both places that build a kernel: the DC
    /// subproblem builder and the whole-graph search context. Forced off,
    /// nothing carries a kernel; forced on, everything within the memory cap
    /// does; left alone, each follows [`AdjacencyMatrix::adaptive_for`].
    #[test]
    fn kernel_seam_reaches_both_decision_points() {
        // A 600-leaf star: a leaf's later-ranked two-hop ball holds the
        // centre and the later leaves, over 512 vertices with one edge per
        // leaf, so the adaptive rule keeps the slices on the larger balls
        // and on the whole graph.
        let g = Graph::star(601);
        assert!(!AdjacencyMatrix::adaptive_for(601, g.num_edges()));
        let mut adaptive_said_no = false;
        for force in [None, Some(false), Some(true)] {
            let mut p = params(0.5, 2);
            p.force_kernel = force;
            let plan = DcPlan::for_graph(&g, p, DcConfig::paper_default());
            let (mut scratch, mut stats) = (DcScratch::default(), SearchStats::default());
            let mut built = 0;
            for &vi in &plan.ordering {
                let Some((sub, _)) = build_subproblem_in(&plan, vi, &mut stats, &mut scratch)
                else {
                    continue;
                };
                let (n, m) = (sub.len(), sub.graph.num_edges());
                assert!(AdjacencyMatrix::recommended_for(n));
                let adaptive = AdjacencyMatrix::adaptive_for(n, m);
                adaptive_said_no |= !adaptive;
                let expected = force.unwrap_or(adaptive);
                assert_eq!(sub.adjacency.is_some(), expected, "{force:?}: n={n} m={m}");
                built += 1;
                scratch.sub.recycle(sub);
            }
            assert!(built > 0, "{force:?}: every subproblem was pruned away");

            let cand: Vec<VertexId> = g.vertices().collect();
            let mut bufs = SearchScratch::default();
            let ctx = SearchCtx::new(&g, p, &[], &cand, None, &mut bufs);
            assert_eq!(
                ctx.has_kernel(),
                force == Some(true),
                "{force:?}: whole graph"
            );
        }
        assert!(
            adaptive_said_no,
            "the default never differed from forced-on"
        );
    }

    #[test]
    fn random_graphs_dc_matches_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        for case in 0..30 {
            let n = rng.gen_range(5..12);
            let p = rng.gen_range(0.2..0.85);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let gamma = [0.5, 0.6, 0.75, 0.9, 0.96, 1.0][case % 6];
            let theta = 2 + case % 3;
            check_dc_against_oracle(&g, gamma, theta, DcConfig::paper_default());
        }
    }

    #[test]
    fn dc_with_quickplus_inner_matches_oracle() {
        let g = Graph::paper_figure1();
        for &gamma in &[0.6, 0.9] {
            let p = params(gamma, 3);
            let outcome = run_dc(&g, p, InnerAlgorithm::QuickPlus, DcConfig::basic(), None);
            let filtered = filter_maximal(&outcome.outputs);
            assert_eq!(filtered, naive::all_maximal_quasi_cliques(&g, p));
        }
    }

    #[test]
    fn core_reduction_shrinks_search() {
        // A 6-clique with a long pendant path: the path is outside the
        // ⌈0.9·5⌉-core and must be discarded before any subproblem is built.
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        for v in 6..20u32 {
            edges.push((v - 1, v));
        }
        let g = Graph::from_edges(20, &edges);
        let p = params(0.9, 6);
        let outcome = run_dc(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            None,
        );
        assert_eq!(outcome.stats.dc_subproblems, 6);
        assert_eq!(
            filter_maximal(&outcome.outputs),
            vec![vec![0, 1, 2, 3, 4, 5]]
        );
    }

    #[test]
    fn max_round_zero_behaves_like_one() {
        let g = Graph::paper_figure1();
        let p = params(0.6, 3);
        let dc0 = DcConfig::paper_default().with_max_round(0);
        let outcome = run_dc(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            dc0,
            None,
        );
        assert_eq!(
            filter_maximal(&outcome.outputs),
            naive::all_maximal_quasi_cliques(&g, p)
        );
    }

    #[test]
    fn two_hop_pruning_reduces_subproblem_size() {
        // Larger graph: planted dense group + sparse background. The paper's
        // DC (two-hop pruning) must not keep more vertices than the basic DC.
        use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
        let g = planted_quasi_cliques(
            60,
            0.05,
            &[PlantedGroup {
                size: 10,
                density: 1.0,
            }],
            3,
        );
        let p = params(0.9, 8);
        let paper = run_dc(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            None,
        );
        let basic = run_dc(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::basic(),
            None,
        );
        assert!(paper.stats.dc_vertices_after_pruning <= basic.stats.dc_vertices_after_pruning);
        assert_eq!(
            filter_maximal(&paper.outputs),
            filter_maximal(&basic.outputs)
        );
    }

    #[test]
    fn parallel_dc_matches_sequential() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 120,
                num_communities: 8,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            2025,
        );
        let p = params(0.85, 5);
        let sequential = run_dc(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            None,
        );
        for threads in [1, 2, 4] {
            let parallel = run_dc_parallel(
                &g,
                p,
                InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
                DcConfig::paper_default(),
                threads,
                None,
            );
            assert_eq!(
                filter_maximal(&parallel.outputs),
                filter_maximal(&sequential.outputs),
                "parallel ({threads} threads) differs from sequential"
            );
            assert_eq!(
                parallel.stats.dc_subproblems,
                sequential.stats.dc_subproblems
            );
        }
    }

    #[test]
    fn scratch_reuse_across_grid_matches_fresh_runs() {
        // Differential test for the allocation-free hot path, run through
        // the scheduler's task body: one DcScratch reused across an entire
        // γ×θ grid must produce exactly the outputs (families, order, and
        // branch counts) of a brand-new scratch per *subproblem*, and the
        // family and branch count of a fresh one-worker run — stale stamps,
        // recycled CSR buffers, or a dirty search arena would all show up
        // here. The fresh one-worker run must also emit in plan order, as
        // Algorithm 3's loop does.
        use crate::scheduler::run_roots_in;
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 90,
                num_communities: 6,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            13,
        );
        let dc = DcConfig::paper_default();
        let inner = InnerAlgorithm::FastQc(BranchingStrategy::HybridSe);
        let mut reused = DcScratch::default();
        for &gamma in &[0.7, 0.85, 0.95] {
            for theta in [3usize, 4, 6] {
                let p = params(gamma, theta);
                let fresh = run_dc(&g, p, inner, dc, None);
                let plan = DcPlan::for_graph(&g, p, dc);

                // (a) one scratch reused across the whole grid;
                let (outputs, stats) = run_roots_in(&plan, &plan.ordering, inner, &mut reused);
                let mut sorted = outputs.clone();
                sorted.sort();
                let mut fresh_sorted = fresh.outputs.clone();
                fresh_sorted.sort();
                assert_eq!(sorted, fresh_sorted, "gamma={gamma} theta={theta}");
                assert_eq!(stats.branches, fresh.stats.branches);
                assert_eq!(stats.dc_subproblems, fresh.stats.dc_subproblems);
                assert_eq!(fresh.outputs, outputs, "gamma={gamma} theta={theta}");

                // (b) a brand-new scratch per subproblem.
                let mut per_sub_outputs = Vec::new();
                let mut per_sub_stats = SearchStats::default();
                for &vi in &plan.ordering {
                    let mut per_sub = DcScratch::default();
                    let (out, st) = run_roots_in(&plan, &[vi], inner, &mut per_sub);
                    per_sub_outputs.extend(out);
                    per_sub_stats.merge(&st);
                }
                assert_eq!(per_sub_outputs, outputs, "gamma={gamma} theta={theta}");
                assert_eq!(per_sub_stats.branches, stats.branches);
            }
        }
    }

    #[test]
    fn parallel_grid_matches_sequential_across_settings() {
        // The γ×θ grid of the differential above, re-run through the
        // work-stealing driver at 1/2/4 workers: worker-owned scratches (one
        // per thread, reused across whole subproblems *and* stolen split
        // tasks) must leave the maximal family and the subproblem count
        // untouched at every setting.
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 90,
                num_communities: 6,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            13,
        );
        let dc = DcConfig::paper_default();
        let inner = InnerAlgorithm::FastQc(BranchingStrategy::HybridSe);
        for &gamma in &[0.8, 0.95] {
            for theta in [3usize, 5] {
                let p = params(gamma, theta);
                let sequential = run_dc(&g, p, inner, dc, None);
                let expected = filter_maximal(&sequential.outputs);
                for threads in [1usize, 2, 4] {
                    let parallel = run_dc_parallel(&g, p, inner, dc, threads, None);
                    assert_eq!(
                        filter_maximal(&parallel.outputs),
                        expected,
                        "gamma={gamma} theta={theta} threads={threads}"
                    );
                    assert_eq!(
                        parallel.stats.dc_subproblems,
                        sequential.stats.dc_subproblems
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_dc_on_tiny_graphs_matches_oracle() {
        let g = Graph::paper_figure1();
        let p = params(0.6, 3);
        let outcome = run_dc_parallel(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            3,
            None,
        );
        assert_eq!(
            filter_maximal(&outcome.outputs),
            naive::all_maximal_quasi_cliques(&g, p)
        );
    }

    #[test]
    fn empty_graph_and_high_theta() {
        let g = Graph::empty(10);
        let outcome = run_dc(
            &g,
            params(0.9, 2),
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            None,
        );
        assert!(outcome.outputs.is_empty());
        let g2 = Graph::complete(4);
        let outcome2 = run_dc(
            &g2,
            params(0.9, 10),
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            None,
        );
        assert!(outcome2.outputs.is_empty());
    }

    /// Finds an anchor (original-graph id) whose subproblem actually reaches
    /// the searcher, so an injected fault at that anchor is guaranteed to
    /// exercise the containment boundary.
    fn first_executing_anchor(g: &Graph, p: MqceParams, dc: DcConfig) -> VertexId {
        let plan = DcPlan::for_graph(g, p, dc);
        let mut stats = SearchStats::default();
        let mut scratch = DcScratch::default();
        for &vi in &plan.ordering {
            if let Some((sub, _)) = build_subproblem_in(&plan, vi, &mut stats, &mut scratch) {
                scratch.sub.recycle(sub);
                return plan.reduced.to_global[vi as usize];
            }
        }
        panic!("no executing subproblem on the test graph");
    }

    #[test]
    fn injected_searcher_panic_is_contained_to_its_subproblem() {
        let g = Graph::paper_figure1();
        let dc = DcConfig::paper_default();
        let mut p = params(0.6, 3);
        let anchor = first_executing_anchor(&g, p, dc);
        p.fail_anchor = Some(anchor);

        let outcome = run_dc(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            dc,
            None,
        );
        assert_eq!(outcome.stats.subproblem_panics, 1);
        assert_eq!(outcome.stats.last_panicked_anchor, Some(anchor));
        assert!(!outcome.stats.timed_out);
        assert!(outcome.stats.to_string().contains("contained_panics=1"));

        // Every output is still a valid quasi-clique, and the family is
        // complete except (at most) for sets the panicked anchor was
        // responsible for discovering.
        let expected = naive::all_maximal_quasi_cliques(&g, p);
        for h in &outcome.outputs {
            assert!(crate::quasiclique::is_quasi_clique(&g, h, p.gamma));
            assert!(
                expected.iter().any(|e| h.iter().all(|v| e.contains(v))),
                "contained run produced a set outside the true family: {h:?}"
            );
        }
        let filtered = filter_maximal(&outcome.outputs);
        for e in expected.iter().filter(|e| !e.contains(&anchor)) {
            assert!(
                filtered.contains(e),
                "maximal QC {e:?} (not involving the panicked anchor) was lost"
            );
        }
    }
}
