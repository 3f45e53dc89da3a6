//! Multi-process sharded enumeration: anchor-range planning, per-shard
//! execution, and the exact cross-shard frontier merge.
//!
//! The divide-and-conquer decomposition makes every per-vertex subproblem a
//! pure function of its anchor's two-hop-closed slice, so the anchor list
//! can be partitioned into contiguous rank ranges ("shards") and each shard
//! executed in a separate process against a self-contained graph slice:
//!
//! 1. [`plan_shards`] partitions the plan ordering into `num_shards`
//!    contiguous rank ranges, cost-balanced with the scheduler's two-hop
//!    estimates, and extracts for each range the subgraph induced by the
//!    union of its anchors' **closed two-hop balls** (unfiltered by rank:
//!    a worker re-derives each ball inside the slice, and two-hop paths may
//!    route through earlier-ranked intermediates). Within the slice, every
//!    anchor's ball — and therefore its whole subproblem — is reproduced
//!    byte-for-byte, because all intermediate vertices of any 2-path from
//!    an anchor lie inside that anchor's ball.
//! 2. [`run_shard`] (also the body of the `mqce shard-worker` process) runs
//!    the shared anchor driver and pipeline tail over a plan whose ordering
//!    is just the shard's anchors and whose rank array carries the *global*
//!    session ranks (ranks are only ever compared, never indexed, so any
//!    monotone values are sound). The shard's engine output is the maximal
//!    family of the shard's own emissions.
//! 3. [`merge_shard_families`] restores exact global maximality through a
//!    single [`MaximalityEngine`](mqce_settrie::MaximalityEngine) restricted
//!    to the **cross-shard frontier** — the same argument as the incremental
//!    merge. A set with anchor `a` is frontier iff `a`'s closed two-hop
//!    ball leaves the shard's rank range. If `T ⊋ S` with anchors `b`, `a`,
//!    then `b, a ∈ T` and `G[T]` has diameter ≤ 2 (γ ≥ ½), so each anchor
//!    lies in the other's ball; if the two sets come from different shards
//!    both are frontier, and if from the same shard the shard's local
//!    engine already resolved them. Interior sets can therefore neither
//!    dominate nor be dominated across shards and are spliced back in with
//!    the canonical merge — the final family is byte-identical to a
//!    single-process run (asserted differentially in the test suite).

use std::time::Instant;

use mqce_graph::slice::GraphSlice;
use mqce_graph::subgraph::InducedSubgraph;
use mqce_graph::{SubproblemScratch, VertexId};
use mqce_settrie::S2Decision;

use crate::config::MqceConfig;
use crate::dc::{run_anchors, DcPlan, EngineFactory};
use crate::incremental::merge_canonical;
use crate::pipeline::{dc_setup, finish_run};
use crate::prepared::PreparedGraph;
use crate::scheduler::subproblem_estimates;
use crate::stats::SearchStats;

/// One shard of the anchor list: a contiguous rank range plus the
/// self-contained graph slice its subproblems run on.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Shard index (`0..num_shards`).
    pub index: usize,
    /// The union of the shard anchors' closed two-hop balls, induced and
    /// relabelled; `slice.to_global` maps to original-graph ids.
    pub slice: GraphSlice,
    /// The shard's anchors as slice-local ids, in session rank order.
    pub anchors: Vec<VertexId>,
    /// Per slice-local vertex: its global session rank (compared, never
    /// indexed, by the DC drivers).
    pub rank: Vec<usize>,
    /// Sum of the two-hop cost estimates of the shard's anchors.
    pub estimated_cost: usize,
}

/// The coordinator's shard decomposition: the shards to dispatch plus the
/// global lookup tables the frontier merge classifies returned sets with.
pub struct ShardPlan {
    /// The shards, in rank order.
    pub shards: Vec<ShardSpec>,
    /// Per original-graph vertex: its session rank, `usize::MAX` for
    /// vertices the core reduction removed (they appear in no emitted set).
    pub rank_of: Vec<usize>,
    /// Per original-graph vertex: whether, as an anchor, its closed two-hop
    /// ball crosses its shard's rank boundary — sets anchored there must go
    /// through the coordinator's frontier engine.
    pub frontier: Vec<bool>,
}

impl ShardPlan {
    /// Session rank of an original-graph vertex (`usize::MAX` if it was
    /// removed by the core reduction).
    pub fn rank_of(&self, v: VertexId) -> usize {
        self.rank_of.get(v as usize).copied().unwrap_or(usize::MAX)
    }

    /// The anchor (minimum-rank member) of an emitted set.
    pub fn anchor_of(&self, set: &[VertexId]) -> Option<VertexId> {
        set.iter().copied().min_by_key(|&v| self.rank_of(v))
    }
}

/// What one shard's execution returned: the maximal family of the shard's
/// own emissions, in canonical (lexicographic) order over original ids.
#[derive(Clone, Debug, Default)]
pub struct ShardFamily {
    /// The shard-local maximal family.
    pub mqcs: Vec<Vec<VertexId>>,
    /// Aggregated S1 statistics of the shard's subproblems.
    pub stats: SearchStats,
    /// Whether the shard hit a deadline (its family may be incomplete).
    pub timed_out: bool,
}

/// The coordinator-side merge result.
pub struct MergedShards {
    /// The exact global maximal family (canonical order).
    pub mqcs: Vec<Vec<VertexId>>,
    /// The merge engine's dispatch audit (recorded separately from
    /// per-subproblem decisions; see [`S2Stats::merge_decision`](crate::stats::S2Stats::merge_decision)).
    pub merge_decision: Option<S2Decision>,
    /// The backend that performed the frontier compaction.
    pub backend: String,
}

/// An end-to-end sharded run (the in-process driver used by the
/// differential tests and the `shards` bench profile; the CLI coordinator
/// runs the same plan/execute/merge steps with worker processes).
pub struct ShardOutcome {
    /// The exact global maximal family (canonical order).
    pub mqcs: Vec<Vec<VertexId>>,
    /// Number of shards executed.
    pub shards: usize,
    /// Per-shard wall-clock milliseconds.
    pub shard_millis: Vec<f64>,
    /// Wall-clock milliseconds of the coordinator's frontier merge.
    pub merge_millis: f64,
    /// Whether any shard was cut short (deadline, contained panic, or — in
    /// the multi-process coordinator — a lost worker): the family is then a
    /// sound partial result rather than the exact one.
    pub best_effort: bool,
    /// S1 statistics aggregated over all shards.
    pub stats: SearchStats,
    /// The merge engine's dispatch audit.
    pub merge_decision: Option<S2Decision>,
}

/// Partitions the anchor list into `num_shards` cost-balanced contiguous
/// rank ranges and extracts each range's two-hop-closed slice. Returns
/// `None` for algorithms without a DC decomposition (nothing to shard —
/// callers fall back to a single-process run).
pub fn plan_shards(
    prepared: &PreparedGraph,
    config: &MqceConfig,
    num_shards: usize,
) -> Option<ShardPlan> {
    let (_inner, dc) = dc_setup(config)?;
    let plan = DcPlan::from_prepared(prepared, config.params, dc, None);
    let n_orig = prepared.graph().num_vertices();
    let mut rank_of = vec![usize::MAX; n_orig];
    for (local, &orig) in plan.reduced.to_global.iter().enumerate() {
        rank_of[orig as usize] = plan.rank[local];
    }
    let mut shard_plan = ShardPlan {
        shards: Vec::new(),
        rank_of,
        frontier: vec![false; n_orig],
    };
    let total_anchors = plan.ordering.len();
    if total_anchors == 0 {
        return Some(shard_plan);
    }

    // Cost-balanced contiguous cuts over the estimate prefix: each shard
    // takes anchors until it reaches its share of the remaining cost,
    // always leaving at least one anchor per remaining shard.
    let estimates = subproblem_estimates(&plan, &plan.ordering);
    let num_shards = num_shards.max(1).min(total_anchors);
    let mut remaining_cost: usize = estimates.iter().sum();
    let mut scratch = SubproblemScratch::new();
    let mut ball: Vec<VertexId> = Vec::new();
    let rg = &plan.reduced.graph;
    let mut in_slice = vec![false; rg.num_vertices()];
    let mut pos = 0usize;
    for index in 0..num_shards {
        let shards_left = num_shards - index;
        let target = remaining_cost.div_ceil(shards_left);
        let max_end = total_anchors - (shards_left - 1);
        let mut end = pos;
        let mut acc = 0usize;
        while end < max_end && (end == pos || acc < target) {
            acc += estimates[end];
            end += 1;
        }
        remaining_cost = remaining_cost.saturating_sub(acc);

        // Slice membership: the union of the closed two-hop balls of the
        // range's anchors (unfiltered by rank — see the module docs).
        // The same walk computes each anchor's frontier flag.
        let mut members: Vec<VertexId> = Vec::new();
        for &vv in &plan.ordering[pos..end] {
            scratch.two_hop_into(rg, vv, &mut ball);
            let mut crosses = false;
            for &u in &ball {
                let r = plan.rank[u as usize];
                if r < pos || r >= end {
                    crosses = true;
                }
                if !in_slice[u as usize] {
                    in_slice[u as usize] = true;
                    members.push(u);
                }
            }
            if crosses {
                shard_plan.frontier[plan.reduced.to_global[vv as usize] as usize] = true;
            }
        }
        for &u in &members {
            in_slice[u as usize] = false;
        }
        members.sort_unstable();
        let sub = InducedSubgraph::new(rg, &members);
        // Compose the id maps: slice-local → reduced-local → original.
        // Both maps are sorted ascending, so the composition is monotone.
        let slice_to_global: Vec<VertexId> = sub
            .to_global
            .iter()
            .map(|&r| plan.reduced.to_global[r as usize])
            .collect();
        let shard_rank: Vec<usize> = sub
            .to_global
            .iter()
            .map(|&r| plan.rank[r as usize])
            .collect();
        let anchors: Vec<VertexId> = plan.ordering[pos..end]
            .iter()
            .map(|&vv| sub.local(vv).expect("anchor is in its own two-hop ball"))
            .collect();
        shard_plan.shards.push(ShardSpec {
            index,
            slice: GraphSlice::from_parts(sub.graph, slice_to_global),
            anchors,
            rank: shard_rank,
            estimated_cost: acc,
        });
        pos = end;
    }
    debug_assert_eq!(pos, total_anchors);
    Some(shard_plan)
}

/// Executes one shard: runs the shard's anchors over the slice through the
/// shared anchor driver, then compacts the per-thread engines under the
/// pipeline's graced S2 deadline, and returns the shard-local
/// maximal family over original-graph ids. This is exactly what a
/// `mqce shard-worker` process does with a decoded [`GraphSlice`].
pub fn run_shard(
    slice: &GraphSlice,
    anchors: &[VertexId],
    rank: &[usize],
    config: &MqceConfig,
    threads: usize,
) -> ShardFamily {
    let Some((inner, dc)) = dc_setup(config) else {
        return ShardFamily::default();
    };
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);
    let s1_start = Instant::now();
    let plan = DcPlan {
        reduced: InducedSubgraph {
            graph: slice.graph.clone(),
            to_global: slice.to_global.clone(),
            adjacency: None,
        },
        ordering: anchors.to_vec(),
        rank: rank.to_vec(),
        params: config.params,
        dc,
    };
    let factory = || config.s2_backend.new_engine_with_model(config.s2_model);
    let factory_ref: EngineFactory<'_> = &factory;
    let (outcome, engines) =
        run_anchors(&plan, anchors, inner, threads, deadline, Some(factory_ref));
    let result = finish_run(outcome, engines, factory_ref, config, deadline, s1_start);
    ShardFamily {
        timed_out: result.timed_out(),
        mqcs: result.mqcs,
        stats: result.stats,
    }
}

/// Merges per-shard maximal families into the exact global family: frontier
/// sets go through one maximality engine, interior sets are spliced back in
/// with the canonical merge (see the module docs for why this is exact).
pub fn merge_shard_families(
    plan: &ShardPlan,
    families: Vec<Vec<Vec<VertexId>>>,
    config: &MqceConfig,
) -> MergedShards {
    let mut engine = config.s2_backend.new_engine_with_model(config.s2_model);
    let mut interior: Vec<Vec<Vec<VertexId>>> = Vec::with_capacity(families.len());
    for family in families {
        let mut keep = Vec::with_capacity(family.len());
        for set in family {
            let anchor = plan.anchor_of(&set).expect("maximal sets are non-empty");
            if plan.frontier.get(anchor as usize).copied().unwrap_or(true) {
                engine.add(&set);
            } else {
                keep.push(set);
            }
        }
        interior.push(keep);
    }
    let s2_out = engine.finish();
    let mut merged = s2_out.mqcs;
    for keep in interior {
        merged = merge_canonical(merged, keep);
    }
    MergedShards {
        mqcs: merged,
        merge_decision: s2_out.decision,
        backend: s2_out.backend.to_string(),
    }
}

/// Plans, executes, and merges a sharded run in-process: the differential
/// reference for the multi-process coordinator, and the driver behind the
/// `shards` bench profile. Returns `None` when the configured algorithm has
/// no DC decomposition.
pub fn run_sharded(
    prepared: &PreparedGraph,
    config: &MqceConfig,
    num_shards: usize,
    threads_per_shard: usize,
) -> Option<ShardOutcome> {
    let plan = plan_shards(prepared, config, num_shards)?;
    let mut shard_millis = Vec::with_capacity(plan.shards.len());
    let mut families = Vec::with_capacity(plan.shards.len());
    let mut stats = SearchStats::default();
    let mut best_effort = false;
    for spec in &plan.shards {
        let start = Instant::now();
        let family = run_shard(
            &spec.slice,
            &spec.anchors,
            &spec.rank,
            config,
            threads_per_shard,
        );
        shard_millis.push(start.elapsed().as_secs_f64() * 1e3);
        stats.merge(&family.stats);
        best_effort |= family.timed_out || family.stats.subproblem_panics > 0;
        families.push(family.mqcs);
    }
    let merge_start = Instant::now();
    let merged = merge_shard_families(&plan, families, config);
    let merge_millis = merge_start.elapsed().as_secs_f64() * 1e3;
    Some(ShardOutcome {
        mqcs: merged.mqcs,
        shards: plan.shards.len(),
        shard_millis,
        merge_millis,
        best_effort,
        stats,
        merge_decision: merged.merge_decision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use mqce_graph::generators::{community_graph, CommunityGraphParams};
    use mqce_graph::Graph;

    fn test_graph() -> Graph {
        community_graph(
            CommunityGraphParams {
                n: 120,
                num_communities: 8,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            4242,
        )
    }

    #[test]
    fn shards_cover_every_anchor_exactly_once() {
        let prepared = PreparedGraph::new(test_graph());
        let config = MqceConfig::new(0.85, 5).unwrap();
        for num_shards in [1, 2, 3, 4, 7] {
            let plan = plan_shards(&prepared, &config, num_shards).unwrap();
            assert!(!plan.shards.is_empty());
            assert!(plan.shards.len() <= num_shards);
            let mut seen_ranks: Vec<usize> = Vec::new();
            for spec in &plan.shards {
                assert!(!spec.anchors.is_empty());
                assert!(spec.estimated_cost > 0);
                for &a in &spec.anchors {
                    seen_ranks.push(spec.rank[a as usize]);
                }
                // Slice ids map to original ids and the rank table matches.
                for (local, &orig) in spec.slice.to_global.iter().enumerate() {
                    assert_eq!(plan.rank_of(orig), spec.rank[local]);
                }
            }
            seen_ranks.sort_unstable();
            let expected: Vec<usize> = (0..seen_ranks.len()).collect();
            assert_eq!(seen_ranks, expected, "anchor ranks not a partition");
        }
    }

    #[test]
    fn sharded_run_matches_single_process() {
        let g = test_graph();
        let prepared = PreparedGraph::new(g.clone());
        let config = MqceConfig::new(0.85, 5).unwrap();
        let reference = Session::open(g).config(config).run();
        for num_shards in [1, 2, 4] {
            let outcome = run_sharded(&prepared, &config, num_shards, 1).unwrap();
            assert_eq!(outcome.mqcs, reference.mqcs, "{num_shards} shards");
            assert!(!outcome.best_effort);
            assert_eq!(outcome.shard_millis.len(), outcome.shards);
        }
    }

    #[test]
    fn sharding_without_dc_is_declined() {
        let prepared = PreparedGraph::new(Graph::paper_figure1());
        let config = MqceConfig::new(0.6, 3)
            .unwrap()
            .with_algorithm(crate::config::Algorithm::FastQc);
        assert!(plan_shards(&prepared, &config, 3).is_none());
        assert!(run_sharded(&prepared, &config, 3, 1).is_none());
    }
}
