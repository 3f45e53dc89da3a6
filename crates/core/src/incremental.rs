//! Incremental enumeration under edge updates: dirty-set DC re-runs.
//!
//! The divide-and-conquer decomposition makes each per-vertex subproblem a
//! function of the edges within distance 2 of its anchor. An update batch
//! therefore invalidates a small, computable set of subproblems — the
//! anchors inside the batch's closed two-hop closure (under the old *or* the
//! new graph) — and every other subproblem would extract a byte-identical
//! subgraph and re-derive exactly what it derived before.
//!
//! [`IncrementalSession`] exploits this. It owns the [`PreparedGraph`] and
//! the current maximal family, and on [`IncrementalSession::update`]:
//!
//! 1. applies the [`GraphDelta`] via the slack-aware CSR rebuild and
//!    maintains the core decomposition (changed-vertex report included);
//! 2. computes the dirty two-hop closure with the epoch-stamped scratch
//!    walk — no per-update allocation beyond the closure itself;
//! 3. keeps a **session-stable total order**: the degeneracy ordering
//!    computed at session start, with vertices the updates add appended at
//!    the end. Any total order is sound for the DC drivers (Property 2
//!    anchors each maximal QC at its lowest-ranked member under whatever
//!    order is in force), and a stable order means a retained set's anchor
//!    never silently moves between updates;
//! 4. retires the sets whose anchor is dirty and re-runs exactly the dirty
//!    anchors through the shared anchor driver (work stealing and
//!    intra-subproblem splitting for multi-threaded sessions);
//! 5. merges the fresh outputs with only the **frontier** of the retained
//!    family — retained sets that contain at least one dirty vertex — in
//!    one compaction on the session's threads, restoring exact global
//!    maximality (the same S2 pass as a full run's tail). Every fresh set
//!    contains its dirty anchor, so a retained set that could dominate one
//!    must contain that dirty vertex too; retained sets disjoint from the
//!    closure can never interact with the fresh outputs and bypass the
//!    compaction entirely, which keeps the per-update merge work
//!    proportional to the *local* family, not the whole one (the pass
//!    compresses vertex ids when the local family is small next to the
//!    graph, so its index does not grow with the vertex count).
//!
//! Why retiring only dirty-anchored sets is exact: let `H` be maximal in the
//! new graph with clean anchor `v` (its lowest-ranked member). Every member
//! of `H` is within distance 2 of `v` inside `H` (diameter ≤ 2 for
//! γ ≥ 0.5), so an updated edge incident to any member would put `v` in the
//! dirty closure — hence `H`'s induced subgraph is untouched, `H` was a
//! quasi-clique before, and any strict quasi-clique superset inside `v`'s
//! ball was untouched too, so `H` was already maximal and is in the retained
//! family. Conversely a new-graph maximal set with a *dirty* anchor is
//! emitted by that anchor's re-run (its members survive the core reduction:
//! every member of a θ-sized γ-quasi-clique has degree ≥ ⌈γ(θ−1)⌉ within
//! it). The merge then removes anything the update demoted from
//! maximal. The differential harness checks this equivalence against full
//! recompute on random schedules across the γ×θ grid at 1/2/4 threads.

use std::sync::Arc;

use mqce_graph::delta::GraphDelta;
use mqce_graph::{Graph, SubproblemScratch, VertexId};
use mqce_settrie::SetArena;

use crate::completeness::Completeness;
use crate::config::MqceConfig;
use crate::dc::{run_anchors, DcPlan};
use crate::pipeline::{compact_family, dc_setup};
use crate::prepared::PreparedGraph;
use crate::session::Session;
use crate::stats::SearchStats;

/// What a single [`IncrementalSession::update`] did, with the counters the
/// bench harness reports.
#[derive(Clone, Debug, Default)]
pub struct UpdateOutcome {
    /// Canonical edge updates in the applied batch (inserts + deletes).
    pub updates_applied: u64,
    /// Subproblems re-run (anchors in the dirty closure that survived the
    /// core reduction).
    pub dirty_subproblems: u64,
    /// Sets retired from the previous family by anchor provenance.
    pub retired: u64,
    /// Sets of the previous family carried over unchanged.
    pub retained: u64,
    /// Vertices whose core number changed (from the maintenance report).
    pub core_changed: u64,
    /// The dirty two-hop closure, sorted ascending — the vertices whose
    /// per-vertex query answers may have changed (the set
    /// [`PreparedGraph::apply_delta`] returns).
    pub dirty: Vec<VertexId>,
    /// Search statistics aggregated over the re-run subproblems.
    pub stats: SearchStats,
    /// Whether the session fell back to a full recompute: algorithms
    /// without a DC decomposition have no per-anchor dirty set, and a
    /// partial family cannot be patched.
    pub full_recompute: bool,
    /// Whether the family after this update is exact, and if not, why not.
    pub completeness: Completeness,
}

/// A long-lived enumeration session that maintains the maximal family under
/// edge-update batches by re-running only the dirtied DC subproblems. See
/// the module docs for the invariants and the exactness argument.
pub struct IncrementalSession {
    prepared: Arc<PreparedGraph>,
    config: MqceConfig,
    threads: usize,
    /// Session-stable total order over global vertex ids: the degeneracy
    /// ordering at session start, new vertices appended as updates grow the
    /// graph. Never reshuffled, so anchor provenance survives updates.
    ordering: Vec<VertexId>,
    /// `rank[v]` = position of global vertex `v` in `ordering`.
    rank: Vec<usize>,
    /// The current maximal family (sorted sets, lexicographic order — the
    /// same canonical form the batch pipeline returns).
    family: Vec<Vec<VertexId>>,
    /// Whether `family` is exact. A partial family is never patched: the
    /// next update recomputes it in full.
    completeness: Completeness,
    /// Epoch-stamped scratch shared by the dirty walk and the partition.
    scratch: SubproblemScratch,
}

/// Merges two lexicographically sorted families into one sorted family.
fn merge_canonical(a: Vec<Vec<VertexId>>, b: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    out.push(a.next().unwrap());
                } else {
                    out.push(b.next().unwrap());
                }
            }
            (Some(_), None) => out.push(a.next().unwrap()),
            (None, Some(_)) => out.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
    out
}

impl IncrementalSession {
    /// Opens a session: prepares the graph, runs the full pipeline once to
    /// seed the family, and freezes the session ordering. `threads` is used
    /// for the seed run and for every subsequent dirty re-run.
    pub fn new(graph: Graph, config: MqceConfig, threads: usize) -> Self {
        let prepared = Arc::new(PreparedGraph::new(graph));
        let ordering = prepared.cores().ordering.clone();
        let mut rank = vec![0usize; ordering.len()];
        for (i, &v) in ordering.iter().enumerate() {
            rank[v as usize] = i;
        }
        let threads = threads.max(1);
        let seed = Session::open_prepared(prepared.clone())
            .config(config)
            .threads(threads)
            .run();
        IncrementalSession {
            prepared,
            config,
            threads,
            ordering,
            rank,
            family: seed.mqcs,
            completeness: seed.completeness,
            scratch: SubproblemScratch::new(),
        }
    }

    /// The prepared graph the session currently holds.
    pub fn prepared(&self) -> &PreparedGraph {
        &self.prepared
    }

    /// The current maximal family (exactly what a fresh full run on the
    /// current graph returns, unless [`completeness`](Self::completeness)
    /// says otherwise).
    pub fn family(&self) -> &[Vec<VertexId>] {
        &self.family
    }

    /// Whether the current family is exact. The seeding run honours
    /// `config.time_limit`, and a contained searcher panic drops sets, so
    /// either can leave the session partial until the next update.
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The session's configuration.
    pub fn config(&self) -> &MqceConfig {
        &self.config
    }

    /// Applies an update batch and restores the family to exactly the
    /// maximal family of the updated graph, re-running only the dirtied
    /// subproblems. A session whose family is partial is recomputed in
    /// full instead. Updates always run to completion (the session ignores
    /// `config.time_limit`, which only bounds the seeding run).
    pub fn update(&mut self, delta: &GraphDelta) -> UpdateOutcome {
        if delta.is_empty() {
            return UpdateOutcome {
                retained: self.family.len() as u64,
                completeness: self.completeness,
                ..UpdateOutcome::default()
            };
        }
        let (prepared, dirty, core_changed) = self.prepared.apply_delta(delta, &mut self.scratch);
        let prepared = Arc::new(prepared);

        // Grow the session ordering: vertices the batch added rank after
        // everything that existed before, so no retained anchor moves.
        let n = prepared.graph().num_vertices();
        for v in self.rank.len() as VertexId..n as VertexId {
            self.rank.push(self.ordering.len());
            self.ordering.push(v);
        }

        let dc = dc_setup(&self.config).filter(|_| self.completeness.is_exact());
        let Some((inner, dc)) = dc else {
            // No DC decomposition, no per-anchor dirty set, or a partial
            // family whose missing sets no dirty set can name: full
            // recompute, without the seeding run's time limit.
            self.prepared = prepared;
            let mut config = self.config;
            config.time_limit = None;
            let result = Session::open_prepared(self.prepared.clone())
                .config(config)
                .threads(self.threads)
                .run();
            self.family = result.mqcs;
            self.completeness = result.completeness;
            return UpdateOutcome {
                updates_applied: delta.len() as u64,
                core_changed: core_changed as u64,
                dirty,
                stats: result.stats,
                full_recompute: true,
                completeness: result.completeness,
                ..UpdateOutcome::default()
            };
        };

        // The dirty plan: core reduction over the updated graph, processing
        // order = the session ordering restricted to the survivors (sound
        // like any total order; stable so provenance is meaningful).
        let plan = DcPlan::from_prepared(&prepared, self.config.params, dc, Some(&self.ordering));

        // Partition the family by anchor provenance and collect the dirty
        // anchors that survived the core reduction, in plan order. One
        // stamped epoch serves both membership tests.
        let (stamp, tag) = self.scratch.stamp_epoch(n);
        for &v in &dirty {
            stamp[v as usize] = tag;
        }
        // Clean-anchored sets are retained; among them, only the *frontier*
        // (sets touching the dirty closure) can dominate a fresh emission —
        // every fresh set contains its dirty anchor, so any superset does
        // too — and retained sets themselves are never dominated (a strict
        // quasi-clique superset would have put their anchor in the
        // closure). Untouched sets therefore skip the merge.
        let old_family = std::mem::take(&mut self.family);
        let mut untouched: Vec<Vec<VertexId>> = Vec::with_capacity(old_family.len());
        let mut frontier = SetArena::new();
        let mut retired = 0u64;
        for set in old_family {
            let anchor = *set
                .iter()
                .min_by_key(|&&v| self.rank[v as usize])
                .expect("maximal sets are non-empty");
            if stamp[anchor as usize] == tag {
                retired += 1;
            } else if set.iter().any(|&v| stamp[v as usize] == tag) {
                frontier.push_set(&set);
            } else {
                untouched.push(set);
            }
        }
        let dirty_locals: Vec<VertexId> = plan
            .ordering
            .iter()
            .copied()
            .filter(|&l| stamp[plan.reduced.to_global[l as usize] as usize] == tag)
            .collect();
        let retained_count = (untouched.len() + frontier.len()) as u64;

        // Re-run the dirty subproblems, compact their outputs together with
        // the frontier sets — exact over frontier ∪ fresh — and splice the
        // untouched sets back in afterwards.
        let mut rerun = run_anchors(&plan, &dirty_locals, inner, self.threads, None);
        rerun.sets.push(frontier);
        let (outcome, _) = compact_family(rerun.sets, self.threads, None);
        // Both halves are in canonical order: `untouched` is a subsequence
        // of the old canonical family, the pass returns canonical order.
        self.family = merge_canonical(untouched, outcome.mqcs);
        self.completeness = Completeness::new(&rerun.stats, outcome.timed_out);
        self.prepared = prepared;
        UpdateOutcome {
            updates_applied: delta.len() as u64,
            dirty_subproblems: dirty_locals.len() as u64,
            retired,
            retained: retained_count,
            core_changed: core_changed as u64,
            dirty,
            stats: rerun.stats,
            full_recompute: false,
            completeness: self.completeness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_graph::generators::{community_graph, CommunityGraphParams};

    /// The maximal family of a fresh full run.
    fn full_family(g: &Graph, config: MqceConfig) -> Vec<Vec<VertexId>> {
        Session::open(g.clone()).config(config).run().mqcs
    }

    /// Incremental family after each batch must equal a fresh full run on
    /// the mutated graph.
    fn check_schedule(g: Graph, config: MqceConfig, threads: usize, schedule: &[GraphDelta]) {
        let mut session = IncrementalSession::new(g.clone(), config, threads);
        let mut current = g;
        for (step, delta) in schedule.iter().enumerate() {
            let outcome = session.update(delta);
            current = delta.apply(&current);
            assert_eq!(
                session.prepared().fingerprint(),
                current.fingerprint(),
                "step {step}: graph drifted"
            );
            let fresh = full_family(&current, config);
            assert_eq!(
                session.family(),
                &fresh[..],
                "step {step} (threads={threads}): incremental family != full recompute \
                 (dirty={}, retired={}, retained={})",
                outcome.dirty_subproblems,
                outcome.retired,
                outcome.retained,
            );
        }
    }

    #[test]
    fn incremental_matches_full_on_paper_graph() {
        let g = Graph::paper_figure1();
        let schedule = vec![
            GraphDelta::new(vec![(0, 6)], vec![]),
            GraphDelta::new(vec![(3, 8)], vec![(1, 5)]),
            GraphDelta::new(vec![], vec![(0, 6), (3, 8)]),
        ];
        for threads in [1, 2] {
            check_schedule(
                g.clone(),
                MqceConfig::new(0.6, 3).unwrap(),
                threads,
                &schedule,
            );
        }
    }

    #[test]
    fn incremental_matches_full_on_community_graph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = community_graph(
            CommunityGraphParams {
                n: 90,
                num_communities: 6,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            21,
        );
        let mut rng = StdRng::seed_from_u64(77);
        let n = g.num_vertices() as u32;
        let mut current = g.clone();
        let mut schedule = Vec::new();
        for _ in 0..4 {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for _ in 0..5 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                if current.has_edge(u, v) {
                    deletes.push((u, v));
                } else {
                    inserts.push((u, v));
                }
            }
            let delta = GraphDelta::new(inserts, deletes);
            current = delta.apply(&current);
            schedule.push(delta);
        }
        check_schedule(g, MqceConfig::new(0.85, 5).unwrap(), 2, &schedule);
    }

    #[test]
    fn vertex_growth_and_empty_batches_are_handled() {
        let g = Graph::paper_figure1();
        let config = MqceConfig::new(0.9, 3).unwrap();
        let mut session = IncrementalSession::new(g.clone(), config, 1);
        let before = session.family().to_vec();
        let noop = session.update(&GraphDelta::default());
        assert_eq!(noop.updates_applied, 0);
        assert_eq!(session.family(), &before[..]);
        // Grow the graph: attach a triangle on two new vertices.
        let delta = GraphDelta::new(vec![(8, 9), (8, 10), (9, 10)], vec![]);
        session.update(&delta);
        let fresh = full_family(&delta.apply(&g), config);
        assert_eq!(session.family(), &fresh[..]);
    }
}
