//! Incremental enumeration under edge updates: dirty-set DC re-runs.
//!
//! The divide-and-conquer decomposition makes each per-vertex subproblem a
//! function of the edges within distance 2 of its anchor. An update batch
//! therefore invalidates a small, computable set of subproblems — the
//! anchors inside the batch's closed two-hop closure (under the old *or* the
//! new graph) — and every other subproblem would extract a byte-identical
//! subgraph and re-derive exactly what it derived before.
//!
//! An update is two steps:
//!
//! 1. the **graph step**, [`PreparedGraph::apply_delta`]: applies the
//!    [`GraphDelta`] via the slack-aware CSR rebuild, maintains the core
//!    decomposition (and with it the cached degeneracy order) and returns
//!    the dirty two-hop closure, walked with the epoch-stamped scratch;
//! 2. the **family step**, [`advance`]: carries one maximal family from the
//!    old graph to the new one. It retires, in place, the sets whose anchor
//!    is dirty and re-runs exactly the dirty anchors through the shared
//!    anchor driver (work stealing and intra-subproblem splitting on several
//!    threads). The fresh outputs are compacted among themselves in one S2
//!    pass, and then only they are probed against the **frontier** — the
//!    retained sets that contain at least one dirty vertex. Every fresh set
//!    contains its dirty anchor, so a retained set that could dominate one
//!    must contain that dirty vertex too, and retained sets are never
//!    dominated themselves. So no retained set moves, is copied or is
//!    probed, which keeps the per-update merge work proportional to the
//!    fresh outputs, not the whole family.
//!
//! A batch that changes no edge (inserting present edges, deleting absent
//! ones) has no graph step: [`PreparedGraph::apply_delta`] returns `None`
//! and every family stays as it is.
//!
//! [`IncrementalSession::update`] is the graph step followed by one family
//! step; the `mqce serve` daemon runs the graph step once per update and one
//! family step per cached answer it carries across.
//!
//! **The order.** Each family step anchors by the new snapshot's cached
//! degeneracy order (restricted to the core-reduced vertices, like a full
//! run), so the order may move from one update to the next. That is sound
//! because exactness only needs the retirement and the re-run of *one* step
//! to agree on the order, and the argument below never uses the order the
//! old family was computed under.
//!
//! Why retiring only dirty-anchored sets is exact: let `H` be maximal in the
//! new graph with clean anchor `v` (its lowest-ranked member in this step's
//! order). Every member of `H` is within distance 2 of `v` inside `H`
//! (diameter ≤ 2 for γ ≥ 0.5), so an updated edge incident to any member
//! would put `v` in the dirty closure — hence `H`'s induced subgraph is
//! untouched, `H` was a quasi-clique before, and any strict quasi-clique
//! superset of `H` in the old graph contains `v` and would be untouched
//! too, so `H` was already maximal: it is in the old family, and it is not
//! retired. Likewise every retained set (one with a clean member) is
//! untouched and still maximal. Conversely a new-graph maximal set with a
//! *dirty* anchor is emitted by that anchor's re-run (its members survive
//! the core reduction: every member of a θ-sized γ-quasi-clique has degree
//! ≥ ⌈γ(θ−1)⌉ within it). The compaction then removes any fresh set that
//! is not maximal. The differential harness checks this equivalence against
//! full recompute on random schedules across the γ×θ grid at 1/2/4 threads.

use std::sync::Arc;

use mqce_graph::delta::GraphDelta;
use mqce_graph::{Graph, SubproblemScratch, VertexId};
use mqce_settrie::is_sorted_subset;

use crate::completeness::Completeness;
use crate::config::MqceConfig;
use crate::dc::{run_anchors, DcPlan};
use crate::pipeline::{compact_family, dc_setup};
use crate::prepared::PreparedGraph;
use crate::session::Session;
use crate::stats::SearchStats;

/// What a single [`IncrementalSession::update`] (or the family step,
/// [`advance`]) did, with the counters the bench harness reports.
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
    /// The current maximal family (sorted sets, lexicographic order — the
    /// same canonical form the batch pipeline returns).
    family: Vec<Vec<VertexId>>,
    /// Whether `family` is exact. A partial family is never patched: the
    /// next update recomputes it in full.
    completeness: Completeness,
    /// Epoch-stamped scratch for the dirty-closure walk.
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

/// Whether [`advance`] can carry a family computed under `config`: its
/// algorithm runs one DC subproblem per anchor, the decomposition an
/// update's dirty closure can patch. The whole-graph algorithms cannot.
pub fn can_advance(config: &MqceConfig) -> bool {
    dc_setup(config).is_some()
}

/// The family step of an update (see the module docs): carries `family`,
/// the exact maximal family of the graph before a batch, to the maximal
/// family of `prepared`, the graph after it, given the batch's dirty
/// two-hop closure `dirty` (as [`PreparedGraph::apply_delta`] returns it).
/// The dirty anchors re-run on `threads` workers and always run to
/// completion: `config.time_limit` is ignored.
///
/// Returns `None` when it cannot ([`can_advance`]). Else it
/// returns the new family (canonical order) and the family-step counters;
/// the graph-step fields (`updates_applied`, `core_changed`, `dirty`) are
/// left for the caller. The family is exact only when the outcome's
/// `completeness` says so: a panic contained in a re-run drops its sets.
pub fn advance(
    family: Vec<Vec<VertexId>>,
    config: &MqceConfig,
    threads: usize,
    prepared: &PreparedGraph,
    dirty: &[VertexId],
) -> Option<(Vec<Vec<VertexId>>, UpdateOutcome)> {
    let (inner, dc) = dc_setup(config)?;
    // This step's order: the new snapshot's, as a full run would take it.
    let plan = DcPlan::from_prepared(prepared, config.params, dc);
    // `slot[v]` is v's position in `dirty`, or `CLEAN`.
    const CLEAN: u32 = u32::MAX;
    let mut slot = vec![CLEAN; prepared.graph().num_vertices()];
    for (i, &v) in dirty.iter().enumerate() {
        slot[v as usize] = i as u32;
    }
    let is_dirty = |v: VertexId| slot[v as usize] != CLEAN;
    // A member the core reduction dropped ranks last; a set holding one is
    // no longer a quasi-clique, so its update touched it and every member,
    // its anchor included, is dirty.
    let mut rank = vec![usize::MAX; prepared.graph().num_vertices()];
    for (&v, &r) in plan.reduced.to_global.iter().zip(&plan.rank) {
        rank[v as usize] = r;
    }

    // Retire, in place, the sets whose anchor is dirty. Only sets that touch
    // the dirty closure can have one. Every other set is retained where it
    // is, in canonical order.
    let mut family = family;
    let before = family.len();
    family.retain(|set| {
        !set.iter().any(|&v| is_dirty(v)) || {
            let anchor = *set
                .iter()
                .min_by_key(|&&v| rank[v as usize])
                .expect("maximal sets are non-empty");
            !is_dirty(anchor)
        }
    });
    let retired = (before - family.len()) as u64;
    let retained = family.len() as u64;
    let dirty_locals: Vec<VertexId> = plan
        .ordering
        .iter()
        .copied()
        .filter(|&l| is_dirty(plan.reduced.to_global[l as usize]))
        .collect();

    // Re-run the dirty subproblems and compact their outputs among
    // themselves. Retained sets are never dominated (a strict quasi-clique
    // superset would have put their anchor in the closure), so only the
    // fresh sets are probed against them. Every fresh set contains its
    // dirty anchor, so a retained superset contains that dirty vertex too:
    // it is in the *frontier*, the retained sets with a dirty member, listed
    // here under each of their dirty members.
    let rerun = run_anchors(&plan, &dirty_locals, inner, threads, None);
    let (outcome, _) = compact_family(rerun.sets, threads, None);
    let mut holders: Vec<Vec<u32>> = vec![Vec::new(); dirty.len()];
    for (i, set) in family.iter().enumerate() {
        for &v in set.iter().filter(|&&v| is_dirty(v)) {
            holders[slot[v as usize] as usize].push(i as u32);
        }
    }
    let fresh: Vec<Vec<VertexId>> = outcome
        .mqcs
        .into_iter()
        .filter(|set| {
            let shortest = set
                .iter()
                .filter(|&&v| is_dirty(v))
                .map(|&v| &holders[slot[v as usize] as usize])
                .min_by_key(|list| list.len());
            !shortest.is_some_and(|list| {
                list.iter()
                    .any(|&i| is_sorted_subset(set, &family[i as usize]))
            })
        })
        .collect();
    // Both halves are in canonical order: the retained sets are a
    // subsequence of the old canonical family, the pass returns canonical
    // order.
    let family = merge_canonical(family, fresh);
    Some((
        family,
        UpdateOutcome {
            dirty_subproblems: dirty_locals.len() as u64,
            retired,
            retained,
            completeness: Completeness::new(&rerun.stats, outcome.timed_out),
            stats: rerun.stats,
            ..UpdateOutcome::default()
        },
    ))
}

impl IncrementalSession {
    /// Opens a session: prepares the graph and runs the full pipeline once
    /// to seed the family. `threads` is used for the seed run and for every
    /// subsequent dirty re-run.
    pub fn new(graph: Graph, config: MqceConfig, threads: usize) -> Self {
        let prepared = Arc::new(PreparedGraph::new(graph));
        let threads = threads.max(1);
        let seed = Session::open_prepared(prepared.clone())
            .config(config)
            .threads(threads)
            .run();
        IncrementalSession {
            prepared,
            config,
            threads,
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
    /// maximal family of the updated graph: the graph step
    /// ([`PreparedGraph::apply_delta`]) followed by the family step
    /// ([`advance`]). A session whose family is partial, or whose algorithm
    /// has no DC decomposition, is recomputed in full instead. Updates
    /// always run to completion (the session ignores `config.time_limit`,
    /// which only bounds the seeding run).
    pub fn update(&mut self, delta: &GraphDelta) -> UpdateOutcome {
        let Some((prepared, dirty, core_changed)) =
            self.prepared.apply_delta(delta, &mut self.scratch)
        else {
            // The batch changes no edge: the family stays as it is.
            return UpdateOutcome {
                updates_applied: delta.len() as u64,
                retained: self.family.len() as u64,
                completeness: self.completeness,
                ..UpdateOutcome::default()
            };
        };
        self.prepared = Arc::new(prepared);

        // A partial family is never patched: its missing sets have no dirty
        // anchor to name them.
        let family = std::mem::take(&mut self.family);
        let advanced = if self.completeness.is_exact() {
            advance(family, &self.config, self.threads, &self.prepared, &dirty)
        } else {
            None
        };
        let mut outcome = match advanced {
            Some((family, outcome)) => {
                self.family = family;
                outcome
            }
            None => {
                // Full recompute, without the seeding run's time limit.
                let mut config = self.config;
                config.time_limit = None;
                let result = Session::open_prepared(self.prepared.clone())
                    .config(config)
                    .threads(self.threads)
                    .run();
                self.family = result.mqcs;
                UpdateOutcome {
                    stats: result.stats,
                    full_recompute: true,
                    completeness: result.completeness,
                    ..UpdateOutcome::default()
                }
            }
        };
        self.completeness = outcome.completeness;
        outcome.updates_applied = delta.len() as u64;
        outcome.core_changed = core_changed as u64;
        outcome.dirty = dirty;
        outcome
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

    /// `advance` equals a fresh run over batches that move core numbers, so
    /// each step anchors by a different degeneracy order than the one the
    /// family it carries was computed under.
    #[test]
    fn advance_matches_full_when_the_degeneracy_order_moves() {
        let g = community_graph(
            CommunityGraphParams {
                n: 90,
                num_communities: 6,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            21,
        );
        // Cutting two vertices down to one edge each drops their core
        // numbers to 1; restoring the edges raises them again.
        let cut: Vec<(VertexId, VertexId)> = [0, 45]
            .iter()
            .flat_map(|&v| g.neighbors(v)[1..].iter().map(move |&u| (v, u)))
            .collect();
        let schedule = [
            GraphDelta::new(Vec::new(), cut.clone()),
            GraphDelta::new(cut, Vec::new()),
        ];
        let config = MqceConfig::new(0.85, 5).unwrap();
        for threads in [1, 2] {
            let mut prepared = PreparedGraph::new(g.clone());
            let mut family = full_family(&g, config);
            for (step, delta) in schedule.iter().enumerate() {
                let (next, dirty, core_changed) = prepared
                    .apply_delta(delta, &mut SubproblemScratch::new())
                    .expect("the batch changes edges");
                assert!(core_changed > 0, "step {step}: no core number moved");
                assert_ne!(
                    next.cores().ordering,
                    prepared.cores().ordering,
                    "step {step}: the degeneracy order did not move"
                );
                let (advanced, outcome) = advance(family, &config, threads, &next, &dirty)
                    .expect("DCFastQC has a DC decomposition");
                assert!(outcome.completeness.is_exact());
                assert_eq!(
                    advanced,
                    full_family(next.graph(), config),
                    "step {step} (threads={threads}): advanced family != full recompute"
                );
                prepared = next;
                family = advanced;
            }
        }
    }

    /// A panic contained in a dirty anchor's re-run makes the advance
    /// partial; the same advance without the fault is exact.
    #[test]
    fn a_panic_in_the_re_run_makes_the_advance_partial() {
        // A 5-clique on 1..=5 and an isolated vertex 0: joining 0 to four
        // clique vertices makes it the dirty anchor of a new 5-clique.
        let clique: Vec<(VertexId, VertexId)> = (1..=5)
            .flat_map(|u| (u + 1..=5).map(move |v| (u, v)))
            .collect();
        let g = Graph::from_edges(6, &clique);
        let clean = MqceConfig::new(0.9, 5).unwrap();
        let mut faulty = clean;
        faulty.params.fail_anchor = Some(0);
        let join = GraphDelta::new(vec![(0, 1), (0, 2), (0, 3), (0, 4)], Vec::new());
        let (next, dirty, _) = PreparedGraph::new(g.clone())
            .apply_delta(&join, &mut SubproblemScratch::new())
            .expect("the batch changes edges");
        assert!(dirty.contains(&0));
        for threads in [1, 2] {
            let (_, outcome) = advance(full_family(&g, clean), &faulty, threads, &next, &dirty)
                .expect("DCFastQC has a DC decomposition");
            assert_eq!(outcome.stats.subproblem_panics, 1, "threads={threads}");
            assert!(!outcome.completeness.is_exact(), "threads={threads}");
            assert_eq!(outcome.completeness.panicked_anchor, Some(0));
            let (family, outcome) = advance(full_family(&g, clean), &clean, threads, &next, &dirty)
                .expect("DCFastQC has a DC decomposition");
            assert!(outcome.completeness.is_exact(), "threads={threads}");
            assert_eq!(family, full_family(next.graph(), clean));
        }
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
