//! End-to-end MQCE pipeline: MQCE-S1 (branch-and-bound enumeration), then
//! MQCE-S2 (maximality filtering).
//!
//! This is the high-level API most users want: give it a graph and the
//! parameters, get back exactly the maximal γ-quasi-cliques of size ≥ θ.
//!
//! S1's workers collect their quasi-cliques in flat arenas, one per worker,
//! and S2 takes them over unboxed. S2 is one pass at every thread count (the
//! crate-private `compact_family`): each arena is sorted on a worker of its
//! own and the sorted arenas are merged without duplicates into one flat
//! [`CanonicalFamily`] (its size is [`MqceResult::qcs`]), which
//! [`CanonicalFamily::compact`] indexes and probes on the run's workers;
//! only the maximal sets are boxed. The pass honours whatever remains of
//! the wall-clock budget, plus a grace slice, so a run that exhausts its
//! time limit in S1 does not pay an unbounded filtering bill on hundreds of
//! thousands of sets. Query searches and incremental updates call the same
//! helper.

use std::time::{Duration, Instant};

use mqce_graph::{Graph, VertexId};
use mqce_settrie::{CanonicalFamily, S2Outcome, SetArena};

use crate::branch::{FlatOutcome, SearchOutcome, SearchScratch};
use crate::completeness::Completeness;
use crate::config::{Algorithm, MqceConfig};
use crate::dc::{run_anchors, DcConfig, DcPlan, InnerAlgorithm};
use crate::naive;
use crate::prepared::PreparedGraph;
use crate::session::Session;
use crate::stats::{S2Stats, SearchStats, ThreadStats};

/// Minimum wall-clock slice MQCE-S2 is granted even when S1 consumed the
/// whole budget: without it a time-limited run whose S1 was cut off would
/// return no maximal sets at all.
const S2_MIN_GRACE: Duration = Duration::from_millis(100);

/// Upper bound on the S2 grace slice (10% of the time limit, clamped).
const S2_MAX_GRACE: Duration = Duration::from_secs(5);

/// Result of an end-to-end MQCE run.
#[derive(Clone, Debug, Default)]
pub struct MqceResult {
    /// Size of the MQCE-S1 output: the distinct quasi-cliques S1 emitted, a
    /// family containing every maximal QC of size ≥ θ (possibly with
    /// non-maximal members). This is the family S2 compacts;
    /// [`solve_s1`] returns its sets.
    pub qcs: usize,
    /// The MQCE-S2 output: exactly the maximal quasi-cliques of size ≥ θ,
    /// sorted lexicographically, unless [`completeness`](Self::completeness)
    /// says the run fell short.
    pub mqcs: Vec<Vec<VertexId>>,
    /// Whether `mqcs` is exact, and if not, why not.
    pub completeness: Completeness,
    /// Statistics of the S1 search.
    pub stats: SearchStats,
    /// Per-worker counters of the work-stealing scheduler, one per worker
    /// at every thread count (empty for the whole-graph algorithms, which
    /// do not use it, and when no subproblem survives the core reduction):
    /// what each thread ran, stole and donated, and how its wall-clock
    /// split between busy and hungry.
    pub thread_stats: Vec<ThreadStats>,
    /// Statistics of the S2 pass.
    pub s2: S2Stats,
    /// Wall-clock time of MQCE-S1: the search and the collection of its
    /// outputs.
    pub s1_time: Duration,
    /// Wall-clock time of MQCE-S2: sorting and merging the outputs and
    /// compacting them (the steps are in [`S2Stats::steps`]).
    pub s2_time: Duration,
}

impl MqceResult {
    /// Whether the run hit its time limit in either stage (the MQC list may
    /// be incomplete).
    pub fn timed_out(&self) -> bool {
        self.completeness.timed_out()
    }

    /// Sizes of the maximal quasi-cliques: `(min, max, mean)` — the
    /// `|H_min| / |H_max| / |H_avg|` columns of Table 1. Returns `None` when
    /// no MQC was found.
    pub fn mqc_size_stats(&self) -> Option<(usize, usize, f64)> {
        if self.mqcs.is_empty() {
            return None;
        }
        let min = self.mqcs.iter().map(Vec::len).min().unwrap();
        let max = self.mqcs.iter().map(Vec::len).max().unwrap();
        let mean = self.mqcs.iter().map(Vec::len).sum::<usize>() as f64 / self.mqcs.len() as f64;
        Some((min, max, mean))
    }
}

/// The `(inner algorithm, DC configuration)` pair of a DC-family algorithm,
/// `None` for algorithms without a divide-and-conquer decomposition.
pub(crate) fn dc_setup(config: &MqceConfig) -> Option<(InnerAlgorithm, DcConfig)> {
    match config.algorithm {
        Algorithm::DcFastQc => Some((
            InnerAlgorithm::FastQc(config.branching),
            DcConfig::paper_default().with_max_round(config.max_round),
        )),
        Algorithm::BasicDcFastQc => {
            Some((InnerAlgorithm::FastQc(config.branching), DcConfig::basic()))
        }
        Algorithm::QuickPlus => Some((InnerAlgorithm::QuickPlus, DcConfig::basic())),
        _ => None,
    }
}

/// MQCE-S1 of the algorithms without a DC decomposition: one whole-graph
/// search (`S = ∅`, every vertex a candidate) whose outputs arrive in a
/// single arena.
fn solve_whole_graph(g: &Graph, config: &MqceConfig, deadline: Option<Instant>) -> FlatOutcome {
    let params = config.params;
    let inner = match config.algorithm {
        Algorithm::FastQc => InnerAlgorithm::FastQc(config.branching),
        Algorithm::QuickPlusRaw => InnerAlgorithm::QuickPlus,
        Algorithm::Naive => {
            let outputs = naive::all_maximal_quasi_cliques(g, params);
            let mut sets = SetArena::new();
            for set in &outputs {
                sets.push_set(set);
            }
            return FlatOutcome {
                stats: SearchStats {
                    outputs: outputs.len() as u64,
                    ..Default::default()
                },
                sets: vec![sets],
                thread_stats: Vec::new(),
            };
        }
        _ => unreachable!("DC algorithms are handled by dc_setup"),
    };
    let all: Vec<VertexId> = g.vertices().collect();
    let mut bufs = SearchScratch::default();
    let stats = inner.search(g, None, &[], &all, params, deadline, None, &mut bufs);
    FlatOutcome {
        sets: vec![std::mem::take(&mut bufs.sets)],
        stats,
        thread_stats: Vec::new(),
    }
}

/// Runs only MQCE-S1 with the configured algorithm on one worker, returning
/// the raw set of quasi-cliques (global vertex ids, in emission order) and
/// the search statistics.
pub fn solve_s1(g: &Graph, config: &MqceConfig) -> SearchOutcome {
    solve_s1_threads(g, config, 1)
}

/// [`solve_s1`] on `threads` work-stealing workers (DC algorithms; the
/// whole-graph ones run on one). The outputs come worker by worker; split
/// branches may add dominated quasi-cliques that one worker does not
/// emit, so the family can be larger than [`solve_s1`]'s, never smaller.
pub fn solve_s1_threads(g: &Graph, config: &MqceConfig, threads: usize) -> SearchOutcome {
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);
    let outcome = match dc_setup(config) {
        Some((inner, dc)) => {
            let prepared = PreparedGraph::new(g.clone());
            let plan = DcPlan::from_prepared(&prepared, config.params, dc, None);
            run_anchors(&plan, &plan.ordering, inner, threads, deadline)
        }
        None => solve_whole_graph(g, config, deadline),
    };
    outcome.boxed()
}

/// The deadline MQCE-S2 compacts under: the pipeline deadline, but never
/// less than a small grace interval from now — 10% of the time limit,
/// clamped to `[100ms, 5s]` — so a run whose S1 was cut off still returns
/// the sets it can compact within the grace slice.
///
/// A zero time limit grants **no** grace: the caller asked for no work at
/// all (`--time-limit 0`, or a daemon request whose deadline had already
/// passed on arrival), so the run must return immediately with
/// `s2_timed_out = true` and an empty-but-sound partial result rather than
/// burn `S2_MIN_GRACE` and report an unflagged (falsely complete-looking)
/// empty answer.
pub(crate) fn s2_deadline(deadline: Option<Instant>, limit: Option<Duration>) -> Option<Instant> {
    deadline.map(|d| {
        let grace = match limit {
            Some(l) if l.is_zero() => Duration::ZERO,
            Some(l) => (l / 10).clamp(S2_MIN_GRACE, S2_MAX_GRACE),
            None => S2_MIN_GRACE,
        };
        d.max(Instant::now() + grace)
    })
}

/// The end-to-end pipeline over a prepared graph: MQCE-S1 on `threads`
/// workers (see [`run_anchors`]), then [`compact_family`] over the
/// workers' arenas on the same workers under one graced S2 deadline,
/// granted when S1 ends. `s2_time` covers the sort, the merge and the
/// compaction.
pub(crate) fn run_pipeline(
    prepared: &PreparedGraph,
    config: &MqceConfig,
    threads: usize,
) -> MqceResult {
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);
    let s1_start = Instant::now();
    let outcome = match dc_setup(config) {
        Some((inner, dc)) => {
            let plan = DcPlan::from_prepared(prepared, config.params, dc, None);
            run_anchors(&plan, &plan.ordering, inner, threads, deadline)
        }
        None => solve_whole_graph(prepared.graph(), config, deadline),
    };
    let s1_time = s1_start.elapsed();
    let s2_start = Instant::now();
    let s2_dl = s2_deadline(deadline, config.time_limit);
    let sets_streamed = outcome.sets.iter().map(SetArena::len).sum::<usize>() as u64;
    let (s2_out, qcs) = compact_family(outcome.sets, threads, s2_dl);
    let s2_time = s2_start.elapsed();
    MqceResult {
        s2: S2Stats {
            backend: s2_out.backend.to_string(),
            sets_streamed,
            sets_retained: qcs as u64,
            steps: s2_out.steps,
        },
        qcs,
        mqcs: s2_out.mqcs,
        completeness: Completeness::new(&outcome.stats, s2_out.timed_out),
        stats: outcome.stats,
        thread_stats: outcome.thread_stats,
        s1_time,
        s2_time,
    }
}

/// MQCE-S2, the one compaction rule: merges `sets` into one
/// [`CanonicalFamily`] (each arena sorted on a worker of its own,
/// duplicates dropped), then compacts it with [`CanonicalFamily::compact`]
/// on `threads` workers under `deadline`. Returns the outcome and the
/// number of distinct sets compacted. Full runs ([`run_pipeline`]), query
/// searches and incremental updates all come through here.
///
/// The outcome is also marked timed out when the deadline had passed
/// before the pass started. A zero-budget run gets here with its deadline
/// already past, and compacting what is held (often nothing) may finish
/// before polling it, so the expiry itself marks the result partial. Runs
/// with a real budget start the pass with (most of) the grace slice still
/// ahead.
pub(crate) fn compact_family(
    sets: Vec<SetArena>,
    threads: usize,
    deadline: Option<Instant>,
) -> (S2Outcome, usize) {
    let family = CanonicalFamily::from_arenas(sets);
    let expired = deadline.is_some_and(|d| Instant::now() >= d);
    let mut outcome = family.compact(threads, deadline);
    outcome.timed_out |= expired;
    (outcome, family.len())
}

/// Convenience wrapper: enumerate the maximal γ-quasi-cliques of size ≥ θ
/// using the default configuration (DCFastQC with Sym-SE branching).
pub fn enumerate_mqcs_default(
    g: &Graph,
    gamma: f64,
    theta: usize,
) -> Result<MqceResult, crate::config::ParamError> {
    let config = MqceConfig::new(gamma, theta)?;
    Ok(Session::open(g.clone()).config(config).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BranchingStrategy;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};

    fn run(g: &Graph, config: &MqceConfig) -> MqceResult {
        run_threads(g, config, 1)
    }

    fn run_threads(g: &Graph, config: &MqceConfig, threads: usize) -> MqceResult {
        run_pipeline(&PreparedGraph::new(g.clone()), config, threads)
    }

    /// The distinct sets of the one-worker S1 output, sorted: the family a
    /// one-thread run compacts.
    fn s1_family(g: &Graph, config: &MqceConfig) -> Vec<Vec<VertexId>> {
        let mut sets = solve_s1(g, config).outputs;
        sets.sort_unstable();
        sets.dedup();
        sets
    }

    #[test]
    fn all_algorithms_agree_on_paper_graph() {
        let g = Graph::paper_figure1();
        for &gamma in &[0.5, 0.6, 0.9, 1.0] {
            for theta in 2..=3 {
                let reference = run(
                    &g,
                    &MqceConfig::new(gamma, theta)
                        .unwrap()
                        .with_algorithm(Algorithm::Naive),
                )
                .mqcs;
                for algo in [
                    Algorithm::DcFastQc,
                    Algorithm::FastQc,
                    Algorithm::BasicDcFastQc,
                    Algorithm::QuickPlus,
                    Algorithm::QuickPlusRaw,
                ] {
                    let result = run(
                        &g,
                        &MqceConfig::new(gamma, theta).unwrap().with_algorithm(algo),
                    );
                    assert_eq!(
                        result.mqcs, reference,
                        "algorithm {algo:?} disagrees at gamma={gamma} theta={theta}"
                    );
                    assert!(!result.timed_out());
                }
            }
        }
    }

    #[test]
    fn planted_groups_are_recovered() {
        // Two planted cliques of size 10 and 8 in a sparse background: with
        // γ = 0.9, θ = 7 the planted groups must appear inside the MQC list.
        let g = planted_quasi_cliques(
            80,
            0.02,
            &[
                PlantedGroup {
                    size: 10,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 8,
                    density: 1.0,
                },
            ],
            77,
        );
        let result = enumerate_mqcs_default(&g, 0.9, 7).unwrap();
        let group1: Vec<VertexId> = (0..10).collect();
        let group2: Vec<VertexId> = (10..18).collect();
        let covers = |planted: &Vec<VertexId>| {
            result
                .mqcs
                .iter()
                .any(|mqc| planted.iter().all(|v| mqc.contains(v)))
        };
        assert!(covers(&group1), "planted 10-clique not recovered");
        assert!(covers(&group2), "planted 8-clique not recovered");
        assert!(result.s1_time >= Duration::ZERO);
        assert_eq!(result.stats.outputs_rejected, 0);
    }

    #[test]
    fn qcs_superset_of_mqcs() {
        let g = Graph::paper_figure1();
        let result = enumerate_mqcs_default(&g, 0.6, 3).unwrap();
        let qcs = s1_family(&g, &MqceConfig::new(0.6, 3).unwrap());
        for mqc in &result.mqcs {
            assert!(qcs.contains(mqc));
        }
        assert_eq!(result.qcs, qcs.len());
        assert!(result.qcs >= result.mqcs.len());
    }

    #[test]
    fn size_stats() {
        let g = Graph::complete(5);
        let result = enumerate_mqcs_default(&g, 0.9, 2).unwrap();
        assert_eq!(result.mqc_size_stats(), Some((5, 5, 5.0)));
        let empty = enumerate_mqcs_default(&g, 0.9, 6).unwrap();
        assert_eq!(empty.mqc_size_stats(), None);
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
        let g = planted_quasi_cliques(
            100,
            0.02,
            &[
                PlantedGroup {
                    size: 10,
                    density: 0.95,
                },
                PlantedGroup {
                    size: 8,
                    density: 1.0,
                },
            ],
            55,
        );
        for algo in [Algorithm::DcFastQc, Algorithm::QuickPlus, Algorithm::FastQc] {
            let config = MqceConfig::new(0.9, 6).unwrap().with_algorithm(algo);
            let sequential = run(&g, &config);
            let parallel = run_threads(&g, &config, 4);
            assert_eq!(parallel.mqcs, sequential.mqcs, "{algo:?}");
        }
    }

    #[test]
    fn time_limit_is_respected() {
        use mqce_graph::generators::erdos_renyi_gnm;
        let g = erdos_renyi_gnm(300, 6000, 5);
        let config = MqceConfig::new(0.5, 3)
            .unwrap()
            .with_algorithm(Algorithm::QuickPlusRaw)
            .with_time_limit(Duration::from_millis(50));
        let start = Instant::now();
        let result = run(&g, &config);
        // Either the search finished quickly or it was cut off close to the
        // limit (Quick+ polls its deadline on cut children too); the bound
        // is ~20x what a debug build takes.
        assert!(start.elapsed() < Duration::from_secs(2));
        let _ = result.timed_out();
    }

    /// The backend knob is still accepted but selects nothing: every value
    /// gives the same family and runs the same pass over the distinct S1
    /// outputs.
    #[test]
    fn s2_backends_agree_and_report_stats() {
        use crate::S2Backend;
        let g = Graph::paper_figure1();
        let reference = enumerate_mqcs_default(&g, 0.6, 3).unwrap().mqcs;
        let qcs = s1_family(&g, &MqceConfig::new(0.6, 3).unwrap());
        for backend in [
            S2Backend::Auto,
            S2Backend::Inverted,
            S2Backend::Bitset,
            S2Backend::Extremal,
        ] {
            let result = run(
                &g,
                &MqceConfig::new(0.6, 3).unwrap().with_s2_backend(backend),
            );
            assert_eq!(result.mqcs, reference, "{backend:?}");
            assert!(result.completeness.is_exact());
            assert_eq!(result.s2.backend, "parallel", "{backend:?}");
            assert_eq!(result.s2.sets_streamed, result.stats.outputs);
            assert_eq!(result.s2.sets_retained as usize, qcs.len());
            assert_eq!(result.qcs, qcs.len());
            assert!(result.s2.sets_retained as usize >= result.mqcs.len());
        }
    }

    /// Multi-thread runs agree with the one-thread family for every value
    /// of the backend knob.
    #[test]
    fn parallel_merge_agrees_across_s2_backends() {
        use crate::S2Backend;
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 100,
                num_communities: 7,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            909,
        );
        let reference = run(&g, &MqceConfig::new(0.85, 5).unwrap()).mqcs;
        for backend in [
            S2Backend::Auto,
            S2Backend::Inverted,
            S2Backend::Bitset,
            S2Backend::Extremal,
        ] {
            let config = MqceConfig::new(0.85, 5).unwrap().with_s2_backend(backend);
            for threads in [2, 3, 4] {
                let parallel = run_threads(&g, &config, threads);
                assert_eq!(parallel.mqcs, reference, "{backend:?} at {threads} threads");
                assert!(parallel.completeness.is_exact());
                assert_eq!(parallel.s2.backend, "parallel");
                assert!(parallel.s2.sets_retained as usize >= reference.len());
            }
        }
    }

    /// S2 is one pass over the sorted, deduplicated S1 outputs at every
    /// thread count: the family is the same at 1–4 threads, and the pass
    /// is handed exactly the distinct outputs ([`solve_s1`]'s at one
    /// thread), none dropped before it runs. (A one-thread run on this graph
    /// emits thousands of sets after one of their supersets, so dropping
    /// sets on arrival would show.)
    #[test]
    fn one_s2_pass_at_every_thread_count() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 200,
                num_communities: 10,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            7,
        );
        let config = MqceConfig::new(0.85, 5).unwrap();
        let reference = run(&g, &config);
        let qcs = s1_family(&g, &config);
        assert!(qcs.len() > reference.mqcs.len());
        assert_eq!(reference.qcs, qcs.len());
        for threads in [1, 2, 3, 4] {
            let result = run_threads(&g, &config, threads);
            assert_eq!(result.mqcs, reference.mqcs, "{threads} threads");
            assert!(result.completeness.is_exact());
            assert_eq!(result.s2.backend, "parallel");
            assert_eq!(result.s2.sets_streamed, result.stats.outputs);
            assert_eq!(
                result.s2.sets_retained as usize, result.qcs,
                "{threads} threads"
            );
            assert!(result.qcs >= qcs.len(), "{threads} threads");
            assert!(result.s2.sets_retained <= result.s2.sets_streamed);
        }
    }

    /// The pass agrees with the independent serial filter on the S1
    /// outputs of a 2k-vertex community graph, at one and two threads.
    #[test]
    fn s2_pass_matches_filter_maximal_on_a_community_graph() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 2000,
                num_communities: 100,
                p_intra: 0.9,
                inter_degree: 1.0,
            },
            1,
        );
        let config = MqceConfig::new(0.9, 8).unwrap();
        let qcs = solve_s1(&g, &config).outputs;
        let expected = mqce_settrie::filter_maximal(&qcs);
        for threads in [1, 2] {
            let result = run_threads(&g, &config, threads);
            assert!(!result.timed_out());
            assert!(result.qcs > result.mqcs.len(), "{threads} threads");
            assert_eq!(result.mqcs, expected, "{threads} threads");
        }
    }

    #[test]
    fn zero_time_limit_returns_immediately_and_is_flagged() {
        // Regression: `s2_deadline` used to clamp the grace slice up to
        // S2_MIN_GRACE even for a zero budget, so `--time-limit 0` burned
        // 100ms of S2 work and reported `s2_timed_out = false` — an empty
        // answer indistinguishable from "this graph has no MQCs". A zero
        // budget must return promptly with the best-effort flag set.
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 200,
                num_communities: 10,
                p_intra: 0.9,
                inter_degree: 2.0,
            },
            7,
        );
        for algo in [Algorithm::DcFastQc, Algorithm::FastQc] {
            let config = MqceConfig::new(0.85, 4)
                .unwrap()
                .with_algorithm(algo)
                .with_time_limit(Duration::ZERO);
            let start = Instant::now();
            let result = run(&g, &config);
            let elapsed = start.elapsed();
            assert!(
                result.completeness.s2_timed_out,
                "{algo:?}: zero budget not flagged"
            );
            assert!(result.timed_out(), "{algo:?}");
            assert!(result.mqcs.is_empty(), "{algo:?}");
            // Must not burn the 100ms grace slice; leave headroom for the
            // (budget-independent) plan preparation on slow CI machines.
            assert!(
                elapsed < S2_MIN_GRACE,
                "{algo:?}: zero budget took {elapsed:?}"
            );
        }
        // The same at two threads, through the parallel compaction.
        let config = MqceConfig::new(0.85, 4)
            .unwrap()
            .with_time_limit(Duration::ZERO);
        let start = Instant::now();
        let result = run_threads(&g, &config, 2);
        let elapsed = start.elapsed();
        assert!(
            result.completeness.s2_timed_out,
            "2 threads: zero budget not flagged"
        );
        assert!(result.mqcs.is_empty());
        assert!(
            elapsed < S2_MIN_GRACE,
            "2 threads: zero budget took {elapsed:?}"
        );
    }

    #[test]
    fn shared_pipeline_matches_owning_pipeline() {
        // One PreparedGraph reused across algorithms and thread counts must
        // give the same family as a freshly prepared graph per run.
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 120,
                num_communities: 8,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            4242,
        );
        let prepared = PreparedGraph::new(g.clone());
        for algo in [
            Algorithm::DcFastQc,
            Algorithm::BasicDcFastQc,
            Algorithm::QuickPlus,
            Algorithm::FastQc,
        ] {
            let config = MqceConfig::new(0.85, 5).unwrap().with_algorithm(algo);
            let owning = run(&g, &config);
            let shared = run_pipeline(&prepared, &config, 1);
            assert_eq!(shared.mqcs, owning.mqcs, "{algo:?} shared != owning");
            let shared_par = run_pipeline(&prepared, &config, 4);
            assert_eq!(shared_par.mqcs, owning.mqcs, "{algo:?} shared parallel");
        }
    }

    #[test]
    fn shared_pipeline_handles_empty_core() {
        // theta high enough that the core reduction empties the graph.
        let prepared = PreparedGraph::new(Graph::path(10));
        let config = MqceConfig::new(0.9, 5).unwrap();
        let result = run_pipeline(&prepared, &config, 1);
        assert!(result.mqcs.is_empty());
        assert!(!result.timed_out());
    }

    #[test]
    fn branching_strategies_all_exact_on_community_graph() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 60,
                num_communities: 5,
                p_intra: 0.85,
                inter_degree: 1.0,
            },
            2024,
        );
        let reference = run(
            &g,
            &MqceConfig::new(0.8, 5)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc),
        )
        .mqcs;
        for branching in [BranchingStrategy::SymSe, BranchingStrategy::Se] {
            let result = run(
                &g,
                &MqceConfig::new(0.8, 5)
                    .unwrap()
                    .with_algorithm(Algorithm::DcFastQc)
                    .with_branching(branching),
            );
            assert_eq!(result.mqcs, reference, "branching {branching:?} disagrees");
        }
    }

    // ---- The two adjacency paths: bitset kernel vs sorted CSR slices ----
    //
    // `MqceParams::uses_kernel` picks the path from the input. These tests
    // force it on and off through the test-only `force_kernel` seam and
    // assert the two paths agree exactly on every configuration, including
    // graphs too large for the oracle, where the two paths check each other.

    const GAMMAS: [f64; 4] = [0.5, 0.7, 0.9, 1.0];
    const THETAS: [usize; 3] = [2, 3, 4];

    fn random_graph(rng: &mut rand::rngs::StdRng, n: usize, p: f64) -> Graph {
        use rand::Rng;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges)
    }

    /// `config` with the bitset kernel forced on (`Some(true)`), forced off
    /// (`Some(false)`) or left to the adaptive rule (`None`).
    fn with_kernel(mut config: MqceConfig, force: Option<bool>) -> MqceConfig {
        config.params.force_kernel = force;
        config
    }

    /// Runs S1 of `config` with the kernel forced on and forced off,
    /// asserting the two paths emit the same raw output in the same order
    /// (hence the same maximal sets) and count the same branches: the
    /// kernel changes how adjacency is answered, never what the search
    /// explores or emits.
    fn assert_paths_agree(g: &Graph, config: MqceConfig, label: &str) {
        let slices = solve_s1(g, &with_kernel(config, Some(false)));
        let kernel = solve_s1(g, &with_kernel(config, Some(true)));
        let cell = format!(
            "{label}: {:?}, gamma={}, theta={}",
            config.algorithm, config.params.gamma, config.params.theta
        );
        assert_eq!(
            slices.outputs, kernel.outputs,
            "{cell}: paths disagree on raw S1 output"
        );
        assert_eq!(
            slices.stats.branches, kernel.stats.branches,
            "{cell}: paths explored different search trees"
        );
    }

    /// Every algorithm × (γ, θ) cell of the grid.
    fn sweep_paths(g: &Graph, label: &str) {
        for gamma in GAMMAS {
            for theta in THETAS {
                for algorithm in [Algorithm::DcFastQc, Algorithm::FastQc, Algorithm::QuickPlus] {
                    let config = MqceConfig::new(gamma, theta)
                        .unwrap()
                        .with_algorithm(algorithm);
                    assert_paths_agree(g, config, label);
                }
            }
        }
    }

    #[test]
    fn kernel_and_slices_agree_on_random_graphs_across_full_grid() {
        // Seeded G(n, p) graphs sweeping size and density. Sizes are capped
        // because the low-γ grid cells are exponential on dense graphs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB175E7);
        for case in 0..10 {
            let n = rng.gen_range(10..17);
            let p = rng.gen_range(0.15..0.85);
            let g = random_graph(&mut rng, n, p);
            sweep_paths(&g, &format!("case {case} (n={n}, p={p:.2})"));
        }
    }

    #[test]
    fn kernel_and_slices_agree_on_structured_and_degenerate_graphs() {
        sweep_paths(&Graph::paper_figure1(), "paper figure 1");
        sweep_paths(&Graph::complete(9), "K9");
        sweep_paths(&Graph::star(8), "star8");
        sweep_paths(&Graph::empty(0), "empty");
        sweep_paths(&Graph::empty(5), "5 isolated vertices");
    }

    #[test]
    fn kernel_and_slices_agree_across_word_boundary_graphs() {
        // Vertices beyond id 64 exercise the multi-word rows of the kernel.
        // Sparse enough to keep the low-γ grid cells tractable, and swept at
        // the dense-community shape only for the strong-pruning γ values.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x60D);
        let sparse = random_graph(&mut rng, 80, 0.08);
        sweep_paths(&sparse, "word-boundary G(80, 0.08)");
        let dense = random_graph(&mut rng, 70, 0.5);
        for theta in [4, 6] {
            for algorithm in [Algorithm::DcFastQc, Algorithm::QuickPlus] {
                let config = MqceConfig::new(0.9, theta)
                    .unwrap()
                    .with_algorithm(algorithm);
                assert_paths_agree(&dense, config, "word-boundary G(70, 0.5)");
            }
        }
    }

    #[test]
    fn adaptive_rule_matches_forced_paths() {
        // The adaptive rule may pick either path per subproblem; whatever it
        // picks must match the forced-slices result through the whole grid.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA070);
        let g = random_graph(&mut rng, 25, 0.6);
        for gamma in GAMMAS {
            for theta in THETAS {
                let config = MqceConfig::new(gamma, theta).unwrap();
                let adaptive = run(&g, &with_kernel(config, None));
                let slices = run(&g, &with_kernel(config, Some(false)));
                assert_eq!(adaptive.mqcs, slices.mqcs, "gamma={gamma} theta={theta}");
            }
        }
    }
}
