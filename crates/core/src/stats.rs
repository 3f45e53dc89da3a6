//! Search statistics collected by the branch-and-bound searchers and the
//! divide-and-conquer driver. These power both the tests (e.g. "Sym-SE
//! explores no more branches than SE") and the ablation experiments.

use mqce_settrie::S2Steps;

/// Counters describing one MQCE-S1 run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of branch-and-bound nodes (recursive calls) explored.
    pub branches: u64,
    /// Branches pruned because the necessary condition C1&2 failed
    /// (`Δ(S) > τ(σ(B))` or `σ(B) < |S|`), including failures detected while
    /// progressively refining.
    pub pruned_by_condition: u64,
    /// Branches terminated by the size-based condition T2.
    pub pruned_by_size: u64,
    /// Branches terminated by T1 (`G[S∪C]` is itself a quasi-clique).
    pub t1_terminations: u64,
    /// Candidate vertices removed by the refinement rules (Rules 1 and 2) or
    /// the Quick+ Type I rules.
    pub candidates_refined: u64,
    /// Quasi-cliques emitted by the searcher (the MQCE-S1 output size).
    pub outputs: u64,
    /// Candidate outputs suppressed by the necessary-maximality check.
    pub outputs_suppressed_by_maximality: u64,
    /// Candidate outputs rejected because they failed the final quasi-clique
    /// verification. Always 0 unless there is a bug; tests assert on it.
    pub outputs_rejected: u64,
    /// Maximum recursion depth reached.
    pub max_depth: u64,
    /// Number of divide-and-conquer subproblems (0 when DC is not used).
    pub dc_subproblems: u64,
    /// Total number of vertices over all DC subgraphs before pruning.
    pub dc_vertices_before_pruning: u64,
    /// Total number of vertices over all DC subgraphs after pruning
    /// (what the search actually runs on).
    pub dc_vertices_after_pruning: u64,
    /// Branches donated by busy searchers as self-contained split tasks for
    /// hungry workers (work-stealing parallel driver only).
    pub split_donated: u64,
    /// Donated split tasks executed by workers.
    pub split_executed: u64,
    /// Tasks (whole subproblems or split tasks) taken from another worker's
    /// deque.
    pub tasks_stolen: u64,
    /// Subproblem or split-task searches that panicked and were contained
    /// by the DC drivers' `catch_unwind` boundary. The panicked branch's
    /// outputs are discarded (the family may be missing its quasi-cliques);
    /// every other subproblem completes normally. Always 0 unless there is
    /// a bug or a fault was injected.
    pub subproblem_panics: u64,
    /// Original-graph anchor vertex of the most recently contained panic.
    pub last_panicked_anchor: Option<mqce_graph::VertexId>,
    /// Whether the run stopped early because the time limit was hit.
    pub timed_out: bool,
}

impl SearchStats {
    /// Merges the counters of another run into this one (used by the DC
    /// driver to aggregate per-subproblem stats).
    pub fn merge(&mut self, other: &SearchStats) {
        self.branches += other.branches;
        self.pruned_by_condition += other.pruned_by_condition;
        self.pruned_by_size += other.pruned_by_size;
        self.t1_terminations += other.t1_terminations;
        self.candidates_refined += other.candidates_refined;
        self.outputs += other.outputs;
        self.outputs_suppressed_by_maximality += other.outputs_suppressed_by_maximality;
        self.outputs_rejected += other.outputs_rejected;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.dc_subproblems += other.dc_subproblems;
        self.dc_vertices_before_pruning += other.dc_vertices_before_pruning;
        self.dc_vertices_after_pruning += other.dc_vertices_after_pruning;
        self.split_donated += other.split_donated;
        self.split_executed += other.split_executed;
        self.tasks_stolen += other.tasks_stolen;
        self.subproblem_panics += other.subproblem_panics;
        self.last_panicked_anchor = other.last_panicked_anchor.or(self.last_panicked_anchor);
        self.timed_out |= other.timed_out;
    }
}

/// Per-worker counters of one work-stealing parallel run: what each thread
/// actually did, powering the per-thread efficiency rows of the `threads`
/// bench profile and the `BENCH_mqce.json` records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadStats {
    /// Worker index (`0..num_threads`).
    pub thread: usize,
    /// Whole per-vertex subproblems this worker ran.
    pub subproblems: u64,
    /// Donated split tasks (slices of another search's tree) this worker ran.
    pub splits: u64,
    /// Tasks this worker stole from another worker's deque.
    pub steals: u64,
    /// Wall-clock milliseconds spent executing tasks.
    pub busy_millis: f64,
    /// Wall-clock milliseconds spent hungry (looking for work).
    pub idle_millis: f64,
}

impl ThreadStats {
    /// Fraction of this worker's wall-clock spent executing tasks.
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy_millis + self.idle_millis;
        if total <= 0.0 {
            1.0
        } else {
            self.busy_millis / total
        }
    }
}

/// Counters describing the MQCE-S2 pass of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct S2Stats {
    /// The pass that compacted the family: `parallel`, i.e.
    /// [`compact_parallel`](mqce_settrie::compact_parallel), at every
    /// thread count.
    pub backend: String,
    /// Raw S1 outputs, duplicates included.
    pub sets_streamed: u64,
    /// Sets handed to the compaction: the distinct S1 outputs
    /// ([`MqceResult::qcs`](crate::MqceResult::qcs)). An upper bound on the
    /// final MQC count.
    pub sets_retained: u64,
    /// Wall-clock time of each step of the pass: merge (sort and
    /// deduplicate), index, probe, collect.
    pub steps: S2Steps,
}

impl std::fmt::Display for S2Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend={} streamed={} retained={}",
            if self.backend.is_empty() {
                "?"
            } else {
                &self.backend
            },
            self.sets_streamed,
            self.sets_retained
        )
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "branches={} pruned_cond={} pruned_size={} t1={} refined={} outputs={} depth={}",
            self.branches,
            self.pruned_by_condition,
            self.pruned_by_size,
            self.t1_terminations,
            self.candidates_refined,
            self.outputs,
            self.max_depth
        )?;
        if self.dc_subproblems > 0 {
            write!(
                f,
                " dc_subproblems={} dc_vertices={}→{}",
                self.dc_subproblems,
                self.dc_vertices_before_pruning,
                self.dc_vertices_after_pruning
            )?;
        }
        if self.split_donated + self.split_executed + self.tasks_stolen > 0 {
            write!(
                f,
                " donated={} splits_run={} stolen={}",
                self.split_donated, self.split_executed, self.tasks_stolen
            )?;
        }
        if self.subproblem_panics > 0 {
            write!(f, " contained_panics={}", self.subproblem_panics)?;
            if let Some(anchor) = self.last_panicked_anchor {
                write!(f, "(last_anchor={anchor})")?;
            }
        }
        if self.timed_out {
            write!(f, " TIMED_OUT")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            branches: 10,
            outputs: 2,
            max_depth: 3,
            ..Default::default()
        };
        let b = SearchStats {
            branches: 5,
            outputs: 1,
            max_depth: 7,
            timed_out: true,
            dc_subproblems: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.branches, 15);
        assert_eq!(a.outputs, 3);
        assert_eq!(a.max_depth, 7);
        assert_eq!(a.dc_subproblems, 2);
        assert!(a.timed_out);
    }

    #[test]
    fn s2_stats_display() {
        let s2 = S2Stats {
            backend: "parallel".to_string(),
            sets_streamed: 100,
            sets_retained: 40,
            steps: S2Steps {
                probe: std::time::Duration::from_millis(1500),
                ..S2Steps::default()
            },
        };
        let text = s2.to_string();
        assert!(text.contains("backend=parallel"));
        assert!(text.contains("streamed=100"));
        assert!(text.contains("retained=40"));
        assert_eq!(
            s2.steps.to_string(),
            "merge=0.000s index=0.000s probe=1.500s collect=0.000s"
        );
        assert!(S2Stats::default().to_string().contains("backend=?"));
    }

    #[test]
    fn thread_stats_busy_fraction() {
        let t = ThreadStats {
            thread: 1,
            busy_millis: 75.0,
            idle_millis: 25.0,
            ..Default::default()
        };
        assert!((t.busy_fraction() - 0.75).abs() < 1e-12);
        // A thread that recorded no time counts as fully busy, not NaN.
        assert_eq!(ThreadStats::default().busy_fraction(), 1.0);
    }

    #[test]
    fn display_mentions_steal_counters_only_when_present() {
        let quiet = SearchStats::default();
        assert!(!quiet.to_string().contains("donated="));
        let busy = SearchStats {
            split_donated: 3,
            split_executed: 2,
            tasks_stolen: 5,
            ..Default::default()
        };
        let text = busy.to_string();
        assert!(text.contains("donated=3"));
        assert!(text.contains("splits_run=2"));
        assert!(text.contains("stolen=5"));
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = SearchStats {
            branches: 42,
            dc_subproblems: 3,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("branches=42"));
        assert!(text.contains("dc_subproblems=3"));
        assert!(!text.contains("TIMED_OUT"));
    }
}
