//! Whether an answer is exact, decided once. An answer falls short of the
//! exact family (Problem 1) when a deadline cut MQCE-S1 or MQCE-S2, or the
//! DC drivers contained a searcher panic. Every answer type carries one
//! [`Completeness`], built where the answer is built, and every surface
//! (CLI warnings, daemon flags and cache admission, bench columns) reads
//! only it.

use mqce_graph::VertexId;

use crate::stats::SearchStats;

/// The verdict on one answer: exact when no reason below is set (the
/// default). A partial answer holds γ-quasi-cliques of size ≥ θ, each
/// inside a maximal one, but may miss sets (a cut S1 can leave sets that
/// are maximal only within what it found).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Completeness {
    /// The MQCE-S1 search stopped at its deadline with work left.
    pub search_timed_out: bool,
    /// The MQCE-S2 pass stopped at its deadline, or started past it.
    pub s2_timed_out: bool,
    /// Searcher panics contained by the DC drivers, each dropping the
    /// outputs of its branch.
    pub contained_panics: u64,
    /// Original-graph anchor of the last contained panic.
    pub panicked_anchor: Option<VertexId>,
}

impl Completeness {
    /// The one constructor: the verdict on an answer whose search reported
    /// `stats` and whose S2 pass reported `s2_timed_out`.
    pub fn new(stats: &SearchStats, s2_timed_out: bool) -> Self {
        Completeness {
            search_timed_out: stats.timed_out,
            s2_timed_out,
            contained_panics: stats.subproblem_panics,
            panicked_anchor: stats.last_panicked_anchor,
        }
    }

    /// Whether the answer is exact.
    pub fn is_exact(&self) -> bool {
        !self.timed_out() && self.contained_panics == 0
    }

    /// Whether a deadline cut either stage.
    pub fn timed_out(&self) -> bool {
        self.search_timed_out || self.s2_timed_out
    }

    /// Folds in the verdict on another part of the same answer (a top-k
    /// round): exact only if both are.
    pub fn merge(&mut self, other: Completeness) {
        self.search_timed_out |= other.search_timed_out;
        self.s2_timed_out |= other.s2_timed_out;
        self.contained_panics += other.contained_panics;
        self.panicked_anchor = other.panicked_anchor.or(self.panicked_anchor);
    }

    /// The CLI's `WARNING` lines, one per reason; none for an exact answer.
    pub fn warnings(&self) -> Vec<String> {
        let panics = self.contained_panics;
        let mut lines = Vec::new();
        if self.timed_out() {
            lines.push("time limit hit; output may be incomplete".to_string());
        }
        if self.s2_timed_out {
            lines.push("S2 deadline hit; MQC list is a sound partial antichain".to_string());
        }
        if panics > 0 {
            lines.push(format!(
                "{panics} subproblem panic(s) contained; output may be incomplete"
            ));
        }
        lines
            .into_iter()
            .map(|l| format!("WARNING          {l}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(timed_out: bool, panics: u64, anchor: Option<VertexId>) -> SearchStats {
        SearchStats {
            timed_out,
            subproblem_panics: panics,
            last_panicked_anchor: anchor,
            ..SearchStats::default()
        }
    }

    #[test]
    fn clean_signals_are_exact_and_any_cut_is_partial() {
        let exact = Completeness::new(&SearchStats::default(), false);
        assert!(exact.is_exact() && exact == Completeness::default());
        assert!(exact.warnings().is_empty());
        for (c, timed_out) in [
            (Completeness::new(&stats(true, 0, None), false), true),
            (Completeness::new(&SearchStats::default(), true), true),
            (Completeness::new(&stats(false, 2, Some(7)), false), false),
        ] {
            assert!(!c.is_exact(), "{c:?}");
            assert_eq!(c.timed_out(), timed_out, "{c:?}");
            assert!(!c.warnings().is_empty(), "{c:?}");
        }
        let panicked = Completeness::new(&stats(false, 2, Some(7)), false);
        assert_eq!(panicked.contained_panics, 2);
        assert_eq!(panicked.panicked_anchor, Some(7));
    }

    #[test]
    fn merge_is_exact_only_when_both_parts_are() {
        let mut c = Completeness::default();
        c.merge(Completeness::default());
        assert!(c.is_exact());
        c.merge(Completeness::new(&stats(false, 1, Some(3)), false));
        c.merge(Completeness::new(&stats(true, 1, Some(5)), true));
        c.merge(Completeness::default());
        assert!(c.search_timed_out && c.s2_timed_out);
        assert_eq!(c.contained_panics, 2);
        assert_eq!(c.panicked_anchor, Some(5));
        assert_eq!(c.warnings().len(), 3);
    }
}
