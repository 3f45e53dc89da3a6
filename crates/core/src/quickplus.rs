//! The Quick+ baseline (Algorithm 1 of the paper).
//!
//! Quick+ is the state-of-the-art algorithm the paper compares against
//! (Liu & Wong's Quick with the improved pruning rules and boundary-case
//! fixes of Guo et al. / Khalil et al. [19, 24]). It uses plain
//! set-enumeration (SE) branching and prunes with *Type I* rules (removing
//! candidates) and *Type II* rules (terminating branches). The paper
//! deliberately leaves the rule list to \[24\]; this implementation contains the
//! core degree- and bound-based subset of those rules (see `DESIGN.md` §3),
//! which keeps the baseline correct (verified against the exhaustive oracle)
//! and preserves its defining characteristics: SE branching and no worst-case
//! guarantee better than `O*(2^n)`.
//!
//! Unlike FastQC, Quick+ does **not** apply the necessary-maximality filter to
//! its outputs, so it reports more non-maximal quasi-cliques (this is the
//! `#{Quick+}` vs `#{DCFastQC}` comparison of Table 1).

use mqce_graph::VertexId;

use crate::bounds::{branch_bounds, candidate_feasible};
use crate::branch::{DegSource, SearchCtx};
use crate::quasiclique::{required_degree, tau};
use crate::scheduler::SplitRequest;

/// The Quick+ searcher over one search context; run through
/// [`InnerAlgorithm::search`](crate::dc::InnerAlgorithm::search).
pub(crate) struct QuickPlus<'a, 'g> {
    pub(crate) ctx: &'a mut SearchCtx<'g>,
}

impl<'a, 'g> QuickPlus<'a, 'g> {
    /// `Quick-Rec(S, C, D)`: returns `true` iff a quasi-clique was found under
    /// this branch (so the parent knows whether to consider `G[S]`).
    pub(crate) fn recurse(&mut self, cand: Vec<VertexId>) -> bool {
        let result = if self.ctx.enter_branch() {
            self.branch_body(&cand)
        } else {
            false
        };
        self.ctx.leave_branch();
        self.ctx.put_buf(cand);
        result
    }

    fn branch_body(&mut self, cand: &[VertexId]) -> bool {
        // Termination (lines 3-6): no candidates left.
        if cand.is_empty() {
            return self.output_partial_set();
        }

        // SE branching (Equation 1): branch B_i includes v_i and excludes
        // v_1..v_{i-1}.
        let order = cand;
        let mut any_found = false;
        let mut donated = false;
        let mut excluded = self.ctx.take_buf();
        let mut removed = self.ctx.take_buf();
        for (i, &vi) in order.iter().enumerate() {
            // Donate the untaken SE branches B_{i+1}.. (include v_k, exclude
            // v_1..v_{k-1}, implicit in the (s_init, cand) pair) when a
            // worker is hungry, then finish only the current branch here.
            let rest = order.len() - i - 1;
            if rest > 0 && self.ctx.should_split(rest) {
                let s0 = self.ctx.s_vertices().to_vec();
                let mut tasks = Vec::with_capacity(rest);
                for k in i + 1..order.len() {
                    let mut s = s0.clone();
                    s.push(order[k]);
                    tasks.push(SplitRequest {
                        s_init: s,
                        cand: order[k + 1..].to_vec(),
                    });
                }
                self.ctx.donate(tasks);
                donated = true;
            }
            self.ctx.push_s(vi);
            let mut child_cand = self.ctx.take_buf();
            child_cand.extend_from_slice(&order[i + 1..]);

            // Type I pruning on C_i and Type II checks on S_i.
            removed.clear();
            let type2 = self.prune(&mut child_cand, &mut removed);
            if !type2 {
                any_found |= self.recurse(child_cand);
            } else {
                self.ctx.stats.pruned_by_size += 1;
                self.ctx.put_buf(child_cand);
                self.ctx.cut_child();
            }
            for &v in removed.iter().rev() {
                self.ctx.restore_c(v);
            }
            self.ctx.pop_s(vi);
            if self.ctx.aborted {
                break;
            }
            if donated {
                break;
            }
            self.ctx.remove_c(vi);
            excluded.push(vi);
        }
        let aborted = self.ctx.aborted;
        for &v in excluded.iter().rev() {
            self.ctx.restore_c(v);
        }
        self.ctx.put_buf(excluded);
        self.ctx.put_buf(removed);
        if aborted {
            return any_found;
        }

        // Additional step (lines 12-15): if no sub-branch found a QC, the
        // partial set itself may be one (non-hereditary property).
        if any_found {
            return true;
        }
        self.output_partial_set()
    }

    /// Emits `G[S]` if it is a large QC. Returns `true` iff `G[S]` is a QC
    /// (regardless of θ), per lines 4-5 / 13-14 of Algorithm 1. Quick+ does
    /// not apply the necessary-maximality filter.
    fn output_partial_set(&mut self) -> bool {
        if self.ctx.s_len() == 0 {
            return false;
        }
        let mut s = self.ctx.take_buf();
        s.extend_from_slice(self.ctx.s_vertices());
        let result = if self.ctx.is_qc(&s) {
            self.ctx.emit(&s, DegSource::PartialSet, false);
            true
        } else {
            false
        };
        self.ctx.put_buf(s);
        result
    }

    /// Applies Type I pruning rules to `cand` (removing vertices, recorded in
    /// `removed` for undo) and then checks the Type II rules on `S`.
    /// Returns `true` if a Type II rule fires (the branch must be skipped).
    fn prune(&mut self, cand: &mut Vec<VertexId>, removed: &mut Vec<VertexId>) -> bool {
        let gamma = self.ctx.gamma;
        let theta = self.ctx.theta;
        let min_req = required_degree(gamma, theta);
        loop {
            let s_len = self.ctx.s_len();
            let total = s_len + cand.len();
            // Type II (a): not enough vertices left for a large QC.
            if total < theta {
                return true;
            }
            // τ(N) bounds the disconnections of any vertex in a QC under the
            // branch (Equation 7 instantiated at the largest possible size).
            let tau_n = tau(gamma, total as f64);
            // Type II (b): a vertex of S already has too many disconnections
            // within S, or cannot reach the θ-degree requirement at all.
            for &v in self.ctx.s_vertices() {
                if self.ctx.disconnections_s(v) as i64 > tau_n {
                    return true;
                }
                if self.ctx.deg_sc(v) < min_req {
                    return true;
                }
            }
            // Type II (c): upper bound on the size of any QC under the branch
            // derived from the minimum degree within S (Lemma 2).
            if let Some(dmin) = self.ctx.d_min() {
                let size_bound = (dmin as f64 / gamma + 1.0).floor() as usize;
                if size_bound.min(total) < theta {
                    return true;
                }
            }
            // Type II (d): the upper/lower bounds on the number of addable
            // candidates (the U_min / L_max rules of Quick). `upper` caps how
            // many candidates any QC under the branch can still absorb;
            // `lower` is how many the most deficient member of S still needs.
            let bounds = match branch_bounds(
                gamma,
                s_len,
                self.ctx
                    .s_vertices()
                    .iter()
                    .map(|&v| {
                        let ind = self.ctx.deg_s(v);
                        (ind, self.ctx.deg_sc(v) - ind)
                    })
                    .collect::<Vec<_>>(),
                cand.len(),
            ) {
                Some(b) => b,
                None => return true,
            };
            if s_len + bounds.upper < theta || bounds.lower > bounds.upper {
                return true;
            }
            let t_max = if s_len == 0 { cand.len() } else { bounds.upper };

            // Type I rules: remove candidates that cannot belong to any large
            // QC under the branch.
            let mut to_remove = self.ctx.take_buf();
            for &v in cand.iter() {
                // (1) Degree too small to ever satisfy the θ requirement.
                let rule_degree = self.ctx.deg_sc(v) < min_req;
                // (2) Too many non-neighbours within S already:
                //     δ̄(v, S∪{v}) > τ(N).
                let disconnections = s_len + 1 - self.ctx.deg_s(v);
                let rule_disconnections = disconnections as i64 > tau_n;
                // (3) Bound-based rule: no admissible number of additions
                //     t ≤ U_min lets v reach its own degree requirement in a
                //     QC of size ≥ θ.
                let ind_s = self.ctx.deg_s(v);
                let ext_c = self.ctx.deg_sc(v) - ind_s;
                let rule_bounds = !candidate_feasible(gamma, theta, s_len, ind_s, ext_c, t_max);
                if rule_degree || rule_disconnections || rule_bounds {
                    to_remove.push(v);
                }
            }
            if to_remove.is_empty() {
                self.ctx.put_buf(to_remove);
                return false;
            }
            self.ctx.stats.candidates_refined += to_remove.len() as u64;
            for &v in &to_remove {
                self.ctx.remove_c(v);
                removed.push(v);
            }
            cand.retain(|v| !to_remove.contains(v));
            self.ctx.put_buf(to_remove);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::branch::{SearchOutcome, SearchScratch};
    use crate::config::{Algorithm, MqceConfig, MqceParams};
    use crate::dc::InnerAlgorithm;
    use crate::naive;
    use crate::pipeline::solve_s1;
    use mqce_graph::Graph;
    use mqce_settrie::filter_maximal;

    fn params(gamma: f64, theta: usize) -> MqceParams {
        MqceParams::new(gamma, theta).unwrap()
    }

    /// `algorithm` over the whole graph (no initial `S`): the pipeline's
    /// whole-graph S1 path.
    fn whole_graph(g: &Graph, p: MqceParams, algorithm: Algorithm) -> SearchOutcome {
        let config = MqceConfig::new(p.gamma, p.theta)
            .unwrap()
            .with_algorithm(algorithm);
        solve_s1(g, &config)
    }

    fn check_against_oracle(g: &Graph, gamma: f64, theta: usize) {
        let p = params(gamma, theta);
        let outcome = whole_graph(g, p, Algorithm::QuickPlusRaw);
        assert_eq!(outcome.stats.outputs_rejected, 0);
        for h in &outcome.outputs {
            assert!(h.len() >= theta);
            assert!(crate::quasiclique::is_quasi_clique(g, h, gamma));
        }
        let filtered = filter_maximal(&outcome.outputs);
        let expected = naive::all_maximal_quasi_cliques(g, p);
        assert_eq!(
            filtered,
            expected,
            "Quick+ mismatch for gamma={gamma} theta={theta} on {} vertices",
            g.num_vertices()
        );
    }

    #[test]
    fn complete_and_paper_graphs() {
        check_against_oracle(&Graph::complete(6), 0.9, 3);
        let g = Graph::paper_figure1();
        for &gamma in &[0.5, 0.6, 0.7, 0.9, 1.0] {
            check_against_oracle(&g, gamma, 2);
            check_against_oracle(&g, gamma, 3);
        }
    }

    #[test]
    fn random_graphs_match_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for case in 0..25 {
            let n = rng.gen_range(4..10);
            let p = rng.gen_range(0.25..0.85);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let gamma = [0.5, 0.6, 0.75, 0.9, 1.0][case % 5];
            let theta = 2 + (case % 2);
            check_against_oracle(&g, gamma, theta);
        }
    }

    #[test]
    fn quickplus_reports_at_least_as_many_outputs_as_fastqc() {
        // Quick+ lacks the necessary-maximality filter, so its S1 output is a
        // superset in count (Table 1 shape: #{Quick+} ≥ #{DCFastQC}).
        let g = Graph::paper_figure1();
        let p = params(0.6, 3);
        let quick = whole_graph(&g, p, Algorithm::QuickPlusRaw);
        let fast = whole_graph(&g, p, Algorithm::FastQc);
        assert!(quick.stats.outputs >= fast.stats.outputs);
        // And both reduce to the same maximal set.
        assert_eq!(
            filter_maximal(&quick.outputs),
            filter_maximal(&fast.outputs)
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        let outcome = whole_graph(&g, params(0.9, 2), Algorithm::QuickPlusRaw);
        assert!(outcome.outputs.is_empty());
    }

    /// Type II checks cut most children before they enter a branch, so the
    /// deadline poll must count those children too: entered branches alone
    /// leave seconds between polls on this graph.
    #[test]
    fn quickplus_stops_soon_after_its_deadline() {
        use crate::session::Session;
        use mqce_graph::generators::erdos_renyi_gnm;
        use std::time::{Duration, Instant};

        let g = erdos_renyi_gnm(250, 5500, 5);
        for algorithm in [Algorithm::QuickPlus, Algorithm::QuickPlusRaw] {
            let config = MqceConfig::new(0.5, 3)
                .unwrap()
                .with_algorithm(algorithm)
                .with_time_limit(Duration::from_millis(50));
            for threads in [1, 2] {
                let start = Instant::now();
                let result = Session::open(g.clone())
                    .config(config)
                    .threads(threads)
                    .run();
                let elapsed = start.elapsed();
                assert!(result.timed_out(), "{algorithm:?} at {threads} threads");
                assert!(
                    elapsed < Duration::from_secs(1),
                    "{algorithm:?} at {threads} threads took {elapsed:?}"
                );
            }
        }
    }

    #[test]
    fn dc_style_invocation() {
        let g = Graph::complete(5);
        let mut bufs = SearchScratch::default();
        InnerAlgorithm::QuickPlus.search(
            &g,
            None,
            &[0],
            &[1, 2, 3, 4],
            params(0.9, 2),
            None,
            None,
            &mut bufs,
        );
        let filtered = filter_maximal(&bufs.sets.to_vecs());
        assert_eq!(filtered, vec![vec![0, 1, 2, 3, 4]]);
    }
}
