//! The FastQC branch-and-bound algorithm (Algorithm 2 of the paper).
//!
//! FastQC differs from Quick+ in three ways, all of which are implemented
//! here:
//!
//! 1. **SD-space necessary condition & progressive refinement** (Sections
//!    4.1–4.2): a branch `B = (S, C, D)` can hold a quasi-clique only if
//!    `Δ(S) ≤ τ(σ(B))`; candidates that would violate the condition (Rule 1)
//!    or cannot appear in a large QC (Rule 2) are removed, the bound is
//!    recomputed, and the check repeats until a fixpoint or until the branch
//!    is pruned.
//! 2. **Sym-SE branching** (Section 4.3): sub-branches are ordered so that
//!    their partial sets grow along a pivot's non-neighbours; once the
//!    necessary condition fails for one sub-branch it fails for all later
//!    ones, so only `a + 1` sub-branches are created.
//! 3. **Hybrid-SE branching** (Section 4.4): when the pivot `v̂ ∈ C` is
//!    adjacent to all of `S`, SE branches (excluding `v̂`) and Sym-SE branches
//!    (including `v̂`) are combined, additionally discarding branches that can
//!    only hold non-maximal QCs (Lemma 3).
//!
//! Together these give the `O(n · d · α_k^n)` worst-case bound with
//! `α_k < 2` (Theorem 1). Sym-SE is nevertheless the default
//! [`BranchingStrategy`]: it explores fewer branches in practice.
//!
//! # Hybrid-SE as implemented
//!
//! Notation: `τ = τ(σ(B))`, `a = τ − δ̄(v̂, S)`, `b = δ̄(v̂, C)` (counting
//! `v̂` itself when `v̂ ∈ C`), and the pivot order puts `v_1 = v̂` first, its
//! non-neighbours `v_2..v_b` in `C` next, its neighbours last. T1 failed, so
//! `a < b`. An audit of `branch_hybrid_se` and of the test that
//! selects it, against Eq. 18 and Lemma 3:
//!
//! - **The branches are Eq. 18's.** Part 1 excludes `v̂` and opens the SE
//!   branches `B̃_i` (include `v_i`, exclude `v_1..v_{i−1}`) for
//!   `i = 2..=b`; part 2 includes `v̂` and opens the Sym-SE branches `B̈_i`
//!   (include `v_1..v_{i−1}`, exclude `v_i`) for `i = 2..=a+1`. The SE
//!   branch `B̃_{b+1}`, which excludes `v̂` and all its non-neighbours, is
//!   never opened: that is Lemma 3's discard. Its candidates are all
//!   adjacent to `v̂`, so if `v̂` is adjacent to all of `S`, every QC `H` in
//!   it extends to the QC `H ∪ {v̂}` and is not maximal. No line of the two
//!   parts contradicts the equation.
//! - **Applicability.** The test asks for `v̂ ∈ C` and `δ̄(v̂, S) = 0`
//!   (Lemma 3's premise, so `a = τ`) and then for `b == a + 1` or `τ == 1`.
//!   `b == a + 1` is the case behind `α_k`: with `k = τ`, both parts remove
//!   `i` candidates in their `i`-th branch, so
//!   `T(n) = 2·Σ_{i=2}^{k+1} T(n−i)`, whose characteristic polynomial is
//!   `x^{k+2} − x^{k+1} − 2x^k + 2` ([`alpha_k`]).
//! - **The `τ == 1` disjunct is not in Eq. 18 or Lemma 3**, and the
//!   recurrence does not need it: it widens the test to every `b` when
//!   `τ = 1`. Narrowing the test is always sound (the fallback is
//!   Sym-SE). Without the disjunct, lexicon at γ=0.99 explores 284,191
//!   branches instead of 2,421,275 (Sym-SE's count), and community-20k
//!   3,152,798 instead of 3,152,850. It stays as written: Hybrid-SE is kept
//!   as the Figure 11 ablation arm, not tuned.
//! - **Child count.** Where the test fires, Hybrid-SE opens `(b − 1) + a`
//!   children and Sym-SE `a + 1`: they tie at `b = 2`, and for `b ≥ 3`
//!   Hybrid-SE opens more. Its `B̃_2..B̃_b` and the discarded `B̃_{b+1}`
//!   split Sym-SE's one child `B_1` (exclude `v̂`). On every finished
//!   workload measured that trade loses: community-20k at one thread
//!   explores 3,152,850 branches under Hybrid-SE and 1,784,876 under
//!   Sym-SE, for the same 429,652 maximal sets (README, "Branching
//!   (Fig. 11)").

use mqce_graph::VertexId;

use crate::branch::{DegSource, SearchCtx};
use crate::config::BranchingStrategy;
use crate::scheduler::SplitRequest;

/// The FastQC searcher over one search context; run through
/// [`InnerAlgorithm::search`](crate::dc::InnerAlgorithm::search).
pub(crate) struct FastQc<'a, 'g> {
    pub(crate) ctx: &'a mut SearchCtx<'g>,
    pub(crate) branching: BranchingStrategy,
}

/// What the refinement loop decided about the current branch.
enum Refined {
    /// The branch was pruned by the necessary condition.
    Pruned,
    /// The branch survives; `tau` is `τ(σ(B))` for the refined branch.
    Keep { tau: i64 },
}

impl<'a, 'g> FastQc<'a, 'g> {
    /// `FastQC-Rec(S, C, D)`. Returns `true` iff a quasi-clique was found in
    /// this branch (including `G[S]` itself), matching the bookkeeping of
    /// Algorithm 2 that decides whether the parent must consider `G[S]`.
    pub(crate) fn recurse(&mut self, mut cand: Vec<VertexId>) -> bool {
        let result = if self.ctx.enter_branch() {
            self.branch_body(&mut cand)
        } else {
            false
        };
        self.ctx.leave_branch();
        self.ctx.put_buf(cand);
        result
    }

    /// [`recurse`](Self::recurse) on a borrowed candidate list, copying it
    /// into a pooled frame buffer first.
    fn recurse_slice(&mut self, cand: &[VertexId]) -> bool {
        let mut child = self.ctx.take_buf();
        child.extend_from_slice(cand);
        self.recurse(child)
    }

    fn branch_body(&mut self, cand: &mut Vec<VertexId>) -> bool {
        // ---- progressive refinement & necessary condition (lines 3-7) ----
        let mut removed_here = self.ctx.take_buf();
        let refined = self.refine_loop(cand, &mut removed_here);
        let result = match refined {
            Refined::Pruned => {
                self.ctx.stats.pruned_by_condition += 1;
                false
            }
            Refined::Keep { tau } => self.after_refinement(cand, tau),
        };
        // Undo the refinement removals before returning to the caller.
        for &v in removed_here.iter().rev() {
            self.ctx.restore_c(v);
        }
        self.ctx.put_buf(removed_here);
        result
    }

    /// Lines 3-7 of Algorithm 2: repeatedly check the necessary condition and
    /// apply Refinement Rules 1 and 2 until the branch is pruned or no more
    /// candidates can be removed.
    fn refine_loop(&mut self, cand: &mut Vec<VertexId>, removed: &mut Vec<VertexId>) -> Refined {
        let mut critical = self.ctx.take_buf();
        let mut to_remove = self.ctx.take_buf();
        let result = loop {
            // Necessary condition C1&2: Δ(S) ≤ τ(σ(B)) and σ(B) ≥ |S|.
            if self.ctx.sigma_below_s(cand.len()) {
                break Refined::Pruned;
            }
            let tau_sigma = self.ctx.tau_sigma(cand.len());
            let delta_s = self.ctx.delta_s() as i64;
            if delta_s > tau_sigma {
                break Refined::Pruned;
            }
            if cand.is_empty() {
                break Refined::Keep { tau: tau_sigma };
            }

            // Refinement Rule 1: remove v ∈ C with Δ(S ∪ {v}) > τ(σ(B)).
            // Given Δ(S) ≤ τ, the condition is equivalent to
            //   δ̄(v, S∪{v}) > τ   or   ∃ u ∈ S with δ̄(u,S) = τ and (u,v) ∉ E.
            critical.clear();
            critical.extend(
                self.ctx
                    .s_vertices()
                    .iter()
                    .copied()
                    .filter(|&u| self.ctx.disconnections_s(u) as i64 == tau_sigma),
            );
            self.ctx.count_adjacency_to(&critical, cand);
            let s_len = self.ctx.s_len() as i64;
            let theta = self.ctx.theta as i64;
            to_remove.clear();
            for &v in cand.iter() {
                let self_disconnections = s_len + 1 - self.ctx.deg_s(v) as i64;
                let rule1 = self_disconnections > tau_sigma
                    || (self.ctx.adjacency_count(v) as usize) < critical.len();
                // Refinement Rule 2: remove v with δ(v, S∪C) < θ − τ(σ(B)).
                let rule2 = (self.ctx.deg_sc(v) as i64) < theta - tau_sigma;
                if rule1 || rule2 {
                    to_remove.push(v);
                }
            }
            if to_remove.is_empty() {
                break Refined::Keep { tau: tau_sigma };
            }
            self.ctx.stats.candidates_refined += to_remove.len() as u64;
            for &v in &to_remove {
                self.ctx.remove_c(v);
                removed.push(v);
            }
            cand.retain(|v| !to_remove.contains(v));
        };
        self.ctx.put_buf(critical);
        self.ctx.put_buf(to_remove);
        result
    }

    /// Lines 8-25 of Algorithm 2: termination conditions, branching and the
    /// non-hereditary "additional step".
    fn after_refinement(&mut self, cand: &[VertexId], tau_sigma: i64) -> bool {
        // ---- T1: Δ(S ∪ C) ≤ τ(σ(B)) — the branch holds G[S∪C] itself ----
        let delta_sc = self.ctx.delta_sc(cand) as i64;
        if delta_sc <= tau_sigma {
            self.ctx.stats.t1_terminations += 1;
            let mut union = self.ctx.take_buf();
            union.extend_from_slice(self.ctx.s_vertices());
            union.extend_from_slice(cand);
            if union.is_empty() {
                self.ctx.put_buf(union);
                return false;
            }
            self.ctx.emit(&union, DegSource::PartialAndCandidates, true);
            self.ctx.put_buf(union);
            return true;
        }

        // ---- T2: size-based termination ----
        let total = self.ctx.s_len() + cand.len();
        if total < self.ctx.theta {
            self.ctx.stats.pruned_by_size += 1;
            return false;
        }
        let theta = self.ctx.theta as i64;
        if self
            .ctx
            .s_vertices()
            .iter()
            .any(|&v| (self.ctx.deg_sc(v) as i64) < theta - tau_sigma)
        {
            self.ctx.stats.pruned_by_size += 1;
            return false;
        }

        // ---- pivot selection (Section 4.3) ----
        // v̂ = argmax_{v ∈ S∪C} δ̄(v, S∪C); T1 failed, so the max exceeds τ.
        let pivot = self
            .ctx
            .s_vertices()
            .iter()
            .chain(cand.iter())
            .copied()
            .max_by_key(|&v| total - self.ctx.deg_sc(v))
            .expect("S ∪ C is non-empty here");
        let pivot_disconnections_sc = (total - self.ctx.deg_sc(pivot)) as i64;
        debug_assert!(pivot_disconnections_sc > tau_sigma);

        // a = τ(σ(B)) − δ̄(v̂, S);  b = δ̄(v̂, C).
        let a = tau_sigma - self.ctx.disconnections_s(pivot) as i64;
        let pivot_deg_c = self.ctx.deg_sc(pivot) - self.ctx.deg_s(pivot);
        let b = (cand.len() - pivot_deg_c) as i64;
        debug_assert!(a < b, "a = {a} must be smaller than b = {b}");

        let any_found = match self.branching {
            BranchingStrategy::Se => self.branch_se_plain(cand),
            BranchingStrategy::SymSe => self.branch_sym_se(cand, pivot, a),
            BranchingStrategy::HybridSe => {
                let hybrid_applicable = self.ctx.in_c(pivot)
                    && self.ctx.disconnections_s(pivot) == 0
                    && (b == a + 1 || tau_sigma == 1);
                if hybrid_applicable {
                    self.branch_hybrid_se(cand, pivot, a, b)
                } else {
                    self.branch_sym_se(cand, pivot, a)
                }
            }
        };

        if any_found {
            return true;
        }
        // ---- additional step (lines 21-24): consider G[S] itself ----
        self.output_partial_set()
    }

    /// Emits `G[S]` if it is a QC passing the necessary maximality condition;
    /// returns `true` iff `G[S]` is a QC that passes the condition (the value
    /// the parent uses to decide whether to consider its own partial set).
    fn output_partial_set(&mut self) -> bool {
        if self.ctx.s_len() == 0 {
            return false;
        }
        let mut s = self.ctx.take_buf();
        s.extend_from_slice(self.ctx.s_vertices());
        if !self.ctx.is_qc(&s) {
            self.ctx.put_buf(s);
            return false;
        }
        // `emit` re-verifies the predicate and applies the maximality filter;
        // it only refuses QCs that are extendable or below θ. The return value
        // of the *branch* must be true whenever G[S] is a QC that satisfies
        // the necessary maximality condition, regardless of θ — so when the
        // emission was suppressed, distinguish "extendable" (false — some
        // other branch will report the extension) from "below θ" (true — a QC
        // exists here). `h == S`, so the maintained δ(·,S) array serves both
        // checks without a recompute.
        let result = self.ctx.emit(&s, DegSource::PartialSet, true)
            || self.ctx.no_extension(&s, DegSource::PartialSet);
        self.ctx.put_buf(s);
        result
    }

    // ---- branching methods --------------------------------------------------

    /// Sym-SE branching (Equation 13) with the pivot-based ordering of
    /// Section 4.3; only the first `a + 1` sub-branches are created, the rest
    /// are guaranteed to violate the necessary condition.
    fn branch_sym_se(&mut self, cand: &[VertexId], pivot: VertexId, a: i64) -> bool {
        let mut order = self.ctx.take_buf();
        self.pivot_order_into(cand, pivot, &mut order);
        let keep = ((a + 1).max(0) as usize).min(order.len());
        let mut any = false;
        let mut moved_to_s = self.ctx.take_buf();
        for i in 0..keep {
            let vi = order[i];
            // Donate the untaken later branches B_{i+1}..B_keep when a
            // worker is hungry: branch B_j includes v_1..v_{j-1}, excludes
            // v_j and keeps C = order[j+1..], which is self-contained as
            // (S ∪ order[..j], order[j+1..]) — the exclusions are implicit.
            let rest = keep - i - 1;
            if rest > 0 && self.ctx.should_split(rest) {
                let mut s = self.ctx.s_vertices().to_vec();
                s.push(vi);
                let mut tasks = Vec::with_capacity(rest);
                for j in i + 1..keep {
                    tasks.push(SplitRequest {
                        s_init: s.clone(),
                        cand: order[j + 1..].to_vec(),
                    });
                    s.push(order[j]);
                }
                self.ctx.donate(tasks);
                // Run the current branch, then stop: the rest of the frame
                // belongs to the stolen tasks. Whether they find a QC is
                // unknown here, so the caller may redundantly emit G[S];
                // MQCE-S2 drops it as dominated.
                self.ctx.remove_c(vi);
                any |= self.recurse_slice(&order[i + 1..]);
                self.ctx.restore_c(vi);
                break;
            }
            // Branch B_i: exclude v_i, include v_1..v_{i-1} (already in S).
            self.ctx.remove_c(vi);
            any |= self.recurse_slice(&order[i + 1..]);
            self.ctx.restore_c(vi);
            if self.ctx.aborted {
                break;
            }
            self.ctx.push_s(vi);
            moved_to_s.push(vi);
        }
        for &v in moved_to_s.iter().rev() {
            self.ctx.pop_s(v);
        }
        self.ctx.put_buf(moved_to_s);
        self.ctx.put_buf(order);
        any
    }

    /// Hybrid-SE branching (Equation 18): SE branches `B̃_2..B̃_b` excluding
    /// the pivot, plus Sym-SE branches `B̈_2..B̈_{a+1}` including it.
    fn branch_hybrid_se(&mut self, cand: &[VertexId], pivot: VertexId, a: i64, b: i64) -> bool {
        let mut order = self.ctx.take_buf();
        self.pivot_order_into(cand, pivot, &mut order);
        debug_assert_eq!(order[0], pivot);
        let b = (b.max(1) as usize).min(order.len());
        let a = (a.max(0) as usize).min(order.len().saturating_sub(1));
        let mut any = false;
        let mut donated = false;

        // Part 1 — SE branches that exclude the pivot: B̃_i for i = 2..=b,
        // i.e. include v_i, exclude v_1..v_{i-1}.
        let mut excluded = self.ctx.take_buf();
        self.ctx.remove_c(pivot);
        excluded.push(pivot);
        for (j, &vj) in order.iter().enumerate().take(b).skip(1) {
            // Donate the untaken part-1 branches plus the whole Sym-SE part
            // when a worker is hungry; each branch's exclusion set is
            // implicit in its (s_init, cand) pair.
            let rest = (b - j - 1) + a;
            if rest > 0 && self.ctx.should_split(rest) {
                let s0 = self.ctx.s_vertices().to_vec();
                let mut tasks = Vec::with_capacity(rest);
                // B̃_k for k > j: include v_k, exclude v_1..v_{k-1}.
                for k in j + 1..b {
                    let mut s = s0.clone();
                    s.push(order[k]);
                    tasks.push(SplitRequest {
                        s_init: s,
                        cand: order[k + 1..].to_vec(),
                    });
                }
                // B̈_k: include v_1..v_{k-1} (pivot first), exclude v_k.
                let mut s = s0.clone();
                s.push(pivot);
                for k in 1..=a {
                    tasks.push(SplitRequest {
                        s_init: s.clone(),
                        cand: order[k + 1..].to_vec(),
                    });
                    s.push(order[k]);
                }
                self.ctx.donate(tasks);
                donated = true;
            }
            self.ctx.push_s(vj);
            any |= self.recurse_slice(&order[j + 1..]);
            self.ctx.pop_s(vj);
            if self.ctx.aborted || donated {
                break;
            }
            self.ctx.remove_c(vj);
            excluded.push(vj);
        }
        for &v in excluded.iter().rev() {
            self.ctx.restore_c(v);
        }
        self.ctx.put_buf(excluded);
        if self.ctx.aborted || donated {
            self.ctx.put_buf(order);
            return any;
        }

        // Part 2 — Sym-SE branches that include the pivot: B̈_i for
        // i = 2..=a+1, i.e. include v_1..v_{i-1}, exclude v_i.
        let mut moved_to_s = self.ctx.take_buf();
        moved_to_s.push(pivot);
        self.ctx.push_s(pivot);
        for (j, &vj) in order.iter().enumerate().take(a + 1).skip(1) {
            // Donate the untaken later Sym-SE branches.
            let rest = a - j;
            if rest > 0 && self.ctx.should_split(rest) {
                let mut s = self.ctx.s_vertices().to_vec();
                s.push(vj);
                let mut tasks = Vec::with_capacity(rest);
                for k in j + 1..=a {
                    tasks.push(SplitRequest {
                        s_init: s.clone(),
                        cand: order[k + 1..].to_vec(),
                    });
                    s.push(order[k]);
                }
                self.ctx.donate(tasks);
                self.ctx.remove_c(vj);
                any |= self.recurse_slice(&order[j + 1..]);
                self.ctx.restore_c(vj);
                break;
            }
            self.ctx.remove_c(vj);
            any |= self.recurse_slice(&order[j + 1..]);
            self.ctx.restore_c(vj);
            if self.ctx.aborted {
                break;
            }
            self.ctx.push_s(vj);
            moved_to_s.push(vj);
        }
        for &v in moved_to_s.iter().rev() {
            self.ctx.pop_s(v);
        }
        self.ctx.put_buf(moved_to_s);
        self.ctx.put_buf(order);
        any
    }

    /// Plain SE branching over all candidates (Equation 1) — used only for the
    /// branching-strategy ablation of Figure 11.
    fn branch_se_plain(&mut self, cand: &[VertexId]) -> bool {
        let order = cand;
        let mut any = false;
        let mut excluded = self.ctx.take_buf();
        for (j, &vj) in order.iter().enumerate() {
            // Donate the untaken SE branches B_{j+1}.. (include v_k, exclude
            // v_1..v_{k-1}) when a worker is hungry.
            let rest = order.len() - j - 1;
            if rest > 0 && self.ctx.should_split(rest) {
                let s0 = self.ctx.s_vertices().to_vec();
                let mut tasks = Vec::with_capacity(rest);
                for k in j + 1..order.len() {
                    let mut s = s0.clone();
                    s.push(order[k]);
                    tasks.push(SplitRequest {
                        s_init: s,
                        cand: order[k + 1..].to_vec(),
                    });
                }
                self.ctx.donate(tasks);
                self.ctx.push_s(vj);
                any |= self.recurse_slice(&order[j + 1..]);
                self.ctx.pop_s(vj);
                break;
            }
            self.ctx.push_s(vj);
            any |= self.recurse_slice(&order[j + 1..]);
            self.ctx.pop_s(vj);
            if self.ctx.aborted {
                break;
            }
            self.ctx.remove_c(vj);
            excluded.push(vj);
        }
        for &v in excluded.iter().rev() {
            self.ctx.restore_c(v);
        }
        self.ctx.put_buf(excluded);
        any
    }

    /// The candidate ordering of Equations 15/16: the pivot's non-neighbours
    /// in `C` first (with the pivot itself leading when it is a candidate),
    /// then the pivot's neighbours in `C`.
    fn pivot_order_into(&self, cand: &[VertexId], pivot: VertexId, order: &mut Vec<VertexId>) {
        order.clear();
        if self.ctx.in_c(pivot) {
            order.push(pivot);
        }
        // Two passes over `cand` (non-neighbours, then neighbours) instead of
        // two temporary vectors; edge tests are O(1) on the kernel path.
        for &v in cand {
            if v != pivot && !self.ctx.has_edge(v, pivot) {
                order.push(v);
            }
        }
        for &v in cand {
            if v != pivot && self.ctx.has_edge(v, pivot) {
                order.push(v);
            }
        }
    }
}

/// The branching-factor constant `α_k` of Theorem 1: the largest real root of
/// `x^{k+2} − x^{k+1} − 2x^k + 2 = 0`, the characteristic polynomial of
/// Hybrid-SE's recurrence `T(n) = 2·Σ_{i=2}^{k+1} T(n−i)` (for `k = 1` it
/// is `(x − 1)(x² − 2)`, so `α_1 = √2`). Exposed so the documentation and
/// experiments can report the theoretical bound alongside measured branch
/// counts.
pub fn alpha_k(k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    // Binary search for the largest root in (1, 2): the polynomial
    // p(x) = x^{k+2} − x^{k+1} − 2x^k + 2 satisfies p(2) = 2 > 0 and is
    // negative just below the root.
    let p = |x: f64| x.powi(k as i32 + 2) - x.powi(k as i32 + 1) - 2.0 * x.powi(k as i32) + 2.0;
    let mut hi = 2.0;
    // The polynomial is positive at 2 and negative somewhere below the largest
    // root; find a sign change by scanning from 2 downwards.
    let mut x = 2.0 - 1e-6;
    while x > 1.0 && p(x) > 0.0 {
        x -= 1e-3;
    }
    if x <= 1.0 {
        return 1.0;
    }
    let mut lo = x;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if p(mid) > 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::{SearchOutcome, SearchScratch};
    use crate::config::{Algorithm, MqceConfig, MqceParams};
    use crate::dc::InnerAlgorithm;
    use crate::naive;
    use crate::pipeline::solve_s1;
    use mqce_graph::Graph;
    use mqce_settrie::filter_maximal;
    use std::time::Duration;

    fn params(gamma: f64, theta: usize) -> MqceParams {
        MqceParams::new(gamma, theta).unwrap()
    }

    /// FastQC over the whole graph (no initial `S`): the pipeline's
    /// whole-graph S1 path.
    fn fastqc_whole_graph(
        g: &Graph,
        params: MqceParams,
        branching: BranchingStrategy,
        time_limit: Option<Duration>,
    ) -> SearchOutcome {
        let config = MqceConfig {
            params,
            algorithm: Algorithm::FastQc,
            branching,
            max_round: 2,
            time_limit,
        };
        solve_s1(g, &config)
    }

    /// Helper: run FastQC on the whole graph, filter to maximal sets, compare
    /// with the oracle.
    fn check_against_oracle(g: &Graph, gamma: f64, theta: usize, branching: BranchingStrategy) {
        let p = params(gamma, theta);
        let outcome = fastqc_whole_graph(g, p, branching, None);
        assert_eq!(outcome.stats.outputs_rejected, 0);
        // Every output must be a quasi-clique of size >= theta.
        for h in &outcome.outputs {
            assert!(h.len() >= theta);
            assert!(
                crate::quasiclique::is_quasi_clique(g, h, gamma),
                "output {h:?} is not a {gamma}-QC"
            );
        }
        let filtered = filter_maximal(&outcome.outputs);
        let expected = naive::all_maximal_quasi_cliques(g, p);
        assert_eq!(
            filtered, expected,
            "mismatch for gamma={gamma} theta={theta} branching={branching:?} graph with {} vertices / {} edges",
            g.num_vertices(),
            g.num_edges()
        );
    }

    #[test]
    fn complete_graph_single_mqc() {
        let g = Graph::complete(6);
        for branching in [
            BranchingStrategy::HybridSe,
            BranchingStrategy::SymSe,
            BranchingStrategy::Se,
        ] {
            check_against_oracle(&g, 0.9, 3, branching);
        }
    }

    #[test]
    fn paper_figure_graph_various_gamma() {
        let g = Graph::paper_figure1();
        for &gamma in &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            for theta in 2..=4 {
                check_against_oracle(&g, gamma, theta, BranchingStrategy::HybridSe);
            }
        }
    }

    #[test]
    fn small_random_graphs_match_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20240611);
        for case in 0..40 {
            let n = rng.gen_range(4..11);
            let p = rng.gen_range(0.2..0.9);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let gamma = [0.5, 0.6, 0.7, 0.9, 1.0][case % 5];
            let theta = 2 + case % 3;
            check_against_oracle(&g, gamma, theta, BranchingStrategy::HybridSe);
        }
    }

    #[test]
    fn sym_se_and_se_are_also_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..15 {
            let n = rng.gen_range(5..10);
            let p = rng.gen_range(0.3..0.8);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let gamma = [0.5, 0.7, 0.9][case % 3];
            check_against_oracle(&g, gamma, 2, BranchingStrategy::SymSe);
            check_against_oracle(&g, gamma, 2, BranchingStrategy::Se);
        }
    }

    #[test]
    fn disconnected_graph_finds_mqcs_in_every_component() {
        // Two disjoint 4-cliques.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        let g = Graph::from_edges(8, &edges);
        check_against_oracle(&g, 0.9, 3, BranchingStrategy::HybridSe);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::empty(5);
        let outcome = fastqc_whole_graph(&g, params(0.9, 2), BranchingStrategy::HybridSe, None);
        assert!(outcome.outputs.is_empty());
        let g0 = Graph::empty(0);
        let outcome0 = fastqc_whole_graph(&g0, params(0.9, 1), BranchingStrategy::HybridSe, None);
        assert!(outcome0.outputs.is_empty());
    }

    #[test]
    fn theta_one_emits_singletons_when_isolated() {
        // An isolated vertex is a maximal QC of size 1.
        let g = Graph::from_edges(3, &[(0, 1)]);
        let p = params(0.9, 1);
        let outcome = fastqc_whole_graph(&g, p, BranchingStrategy::HybridSe, None);
        let filtered = filter_maximal(&outcome.outputs);
        let expected = naive::all_maximal_quasi_cliques(&g, p);
        assert_eq!(filtered, expected);
        assert!(expected.contains(&vec![2]));
    }

    /// Branch counts at one thread are deterministic, so the Figure 11
    /// ordering is asserted exactly: every arm finds one family, Sym-SE
    /// explores no more branches than SE, and the default explores no more
    /// than any arm. The paper's `Hybrid-SE ≤ Sym-SE` is not asserted: it
    /// does not reproduce here (README, "Branching (Fig. 11)"), and on the
    /// community graph Hybrid-SE explores about twice Sym-SE's branches.
    #[test]
    fn branch_counts_ordered_by_strategy() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        use BranchingStrategy::{HybridSe, Se, SymSe};
        let community = community_graph(
            CommunityGraphParams {
                n: 300,
                num_communities: 15,
                p_intra: 0.9,
                inter_degree: 1.0,
            },
            3,
        );
        // SE explodes on the community graph, so it runs on the toy only.
        let inputs = [
            (Graph::paper_figure1(), 0.6, 2, &[HybridSe, SymSe, Se][..]),
            (community, 0.9, 8, &[HybridSe, SymSe][..]),
        ];
        for (g, gamma, theta, arms) in &inputs {
            let run = |branching| {
                let config = MqceConfig::new(*gamma, *theta).unwrap();
                let outcome = solve_s1(g, &config.with_branching(branching));
                (outcome.stats.branches, filter_maximal(&outcome.outputs))
            };
            let (default_branches, family) = run(BranchingStrategy::default());
            let mut branches = Vec::new();
            for &arm in *arms {
                let (arm_branches, arm_family) = run(arm);
                assert_eq!(arm_family, family, "{arm:?} finds another family");
                assert!(default_branches <= arm_branches, "default vs {arm:?}");
                branches.push(arm_branches);
            }
            if let [_, sym, se] = branches[..] {
                assert!(sym <= se, "Sym-SE {sym} > SE {se}");
            }
        }
    }

    #[test]
    fn time_limit_aborts() {
        let g = Graph::complete(18);
        let limit = Some(Duration::ZERO);
        let outcome = fastqc_whole_graph(&g, params(0.5, 2), BranchingStrategy::Se, limit);
        // With an already-expired deadline the search gives up early. It may
        // still emit a few outputs but must flag the timeout (unless it
        // happened to finish within the polling interval, which Se on K18
        // at γ=0.5 will not).
        assert!(outcome.stats.timed_out || outcome.stats.branches < 2000);
    }

    #[test]
    fn alpha_k_matches_paper_values() {
        assert!((alpha_k(1) - 2f64.sqrt()).abs() < 1e-9);
        assert!((alpha_k(2) - 1.769).abs() < 2e-3);
        assert!((alpha_k(3) - 1.899).abs() < 2e-3);
        assert!((alpha_k(4) - 1.953).abs() < 2e-3);
        assert!(alpha_k(10) < 2.0);
    }

    #[test]
    fn dc_style_invocation_with_initial_s() {
        // Emulate a DC subproblem: S = {0}, C = the 2-hop ball around 0.
        let g = Graph::complete(5);
        let mut bufs = SearchScratch::default();
        InnerAlgorithm::FastQc(BranchingStrategy::HybridSe).search(
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
