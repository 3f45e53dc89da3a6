//! Quasi-clique primitives: the γ-quasi-clique predicate, the τ function and
//! the quantities (`Δ`, `σ`) that define the paper's SD-space necessary
//! condition.
//!
//! ## Numerical conventions
//!
//! `γ` is a user-supplied `f64`, so quantities like `⌈γ·(|H|−1)⌉` and
//! `⌊(1−γ)x+γ⌋` are evaluated with a tiny epsilon chosen so that rounding
//! errors can only make the *pruning weaker* (never unsound) and the *QC
//! predicate exact* for the rational values of γ used in practice
//! (0.5, 0.51, 0.6, …, 0.99, 1.0).

use mqce_graph::bitset::{AdjacencyMatrix, BitSet};
use mqce_graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Epsilon used to absorb floating-point noise in threshold computations.
pub(crate) const EPS: f64 = 1e-9;

/// Reusable scratch for the quasi-clique predicates.
///
/// [`is_quasi_clique_in`] and [`no_single_vertex_extension_in`] are called on
/// every emission attempt of the branch-and-bound search — up to once per
/// explored branch — so their working state (membership masks, BFS frontiers,
/// the `h ∪ {w}` candidate buffer) lives here instead of being allocated per
/// call. Buffers are re-dimensioned, never re-allocated once warm; one
/// `QcScratch` serves subgraphs of any size in sequence.
pub struct QcScratch {
    /// Membership mask of `h` (kernel path).
    mask: BitSet,
    /// BFS visited set (kernel path).
    visited: BitSet,
    /// BFS stack (kernel path).
    stack: Vec<VertexId>,
    /// Membership flags of `h` (slice path).
    in_set: Vec<bool>,
    /// BFS visited flags (slice path).
    seen: Vec<bool>,
    /// BFS queue (slice path).
    queue: VecDeque<VertexId>,
    /// Vertices of `h` that rely on the new vertex for their degree bound.
    deficient: Vec<VertexId>,
    /// Candidate buffer for `h ∪ {w}`.
    extended: Vec<VertexId>,
}

impl Default for QcScratch {
    fn default() -> Self {
        QcScratch {
            mask: BitSet::new(0),
            visited: BitSet::new(0),
            stack: Vec::new(),
            in_set: Vec::new(),
            seen: Vec::new(),
            queue: VecDeque::new(),
            deficient: Vec::new(),
            extended: Vec::new(),
        }
    }
}

/// The degree every vertex of a quasi-clique with `size` vertices must have:
/// `⌈γ·(size−1)⌉`.
pub fn required_degree(gamma: f64, size: usize) -> usize {
    if size == 0 {
        return 0;
    }
    (gamma * (size as f64 - 1.0) - EPS).ceil().max(0.0) as usize
}

/// The paper's τ function: `τ(x) = ⌊(1−γ)·x + γ⌋` — the maximum number of
/// disconnections (including the vertex itself) any vertex of a γ-QC of size
/// `x` may have. `x` may be fractional (it is evaluated at `σ(B)`).
pub fn tau(gamma: f64, x: f64) -> i64 {
    ((1.0 - gamma) * x + gamma + EPS).floor() as i64
}

/// `Δ(H)`: the maximum number of disconnections of a vertex within `G[H]`,
/// counting the vertex itself, i.e. `max_{v∈H} (|H| − δ(v,H))`.
/// Returns 0 for the empty set.
pub fn max_disconnections(g: &Graph, h: &[VertexId]) -> usize {
    if h.is_empty() {
        return 0;
    }
    h.iter()
        .map(|&v| h.len() - g.degree_in(v, h))
        .max()
        .unwrap_or(0)
}

/// Whether `G[h]` is a γ-quasi-clique (Definition 1): connected, and every
/// vertex adjacent to at least `⌈γ·(|h|−1)⌉` of the others.
///
/// The empty set is not a quasi-clique; a single vertex is.
pub fn is_quasi_clique(g: &Graph, h: &[VertexId], gamma: f64) -> bool {
    is_quasi_clique_with(g, None, h, gamma)
}

/// [`is_quasi_clique`] with an optional bitset kernel: when `adj` is present
/// the degree checks become popcounts over the packed rows and the
/// connectivity check a mask-parallel BFS, turning the `O(|h|² log d)`
/// predicate into `O(|h|²/64)` word operations.
pub fn is_quasi_clique_with(
    g: &Graph,
    adj: Option<&AdjacencyMatrix>,
    h: &[VertexId],
    gamma: f64,
) -> bool {
    is_quasi_clique_in(g, adj, h, gamma, &mut QcScratch::default())
}

/// [`is_quasi_clique_with`] with caller-owned scratch, so the per-call masks
/// and BFS state are reused instead of re-allocated (the form the searcher's
/// emission path uses — see [`QcScratch`]).
pub fn is_quasi_clique_in(
    g: &Graph,
    adj: Option<&AdjacencyMatrix>,
    h: &[VertexId],
    gamma: f64,
    scratch: &mut QcScratch,
) -> bool {
    if h.is_empty() {
        return false;
    }
    if h.len() == 1 {
        return true;
    }
    let req = required_degree(gamma, h.len());
    match adj {
        Some(m) => {
            scratch.mask.reset(m.num_vertices());
            for &v in h {
                scratch.mask.insert(v);
            }
            for &v in h {
                if m.degree_in_mask(v, &scratch.mask) < req {
                    return false;
                }
            }
            m.is_connected_within_in(
                &scratch.mask,
                h[0],
                h.len(),
                &mut scratch.visited,
                &mut scratch.stack,
            )
        }
        None => {
            for &v in h {
                if g.degree_in(v, h) < req {
                    return false;
                }
            }
            mqce_graph::connectivity::is_connected_subset_in(
                g,
                h,
                &mut scratch.in_set,
                &mut scratch.seen,
                &mut scratch.queue,
            )
        }
    }
}

/// Whether `G[h]` is a *maximal* γ-quasi-clique, decided by brute force:
/// `h` is a QC and no superset of `h` (within the whole graph) is a QC.
///
/// Checking maximality exactly is NP-hard in general (the paper cites \[35\]),
/// so this routine enumerates supersets only up to the 2-hop neighbourhood
/// closure and is intended for *small test graphs only* (it is exponential).
pub fn is_maximal_quasi_clique_bruteforce(g: &Graph, h: &[VertexId], gamma: f64) -> bool {
    if !is_quasi_clique(g, h, gamma) {
        return false;
    }
    let mut hset: Vec<VertexId> = h.to_vec();
    hset.sort_unstable();
    hset.dedup();
    let others: Vec<VertexId> = g.vertices().filter(|v| !hset.contains(v)).collect();
    // A superset QC containing h exists iff some subset of `others` can be
    // added. Enumerate subsets of `others` (small graphs only).
    assert!(
        others.len() <= 20,
        "brute-force maximality check is limited to tiny graphs"
    );
    for mask in 1u32..(1u32 << others.len()) {
        let mut cand = hset.clone();
        for (i, &v) in others.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cand.push(v);
            }
        }
        if is_quasi_clique(g, &cand, gamma) {
            return false;
        }
    }
    true
}

/// The *necessary* condition for maximality used by FastQC when emitting an
/// output (Section 4.5, T1): there is no single vertex `w ∉ h` such that
/// `G[h ∪ {w}]` is a quasi-clique. Returns `true` if the condition holds
/// (i.e. no one-vertex extension exists).
///
/// `deg_in_h[v]` must give `δ(v, h)` for every vertex of the graph, and `pool`
/// is the set of vertices to try as extensions (typically `V − h`).
pub fn no_single_vertex_extension(
    g: &Graph,
    h: &[VertexId],
    deg_in_h: &[u32],
    pool: impl IntoIterator<Item = VertexId>,
    gamma: f64,
) -> bool {
    no_single_vertex_extension_with(g, None, h, deg_in_h, pool, gamma)
}

/// [`no_single_vertex_extension`] with an optional bitset kernel for the
/// adjacency tests and the final predicate confirmation.
pub fn no_single_vertex_extension_with(
    g: &Graph,
    adj: Option<&AdjacencyMatrix>,
    h: &[VertexId],
    deg_in_h: &[u32],
    pool: impl IntoIterator<Item = VertexId>,
    gamma: f64,
) -> bool {
    no_single_vertex_extension_in(
        g,
        adj,
        h,
        deg_in_h,
        pool,
        |w| h.contains(&w),
        gamma,
        &mut QcScratch::default(),
    )
}

/// [`no_single_vertex_extension_with`] with caller-owned scratch for the
/// deficient-vertex list, the `h ∪ {w}` candidate buffer and the nested
/// predicate state (the form the searcher's emission path uses).
/// `in_h(w)` must say whether `w ∈ h`; it is asked only about the pool
/// vertices that pass the degree bound, so a flag lookup keeps the scan
/// O(1) per vertex.
#[allow(clippy::too_many_arguments)]
pub fn no_single_vertex_extension_in(
    g: &Graph,
    adj: Option<&AdjacencyMatrix>,
    h: &[VertexId],
    deg_in_h: &[u32],
    pool: impl IntoIterator<Item = VertexId>,
    in_h: impl Fn(VertexId) -> bool,
    gamma: f64,
    scratch: &mut QcScratch,
) -> bool {
    if h.is_empty() {
        return true;
    }
    let new_size = h.len() + 1;
    let req = required_degree(gamma, new_size);
    // Vertices of `h` that would rely on the new vertex for their degree
    // requirement. If any vertex cannot reach the requirement even with the
    // new vertex adjacent, no extension exists at all. The list is moved out
    // of the scratch so the nested predicate call below can borrow the
    // scratch mutably.
    let mut deficient = std::mem::take(&mut scratch.deficient);
    deficient.clear();
    for &v in h {
        let d = deg_in_h[v as usize] as usize;
        if d + 1 < req {
            scratch.deficient = deficient;
            return true;
        }
        if d < req {
            deficient.push(v);
        }
    }
    let mut extended = std::mem::take(&mut scratch.extended);
    let mut no_extension = true;
    'outer: for w in pool {
        // The cheap degree bound first: most of the pool fails it.
        if (deg_in_h[w as usize] as usize) < req || in_h(w) {
            continue;
        }
        for &v in &deficient {
            let connected = match adj {
                Some(m) => m.has_edge(v, w),
                None => g.has_edge(v, w),
            };
            if !connected {
                continue 'outer;
            }
        }
        // Degree conditions hold for every vertex of h ∪ {w}; confirm with the
        // exact predicate (connectivity, exact thresholds).
        extended.clear();
        extended.extend_from_slice(h);
        extended.push(w);
        if is_quasi_clique_in(g, adj, &extended, gamma, scratch) {
            no_extension = false;
            break;
        }
    }
    scratch.deficient = deficient;
    scratch.extended = extended;
    no_extension
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_degree_values() {
        assert_eq!(required_degree(0.9, 1), 0);
        assert_eq!(required_degree(0.9, 10), 9); // ⌈0.9·9⌉ = ⌈8.1⌉ = 9
        assert_eq!(required_degree(0.5, 5), 2); // ⌈0.5·4⌉ = 2
        assert_eq!(required_degree(1.0, 6), 5);
        assert_eq!(required_degree(0.6, 4), 2); // ⌈1.8⌉
        assert_eq!(required_degree(0.7, 0), 0);
        // Exact multiples must not be rounded up by the epsilon.
        assert_eq!(required_degree(0.5, 9), 4); // ⌈0.5·8⌉ = 4
    }

    #[test]
    fn tau_values_match_paper_examples() {
        // Section 4.2 example: γ = 0.7, τ(6.71) = ⌊0.3·6.71 + 0.7⌋ = 2,
        // τ(3.85) = ⌊0.3·3.85 + 0.7⌋ = 1.
        assert_eq!(tau(0.7, 4.0 / 0.7 + 1.0), 2);
        assert_eq!(tau(0.7, 2.0 / 0.7 + 1.0), 1);
        // γ = 1 (cliques): τ(x) = 1 for any x ≥ 1 — only the vertex itself.
        assert_eq!(tau(1.0, 10.0), 1);
        // γ = 0.5: τ(10) = ⌊5.5⌋ = 5.
        assert_eq!(tau(0.5, 10.0), 5);
    }

    #[test]
    fn tau_consistent_with_required_degree() {
        // Lemma 1: Δ(H) ≤ τ(|H|) ⇔ every vertex has δ(v,H) ≥ ⌈γ(|H|−1)⌉,
        // i.e. |H| − required_degree(γ,|H|) == τ(γ,|H|).
        for &gamma in &[
            0.5, 0.51, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.96, 0.99, 1.0,
        ] {
            for size in 1..60usize {
                assert_eq!(
                    size as i64 - required_degree(gamma, size) as i64,
                    tau(gamma, size as f64),
                    "gamma={gamma} size={size}"
                );
            }
        }
    }

    #[test]
    fn max_disconnections_counts_self() {
        let g = Graph::complete(4);
        // In a clique each vertex is disconnected only from itself.
        assert_eq!(max_disconnections(&g, &[0, 1, 2, 3]), 1);
        let p = Graph::path(4);
        // Endpoint 0 is disconnected from itself, 2 and 3.
        assert_eq!(max_disconnections(&p, &[0, 1, 2, 3]), 3);
        assert_eq!(max_disconnections(&p, &[]), 0);
        assert_eq!(max_disconnections(&p, &[2]), 1);
    }

    #[test]
    fn quasi_clique_predicate() {
        let g = Graph::paper_figure1();
        // Property 1 example: {v1,v3,v4,v5} = {0,2,3,4} is a 0.6-QC …
        assert!(is_quasi_clique(&g, &[0, 2, 3, 4], 0.6));
        // … while its subset {v1,v3,v4} = {0,2,3} is not.
        assert!(!is_quasi_clique(&g, &[0, 2, 3], 0.6));
        // Any single vertex is a QC; the empty set is not.
        assert!(is_quasi_clique(&g, &[7], 0.9));
        assert!(!is_quasi_clique(&g, &[], 0.9));
    }

    #[test]
    fn one_quasi_clique_is_a_clique() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(is_quasi_clique(&g, &[0, 1, 2], 1.0));
        assert!(!is_quasi_clique(&g, &[0, 1, 2, 3], 1.0));
    }

    #[test]
    fn disconnected_set_is_not_a_qc_even_with_good_degrees() {
        // Two disjoint triangles: each vertex has 2 of 5 others → fails 0.5
        // anyway, so use a case where degrees pass but connectivity fails:
        // γ = 0.5 on two disjoint edges requires ⌈0.5·3⌉ = 2 — fails. Use two
        // disjoint triangles with γ = 0.5: required ⌈0.5·5⌉ = 3 > 2 — fails.
        // Degree-feasible disconnected examples need γ < 0.5, which the solver
        // rejects; still, the predicate itself must check connectivity:
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        // γ exactly at the boundary where each vertex needs ⌈0.5·3⌉ = 2: fails
        // on degrees, and is also disconnected.
        assert!(!is_quasi_clique(&g, &[0, 1, 2, 3], 0.5));
        // Directly exercise the connectivity arm with a permissive γ given to
        // the raw predicate (the predicate itself does not restrict γ).
        assert!(!is_quasi_clique(&g, &[0, 1, 2, 3], 0.26));
    }

    #[test]
    fn kernel_variants_agree_with_slice() {
        // Exhaustively compare the bitset-kernel predicate against the
        // sorted-slice predicate over every vertex subset of the paper graph.
        let g = Graph::paper_figure1();
        let m = AdjacencyMatrix::from_graph(&g);
        let n = g.num_vertices();
        for &gamma in &[0.5, 0.6, 0.75, 0.9, 1.0] {
            for mask in 0u32..(1 << n) {
                let h: Vec<VertexId> = (0..n as u32).filter(|v| mask & (1 << v) != 0).collect();
                assert_eq!(
                    is_quasi_clique_with(&g, Some(&m), &h, gamma),
                    is_quasi_clique(&g, &h, gamma),
                    "predicate mismatch for {h:?} at gamma={gamma}"
                );
                if !h.is_empty() && h.len() <= 5 {
                    let deg: Vec<u32> = (0..n as u32).map(|v| g.degree_in(v, &h) as u32).collect();
                    assert_eq!(
                        no_single_vertex_extension_with(&g, Some(&m), &h, &deg, 0..n as u32, gamma),
                        no_single_vertex_extension(&g, &h, &deg, 0..n as u32, gamma),
                        "extension mismatch for {h:?} at gamma={gamma}"
                    );
                }
            }
        }
    }

    #[test]
    fn maximality_bruteforce() {
        let g = Graph::complete(5);
        assert!(is_maximal_quasi_clique_bruteforce(
            &g,
            &[0, 1, 2, 3, 4],
            0.9
        ));
        assert!(!is_maximal_quasi_clique_bruteforce(&g, &[0, 1, 2, 3], 0.9));
        // Not a QC at all.
        let p = Graph::path(4);
        assert!(!is_maximal_quasi_clique_bruteforce(&p, &[0, 2], 0.9));
    }

    #[test]
    fn single_vertex_extension_check() {
        let g = Graph::complete(5);
        let h = [0u32, 1, 2, 3];
        let deg: Vec<u32> = (0..5).map(|v| g.degree_in(v, &h) as u32).collect();
        // h can be extended by vertex 4, so the "no extension" condition fails.
        assert!(!no_single_vertex_extension(&g, &h, &deg, 0..5u32, 0.9));
        let full = [0u32, 1, 2, 3, 4];
        let deg_full: Vec<u32> = (0..5).map(|v| g.degree_in(v, &full) as u32).collect();
        assert!(no_single_vertex_extension(
            &g,
            &full,
            &deg_full,
            0..5u32,
            0.9
        ));
    }

    #[test]
    fn extension_check_respects_pool() {
        let g = Graph::complete(5);
        let h = [0u32, 1, 2, 3];
        let deg: Vec<u32> = (0..5).map(|v| g.degree_in(v, &h) as u32).collect();
        // If the pool does not contain vertex 4, no extension is visible.
        assert!(no_single_vertex_extension(&g, &h, &deg, 0..4u32, 0.9));
    }

    #[test]
    fn extension_check_deficient_vertices() {
        // Square 0-1-2-3-0 plus vertex 4 adjacent to all: {0,1,2,3} at γ=0.75
        // needs degree ⌈0.75·3⌉ = 3 with the extension; every vertex has 2 in
        // the square and gains 1 from vertex 4 → extension exists.
        let g = Graph::from_edges(
            5,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 0),
                (4, 1),
                (4, 2),
                (4, 3),
            ],
        );
        let h = [0u32, 1, 2, 3];
        let deg: Vec<u32> = (0..5).map(|v| g.degree_in(v, &h) as u32).collect();
        assert!(!no_single_vertex_extension(&g, &h, &deg, 0..5u32, 0.75));
        // At γ = 1 the extension would need the square to become a clique —
        // impossible with one vertex.
        assert!(no_single_vertex_extension(&g, &h, &deg, 0..5u32, 1.0));
    }
}
