//! Independent verification of enumeration results.
//!
//! The branch-and-bound searchers are intricate (incremental degree arrays,
//! undo stacks, three branching strategies, DC decomposition); this module
//! re-checks their *outputs* against the problem definition using only the
//! plain graph API, so that the experiment harness and the integration tests
//! can certify results without trusting the search internals.
//!
//! Three levels are provided, in increasing cost:
//!
//! 1. [`verify_s1_output`] — every emitted set is a quasi-clique of size ≥ θ
//!    (what MQCE-S1 promises).
//! 2. [`verify_mqc_set`] — additionally, no reported MQC is contained in
//!    another, and none admits a single-vertex extension (a necessary
//!    condition for maximality that is cheap to check on graphs of any size).
//! 3. [`verify_exact_against_oracle`] — full equality with the exhaustive
//!    oracle (tiny graphs only).

use mqce_graph::bitset::AdjacencyMatrix;
use mqce_graph::{Graph, VertexId};

use crate::config::MqceParams;
use crate::naive;
use crate::quasiclique::{is_quasi_clique, is_quasi_clique_with, required_degree};

/// A single verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The set is not a γ-quasi-clique.
    NotAQuasiClique {
        /// The offending vertex set.
        set: Vec<VertexId>,
    },
    /// The set has fewer than θ vertices.
    TooSmall {
        /// The offending vertex set.
        set: Vec<VertexId>,
        /// The configured size threshold.
        theta: usize,
    },
    /// The set contains a vertex id outside the graph.
    VertexOutOfRange {
        /// The offending vertex set.
        set: Vec<VertexId>,
        /// The out-of-range vertex.
        vertex: VertexId,
    },
    /// The set contains a duplicate vertex.
    DuplicateVertex {
        /// The offending vertex set.
        set: Vec<VertexId>,
    },
    /// One reported MQC is a subset of another reported MQC.
    ContainedInAnother {
        /// The non-maximal set.
        subset: Vec<VertexId>,
        /// A reported superset of it.
        superset: Vec<VertexId>,
    },
    /// A reported MQC can be extended by a single vertex and stay a QC, so it
    /// cannot be maximal.
    SingleVertexExtension {
        /// The non-maximal set.
        set: Vec<VertexId>,
        /// A vertex whose addition keeps the set a quasi-clique.
        extension: VertexId,
    },
    /// The result set differs from the oracle.
    OracleMismatch {
        /// MQCs the oracle found but the result is missing.
        missing: Vec<Vec<VertexId>>,
        /// Sets the result reports but the oracle does not.
        spurious: Vec<Vec<VertexId>>,
    },
}

/// Outcome of a verification pass.
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// All violations found (empty means the result verified cleanly).
    pub violations: Vec<Violation>,
    /// Number of sets checked.
    pub checked: usize,
}

impl VerificationReport {
    /// Whether the result passed every check.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ok() {
            write!(f, "ok ({} sets checked)", self.checked)
        } else {
            write!(
                f,
                "{} violation(s) in {} sets; first: {:?}",
                self.violations.len(),
                self.checked,
                self.violations[0]
            )
        }
    }
}

/// Checks vertex-id range and duplicates. Returns `false` if the set is
/// malformed (in which case the quasi-clique predicate must not be evaluated
/// on it).
fn check_well_formed(g: &Graph, set: &[VertexId], report: &mut Vec<Violation>) -> bool {
    for &v in set {
        if (v as usize) >= g.num_vertices() {
            report.push(Violation::VertexOutOfRange {
                set: set.to_vec(),
                vertex: v,
            });
            return false;
        }
    }
    let mut sorted = set.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != set.len() {
        report.push(Violation::DuplicateVertex { set: set.to_vec() });
        return false;
    }
    true
}

/// Checks the MQCE-S1 contract: every emitted set is a γ-quasi-clique with at
/// least θ vertices (non-maximal members are allowed).
pub fn verify_s1_output(
    g: &Graph,
    outputs: &[Vec<VertexId>],
    params: MqceParams,
) -> VerificationReport {
    let mut violations = Vec::new();
    for set in outputs {
        if !check_well_formed(g, set, &mut violations) {
            continue;
        }
        if set.len() < params.theta {
            violations.push(Violation::TooSmall {
                set: set.clone(),
                theta: params.theta,
            });
        }
        if !is_quasi_clique(g, set, params.gamma) {
            violations.push(Violation::NotAQuasiClique { set: set.clone() });
        }
    }
    VerificationReport {
        violations,
        checked: outputs.len(),
    }
}

/// Returns a vertex whose addition to `set` keeps it a γ-quasi-clique, if one
/// exists. Only vertices adjacent to at least one member are tried (adding a
/// disconnected vertex can never produce a connected QC). `adj`, when given,
/// serves the degree screens and the QC predicate: [`verify_mqc_set`] builds
/// the matrix once and reuses it across every set it checks.
fn find_single_vertex_extension(
    g: &Graph,
    adj: Option<&AdjacencyMatrix>,
    set: &[VertexId],
    gamma: f64,
) -> Option<VertexId> {
    if set.is_empty() {
        return None;
    }
    let mut in_set = vec![false; g.num_vertices()];
    for &v in set {
        in_set[v as usize] = true;
    }
    let mut candidates: Vec<VertexId> = Vec::new();
    for &v in set {
        for &u in g.neighbors(v) {
            if !in_set[u as usize] && !candidates.contains(&u) {
                candidates.push(u);
            }
        }
    }
    let req = required_degree(gamma, set.len() + 1);
    let mut extended = Vec::with_capacity(set.len() + 1);
    for w in candidates {
        // Quick degree screen before the full predicate.
        let deg = match adj {
            Some(m) => m.degree_in(w, set),
            None => g.degree_in(w, set),
        };
        if deg < req {
            continue;
        }
        extended.clear();
        extended.extend_from_slice(set);
        extended.push(w);
        if is_quasi_clique_with(g, adj, &extended, gamma) {
            return Some(w);
        }
    }
    None
}

/// Checks a reported *maximal* QC set: the S1 contract plus pairwise
/// non-containment plus the absence of single-vertex extensions.
///
/// Passing this does not prove maximality (that is NP-hard), but every real
/// maximality bug observed in practice — a forgotten output, a branch pruned
/// too aggressively, a DC subproblem that drops its anchor vertex — shows up
/// as either a containment between reported sets or a one-vertex extension.
pub fn verify_mqc_set(g: &Graph, mqcs: &[Vec<VertexId>], params: MqceParams) -> VerificationReport {
    let mut report = verify_s1_output(g, mqcs, params);
    // Pairwise containment via the set-trie used by the production filter
    // would be circular; use a direct quadratic check instead.
    for (i, a) in mqcs.iter().enumerate() {
        for (j, b) in mqcs.iter().enumerate() {
            if i != j && a.len() < b.len() && a.iter().all(|v| b.contains(v)) {
                report.violations.push(Violation::ContainedInAnother {
                    subset: a.clone(),
                    superset: b.clone(),
                });
            }
        }
    }
    // Build the bitset kernel once and reuse it for every extension check.
    let adj = (AdjacencyMatrix::adaptive_for(g.num_vertices(), g.num_edges()) && !mqcs.is_empty())
        .then(|| AdjacencyMatrix::from_graph(g));
    for set in mqcs {
        if set.iter().any(|&v| (v as usize) >= g.num_vertices()) {
            continue;
        }
        if let Some(extension) = find_single_vertex_extension(g, adj.as_ref(), set, params.gamma) {
            report.violations.push(Violation::SingleVertexExtension {
                set: set.clone(),
                extension,
            });
        }
    }
    report
}

/// Compares a reported MQC set against the exhaustive oracle. Exponential in
/// the graph size — tiny graphs only (the oracle asserts this itself).
pub fn verify_exact_against_oracle(
    g: &Graph,
    mqcs: &[Vec<VertexId>],
    params: MqceParams,
) -> VerificationReport {
    let mut report = verify_mqc_set(g, mqcs, params);
    let mut expected = naive::all_maximal_quasi_cliques(g, params);
    expected.sort();
    let mut got: Vec<Vec<VertexId>> = mqcs.to_vec();
    for set in got.iter_mut() {
        set.sort_unstable();
    }
    got.sort();
    got.dedup();
    if got != expected {
        let missing: Vec<_> = expected
            .iter()
            .filter(|m| !got.contains(m))
            .cloned()
            .collect();
        let spurious: Vec<_> = got
            .iter()
            .filter(|m| !expected.contains(m))
            .cloned()
            .collect();
        report
            .violations
            .push(Violation::OracleMismatch { missing, spurious });
    }
    report.checked = report.checked.max(expected.len());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MqceParams;
    use crate::pipeline::enumerate_mqcs_default;

    fn params(gamma: f64, theta: usize) -> MqceParams {
        MqceParams::new(gamma, theta).unwrap()
    }

    #[test]
    fn clean_result_verifies() {
        let g = Graph::paper_figure1();
        let result = enumerate_mqcs_default(&g, 0.6, 3).unwrap();
        let report = verify_mqc_set(&g, &result.mqcs, params(0.6, 3));
        assert!(report.is_ok(), "{report}");
        assert!(verify_exact_against_oracle(&g, &result.mqcs, params(0.6, 3)).is_ok());
        assert!(report.to_string().contains("ok"));
    }

    #[test]
    fn detects_non_quasi_clique() {
        let g = Graph::path(5);
        let bogus = vec![vec![0u32, 1, 2, 3]];
        let report = verify_s1_output(&g, &bogus, params(0.9, 2));
        assert!(!report.is_ok());
        assert!(matches!(
            report.violations[0],
            Violation::NotAQuasiClique { .. }
        ));
    }

    #[test]
    fn detects_size_and_id_problems() {
        let g = Graph::complete(4);
        let outputs = vec![vec![0u32, 1], vec![0, 9], vec![1, 1, 2]];
        let report = verify_s1_output(&g, &outputs, params(0.9, 3));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TooSmall { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::VertexOutOfRange { vertex: 9, .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateVertex { .. })));
    }

    #[test]
    fn detects_containment_and_extension() {
        let g = Graph::complete(5);
        // {0,1,2} is contained in {0,1,2,3} and both extend to the 5-clique.
        let sets = vec![vec![0u32, 1, 2], vec![0, 1, 2, 3]];
        let report = verify_mqc_set(&g, &sets, params(1.0, 2));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ContainedInAnother { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SingleVertexExtension { .. })));
    }

    #[test]
    fn single_vertex_extension_finder() {
        let g = Graph::complete(4);
        assert!(find_single_vertex_extension(&g, None, &[0, 1, 2], 1.0).is_some());
        assert!(find_single_vertex_extension(&g, None, &[0, 1, 2, 3], 1.0).is_none());
        assert!(find_single_vertex_extension(&g, None, &[], 0.9).is_none());
        // Star: the hub plus one leaf is a 0.5-QC of size 2; adding another
        // leaf gives a path of 3 which is still a 0.5-QC, so an extension
        // exists. With γ=1 no extension exists.
        let star = Graph::star(5);
        assert!(find_single_vertex_extension(&star, None, &[0, 1], 0.5).is_some());
        assert!(find_single_vertex_extension(&star, None, &[0, 1], 1.0).is_none());
    }

    #[test]
    fn oracle_mismatch_is_reported() {
        let g = Graph::complete(4);
        // Claim a wrong MQC set (missing the 4-clique, spurious triangle is
        // also non-maximal).
        let wrong = vec![vec![0u32, 1, 2]];
        let report = verify_exact_against_oracle(&g, &wrong, params(0.9, 3));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OracleMismatch { .. })));
    }
}
