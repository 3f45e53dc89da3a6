//! Algorithm parameters and configuration.

use std::time::Duration;

use mqce_settrie::S2Backend;

/// Which adjacency representation the branch-and-bound searchers use for
/// edge tests, subset-degree counts and the QC predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdjacencyBackend {
    /// Build the packed bitset kernel per (sub)graph when the adaptive
    /// size/density threshold recommends it, fall back to sorted slices
    /// otherwise. The default.
    #[default]
    Auto,
    /// Always use the CSR sorted-slice path (binary-search edge tests).
    Slice,
    /// Build the bitset kernel whenever the memory cap allows, even for
    /// sparse subproblems (used by the backend-comparison benchmarks).
    Bitset,
}

impl AdjacencyBackend {
    /// Human-readable name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            AdjacencyBackend::Auto => "auto",
            AdjacencyBackend::Slice => "slice",
            AdjacencyBackend::Bitset => "bitset",
        }
    }
}

/// Default [`MqceParams::steal_granularity`]: donate only when at least this
/// many untaken sibling branches are available to package into split tasks.
pub const DEFAULT_STEAL_GRANULARITY: usize = 2;

/// Problem parameters of MQCE: the density threshold `γ` and the size
/// threshold `θ` (Problem 1 of the paper), plus the adjacency backend the
/// searchers should use and the work-stealing split granularity
/// (implementation knobs, carried here so they reach every search entry
/// point without widening their signatures).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MqceParams {
    /// Density threshold `γ ∈ [0.5, 1]`: every vertex of a quasi-clique `H`
    /// must be adjacent to at least `⌈γ·(|H|−1)⌉` other vertices of `H`.
    pub gamma: f64,
    /// Size threshold `θ ≥ 1`: only maximal quasi-cliques with at least `θ`
    /// vertices are enumerated.
    pub theta: usize,
    /// Adjacency backend used by the branch-and-bound searchers.
    pub backend: AdjacencyBackend,
    /// Minimum number of untaken sibling branches a searcher must hold
    /// before it donates them as split tasks to hungry workers (the
    /// `--steal-granularity` knob of the work-stealing DC scheduler).
    /// `0` disables intra-subproblem splitting entirely (whole subproblems
    /// are still stolen between workers). A one-worker run is never hungry,
    /// so it never splits whatever the value.
    pub steal_granularity: usize,
    /// Test-only fault injection consumed by the DC drivers: panic inside
    /// the searcher of the subproblem anchored at this original-graph
    /// vertex. Exists to prove the per-subproblem `catch_unwind` containment
    /// boundary (unit tests, the daemon's `--fault-injection` mode); always
    /// `None` outside those paths.
    #[doc(hidden)]
    pub fail_anchor: Option<mqce_graph::VertexId>,
}

impl MqceParams {
    /// Creates parameters, validating the ranges assumed by the algorithms.
    ///
    /// # Errors
    /// Returns an error if `gamma ∉ [0.5, 1]` or `theta == 0`. The `γ ≥ 0.5`
    /// restriction follows the paper (Property 2: diameter ≤ 2), which all
    /// pruning rules and the divide-and-conquer decomposition rely on.
    pub fn new(gamma: f64, theta: usize) -> Result<Self, ParamError> {
        if !(0.5..=1.0).contains(&gamma) || gamma.is_nan() {
            return Err(ParamError::GammaOutOfRange(gamma));
        }
        if theta == 0 {
            return Err(ParamError::ThetaZero);
        }
        Ok(MqceParams {
            gamma,
            theta,
            backend: AdjacencyBackend::default(),
            steal_granularity: DEFAULT_STEAL_GRANULARITY,
            fail_anchor: None,
        })
    }

    /// Sets the adjacency backend.
    pub fn with_backend(mut self, backend: AdjacencyBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the work-stealing split granularity (`0` disables splitting).
    pub fn with_steal_granularity(mut self, granularity: usize) -> Self {
        self.steal_granularity = granularity;
        self
    }
}

/// Invalid parameter errors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamError {
    /// `γ` must lie in `[0.5, 1]`.
    GammaOutOfRange(f64),
    /// `θ` must be at least 1.
    ThetaZero,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::GammaOutOfRange(g) => {
                write!(f, "gamma must be in [0.5, 1], got {g}")
            }
            ParamError::ThetaZero => write!(f, "theta must be at least 1"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Which branching method the FastQC searcher uses (Figure 11 ablation).
///
/// All three find the same family; they differ in how many branches they
/// explore. The default is Sym-SE, set by measurement: Hybrid-SE explored
/// more branches on every finished workload measured (README, "Branching
/// (Fig. 11)").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BranchingStrategy {
    /// Hybrid-SE when applicable, Sym-SE otherwise: the paper's default and
    /// the branching that carries Theorem 1's `O(n · d · α_k^n)` bound.
    HybridSe,
    /// Always Sym-SE branching: the measured default.
    #[default]
    SymSe,
    /// Plain set-enumeration (SE) branching, as used by Quick+ — kept for the
    /// branching-strategy ablation; the FastQC pruning rules still apply.
    Se,
}

/// Which enumeration algorithm the pipeline runs for MQCE-S1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The paper's full algorithm: divide-and-conquer (degeneracy ordering,
    /// one-hop + two-hop pruning) around FastQC. (Algorithm 3.)
    #[default]
    DcFastQc,
    /// FastQC run directly on the whole graph (Algorithm 2), no DC.
    FastQc,
    /// FastQC inside the *basic* divide-and-conquer framework of
    /// Guo et al. / Khalil et al. [19, 24]: 2-hop decomposition in input
    /// order with one-hop pruning only. (`BDCFastQC` in Figure 12.)
    BasicDcFastQc,
    /// The Quick+ baseline (Algorithm 1) wrapped in the basic
    /// divide-and-conquer framework, mirroring the scalable implementation
    /// of [19, 24] used as the paper's baseline.
    QuickPlus,
    /// Quick+ run directly on the whole graph, no DC.
    QuickPlusRaw,
    /// Exhaustive subset enumeration — the testing oracle; only usable on
    /// tiny graphs.
    Naive,
}

impl Algorithm {
    /// Human-readable name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::DcFastQc => "DCFastQC",
            Algorithm::FastQc => "FastQC",
            Algorithm::BasicDcFastQc => "BDCFastQC",
            Algorithm::QuickPlus => "Quick+",
            Algorithm::QuickPlusRaw => "Quick+(raw)",
            Algorithm::Naive => "Naive",
        }
    }
}

/// Full configuration of an MQCE run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MqceConfig {
    /// Problem parameters (`γ`, `θ`).
    pub params: MqceParams,
    /// Which MQCE-S1 algorithm to run.
    pub algorithm: Algorithm,
    /// Branching strategy used by the FastQC-family searchers.
    pub branching: BranchingStrategy,
    /// Number of one-hop/two-hop pruning rounds applied to each DC subgraph
    /// (`MAX_ROUND` in Algorithm 3). The paper's default is 2.
    pub max_round: usize,
    /// Optional wall-clock budget; when exceeded the search stops early and
    /// the result is flagged as timed out. The budget covers the whole
    /// pipeline: S1 stops at the deadline and S2 compacts within the
    /// remaining time (plus a small grace interval), returning a sound
    /// partial result when it runs out.
    pub time_limit: Option<Duration>,
}

impl MqceConfig {
    /// Creates a configuration with the defaults: DCFastQC, Sym-SE
    /// branching (the measured default; see [`BranchingStrategy`]),
    /// `MAX_ROUND = 2` and no time limit.
    pub fn new(gamma: f64, theta: usize) -> Result<Self, ParamError> {
        Ok(MqceConfig {
            params: MqceParams::new(gamma, theta)?,
            algorithm: Algorithm::default(),
            branching: BranchingStrategy::default(),
            max_round: 2,
            time_limit: None,
        })
    }

    /// Sets the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the branching strategy (FastQC-family only).
    pub fn with_branching(mut self, branching: BranchingStrategy) -> Self {
        self.branching = branching;
        self
    }

    /// Sets `MAX_ROUND` for the DC pruning.
    pub fn with_max_round(mut self, max_round: usize) -> Self {
        self.max_round = max_round;
        self
    }

    /// Sets the adjacency backend used by the searchers.
    pub fn with_backend(mut self, backend: AdjacencyBackend) -> Self {
        self.params.backend = backend;
        self
    }

    /// Sets the work-stealing split granularity of the DC scheduler
    /// (`0` disables intra-subproblem splitting).
    pub fn with_steal_granularity(mut self, granularity: usize) -> Self {
        self.params.steal_granularity = granularity;
        self
    }

    /// Has no effect: MQCE-S2 is one pass at every setting. Remains for
    /// the benchmark harness, which still calls it.
    pub fn with_s2_backend(self, _backend: S2Backend) -> Self {
        self
    }

    /// Sets a wall-clock time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params() {
        let p = MqceParams::new(0.9, 5).unwrap();
        assert_eq!(p.gamma, 0.9);
        assert_eq!(p.theta, 5);
        assert!(MqceParams::new(0.5, 1).is_ok());
        assert!(MqceParams::new(1.0, 100).is_ok());
    }

    #[test]
    fn invalid_params() {
        assert_eq!(
            MqceParams::new(0.3, 5).unwrap_err(),
            ParamError::GammaOutOfRange(0.3)
        );
        assert_eq!(
            MqceParams::new(1.2, 5).unwrap_err(),
            ParamError::GammaOutOfRange(1.2)
        );
        assert_eq!(MqceParams::new(0.9, 0).unwrap_err(), ParamError::ThetaZero);
        assert!(MqceParams::new(f64::NAN, 2).is_err());
    }

    #[test]
    fn config_builder() {
        let cfg = MqceConfig::new(0.8, 4)
            .unwrap()
            .with_algorithm(Algorithm::FastQc)
            .with_branching(BranchingStrategy::SymSe)
            .with_max_round(3)
            .with_backend(AdjacencyBackend::Bitset)
            .with_time_limit(Duration::from_secs(10));
        assert_eq!(cfg.algorithm, Algorithm::FastQc);
        assert_eq!(cfg.branching, BranchingStrategy::SymSe);
        assert_eq!(cfg.max_round, 3);
        assert_eq!(cfg.params.backend, AdjacencyBackend::Bitset);
        assert!(cfg.time_limit.is_some());
        assert_eq!(cfg.with_s2_backend(S2Backend::Extremal), cfg);
    }

    #[test]
    fn steal_granularity_defaults_and_builder() {
        let p = MqceParams::new(0.9, 2).unwrap();
        assert_eq!(p.steal_granularity, DEFAULT_STEAL_GRANULARITY);
        assert_eq!(p.with_steal_granularity(0).steal_granularity, 0);
        let cfg = MqceConfig::new(0.9, 2).unwrap().with_steal_granularity(7);
        assert_eq!(cfg.params.steal_granularity, 7);
    }

    #[test]
    fn backend_defaults_and_names() {
        let p = MqceParams::new(0.9, 2).unwrap();
        assert_eq!(p.backend, AdjacencyBackend::Auto);
        let p = p.with_backend(AdjacencyBackend::Slice);
        assert_eq!(p.backend, AdjacencyBackend::Slice);
        let names: Vec<_> = [
            AdjacencyBackend::Auto,
            AdjacencyBackend::Slice,
            AdjacencyBackend::Bitset,
        ]
        .iter()
        .map(|b| b.name())
        .collect();
        assert_eq!(names, vec!["auto", "slice", "bitset"]);
    }

    #[test]
    fn algorithm_names_are_distinct() {
        use Algorithm::*;
        let names: Vec<_> = [
            DcFastQc,
            FastQc,
            BasicDcFastQc,
            QuickPlus,
            QuickPlusRaw,
            Naive,
        ]
        .iter()
        .map(|a| a.name())
        .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn param_error_display() {
        assert!(ParamError::ThetaZero.to_string().contains("theta"));
        assert!(ParamError::GammaOutOfRange(2.0)
            .to_string()
            .contains("gamma"));
    }
}
