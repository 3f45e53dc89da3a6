//! Maximal γ-quasi-clique enumeration: FastQC, DCFastQC and the Quick+
//! baseline.
//!
//! This crate implements the algorithms of *"Fast Maximal Quasi-clique
//! Enumeration: A Pruning and Branching Co-Design Approach"* (Yu & Long,
//! SIGMOD 2024):
//!
//! * [`fastqc`] — the FastQC branch-and-bound algorithm (SD-space necessary
//!   condition, progressive refinement, Sym-SE and Hybrid-SE branching).
//!   Hybrid-SE carries the worst-case time `O(n·d·α_k^n)`, `α_k < 2`;
//!   Sym-SE, which explores fewer branches in practice, is the default.
//! * [`dc`] — the divide-and-conquer driver (`DCFastQC`) and the basic DC
//!   framework used as an ablation baseline.
//! * [`quickplus`] — the Quick+ baseline with SE branching and Type I/II
//!   pruning rules.
//! * [`pipeline`] — the end-to-end MQCE solver: MQCE-S1 (enumeration) plus
//!   MQCE-S2 (one maximality pass over the sorted S1 outputs), returning
//!   exactly the maximal quasi-cliques of size ≥ θ.
//! * [`naive`] — an exhaustive oracle for differential testing.
//! * [`quasiclique`] — the γ-quasi-clique predicate and the τ/Δ/σ primitives.
//!
//! # Quick start
//!
//! ```
//! use mqce_core::prelude::*;
//! use mqce_graph::Graph;
//!
//! // A 5-clique with a pendant vertex.
//! let g = Graph::from_edges(6, &[
//!     (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
//!     (2, 3), (2, 4), (3, 4), (4, 5),
//! ]);
//! let result = enumerate_mqcs_default(&g, 0.9, 3).unwrap();
//! assert_eq!(result.mqcs, vec![vec![0, 1, 2, 3, 4]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod branch;
pub mod completeness;
pub mod config;
pub mod dc;
pub mod edge_qc;
pub mod fastqc;
pub mod incremental;
pub mod kernel;
pub mod naive;
pub mod pipeline;
pub mod prepared;
pub mod quasiclique;
pub mod query;
pub mod quickplus;
mod scheduler;
pub mod session;
pub mod stats;
pub mod topk;
pub mod verify;

pub use branch::SearchOutcome;
pub use completeness::Completeness;
pub use config::{Algorithm, BranchingStrategy, MqceConfig, MqceParams, ParamError};
pub use incremental::{IncrementalSession, UpdateOutcome};
/// Remains for the benchmark harness, which names it through this crate.
pub use mqce_settrie::S2Backend;
pub use pipeline::{enumerate_mqcs_default, solve_s1, solve_s1_threads, MqceResult};
pub use prepared::PreparedGraph;
pub use query::{find_mqcs_containing, QueryError, QueryResult};
pub use session::Session;
pub use stats::{S2Stats, SearchStats, ThreadStats};
pub use topk::{find_largest_mqcs, TopKResult};
pub use verify::{
    verify_exact_against_oracle, verify_mqc_set, verify_s1_output, VerificationReport, Violation,
};

/// Commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use crate::config::{Algorithm, BranchingStrategy, MqceConfig, MqceParams};
    pub use crate::pipeline::{enumerate_mqcs_default, solve_s1, solve_s1_threads, MqceResult};
    pub use crate::quasiclique::is_quasi_clique;
    pub use crate::session::Session;
    pub use crate::stats::{S2Stats, SearchStats, ThreadStats};
}
