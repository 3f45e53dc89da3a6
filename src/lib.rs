//! `mqce` — maximal γ-quasi-clique enumeration for Rust.
//!
//! This is the facade crate of the workspace reproducing *"Fast Maximal
//! Quasi-clique Enumeration: A Pruning and Branching Co-Design Approach"*
//! (Yu & Long, SIGMOD 2024). It re-exports:
//!
//! * [`graph`] — the graph substrate ([`mqce_graph`]): CSR graphs, builders,
//!   generators, k-core / degeneracy, induced subgraphs, edge-list IO;
//! * [`settrie`] — maximality filtering for MQCE-S2 ([`mqce_settrie`]): the
//!   one compaction pass the pipeline runs, plus the serial reference
//!   filters;
//! * [`core`] — the enumeration algorithms ([`mqce_core`]): FastQC, DCFastQC,
//!   the Quick+ baseline, and the end-to-end pipeline behind the
//!   [`Session`] builder.
//!
//! # Example
//!
//! ```
//! use mqce::prelude::*;
//!
//! // Build a small social network: two tight friend groups joined by a bridge.
//! let g = Graph::from_edges(7, &[
//!     (0, 1), (0, 2), (1, 2), (2, 3),          // triangle {0,1,2} + bridge
//!     (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),  // 4-clique {3,4,5,6}
//! ]);
//! let result = Session::open(g)
//!     .params(MqceParams::new(0.9, 3).unwrap())
//!     .run();
//! assert_eq!(result.mqcs, vec![vec![0, 1, 2], vec![3, 4, 5, 6]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mqce_core as core;
pub use mqce_graph as graph;
pub use mqce_settrie as settrie;

pub use mqce_core::{IncrementalSession, Session};

/// One-stop imports: the graph type, the solver entry points and the
/// configuration types.
pub mod prelude {
    pub use mqce_core::prelude::*;
    pub use mqce_core::query::find_mqcs_containing;
    pub use mqce_core::verify::{verify_mqc_set, verify_s1_output};
    pub use mqce_core::{
        find_largest_mqcs, Algorithm, BranchingStrategy, MqceConfig, MqceParams, MqceResult,
        PreparedGraph, Session,
    };
    pub use mqce_graph::{Graph, GraphBuilder, GraphStats, VertexId};
    pub use mqce_settrie::{compact_parallel, filter_maximal};
}
