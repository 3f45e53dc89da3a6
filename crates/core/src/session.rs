//! The builder-style entry point to batch enumeration and queries.
//!
//! [`Session`] opens a graph once (the decomposition — degeneracy ordering,
//! core numbers, fingerprint — is derived once and shared), then runs batch
//! enumerations and per-vertex queries against the same state. Edge-update
//! batches go through an [`IncrementalSession`](crate::IncrementalSession),
//! which maintains the maximal family under updates.
//!
//! ```
//! use mqce_core::{MqceParams, Session};
//! use mqce_graph::Graph;
//!
//! let session = Session::open(Graph::paper_figure1())
//!     .params(MqceParams::new(0.6, 3).unwrap())
//!     .threads(2);
//! let result = session.run();
//! assert!(!result.mqcs.is_empty());
//! let q = session.query(&[0]).unwrap();
//! assert!(q.mqcs.iter().all(|m| m.contains(&0)));
//! ```
//!
//! Batch enumeration in the CLI, the serve daemon, the fuzzer and the bench
//! harness goes through `Session`; the only free enumeration functions left
//! are the [`enumerate_mqcs_default`](crate::enumerate_mqcs_default)
//! one-liner and the S1-only [`solve_s1`](crate::solve_s1).

use std::sync::Arc;

use mqce_graph::{Graph, VertexId};

use crate::config::{MqceConfig, MqceParams};
use crate::pipeline::{run_pipeline, MqceResult};
use crate::prepared::PreparedGraph;
use crate::query::{find_mqcs_containing, QueryError, QueryResult};

/// A configured enumeration session over one graph.
///
/// Construction is cheap apart from the one-time decomposition performed by
/// [`Session::open`]; the builder methods ([`params`](Session::params),
/// [`config`](Session::config), [`threads`](Session::threads)) move `self`
/// and can be chained.
/// [`run`](Session::run) and [`query`](Session::query) then execute
/// against the shared state. Both take `&self`, so one session can serve
/// many requests (the `mqce serve` daemon holds one per loaded graph). To
/// apply edge updates, use an
/// [`IncrementalSession`](crate::IncrementalSession).
pub struct Session {
    prepared: Arc<PreparedGraph>,
    config: MqceConfig,
    threads: usize,
}

impl Session {
    /// Parameters a session starts with until [`params`](Session::params) or
    /// [`config`](Session::config) overrides them: γ = 0.9, θ = 2.
    pub fn default_config() -> MqceConfig {
        MqceConfig::new(0.9, 2).expect("default session parameters are valid")
    }

    /// Opens a session on `graph`, deriving the shared decomposition (core
    /// numbers, degeneracy ordering, fingerprint) once.
    pub fn open(graph: Graph) -> Self {
        Self::open_prepared(Arc::new(PreparedGraph::new(graph)))
    }

    /// Opens a session over an already-prepared graph, sharing the cached
    /// decomposition with the caller (the serve daemon keeps the same
    /// [`PreparedGraph`] behind several sessions).
    pub fn open_prepared(prepared: Arc<PreparedGraph>) -> Self {
        Session {
            prepared,
            config: Self::default_config(),
            threads: 1,
        }
    }

    /// Sets the enumeration parameters (γ, θ, steal granularity), keeping
    /// the rest of the configuration.
    pub fn params(mut self, params: MqceParams) -> Self {
        self.config.params = params;
        self
    }

    /// Replaces the whole configuration (algorithm, branching, time limit,
    /// parameters).
    pub fn config(mut self, config: MqceConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of worker threads for [`run`](Session::run); `0` and `1` both
    /// mean sequential.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The prepared graph the session enumerates.
    pub fn prepared(&self) -> &PreparedGraph {
        &self.prepared
    }

    /// Runs the full pipeline (S1, then the S2 pass) and returns the maximal
    /// family plus statistics. The family is the same at every thread
    /// count.
    pub fn run(&self) -> MqceResult {
        run_pipeline(&self.prepared, &self.config, self.threads)
    }

    /// Enumerates only the maximal quasi-cliques containing all of `query`
    /// (the per-vertex/query API the serve daemon exposes).
    pub fn query(&self, query: &[VertexId]) -> Result<QueryResult, QueryError> {
        find_mqcs_containing(self.prepared.graph(), query, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::pipeline::{enumerate_mqcs_default, solve_s1};
    use mqce_graph::generators::{community_graph, CommunityGraphParams};
    use mqce_settrie::filter_maximal;

    #[test]
    fn session_matches_free_functions() {
        // Every algorithm, sequential and parallel, over one shared prepared
        // graph, must return the maximal family of its own S1 stream
        // filtered in one batch, and DCFastQC must match the one-liner.
        let g = community_graph(
            CommunityGraphParams {
                n: 100,
                num_communities: 7,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            31,
        );
        let prepared = Arc::new(PreparedGraph::new(g.clone()));
        let default = enumerate_mqcs_default(&g, 0.85, 5).unwrap();
        for algo in [
            Algorithm::DcFastQc,
            Algorithm::BasicDcFastQc,
            Algorithm::QuickPlus,
            Algorithm::FastQc,
        ] {
            let config = MqceConfig::new(0.85, 5).unwrap().with_algorithm(algo);
            let reference = filter_maximal(&solve_s1(&g, &config).outputs);
            assert_eq!(reference, default.mqcs, "{algo:?} S1 + batch filter");
            let session = Session::open_prepared(prepared.clone()).config(config);
            assert_eq!(session.run().mqcs, reference, "{algo:?} sequential");
            let parallel = session.threads(4);
            assert_eq!(parallel.run().mqcs, reference, "{algo:?} parallel");
        }
    }

    #[test]
    fn session_query_keeps_the_query_vertex() {
        let config = MqceConfig::new(0.6, 3).unwrap();
        let session = Session::open(Graph::paper_figure1())
            .config(config)
            .threads(2);
        let q = session.query(&[0]).unwrap();
        assert!(q.mqcs.iter().all(|m| m.contains(&0)));
    }

    #[test]
    fn default_config_is_valid() {
        let config = Session::default_config();
        assert_eq!(config.params.theta, 2);
        assert!((config.params.gamma - 0.9).abs() < 1e-12);
    }
}
