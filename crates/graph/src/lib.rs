//! Graph substrate for maximal quasi-clique enumeration.
//!
//! This crate provides everything the enumeration algorithms in `mqce-core`
//! need from a graph library, built from scratch:
//!
//! * [`Graph`] — an immutable, undirected, simple graph in a compact
//!   CSR-like representation with sorted adjacency lists.
//! * [`GraphBuilder`] — incremental construction with duplicate-edge and
//!   self-loop removal.
//! * [`bitset`] — the word-parallel adjacency kernel ([`AdjacencyMatrix`],
//!   [`BitSet`]): packed bit-matrix rows with popcount degree counts, built
//!   for dense subproblems below an adaptive threshold.
//! * [`generators`] — synthetic workload generators (Erdős–Rényi, planted
//!   quasi-cliques, power-law community graphs, grids, …) used to stand in
//!   for the paper's real datasets.
//! * [`core_decomp`] — k-core decomposition, core numbers, degeneracy and the
//!   degeneracy ordering used by the divide-and-conquer framework.
//! * [`subgraph`] — induced subgraphs with local/global vertex-id mappings and
//!   2-hop neighbourhood extraction.
//! * [`scratch`] — reusable per-worker buffers ([`SubproblemScratch`]) for
//!   allocation-free subgraph extraction on the divide-and-conquer hot path.
//! * [`connectivity`] — connectedness of vertex subsets (the quasi-clique
//!   predicate's check) and BFS distances.
//! * [`delta`] — normalised edge-update batches ([`GraphDelta`]) with a
//!   slack-aware CSR rebuild, dirty two-hop closures, and incremental
//!   core-decomposition maintenance for the incremental enumeration layer.
//! * [`edge_list`] — plain-text edge-list parsing and serialisation.
//! * [`wal`] — an append-only write-ahead log of [`GraphDelta`] batches
//!   (length-prefixed, checksummed, truncated-tail-tolerant) backing the
//!   serve daemon's crash recovery.
//! * [`stats`] — summary statistics matching the columns of Table 1 of the
//!   paper (|V|, |E|, density, max degree, degeneracy).
//!
//! Vertices are dense `u32` identifiers in `0..n`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
mod builder;
pub mod connectivity;
pub mod core_decomp;
pub mod delta;
pub mod edge_list;
pub mod formats;
pub mod generators;
mod graph;
pub mod scratch;
pub mod stats;
pub mod subgraph;
pub mod wal;

pub use bitset::{AdjacencyMatrix, BitSet};
pub use builder::GraphBuilder;
pub use delta::{
    canonicalize_edges, dirty_two_hop_closure, update_core_decomposition, CoreUpdate, GraphDelta,
};
pub use graph::{Graph, VertexId};
pub use scratch::SubproblemScratch;
pub use stats::GraphStats;
pub use subgraph::InducedSubgraph;
pub use wal::WriteAheadLog;
