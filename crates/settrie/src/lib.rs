//! Maximality filtering for MQCE-S2.
//!
//! The second step of maximal quasi-clique enumeration (**MQCE-S2**) takes
//! the set `S` of quasi-cliques produced by the branch-and-bound search
//! (every maximal QC plus possibly some non-maximal ones) and removes the
//! sets contained in another set of `S`. The paper does this with the
//! set-trie of Savnik et al. \[37\]; this crate does it with a streaming
//! [`MaximalityEngine`]: sets are fed in as the search produces them, so
//! duplicates and dominated sets are dropped on arrival, and
//! [`finish`](MaximalityEngine::finish) compacts what is left to exactly
//! the maximal sets. [`filter_maximal`] is the one-shot batch form, and
//! [`compact_parallel`] compacts the drained families of several per-thread
//! engines together on scoped worker threads.
//!
//! ```
//! use mqce_settrie::{MaximalityEngine, S2Backend};
//!
//! let mut engine = S2Backend::Inverted.new_engine();
//! engine.add(&[1, 2, 3]);
//! engine.add(&[2, 4]);
//! assert!(!engine.add(&[1, 3])); // dominated on arrival
//! engine.add(&[1, 2, 3, 4]); // dominates every retained set
//! assert_eq!(engine.finish().mqcs, vec![vec![1, 2, 3, 4]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cost_model;
pub mod engine;
mod filter;
mod parallel;

pub use arena::SetArena;
pub use cost_model::{fit_log_linear, S2CostModel, S2Decision};
pub use engine::{choose_backend, filter_maximal_with, MaximalityEngine, S2Backend, S2Outcome};
pub use filter::{filter_maximal, filter_maximal_naive};
pub use parallel::compact_parallel;
