//! Maximality filtering for MQCE-S2.
//!
//! The second step of maximal quasi-clique enumeration (**MQCE-S2**) takes
//! the set `S` of quasi-cliques produced by the branch-and-bound search
//! (every maximal QC plus possibly some non-maximal ones) and removes the
//! sets contained in another set of `S`. The paper does this with the
//! set-trie of Savnik et al. \[37\]; this crate does it with one pass,
//! [`compact_parallel`]: the family is indexed once (element → sets, as a
//! frozen CSR array) and scoped workers probe every set against the
//! strictly larger sets of its rarest element. [`filter_maximal`] is an
//! independent serial filter, and [`filter_maximal_naive`] the quadratic
//! reference; the tests check the pass against both.
//!
//! ```
//! use mqce_settrie::{compact_parallel, filter_maximal};
//!
//! let family = vec![vec![1, 2, 3], vec![2, 4], vec![1, 3], vec![2, 4], vec![1, 2, 3, 4]];
//! let out = compact_parallel(&family, 2, None);
//! assert_eq!(out.mqcs, vec![vec![1, 2, 3, 4]]); // dominates every other set
//! assert!(!out.timed_out);
//! assert_eq!(out.mqcs, filter_maximal(&family));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod engine;
mod filter;
mod parallel;

pub use arena::SetArena;
pub use engine::{S2Backend, S2Buffer, S2Decision, S2Outcome};
pub use filter::{filter_maximal, filter_maximal_naive};
pub use parallel::compact_parallel;
