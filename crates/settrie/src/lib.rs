//! Maximality filtering for MQCE-S2.
//!
//! The second step of maximal quasi-clique enumeration (**MQCE-S2**) takes
//! the set `S` of quasi-cliques produced by the branch-and-bound search
//! (every maximal QC plus possibly some non-maximal ones) and removes the
//! sets contained in another set of `S`. The paper does this with the
//! set-trie of Savnik et al. \[37\]; this crate does it with one pass over
//! a flat family. S1's workers fill one [`SetArena`] each;
//! [`CanonicalFamily::from_arenas`] sorts them in parallel and merges them
//! without duplicates; [`CanonicalFamily::compact`] indexes the family once
//! (element → sets, as a frozen CSR array) and scoped workers probe every
//! set against the strictly larger sets of its rarest element.
//! [`compact_parallel`] runs the same pass on boxed sets.
//! [`filter_maximal`] is an independent serial filter, and
//! [`filter_maximal_naive`] the quadratic reference; the tests check the
//! pass against both.
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
mod canonical;
pub mod engine;
mod filter;
mod parallel;

pub use arena::SetArena;
pub use canonical::CanonicalFamily;
pub use engine::{S2Backend, S2Buffer, S2Decision, S2Outcome, S2Steps};
pub use filter::{filter_maximal, filter_maximal_naive};
pub use parallel::compact_parallel;
