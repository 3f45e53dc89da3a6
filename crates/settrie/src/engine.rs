//! The S2 outcome record and the backend names the benchmark harness uses.
//!
//! MQCE-S2 is one pass, [`CanonicalFamily::compact`](crate::CanonicalFamily::compact):
//! the pipeline merges the S1 arenas into one canonical family and compacts
//! it on the run's worker count. What stays here is the outcome record that
//! pass returns, with its step times, plus the surface the benchmark harness (`perfbench`) compiles against: the four
//! [`S2Backend`] names, whose buffers all run that same pass on one worker,
//! and the [`S2Decision`] record, which nothing sets any more.

use std::time::{Duration, Instant};

use crate::parallel::compact_parallel;

/// Wall-clock time of each step of one S2 pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct S2Steps {
    /// Sorting each S1 arena and merging them without duplicates
    /// ([`CanonicalFamily::from_arenas`](crate::CanonicalFamily::from_arenas)),
    /// timed by the family and reported by the pass that compacts it.
    pub merge: Duration,
    /// Ranking the sets and building the inverted index.
    pub index: Duration,
    /// Probing every set and marking the survivors.
    pub probe: Duration,
    /// Boxing the survivors.
    pub collect: Duration,
}

impl std::fmt::Display for S2Steps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merge={:.3}s index={:.3}s probe={:.3}s collect={:.3}s",
            self.merge.as_secs_f64(),
            self.index.as_secs_f64(),
            self.probe.as_secs_f64(),
            self.collect.as_secs_f64()
        )
    }
}

/// The result of an S2 compaction.
#[derive(Clone, Debug, Default)]
pub struct S2Outcome {
    /// The maximal sets, sorted lexicographically. When `timed_out` is set
    /// this holds only sets whose probe completed: each is maximal in the
    /// whole family, but others are missing.
    pub mqcs: Vec<Vec<u32>>,
    /// Whether the compaction stopped early because the deadline passed.
    pub timed_out: bool,
    /// The pass that ran (`parallel`).
    pub backend: &'static str,
    /// Always `None`: no dispatcher chooses a backend. Remains for the
    /// benchmark harness, which reads it.
    pub decision: Option<S2Decision>,
    /// How long each step took.
    pub steps: S2Steps,
}

/// A backend choice with its predicted costs. Nothing constructs one; it
/// remains for the benchmark harness, which reads
/// [`S2Outcome::decision`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct S2Decision {
    /// Predicted milliseconds per backend, in [`S2Backend::concrete`] order.
    pub predicted_millis: [f64; 3],
    /// The chosen backend.
    pub chosen: S2Backend,
    /// Whether a cost model made the choice.
    pub modeled: bool,
}

/// The S2 backend names the benchmark harness iterates over. Every variant
/// buffers its sets and compacts them with [`compact_parallel`] on one
/// worker, so they differ only in name. Remains for the benchmark harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum S2Backend {
    /// `auto`.
    Auto,
    /// `inverted`.
    Inverted,
    /// `bitset`.
    Bitset,
    /// `extremal`.
    Extremal,
}

impl S2Backend {
    /// The backend name (`auto` / `inverted` / `bitset` / `extremal`).
    /// Remains for the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            S2Backend::Auto => "auto",
            S2Backend::Inverted => "inverted",
            S2Backend::Bitset => "bitset",
            S2Backend::Extremal => "extremal",
        }
    }

    /// A fresh, empty buffer. Remains for the benchmark harness.
    pub fn new_engine(&self) -> S2Buffer {
        S2Buffer::default()
    }

    /// The three non-auto names. Remains for the benchmark harness.
    pub fn concrete() -> [S2Backend; 3] {
        [S2Backend::Inverted, S2Backend::Bitset, S2Backend::Extremal]
    }
}

/// Sets collected for one [`compact_parallel`] call. Remains for the
/// benchmark harness, which times `add` and `finish_with_deadline`
/// separately.
#[derive(Clone, Debug, Default)]
pub struct S2Buffer {
    sets: Vec<Vec<u32>>,
}

impl S2Buffer {
    /// Appends a copy of `set`.
    pub fn add(&mut self, set: &[u32]) {
        self.sets.push(set.to_vec());
    }

    /// The maximal sets of everything added: [`compact_parallel`] on one
    /// worker under `deadline`.
    pub fn finish_with_deadline(self, deadline: Option<Instant>) -> S2Outcome {
        compact_parallel(&self.sets, 1, deadline)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::filter::{filter_maximal, filter_maximal_naive, is_sorted_subset};

    /// Deterministic pseudo-random overlapping set families.
    pub(crate) fn random_families() -> Vec<Vec<Vec<u32>>> {
        let mut families = Vec::new();
        for family in 0..20u64 {
            let mut sets = Vec::new();
            let mut x = family.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xDEADBEEF;
            let n = 10 + (family % 30) as usize;
            for _ in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let len = (x >> 60) as usize % 7;
                let mut s = Vec::new();
                for _ in 0..len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s.push((x >> 33) as u32 % 14);
                }
                sets.push(s);
            }
            families.push(sets);
        }
        families
    }

    const ALL: [S2Backend; 4] = [
        S2Backend::Auto,
        S2Backend::Inverted,
        S2Backend::Bitset,
        S2Backend::Extremal,
    ];

    fn buffered(backend: S2Backend, sets: &[Vec<u32>], deadline: Option<Instant>) -> S2Outcome {
        let mut buffer = backend.new_engine();
        for set in sets {
            buffer.add(set);
        }
        buffer.finish_with_deadline(deadline)
    }

    #[test]
    fn all_backends_match_naive_on_random_families() {
        for sets in random_families() {
            let expected = filter_maximal_naive(&sets);
            for backend in ALL {
                assert_eq!(
                    buffered(backend, &sets, None).mqcs,
                    expected,
                    "{} disagrees on {sets:?}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn empty_set_semantics_match_filter_maximal() {
        for backend in ALL {
            for sets in [vec![Vec::<u32>::new()], vec![vec![], vec![7], vec![]]] {
                assert_eq!(
                    buffered(backend, &sets, None).mqcs,
                    filter_maximal(&sets),
                    "{}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn expired_deadline_returns_sound_partial_result() {
        let sets: Vec<Vec<u32>> = (0..2000u32)
            .map(|i| {
                (0..6)
                    .map(|j| (i.wrapping_mul(31).wrapping_add(j * 7)) % 40)
                    .collect()
            })
            .collect();
        for backend in ALL {
            let out = buffered(backend, &sets, Some(Instant::now()));
            assert!(out.timed_out, "{}", backend.name());
            for (i, a) in out.mqcs.iter().enumerate() {
                for (j, b) in out.mqcs.iter().enumerate() {
                    assert!(
                        i == j || !is_sorted_subset(a, b),
                        "{}: partial result contains {a:?} ⊆ {b:?}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn generous_deadline_never_times_out() {
        let sets = vec![vec![1, 2], vec![2, 3], vec![1, 2, 3]];
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        for backend in ALL {
            let out = buffered(backend, &sets, Some(deadline));
            assert!(!out.timed_out);
            assert_eq!(out.mqcs, vec![vec![1, 2, 3]]);
        }
    }

    #[test]
    fn concrete_backends_report_no_decision() {
        for backend in ALL {
            let out = buffered(backend, &random_families()[0], None);
            assert!(out.decision.is_none(), "{}", backend.name());
            assert_eq!(out.backend, "parallel");
        }
    }

    #[test]
    fn backend_names_are_distinct() {
        let names: Vec<&str> = ALL.iter().map(S2Backend::name).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(!S2Backend::concrete().contains(&S2Backend::Auto));
    }
}
