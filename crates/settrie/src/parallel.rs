//! MQCE-S2: the one maximality pass, over a frozen inverted index.
//!
//! Whether a set is strictly contained in another set of the family does not
//! depend on any other set's fate (containment is transitive, so probing
//! against *every* larger set — dead or alive — gives the same answer as
//! probing only the survivors). The family can therefore be indexed once and
//! every set probed independently: [`compact_parallel`] builds a CSR index
//! (element → ascending set ids) over the whole family and lets scoped
//! workers claim blocks of sets from a shared counter.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use crate::engine::S2Outcome;
use crate::filter::is_sorted_subset;

/// Sets a worker claims at a time. Claims are dynamic because probe costs
/// are skewed: small sets come last in probe order and have the longest
/// candidate lists, so fixed contiguous shares leave one worker with most
/// of the work. The deadline is polled at every claim.
const BLOCK: usize = 64;

/// Compacts `sets` to exactly its maximal sets (sorted lexicographically)
/// on `threads` scoped workers (the calling thread is one of them).
/// Duplicates collapse to one copy, and the empty set survives only when it
/// is the sole input, as in [`filter_maximal`](crate::filter_maximal).
///
/// A family that is already canonical — every set strictly increasing, the
/// sets strictly increasing lexicographically, as a sorted and deduplicated
/// S1 output is — is probed in place; any other input is first copied,
/// sorted and deduplicated.
///
/// The index is keyed by element value. When the largest element reaches
/// the family's total number of elements (sparse ids, or a small local
/// family over a large graph), the index is built over the elements' ranks
/// among the distinct values instead, so memory and time stay linear in the
/// input.
///
/// Steps: rank the sets by length descending with a counting sort and build
/// the CSR index over the ranks; probe each set at its rarest element
/// against the part of that element's list holding strictly larger sets;
/// keep the survivors, which are already in lexicographic order.
///
/// Under a deadline the result holds only sets whose probe completed, and
/// each of those is maximal in the whole family: a cut-off answer is a
/// subset of the true maximal family, not merely an antichain.
pub fn compact_parallel(sets: &[Vec<u32>], threads: usize, deadline: Option<Instant>) -> S2Outcome {
    let threads = threads.max(1);
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let outcome = |mqcs, timed_out| S2Outcome {
        mqcs,
        timed_out,
        backend: "parallel",
        decision: None,
    };
    if sets.is_empty() {
        return outcome(Vec::new(), false);
    }
    if expired() {
        return outcome(Vec::new(), true);
    }
    let sets = canonical_family(sets);
    let compressed = compress_sparse(&sets);
    let probed: &[Vec<u32>] = compressed.as_deref().unwrap_or(&sets);
    let index = FrozenIndex::build(probed);
    let n = probed.len();
    let next = AtomicUsize::new(0);
    let timed_out = AtomicBool::new(false);
    let work = || {
        let mut survivors: Vec<u32> = Vec::new();
        loop {
            let start = next.fetch_add(BLOCK, Ordering::Relaxed);
            if start >= n {
                break;
            }
            if expired() {
                timed_out.store(true, Ordering::Relaxed);
                break;
            }
            survivors.extend(
                (start..(start + BLOCK).min(n))
                    .filter(|&rank| !index.dominated(probed, rank))
                    .map(|rank| index.by_rank[rank]),
            );
        }
        survivors
    };
    let survivors = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut survivors = work();
        for helper in helpers {
            let found = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            survivors.extend(found);
        }
        survivors
    });
    drop(index);
    drop(compressed);

    let mut keep = vec![false; n];
    for i in survivors {
        keep[i as usize] = true;
    }
    let mqcs = match sets {
        Cow::Borrowed(sets) => sets
            .iter()
            .zip(keep)
            .filter(|&(_, keep)| keep)
            .map(|(set, _)| set.clone())
            .collect(),
        Cow::Owned(sets) => sets
            .into_iter()
            .zip(keep)
            .filter_map(|(set, keep)| keep.then_some(set))
            .collect(),
    };
    outcome(mqcs, timed_out.into_inner())
}

/// `sets` itself when it is canonical (every set strictly increasing, the
/// sets strictly increasing lexicographically); otherwise a copy with every
/// set sorted and deduplicated, sorted lexicographically without duplicate
/// sets.
fn canonical_family(sets: &[Vec<u32>]) -> Cow<'_, [Vec<u32>]> {
    let increasing = |set: &[u32]| set.windows(2).all(|w| w[0] < w[1]);
    if sets.iter().all(|set| increasing(set)) && sets.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(sets);
    }
    let mut sets = sets.to_vec();
    for set in sets.iter_mut() {
        if !increasing(set) {
            set.sort_unstable();
            set.dedup();
        }
    }
    sets.sort_unstable();
    sets.dedup();
    Cow::Owned(sets)
}

/// When the largest element reaches the total number of elements, a copy
/// of `sets` with every element replaced by its rank among the distinct
/// values. Ranks preserve order, so every set stays sorted and the family's
/// order and containments are unchanged.
fn compress_sparse(sets: &[Vec<u32>]) -> Option<Vec<Vec<u32>>> {
    let total: usize = sets.iter().map(Vec::len).sum();
    let &max = sets.iter().flatten().max()?;
    if (max as usize) < total {
        return None;
    }
    let mut values: Vec<u32> = sets.iter().flatten().copied().collect();
    values.sort_unstable();
    values.dedup();
    let rank = |e: &u32| values.partition_point(|v| v < e) as u32;
    Some(
        sets.iter()
            .map(|set| set.iter().map(rank).collect())
            .collect(),
    )
}

/// The frozen probe structure over a lexicographically sorted, deduplicated
/// family. Sets are ranked by length descending (lexicographic within a
/// length), so the strictly larger sets of any set are exactly the ranks
/// before its length class. `ids[offsets[e]..offsets[e + 1]]` lists the
/// ranks of the sets holding element `e`, ascending; both the ranking and
/// the lists are counting sorts.
struct FrozenIndex {
    /// `by_rank[r]` = lexicographic position of the set ranked `r`.
    by_rank: Vec<u32>,
    /// `longer[len]` = number of sets longer than `len` elements: the first
    /// rank of that length class.
    longer: Vec<u32>,
    offsets: Vec<usize>,
    ids: Vec<u32>,
    /// `signatures[r]` = [`signature`] of the set ranked `r`.
    signatures: Vec<u64>,
}

/// One bit per element, from a multiplicative hash: `a ⊆ b` implies
/// `signature(a) & !signature(b) == 0`, so most non-supersets are rejected
/// from one contiguous word without touching the candidate's elements.
fn signature(set: &[u32]) -> u64 {
    set.iter()
        .fold(0, |sig, &e| sig | 1 << (e.wrapping_mul(0x9E37_79B9) >> 26))
}

impl FrozenIndex {
    fn build(sets: &[Vec<u32>]) -> Self {
        let max_len = sets.iter().map(Vec::len).max().unwrap_or(0);
        let mut count = vec![0u32; max_len + 1];
        for set in sets {
            count[set.len()] += 1;
        }
        let mut longer = vec![0u32; max_len + 1];
        for len in (0..max_len).rev() {
            longer[len] = longer[len + 1] + count[len + 1];
        }
        let mut cursor = longer.clone();
        let mut by_rank = vec![0u32; sets.len()];
        for (i, set) in sets.iter().enumerate() {
            by_rank[cursor[set.len()] as usize] = i as u32;
            cursor[set.len()] += 1;
        }

        let universe = sets.iter().flatten().max().map_or(0, |&e| e as usize + 1);
        let mut offsets = vec![0usize; universe + 1];
        for &e in sets.iter().flatten() {
            offsets[e as usize + 1] += 1;
        }
        for e in 0..universe {
            offsets[e + 1] += offsets[e];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![0u32; offsets[universe]];
        // Sets are visited in rank order, so every list comes out ascending.
        for (rank, &i) in by_rank.iter().enumerate() {
            for &e in &sets[i as usize] {
                ids[cursor[e as usize]] = rank as u32;
                cursor[e as usize] += 1;
            }
        }
        let signatures = by_rank
            .iter()
            .map(|&i| signature(&sets[i as usize]))
            .collect();
        FrozenIndex {
            by_rank,
            longer,
            offsets,
            ids,
            signatures,
        }
    }

    /// Whether the set ranked `rank` is strictly contained in another set
    /// of `sets` (the family this index was built over).
    fn dominated(&self, sets: &[Vec<u32>], rank: usize) -> bool {
        let set = &sets[self.by_rank[rank] as usize];
        // Only strictly larger sets can strictly contain `set`: the ranks
        // before its length class. Probe the element with the fewest.
        let bound = self.longer[set.len()];
        let Some(candidates) = set
            .iter()
            .map(|&e| {
                let list = &self.ids[self.offsets[e as usize]..self.offsets[e as usize + 1]];
                &list[..list.partition_point(|&r| r < bound)]
            })
            .min_by_key(|list| list.len())
        else {
            // The empty set ranks last; anything else dominates it.
            return sets.len() > 1;
        };
        let sig = self.signatures[rank];
        candidates.iter().any(|&r| {
            sig & !self.signatures[r as usize] == 0
                && is_sorted_subset(set, &sets[self.by_rank[r as usize] as usize])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::random_families;
    use crate::filter::{filter_maximal, filter_maximal_naive};
    use std::time::Duration;

    #[test]
    fn matches_naive_on_random_families() {
        for sets in random_families() {
            let expected = filter_maximal_naive(&sets);
            // Duplicates spread across the input, and a canonical
            // (sorted, deduplicated) family, which is probed in place.
            let mut doubled = sets.clone();
            doubled.extend(sets.iter().rev().cloned());
            let mut canonical: Vec<Vec<u32>> = sets
                .iter()
                .map(|set| {
                    let mut set = set.clone();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            canonical.sort_unstable();
            canonical.dedup();
            assert!(matches!(canonical_family(&canonical), Cow::Borrowed(_)));
            for threads in [1, 2, 4] {
                for input in [&sets, &doubled, &canonical] {
                    let out = compact_parallel(input, threads, None);
                    assert_eq!(out.mqcs, expected, "{threads} workers on {input:?}");
                    assert!(!out.timed_out);
                    assert_eq!(out.backend, "parallel");
                    assert!(out.decision.is_none());
                }
            }
        }
    }

    #[test]
    fn empty_set_semantics_match_filter_maximal() {
        for threads in [1, 2, 4] {
            for sets in [
                vec![],
                vec![Vec::<u32>::new()],
                vec![vec![], vec![]],
                vec![vec![], vec![7], vec![]],
            ] {
                assert_eq!(
                    compact_parallel(&sets, threads, None).mqcs,
                    filter_maximal(&sets),
                    "{threads} workers on {sets:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_universe_does_not_allocate_by_element_value() {
        // Element values are arbitrary u32s; memory must scale with the
        // input, not with the largest value.
        for threads in [1, 2] {
            let sets = vec![vec![0], vec![4_000_000_000], vec![0, 4_000_000_000]];
            assert_eq!(
                compact_parallel(&sets, threads, None).mqcs,
                vec![vec![0, 4_000_000_000]]
            );
            assert_eq!(
                compact_parallel(&[vec![u32::MAX]], threads, None).mqcs,
                vec![vec![u32::MAX]]
            );
        }
        // Spread-out ids give the same family as the dense originals.
        for sets in random_families() {
            let sparse: Vec<Vec<u32>> = sets
                .iter()
                .map(|set| set.iter().map(|&e| e * 1_000_003 + 5).collect())
                .collect();
            for threads in [1, 2, 4] {
                assert_eq!(
                    compact_parallel(&sparse, threads, None).mqcs,
                    filter_maximal_naive(&sparse),
                    "{threads} workers on {sparse:?}"
                );
            }
        }
    }

    #[test]
    fn expired_deadline_returns_nothing_and_is_flagged() {
        let sets = random_families().concat();
        for threads in [1, 2, 4] {
            let out = compact_parallel(&sets, threads, Some(Instant::now()));
            assert!(out.timed_out, "{threads} workers");
            assert!(out.mqcs.is_empty(), "{threads} workers");
        }
    }

    /// A cut-off run keeps only sets whose probe ran against the whole
    /// family, so its answer is a subset of the full maximal family.
    #[test]
    fn partial_result_is_subset_of_full_family() {
        let sets: Vec<Vec<u32>> = (0..30_000u32)
            .map(|i| {
                (0..8)
                    .map(|j| (i.wrapping_mul(37).wrapping_add(j * 11)) % 60)
                    .collect()
            })
            .collect();
        let full = filter_maximal(&sets);
        for threads in [1, 2, 4] {
            for budget_micros in [0u64, 50, 500, 5_000] {
                let deadline = Instant::now() + Duration::from_micros(budget_micros);
                let out = compact_parallel(&sets, threads, Some(deadline));
                for set in &out.mqcs {
                    assert!(
                        full.binary_search(set).is_ok(),
                        "{threads} workers: partial result contains non-maximal {set:?}"
                    );
                }
            }
        }
    }
}
