//! MQCE-S2: the one maximality pass, over a frozen inverted index.
//!
//! Whether a set is strictly contained in another set of the family does not
//! depend on any other set's fate (containment is transitive, so probing
//! against *every* larger set — dead or alive — gives the same answer as
//! probing only the survivors). The family can therefore be indexed once and
//! every set probed independently: [`CanonicalFamily::compact`] builds a CSR
//! index (element → ascending set ids) over the whole flat family on scoped
//! workers, lets them claim blocks of sets from a shared counter, marks the
//! survivors in a bitmap and boxes only those.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;

use crate::arena::SetArena;
use crate::canonical::CanonicalFamily;
use crate::engine::{S2Outcome, S2Steps};
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
/// This is [`CanonicalFamily::from_sets`] followed by
/// [`CanonicalFamily::compact`], for callers that hold boxed sets.
pub fn compact_parallel(sets: &[Vec<u32>], threads: usize, deadline: Option<Instant>) -> S2Outcome {
    CanonicalFamily::from_sets(sets).compact(threads, deadline)
}

impl CanonicalFamily {
    /// Compacts the family to exactly its maximal sets (sorted
    /// lexicographically) on `threads` scoped workers (the calling thread is
    /// one of them). The empty set survives only when it is the sole set.
    ///
    /// Steps, each timed in [`S2Outcome::steps`]: *merge* is the time the
    /// family took to sort and merge (see
    /// [`from_arenas`](CanonicalFamily::from_arenas)); *index* ranks the sets by
    /// length descending with a counting sort and builds the CSR index over
    /// the ranks, each worker counting and scattering one block of ranks;
    /// *probe* tests each set at its rarest element against the part of
    /// that element's list holding strictly larger sets; *collect* boxes
    /// the survivors, which are already in lexicographic order.
    ///
    /// The index is keyed by element value. When the largest element reaches
    /// the family's total number of elements (sparse ids, or a small local
    /// family over a large graph), the index is built over the elements'
    /// ranks among the distinct values instead, so memory and time stay
    /// linear in the input.
    ///
    /// Under a deadline the result holds only sets whose probe completed, and
    /// each of those is maximal in the whole family: a cut-off answer is a
    /// subset of the true maximal family, not merely an antichain.
    pub fn compact(&self, threads: usize, deadline: Option<Instant>) -> S2Outcome {
        let threads = threads.max(1);
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let mut steps = S2Steps {
            merge: self.merge_time(),
            ..S2Steps::default()
        };
        let outcome = |mqcs, timed_out, steps| S2Outcome {
            mqcs,
            timed_out,
            backend: "parallel",
            decision: None,
            steps,
        };
        if self.is_empty() {
            return outcome(Vec::new(), false, steps);
        }
        if expired() {
            return outcome(Vec::new(), true, steps);
        }
        let start = Instant::now();
        let compressed = self.compress_sparse();
        let (probed, universe) = match &compressed {
            Some((ranked, distinct)) => (ranked, *distinct),
            None => (self.arena(), self.max().map_or(0, |e| e as usize + 1)),
        };
        let index = FrozenIndex::build(probed, universe, threads);
        steps.index = start.elapsed();

        let start = Instant::now();
        let n = probed.len();
        let next = AtomicUsize::new(0);
        let timed_out = AtomicBool::new(false);
        let work = |_| {
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
        let survivors = on_workers(0..threads, work);
        drop(index);
        drop(compressed);
        let mut keep = vec![0u64; n.div_ceil(64)];
        for i in survivors.into_iter().flatten() {
            keep[i as usize / 64] |= 1 << (i % 64);
        }
        steps.probe = start.elapsed();

        let start = Instant::now();
        let kept = |i: usize| keep[i / 64] >> (i % 64) & 1 == 1;
        let chunk = n.div_ceil(threads);
        let boxed = on_workers(0..threads, |worker| {
            let lo = (worker * chunk).min(n);
            (lo..(lo + chunk).min(n))
                .filter(|&i| kept(i))
                .map(|i| self.arena().get(i).to_vec())
                .collect::<Vec<_>>()
        });
        let mqcs = boxed.into_iter().flatten().collect();
        steps.collect = start.elapsed();
        outcome(mqcs, timed_out.into_inner(), steps)
    }

    /// When the largest element reaches the total number of elements, a copy
    /// of the family with every element replaced by its rank among the
    /// distinct values, and the number of distinct values. Ranks preserve
    /// order, so every set stays sorted and the family's order and
    /// containments are unchanged.
    fn compress_sparse(&self) -> Option<(SetArena, usize)> {
        let max = self.max()?;
        let sets = self.arena();
        if (max as usize) < sets.pooled_len() {
            return None;
        }
        let mut values: Vec<u32> = sets.iter().flatten().copied().collect();
        values.sort_unstable();
        values.dedup();
        let mut ranked = SetArena::with_capacity(sets.len(), sets.pooled_len());
        let mut buf = Vec::new();
        for set in sets.iter() {
            buf.clear();
            buf.extend(set.iter().map(|e| values.partition_point(|v| v < e) as u32));
            ranked.push_sorted(&buf);
        }
        Some((ranked, values.len()))
    }
}

/// Runs `work` on every item, each on a scoped worker of its own (the
/// calling thread takes the first), and returns the results in item order.
/// A worker's panic is re-raised.
pub(crate) fn on_workers<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        let mut results = vec![work(first)];
        results.extend(helpers.into_iter().map(|helper| {
            helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        results
    })
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
    /// Indexes `sets`, whose elements are all below `universe`, on up to
    /// `threads` workers: each takes one contiguous block of ranks and
    /// counts its elements; one serial pass turns every block's counts into
    /// its start cursors in the lists, behind the blocks before it; each
    /// worker then scatters its ranks, so every list comes out ascending.
    /// Workers are capped so that their count arrays together hold no more
    /// entries than the index itself.
    fn build(sets: &SetArena, universe: usize, threads: usize) -> Self {
        let max_len = sets.iter().map(<[u32]>::len).max().unwrap_or(0);
        let mut count = vec![0u32; max_len + 1];
        for set in sets.iter() {
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

        let workers = threads.min(sets.pooled_len() / universe.max(1)).max(1);
        let block = by_rank.len().div_ceil(workers).max(1);
        let blocks: Vec<&[u32]> = by_rank.chunks(block).collect();
        let mut signatures = vec![0u64; by_rank.len()];
        let mut cursors = on_workers(
            blocks.iter().zip(signatures.chunks_mut(block)),
            |(ranks, sigs)| {
                let mut count = vec![0u32; universe];
                for (&i, sig) in ranks.iter().zip(sigs) {
                    let set = sets.get(i as usize);
                    *sig = signature(set);
                    for &e in set {
                        count[e as usize] += 1;
                    }
                }
                count
            },
        );

        // Block b's count of `e` becomes its first position in e's list.
        let mut offsets = Vec::with_capacity(universe + 1);
        offsets.push(0);
        for e in 0..universe {
            let mut at = 0;
            for cursor in &mut cursors {
                (cursor[e], at) = (at, at + cursor[e]);
            }
            offsets.push(offsets[e] + at as usize);
        }
        let ids: Vec<AtomicU32> = vec![0u32; offsets[universe]]
            .into_iter()
            .map(AtomicU32::new)
            .collect();
        on_workers(
            blocks.iter().zip(cursors).enumerate(),
            |(b, (ranks, mut cursor))| {
                let first = (b * block) as u32;
                for (rank, &i) in (first..).zip(*ranks) {
                    for &e in sets.get(i as usize) {
                        let e = e as usize;
                        // The workers' join orders these stores before any
                        // read of `ids`.
                        ids[offsets[e] + cursor[e] as usize].store(rank, Ordering::Relaxed);
                        cursor[e] += 1;
                    }
                }
            },
        );
        let ids = ids.into_iter().map(AtomicU32::into_inner).collect();
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
    fn dominated(&self, sets: &SetArena, rank: usize) -> bool {
        let set = sets.get(self.by_rank[rank] as usize);
        // Only strictly larger sets can strictly contain `set`: the ranks
        // before its length class. Probe the element with the fewest.
        let bound = self.longer[set.len()];
        let Some(list) = set
            .iter()
            .map(|&e| &self.ids[self.offsets[e as usize]..self.offsets[e as usize + 1]])
            .min_by_key(|list| list.len())
        else {
            // The empty set ranks last; anything else dominates it.
            return sets.len() > 1;
        };
        let candidates = &list[..list.partition_point(|&r| r < bound)];
        let sig = self.signatures[rank];
        candidates.iter().any(|&r| {
            sig & !self.signatures[r as usize] == 0
                && is_sorted_subset(set, sets.get(self.by_rank[r as usize] as usize))
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

    /// The pass over S1-shaped input: the family split across one arena
    /// per worker, merged, and compacted on as many workers.
    #[test]
    fn flat_family_compaction_matches_naive() {
        for sets in random_families() {
            let expected = filter_maximal_naive(&sets);
            for threads in [1, 2, 4] {
                let mut arenas = vec![SetArena::new(); threads];
                for (i, set) in sets.iter().enumerate() {
                    arenas[i % threads].push_set(set);
                }
                let out = CanonicalFamily::from_arenas(arenas).compact(threads, None);
                assert_eq!(out.mqcs, expected, "{threads} workers on {sets:?}");
                assert!(!out.timed_out);
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
