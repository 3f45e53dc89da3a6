//! The canonical family: a flat family sorted and deduplicated.
//!
//! S1's workers each fill one [`SetArena`]. [`CanonicalFamily::from_arenas`]
//! sorts each arena's set order on a scoped worker of its own and merges
//! the sorted runs, dropping duplicates within and across arenas, into one
//! flat family in lexicographic order: the form the maximality pass
//! ([`CanonicalFamily::compact`]) probes in place.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::time::{Duration, Instant};

use crate::arena::SetArena;
use crate::parallel::on_workers;

/// A flat family in canonical form: every set strictly increasing, the sets
/// strictly increasing lexicographically (so no set appears twice). The
/// constructors sort and deduplicate, so the form holds by construction.
#[derive(Clone, Debug, Default)]
pub struct CanonicalFamily {
    sets: SetArena,
    /// The largest element of any set (`None` when every set is empty).
    max: Option<u32>,
    /// How long sorting and merging took.
    merge_time: Duration,
}

impl CanonicalFamily {
    /// Sorts and deduplicates the sets of `arenas` into one family. Each
    /// arena's set order is sorted on a scoped worker of its own (the
    /// calling thread takes the first), then one k-way merge of the sorted
    /// runs drops duplicates, also those split between arenas. Sets that
    /// are not strictly increasing are sorted and deduplicated first (S1's
    /// sets always are). The time taken is kept as the pass's merge step.
    pub fn from_arenas(mut arenas: Vec<SetArena>) -> Self {
        let start = Instant::now();
        let orders = on_workers(arenas.iter_mut(), sorted_order);
        let runs: Vec<(&SetArena, &[u32])> = arenas
            .iter()
            .zip(orders.iter().map(Vec::as_slice))
            .collect();
        let (sets, max) = merge_runs(&runs);
        CanonicalFamily {
            sets,
            max,
            merge_time: start.elapsed(),
        }
    }

    /// Canonical form of arbitrary sets: each set sorted and deduplicated,
    /// the family sorted without duplicate sets.
    pub fn from_sets(sets: &[Vec<u32>]) -> Self {
        let mut arena = SetArena::new();
        for set in sets {
            arena.push_set(set);
        }
        Self::from_arenas(vec![arena])
    }

    /// Number of (distinct) sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the family holds no set.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    pub(crate) fn arena(&self) -> &SetArena {
        &self.sets
    }

    pub(crate) fn max(&self) -> Option<u32> {
        self.max
    }

    pub(crate) fn merge_time(&self) -> Duration {
        self.merge_time
    }
}

/// Merges sorted runs (an arena and its set positions in lexicographic
/// order) into one flat family without duplicates, with its largest element.
fn merge_runs(runs: &[(&SetArena, &[u32])]) -> (SetArena, Option<u32>) {
    let sets = runs.iter().map(|(arena, _)| arena.len()).sum();
    let elems = runs.iter().map(|(arena, _)| arena.pooled_len()).sum();
    let mut merged = SetArena::with_capacity(sets, elems);
    let mut max = None;
    // Each heap entry is the next set of one run, with the run and the
    // set's position in that run.
    let mut heads: BinaryHeap<Reverse<(&[u32], usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, (_, order))| !order.is_empty())
        .map(|(k, (arena, order))| Reverse((arena.get(order[0] as usize), k, 0)))
        .collect();
    let mut last: Option<&[u32]> = None;
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((set, k, at)) = *head;
        if last != Some(set) {
            merged.push_sorted(set);
            max = max.max(set.last().copied());
            last = Some(set);
        }
        let (arena, order) = runs[k];
        match order.get(at + 1) {
            Some(&next) => *head = Reverse((arena.get(next as usize), k, at + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    (merged, max)
}

fn strictly_increasing(set: &[u32]) -> bool {
    set.windows(2).all(|w| w[0] < w[1])
}

/// The positions of `arena`'s sets in lexicographic order, after replacing
/// the arena by its normalised copy if some set is not strictly increasing.
fn sorted_order(arena: &mut SetArena) -> Vec<u32> {
    if !arena.iter().all(strictly_increasing) {
        let mut normalised = SetArena::with_capacity(arena.len(), arena.pooled_len());
        let mut buf = Vec::new();
        for set in arena.iter() {
            buf.clear();
            buf.extend_from_slice(set);
            buf.sort_unstable();
            buf.dedup();
            normalised.push_sorted(&buf);
        }
        *arena = normalised;
    }
    let len = u32::try_from(arena.len()).expect("an arena holds fewer than 2^32 sets");
    let mut keyed: Vec<(u128, u32)> = (0..len).map(|i| (0, i)).collect();
    sort_from(arena, &mut keyed, 0);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Sorts `keyed` (positions in `arena` of sets whose first `depth` elements
/// are equal) lexicographically, three elements at a time: by a key of the
/// elements from `depth` on, then each run of equal keys over the elements
/// after those. Most comparisons are settled by keys held next to the
/// positions, and each set is read once per level instead of once per
/// comparison.
fn sort_from(arena: &SetArena, keyed: &mut [(u128, u32)], depth: usize) {
    for (key, i) in keyed.iter_mut() {
        *key = prefix_key(&arena.get(*i as usize)[depth..]);
    }
    keyed.sort_unstable_by_key(|&(key, _)| key);
    for run in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
        // Equal keys with an absent third element are equal sets.
        if run.len() > 1 && run[0].0 & SLOT != 0 {
            sort_from(arena, run, depth + 3);
        }
    }
}

/// The lowest of the three 33-bit digits of a [`prefix_key`].
const SLOT: u128 = (1 << 33) - 1;

/// The first three elements of `set` as three 33-bit digits, `e + 1` for a
/// present element and 0 for an absent one, so that keys order like the
/// sets' lexicographic order and equal keys mean equal first three
/// elements.
fn prefix_key(set: &[u32]) -> u128 {
    (0..3).fold(0, |key, j| {
        key << 33 | set.get(j).map_or(0, |&e| u128::from(e) + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(sets: &[&[u32]]) -> SetArena {
        let mut arena = SetArena::new();
        for set in sets {
            arena.push_set(set);
        }
        arena
    }

    fn family(arenas: Vec<SetArena>) -> Vec<Vec<u32>> {
        CanonicalFamily::from_arenas(arenas).arena().to_vecs()
    }

    /// The k-way merge drops duplicates within one arena and duplicates
    /// split between arenas, keeps one empty set, and skips empty arenas.
    #[test]
    fn merge_dedups_across_arenas() {
        let merged = family(vec![
            arena(&[&[3, 4], &[1, 2], &[], &[1, 2]]),
            SetArena::new(),
            arena(&[&[1, 2], &[2], &[], &[1, 2, 3]]),
            arena(&[&[3, 4]]),
            SetArena::new(),
        ]);
        assert_eq!(
            merged,
            vec![vec![], vec![1, 2], vec![1, 2, 3], vec![2], vec![3, 4]]
        );
        assert!(family(Vec::new()).is_empty());
        assert!(family(vec![SetArena::new(), SetArena::new()]).is_empty());
        assert_eq!(
            family(vec![arena(&[&[]]), arena(&[&[]])]),
            vec![Vec::<u32>::new()]
        );
    }

    #[test]
    fn merge_matches_sort_and_dedup_and_records_the_largest_element() {
        let sets: Vec<Vec<u32>> = crate::engine::tests::random_families().concat();
        let mut expected: Vec<Vec<u32>> = sets
            .iter()
            .map(|set| {
                let mut set = set.clone();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        expected.sort_unstable();
        expected.dedup();
        // Unsorted sets with repeated elements, spread over three arenas.
        let mut arenas = vec![SetArena::new(), SetArena::new(), SetArena::new()];
        for (i, set) in sets.iter().enumerate() {
            arenas[i % 3].push_set(set);
        }
        let merged = CanonicalFamily::from_arenas(arenas);
        assert_eq!(merged.arena().to_vecs(), expected);
        assert_eq!(merged.max(), expected.iter().flatten().max().copied());
        assert_eq!(
            CanonicalFamily::from_sets(&sets).arena().to_vecs(),
            expected
        );
        // Every arena holding the whole family twice: each set has copies
        // in every arena.
        let arenas = (0..4)
            .map(|_| {
                let mut arena = SetArena::new();
                for set in sets.iter().chain(&sets) {
                    arena.push_set(set);
                }
                arena
            })
            .collect();
        assert_eq!(
            CanonicalFamily::from_arenas(arenas).arena().to_vecs(),
            expected
        );
    }
}
