//! Maximality filtering (MQCE-S2): remove sets contained in other sets.

/// Filters a collection of sets down to the ones that are not strict subsets
/// of any other set in the collection (duplicates are collapsed to one copy).
///
/// This solves MQCE-S2: if the input is the output of a correct MQCE-S1
/// algorithm (a superset of all maximal QCs in which every element is a QC),
/// the result is exactly the set of maximal QCs.
///
/// Sets are processed from largest to smallest, so a set can only be
/// dominated by an *already accepted* set. The superset query is answered
/// through an inverted index (element → accepted sets containing it) probed
/// at the query's least-frequent element; on the heavily overlapping set
/// families S1 emits for dense community graphs this is output-sensitive and
/// far faster than backtracking superset search in a set-trie (which
/// degenerates on wide tries with long shared paths).
pub fn filter_maximal(sets: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut normalised: Vec<Vec<u32>> = sets
        .iter()
        .map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    // Largest first so that any potential superset of a set is accepted
    // before the set itself is queried. Ties broken lexicographically to make
    // duplicate detection trivial.
    normalised.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    normalised.dedup();

    // Compress element values to dense ids so the inverted index stays
    // bounded by the input size even for sparse universes (element values
    // are arbitrary u32s at this API's level, not graph vertex ids).
    let mut distinct: Vec<u32> = normalised.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let compress = |x: u32| -> usize {
        distinct
            .binary_search(&x)
            .expect("element seen during compression")
    };

    // containing[compress(x)] = indices (into `accepted`) of accepted sets
    // containing x.
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); distinct.len()];
    let mut accepted: Vec<Vec<u32>> = Vec::new();
    for set in normalised {
        if set.is_empty() {
            // The empty set is a strict subset of any other set; it survives
            // only when it is the sole input.
            if accepted.is_empty() {
                accepted.push(set);
            }
            continue;
        }
        // Probe the accepted-set lists of the query's least-frequent element:
        // every superset of `set` must appear in each element's list.
        let compressed: Vec<usize> = set.iter().map(|&x| compress(x)).collect();
        let probe = compressed
            .iter()
            .copied()
            .min_by_key(|&c| containing[c].len())
            .expect("set is non-empty");
        let dominated = containing[probe]
            .iter()
            .any(|&i| is_sorted_subset(&set, &accepted[i as usize]));
        if !dominated {
            let id = accepted.len() as u32;
            for &c in &compressed {
                containing[c].push(id);
            }
            accepted.push(set);
        }
    }
    accepted.sort();
    accepted
}

/// `a ⊆ b` for sorted, deduplicated slices.
pub fn is_sorted_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Quadratic reference implementation of [`filter_maximal`], used by tests and
/// kept public so downstream tests can cross-check the trie-based filter.
pub fn filter_maximal_naive(sets: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let normalised: Vec<Vec<u32>> = sets
        .iter()
        .map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut result: Vec<Vec<u32>> = Vec::new();
    for (i, s) in normalised.iter().enumerate() {
        let dominated = normalised.iter().enumerate().any(|(j, t)| {
            if i == j {
                return false;
            }
            if s == t {
                // Keep only the first copy of duplicates.
                return j < i;
            }
            is_sorted_subset(s, t)
        });
        if !dominated {
            result.push(s.clone());
        }
    }
    result.sort();
    result.dedup();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_subsets() {
        let sets = vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![4, 5], vec![5]];
        let out = filter_maximal(&sets);
        assert_eq!(out, vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn keeps_incomparable_sets() {
        let sets = vec![vec![1, 2], vec![2, 3], vec![1, 3]];
        let out = filter_maximal(&sets);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn collapses_duplicates() {
        let sets = vec![vec![3, 1], vec![1, 3], vec![1, 3, 3]];
        let out = filter_maximal(&sets);
        assert_eq!(out, vec![vec![1, 3]]);
    }

    #[test]
    fn empty_input() {
        assert!(filter_maximal(&[]).is_empty());
    }

    #[test]
    fn empty_set_is_dominated_by_anything() {
        let sets = vec![vec![], vec![7]];
        assert_eq!(filter_maximal(&sets), vec![vec![7]]);
        let only_empty = vec![vec![]];
        assert_eq!(filter_maximal(&only_empty), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn sparse_universe_does_not_allocate_by_element_value() {
        // Element values are arbitrary u32s; memory must scale with the
        // input, not with the largest value.
        let sets = vec![vec![0], vec![4_000_000_000], vec![0, 4_000_000_000]];
        assert_eq!(filter_maximal(&sets), vec![vec![0, 4_000_000_000]]);
        assert_eq!(filter_maximal(&[vec![u32::MAX]]), vec![vec![u32::MAX]]);
    }

    #[test]
    fn matches_naive_on_random_inputs() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Simple deterministic pseudo-random set families.
        let mut families = Vec::new();
        for family in 0..30u64 {
            let mut sets = Vec::new();
            for i in 0..25u64 {
                let mut h = DefaultHasher::new();
                (family, i).hash(&mut h);
                let mut x = h.finish();
                let len = (x % 6) as usize + 1;
                let mut s = Vec::new();
                for _ in 0..len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s.push((x >> 33) as u32 % 12);
                }
                sets.push(s);
            }
            families.push(sets);
        }
        for sets in families {
            assert_eq!(filter_maximal(&sets), filter_maximal_naive(&sets));
        }
    }
}
