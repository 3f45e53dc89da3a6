//! The flat set family: every set of a family in one element pool.
//!
//! The S1 searchers emit one candidate quasi-clique per surviving branch,
//! hundreds of thousands per run. Boxing each set as its own `Vec<u32>`
//! costs an allocation per output and scatters the family across the heap;
//! [`SetArena`] instead packs every set into one contiguous `u32` pool
//! addressed by an offsets array. S1 workers fill one arena each and hand it
//! to S2 as it is ([`CanonicalFamily::from_arenas`](crate::CanonicalFamily::from_arenas)),
//! so the family stays flat from the search to the maximality pass.

/// A growable pool of `u32` sets stored back-to-back: set `i` is
/// `pool[offsets[i]..offsets[i + 1]]`. Appending a set allocates only when
/// the pool itself grows, so steady-state emission is allocation-free.
#[derive(Clone, Debug)]
pub struct SetArena {
    pool: Vec<u32>,
    /// One more entry than there are committed sets, starting at 0.
    /// Elements past the last offset belong to the open (uncommitted) set.
    offsets: Vec<usize>,
    /// Whether a set is open: [`Self::begin`] was called and the set is
    /// not yet committed.
    open: bool,
}

impl Default for SetArena {
    fn default() -> Self {
        SetArena {
            pool: Vec::new(),
            offsets: vec![0],
            open: false,
        }
    }
}

impl SetArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `sets` sets of `elems` elements in all.
    pub(crate) fn with_capacity(sets: usize, elems: usize) -> Self {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        SetArena {
            pool: Vec::with_capacity(elems),
            offsets,
            open: false,
        }
    }

    /// Number of committed sets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no committed sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of pooled elements across all committed sets.
    pub fn pooled_len(&self) -> usize {
        self.committed()
    }

    fn committed(&self) -> usize {
        *self.offsets.last().expect("offsets start with 0")
    }

    /// Removes every set, keeping the pool capacity for reuse.
    pub fn clear(&mut self) {
        self.pool.clear();
        self.offsets.truncate(1);
        self.open = false;
    }

    /// The `i`-th committed set, in insertion order.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.pool[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the committed sets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(move |w| &self.pool[w[0]..w[1]])
    }

    /// Opens a new set at the pool tail. Elements are added with
    /// [`Self::push_elem`] and the set is finished with
    /// [`Self::commit_sorted`]. Re-opening discards an unfinished set.
    pub fn begin(&mut self) {
        self.pool.truncate(self.committed());
        self.open = true;
    }

    /// Appends one element to the currently open set.
    pub fn push_elem(&mut self, e: u32) {
        debug_assert!(self.open, "push_elem without begin");
        self.pool.push(e);
    }

    /// Sorts the open set in place, commits it, and returns the finished
    /// slice.
    pub fn commit_sorted(&mut self) -> &[u32] {
        assert!(self.open, "commit_sorted without begin");
        self.open = false;
        let start = self.committed();
        self.pool[start..].sort_unstable();
        self.offsets.push(self.pool.len());
        &self.pool[start..]
    }

    /// Copies `set` into the arena as one committed set, sorting the copy.
    pub fn push_set(&mut self, set: &[u32]) {
        self.begin();
        self.pool.extend_from_slice(set);
        self.commit_sorted();
    }

    /// Appends `set` as it is (the caller keeps the family's order).
    pub(crate) fn push_sorted(&mut self, set: &[u32]) {
        debug_assert!(!self.open, "push_sorted with a set open");
        self.pool.extend_from_slice(set);
        self.offsets.push(self.pool.len());
    }

    /// Materialises every committed set as its own `Vec`, in insertion
    /// order (one allocation per set).
    pub fn to_vecs(&self) -> Vec<Vec<u32>> {
        self.iter().map(<[u32]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut a = SetArena::new();
        a.push_set(&[3, 1, 2]);
        a.push_set(&[]);
        a.push_set(&[9, 9, 7]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), &[1, 2, 3]);
        assert_eq!(a.get(1), &[] as &[u32]);
        assert_eq!(a.get(2), &[7, 9, 9]);
        assert_eq!(a.to_vecs(), vec![vec![1, 2, 3], vec![], vec![7, 9, 9]]);
    }

    #[test]
    fn begin_push_commit_matches_push_set() {
        let mut a = SetArena::new();
        a.begin();
        for e in [5u32, 4, 6] {
            a.push_elem(e);
        }
        assert_eq!(a.commit_sorted(), &[4, 5, 6]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn reopen_discards_unfinished_set() {
        let mut a = SetArena::new();
        a.begin();
        a.push_elem(1);
        a.push_elem(2);
        a.begin(); // abandon the open set
        a.push_elem(7);
        a.commit_sorted();
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(0), &[7]);
        assert_eq!(a.pooled_len(), 1);
    }

    #[test]
    #[should_panic(expected = "commit_sorted without begin")]
    fn commit_without_begin_panics() {
        let mut a = SetArena::new();
        a.push_set(&[1]);
        a.commit_sorted();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "push_elem without begin")]
    fn push_elem_without_begin_panics_in_debug_builds() {
        let mut a = SetArena::new();
        a.push_elem(1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = SetArena::new();
        for i in 0..100u32 {
            a.push_set(&[i, i + 1, i + 2]);
        }
        let cap = {
            a.clear();
            assert!(a.is_empty());
            a.pool.capacity()
        };
        assert!(cap >= 300);
        a.push_set(&[1]);
        assert_eq!(a.get(0), &[1]);
    }
}
