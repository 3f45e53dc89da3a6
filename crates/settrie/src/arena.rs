//! Flat arena for streaming families of vertex sets.
//!
//! The S1 searchers emit one candidate quasi-clique per surviving branch.
//! Boxing each set as its own `Vec<u32>` costs an allocation per output and
//! scatters the family across the heap; [`SetArena`] instead packs every set
//! into one contiguous `u32` pool addressed by `(start, len)` spans, and
//! per-set boxing is deferred until the family is materialised at the end of
//! a run.

/// A growable pool of `u32` sets stored back-to-back, each addressed by a
/// `(start, len)` span. Appending a set allocates only when the pool itself
/// grows, so steady-state emission is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct SetArena {
    pool: Vec<u32>,
    spans: Vec<(usize, usize)>,
    /// Start of the currently open (uncommitted) set, if any.
    open: Option<usize>,
}

impl SetArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed sets.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no committed sets.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total number of pooled elements across all committed sets.
    pub fn pooled_len(&self) -> usize {
        self.open.unwrap_or(self.pool.len())
    }

    /// Removes every set, keeping the pool capacity for reuse.
    pub fn clear(&mut self) {
        self.pool.clear();
        self.spans.clear();
        self.open = None;
    }

    /// The `i`-th committed set, in insertion order.
    pub fn get(&self, i: usize) -> &[u32] {
        let (start, len) = self.spans[i];
        &self.pool[start..start + len]
    }

    /// Iterates the committed sets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.spans
            .iter()
            .map(move |&(start, len)| &self.pool[start..start + len])
    }

    /// Opens a new set at the pool tail. Elements are added with
    /// [`Self::push_elem`] and the set is finished with
    /// [`Self::commit_sorted`]. Re-opening discards an unfinished set.
    pub fn begin(&mut self) {
        if let Some(start) = self.open {
            self.pool.truncate(start);
        }
        self.open = Some(self.pool.len());
    }

    /// Appends one element to the currently open set.
    pub fn push_elem(&mut self, e: u32) {
        debug_assert!(self.open.is_some(), "push_elem without begin");
        self.pool.push(e);
    }

    /// Sorts the open set in place, commits it, and returns the finished
    /// slice.
    pub fn commit_sorted(&mut self) -> &[u32] {
        let start = self.open.take().expect("commit_sorted without begin");
        let tail = &mut self.pool[start..];
        tail.sort_unstable();
        self.spans.push((start, tail.len()));
        &self.pool[start..]
    }

    /// Copies `set` into the arena as one committed set, sorting the copy.
    pub fn push_set(&mut self, set: &[u32]) {
        self.begin();
        self.pool.extend_from_slice(set);
        self.commit_sorted();
    }

    /// Materialises every committed set as its own `Vec`, in insertion
    /// order (one allocation per set, paid once at the end of a run).
    pub fn to_vecs(&self) -> Vec<Vec<u32>> {
        self.iter().map(|s| s.to_vec()).collect()
    }

    /// Consuming variant of [`Self::to_vecs`].
    pub fn into_vecs(self) -> Vec<Vec<u32>> {
        self.to_vecs()
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
