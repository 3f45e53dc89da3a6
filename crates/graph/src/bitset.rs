//! Word-parallel adjacency kernel for dense subproblems.
//!
//! The branch-and-bound searchers spend a large share of their time on
//! adjacency tests and subset-degree counts inside divide-and-conquer
//! subgraphs, which are small (bounded by `O(ω·d)` vertices) and relabelled
//! to dense ids `0..n`. On that shape a BBMC-style bitset encoding wins big:
//!
//! * [`AdjacencyMatrix`] — one packed `u64` row per vertex: `O(1)` edge
//!   tests, popcount-based `δ(v, H)` in `n/64` word operations, and
//!   mask-parallel connectivity BFS.
//! * [`BitSet`] — a fixed-capacity vertex-set mask supporting the AND /
//!   ANDNOT candidate-set algebra the kernel operates on.
//!
//! The matrix costs `n²/8` bytes, so it is only built below an adaptive
//! size/density threshold (see [`AdjacencyMatrix::adaptive_for`]); all
//! callers keep a sorted-slice fallback for graphs above it.

use crate::graph::{Graph, VertexId};

const WORD_BITS: usize = 64;

/// A fixed-capacity set of vertices packed into `u64` words.
///
/// Capacity is fixed at construction; all binary operations require equal
/// capacities (they panic otherwise, which always indicates mixing masks
/// from different (sub)graphs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set with capacity for vertices `0..n`.
    pub fn new(n: usize) -> Self {
        BitSet {
            nbits: n,
            words: vec![0u64; n.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a set containing every vertex in `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = BitSet {
            nbits: n,
            words: vec![!0u64; n.div_ceil(WORD_BITS)],
        };
        s.trim_tail();
        s
    }

    /// Creates a set over `0..n` containing exactly `members`.
    pub fn from_members(n: usize, members: &[VertexId]) -> Self {
        let mut s = BitSet::new(n);
        for &v in members {
            s.insert(v);
        }
        s
    }

    /// Zeroes the bits above `nbits` so popcounts stay exact.
    fn trim_tail(&mut self) {
        let tail = self.nbits % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Capacity (the `n` the set was created with).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Adds `v` to the set.
    #[inline]
    pub fn insert(&mut self, v: VertexId) {
        self.words[v as usize / WORD_BITS] |= 1u64 << (v as usize % WORD_BITS);
    }

    /// Removes `v` from the set.
    #[inline]
    pub fn remove(&mut self, v: VertexId) {
        self.words[v as usize / WORD_BITS] &= !(1u64 << (v as usize % WORD_BITS));
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        (self.words[v as usize / WORD_BITS] >> (v as usize % WORD_BITS)) & 1 == 1
    }

    /// Number of members (popcount over all words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Re-dimensions the set for a universe of `0..n` and empties it,
    /// reusing the existing word buffer when it is large enough.
    ///
    /// This is the scratch-reuse counterpart of [`BitSet::new`]: searchers
    /// that process many subgraphs of different sizes call it once per
    /// subproblem instead of allocating a fresh mask.
    pub fn reset(&mut self, n: usize) {
        let words = n.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, 0u64);
        self.nbits = n;
    }

    /// Re-dimensions the set for a universe of `0..n` and fills it with
    /// every vertex, reusing the existing word buffer when possible
    /// (the scratch-reuse counterpart of [`BitSet::full`]).
    pub fn reset_full(&mut self, n: usize) {
        let words = n.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, !0u64);
        self.nbits = n;
        self.trim_tail();
    }

    /// The raw words of the mask (little-endian bit order within a word).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let base = (i * WORD_BITS) as u32;
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| base + w.trailing_zeros())
        })
    }

    /// Collects the members into a sorted vector.
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.iter().collect()
    }
}

/// A packed boolean adjacency matrix (symmetric, no self-loops) over dense
/// vertex ids `0..n`, one `u64`-block row per vertex.
#[derive(Clone, Debug)]
pub struct AdjacencyMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl AdjacencyMatrix {
    /// Builds the matrix from a graph. Memory is `n²/8` bytes, so this is
    /// intended for subgraphs of at most a few thousand vertices; see
    /// [`AdjacencyMatrix::recommended_for`] and
    /// [`AdjacencyMatrix::adaptive_for`].
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let words_per_row = n.div_ceil(WORD_BITS);
        let mut bits = vec![0u64; n * words_per_row];
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                let row = u as usize * words_per_row;
                bits[row + (v as usize) / WORD_BITS] |= 1u64 << ((v as usize) % WORD_BITS);
            }
        }
        AdjacencyMatrix {
            n,
            words_per_row,
            bits,
        }
    }

    /// Whether building a matrix for a graph of `n` vertices is a sensible
    /// trade-off memory-wise (≤ 2 MiB of bits).
    pub fn recommended_for(n: usize) -> bool {
        n > 0 && n * n <= 16 * 1024 * 1024
    }

    /// Adaptive build heuristic used by the search stack: build the matrix
    /// when it fits the [`recommended_for`](Self::recommended_for) memory cap
    /// *and* the graph is either small (the `O(n²/64)` row zeroing is
    /// trivial) or dense enough (average degree ≥ 4) for the word-parallel
    /// degree counts to amortise the build. Very sparse large subproblems
    /// prune to almost nothing, so the sorted-slice path stays faster there.
    pub fn adaptive_for(n: usize, num_edges: usize) -> bool {
        Self::recommended_for(n) && (n <= 512 || num_edges >= n * 2)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The packed adjacency row of `u` (`words_per_row` words).
    #[inline]
    pub fn row(&self, u: VertexId) -> &[u64] {
        let start = u as usize * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// O(1) adjacency test.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let row = u as usize * self.words_per_row;
        (self.bits[row + (v as usize) / WORD_BITS] >> ((v as usize) % WORD_BITS)) & 1 == 1
    }

    /// Number of neighbours of `u` among the vertex set `set`.
    pub fn degree_in(&self, u: VertexId, set: &[VertexId]) -> usize {
        set.iter()
            .filter(|&&v| v != u && self.has_edge(u, v))
            .count()
    }

    /// `δ(u, mask)` — popcount of `row(u) & mask`. Since the matrix has no
    /// self-loops, `u`'s own membership in `mask` never counts.
    ///
    /// The popcount loop is batched over 4-word chunks with independent
    /// accumulators: the chunks have no loop-carried dependency, which lets
    /// the compiler autovectorise the AND+popcount body (`vpand` +
    /// `vpopcntq`-class code on AVX-capable targets) instead of chaining
    /// scalar `popcnt` through one accumulator.
    #[inline]
    pub fn degree_in_mask(&self, u: VertexId, mask: &BitSet) -> usize {
        debug_assert_eq!(mask.capacity(), self.n);
        popcount_and2(self.row(u), mask.words())
    }

    /// Number of common neighbours of `u` and `v` within `mask`:
    /// `|Γ(u) ∩ Γ(v) ∩ mask|`. Batched like
    /// [`degree_in_mask`](Self::degree_in_mask).
    pub fn common_neighbors_in_mask(&self, u: VertexId, v: VertexId, mask: &BitSet) -> usize {
        debug_assert_eq!(mask.capacity(), self.n);
        popcount_and3(self.row(u), self.row(v), mask.words())
    }

    /// Whether the subgraph induced by `mask` is connected, starting the BFS
    /// at `start` (which must be in `mask`). `member_count` is `mask.len()`,
    /// passed in because every caller already knows it.
    ///
    /// Each BFS expansion is a word-parallel `row & mask & !visited`, so the
    /// whole check is `O(|mask| · n/64)` word operations.
    pub fn is_connected_within(&self, mask: &BitSet, start: VertexId, member_count: usize) -> bool {
        let mut visited = BitSet::new(self.n);
        let mut stack = Vec::new();
        self.is_connected_within_in(mask, start, member_count, &mut visited, &mut stack)
    }

    /// [`is_connected_within`](Self::is_connected_within) with caller-owned
    /// scratch: `visited` is re-dimensioned (not re-allocated once warm) and
    /// `stack` is cleared here, so predicate-heavy callers can run the BFS
    /// without touching the heap.
    pub fn is_connected_within_in(
        &self,
        mask: &BitSet,
        start: VertexId,
        member_count: usize,
        visited: &mut BitSet,
        stack: &mut Vec<VertexId>,
    ) -> bool {
        debug_assert!(mask.contains(start));
        if member_count <= 1 {
            return true;
        }
        visited.reset(self.n);
        visited.insert(start);
        stack.clear();
        stack.push(start);
        let mut reached = 1usize;
        while let Some(v) = stack.pop() {
            let row = self.row(v);
            for (i, &r) in row.iter().enumerate() {
                let fresh = r & mask.words[i] & !visited.words[i];
                if fresh == 0 {
                    continue;
                }
                visited.words[i] |= fresh;
                reached += fresh.count_ones() as usize;
                let base = (i * WORD_BITS) as u32;
                let mut w = fresh;
                while w != 0 {
                    stack.push(base + w.trailing_zeros());
                    w &= w - 1;
                }
            }
            if reached == member_count {
                return true;
            }
        }
        reached == member_count
    }
}

/// `popcount(a & b)` over equal-length word slices (`b` must be at least as
/// long as `a`), 4-word-chunked with independent accumulators
/// (autovectorisation-friendly form; the ROADMAP SIMD item, kept in stable
/// Rust rather than `std::simd`).
///
/// # Panics
/// Panics when `b` is shorter than `a` — callers always derive both slices
/// from the same graph, so a mismatch means a row and a mask from different
/// (sub)graphs were mixed.
#[inline]
pub fn popcount_and2(a: &[u64], b: &[u64]) -> usize {
    assert!(
        b.len() >= a.len(),
        "popcount_and2: slice length mismatch ({} vs {}); \
         the row and the mask must come from the same (sub)graph",
        a.len(),
        b.len()
    );
    let mut acc = [0u32; 4];
    let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
    let (b4, b_tail) = b.split_at(a4.len());
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += (ca[0] & cb[0]).count_ones();
        acc[1] += (ca[1] & cb[1]).count_ones();
        acc[2] += (ca[2] & cb[2]).count_ones();
        acc[3] += (ca[3] & cb[3]).count_ones();
    }
    let mut total = acc.iter().map(|&c| c as usize).sum::<usize>();
    for (x, y) in a_tail.iter().zip(b_tail) {
        total += (x & y).count_ones() as usize;
    }
    total
}

/// `popcount(a & b & c)` over equal-length word slices, 4-word-chunked like
/// [`popcount_and2`].
///
/// # Panics
/// Panics when `b` or `c` is shorter than `a` — a length mismatch means rows
/// and masks from different (sub)graphs were mixed.
#[inline]
pub fn popcount_and3(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    assert!(
        b.len() >= a.len() && c.len() >= a.len(),
        "popcount_and3: slice length mismatch ({} vs {} vs {}); \
         the rows and the mask must come from the same (sub)graph",
        a.len(),
        b.len(),
        c.len()
    );
    let mut acc = [0u32; 4];
    let split = a.len() - a.len() % 4;
    let (a4, a_tail) = a.split_at(split);
    let (b4, b_tail) = b.split_at(split);
    let (c4, c_tail) = c.split_at(split);
    for ((ca, cb), cc) in a4
        .chunks_exact(4)
        .zip(b4.chunks_exact(4))
        .zip(c4.chunks_exact(4))
    {
        acc[0] += (ca[0] & cb[0] & cc[0]).count_ones();
        acc[1] += (ca[1] & cb[1] & cc[1]).count_ones();
        acc[2] += (ca[2] & cb[2] & cc[2]).count_ones();
        acc[3] += (ca[3] & cb[3] & cc[3]).count_ones();
    }
    let mut total = acc.iter().map(|&c| c as usize).sum::<usize>();
    for ((x, y), z) in a_tail.iter().zip(b_tail).zip(c_tail) {
        total += (x & y & z).count_ones() as usize;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi_gnm;

    #[test]
    fn matches_graph_adjacency() {
        let g = erdos_renyi_gnm(60, 300, 5);
        let m = AdjacencyMatrix::from_graph(&g);
        assert_eq!(m.num_vertices(), 60);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(m.has_edge(u, v), g.has_edge(u, v), "mismatch at ({u},{v})");
            }
        }
    }

    #[test]
    fn degree_in_matches_graph() {
        let g = erdos_renyi_gnm(40, 200, 9);
        let m = AdjacencyMatrix::from_graph(&g);
        let set: Vec<u32> = (0..40).step_by(3).collect();
        let mask = BitSet::from_members(40, &set);
        for u in g.vertices() {
            assert_eq!(m.degree_in(u, &set), g.degree_in(u, &set));
            // The mask-based count agrees except it never counts u itself,
            // which g.degree_in also skips.
            assert_eq!(m.degree_in_mask(u, &mask), g.degree_in(u, &set));
        }
    }

    #[test]
    fn empty_and_single_vertex() {
        let m = AdjacencyMatrix::from_graph(&Graph::empty(1));
        assert!(!m.has_edge(0, 0));
        let m0 = AdjacencyMatrix::from_graph(&Graph::empty(0));
        assert_eq!(m0.num_vertices(), 0);
    }

    #[test]
    fn recommendation_threshold() {
        assert!(AdjacencyMatrix::recommended_for(100));
        assert!(AdjacencyMatrix::recommended_for(4000));
        assert!(!AdjacencyMatrix::recommended_for(100_000));
        assert!(!AdjacencyMatrix::recommended_for(0));
    }

    #[test]
    fn adaptive_threshold_gates_on_density() {
        // Small graphs are always built, regardless of density.
        assert!(AdjacencyMatrix::adaptive_for(100, 0));
        assert!(AdjacencyMatrix::adaptive_for(512, 1));
        // Larger graphs need average degree >= 4 (m >= 2n).
        assert!(!AdjacencyMatrix::adaptive_for(2000, 100));
        assert!(!AdjacencyMatrix::adaptive_for(2000, 1500)); // avg degree 1.5
        assert!(!AdjacencyMatrix::adaptive_for(2000, 3999));
        assert!(AdjacencyMatrix::adaptive_for(2000, 4000));
        // Memory cap always applies.
        assert!(!AdjacencyMatrix::adaptive_for(100_000, 10_000_000));
        assert!(!AdjacencyMatrix::adaptive_for(0, 0));
    }

    #[test]
    fn word_boundary_vertices() {
        // Vertices 63, 64, 65 cross the u64 word boundary.
        let g = Graph::from_edges(130, &[(63, 64), (64, 65), (0, 129)]);
        let m = AdjacencyMatrix::from_graph(&g);
        assert!(m.has_edge(63, 64));
        assert!(m.has_edge(64, 63));
        assert!(m.has_edge(64, 65));
        assert!(m.has_edge(129, 0));
        assert!(!m.has_edge(63, 65));
    }

    #[test]
    fn bitset_insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        for v in [0u32, 63, 64, 65, 129] {
            s.insert(v);
            assert!(s.contains(v));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 65, 129]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 4);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn bitset_full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.capacity(), 70);
        assert!(s.contains(69));
        let exact = BitSet::full(64);
        assert_eq!(exact.len(), 64);
        let empty = BitSet::full(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn bitset_iter_empty_words() {
        // Members only in the last word: iteration must skip empty words.
        let s = BitSet::from_members(200, &[190, 199]);
        assert_eq!(s.to_vec(), vec![190, 199]);
        assert_eq!(BitSet::new(200).to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn connectivity_within_mask() {
        // Path 0-1-2-3-4 plus isolated 5.
        let g = Graph::path(6);
        let m = AdjacencyMatrix::from_graph(&g);
        let all = BitSet::from_members(6, &[0, 1, 2, 3, 4]);
        assert!(m.is_connected_within(&all, 0, 5));
        // Removing the middle vertex disconnects the path.
        let split = BitSet::from_members(6, &[0, 1, 3, 4]);
        assert!(!m.is_connected_within(&split, 0, 4));
        // A singleton is connected.
        let single = BitSet::from_members(6, &[5]);
        assert!(m.is_connected_within(&single, 5, 1));
    }

    #[test]
    fn connectivity_matches_bfs_on_random_graphs() {
        use crate::connectivity::is_connected_subset_in;
        for seed in 0..6 {
            let g = erdos_renyi_gnm(50, 80, seed);
            let m = AdjacencyMatrix::from_graph(&g);
            let subset: Vec<u32> = (0..50u32)
                .filter(|v| !(v * 7 + seed as u32).is_multiple_of(3))
                .collect();
            let mask = BitSet::from_members(50, &subset);
            assert_eq!(
                m.is_connected_within(&mask, subset[0], subset.len()),
                is_connected_subset_in(
                    &g,
                    &subset,
                    &mut Vec::new(),
                    &mut Vec::new(),
                    &mut std::collections::VecDeque::new()
                ),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn chunked_popcounts_match_scalar_reference() {
        // Lengths around the 4-word chunk boundary, including the empty and
        // remainder-only cases, with irregular bit patterns.
        let mut x = 0x243F6A8885A308D3u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 0..=11usize {
            let a: Vec<u64> = (0..len).map(|_| next()).collect();
            let b: Vec<u64> = (0..len).map(|_| next()).collect();
            let c: Vec<u64> = (0..len).map(|_| next()).collect();
            let and2: usize = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum();
            let and3: usize = a
                .iter()
                .zip(&b)
                .zip(&c)
                .map(|((x, y), z)| (x & y & z).count_ones() as usize)
                .sum();
            assert_eq!(popcount_and2(&a, &b), and2, "and2 len={len}");
            assert_eq!(popcount_and3(&a, &b, &c), and3, "and3 len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "popcount_and2: slice length mismatch")]
    fn popcount_and2_rejects_short_mask() {
        popcount_and2(&[1, 2, 3], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "popcount_and3: slice length mismatch")]
    fn popcount_and3_rejects_short_mask() {
        popcount_and3(&[1, 2], &[1, 2], &[1]);
    }

    #[test]
    fn degree_in_mask_ignores_self_membership() {
        let g = Graph::complete(10);
        let m = AdjacencyMatrix::from_graph(&g);
        let mask = BitSet::from_members(10, &[0, 1, 2, 3]);
        // Vertex 0 is in the mask but has no self-loop: degree is 3, not 4.
        assert_eq!(m.degree_in_mask(0, &mask), 3);
        assert_eq!(m.degree_in_mask(9, &mask), 4);
    }
}
