//! The MQCE-S2 maximality-engine subsystem.
//!
//! PR 2's bitset kernel made MQCE-S1 fast enough that the batch-at-the-end
//! maximality filter became the bottleneck on dense workloads: with ~400k
//! heavily-overlapping quasi-cliques from an INF'd S1 run, the inverted-index
//! probe of [`filter_maximal`](crate::filter_maximal) degrades superlinearly
//! (its probe lists grow with the accepted-set count). This module replaces
//! the single batch filter with a [`MaximalityEngine`] abstraction that
//!
//! * **streams**: sets are fed in as the branch-and-bound search produces
//!   them, so duplicates and dominated sets are dropped on arrival and the
//!   filtering cost is amortised across the whole run;
//! * **parallelises**: per-thread engines are drained into one family that
//!   [`compact_parallel`](crate::compact_parallel) compacts on all workers
//!   over a frozen index;
//! * **is deadline-aware**: the final compaction honours a wall-clock budget
//!   and returns a *sound* partial result (an antichain — every returned set
//!   is maximal w.r.t. the returned collection) instead of blowing through a
//!   time limit;
//! * **has three interchangeable backends** plus an adaptive dispatcher:
//!
//! | backend | probe structure | wins when |
//! |---|---|---|
//! | [`S2Backend::Inverted`] | element → accepted-set id lists, probe the least-frequent element | small or mildly overlapping families |
//! | [`S2Backend::Bitset`] | element → packed `u64` bitmap over accepted-set slots, word-AND intersection | small universe, heavy overlap (the INF'd-S1 wall shape) |
//! | [`S2Backend::Extremal`] | full Bayardo–Panda: frequency-ordered column reindexing, lexicographically sorted family, prefix-sharing subsumption pass | wide — sparse universes *and* heavily shared prefixes |
//! | [`S2Backend::Auto`] | buffers a prefix, then commits to the backend the measured [`S2CostModel`] predicts fastest | the default |
//!
//! All backends produce exactly the result of
//! [`filter_maximal_naive`](crate::filter_maximal_naive): given a processed
//! prefix of the stream, a set survives iff no strict superset of it was
//! streamed (duplicates collapse to one copy). Domination is
//! order-independent, so the engines can only differ in *time*, never in the
//! final family.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use crate::cost_model::{S2CostModel, S2Decision};
use crate::filter::is_sorted_subset;

/// How often (in processed sets) the compaction loops poll the deadline.
const DEADLINE_STRIDE: usize = 128;

/// How many sets the [`AutoEngine`] buffers before committing to a backend.
const AUTO_COMMIT_AT: usize = 4096;

/// The result of finishing a [`MaximalityEngine`].
#[derive(Clone, Debug, Default)]
pub struct S2Outcome {
    /// The maximal sets, sorted lexicographically. When `timed_out` is set
    /// this is a *partial but sound* result: the sets are still pairwise
    /// incomparable (each one is maximal within the returned collection),
    /// but sets whose compaction never ran are missing.
    pub mqcs: Vec<Vec<u32>>,
    /// Whether the compaction stopped early because the deadline passed.
    pub timed_out: bool,
    /// The backend that performed the compaction (`auto` resolves to the
    /// backend it committed to).
    pub backend: &'static str,
    /// The dispatch decision of the auto engine (observed stream shape plus
    /// per-backend cost predictions); `None` when a concrete backend was
    /// requested directly.
    pub decision: Option<S2Decision>,
}

/// A streaming maximality filter (MQCE-S2).
///
/// Feed sets in any order with [`add`](Self::add); call
/// [`finish`](Self::finish) (or the deadline-aware variant) to obtain exactly
/// the maximal sets of everything streamed so far. Engines use *lazy
/// subset elimination*: `add` drops a set that is dominated by (or equal to) a
/// set already retained, but a retained set that is dominated by a *later*
/// arrival is only removed during the final compaction. This keeps `add`
/// cheap — one superset probe — while `finish` restores the exact semantics
/// of [`filter_maximal`](crate::filter_maximal).
pub trait MaximalityEngine: Send {
    /// The backend name (`inverted`, `bitset`, `extremal`, or `auto`).
    fn name(&self) -> &'static str;

    /// Streams one set into the engine. Returns `true` when the set was
    /// retained, `false` when it was recognised on arrival as a duplicate of
    /// — or dominated by — an already retained set.
    fn add(&mut self, set: &[u32]) -> bool;

    /// Number of currently retained candidate sets. This is an upper bound
    /// on the final result size (later arrivals may still dominate earlier
    /// retained sets).
    fn live_len(&self) -> usize;

    /// Removes and returns every retained set, leaving the engine empty.
    /// Used to merge per-thread engines: the drained families are
    /// concatenated and handed to [`compact_parallel`](crate::compact_parallel)
    /// (or `add`ed into another engine).
    fn drain(&mut self) -> Vec<Vec<u32>>;

    /// Compacts the retained sets to exactly the maximal ones (sorted
    /// lexicographically), consuming the engine.
    fn finish(self: Box<Self>) -> S2Outcome {
        self.finish_with_deadline(None)
    }

    /// Deadline-aware [`finish`](Self::finish): the compaction polls the
    /// deadline every few hundred sets and stops early once it has passed.
    /// The partial result is sound — see [`S2Outcome::mqcs`].
    fn finish_with_deadline(self: Box<Self>, deadline: Option<Instant>) -> S2Outcome;
}

/// Which S2 backend to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum S2Backend {
    /// Buffer a prefix of the stream, then commit to the backend the
    /// measured cost model ([`S2CostModel`]) predicts fastest for the
    /// observed set count, universe size and mean overlap.
    #[default]
    Auto,
    /// The inverted-index filter behind
    /// [`filter_maximal`](crate::filter_maximal), made incremental.
    Inverted,
    /// Packed per-element bitmaps over accepted-set slots; superset queries
    /// are word-parallel bitmap intersections.
    Bitset,
    /// Full Bayardo–Panda extremal-sets filtering: elements reindexed by
    /// ascending global frequency, sets sorted lexicographically under that
    /// order, and a prefix-sharing subsumption pass in which sets sharing a
    /// prefix reuse each other's superset-probe intersections.
    Extremal,
}

impl S2Backend {
    /// Human-readable backend name (`auto` / `inverted` / `bitset` /
    /// `extremal`).
    pub fn name(&self) -> &'static str {
        match self {
            S2Backend::Auto => "auto",
            S2Backend::Inverted => "inverted",
            S2Backend::Bitset => "bitset",
            S2Backend::Extremal => "extremal",
        }
    }

    /// Creates a fresh engine of this backend; the auto dispatcher consults
    /// the checked-in cost model.
    pub fn new_engine(&self) -> Box<dyn MaximalityEngine> {
        self.new_engine_with_model(S2CostModel::checked_in())
    }

    /// Creates a fresh engine of this backend with an explicit cost model
    /// for the auto dispatcher (concrete backends ignore it).
    pub fn new_engine_with_model(&self, model: S2CostModel) -> Box<dyn MaximalityEngine> {
        match self {
            S2Backend::Auto => Box::new(AutoEngine::new(model)),
            S2Backend::Inverted => Box::new(StreamingEngine::<InvertedProbe>::new()),
            S2Backend::Bitset => Box::new(StreamingEngine::<BitmapProbe>::new()),
            S2Backend::Extremal => Box::new(ExtremalEngine::new()),
        }
    }

    /// All concrete (non-auto) backends, for differential tests and benches.
    pub fn concrete() -> [S2Backend; 3] {
        [S2Backend::Inverted, S2Backend::Bitset, S2Backend::Extremal]
    }
}

/// Runs `sets` through the chosen backend in one batch: the engine equivalent
/// of [`filter_maximal`](crate::filter_maximal).
pub fn filter_maximal_with(sets: &[Vec<u32>], backend: S2Backend) -> Vec<Vec<u32>> {
    let mut engine = backend.new_engine();
    for set in sets {
        engine.add(set);
    }
    engine.finish().mqcs
}

/// Picks the backend [`S2Backend::Auto`] commits to, given the observed
/// stream statistics: retained-set count, distinct-element count (universe)
/// and the total number of element occurrences across the retained sets.
///
/// Since the measured-cost-model rework this is a thin wrapper over the
/// checked-in [`S2CostModel`]: the backend with the lowest predicted
/// compaction cost wins, with an inverted-index fallback for families too
/// small for the fitted surfaces (see
/// [`MODEL_MIN_SETS`](crate::cost_model::MODEL_MIN_SETS)).
pub fn choose_backend(set_count: usize, universe: usize, total_elements: usize) -> S2Backend {
    S2CostModel::checked_in()
        .decide(set_count, universe, total_elements)
        .chosen
}

/// Whether a set is already in canonical form (strictly increasing). The
/// pipeline's S1 outputs always are, so the hot `add` path can hash and
/// probe the borrowed slice directly and only copy on retention.
fn is_canonical(set: &[u32]) -> bool {
    set.windows(2).all(|w| w[0] < w[1])
}

/// The canonical (sorted, deduplicated) form of a set, borrowing when the
/// input already is canonical.
fn canonical(set: &[u32]) -> std::borrow::Cow<'_, [u32]> {
    if is_canonical(set) {
        std::borrow::Cow::Borrowed(set)
    } else {
        let mut v = set.to_vec();
        v.sort_unstable();
        v.dedup();
        std::borrow::Cow::Owned(v)
    }
}

fn set_hash(set: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// Hash-keyed exact-duplicate table shared by the engines' `add` paths:
/// `hash(set) → slots in the backing store with that hash`.
#[derive(Default)]
struct DedupIndex {
    hashes: HashMap<u64, Vec<u32>>,
}

impl DedupIndex {
    /// Canonicalises `set` and probes the table for an exact duplicate among
    /// `store`. Returns `None` for a duplicate, or the canonical form plus
    /// its hash for a new set (the caller decides whether to
    /// [`register`](Self::register) it — the streaming engines may still
    /// drop the set to a domination probe first).
    fn admit<'a>(
        &self,
        set: &'a [u32],
        store: &[Vec<u32>],
    ) -> Option<(std::borrow::Cow<'a, [u32]>, u64)> {
        let set = canonical(set);
        let hash = set_hash(&set);
        if let Some(slots) = self.hashes.get(&hash) {
            if slots.iter().any(|&s| store[s as usize] == *set) {
                return None;
            }
        }
        Some((set, hash))
    }

    /// Records that `store[slot]` holds a set hashing to `hash`.
    fn register(&mut self, hash: u64, slot: usize) {
        self.hashes.entry(hash).or_default().push(slot as u32);
    }

    fn clear(&mut self) {
        self.hashes.clear();
    }
}

// ---------------------------------------------------------------------------
// Probe indices: the pluggable superset-query structure shared by the
// streaming phase and the descending-cardinality compaction.
// ---------------------------------------------------------------------------

/// A growable index over accepted sets answering "is some accepted set a
/// (non-strict) superset of the query?". Elements are arbitrary `u32`s;
/// implementations compress them to dense ids internally.
trait ProbeIndex: Default + Send {
    /// The public backend name of the engine built on this probe.
    const NAME: &'static str;

    /// Whether any indexed set contains every element of `set` (`set` itself
    /// is never indexed at query time). `accepted` is the backing storage the
    /// index's ids point into. Takes `&mut self` so implementations can keep
    /// reusable scratch buffers instead of allocating per probe.
    fn dominated(&mut self, set: &[u32], accepted: &[Vec<u32>]) -> bool;

    /// Indexes `accepted[slot]` (which must equal `set`).
    fn insert(&mut self, set: &[u32], slot: usize);
}

/// Element → list of accepted-set ids, probed at the query's least-frequent
/// element. The incremental twin of [`filter_maximal`](crate::filter_maximal).
#[derive(Default)]
struct InvertedProbe {
    /// Element value → dense element id.
    elem_ids: HashMap<u32, usize>,
    /// `containing[elem_id]` = accepted-set slots containing the element.
    containing: Vec<Vec<u32>>,
}

impl ProbeIndex for InvertedProbe {
    const NAME: &'static str = "inverted";

    fn dominated(&mut self, set: &[u32], accepted: &[Vec<u32>]) -> bool {
        let mut probe: Option<&Vec<u32>> = None;
        for e in set {
            let Some(&id) = self.elem_ids.get(e) else {
                // An element no accepted set contains: nothing can dominate.
                return false;
            };
            let list = &self.containing[id];
            if probe.is_none_or(|p| list.len() < p.len()) {
                probe = Some(list);
            }
        }
        let Some(probe) = probe else {
            // Empty query set: dominated by any accepted set.
            return !accepted.is_empty();
        };
        probe
            .iter()
            .any(|&i| is_sorted_subset(set, &accepted[i as usize]))
    }

    fn insert(&mut self, set: &[u32], slot: usize) {
        for &e in set {
            let next = self.containing.len();
            let id = *self.elem_ids.entry(e).or_insert(next);
            if id == next {
                self.containing.push(Vec::new());
            }
            self.containing[id].push(slot as u32);
        }
    }
}

/// Element → packed `u64` bitmap over accepted-set slots. A query is
/// dominated iff the intersection of its elements' bitmaps is non-empty, so
/// the probe is a word-parallel AND that starts from the least-frequent
/// element's bitmap and keeps only the surviving non-zero words — on the
/// degenerate family shapes where every inverted probe list is tens of
/// thousands of entries long, this replaces per-candidate subset tests with
/// `O(live / 64)` word operations.
#[derive(Default)]
struct BitmapProbe {
    elem_ids: HashMap<u32, usize>,
    /// `bitmaps[elem_id]` = bitmap over accepted slots (lazily grown; words
    /// past the end are implicitly zero).
    bitmaps: Vec<Vec<u64>>,
    /// `nonzero[elem_id]` = indices of the non-zero words of the element's
    /// bitmap. Slots are assigned in increasing order, so this stays sorted
    /// with amortised O(1) appends — and it lets a probe walk only the
    /// occupied words of its rarest element instead of the full bitmap width.
    nonzero: Vec<Vec<u32>>,
    /// `freq[elem_id]` = number of accepted sets containing the element.
    freq: Vec<u32>,
    /// Reusable scratch for the query's element ids, so the hot `add` path
    /// does not allocate per probe.
    query_ids: Vec<usize>,
    /// Reusable scratch for the surviving `(word index, word)` pairs.
    survivors: Vec<(u32, u64)>,
}

impl ProbeIndex for BitmapProbe {
    const NAME: &'static str = "bitset";

    fn dominated(&mut self, set: &[u32], accepted: &[Vec<u32>]) -> bool {
        // Destructure so the scratch buffers borrow disjointly from the
        // read-only index structures.
        let BitmapProbe {
            elem_ids,
            bitmaps,
            nonzero,
            freq,
            query_ids: ids,
            survivors,
        } = self;
        ids.clear();
        for e in set {
            let Some(&id) = elem_ids.get(e) else {
                return false;
            };
            if freq[id] == 0 {
                return false;
            }
            ids.push(id);
        }
        if ids.is_empty() {
            return !accepted.is_empty();
        }
        // Intersect in ascending frequency order so the survivor list
        // collapses as early as possible.
        ids.sort_unstable_by_key(|&id| freq[id]);
        if ids.len() == 1 {
            // A single-element query is dominated by any accepted set
            // containing the element, and freq > 0 was checked above.
            return true;
        }
        // Seed the survivors from the AND of the two rarest bitmaps, walking
        // only the rarest element's non-zero words.
        let (a, b) = (ids[0], ids[1]);
        let bm_a = &bitmaps[a];
        let bm_b = &bitmaps[b];
        survivors.clear();
        for &wi in &nonzero[a] {
            let w = bm_a[wi as usize] & bm_b.get(wi as usize).copied().unwrap_or(0);
            if w != 0 {
                survivors.push((wi, w));
            }
        }
        for &id in &ids[2..] {
            if survivors.is_empty() {
                return false;
            }
            let bm = &bitmaps[id];
            survivors.retain_mut(|(i, w)| {
                *w &= bm.get(*i as usize).copied().unwrap_or(0);
                *w != 0
            });
        }
        !survivors.is_empty()
    }

    fn insert(&mut self, set: &[u32], slot: usize) {
        let (word, bit) = (slot / 64, slot % 64);
        for &e in set {
            let next = self.bitmaps.len();
            let id = *self.elem_ids.entry(e).or_insert(next);
            if id == next {
                self.bitmaps.push(Vec::new());
                self.nonzero.push(Vec::new());
                self.freq.push(0);
            }
            let bm = &mut self.bitmaps[id];
            if bm.len() <= word {
                bm.resize(word + 1, 0);
            }
            if bm[word] == 0 {
                self.nonzero[id].push(word as u32);
            }
            bm[word] |= 1u64 << bit;
            self.freq[id] += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// StreamingEngine: the lazy-elimination engine shared by the inverted and
// bitset backends (they differ only in the probe structure).
// ---------------------------------------------------------------------------

/// Streaming engine with a pluggable probe index.
///
/// `add` keeps a persistent probe index over the retained sets: a new arrival
/// that is a duplicate of — or a subset of — a retained set is dropped
/// immediately (the common case on heavily overlapping S1 streams). Retained
/// sets dominated by *later* arrivals survive until `finish`, which re-runs
/// the probe over the retained family in descending cardinality order with a
/// fresh index, exactly like [`filter_maximal`](crate::filter_maximal).
struct StreamingEngine<P: ProbeIndex> {
    accepted: Vec<Vec<u32>>,
    probe: P,
    /// Exact-duplicate detection over the accepted slots.
    dedup: DedupIndex,
    /// Streaming probes attempted / sets they dropped. The on-arrival probe
    /// is an *optimisation* (the final compaction restores exactness), so
    /// when the observed drop rate shows it almost never fires — the
    /// worst-case family where nothing is dominated — the engine stops
    /// probing and indexing, turning `add` into a cheap dedup-and-buffer.
    probes: u64,
    probe_drops: u64,
    probing: bool,
}

/// Streaming probes before the drop rate is evaluated.
const PROBE_REVIEW_AT: u64 = 4096;

/// Streaming probing is disabled below one drop per this many probes.
const PROBE_MIN_DROP_RATE: u64 = 64;

impl<P: ProbeIndex> StreamingEngine<P> {
    fn new() -> Self {
        StreamingEngine {
            accepted: Vec::new(),
            probe: P::default(),
            dedup: DedupIndex::default(),
            probes: 0,
            probe_drops: 0,
            probing: true,
        }
    }
}

impl<P: ProbeIndex> MaximalityEngine for StreamingEngine<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn add(&mut self, set: &[u32]) -> bool {
        let Some((set, hash)) = self.dedup.admit(set, &self.accepted) else {
            return false;
        };
        if set.is_empty() {
            // The empty set survives only when nothing else does.
            if !self.accepted.is_empty() {
                return false;
            }
        } else if self.probing {
            self.probes += 1;
            if self.probe.dominated(&set, &self.accepted) {
                self.probe_drops += 1;
                return false;
            }
            if self.probes >= PROBE_REVIEW_AT
                && self.probe_drops * PROBE_MIN_DROP_RATE < self.probes
            {
                // The stream is (so far) domination-free; stop paying for
                // probes and index maintenance. `finish` compacts exactly.
                self.probing = false;
                self.probe = P::default();
            }
        }
        let slot = self.accepted.len();
        if self.probing {
            self.probe.insert(&set, slot);
        }
        self.dedup.register(hash, slot);
        self.accepted.push(set.into_owned());
        true
    }

    fn live_len(&self) -> usize {
        self.accepted.len()
    }

    fn drain(&mut self) -> Vec<Vec<u32>> {
        self.probe = P::default();
        self.dedup.clear();
        self.probes = 0;
        self.probe_drops = 0;
        self.probing = true;
        std::mem::take(&mut self.accepted)
    }

    fn finish_with_deadline(self: Box<Self>, deadline: Option<Instant>) -> S2Outcome {
        let name = self.name();
        let (mqcs, timed_out) = compact_descending::<P>(self.accepted, deadline);
        S2Outcome {
            mqcs,
            timed_out,
            backend: name,
            decision: None,
        }
    }
}

/// Descending-cardinality compaction with a fresh probe index.
///
/// A set can only be strictly contained in a *strictly larger* set, so the
/// sets are processed one size class at a time: the whole class is probed
/// against the index first, then the class's survivors are inserted. This
/// keeps same-size sets — which can never dominate each other — out of each
/// other's probes; on worst-case families where nothing is dominated, the
/// largest class probes an empty index for free.
///
/// Any strict superset of a set is processed before the set is probed, so
/// the accepted collection is an antichain after *every* class (and equal
/// -size survivors are mutually incomparable), which is what makes the
/// early deadline return sound.
fn compact_descending<P: ProbeIndex>(
    mut sets: Vec<Vec<u32>>,
    deadline: Option<Instant>,
) -> (Vec<Vec<u32>>, bool) {
    sets.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    let n = sets.len();
    let mut probe = P::default();
    let mut accepted: Vec<Vec<u32>> = Vec::new();
    let mut timed_out = false;
    let mut processed = 0usize;
    let mut idx = 0usize;
    'classes: while idx < n {
        let class_len = sets[idx].len();
        let mut end = idx;
        while end < n && sets[end].len() == class_len {
            end += 1;
        }
        // Probe phase: the index holds only strictly larger sets.
        let mut kept: Vec<usize> = Vec::new();
        for (j, set) in sets.iter().enumerate().take(end).skip(idx) {
            if processed.is_multiple_of(DEADLINE_STRIDE) {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        timed_out = true;
                        break 'classes;
                    }
                }
            }
            processed += 1;
            if set.is_empty() {
                // The empty class is last; it survives only alone.
                if accepted.is_empty() {
                    kept.push(j);
                }
            } else if !probe.dominated(set, &accepted) {
                kept.push(j);
            }
        }
        // Insert phase: the class's survivors join the index together.
        for j in kept {
            let set = std::mem::take(&mut sets[j]);
            probe.insert(&set, accepted.len());
            accepted.push(set);
        }
        idx = end;
    }
    accepted.sort();
    (accepted, timed_out)
}

// ---------------------------------------------------------------------------
// ExtremalEngine: full Bayardo–Panda extremal-sets filtering.
// ---------------------------------------------------------------------------

/// The full Bayardo–Panda extremal-sets backend.
///
/// `add` only deduplicates and buffers (this is the batch-oriented backend);
/// `finish` runs the complete lexicographic prefix-sharing pass from the
/// extremal-sets literature:
///
/// 1. **Column reorder** — elements are re-indexed by ascending global
///    frequency (ties by value), so every rewritten set leads with its
///    globally rarest element.
/// 2. **Lexicographic sort** — the rewritten sets are sorted
///    lexicographically under that order, which clusters sets sharing rare
///    prefixes next to each other.
/// 3. **Prefix-sharing subsumption** — for each set `S` the pass intersects
///    the occurrence lists of `S`'s elements front to back; `S` is maximal
///    iff the final intersection is `{S}` itself. The per-prefix
///    intersections live on a stack keyed by depth, and consecutive sets
///    reuse every level of their shared prefix — the amortisation that the
///    earlier least-frequent-element-only variant lacked. On small-universe
///    heavy-overlap families (where that variant's probe lists all
///    concentrated under a handful of elements) long shared prefixes make
///    the expensive first intersections almost free.
///
/// The pass answers "is `S` contained in *any* other set" directly (not just
/// "any already-processed set"), so under a deadline the processed prefix
/// yields sets that are maximal in the **full** family: the early return is
/// not merely an antichain but a subset of the true maximal family, matching
/// the guarantee of the descending-order backends.
struct ExtremalEngine {
    sets: Vec<Vec<u32>>,
    dedup: DedupIndex,
}

/// Intersection of two sorted id lists. When one side is much shorter the
/// pass gallops (binary-searches the longer side); otherwise a linear merge.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    if large.len() / 16 >= small.len() {
        for &x in small {
            if large.binary_search(&x).is_ok() {
                out.push(x);
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out
}

/// The batch Bayardo–Panda pass: returns the maximal sets of `sets` (sorted
/// lexicographically on the original element values) plus the timed-out
/// flag. See [`ExtremalEngine`] for the algorithm.
fn extremal_filter(mut sets: Vec<Vec<u32>>, deadline: Option<Instant>) -> (Vec<Vec<u32>>, bool) {
    sets.sort();
    sets.dedup();
    let n = sets.len();
    if n <= 1 {
        return (sets, false);
    }

    // Column reorder: dense ids in ascending global-frequency order.
    let mut freq: HashMap<u32, u32> = HashMap::new();
    for set in &sets {
        for &e in set {
            *freq.entry(e).or_insert(0) += 1;
        }
    }
    let mut elems: Vec<u32> = freq.keys().copied().collect();
    elems.sort_unstable_by_key(|e| (freq[e], *e));
    let rank: HashMap<u32, u32> = elems
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i as u32))
        .collect();

    // Rewrite each set into rank space (rarest element first) and sort the
    // family lexicographically under the new order.
    let mut rewritten: Vec<Vec<u32>> = sets
        .iter()
        .map(|s| {
            let mut v: Vec<u32> = s.iter().map(|e| rank[e]).collect();
            v.sort_unstable();
            v
        })
        .collect();
    rewritten.sort_unstable();
    drop(sets);

    // occ[rank] = positions (in lex order) of the sets containing the
    // element; built in position order, so every list is sorted.
    let mut occ: Vec<Vec<u32>> = vec![Vec::new(); elems.len()];
    for (i, set) in rewritten.iter().enumerate() {
        for &r in set {
            occ[r as usize].push(i as u32);
        }
    }

    // Prefix-sharing subsumption. stack[d] = positions of the sets
    // containing every element of the current set's prefix [0..=d]; a set is
    // maximal iff the deepest level is the singleton {itself}. Consecutive
    // lex-sorted sets share prefixes, so the shared levels are reused
    // verbatim.
    let mut stack: Vec<Vec<u32>> = Vec::new();
    let mut maximal = vec![false; n];
    let mut processed = 0usize;
    let mut timed_out = false;
    for i in 0..n {
        if i.is_multiple_of(DEADLINE_STRIDE) {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    timed_out = true;
                    break;
                }
            }
        }
        let set = &rewritten[i];
        processed = i + 1;
        if set.is_empty() {
            // n > 1: some other (non-empty) set dominates the empty set.
            continue;
        }
        let shared = if i == 0 {
            0
        } else {
            rewritten[i - 1]
                .iter()
                .zip(set.iter())
                .take_while(|(a, b)| a == b)
                .count()
        };
        stack.truncate(shared);
        for d in stack.len()..set.len() {
            let list = &occ[set[d] as usize];
            let next = if d == 0 {
                list.clone()
            } else if stack[d - 1].len() == 1 {
                // Only one set contains this prefix — necessarily set i
                // itself — so every deeper level is the same singleton.
                stack[d - 1].clone()
            } else {
                intersect_sorted(&stack[d - 1], list)
            };
            stack.push(next);
        }
        // The final level holds every set containing all of set i's
        // elements; duplicates are gone, so any second entry is a strict
        // superset.
        maximal[i] = stack[set.len() - 1].len() == 1;
    }

    // Map the survivors back to original element values.
    let mut mqcs: Vec<Vec<u32>> = rewritten
        .into_iter()
        .take(processed)
        .zip(maximal)
        .filter_map(|(set, keep)| {
            keep.then(|| {
                let mut v: Vec<u32> = set.iter().map(|&r| elems[r as usize]).collect();
                v.sort_unstable();
                v
            })
        })
        .collect();
    mqcs.sort();
    (mqcs, timed_out)
}

impl ExtremalEngine {
    fn new() -> Self {
        ExtremalEngine {
            sets: Vec::new(),
            dedup: DedupIndex::default(),
        }
    }
}

impl MaximalityEngine for ExtremalEngine {
    fn name(&self) -> &'static str {
        "extremal"
    }

    fn add(&mut self, set: &[u32]) -> bool {
        let Some((set, hash)) = self.dedup.admit(set, &self.sets) else {
            return false;
        };
        self.dedup.register(hash, self.sets.len());
        self.sets.push(set.into_owned());
        true
    }

    fn live_len(&self) -> usize {
        self.sets.len()
    }

    fn drain(&mut self) -> Vec<Vec<u32>> {
        self.dedup.clear();
        std::mem::take(&mut self.sets)
    }

    fn finish_with_deadline(self: Box<Self>, deadline: Option<Instant>) -> S2Outcome {
        let (mqcs, timed_out) = extremal_filter(self.sets, deadline);
        S2Outcome {
            mqcs,
            timed_out,
            backend: "extremal",
            decision: None,
        }
    }
}

// ---------------------------------------------------------------------------
// AutoEngine: adaptive dispatcher.
// ---------------------------------------------------------------------------

/// The adaptive engine behind [`S2Backend::Auto`]: buffers (and
/// hash-deduplicates) the first [`AUTO_COMMIT_AT`] retained sets while
/// tracking the universe size and total element count, then commits to the
/// backend its [`S2CostModel`] predicts fastest and replays the buffer into
/// it. Streams that finish before the threshold choose at `finish` time.
/// The decision (shape, predictions, choice) is kept and reported on the
/// outcome so callers can audit mispredictions.
struct AutoEngine {
    model: S2CostModel,
    decision: Option<S2Decision>,
    /// Full-stream shape statistics, maintained *across* the commit: the
    /// commit decides from the buffered prefix (the engine cannot see the
    /// future), but the decision reported at finish re-predicts with these
    /// totals so the recorded per-backend costs describe the family the
    /// compaction actually ran on — comparing a 4096-set-prefix prediction
    /// against a full-stream measured time would make the misprediction
    /// audit apples-to-oranges.
    set_count: usize,
    universe: HashSet<u32>,
    total_elements: usize,
    state: AutoState,
}

enum AutoState {
    Buffering {
        sets: Vec<Vec<u32>>,
        dedup: DedupIndex,
    },
    Committed(Box<dyn MaximalityEngine>),
}

impl AutoEngine {
    fn new(model: S2CostModel) -> Self {
        AutoEngine {
            model,
            decision: None,
            set_count: 0,
            universe: HashSet::new(),
            total_elements: 0,
            state: AutoState::Buffering {
                sets: Vec::new(),
                dedup: DedupIndex::default(),
            },
        }
    }

    /// Records one retained set in the full-stream shape statistics.
    fn track(&mut self, set: &[u32]) {
        self.set_count += 1;
        self.total_elements += set.len();
        for &e in set {
            self.universe.insert(e);
        }
    }

    /// Chooses a backend from the statistics observed so far and replays the
    /// buffer into it.
    fn commit(&mut self) -> &mut Box<dyn MaximalityEngine> {
        if let AutoState::Buffering { sets, .. } = &mut self.state {
            let decision =
                self.model
                    .decide(self.set_count, self.universe.len(), self.total_elements);
            let mut engine = decision.chosen.new_engine();
            self.decision = Some(decision);
            for set in sets.drain(..) {
                engine.add(&set);
            }
            self.state = AutoState::Committed(engine);
        }
        match &mut self.state {
            AutoState::Committed(engine) => engine,
            AutoState::Buffering { .. } => unreachable!("commit just transitioned the state"),
        }
    }

    /// The decision as reported on the outcome: the commit-time choice, with
    /// the shape, the per-backend predictions and the `modeled` flag
    /// refreshed to the current stream statistics. Only `chosen` keeps its
    /// commit-time value (the engine genuinely ran the committed backend),
    /// so `predicted_millis` may rank another backend first — that is
    /// exactly the misprediction signal the benches audit. Refreshing
    /// `modeled` too keeps the record self-consistent (zero predictions ⇔
    /// not modeled) even for a drained-then-refilled engine whose current
    /// stream is below the model's range.
    fn final_decision(&self) -> Option<S2Decision> {
        let committed = self.decision?;
        let mut refreshed =
            self.model
                .decide(self.set_count, self.universe.len(), self.total_elements);
        refreshed.chosen = committed.chosen;
        Some(refreshed)
    }
}

impl MaximalityEngine for AutoEngine {
    fn name(&self) -> &'static str {
        match &self.state {
            AutoState::Buffering { .. } => "auto",
            AutoState::Committed(engine) => engine.name(),
        }
    }

    fn add(&mut self, set: &[u32]) -> bool {
        match &mut self.state {
            AutoState::Buffering { sets, dedup } => {
                let Some((set, hash)) = dedup.admit(set, sets) else {
                    return false;
                };
                dedup.register(hash, sets.len());
                self.set_count += 1;
                self.total_elements += set.len();
                for &e in set.iter() {
                    self.universe.insert(e);
                }
                sets.push(set.into_owned());
                if self.set_count >= AUTO_COMMIT_AT {
                    self.commit();
                }
                true
            }
            AutoState::Committed(engine) => {
                let retained = engine.add(set);
                if retained {
                    // The committed engine canonicalised internally; for the
                    // shape statistics the raw slice's length/elements match
                    // the canonical form on the pipeline's sorted streams
                    // and are close enough elsewhere.
                    self.track(set);
                }
                retained
            }
        }
    }

    fn live_len(&self) -> usize {
        match &self.state {
            AutoState::Buffering { sets, .. } => sets.len(),
            AutoState::Committed(engine) => engine.live_len(),
        }
    }

    fn drain(&mut self) -> Vec<Vec<u32>> {
        self.set_count = 0;
        self.universe.clear();
        self.total_elements = 0;
        match &mut self.state {
            AutoState::Buffering { sets, dedup } => {
                dedup.clear();
                std::mem::take(sets)
            }
            AutoState::Committed(engine) => engine.drain(),
        }
    }

    fn finish_with_deadline(mut self: Box<Self>, deadline: Option<Instant>) -> S2Outcome {
        self.commit();
        let decision = self.final_decision();
        match self.state {
            AutoState::Committed(engine) => {
                let mut outcome = engine.finish_with_deadline(deadline);
                outcome.decision = decision;
                outcome
            }
            AutoState::Buffering { .. } => unreachable!("commit just transitioned the state"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::filter::{filter_maximal, filter_maximal_naive};

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

    #[test]
    fn all_backends_match_naive_on_random_families() {
        for sets in random_families() {
            let expected = filter_maximal_naive(&sets);
            for backend in S2Backend::concrete() {
                assert_eq!(
                    filter_maximal_with(&sets, backend),
                    expected,
                    "{} disagrees on {sets:?}",
                    backend.name()
                );
            }
            assert_eq!(filter_maximal_with(&sets, S2Backend::Auto), expected);
        }
    }

    #[test]
    fn streaming_add_drops_duplicates_and_subsets() {
        for backend in [S2Backend::Inverted, S2Backend::Bitset] {
            let mut engine = backend.new_engine();
            assert!(engine.add(&[3, 1, 2]));
            assert!(
                !engine.add(&[1, 2, 3]),
                "{}: duplicate retained",
                backend.name()
            );
            assert!(!engine.add(&[2, 1]), "{}: subset retained", backend.name());
            assert!(
                engine.add(&[1, 2, 3, 4]),
                "{}: superset dropped",
                backend.name()
            );
            assert_eq!(engine.live_len(), 2);
            let out = engine.finish();
            assert_eq!(out.mqcs, vec![vec![1, 2, 3, 4]]);
            assert!(!out.timed_out);
        }
    }

    #[test]
    fn extremal_add_only_deduplicates() {
        let mut engine = S2Backend::Extremal.new_engine();
        assert!(engine.add(&[1, 2, 3]));
        assert!(!engine.add(&[3, 2, 1]));
        assert!(engine.add(&[1, 2])); // buffered; killed at finish
        assert_eq!(engine.finish().mqcs, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn empty_set_semantics_match_filter_maximal() {
        for backend in S2Backend::concrete() {
            let only_empty = vec![Vec::<u32>::new()];
            assert_eq!(
                filter_maximal_with(&only_empty, backend),
                filter_maximal(&only_empty),
                "{}",
                backend.name()
            );
            let mixed = vec![vec![], vec![7], vec![]];
            assert_eq!(
                filter_maximal_with(&mixed, backend),
                filter_maximal(&mixed),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn drain_and_merge_equals_batch() {
        let families = random_families();
        let sets = &families[3];
        let (a_half, b_half) = sets.split_at(sets.len() / 2);
        for backend in S2Backend::concrete() {
            let mut a = backend.new_engine();
            let mut b = backend.new_engine();
            for s in a_half {
                a.add(s);
            }
            for s in b_half {
                b.add(s);
            }
            for s in b.drain() {
                a.add(&s);
            }
            assert_eq!(b.live_len(), 0);
            assert_eq!(
                a.finish().mqcs,
                filter_maximal(sets),
                "{}: merged engines differ from batch",
                backend.name()
            );
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
        for backend in S2Backend::concrete() {
            let mut engine = backend.new_engine();
            for s in &sets {
                engine.add(s);
            }
            let out = engine.finish_with_deadline(Some(Instant::now()));
            assert!(out.timed_out, "{}", backend.name());
            // Sound: the partial result is an antichain.
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
        for backend in S2Backend::concrete() {
            let mut engine = backend.new_engine();
            for s in &sets {
                engine.add(s);
            }
            let out = engine
                .finish_with_deadline(Some(Instant::now() + std::time::Duration::from_secs(60)));
            assert!(!out.timed_out);
            assert_eq!(out.mqcs, vec![vec![1, 2, 3]]);
        }
    }

    #[test]
    fn auto_commits_on_dense_overlap_and_records_the_decision() {
        // Small universe, heavy overlap: the INF'd-S1 shape.
        let mut engine = S2Backend::Auto.new_engine();
        assert_eq!(engine.name(), "auto");
        let mut x = 7u64;
        for _ in 0..AUTO_COMMIT_AT + 10 {
            let mut s = Vec::new();
            for _ in 0..12 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.push((x >> 33) as u32 % 100);
            }
            engine.add(&s);
        }
        // Committed to whatever the model predicts fastest — on this shape
        // the inverted index (whose probe lists all concentrate) never wins.
        let committed = engine.name();
        assert_ne!(committed, "auto");
        assert_ne!(committed, "inverted");
        let out = engine.finish();
        let decision = out.decision.expect("auto records its dispatch decision");
        assert!(decision.modeled);
        assert_eq!(decision.chosen.name(), committed);
        assert!(decision.set_count >= AUTO_COMMIT_AT);
        assert!(decision.universe <= 100);
    }

    #[test]
    fn reported_decision_reflects_the_full_stream_not_the_commit_prefix() {
        // Stream well past the commit point with sets that keep widening the
        // universe; the decision on the outcome must describe the whole
        // family (so the recorded predictions are comparable with the
        // measured full-stream compaction time), while `chosen` stays the
        // backend committed at the prefix.
        let mut engine = S2Backend::Auto.new_engine();
        let n = 3 * AUTO_COMMIT_AT;
        for i in 0..n as u32 {
            // Distinct 8-element sets over an ever-growing universe.
            let s: Vec<u32> = (0..8).map(|j| i * 8 + j).collect();
            engine.add(&s);
        }
        let committed = engine.name().to_string();
        let out = engine.finish();
        let d = out.decision.expect("auto records its decision");
        assert_eq!(d.set_count, n, "decision shape is the full stream");
        assert_eq!(d.total_elements, n * 8);
        assert_eq!(d.universe, n * 8, "all elements are distinct");
        assert_eq!(
            d.chosen.name(),
            committed,
            "chosen stays the committed backend"
        );
        assert!(d.modeled);
    }

    #[test]
    fn drained_auto_engine_reports_a_consistent_decision() {
        // Commit (>= AUTO_COMMIT_AT sets), drain, refill with a tiny stream:
        // the reported decision must describe the *current* stream — below
        // the model's range, so not modeled and all-zero predictions — while
        // `chosen` still names the backend the engine genuinely ran.
        let mut engine = S2Backend::Auto.new_engine();
        for i in 0..(AUTO_COMMIT_AT + 8) as u32 {
            let s: Vec<u32> = (0..6).map(|j| i * 6 + j).collect();
            engine.add(&s);
        }
        let committed = engine.name().to_string();
        assert_ne!(committed, "auto");
        let _ = engine.drain();
        engine.add(&[1, 2, 3]);
        let out = engine.finish();
        let d = out.decision.expect("commit-time choice is still reported");
        assert!(
            !d.modeled,
            "tiny post-drain stream is below the model range"
        );
        assert_eq!(d.predicted_millis, [0.0; 3]);
        assert_eq!(d.set_count, 1);
        assert_eq!(d.chosen.name(), committed);
        assert_eq!(out.mqcs, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn concrete_backends_report_no_decision() {
        for backend in S2Backend::concrete() {
            let mut engine = backend.new_engine();
            engine.add(&[1, 2, 3]);
            assert!(engine.finish().decision.is_none(), "{}", backend.name());
        }
    }

    #[test]
    fn small_auto_streams_fall_back_to_inverted_with_a_decision() {
        let mut engine = S2Backend::Auto.new_engine();
        for i in 0..50u32 {
            engine.add(&[i, i + 1, i + 2]);
        }
        let out = engine.finish();
        assert_eq!(out.backend, "inverted");
        let decision = out.decision.expect("fallback still records the decision");
        assert!(!decision.modeled);
        assert_eq!(decision.chosen, S2Backend::Inverted);
    }

    #[test]
    fn backend_choice_heuristics() {
        // Tiny inputs stay on the inverted index (below the model's range).
        assert_eq!(choose_backend(100, 50, 1000), S2Backend::Inverted);
        assert_eq!(choose_backend(0, 0, 0), S2Backend::Inverted);
        // Dense small-universe overlap — the shape whose probe lists
        // degenerate — must leave the inverted index.
        assert_ne!(choose_backend(400_000, 150, 8_000_000), S2Backend::Inverted);
        // The wrapper and the checked-in model agree by construction.
        let model = S2CostModel::checked_in();
        for &(n, u, m) in &[
            (400_000usize, 150usize, 8_000_000usize),
            (100_000, 50_000, 500_000),
            (5_000, 4_000, 10_000_000),
            (2_000, 64, 30_000),
        ] {
            assert_eq!(choose_backend(n, u, m), model.decide(n, u, m).chosen);
        }
    }

    #[test]
    fn intersect_sorted_handles_both_strategies() {
        // Merge path: comparable lengths.
        assert_eq!(
            intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]),
            vec![3, 7]
        );
        // Gallop path: one side much shorter than the other.
        let long: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(intersect_sorted(&[3, 40, 41, 998], &long,), vec![40, 998]);
        assert_eq!(intersect_sorted(&long, &[3, 40, 41, 998]), vec![40, 998]);
        assert_eq!(intersect_sorted(&[], &long), Vec::<u32>::new());
    }

    /// The regime ROADMAP flagged as degenerate for the old extremal
    /// variant: a small universe with heavy overlap, where every
    /// least-frequent-element list concentrates. The prefix-sharing pass
    /// must return exactly the inverted-reference family.
    #[test]
    fn extremal_prefix_sharing_matches_reference_on_heavy_overlap() {
        let mut x = 99u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let family: Vec<Vec<u32>> = (0..4000)
            .map(|_| {
                let len = 8 + (next() % 7) as usize;
                let mut s = Vec::with_capacity(len);
                while s.len() < len {
                    // Skewed toward low ids, like a community core.
                    let e = (next() % 40).min(next() % 40);
                    if !s.contains(&e) {
                        s.push(e);
                    }
                }
                s
            })
            .collect();
        let reference = filter_maximal(&family);
        assert_eq!(filter_maximal_with(&family, S2Backend::Extremal), reference);
        // Plenty of real domination on this shape (subset sets exist), so
        // the pass is exercised beyond the everything-maximal fast case.
        assert!(reference.len() < family.len());
    }

    /// Unlike the pre-rework extremal pass, a deadline-cut run returns a
    /// subset of the *true* maximal family (each processed set is probed
    /// against every set, not just the processed prefix).
    #[test]
    fn extremal_partial_result_is_subset_of_full_family() {
        let sets: Vec<Vec<u32>> = (0..30_000u32)
            .map(|i| {
                (0..8)
                    .map(|j| (i.wrapping_mul(37).wrapping_add(j * 11)) % 60)
                    .collect()
            })
            .collect();
        let full = filter_maximal(&sets);
        for budget_micros in [0u64, 50, 500, 5_000] {
            let mut engine = S2Backend::Extremal.new_engine();
            for s in &sets {
                engine.add(s);
            }
            let deadline = Instant::now() + std::time::Duration::from_micros(budget_micros);
            let out = engine.finish_with_deadline(Some(deadline));
            for set in &out.mqcs {
                assert!(
                    full.binary_search(set).is_ok(),
                    "partial extremal result contains non-maximal {set:?}"
                );
            }
        }
    }

    #[test]
    fn backend_names_are_distinct() {
        let mut names: Vec<&str> = S2Backend::concrete().iter().map(|b| b.name()).collect();
        names.push(S2Backend::Auto.name());
        for backend in S2Backend::concrete() {
            assert_eq!(backend.new_engine().name(), backend.name());
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
