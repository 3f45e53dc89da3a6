//! Work-stealing scheduler for the parallel divide-and-conquer driver.
//!
//! Handing out whole per-vertex subproblems through a shared atomic index
//! wastes cores on skewed subproblem families: one heavy subproblem (the
//! planted-community shape) pins a worker for the whole run while the others
//! drain the cheap tail and go idle. This module is instead a classic
//! work-stealing design à la Chase–Lev, adapted to the vendored-only
//! constraints (no `crossbeam`): per-worker deques with a `Mutex`-backed
//! queue behind a lock-free atomic-length fast path, plus **cooperative
//! intra-subproblem splitting** so even a single giant subproblem
//! parallelises:
//!
//! * **Seeding** — subproblems enter the deques in descending estimated
//!   cost, using the two-hop-pruned candidate-set size `|Γ²(v_i) ∩
//!   later-ranked|` from the DC plan as the estimate, so heavy subproblems
//!   start as early as possible (longest-job-first keeps the makespan tail
//!   short).
//! * **Stealing** — a worker pops from the front of its own deque (heaviest
//!   seed first) and steals from the back of a victim's.
//! * **Splitting** — busy searchers poll the scheduler's hungry-worker
//!   count at shallow branching frames (see
//!   [`SearchCtx`](crate::branch::SearchCtx)); when a worker is hungry, the
//!   searcher packages its untaken sibling branches as self-contained
//!   [`SplitTask`]s — a shared subgraph handle plus the branch's partial
//!   set and candidate list (exclusions are implicit: a vertex in neither
//!   is excluded) — and pushes them onto its own deque for thieves to take.
//!   Split tasks run in a fresh search context and can themselves split
//!   further, so one dense community keeps every worker fed.
//!
//! Splitting is *output-sound*: a stolen branch reproduces exactly the
//! outputs the donor's recursion would have produced from the same
//! `(S, C, D)` state, and the only divergence from the sequential run is
//! that the donor no longer learns whether a donated branch found a
//! quasi-clique, so the non-hereditary "additional step" may emit a few
//! extra *valid* (but dominated) quasi-cliques. MQCE-S2 removes those, so
//! the final maximal family is identical to the sequential driver's.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mqce_graph::bitset::AdjacencyMatrix;
use mqce_graph::{Graph, InducedSubgraph, VertexId};
use mqce_settrie::SetArena;

use crate::branch::{SearchOutcome, SearchScratch};
use crate::config::MqceParams;
use crate::dc::{build_subproblem_in, DcPlan, DcScratch, InnerAlgorithm};
use crate::fastqc::run_fastqc_in;
use crate::quickplus::run_quickplus_in;
use crate::stats::{SearchStats, ThreadStats};

/// Idle spins (yields) before the hungry wait loop starts sleeping.
const IDLE_SPINS_BEFORE_SLEEP: u32 = 64;

/// Sleep interval of the hungry wait loop once spinning gave up.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// One untaken branch of a running search, expressed in the subproblem's
/// local vertex ids. The exclusion set is implicit: any vertex of the
/// subgraph in neither `s_init` nor `cand` is excluded, which is exactly the
/// `(S, C, D)` convention of [`SearchCtx`](crate::branch::SearchCtx), so the
/// request rebuilds the donor's branch state verbatim.
pub(crate) struct SplitRequest {
    /// The branch's partial set `S`.
    pub s_init: Vec<VertexId>,
    /// The branch's candidate set `C`.
    pub cand: Vec<VertexId>,
}

/// The donation hook a searcher polls while branching. Implemented by the
/// scheduler's per-subproblem sink; the searcher only sees this trait so the
/// sequential drivers pay nothing.
pub(crate) trait SplitSink {
    /// Whether a hungry worker exists and `rest` untaken sibling branches
    /// are enough to be worth packaging (the `--steal-granularity` knob).
    fn want_split(&self, rest: usize) -> bool;

    /// Donates untaken branches of the current subproblem; they become
    /// stealable [`SplitTask`]s.
    fn donate(&self, branches: Vec<SplitRequest>);
}

/// The shared, immutable context of one DC subproblem: the induced subgraph
/// (local ids `0..n`), its optional bitset kernel, and the composed
/// local → original-graph id map. Split tasks hold this behind an [`Arc`] so
/// a stolen branch is self-contained wherever it runs.
pub(crate) struct SubShared {
    /// The pruned subproblem graph over local ids.
    pub graph: Graph,
    /// Optional packed adjacency kernel over the local ids.
    pub kernel: Option<AdjacencyMatrix>,
    /// `to_orig[local]` = vertex id in the *original* input graph
    /// (subgraph-local → reduced-graph → original, pre-composed).
    pub to_orig: Vec<VertexId>,
}

/// A stolen slice of one subproblem's search tree, run to completion by
/// whichever worker takes it.
pub(crate) struct SplitTask {
    /// Shared subproblem context.
    pub shared: Arc<SubShared>,
    /// Partial set of the donated branch (local ids).
    pub s_init: Vec<VertexId>,
    /// Candidate set of the donated branch (local ids).
    pub cand: Vec<VertexId>,
}

/// A unit of schedulable work.
enum Task {
    /// A whole per-vertex subproblem (index into the run's anchor list).
    Root(usize),
    /// A donated slice of a running subproblem's search tree.
    Split(SplitTask),
}

/// One worker's deque. The owner pops from the front (its seeds are stored
/// heaviest-first) and thieves steal from the back; both go through the
/// mutex, but the atomic length lets every reader skip empty deques without
/// touching the lock — the fast path that matters when most deques are
/// drained and workers scan for leftovers.
struct WorkerDeque {
    queue: Mutex<VecDeque<Task>>,
    len: AtomicUsize,
}

impl WorkerDeque {
    fn new() -> Self {
        WorkerDeque {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn push_back(&self, task: Task) {
        let mut q = self.queue.lock().expect("deque poisoned");
        q.push_back(task);
        self.len.store(q.len(), Ordering::Release);
    }

    fn push_front(&self, task: Task) {
        let mut q = self.queue.lock().expect("deque poisoned");
        q.push_front(task);
        self.len.store(q.len(), Ordering::Release);
    }

    fn pop_front(&self) -> Option<Task> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().expect("deque poisoned");
        let task = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        task
    }

    fn pop_back(&self) -> Option<Task> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().expect("deque poisoned");
        let task = q.pop_back();
        self.len.store(q.len(), Ordering::Release);
        task
    }
}

/// The shared scheduler state of one parallel DC run.
struct Scheduler {
    deques: Vec<WorkerDeque>,
    /// Tasks pushed but not yet finished. Workers may exit when this hits 0;
    /// it is incremented *before* a donated task becomes visible so the
    /// count never under-reports.
    outstanding: AtomicUsize,
    /// Tasks currently sitting in deques (outstanding minus running). Kept
    /// so donation is demand-bounded: once the queues already hold enough
    /// work to feed every hungry worker, searchers stop donating instead of
    /// shredding their trees into far more tasks than there are thieves.
    queued: AtomicUsize,
    /// Number of workers currently failing to find work. Searchers poll this
    /// (through [`SplitSink::want_split`]) to decide when to donate.
    hungry: AtomicUsize,
    /// Minimum donatable-branch count before a split happens; 0 disables
    /// intra-subproblem splitting.
    granularity: usize,
}

impl Scheduler {
    fn new(num_threads: usize, granularity: usize) -> Self {
        Scheduler {
            deques: (0..num_threads).map(|_| WorkerDeque::new()).collect(),
            outstanding: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            hungry: AtomicUsize::new(0),
            granularity,
        }
    }

    /// Pops the worker's own deque, falling back to stealing from the other
    /// workers (scanning from the next worker around the ring). Returns the
    /// task and whether it was stolen.
    fn find_task(&self, worker: usize) -> Option<(Task, bool)> {
        if let Some(task) = self.deques[worker].pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some((task, false));
        }
        let n = self.deques.len();
        for k in 1..n {
            if let Some(task) = self.deques[(worker + k) % n].pop_back() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some((task, true));
            }
        }
        None
    }

    fn donate(&self, worker: usize, shared: &Arc<SubShared>, branches: Vec<SplitRequest>) {
        self.outstanding.fetch_add(branches.len(), Ordering::SeqCst);
        self.queued.fetch_add(branches.len(), Ordering::SeqCst);
        for req in branches {
            self.deques[worker].push_front(Task::Split(SplitTask {
                shared: Arc::clone(shared),
                s_init: req.s_init,
                cand: req.cand,
            }));
        }
    }

    fn work_remains(&self) -> bool {
        self.outstanding.load(Ordering::SeqCst) > 0
    }
}

/// The per-subproblem [`SplitSink`] a worker hands to its searcher.
struct SubSink<'a> {
    sched: &'a Scheduler,
    shared: Arc<SubShared>,
    worker: usize,
}

impl SplitSink for SubSink<'_> {
    fn want_split(&self, rest: usize) -> bool {
        if self.sched.granularity == 0 || rest < self.sched.granularity {
            return false;
        }
        // Donate only while demand outstrips the queued supply: hungry
        // workers scan every deque, so any queued task satisfies one of
        // them, and donating beyond that just shreds the donor's tree into
        // more context-rebuild overhead than there are thieves.
        let hungry = self.sched.hungry.load(Ordering::Relaxed);
        hungry > 0 && self.sched.queued.load(Ordering::Relaxed) < hungry
    }

    fn donate(&self, branches: Vec<SplitRequest>) {
        self.sched.donate(self.worker, &self.shared, branches);
    }
}

/// One anchor's cost estimate: the size of the two-hop-pruned candidate set
/// `|Γ²(v_i) ∩ later-ranked|` (what `build_subproblem` will materialise).
/// `tag` must be unique per call within one `stamp` array's lifetime so the
/// pass allocates nothing per vertex.
fn two_hop_estimate(plan: &DcPlan, stamp: &mut [u32], tag: u32, vi: mqce_graph::VertexId) -> usize {
    let rg = &plan.reduced.graph;
    let my_rank = plan.rank[vi as usize];
    stamp[vi as usize] = tag;
    let mut count = 1usize;
    for &u in rg.neighbors(vi) {
        if stamp[u as usize] != tag {
            stamp[u as usize] = tag;
            if plan.rank[u as usize] >= my_rank {
                count += 1;
            }
        }
    }
    for &u in rg.neighbors(vi) {
        for &w in rg.neighbors(u) {
            if stamp[w as usize] != tag {
                stamp[w as usize] = tag;
                if plan.rank[w as usize] >= my_rank {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Per-subproblem cost estimates of `anchors`, used to seed the deques (the
/// sequential pass, kept as the single-chunk case and the differential
/// reference). The shard planner reuses it to cost-balance its contiguous
/// rank ranges.
pub(crate) fn subproblem_estimates(plan: &DcPlan, anchors: &[VertexId]) -> Vec<usize> {
    let mut stamp: Vec<u32> = vec![u32::MAX; plan.reduced.graph.num_vertices()];
    anchors
        .iter()
        .enumerate()
        .map(|(i, &vi)| two_hop_estimate(plan, &mut stamp, i as u32, vi))
        .collect()
}

/// Parallel variant of [`subproblem_estimates`]: the ordering is split into
/// one contiguous chunk per worker and each chunk runs on its own scoped
/// thread, reusing the epoch-stamped array of that worker's [`DcScratch`]
/// (the same array the subproblem builds will use). On very large graphs
/// this pass used to be a single-threaded serial section before the workers
/// even started.
///
/// Returns the estimates plus each worker's wall-clock milliseconds, which
/// the caller folds into the matching worker's [`ThreadStats`] busy time so
/// the per-thread accounting covers the whole parallel region.
fn subproblem_estimates_parallel(
    plan: &DcPlan,
    anchors: &[VertexId],
    num_threads: usize,
    scratches: &mut [DcScratch],
) -> (Vec<usize>, Vec<f64>) {
    let n = anchors.len();
    if num_threads <= 1 || n < 2 {
        let start = Instant::now();
        let estimates = subproblem_estimates(plan, anchors);
        return (estimates, vec![start.elapsed().as_secs_f64() * 1e3]);
    }
    let chunk_len = n.div_ceil(num_threads);
    let num_vertices = plan.reduced.graph.num_vertices();
    let results: Vec<(usize, Vec<usize>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = anchors
            .chunks(chunk_len)
            .enumerate()
            .zip(scratches.iter_mut())
            .map(|((k, chunk), scratch)| {
                let offset = k * chunk_len;
                scope.spawn(move || {
                    let start = Instant::now();
                    let estimates: Vec<usize> = chunk
                        .iter()
                        .map(|&vi| {
                            let (stamp, tag) = scratch.sub.stamp_epoch(num_vertices);
                            two_hop_estimate(plan, stamp, tag, vi)
                        })
                        .collect();
                    (offset, estimates, start.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("estimate thread panicked"))
            .collect()
    });
    let mut estimates = vec![0usize; n];
    let mut millis = vec![0.0f64; num_threads];
    for (worker, (offset, chunk_estimates, elapsed)) in results.into_iter().enumerate() {
        estimates[offset..offset + chunk_estimates.len()].copy_from_slice(&chunk_estimates);
        millis[worker] = elapsed;
    }
    (estimates, millis)
}

/// Everything one worker accumulated over the run. Mapped outputs are packed
/// into a flat arena and boxed only once, at the final merge.
struct WorkerResult {
    raw: SetArena,
    stats: SearchStats,
    thread_stats: ThreadStats,
}

/// Runs the subproblems of `anchors` on `num_threads` workers with work
/// stealing and cooperative intra-subproblem splitting. Returns the merged
/// outcome, with per-thread counters.
pub(crate) fn run_dc_work_stealing(
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    num_threads: usize,
    deadline: Option<Instant>,
) -> SearchOutcome {
    let sched = Scheduler::new(num_threads, plan.params.steal_granularity);
    // One reusable scratch per worker, threaded through the whole run: the
    // estimate pass below shares its stamp array, then each worker owns one
    // scratch for every subproblem and stolen split task it executes.
    let mut scratches: Vec<DcScratch> = (0..num_threads).map(|_| DcScratch::default()).collect();
    // The cost-estimate pass parallelises over the same worker count; its
    // per-chunk wall-clock is folded into the matching worker's busy time
    // below so ThreadStats covers the whole parallel region.
    let (estimates, estimate_millis) =
        subproblem_estimates_parallel(plan, anchors, num_threads, &mut scratches);
    let mut seeds: Vec<usize> = (0..anchors.len()).collect();
    // Descending estimated cost; ties broken by ordering position so the
    // seeding is deterministic.
    seeds.sort_by(|&a, &b| estimates[b].cmp(&estimates[a]).then(a.cmp(&b)));
    sched.outstanding.store(seeds.len(), Ordering::SeqCst);
    sched.queued.store(seeds.len(), Ordering::SeqCst);
    // Round-robin over the workers keeps each deque individually descending,
    // so owners pop their heaviest remaining seed first.
    for (k, &idx) in seeds.iter().enumerate() {
        sched.deques[k % num_threads].push_back(Task::Root(idx));
    }

    let sched_ref = &sched;
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = scratches
            .into_iter()
            .enumerate()
            .map(|(id, scratch)| {
                scope.spawn(move || {
                    worker_loop(sched_ref, id, plan, anchors, inner, deadline, scratch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut stats = SearchStats::default();
    let mut outputs = Vec::new();
    let mut thread_stats = Vec::new();
    for (worker, mut result) in results.into_iter().enumerate() {
        result.thread_stats.busy_millis += estimate_millis.get(worker).copied().unwrap_or(0.0);
        stats.merge(&result.stats);
        outputs.extend(result.raw.into_vecs());
        thread_stats.push(result.thread_stats);
    }
    SearchOutcome {
        outputs,
        stats,
        thread_stats,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    sched: &Scheduler,
    id: usize,
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    deadline: Option<Instant>,
    mut scratch: DcScratch,
) -> WorkerResult {
    let mut result = WorkerResult {
        raw: SetArena::new(),
        stats: SearchStats::default(),
        thread_stats: ThreadStats {
            thread: id,
            ..Default::default()
        },
    };
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            if sched.work_remains() {
                result.stats.timed_out = true;
            }
            break;
        }
        match sched.find_task(id) {
            Some((task, stolen)) => {
                if stolen {
                    result.thread_stats.steals += 1;
                    result.stats.tasks_stolen += 1;
                }
                let start = Instant::now();
                run_task(
                    sched,
                    id,
                    task,
                    plan,
                    anchors,
                    inner,
                    deadline,
                    &mut scratch,
                    &mut result,
                );
                sched.outstanding.fetch_sub(1, Ordering::SeqCst);
                result.thread_stats.busy_millis += start.elapsed().as_secs_f64() * 1e3;
            }
            None => {
                if !sched.work_remains() {
                    break;
                }
                // Hungry: advertise it (searchers poll this to donate) and
                // wait for work to appear or the run to end.
                let start = Instant::now();
                sched.hungry.fetch_add(1, Ordering::SeqCst);
                let mut spins = 0u32;
                loop {
                    if !sched.work_remains()
                        || sched
                            .deques
                            .iter()
                            .any(|d| d.len.load(Ordering::Acquire) > 0)
                        || deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        break;
                    }
                    spins += 1;
                    if spins < IDLE_SPINS_BEFORE_SLEEP {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(IDLE_SLEEP);
                    }
                }
                sched.hungry.fetch_sub(1, Ordering::SeqCst);
                result.thread_stats.idle_millis += start.elapsed().as_secs_f64() * 1e3;
            }
        }
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn run_task(
    sched: &Scheduler,
    id: usize,
    task: Task,
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    deadline: Option<Instant>,
    scratch: &mut DcScratch,
    result: &mut WorkerResult,
) {
    let params = plan.params;
    match task {
        Task::Root(idx) => {
            let vi = anchors[idx];
            result.thread_stats.subproblems += 1;
            let Some((sub, local_vi)) = build_subproblem_in(plan, vi, &mut result.stats, scratch)
            else {
                return;
            };
            // Pre-compose local → original in place (both id maps are sorted
            // ascending, so the composition stays sorted) so split tasks
            // never need the plan.
            let InducedSubgraph {
                graph,
                to_global,
                adjacency,
            } = sub;
            let mut to_orig = to_global;
            for r in to_orig.iter_mut() {
                *r = plan.reduced.to_global[*r as usize];
            }
            let shared = Arc::new(SubShared {
                graph,
                kernel: adjacency,
                to_orig,
            });
            {
                let DcScratch {
                    ref mut search,
                    ref cand,
                    ..
                } = *scratch;
                execute_branch(
                    sched,
                    id,
                    &shared,
                    &[local_vi],
                    cand,
                    params,
                    inner,
                    deadline,
                    search,
                    result,
                );
            }
            // If no outstanding split task still holds the subproblem, take
            // its buffers back so the next build reuses them.
            if let Ok(sh) = Arc::try_unwrap(shared) {
                scratch.sub.recycle_graph(sh.graph, sh.to_orig);
            }
        }
        Task::Split(split) => {
            result.thread_stats.splits += 1;
            result.stats.split_executed += 1;
            execute_branch(
                sched,
                id,
                &split.shared,
                &split.s_init,
                &split.cand,
                params,
                inner,
                deadline,
                &mut scratch.search,
                result,
            );
        }
    }
}

/// Runs the configured searcher on one branch of a subproblem (the whole
/// subproblem when `s_init = [v_i]`) with the worker's reusable search
/// scratch, and maps the outputs to original-graph ids into the worker's
/// flat arena.
#[allow(clippy::too_many_arguments)]
fn execute_branch(
    sched: &Scheduler,
    id: usize,
    shared: &Arc<SubShared>,
    s_init: &[VertexId],
    cand: &[VertexId],
    params: MqceParams,
    inner: InnerAlgorithm,
    deadline: Option<Instant>,
    search: &mut SearchScratch,
    result: &mut WorkerResult,
) {
    let sink = SubSink {
        sched,
        shared: Arc::clone(shared),
        worker: id,
    };
    let kernel = shared.kernel.as_ref();
    // Containment boundary: a panicking branch fails alone. `AssertUnwindSafe`
    // is sound because on panic everything the closure mutated is discarded or
    // already consistent: the search scratch is replaced wholesale below, the
    // worker arena is untouched until the searcher returns, and
    // any branches donated through the sink before the panic are self-contained
    // tasks already counted in `outstanding` (they run independently of this
    // branch's fate). `worker_loop` still decrements `outstanding` after this
    // returns, so containment never hangs the barrier.
    let anchor = s_init.first().map(|&l| shared.to_orig[l as usize]);
    let searched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(a) = anchor {
            if params.fail_anchor == Some(a) {
                panic!("injected fault: searcher panic at anchor {a}");
            }
        }
        match inner {
            InnerAlgorithm::FastQc(branching) => run_fastqc_in(
                &shared.graph,
                kernel,
                s_init,
                cand,
                params,
                branching,
                deadline,
                Some(&sink),
                search,
            ),
            InnerAlgorithm::QuickPlus => run_quickplus_in(
                &shared.graph,
                kernel,
                s_init,
                cand,
                params,
                deadline,
                Some(&sink),
                search,
            ),
        }
    }));
    let stats = match searched {
        Ok(stats) => stats,
        Err(_) => {
            result.stats.subproblem_panics += 1;
            result.stats.last_panicked_anchor = anchor;
            *search = SearchScratch::default();
            return;
        }
    };
    result.stats.merge(&stats);
    for i in 0..search.sets.len() {
        result.raw.begin();
        for &l in search.sets.get(i) {
            result.raw.push_elem(shared.to_orig[l as usize]);
        }
        result.raw.commit_sorted();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchingStrategy, MqceParams};
    use crate::fastqc::run_fastqc_split;
    use crate::naive;
    use crate::quickplus::run_quickplus_split;
    use mqce_settrie::filter_maximal;
    use std::cell::{Cell, RefCell};

    /// A sink that accepts every offered split: the searcher donates its
    /// untaken branches at the first opportunity of every shallow frame, so
    /// the test exercises the branch-packaging arithmetic of all branching
    /// strategies deterministically (no scheduling races involved).
    struct GreedySink {
        queue: RefCell<Vec<SplitRequest>>,
        donations: Cell<usize>,
    }

    impl GreedySink {
        fn new() -> Self {
            GreedySink {
                queue: RefCell::new(Vec::new()),
                donations: Cell::new(0),
            }
        }
    }

    impl SplitSink for GreedySink {
        fn want_split(&self, _rest: usize) -> bool {
            true
        }

        fn donate(&self, branches: Vec<SplitRequest>) {
            self.donations.set(self.donations.get() + branches.len());
            self.queue.borrow_mut().extend(branches);
        }
    }

    /// Runs a whole-graph search under greedy splitting and then drains the
    /// donated-task queue to completion (tasks may re-donate), returning the
    /// union of all outputs.
    fn run_with_greedy_splits(
        g: &Graph,
        params: MqceParams,
        branching: Option<BranchingStrategy>,
    ) -> (Vec<Vec<VertexId>>, usize) {
        let sink = GreedySink::new();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut outputs = match branching {
            Some(b) => run_fastqc_split(g, None, &[], &all, params, b, None, &sink).outputs,
            None => run_quickplus_split(g, None, &[], &all, params, None, &sink).outputs,
        };
        loop {
            let task = sink.queue.borrow_mut().pop();
            let Some(task) = task else { break };
            let outcome = match branching {
                Some(b) => {
                    run_fastqc_split(g, None, &task.s_init, &task.cand, params, b, None, &sink)
                }
                None => run_quickplus_split(g, None, &task.s_init, &task.cand, params, None, &sink),
            };
            outputs.extend(outcome.outputs);
        }
        (outputs, sink.donations.get())
    }

    #[test]
    fn greedy_splitting_preserves_the_maximal_family() {
        let graphs = vec![
            Graph::paper_figure1(),
            Graph::complete(7),
            mqce_graph::generators::erdos_renyi_gnm(14, 50, 11),
        ];
        let strategies = [
            Some(BranchingStrategy::HybridSe),
            Some(BranchingStrategy::SymSe),
            Some(BranchingStrategy::Se),
            None, // Quick+
        ];
        let mut donations_by_strategy = [0usize; 4];
        for g in &graphs {
            for &gamma in &[0.5, 0.6, 0.9] {
                for theta in 2..=3 {
                    let params = MqceParams::new(gamma, theta).unwrap();
                    let expected = naive::all_maximal_quasi_cliques(g, params);
                    for (k, &branching) in strategies.iter().enumerate() {
                        let (outputs, donations) = run_with_greedy_splits(g, params, branching);
                        assert_eq!(
                            filter_maximal(&outputs),
                            expected,
                            "greedy splitting broke {branching:?} at gamma={gamma} theta={theta} \
                             on {} vertices",
                            g.num_vertices()
                        );
                        donations_by_strategy[k] += donations;
                    }
                }
            }
        }
        // Some (graph, γ, θ) combinations terminate without ever branching,
        // but over the whole grid every strategy must have donated work.
        for (k, &branching) in strategies.iter().enumerate() {
            assert!(
                donations_by_strategy[k] > 0,
                "{branching:?} never donated despite an always-hungry sink"
            );
        }
    }

    /// [`run_with_greedy_splits`] with one [`SearchScratch`] reused across
    /// the root search and every drained split task — exactly the lifetime a
    /// scheduler worker gives its scratch — instead of a fresh scratch per
    /// call. Returns the union of all outputs.
    fn run_with_greedy_splits_reused_scratch(
        g: &Graph,
        params: MqceParams,
        branching: Option<BranchingStrategy>,
    ) -> (Vec<Vec<VertexId>>, usize) {
        let sink = GreedySink::new();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut scratch = SearchScratch::default();
        let mut outputs: Vec<Vec<VertexId>> = Vec::new();
        let run = |s_init: &[VertexId], cand: &[VertexId], scratch: &mut SearchScratch| {
            match branching {
                Some(b) => {
                    run_fastqc_in(g, None, s_init, cand, params, b, None, Some(&sink), scratch);
                }
                None => {
                    run_quickplus_in(g, None, s_init, cand, params, None, Some(&sink), scratch);
                }
            }
            scratch.sets.to_vecs()
        };
        outputs.extend(run(&[], &all, &mut scratch));
        loop {
            let task = sink.queue.borrow_mut().pop();
            let Some(task) = task else { break };
            outputs.extend(run(&task.s_init, &task.cand, &mut scratch));
        }
        (outputs, sink.donations.get())
    }

    #[test]
    fn forced_splits_with_reused_scratch_match_fresh_scratch() {
        // Differential half of the greedy-split test: under identical forced
        // splitting, a worker-lifetime scratch (reused across the root run
        // and every donated task) must reproduce the fresh-scratch raw
        // stream exactly. A buffer leaking state across a split boundary
        // would desynchronise the two runs.
        let g = mqce_graph::generators::erdos_renyi_gnm(14, 50, 11);
        let mut total_donations = 0usize;
        for &gamma in &[0.5, 0.6, 0.9] {
            for theta in 2..=3 {
                let params = MqceParams::new(gamma, theta).unwrap();
                for branching in [
                    Some(BranchingStrategy::HybridSe),
                    Some(BranchingStrategy::Se),
                    None,
                ] {
                    let (fresh, _) = run_with_greedy_splits(&g, params, branching);
                    let (reused, donations) =
                        run_with_greedy_splits_reused_scratch(&g, params, branching);
                    assert_eq!(
                        reused, fresh,
                        "reused scratch diverged for {branching:?} gamma={gamma} theta={theta}"
                    );
                    total_donations += donations;
                }
            }
        }
        // The differential is only meaningful if splits actually happened.
        assert!(total_donations > 0, "the greedy sink never forced a split");
    }

    #[test]
    fn parallel_estimates_match_sequential() {
        use crate::dc::DcConfig;
        for (n, m, seed) in [(40usize, 160usize, 3u64), (120, 900, 8), (7, 10, 1)] {
            let g = mqce_graph::generators::erdos_renyi_gnm(n, m, seed);
            let params = MqceParams::new(0.9, 3).unwrap();
            let plan = DcPlan::for_graph(&g, params, DcConfig::paper_default());
            let sequential = subproblem_estimates(&plan, &plan.ordering);
            for threads in [1usize, 2, 3, 8, 64] {
                let mut scratches: Vec<DcScratch> =
                    (0..threads).map(|_| DcScratch::default()).collect();
                let (parallel, millis) =
                    subproblem_estimates_parallel(&plan, &plan.ordering, threads, &mut scratches);
                assert_eq!(parallel, sequential, "threads={threads} n={n}");
                // One timing slot per worker (a single slot when the
                // sequential path was taken), all finite and non-negative.
                assert!(millis.len() <= threads.max(1));
                assert!(millis.iter().all(|ms| ms.is_finite() && *ms >= 0.0));
            }
        }
    }

    #[test]
    fn estimates_match_subproblem_sizes() {
        use crate::dc::DcConfig;
        let g = mqce_graph::generators::erdos_renyi_gnm(40, 160, 3);
        let params = MqceParams::new(0.9, 3).unwrap();
        let dc = DcConfig::paper_default();
        let plan = DcPlan::for_graph(&g, params, dc);
        let estimates = subproblem_estimates(&plan, &plan.ordering);
        let mut scratch = DcScratch::default();
        for (i, &vi) in plan.ordering.iter().enumerate() {
            let mut stats = SearchStats::default();
            let before = stats.dc_vertices_before_pruning;
            let _ = build_subproblem_in(&plan, vi, &mut stats, &mut scratch);
            assert_eq!(
                estimates[i] as u64,
                stats.dc_vertices_before_pruning - before,
                "estimate mismatch at anchor {vi}"
            );
        }
    }

    #[test]
    fn work_stealing_contains_injected_searcher_panics() {
        use crate::dc::DcConfig;
        let g = mqce_graph::generators::erdos_renyi_gnm(20, 95, 11);
        let dc = DcConfig::paper_default();
        let mut params = MqceParams::new(0.85, 3).unwrap();
        let plan = DcPlan::for_graph(&g, params, dc);

        // Find an anchor whose subproblem actually reaches the searcher.
        let mut scratch = DcScratch::default();
        let mut probe_stats = SearchStats::default();
        let anchor = plan
            .ordering
            .iter()
            .find_map(|&vi| {
                build_subproblem_in(&plan, vi, &mut probe_stats, &mut scratch).map(|(sub, _)| {
                    scratch.sub.recycle(sub);
                    plan.reduced.to_global[vi as usize]
                })
            })
            .expect("no executing subproblem");
        params.fail_anchor = Some(anchor);
        let plan = DcPlan::for_graph(&g, params, dc);

        // The run must complete (no hung barrier), contain the panic(s) —
        // donated splits of the poisoned subproblem share its anchor and may
        // re-panic on other workers — and keep every other subproblem's
        // outputs intact.
        let outcome =
            run_dc_work_stealing(&plan, &plan.ordering, InnerAlgorithm::QuickPlus, 3, None);
        assert!(outcome.stats.subproblem_panics >= 1);
        assert_eq!(outcome.stats.last_panicked_anchor, Some(anchor));
        assert!(!outcome.stats.timed_out);

        let expected = naive::all_maximal_quasi_cliques(&g, params);
        for h in &outcome.outputs {
            assert!(
                expected.iter().any(|e| h.iter().all(|v| e.contains(v))),
                "contained run produced a set outside the true family: {h:?}"
            );
        }
        let filtered = filter_maximal(&outcome.outputs);
        for e in expected.iter().filter(|e| !e.contains(&anchor)) {
            assert!(
                filtered.contains(e),
                "maximal QC {e:?} (not involving the panicked anchor) was lost"
            );
        }
    }
}
