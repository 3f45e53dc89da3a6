//! Work-stealing scheduler: runs the divide-and-conquer subproblems at
//! every thread count.
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
//! * **Seeding** — subproblems enter the deques round-robin in the order
//!   the anchors arrive (the plan's degeneracy ordering, or an incremental
//!   run's dirty anchors). No cost model reorders them: a heavy subproblem
//!   that starts late is split across the idle workers instead.
//! * **Stealing** — a worker pops from the front of its own deque (its
//!   earliest seed) and steals from the back of a victim's.
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
//! One-thread runs take the same path with one worker: it drains its own
//! deque, is never hungry while work remains, and so never steals or
//! splits. Its outputs are exactly those of running every subproblem to
//! completion in plan order, which is the paper's Algorithm 3 loop.
//!
//! Splitting is *output-sound*: a stolen branch reproduces exactly the
//! outputs the donor's recursion would have produced from the same
//! `(S, C, D)` state, and the only divergence from an unsplit run is
//! that the donor no longer learns whether a donated branch found a
//! quasi-clique, so the non-hereditary "additional step" may emit a few
//! extra *valid* (but dominated) quasi-cliques. MQCE-S2 removes those, so
//! the final maximal family is identical at every thread count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mqce_graph::bitset::AdjacencyMatrix;
use mqce_graph::{Graph, InducedSubgraph, VertexId};
use mqce_settrie::SetArena;

use crate::branch::{FlatOutcome, SearchScratch};
use crate::config::MqceParams;
use crate::dc::{build_subproblem_in, DcPlan, DcScratch, InnerAlgorithm};
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
/// scheduler's per-subproblem sink; the searcher only sees this trait, and
/// searches outside the scheduler (whole-graph and query runs) pass none.
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
/// in plan order) and thieves steal from the back; both go through the
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

/// Everything one worker accumulated over the run. Mapped outputs are packed
/// into a flat arena, which S2 takes over as it is.
struct WorkerResult {
    raw: SetArena,
    stats: SearchStats,
    thread_stats: ThreadStats,
}

/// Runs the subproblems of `anchors` on `num_threads` workers with work
/// stealing and cooperative intra-subproblem splitting. Returns every
/// worker's arena, the merged search counters and per-thread counters.
pub(crate) fn run_dc_work_stealing(
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    num_threads: usize,
    deadline: Option<Instant>,
) -> FlatOutcome {
    let sched = Scheduler::new(num_threads, plan.params.steal_granularity);
    sched.outstanding.store(anchors.len(), Ordering::SeqCst);
    sched.queued.store(anchors.len(), Ordering::SeqCst);
    // Round-robin in plan order: each deque holds its share of the anchors
    // in the order they arrived, so one worker runs them as Algorithm 3's
    // loop does.
    for idx in 0..anchors.len() {
        sched.deques[idx % num_threads].push_back(Task::Root(idx));
    }

    let sched_ref = &sched;
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_threads)
            .map(|id| {
                scope.spawn(move || worker_loop(sched_ref, id, plan, anchors, inner, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut outcome = FlatOutcome::default();
    for result in results {
        outcome.stats.merge(&result.stats);
        outcome.sets.push(result.raw);
        outcome.thread_stats.push(result.thread_stats);
    }
    outcome
}

fn worker_loop(
    sched: &Scheduler,
    id: usize,
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    deadline: Option<Instant>,
) -> WorkerResult {
    // One reusable scratch for every subproblem and stolen split task this
    // worker executes.
    let mut scratch = DcScratch::default();
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

/// Runs the root tasks of `anchors`, in order, through the task body of a
/// one-worker scheduler with the caller's scratch (no thread). Returns the mapped outputs in emission order and the merged
/// statistics.
#[cfg(test)]
pub(crate) fn run_roots_in(
    plan: &DcPlan,
    anchors: &[VertexId],
    inner: InnerAlgorithm,
    scratch: &mut DcScratch,
) -> (Vec<Vec<VertexId>>, SearchStats) {
    let sched = Scheduler::new(1, plan.params.steal_granularity);
    let mut result = WorkerResult {
        raw: SetArena::new(),
        stats: SearchStats::default(),
        thread_stats: ThreadStats::default(),
    };
    for idx in 0..anchors.len() {
        let task = Task::Root(idx);
        run_task(
            &sched,
            0,
            task,
            plan,
            anchors,
            inner,
            None,
            scratch,
            &mut result,
        );
    }
    (result.raw.to_vecs(), result.stats)
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
    // Containment boundary: a panicking branch fails alone instead of
    // tearing down the whole enumeration (the serve daemon answers many
    // requests from one process and must outlive any bad subproblem).
    // `AssertUnwindSafe` is sound because on panic everything the closure
    // mutated is discarded or already consistent: the search scratch is
    // replaced wholesale below, the worker arena is untouched until the
    // searcher returns, and any branches donated through the sink before the
    // panic are self-contained tasks already counted in `outstanding` (they
    // run independently of this branch's fate). `worker_loop` still decrements `outstanding` after this
    // returns, so containment never hangs the barrier.
    let anchor = s_init.first().map(|&l| shared.to_orig[l as usize]);
    let searched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(a) = anchor {
            if params.fail_anchor == Some(a) {
                panic!("injected fault: searcher panic at anchor {a}");
            }
        }
        inner.search(
            &shared.graph,
            kernel,
            s_init,
            cand,
            params,
            deadline,
            Some(&sink),
            search,
        )
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
    use crate::naive;
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
    /// union of all outputs and the number of donated branches. With
    /// `reuse_scratch` one [`SearchScratch`] serves the root search and
    /// every drained split task — exactly the lifetime a scheduler worker
    /// gives its scratch — instead of a fresh scratch per call.
    fn run_with_greedy_splits(
        g: &Graph,
        params: MqceParams,
        inner: InnerAlgorithm,
        reuse_scratch: bool,
    ) -> (Vec<Vec<VertexId>>, usize) {
        let sink = GreedySink::new();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut scratch = SearchScratch::default();
        let mut run = |s_init: &[VertexId], cand: &[VertexId]| {
            if !reuse_scratch {
                scratch = SearchScratch::default();
            }
            inner.search(
                g,
                None,
                s_init,
                cand,
                params,
                None,
                Some(&sink),
                &mut scratch,
            );
            scratch.sets.to_vecs()
        };
        let mut outputs = run(&[], &all);
        loop {
            let task = sink.queue.borrow_mut().pop();
            let Some(task) = task else { break };
            outputs.extend(run(&task.s_init, &task.cand));
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
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            InnerAlgorithm::FastQc(BranchingStrategy::SymSe),
            InnerAlgorithm::FastQc(BranchingStrategy::Se),
            InnerAlgorithm::QuickPlus,
        ];
        let mut donations_by_strategy = [0usize; 4];
        for g in &graphs {
            for &gamma in &[0.5, 0.6, 0.9] {
                for theta in 2..=3 {
                    let params = MqceParams::new(gamma, theta).unwrap();
                    let expected = naive::all_maximal_quasi_cliques(g, params);
                    for (k, &inner) in strategies.iter().enumerate() {
                        let (outputs, donations) = run_with_greedy_splits(g, params, inner, false);
                        assert_eq!(
                            filter_maximal(&outputs),
                            expected,
                            "greedy splitting broke {inner:?} at gamma={gamma} theta={theta} \
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
        for (k, &inner) in strategies.iter().enumerate() {
            assert!(
                donations_by_strategy[k] > 0,
                "{inner:?} never donated despite an always-hungry sink"
            );
        }
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
                for inner in [
                    InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
                    InnerAlgorithm::FastQc(BranchingStrategy::Se),
                    InnerAlgorithm::QuickPlus,
                ] {
                    let (fresh, _) = run_with_greedy_splits(&g, params, inner, false);
                    let (reused, donations) = run_with_greedy_splits(&g, params, inner, true);
                    assert_eq!(
                        reused, fresh,
                        "reused scratch diverged for {inner:?} gamma={gamma} theta={theta}"
                    );
                    total_donations += donations;
                }
            }
        }
        // The differential is only meaningful if splits actually happened.
        assert!(total_donations > 0, "the greedy sink never forced a split");
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
            run_dc_work_stealing(&plan, &plan.ordering, InnerAlgorithm::QuickPlus, 3, None).boxed();
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
