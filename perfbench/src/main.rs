//! `perfprobe`: the in-process half of the mqce benchmark.
//!
//! `run.py` drives the release `mqce` binary as a user would and calls this
//! helper for everything that needs the library itself:
//!
//! * `gen` writes the seeded input graphs;
//! * `setup` times one `load_edge_list` + `PreparedGraph::new`, the set-up a
//!   CLI run pays before any search starts;
//! * `reference` computes the per-seed correctness reference through a
//!   second path (one thread, inverted S2 backend) and checks it with
//!   `verify_mqc_set`;
//! * `digest` reduces a printed family to a count plus an order-independent
//!   hash, so two families compare without holding both in memory;
//! * `pipeline` times one load → prepare → `Session::run` with span
//!   recording off, the untraced half of the tracing-overhead figure;
//! * `layers` is the traced run: it records a span around each call into a
//!   layer's public API and reports per-layer times and counts.
//!
//! Every subcommand prints one JSON object on stdout and exits non-zero on
//! any failure.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::time::Instant;

use mqce_core::{solve_s1, verify_mqc_set, MqceConfig, PreparedGraph, S2Backend, Session};
use mqce_graph::core_decomp::core_decomposition;
use mqce_graph::edge_list::load_edge_list;
use mqce_graph::generators::erdos_renyi_density;
use mqce_graph::{Graph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serde_json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&args).and_then(|a| match a.positional(0)? {
        "gen" => cmd_gen(&a),
        "setup" => cmd_setup(&a),
        "reference" => cmd_reference(&a),
        "digest" => cmd_digest(&a),
        "pipeline" => cmd_pipeline(&a),
        "layers" => cmd_layers(&a),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(fields) => println!("{}", render(fields)),
        Err(err) => {
            eprintln!("perfprobe: {err}");
            std::process::exit(2);
        }
    }
}

/// Positional arguments plus `--key value` options.
struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut options = BTreeMap::new();
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = iter.next().ok_or(format!("--{key} needs a value"))?;
                    options.insert(key.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn positional(&self, i: usize) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or(format!("missing positional argument {i}"))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.options.get(key).ok_or(format!("missing --{key}"))?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse {raw:?}"))
    }

    fn config(&self) -> Result<MqceConfig, String> {
        MqceConfig::new(self.get("gamma")?, self.get("theta")?).map_err(|e| e.to_string())
    }
}

/// The fields of a subcommand's JSON object, in print order.
type Fields = Vec<(String, Value)>;

/// Lets a raw [`Value`] go through `serde_json::to_string` (the vendored
/// `Value` does not implement `Serialize`).
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn render(fields: Fields) -> String {
    serde_json::to_string(&Raw(Value::Object(fields))).expect("value rendering is infallible")
}

/// A JSON number. JSON has no NaN or infinity; a ratio with an empty base
/// reads 0.
fn num(key: &str, value: f64) -> (String, Value) {
    let value = if value.is_finite() { value } else { 0.0 };
    (key.to_string(), Value::Num(value))
}

fn load(path: &str) -> Result<Graph, String> {
    load_edge_list(path)
        .map(|loaded| loaded.graph)
        .map_err(|e| format!("cannot read {path}: {e}"))
}

// ---------------------------------------------------------------- gen

/// A planted-partition community graph whose community sizes are drawn from
/// [avg·(1 − spread), avg·(1 + spread)] and then rebalanced to sum to `n`
/// *within* those bounds. (`mqce generate community` gives all leftover
/// vertices to its last community, so some seeds plant one dense block that
/// never finishes.)
fn balanced_community_graph(
    n: usize,
    communities: usize,
    size_spread: f64,
    p_intra: f64,
    inter_degree: f64,
    seed: u64,
) -> (Graph, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let avg = n as f64 / communities as f64;
    let lo = (avg * (1.0 - size_spread)).ceil() as usize;
    let hi = (avg * (1.0 + size_spread)).floor() as usize;
    let mut sizes: Vec<usize> = (0..communities).map(|_| rng.gen_range(lo..=hi)).collect();
    let mut total: usize = sizes.iter().sum();
    while total != n {
        let i = rng.gen_range(0..communities);
        if total < n && sizes[i] < hi {
            sizes[i] += 1;
            total += 1;
        } else if total > n && sizes[i] > lo {
            sizes[i] -= 1;
            total -= 1;
        }
    }
    let mut community = Vec::with_capacity(n);
    let mut b = GraphBuilder::new(n);
    let mut start = 0usize;
    for (cid, &size) in sizes.iter().enumerate() {
        for u in start..start + size {
            community.push(cid);
            for v in (u + 1)..start + size {
                if rng.gen_bool(p_intra) {
                    b.add_edge(u as VertexId, v as VertexId);
                }
            }
        }
        start += size;
    }
    let inter_edges = (inter_degree * n as f64 / 2.0).round() as usize;
    let mut added = 0;
    while added < inter_edges {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if community[u] != community[v] && !b.has_edge(u as VertexId, v as VertexId) {
            b.add_edge(u as VertexId, v as VertexId);
            added += 1;
        }
    }
    (b.build(), sizes.iter().copied().max().unwrap_or(0))
}

/// `g` with its vertex ids permuted by a permutation drawn from `seed`.
fn relabel(g: &Graph, seed: u64) -> Graph {
    let mut perm: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.add_edges(g.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])));
    b.build()
}

/// Writes an edge list that loads back with the same vertex ids. The loader
/// numbers vertices in order of first appearance and skips self-loops, so
/// one `v v` line per vertex, in order, pins id `v` to label `v` (and keeps
/// isolated vertices). Clients of `mqce serve` can then name vertices and
/// edges by their file labels.
fn save_identity_edge_list(g: &Graph, path: &str) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for v in 0..g.num_vertices() {
        writeln!(w, "{v} {v}")?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Generates the structure from `--structure-seed` and permutes its vertex
/// ids by `--seed`: the seed changes every id-dependent choice (degeneracy
/// order tie-breaks, the DC decomposition, task order, the ids the serve
/// traffic names) but not the amount of work, which independent samples do.
fn cmd_gen(a: &Args) -> Result<Fields, String> {
    let kind = a.positional(1)?;
    let out = a.positional(2)?;
    let structure_seed: u64 = a.get("structure-seed")?;
    let n: usize = a.get("n")?;
    let (g, max_community) = match kind {
        "community" => balanced_community_graph(
            n,
            a.get("communities")?,
            a.get("size-spread")?,
            a.get("p-intra")?,
            a.get("inter-degree")?,
            structure_seed,
        ),
        "er" => (erdos_renyi_density(n, a.get("density")?, structure_seed), 0),
        other => return Err(format!("unknown graph kind {other:?}")),
    };
    let g = relabel(&g, a.get("seed")?);
    save_identity_edge_list(&g, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(vec![
        num("vertices", g.num_vertices() as f64),
        num("edges", g.num_edges() as f64),
        num("degeneracy", core_decomposition(&g).degeneracy as f64),
        num("max_community", max_community as f64),
    ])
}

// ---------------------------------------------------------------- setup

/// One load + prepare in this fresh process, as a CLI run pays it.
fn cmd_setup(a: &Args) -> Result<Fields, String> {
    let path = a.positional(1)?;
    let t0 = Instant::now();
    let g = load(path)?;
    let t1 = Instant::now();
    let prepared = std::hint::black_box(PreparedGraph::new(g));
    let t2 = Instant::now();
    drop(prepared);
    Ok(vec![
        num("load_s", (t1 - t0).as_secs_f64()),
        num("prepare_s", (t2 - t1).as_secs_f64()),
    ])
}

// ---------------------------------------------------------------- digest

/// Count plus an order-independent hash of a family: the wrapping sum of a
/// mixed FNV-1a hash of each sorted set. Removing, adding or changing any
/// one set changes it.
#[derive(Default, PartialEq, Eq, Clone, Copy)]
struct Digest {
    count: u64,
    sum: u64,
}

impl Digest {
    fn add(&mut self, set: &[VertexId]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &v in set {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        // splitmix64 finaliser, so the sum of hashes has no linear structure.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    fn of(family: &[Vec<VertexId>]) -> Digest {
        let mut d = Digest::default();
        family.iter().for_each(|set| d.add(set));
        d
    }

    fn fields(&self) -> Fields {
        vec![
            num("count", self.count as f64),
            (
                "digest".to_string(),
                Value::Str(format!("{:016x}", self.sum)),
            ),
        ]
    }
}

/// Digests the sets of a `mqce enumerate --print-sets` report: every line
/// that starts with a digit is one set (the report's other lines start with
/// a letter).
fn cmd_digest(a: &Args) -> Result<Fields, String> {
    let path = a.positional(1)?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut digest = Digest::default();
    let mut set = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("cannot read {path}: {e}"))?;
        if !line.starts_with(|c: char| c.is_ascii_digit()) {
            continue;
        }
        set.clear();
        for token in line.split_ascii_whitespace() {
            set.push(
                token
                    .parse()
                    .map_err(|_| format!("bad set line {line:?}"))?,
            );
        }
        set.sort_unstable();
        digest.add(&set);
    }
    Ok(digest.fields())
}

// ---------------------------------------------------------------- reference

/// `verify_mqc_set` checks containment pairwise, which is quadratic in the
/// family; it runs on consecutive chunks of the sorted family so every set
/// gets the quasi-clique and one-vertex-extension checks and containment is
/// checked among lexicographic neighbours.
const VERIFY_CHUNK: usize = 256;

fn cmd_reference(a: &Args) -> Result<Fields, String> {
    let g = load(a.positional(1)?)?;
    let out = a.positional(2)?;
    let config = a.config()?.with_s2_backend(S2Backend::Inverted);
    let t0 = Instant::now();
    let result = Session::open(g.clone()).config(config).threads(1).run();
    let run_s = t0.elapsed().as_secs_f64();
    if result.timed_out() || result.stats.subproblem_panics > 0 {
        return Err("the reference run did not complete exactly".to_string());
    }
    let t1 = Instant::now();
    // Two workers, one per core the workloads are sized for.
    let chunks: Vec<&[Vec<VertexId>]> = result.mqcs.chunks(VERIFY_CHUNK).collect();
    let violations: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (g, chunks) = (&g, &chunks);
                scope.spawn(move || {
                    chunks
                        .iter()
                        .skip(w)
                        .step_by(2)
                        .map(|chunk| verify_mqc_set(g, chunk, config.params).violations.len())
                        .sum::<usize>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("verification worker panicked"))
            .sum()
    });
    let verify_s = t1.elapsed().as_secs_f64();
    let file = std::fs::File::create(out).map_err(|e| format!("cannot write {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    for set in &result.mqcs {
        let line: Vec<String> = set.iter().map(u32::to_string).collect();
        writeln!(w, "{}", line.join(" ")).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    let mut out = Digest::of(&result.mqcs).fields();
    out.extend([
        num("violations", violations as f64),
        num("run_s", run_s),
        num("verify_s", verify_s),
    ]);
    Ok(out)
}

// ---------------------------------------------------------------- layers

/// One recorded call into a layer; `parent` is the `id` of the enclosing
/// span, times are seconds since the tracer started.
#[derive(Serialize)]
struct Span {
    id: usize,
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder. Spans of one operation share `op`; nesting is
/// tracked with a stack. Nothing is written until the run ends.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn next_op(&mut self) {
        self.op += 1;
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
        });
        self.stack.push(id);
        let value = f(self);
        self.stack.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        value
    }

    /// Seconds of the last span called `name`.
    fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::secs)
    }

    /// Self time per span name: each span's duration minus what its direct
    /// children cover, summed by name.
    fn self_times(&self) -> Value {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.secs();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            *by_name.entry(s.name).or_insert(0.0) += s.secs() - child;
        }
        Value::Object(by_name.into_iter().map(|(k, v)| num(k, v)).collect())
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let text = serde_json::to_string_pretty(&self.spans).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Load → prepare → `Session::run`, the in-process equivalent of one CLI
/// enumeration. Returns the result and the wall time of the whole operation.
fn pipeline(
    tracer: &mut Tracer,
    path: &str,
    config: MqceConfig,
    threads: usize,
) -> Result<(mqce_core::MqceResult, f64), String> {
    tracer.next_op();
    let t0 = Instant::now();
    let result = tracer.span("op.enumerate", |t| {
        let g = t.span("graph.load_edge_list", |_| load(path))?;
        let prepared = t.span("core.PreparedGraph::new", |_| PreparedGraph::new(g));
        let session = Session::open_prepared(std::sync::Arc::new(prepared))
            .config(config)
            .threads(threads);
        Ok::<_, String>(t.span("core.Session::run", |_| session.run()))
    })?;
    Ok((result, t0.elapsed().as_secs_f64()))
}

/// One untraced pipeline in this fresh process: the cold-start baseline the
/// traced run's first operation is compared with.
fn cmd_pipeline(a: &Args) -> Result<Fields, String> {
    let (result, secs) = pipeline(
        &mut Tracer::new(false),
        a.positional(1)?,
        a.config()?,
        a.get("threads")?,
    )?;
    let mut out = Digest::of(&result.mqcs).fields();
    out.push(num("pipeline_s", secs));
    Ok(out)
}

/// Feeds `stream` into a fresh engine of `backend` and finishes it.
fn feed(
    tracer: &mut Tracer,
    backend: S2Backend,
    stream: &[Vec<VertexId>],
) -> (mqce_settrie::S2Outcome, f64) {
    let (op, add, finish) = match backend {
        S2Backend::Auto => ("op.s2.auto", "settrie.auto.add", "settrie.auto.finish"),
        S2Backend::Inverted => (
            "op.s2.inverted",
            "settrie.inverted.add",
            "settrie.inverted.finish",
        ),
        S2Backend::Bitset => (
            "op.s2.bitset",
            "settrie.bitset.add",
            "settrie.bitset.finish",
        ),
        S2Backend::Extremal => (
            "op.s2.extremal",
            "settrie.extremal.add",
            "settrie.extremal.finish",
        ),
    };
    tracer.next_op();
    let t0 = Instant::now();
    let outcome = tracer.span(op, |t| {
        let mut engine = backend.new_engine();
        t.span(add, |_| {
            for set in stream {
                engine.add(set);
            }
        });
        t.span(finish, |_| engine.finish_with_deadline(None))
    });
    (outcome, t0.elapsed().as_secs_f64())
}

fn cmd_layers(a: &Args) -> Result<Fields, String> {
    let path = a.positional(1)?;
    let spans_out = a.positional(2)?;
    let config = a.config()?;
    let threads: usize = a.get("threads")?;
    let mut t = Tracer::new(true);

    // The workload's pipeline comes first, so it starts as cold as a CLI
    // run and as `pipeline` in its own process: the CLI's residual and the
    // tracing overhead compare like with like.
    let (run_n, traced_s) = pipeline(&mut t, path, config, threads)?;
    let mut out = vec![
        num("pipeline_s", traced_s),
        num("graph.load_s", t.secs("graph.load_edge_list")),
        num("core.prepare_s", t.secs("core.PreparedGraph::new")),
    ];

    let g = load(path)?;
    t.next_op();
    let cores = t.span("graph.core_decomposition", |_| core_decomposition(&g));
    out.extend([
        num(
            "graph.core_decomposition_s",
            t.secs("graph.core_decomposition"),
        ),
        num("graph.vertices", g.num_vertices() as f64),
        num("graph.edges", g.num_edges() as f64),
        num("graph.degeneracy", cores.degeneracy as f64),
    ]);

    // S1 alone, then the streaming pipeline on one thread: their difference
    // is the inline S2 probe cost that `s1_time` hides.
    t.next_op();
    let s1 = t.span("core.solve_s1", |_| solve_s1(&g, &config));
    let run_1 = if threads > 1 {
        let session = Session::open(g.clone()).config(config).threads(1);
        t.next_op();
        t.span("core.Session::run[1 thread]", |_| session.run())
    } else {
        run_n.clone()
    };
    let s1_s = t.secs("core.solve_s1");
    let s1_streaming_s = run_1.s1_time.as_secs_f64();
    out.extend([
        num("core.s1_s", s1_s),
        num("core.s1_streaming_s", s1_streaming_s),
        num("core.s2_s", run_1.s2_time.as_secs_f64()),
        num("core.s2_inline_s", s1_streaming_s - s1_s),
        num("core.branches", run_1.stats.branches as f64),
        num("core.s1_outputs", run_1.stats.outputs as f64),
        num(
            "core.output_yield",
            run_1.mqcs.len() as f64 / run_1.stats.outputs as f64,
        ),
    ]);

    // Scheduler balance of the run at the workload's thread count. A
    // sequential run has one always-busy worker.
    let ts = &run_n.thread_stats;
    let busy: Vec<f64> = ts.iter().map(|t| t.busy_millis).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let (busy_frac_min, imbalance) = if ts.is_empty() {
        (1.0, 1.0)
    } else {
        (
            ts.iter()
                .map(|t| t.busy_fraction())
                .fold(f64::MAX, f64::min),
            busy.iter().copied().fold(0.0, f64::max) / mean_busy,
        )
    };
    out.extend([
        num("core.scheduler.busy_frac_min", busy_frac_min),
        num("core.scheduler.imbalance", imbalance),
        num(
            "core.scheduler.steals",
            ts.iter().map(|t| t.steals).sum::<u64>() as f64,
        ),
        num(
            "core.scheduler.splits",
            ts.iter().map(|t| t.splits).sum::<u64>() as f64,
        ),
    ]);

    // S2 on the recorded S1 stream: the auto engine, then every concrete
    // backend on the same stream for the dispatcher audit.
    let stream = &s1.outputs;
    let (auto, auto_s) = feed(&mut t, S2Backend::Auto, stream);
    let mut concrete_s = Vec::new();
    for backend in S2Backend::concrete() {
        let (outcome, secs) = feed(&mut t, backend, stream);
        if outcome.mqcs != auto.mqcs {
            return Err(format!("S2 backend {} disagrees with auto", backend.name()));
        }
        concrete_s.push(secs);
    }
    let best = concrete_s.iter().copied().fold(f64::MAX, f64::min);
    // |ln(predicted / measured)| for the backend the dispatcher picked: 0 is
    // an exact prediction, ln 2 ≈ 0.69 a factor of two either way. It reads
    // 0 when the model did not decide (`settrie.dispatch_modeled` = 0).
    let decision = auto.decision.filter(|d| d.modeled);
    let dispatch_error = decision.map_or(0.0, |d| {
        let i = S2Backend::concrete()
            .iter()
            .position(|&b| b == d.chosen)
            .expect("the dispatcher picks a concrete backend");
        (d.predicted_millis[i] / (concrete_s[i] * 1e3)).ln().abs()
    });
    let streamed = run_1.s2.sets_streamed as f64;
    let retained = run_1.s2.sets_retained as f64;
    out.extend([
        num("settrie.add_s", t.secs("settrie.auto.add")),
        num("settrie.finish_s", t.secs("settrie.auto.finish")),
        num("settrie.sets_streamed", streamed),
        num("settrie.sets_retained", retained),
        num("settrie.retained_frac", retained / streamed),
        num("settrie.auto_vs_best", auto_s / best),
        num("settrie.dispatch_error", dispatch_error),
        num(
            "settrie.dispatch_modeled",
            f64::from(u8::from(decision.is_some())),
        ),
        (
            "settrie.auto_backend".to_string(),
            Value::Str(auto.backend.to_string()),
        ),
    ]);

    // Both in-process runs must give the same family; run.py compares the
    // digest with the reference and the CLI's.
    if run_1.mqcs != run_n.mqcs || run_1.timed_out() || run_n.timed_out() {
        return Err("in-process runs disagree or timed out".to_string());
    }
    out.extend(Digest::of(&run_n.mqcs).fields());
    out.extend([
        ("self_s".to_string(), t.self_times()),
        num("spans", t.spans.len() as f64),
    ]);
    t.write(spans_out)?;
    Ok(out)
}
