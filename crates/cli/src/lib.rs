//! Implementation of the `mqce` command-line tool.
//!
//! The binary is a thin wrapper around [`run`], which parses the sub-command,
//! loads the graph, calls into `mqce-core`, and writes a plain-text report to
//! the supplied writer (so the integration tests can capture it).
//!
//! Sub-commands:
//!
//! * `stats <graph>` — dataset statistics (the columns of Table 1).
//! * `enumerate <graph> --gamma γ --theta θ [...]` — run the MQCE pipeline.
//! * `topk <graph> --gamma γ --k k` — the k largest maximal quasi-cliques.
//! * `query <graph> --gamma γ --theta θ --vertices a,b,c` — MQCs containing
//!   the given vertices.
//! * `generate <kind> <output> [...]` — write a synthetic benchmark graph.
//! * `convert <input> <output>` — convert between edge-list / DIMACS / METIS.
//! * `serve <graph> [...]` — resident daemon: load the graph once, answer
//!   newline-delimited JSON requests over TCP or a Unix socket, with a
//!   result cache and admission control (see [`serve`]).
//! * `client [...]` — send requests to a running daemon.
//! * `help` — usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod protocol;
pub mod serve;

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use mqce_core::prelude::*;
use mqce_core::query::find_mqcs_containing;
use mqce_core::verify::verify_mqc_set;
use mqce_core::{find_largest_mqcs, Algorithm, BranchingStrategy, PreparedGraph};
use mqce_graph::{formats, generators, Graph, GraphStats, VertexId};

use args::{parse, ArgError, ParsedArgs};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// The sub-command is not recognised.
    UnknownCommand(String),
    /// A graph file could not be read or written.
    Io(String),
    /// Invalid problem parameters.
    Params(String),
    /// Anything else (query errors, verification failures, …).
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(cmd) => {
                write!(f, "unknown command {cmd:?}; run `mqce help` for usage")
            }
            CliError::Io(msg) | CliError::Params(msg) | CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text printed by `mqce help`.
pub const USAGE: &str = "\
mqce — maximal quasi-clique enumeration (FastQC / DCFastQC, SIGMOD'24)

USAGE:
  mqce stats <graph>
  mqce enumerate <graph> --gamma G --theta T [--algorithm A] [--branching B]
                 [--max-round N] [--threads N] [--steal-granularity N]
                 [--time-limit-secs S] [--print-sets] [--verify]
  mqce topk <graph> --gamma G [--k K]
  mqce query <graph> --gamma G --theta T --vertices V1,V2,...
  mqce generate <kind> <output> [--n N] [--density D] [--seed S]
                [--communities C] [--p-intra P] [--cave-size K] [--avg-degree A]
  mqce convert <input> <output>
  mqce serve <graph> [--addr HOST:PORT] [--socket PATH] [--max-inflight N]
             [--cache-capacity N] [--bench-log PATH] [--wal PATH]
             [--fault-injection] [--quiet]
  mqce client [--addr HOST:PORT] [--socket PATH] [--retry-secs S]
              [--requests FILE] [--cmd C --gamma G --theta T ...]
              [--fault MODE] [--shutdown]
  mqce help

GRAPH FILES: format chosen by extension — .clq/.dimacs/.col (DIMACS),
  .graph/.metis (METIS), anything else is a whitespace edge list.

ALGORITHMS (--algorithm): dcfastqc (default), fastqc, bdcfastqc, quickplus,
  quickplus-raw, naive.
BRANCHING (--branching): sym (default), hybrid, se. All three find the same
  family; sym explored the fewest branches on every workload measured.
THREADS (--threads): worker count for the DC subproblems; 0 auto-detects
  the available parallelism of the machine. Default 1. Workers (one
  included) run a work-stealing scheduler; busy searchers split untaken
  branches off to idle workers (see the README section on parallel
  execution).
STEAL GRANULARITY (--steal-granularity): minimum number of untaken sibling
  branches a searcher donates per split (default 2); 0 disables
  intra-subproblem splitting (whole subproblems are still stolen).
GENERATOR KINDS: er, ba, community, caveman, powerlaw, grid, hub.
SERVE: the daemon loads the graph (plus its core decomposition and
  degeneracy ordering) once and answers newline-delimited JSON
  requests — {\"cmd\":\"enumerate\"|\"query\"|\"topk\"|\"ping\"|\"shutdown\", ...} with
  per-request gamma/theta/k/vertices/algorithm/threads/deadline_ms knobs.
  Complete answers land in an LRU result cache; at most --max-inflight
  enumerations run at once; a spent deadline_ms budget returns immediately
  with best_effort=true. `mqce client` drives a running daemon and exits
  non-zero if any response reports ok=false; idempotent reads (ping,
  enumerate, query, topk) are retried once on a transient connection reset.
  A worker panic is contained to its DC subproblem (the response reports
  contained_panics and is flagged best-effort); a handler panic becomes an
  ok=false internal-error response on the same connection. With --wal PATH
  every update is appended to a checksummed write-ahead log (fsync'd before
  it is applied; the response reports the wal_offset watermark) and replayed
  on startup, so a crashed daemon restarts to its exact pre-crash graph.
  Only inserts grow the graph: an update whose k inserts name an id at or
  above n + 2k (n = current vertex count) is refused before it is logged.
  --fault-injection enables the debug-only per-request fault field
  (panic | panic-locked | panic-worker:<v>) used by the containment tests.
";

/// Entry point: parses `args` and writes the report to `out`.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    if args.is_empty() {
        writeln!(out, "{USAGE}").map_err(io_err)?;
        return Ok(());
    }
    let parsed = parse(args)?;
    let command = parsed.positional(0, "command")?.to_ascii_lowercase();
    match command.as_str() {
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        "stats" => cmd_stats(&parsed, out),
        "enumerate" => cmd_enumerate(&parsed, out),
        "topk" => cmd_topk(&parsed, out),
        "query" => cmd_query(&parsed, out),
        "generate" => cmd_generate(&parsed, out),
        "convert" => cmd_convert(&parsed, out),
        "serve" => serve::cmd_serve(&parsed, out),
        "client" => serve::cmd_client(&parsed, out),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn io_err(e: std::io::Error) -> CliError {
    CliError::Io(e.to_string())
}

/// Loads a graph, choosing the parser by file extension.
pub fn load_graph(path: &str) -> Result<Graph, CliError> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    match ext.as_str() {
        "clq" | "dimacs" | "col" => formats::load_dimacs(path)
            .map_err(|e| CliError::Io(format!("cannot read DIMACS file {path}: {e}"))),
        "graph" | "metis" => formats::load_metis(path)
            .map_err(|e| CliError::Io(format!("cannot read METIS file {path}: {e}"))),
        _ => mqce_graph::edge_list::load_edge_list(path)
            .map(|loaded| loaded.graph)
            .map_err(|e| CliError::Io(format!("cannot read edge list {path}: {e}"))),
    }
}

/// Saves a graph, choosing the writer by file extension.
pub fn save_graph(g: &Graph, path: &str) -> Result<(), CliError> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    let result = match ext.as_str() {
        "clq" | "dimacs" | "col" => formats::save_dimacs(g, path),
        "graph" | "metis" => formats::save_metis(g, path),
        _ => mqce_graph::edge_list::save_edge_list(g, path),
    };
    result.map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))
}

// The two parsers map an omitted option to the type's `Default`, so each
// default lives only in `mqce_core::config`.
fn parse_algorithm(raw: Option<&str>) -> Result<Algorithm, CliError> {
    let Some(raw) = raw else {
        return Ok(Algorithm::default());
    };
    match raw.to_ascii_lowercase().as_str() {
        "dcfastqc" | "dc" => Ok(Algorithm::DcFastQc),
        "fastqc" => Ok(Algorithm::FastQc),
        "bdcfastqc" | "basic-dc" => Ok(Algorithm::BasicDcFastQc),
        "quickplus" | "quick+" => Ok(Algorithm::QuickPlus),
        "quickplus-raw" | "quick+raw" => Ok(Algorithm::QuickPlusRaw),
        "naive" => Ok(Algorithm::Naive),
        other => Err(CliError::Params(format!("unknown algorithm {other:?}"))),
    }
}

fn parse_branching(raw: Option<&str>) -> Result<BranchingStrategy, CliError> {
    let Some(raw) = raw else {
        return Ok(BranchingStrategy::default());
    };
    match raw.to_ascii_lowercase().as_str() {
        "hybrid" | "hybrid-se" => Ok(BranchingStrategy::HybridSe),
        "sym" | "sym-se" => Ok(BranchingStrategy::SymSe),
        "se" => Ok(BranchingStrategy::Se),
        other => Err(CliError::Params(format!(
            "unknown branching strategy {other:?}"
        ))),
    }
}

/// Resolves the `--threads` value: `0` means "use every core the OS reports".
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

fn build_config(parsed: &ParsedArgs) -> Result<MqceConfig, CliError> {
    let gamma = parsed.get_f64("gamma", 0.9)?;
    let theta = parsed.get_usize("theta", 2)?;
    let mut config = MqceConfig::new(gamma, theta)
        .map_err(|e| CliError::Params(e.to_string()))?
        .with_algorithm(parse_algorithm(parsed.get("algorithm"))?)
        .with_branching(parse_branching(parsed.get("branching"))?)
        .with_max_round(parsed.get_usize("max-round", 2)?);
    if let Some(raw) = parsed.get("steal-granularity") {
        let granularity = raw.parse().map_err(|_| {
            CliError::Args(args::ArgError::BadValue {
                option: "steal-granularity".to_string(),
                value: raw.to_string(),
                expected: "a non-negative integer",
            })
        })?;
        config = config.with_steal_granularity(granularity);
    }
    // Presence, not value, decides whether a limit is set: an explicit
    // `--time-limit-secs 0` means "no budget at all" and must produce an
    // immediate, best-effort-flagged return rather than being ignored.
    if parsed.get("time-limit-secs").is_some() {
        let limit = parsed.get_u64("time-limit-secs", 0)?;
        config = config.with_time_limit(Duration::from_secs(limit));
    }
    Ok(config)
}

fn cmd_stats<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[])?;
    parsed.no_extra_positionals(2)?;
    let path = parsed.positional(1, "graph")?;
    let g = load_graph(path)?;
    let stats = GraphStats::compute(&g);
    writeln!(out, "graph            {path}").map_err(io_err)?;
    writeln!(out, "vertices         {}", stats.num_vertices).map_err(io_err)?;
    writeln!(out, "edges            {}", stats.num_edges).map_err(io_err)?;
    writeln!(out, "edge density     {:.3}", stats.edge_density).map_err(io_err)?;
    writeln!(out, "max degree       {}", stats.max_degree).map_err(io_err)?;
    writeln!(out, "degeneracy       {}", stats.degeneracy).map_err(io_err)?;
    writeln!(
        out,
        "triangles        {}",
        mqce_graph::stats::triangle_count(&g)
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "clustering coeff {:.4}",
        mqce_graph::stats::global_clustering_coefficient(&g)
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_enumerate<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[
        "gamma",
        "theta",
        "algorithm",
        "branching",
        "max-round",
        "threads",
        "steal-granularity",
        "time-limit-secs",
        "print-sets",
        "verify",
    ])?;
    parsed.no_extra_positionals(2)?;
    let path = parsed.positional(1, "graph")?;
    let g = load_graph(path)?;
    let config = build_config(parsed)?;
    let threads = resolve_threads(parsed.get_usize("threads", 1)?);
    let session = Session::open(g).config(config).threads(threads);
    let result = session.run();
    writeln!(out, "algorithm        {}", config.algorithm.name()).map_err(io_err)?;
    writeln!(
        out,
        "parameters       gamma={} theta={}",
        config.params.gamma, config.params.theta
    )
    .map_err(io_err)?;
    writeln!(out, "qcs (S1 output)  {}", result.qcs).map_err(io_err)?;
    writeln!(out, "maximal qcs      {}", result.mqcs.len()).map_err(io_err)?;
    writeln!(out, "s2 engine        {}", result.s2).map_err(io_err)?;
    writeln!(out, "s2 steps         {}", result.s2.steps).map_err(io_err)?;
    if let Some((min, max, avg)) = result.mqc_size_stats() {
        writeln!(out, "mqc sizes        min={min} max={max} avg={avg:.2}").map_err(io_err)?;
    }
    writeln!(out, "branches         {}", result.stats.branches).map_err(io_err)?;
    writeln!(
        out,
        "time             s1={:.3}s s2={:.3}s",
        result.s1_time.as_secs_f64(),
        result.s2_time.as_secs_f64()
    )
    .map_err(io_err)?;
    for t in &result.thread_stats {
        writeln!(
            out,
            "thread {:<3}       busy={:.1}ms idle={:.1}ms ({:.0}% busy) subproblems={} splits={} steals={}",
            t.thread,
            t.busy_millis,
            t.idle_millis,
            100.0 * t.busy_fraction(),
            t.subproblems,
            t.splits,
            t.steals
        )
        .map_err(io_err)?;
    }
    for line in result.completeness.warnings() {
        writeln!(out, "{line}").map_err(io_err)?;
    }
    if parsed.switch("verify") {
        let report = verify_mqc_set(session.prepared().graph(), &result.mqcs, config.params);
        writeln!(out, "verification     {report}").map_err(io_err)?;
        if !report.is_ok() {
            return Err(CliError::Other(format!("verification failed: {report}")));
        }
    }
    if parsed.switch("print-sets") {
        print_sets(out, &result.mqcs, false)?;
    }
    Ok(())
}

fn cmd_topk<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&["gamma", "k", "print-sets"])?;
    parsed.no_extra_positionals(2)?;
    let path = parsed.positional(1, "graph")?;
    let g = load_graph(path)?;
    let gamma = parsed.get_f64("gamma", 0.9)?;
    let k = parsed.get_usize("k", 10)?;
    let prepared = PreparedGraph::new(g);
    let top = find_largest_mqcs(&prepared, gamma, k, None)
        .map_err(|e| CliError::Params(e.to_string()))?;
    writeln!(out, "requested k      {k}").map_err(io_err)?;
    writeln!(out, "found            {}", top.mqcs.len()).map_err(io_err)?;
    writeln!(out, "final theta      {}", top.final_theta).map_err(io_err)?;
    writeln!(out, "rounds           {}", top.rounds).map_err(io_err)?;
    for line in top.completeness.warnings() {
        writeln!(out, "{line}").map_err(io_err)?;
    }
    if parsed.switch("print-sets") {
        return print_sets(out, &top.mqcs, true);
    }
    for (i, mqc) in top.mqcs.iter().enumerate() {
        writeln!(out, "#{:<3} size={}", i + 1, mqc.len()).map_err(io_err)?;
    }
    Ok(())
}

/// Bytes of formatted sets [`print_sets`] collects before each write.
const PRINT_CHUNK: usize = 1 << 16;

/// Writes `sets` one per line, vertices separated by spaces, and flushes
/// `out`. Vertex ids are formatted by hand into one reused buffer, written
/// out in chunks of about [`PRINT_CHUNK`] bytes: a family of 10⁵–10⁶ sets
/// then costs a few hundred writes and no formatter call per vertex.
/// `ranked` prefixes each line with its 1-based position and the set size,
/// as `topk` prints them.
fn print_sets<W: Write>(out: &mut W, sets: &[Vec<VertexId>], ranked: bool) -> Result<(), CliError> {
    let mut buf = Vec::with_capacity(PRINT_CHUNK + 1024);
    for (i, set) in sets.iter().enumerate() {
        if ranked {
            write!(buf, "#{:<3} size={:<4} ", i + 1, set.len()).map_err(io_err)?;
        }
        for (j, &v) in set.iter().enumerate() {
            if j > 0 {
                buf.push(b' ');
            }
            push_decimal(&mut buf, v);
        }
        buf.push(b'\n');
        if buf.len() >= PRINT_CHUNK {
            out.write_all(&buf).map_err(io_err)?;
            buf.clear();
        }
    }
    out.write_all(&buf).map_err(io_err)?;
    out.flush().map_err(io_err)
}

/// Appends the decimal digits of `v` to `buf`, as `{v}` would print them.
fn push_decimal(buf: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[start..]);
}

fn cmd_query<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[
        "gamma",
        "theta",
        "vertices",
        "branching",
        "time-limit-secs",
        "print-sets",
    ])?;
    parsed.no_extra_positionals(2)?;
    let path = parsed.positional(1, "graph")?;
    let g = load_graph(path)?;
    let config = build_config(parsed)?;
    let query = parsed.get_vertex_list("vertices")?;
    if query.is_empty() {
        return Err(CliError::Params(
            "--vertices must list at least one vertex".to_string(),
        ));
    }
    let result =
        find_mqcs_containing(&g, &query, &config).map_err(|e| CliError::Other(e.to_string()))?;
    writeln!(out, "query vertices   {query:?}").map_err(io_err)?;
    writeln!(out, "search universe  {} vertices", result.universe_size).map_err(io_err)?;
    writeln!(out, "maximal qcs      {}", result.mqcs.len()).map_err(io_err)?;
    writeln!(out, "time             {:.3}s", result.elapsed.as_secs_f64()).map_err(io_err)?;
    for line in result.completeness.warnings() {
        writeln!(out, "{line}").map_err(io_err)?;
    }
    if parsed.switch("print-sets") {
        print_sets(out, &result.mqcs, false)?;
    }
    Ok(())
}

fn cmd_generate<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[
        "n",
        "density",
        "seed",
        "communities",
        "p-intra",
        "inter-degree",
        "cave-size",
        "p-rewire",
        "avg-degree",
        "beta",
        "m-attach",
        "rows",
        "cols",
        "hubs",
        "hub-bias",
        "edges",
    ])?;
    parsed.no_extra_positionals(3)?;
    let kind = parsed.positional(1, "kind")?.to_ascii_lowercase();
    let output = parsed.positional(2, "output")?;
    let n = parsed.get_usize("n", 1000)?;
    let seed = parsed.get_u64("seed", 1)?;
    let g = match kind.as_str() {
        "er" => generators::erdos_renyi_density(n, parsed.get_f64("density", 10.0)?, seed),
        "ba" => generators::barabasi_albert(n, parsed.get_usize("m-attach", 3)?, seed),
        "community" => generators::community_graph(
            generators::CommunityGraphParams {
                n,
                num_communities: parsed.get_usize("communities", 10)?,
                p_intra: parsed.get_f64("p-intra", 0.8)?,
                inter_degree: parsed.get_f64("inter-degree", 1.0)?,
            },
            seed,
        ),
        "caveman" => generators::relaxed_caveman(
            parsed.get_usize("communities", 10)?,
            parsed.get_usize("cave-size", 10)?,
            parsed.get_f64("p-rewire", 0.1)?,
            seed,
        ),
        "powerlaw" => generators::chung_lu_power_law(
            n,
            parsed.get_f64("avg-degree", 8.0)?,
            parsed.get_f64("beta", 2.5)?,
            seed,
        ),
        "grid" => generators::grid(
            parsed.get_usize("rows", 100)?,
            parsed.get_usize("cols", 100)?,
        ),
        "hub" => generators::hub_graph(
            n,
            parsed.get_usize("edges", 4 * n)?,
            parsed.get_usize("hubs", 5)?,
            parsed.get_f64("hub-bias", 0.5)?,
            seed,
        ),
        other => {
            return Err(CliError::Params(format!(
                "unknown generator kind {other:?}"
            )))
        }
    };
    save_graph(&g, output)?;
    writeln!(
        out,
        "wrote {} ({} vertices, {} edges)",
        output,
        g.num_vertices(),
        g.num_edges()
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_convert<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[])?;
    parsed.no_extra_positionals(3)?;
    let input = parsed.positional(1, "input")?;
    let output = parsed.positional(2, "output")?;
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    writeln!(
        out,
        "converted {input} -> {output} ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    )
    .map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_core::Completeness;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn run_capture(parts: &[&str]) -> Result<String, CliError> {
        let mut buf = Vec::new();
        run(&argv(parts), &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("mqce_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_paper_graph(name: &str) -> String {
        let path = temp_path(name);
        save_graph(&Graph::paper_figure1(), &path).unwrap();
        path
    }

    #[test]
    fn help_and_empty_args() {
        assert!(run_capture(&["help"]).unwrap().contains("USAGE"));
        assert!(run_capture(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run_capture(&["frobnicate"]).unwrap_err(),
            CliError::UnknownCommand(_)
        ));
    }

    #[test]
    fn stats_reports_table1_columns() {
        let path = write_paper_graph("stats.txt");
        let output = run_capture(&["stats", &path]).unwrap();
        assert!(output.contains("vertices         9"));
        assert!(output.contains("degeneracy"));
        assert!(output.contains("triangles"));
    }

    #[test]
    fn enumerate_with_verification() {
        let path = write_paper_graph("enumerate.txt");
        let output = run_capture(&[
            "enumerate",
            &path,
            "--gamma",
            "0.6",
            "--theta",
            "3",
            "--verify",
            "--print-sets",
        ])
        .unwrap();
        assert!(output.contains("algorithm        DCFastQC"));
        assert!(output.contains("maximal qcs"));
        assert!(output.contains("verification     ok"));
    }

    #[test]
    fn enumerate_rejects_bad_parameters() {
        let path = write_paper_graph("bad_params.txt");
        assert!(run_capture(&["enumerate", &path, "--gamma", "0.2"]).is_err());
        assert!(run_capture(&["enumerate", &path, "--algorithm", "alien"]).is_err());
        assert!(run_capture(&["enumerate", &path, "--branching", "alien"]).is_err());
        assert!(run_capture(&["enumerate", &path, "--bogus-flag", "1"]).is_err());
        assert!(run_capture(&["enumerate"]).is_err());
    }

    #[test]
    fn topk_and_query_commands() {
        let path = write_paper_graph("topk.txt");
        let topk =
            run_capture(&["topk", &path, "--gamma", "0.6", "--k", "2", "--print-sets"]).unwrap();
        assert!(topk.contains("requested k      2"));
        assert!(topk.contains("#1"));
        let query = run_capture(&[
            "query",
            &path,
            "--gamma",
            "0.6",
            "--theta",
            "3",
            "--vertices",
            "0,2",
        ])
        .unwrap();
        assert!(query.contains("query vertices"));
        assert!(query.contains("maximal qcs"));
        assert!(run_capture(&["query", &path, "--gamma", "0.6", "--theta", "3"]).is_err());
    }

    #[test]
    fn generate_and_convert_roundtrip() {
        let edge_path = temp_path("generated.txt");
        let out = run_capture(&[
            "generate",
            "er",
            &edge_path,
            "--n",
            "100",
            "--density",
            "3",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("100 vertices"));
        let dimacs_path = temp_path("generated.clq");
        let converted = run_capture(&["convert", &edge_path, &dimacs_path]).unwrap();
        assert!(converted.contains("converted"));
        let g_orig = load_graph(&edge_path).unwrap();
        let g_conv = load_graph(&dimacs_path).unwrap();
        assert_eq!(g_orig.num_edges(), g_conv.num_edges());
        // METIS roundtrip too.
        let metis_path = temp_path("generated.metis");
        run_capture(&["convert", &edge_path, &metis_path]).unwrap();
        assert_eq!(
            load_graph(&metis_path).unwrap().num_edges(),
            g_orig.num_edges()
        );
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let path = temp_path("never_written.txt");
        assert!(run_capture(&["generate", "mystery", &path]).is_err());
    }

    #[test]
    fn all_generator_kinds_produce_graphs() {
        for (kind, extra) in [
            ("er", vec!["--n", "50", "--density", "2"]),
            ("ba", vec!["--n", "50", "--m-attach", "2"]),
            ("community", vec!["--n", "60", "--communities", "4"]),
            ("caveman", vec!["--communities", "3", "--cave-size", "5"]),
            ("powerlaw", vec!["--n", "80", "--avg-degree", "4"]),
            ("grid", vec!["--rows", "5", "--cols", "6"]),
            ("hub", vec!["--n", "50", "--edges", "100"]),
        ] {
            let path = temp_path(&format!("gen_{kind}.txt"));
            let mut argv = vec!["generate", kind, path.as_str()];
            argv.extend(extra.iter().copied());
            let out = run_capture(&argv).unwrap();
            assert!(out.contains("wrote"), "{kind}: {out}");
            assert!(load_graph(&path).unwrap().num_vertices() > 0, "{kind}");
        }
    }

    #[test]
    fn parallel_enumerate_matches_sequential_counts() {
        let path = write_paper_graph("parallel.txt");
        let seq = run_capture(&["enumerate", &path, "--gamma", "0.6", "--theta", "3"]).unwrap();
        let par = run_capture(&[
            "enumerate",
            &path,
            "--gamma",
            "0.6",
            "--theta",
            "3",
            "--threads",
            "4",
        ])
        .unwrap();
        let count = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("maximal qcs"))
                .unwrap()
                .to_string()
        };
        assert_eq!(count(&seq), count(&par));
    }

    #[test]
    fn steal_granularity_flag_is_accepted_and_reports_threads() {
        let path = write_paper_graph("steal_gran.txt");
        let seq = run_capture(&["enumerate", &path, "--gamma", "0.6", "--theta", "3"]).unwrap();
        let par = run_capture(&[
            "enumerate",
            &path,
            "--gamma",
            "0.6",
            "--theta",
            "3",
            "--threads",
            "4",
            "--steal-granularity",
            "1",
        ])
        .unwrap();
        let count = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("maximal qcs"))
                .unwrap()
                .to_string()
        };
        assert_eq!(count(&seq), count(&par));
        // Every run reports one busy/steal line per worker, one included.
        assert_eq!(par.lines().filter(|l| l.starts_with("thread ")).count(), 4);
        assert_eq!(seq.lines().filter(|l| l.starts_with("thread ")).count(), 1);
        // Bad values are rejected.
        assert!(run_capture(&[
            "enumerate",
            &path,
            "--gamma",
            "0.6",
            "--steal-granularity",
            "soon",
        ])
        .is_err());
    }

    #[test]
    fn threads_zero_auto_detects() {
        // `--threads 0` resolves to the machine's parallelism and still
        // produces the sequential result.
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let path = write_paper_graph("threads0.txt");
        let auto = run_capture(&[
            "enumerate",
            &path,
            "--gamma",
            "0.6",
            "--theta",
            "3",
            "--threads",
            "0",
        ])
        .unwrap();
        let seq = run_capture(&["enumerate", &path, "--gamma", "0.6", "--theta", "3"]).unwrap();
        let count = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("maximal qcs"))
                .unwrap()
                .to_string()
        };
        assert_eq!(count(&auto), count(&seq));
    }

    /// The adjacency representation is chosen from the input alone, so
    /// there is no `--backend` option to accept.
    #[test]
    fn backend_flag_is_an_unknown_option() {
        let path = write_paper_graph("backend.txt");
        for argv in [
            vec!["enumerate", &path, "--backend", "slice"],
            vec!["query", &path, "--vertices", "0", "--backend", "slice"],
        ] {
            let err = run_capture(&argv).unwrap_err();
            assert!(
                matches!(&err, CliError::Args(ArgError::Unknown(opt)) if opt == "backend"),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn contained_panics_are_warned_about_and_clean_runs_are_not() {
        assert!(MqceResult::default().completeness.warnings().is_empty());
        let panicked = SearchStats {
            subproblem_panics: 1,
            ..SearchStats::default()
        };
        assert_eq!(
            Completeness::new(&panicked, false).warnings(),
            vec![
                "WARNING          1 subproblem panic(s) contained; output may be incomplete"
                    .to_string()
            ]
        );
    }

    /// A query whose search hit the time limit is warned about even when
    /// its S2 pass finished (regression: `query` only checked the S2 flag),
    /// and `query`, `enumerate` and `topk` print the lines of their answer's
    /// verdict: a spent budget warns, a default run does not.
    #[test]
    fn query_search_time_limit_is_warned_about() {
        assert!(mqce_core::QueryResult::default()
            .completeness
            .warnings()
            .is_empty());
        let cut = SearchStats {
            timed_out: true,
            ..SearchStats::default()
        };
        assert_eq!(
            Completeness::new(&cut, false).warnings(),
            vec!["WARNING          time limit hit; output may be incomplete".to_string()]
        );
        assert_eq!(Completeness::new(&cut, true).warnings().len(), 2);

        let path = write_paper_graph("warnings.txt");
        let spent = ["--gamma", "0.6", "--theta", "3", "--time-limit-secs", "0"];
        for cmd in [
            &["query", &path, "--vertices", "0"][..],
            &["enumerate", &path],
        ] {
            let out = run_capture(&[cmd, &spent[..]].concat()).unwrap();
            assert!(out.contains("WARNING          time limit hit"), "{out}");
            let out = run_capture(&[cmd, &spent[..4]].concat()).unwrap();
            assert!(!out.contains("WARNING"), "{out}");
        }
        let topk = run_capture(&["topk", &path, "--gamma", "0.6"]).unwrap();
        assert!(!topk.contains("WARNING"), "{topk}");
    }

    /// The hand formatter prints exactly what one `write!` per vertex
    /// printed, ranked and unranked, across digit-count boundaries, the
    /// largest id, an empty set, and a family long enough to cross
    /// several output chunks.
    #[test]
    fn print_sets_matches_the_fmt_rendering() {
        fn by_fmt(sets: &[Vec<VertexId>], ranked: bool) -> String {
            let mut out = String::new();
            for (i, set) in sets.iter().enumerate() {
                if ranked {
                    out += &format!("#{:<3} size={:<4} ", i + 1, set.len());
                }
                for (j, v) in set.iter().enumerate() {
                    let sep = if j == 0 { "" } else { " " };
                    out += &format!("{sep}{v}");
                }
                out += "\n";
            }
            out
        }
        let small = vec![
            vec![0, 9, 10, 99, 100, 99_999, 100_000],
            vec![],
            vec![u32::MAX - 1, u32::MAX],
            vec![7],
        ];
        let large: Vec<Vec<VertexId>> = (0..20_000u32)
            .map(|i| {
                (0..i % 13)
                    .map(|j| i.wrapping_mul(2_654_435_761) >> (j * 2))
                    .collect()
            })
            .collect();
        for sets in [&small, &large, &Vec::new()] {
            for ranked in [false, true] {
                let mut printed = Vec::new();
                print_sets(&mut printed, sets, ranked).unwrap();
                assert_eq!(String::from_utf8(printed).unwrap(), by_fmt(sets, ranked));
            }
        }
    }
}
