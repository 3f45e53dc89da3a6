//! Multi-process sharded enumeration: the `mqce shard-worker` process and
//! the coordinator behind `mqce enumerate --shards N`.
//!
//! The coordinator plans cost-balanced anchor shards with
//! [`mqce_core::plan_shards`], serialises each shard's two-hop-closed
//! [`GraphSlice`] and ships it to a worker process
//! over the same newline-JSON protocol the daemon speaks (extended with
//! `shard_run` requests and `shard_result` set streams — see
//! [`crate::protocol`]). Workers are this very binary re-invoked as
//! `mqce shard-worker`: they decode the slice, run the unchanged streaming
//! DC drivers via [`mqce_core::run_shard`], and stream the shard-local
//! maximal family back. The coordinator then restores exact global
//! maximality with [`mqce_core::merge_shard_families`] — one maximality
//! engine restricted to the cross-shard frontier — so the merged family is
//! byte-identical to a single-process run.
//!
//! Fault tolerance: every worker is handshaken (`ping` with a stamped
//! protocol version) before work is dispatched, and a worker that dies
//! mid-shard is respawned and its shard retried exactly once. If the retry
//! is also lost the coordinator gives the shard up and reports the run as
//! best-effort instead of hanging or crashing.

use std::io::{BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mqce_core::{merge_shard_families, plan_shards, run_shard, MqceConfig, PreparedGraph};
use mqce_graph::{Graph, GraphSlice};
use serde::Value;

use crate::args::ParsedArgs;
use crate::protocol::{decode_set_stream, encode_set_stream, Request, Response, PROTOCOL_VERSION};
use crate::serve::{build_request_config, read_line_bounded, LineRead};
use crate::CliError;

/// Line cap for the worker protocol. Slice payloads carry whole CSR arrays,
/// so the cap is far above the daemon's request cap — but still bounded, so
/// a corrupt length prefix cannot balloon worker memory.
const WORKER_MAX_LINE_BYTES: usize = 64 << 20;

fn io_err(e: std::io::Error) -> CliError {
    CliError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// `mqce shard-worker [--fault-injection]` — a coordinator-spawned worker
/// process: answers newline-JSON requests on stdin/stdout until EOF or a
/// `shutdown` request.
pub(crate) fn cmd_shard_worker<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&["fault-injection"])?;
    parsed.no_extra_positionals(1)?;
    let fault_injection = parsed.switch("fault-injection");
    let stdin = std::io::stdin();
    let mut reader = BufReader::new(stdin.lock());
    loop {
        let line = match read_line_bounded(&mut reader, WORKER_MAX_LINE_BYTES).map_err(io_err)? {
            LineRead::Eof => break,
            LineRead::TooLong => {
                let response = Response::failure(
                    None,
                    format!("request line exceeds {WORKER_MAX_LINE_BYTES} bytes"),
                );
                writeln!(out, "{}", response.to_line()).map_err(io_err)?;
                out.flush().map_err(io_err)?;
                break;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, quit) = worker_handle_line(&line, fault_injection);
        writeln!(out, "{}", response.to_line()).map_err(io_err)?;
        out.flush().map_err(io_err)?;
        if quit {
            break;
        }
    }
    Ok(())
}

fn worker_handle_line(line: &str, fault_injection: bool) -> (Response, bool) {
    let req = match Request::parse_line(line) {
        Err(e) => return (Response::failure(None, e), false),
        Ok(req) => req,
    };
    if let Some(theirs) = req.version {
        if theirs != PROTOCOL_VERSION {
            return (Response::version_mismatch(req.id, theirs), false);
        }
    }
    match req.cmd.as_str() {
        "ping" => {
            let mut response = Response {
                id: req.id,
                ok: true,
                ..Response::default()
            };
            response.extra.push((
                "protocol_version".to_string(),
                Value::Num(PROTOCOL_VERSION as f64),
            ));
            (response, false)
        }
        "shutdown" => (
            Response {
                id: req.id,
                ok: true,
                ..Response::default()
            },
            true,
        ),
        "shard_run" => (shard_run_response(&req, fault_injection), false),
        other => (
            Response::failure(
                req.id,
                format!("shard worker cannot handle command {other:?}"),
            ),
            false,
        ),
    }
}

/// Executes one `shard_run` request: decode the slice, run the DC drivers
/// over the shard's anchors, and answer with a `shard_result` set stream.
fn shard_run_response(req: &Request, fault_injection: bool) -> Response {
    let start = Instant::now();
    let mut config = match build_request_config(req) {
        Ok(config) => config,
        Err(e) => return Response::failure(req.id.clone(), e),
    };
    if let Some(fault) = req.fault.as_deref() {
        if !fault_injection {
            return Response::failure(
                req.id.clone(),
                "fault injection is disabled (spawn the worker with --fault-injection)",
            );
        }
        if fault == "die" {
            // Simulates a crashed worker: exit without answering, so the
            // coordinator sees EOF mid-shard and exercises its retry path.
            std::process::exit(3);
        } else if let Some(anchor) = fault.strip_prefix("panic:") {
            match anchor.parse::<u32>() {
                Ok(v) => config.params.fail_anchor = Some(v),
                Err(_) => {
                    return Response::failure(
                        req.id.clone(),
                        format!("bad fault anchor {anchor:?} (expected panic:<vertex>)"),
                    )
                }
            }
        } else {
            return Response::failure(
                req.id.clone(),
                format!("unknown worker fault mode {fault:?}"),
            );
        }
    }
    if let Some(ms) = req.deadline_ms {
        config = config.with_time_limit(Duration::from_millis(ms));
    }
    let Some(encoded) = req.slice.as_deref() else {
        return Response::failure(req.id.clone(), "`shard_run` needs a `slice` payload");
    };
    let slice = match GraphSlice::decode(encoded) {
        Ok(slice) => slice,
        Err(e) => return Response::failure(req.id.clone(), format!("bad slice payload: {e}")),
    };
    if req.ranks.len() != slice.len() {
        return Response::failure(
            req.id.clone(),
            "`ranks` must carry one rank per slice vertex",
        );
    }
    if req.anchors.iter().any(|&a| a as usize >= slice.len()) {
        return Response::failure(req.id.clone(), "anchor id outside the slice");
    }
    let threads = crate::resolve_threads(req.threads);
    let family = run_shard(&slice, &req.anchors, &req.ranks, &config, threads);
    let contained = family.stats.subproblem_panics;
    let mut extra = vec![
        ("shard_id".to_string(), Value::Num(req.shard_id as f64)),
        ("set_stream".to_string(), encode_set_stream(&family.mqcs)),
        (
            "branches".to_string(),
            Value::Num(family.stats.branches as f64),
        ),
    ];
    if contained > 0 {
        extra.push(("contained_panics".to_string(), Value::Num(contained as f64)));
        if let Some(anchor) = family.stats.last_panicked_anchor {
            extra.push(("panicked_anchor".to_string(), Value::Num(anchor as f64)));
        }
    }
    Response {
        id: req.id.clone(),
        ok: true,
        best_effort: family.timed_out || contained > 0,
        s2_timed_out: family.timed_out,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        count: family.mqcs.len(),
        extra,
        ..Response::default()
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// One spawned worker process with its protocol pipes. Dropped workers are
/// killed and reaped unconditionally, so the coordinator can never hang on a
/// wedged child.
struct Worker {
    child: Child,
    reader: BufReader<std::process::ChildStdout>,
    writer: std::process::ChildStdin,
}

impl Worker {
    /// Spawns this very binary as `mqce shard-worker` and handshakes the
    /// protocol version before any work is dispatched.
    fn spawn(fault_injection: bool) -> Result<Worker, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the mqce binary for worker spawn: {e}"))?;
        let mut command = Command::new(exe);
        command
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if fault_injection {
            command.arg("--fault-injection");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn shard worker: {e}"))?;
        let writer = child.stdin.take().expect("stdin was piped");
        let reader = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut worker = Worker {
            child,
            reader,
            writer,
        };
        worker.handshake()?;
        Ok(worker)
    }

    /// Sends one request line and reads one response line.
    fn round_trip(&mut self, req: &Request) -> Result<Response, String> {
        writeln!(self.writer, "{}", req.to_line())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("worker write failed: {e}"))?;
        match read_line_bounded(&mut self.reader, WORKER_MAX_LINE_BYTES)
            .map_err(|e| format!("worker read failed: {e}"))?
        {
            LineRead::Line(line) => Response::parse_line(&line),
            LineRead::Eof => Err("worker exited before answering".to_string()),
            LineRead::TooLong => Err("worker response exceeded the line cap".to_string()),
        }
    }

    /// Protocol-version negotiation: a stamped `ping` must come back `ok`
    /// and report the version this build speaks.
    fn handshake(&mut self) -> Result<(), String> {
        let ping = Request {
            cmd: "ping".to_string(),
            version: Some(PROTOCOL_VERSION),
            ..Request::default()
        };
        let response = self.round_trip(&ping)?;
        if !response.ok {
            return Err(format!(
                "worker handshake failed: {}",
                response
                    .error
                    .unwrap_or_else(|| "unknown error".to_string())
            ));
        }
        match response.extra_num("protocol_version") {
            Some(v) if v == PROTOCOL_VERSION as f64 => Ok(()),
            other => Err(format!(
                "worker speaks protocol {other:?}, this build speaks v{PROTOCOL_VERSION}"
            )),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let shutdown = Request {
            cmd: "shutdown".to_string(),
            ..Request::default()
        };
        let _ = writeln!(self.writer, "{}", shutdown.to_line());
        let _ = self.writer.flush();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one shard's dispatch produced at the coordinator.
struct ShardDispatch {
    family: Vec<Vec<u32>>,
    millis: f64,
    best_effort: bool,
    /// Both attempts died: the shard's family is missing from the merge.
    lost: bool,
    retried: bool,
    branches: u64,
    error: Option<String>,
}

/// Runs one shard on a fresh worker, respawning and retrying exactly once
/// if the worker is lost mid-shard. A second loss gives the shard up as
/// best-effort instead of hanging.
fn dispatch_shard(req: &Request, fault_injection: bool) -> ShardDispatch {
    let start = Instant::now();
    let mut retried = false;
    let mut last_err = String::new();
    for attempt in 0..2 {
        retried = attempt > 0;
        let outcome = Worker::spawn(fault_injection).and_then(|mut worker| {
            let response = worker.round_trip(req)?;
            Ok(response)
        });
        match outcome {
            Ok(response) if response.ok => {
                let stream = response
                    .extra
                    .iter()
                    .find(|(k, _)| k == "set_stream")
                    .map(|(_, v)| v);
                let family = match stream.map(decode_set_stream) {
                    Some(Ok(family)) => family,
                    Some(Err(e)) => {
                        last_err = format!("bad shard_result set stream: {e}");
                        continue;
                    }
                    None => {
                        last_err = "shard_result carried no set_stream".to_string();
                        continue;
                    }
                };
                return ShardDispatch {
                    family,
                    millis: start.elapsed().as_secs_f64() * 1e3,
                    best_effort: response.best_effort,
                    lost: false,
                    retried,
                    branches: response.extra_num("branches").unwrap_or(0.0) as u64,
                    error: None,
                };
            }
            Ok(response) => {
                last_err = response
                    .error
                    .unwrap_or_else(|| "worker answered ok=false".to_string());
            }
            Err(e) => last_err = e,
        }
    }
    ShardDispatch {
        family: Vec::new(),
        millis: start.elapsed().as_secs_f64() * 1e3,
        best_effort: true,
        lost: true,
        retried,
        branches: 0,
        error: Some(last_err),
    }
}

/// Resolves the per-shard fault payload of the coordinator's `--fault` flag:
/// `die:<shard>` targets one shard (and persists across its retry, so the
/// retry dies too and the run degrades to best-effort); `panic:<anchor>` is
/// broadcast — only the shard owning the anchor's subproblem panics, and the
/// panic is contained by the worker's DC drivers.
fn fault_for_shard(fault: Option<&str>, shard: usize) -> Result<Option<String>, CliError> {
    let Some(fault) = fault else { return Ok(None) };
    if let Some(target) = fault.strip_prefix("die:") {
        let target: usize = target.parse().map_err(|_| {
            CliError::Params(format!(
                "bad --fault target in {fault:?} (expected die:<shard>)"
            ))
        })?;
        Ok((shard == target).then(|| "die".to_string()))
    } else if fault
        .strip_prefix("panic:")
        .is_some_and(|a| a.parse::<u32>().is_ok())
    {
        Ok(Some(fault.to_string()))
    } else {
        Err(CliError::Params(format!(
            "unknown --fault mode {fault:?} (expected die:<shard> or panic:<anchor>)"
        )))
    }
}

/// The multi-process coordinator behind `mqce enumerate --shards N`: plans
/// cost-balanced shards, dispatches each to its own worker process in
/// parallel, and merges the returned families into the exact global maximal
/// family. Prints per-shard wall-clock and merge overhead alongside the
/// usual `maximal qcs` report.
#[allow(clippy::too_many_arguments)] // one flat call site in cmd_enumerate_sharded
pub(crate) fn run_coordinator<W: Write>(
    graph: &Graph,
    config: &MqceConfig,
    template: &Request,
    num_shards: usize,
    fault: Option<&str>,
    fault_injection: bool,
    print_sets: bool,
    verify: bool,
    out: &mut W,
) -> Result<(), CliError> {
    if fault.is_some() && !fault_injection {
        return Err(CliError::Params(
            "--fault needs --fault-injection".to_string(),
        ));
    }
    // Validate the fault syntax once, before any worker is spawned.
    fault_for_shard(fault, 0)?;

    let prepared = PreparedGraph::new(graph.clone());
    let plan = plan_shards(&prepared, config, num_shards).ok_or_else(|| {
        CliError::Params(
            "--shards needs a divide-and-conquer algorithm (dcfastqc or bdcfastqc)".to_string(),
        )
    })?;

    writeln!(out, "algorithm        {}", config.algorithm.name()).map_err(io_err)?;
    writeln!(
        out,
        "parameters       gamma={} theta={}",
        config.params.gamma, config.params.theta
    )
    .map_err(io_err)?;
    writeln!(out, "shards           {}", plan.shards.len()).map_err(io_err)?;

    let requests: Vec<Request> = plan
        .shards
        .iter()
        .map(|spec| {
            Ok(Request {
                cmd: "shard_run".to_string(),
                id: Some(format!("shard-{}", spec.index)),
                version: Some(PROTOCOL_VERSION),
                slice: Some(spec.slice.encode()),
                anchors: spec.anchors.clone(),
                ranks: spec.rank.clone(),
                shard_id: spec.index,
                fault: fault_for_shard(fault, spec.index)?,
                ..template.clone()
            })
        })
        .collect::<Result<_, CliError>>()?;

    // One worker process per shard, dispatched concurrently; each dispatch
    // owns its worker's lifecycle including the single respawn-and-retry.
    let dispatches: Vec<ShardDispatch> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| scope.spawn(move || dispatch_shard(req, fault_injection)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| ShardDispatch {
                    family: Vec::new(),
                    millis: 0.0,
                    best_effort: true,
                    lost: true,
                    retried: false,
                    branches: 0,
                    error: Some("dispatch thread panicked".to_string()),
                })
            })
            .collect()
    });

    let mut best_effort = false;
    let mut families = Vec::with_capacity(dispatches.len());
    for (spec, dispatch) in plan.shards.iter().zip(&dispatches) {
        best_effort |= dispatch.best_effort;
        let status = if dispatch.lost {
            let reason = dispatch.error.as_deref().unwrap_or("lost worker");
            format!(" LOST ({reason}; retried once, giving up)")
        } else if dispatch.retried {
            " (lost worker; retried once)".to_string()
        } else if dispatch.best_effort {
            " (best-effort)".to_string()
        } else {
            String::new()
        };
        writeln!(
            out,
            "shard {:<3}        anchors={} est-cost={} sets={} branches={} {:.1}ms{}",
            spec.index,
            spec.anchors.len(),
            spec.estimated_cost,
            dispatch.family.len(),
            dispatch.branches,
            dispatch.millis,
            status
        )
        .map_err(io_err)?;
        families.push(dispatch.family.clone());
    }

    let merge_start = Instant::now();
    let merged = merge_shard_families(&plan, families, config);
    let merge_millis = merge_start.elapsed().as_secs_f64() * 1e3;
    writeln!(
        out,
        "merge            {merge_millis:.1}ms engine={}",
        merged.backend
    )
    .map_err(io_err)?;
    writeln!(out, "maximal qcs      {}", merged.mqcs.len()).map_err(io_err)?;
    if best_effort {
        writeln!(
            out,
            "WARNING          best-effort: a shard was lost or cut short; output may be incomplete"
        )
        .map_err(io_err)?;
    }
    if verify {
        let report = mqce_core::verify_mqc_set(graph, &merged.mqcs, config.params);
        writeln!(out, "verification     {report}").map_err(io_err)?;
        if !report.is_ok() {
            return Err(CliError::Other(format!("verification failed: {report}")));
        }
    }
    if print_sets {
        crate::print_sets(out, &merged.mqcs, false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_targeting_resolves_per_shard() {
        assert_eq!(fault_for_shard(None, 0).unwrap(), None);
        assert_eq!(
            fault_for_shard(Some("die:1"), 1).unwrap(),
            Some("die".to_string())
        );
        assert_eq!(fault_for_shard(Some("die:1"), 0).unwrap(), None);
        assert_eq!(
            fault_for_shard(Some("panic:7"), 2).unwrap(),
            Some("panic:7".to_string())
        );
        assert!(fault_for_shard(Some("die:x"), 0).is_err());
        assert!(fault_for_shard(Some("explode"), 0).is_err());
    }

    #[test]
    fn worker_rejects_version_mismatch_and_bad_payloads() {
        let (resp, quit) = worker_handle_line(r#"{"cmd":"ping","version":99,"id":"h"}"#, false);
        assert!(!quit);
        assert!(!resp.ok);
        assert_eq!(resp.extra_str("error_kind"), Some("protocol_version"));

        let (resp, _) = worker_handle_line(r#"{"cmd":"shard_run"}"#, false);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("slice"));

        let (resp, _) = worker_handle_line(r#"{"cmd":"shard_run","slice":"NOPE 1 2"}"#, false);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("bad slice payload"));

        // Faults are refused without the gate.
        let (resp, _) = worker_handle_line(r#"{"cmd":"shard_run","fault":"die"}"#, false);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("fault injection is disabled"));

        let (resp, quit) = worker_handle_line(r#"{"cmd":"shutdown"}"#, false);
        assert!(resp.ok);
        assert!(quit);
    }

    #[test]
    fn worker_runs_a_real_shard_in_process() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 80,
                num_communities: 6,
                p_intra: 0.9,
                inter_degree: 1.0,
            },
            99,
        );
        let config = MqceConfig::new(0.85, 4).unwrap();
        let prepared = PreparedGraph::new(g);
        let plan = plan_shards(&prepared, &config, 2).unwrap();
        let spec = &plan.shards[0];
        let req = Request {
            cmd: "shard_run".to_string(),
            gamma: 0.85,
            theta: 4,
            version: Some(PROTOCOL_VERSION),
            slice: Some(spec.slice.encode()),
            anchors: spec.anchors.clone(),
            ranks: spec.rank.clone(),
            shard_id: 0,
            ..Request::default()
        };
        let (resp, quit) = worker_handle_line(&req.to_line(), false);
        assert!(!quit);
        assert!(resp.ok, "{:?}", resp.error);
        let stream = resp
            .extra
            .iter()
            .find(|(k, _)| k == "set_stream")
            .map(|(_, v)| decode_set_stream(v).unwrap())
            .unwrap();
        let expected = run_shard(&spec.slice, &spec.anchors, &spec.rank, &config, 1);
        assert_eq!(stream, expected.mqcs);
        assert_eq!(resp.count, expected.mqcs.len());
        assert_eq!(resp.extra_num("shard_id"), Some(0.0));
    }
}
