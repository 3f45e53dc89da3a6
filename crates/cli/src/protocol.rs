//! Wire protocol of the `mqce serve` daemon.
//!
//! The daemon speaks newline-delimited JSON: one request object per line in,
//! one response object per line out, in order. The vendored `serde` derive
//! only handles named-field structs, so both sides of the protocol build and
//! walk [`serde::Value`] trees by hand; this module is the single place that
//! knows the field names.
//!
//! A request selects a command (`enumerate`, `query`, `topk`, `ping`,
//! `update`, `shutdown`) and may override any of the per-request knobs (γ,
//! θ, k, algorithm, branching, worker threads, a relative deadline in
//! milliseconds). `update` carries `insert` / `delete` edge lists
//! (`[[u, v], …]`); only inserts grow the graph, and a batch of `k` inserts
//! on an `n`-vertex graph may name ids below `n + 2k` only (the daemon
//! refuses a larger one before logging it). Responses echo the request
//! `id` and carry the result plus `cached` / `best_effort` /
//! `s2_timed_out` status flags. The last two render the answer's [`mqce_core::Completeness`]: `best_effort`
//! marks a partial answer (never cached; a contained worker panic also
//! adds `contained_panics`/`panicked_anchor`), `s2_timed_out` one whose S2
//! pass hit its deadline.
//!
//! Peers negotiate compatibility through the `version` field: a client may
//! stamp any request (a `ping` handshake by convention) with the protocol
//! version it speaks, and a daemon that speaks a different version
//! answers with a typed `error_kind:"protocol_version"` failure instead of
//! an unknown-field error, so mixed-version deployments fail loudly and
//! diagnosably.

use mqce_core::MqceConfig;
use serde::Value;

/// The protocol version this build speaks. Bumped on any incompatible wire
/// change; peers reject mismatches during the `ping` handshake.
pub const PROTOCOL_VERSION: u32 = 1;

/// One client request, decoded from a JSON line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Opaque id echoed in the response (string or number on the wire).
    pub id: Option<String>,
    /// Command: `enumerate`, `query`, `topk`, `ping`, `update` or
    /// `shutdown`.
    pub cmd: String,
    /// Density threshold γ.
    pub gamma: f64,
    /// Size threshold θ.
    pub theta: usize,
    /// How many largest MQCs to report (`topk` only).
    pub k: usize,
    /// Query vertices (`query` only).
    pub vertices: Vec<u32>,
    /// Edges to insert (`update` only), as `(u, v)` pairs.
    pub insert: Vec<(u32, u32)>,
    /// Edges to delete (`update` only), as `(u, v)` pairs.
    pub delete: Vec<(u32, u32)>,
    /// MQCE-S1 algorithm name (same values as `--algorithm`).
    pub algorithm: Option<String>,
    /// Branching strategy (same values as `--branching`).
    pub branching: Option<String>,
    /// Worker threads for this request (1 = sequential).
    pub threads: usize,
    /// Relative deadline for the whole request, in milliseconds, measured
    /// from the moment the daemon reads the request. Covers queueing time:
    /// a request that spends its whole budget waiting for an enumeration
    /// slot still returns promptly, flagged best-effort.
    pub deadline_ms: Option<u64>,
    /// Bypass the result cache (neither read nor written).
    pub no_cache: bool,
    /// Include the MQC vertex sets in the response, not just the count.
    pub sets: bool,
    /// Debug-only fault injection mode (`panic`, `panic-locked`,
    /// `panic-worker:<v>`), used by the fault-containment tests. The daemon
    /// refuses it unless started with `--fault-injection`. Fault requests
    /// bypass the result cache entirely, so the field is not part of
    /// [`Request::cache_key`].
    pub fault: Option<String>,
    /// Protocol version the sender speaks. Stamped on the `ping` handshake;
    /// a peer speaking a different version rejects the request with a typed
    /// `error_kind:"protocol_version"` failure.
    pub version: Option<u32>,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: None,
            cmd: "enumerate".to_string(),
            gamma: 0.9,
            theta: 2,
            k: 10,
            vertices: Vec::new(),
            insert: Vec::new(),
            delete: Vec::new(),
            algorithm: None,
            branching: None,
            threads: 1,
            deadline_ms: None,
            no_cache: false,
            sets: false,
            fault: None,
            version: None,
        }
    }
}

/// One daemon response, encoded as a JSON line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Response {
    /// The request id, echoed back.
    pub id: Option<String>,
    /// Whether the request was understood and executed.
    pub ok: bool,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Whether the result came from the daemon's result cache.
    pub cached: bool,
    /// Whether the result is partial: its verdict is not exact, or the
    /// request expired while queued for an enumeration slot.
    pub best_effort: bool,
    /// Whether the verdict records an S2 deadline (the MQC list is then a
    /// sound partial antichain).
    pub s2_timed_out: bool,
    /// Wall-clock time the daemon spent on this request, in milliseconds
    /// (near zero for cache hits).
    pub elapsed_ms: f64,
    /// Number of maximal quasi-cliques found.
    pub count: usize,
    /// The MQC vertex sets (present only when the request set `sets`).
    pub mqcs: Option<Vec<Vec<u32>>>,
    /// Extra fields (ping statistics, graph fingerprint, …), carried
    /// verbatim so the protocol can grow without breaking old clients.
    pub extra: Vec<(String, Value)>,
}

/// Wrapper that lets a raw [`Value`] go through `serde_json::to_string`
/// (the vendored `Value` deliberately does not implement `Serialize`).
struct Raw<'a>(&'a Value);

impl serde::Serialize for Raw<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Renders a value tree as one compact JSON line (no trailing newline).
pub fn value_to_line(value: &Value) -> String {
    serde_json::to_string(&Raw(value)).expect("value rendering is infallible")
}

fn get<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn expect_object(value: &Value) -> Result<&[(String, Value)], String> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err("request must be a JSON object".to_string()),
    }
}

fn as_f64(v: &Value, name: &str) -> Result<f64, String> {
    match v {
        Value::Num(n) => Ok(*n),
        _ => Err(format!("field `{name}` must be a number")),
    }
}

fn as_usize(v: &Value, name: &str) -> Result<usize, String> {
    let n = as_f64(v, name)?;
    if n.fract() != 0.0 || n < 0.0 {
        return Err(format!("field `{name}` must be a non-negative integer"));
    }
    Ok(n as usize)
}

fn as_bool(v: &Value, name: &str) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field `{name}` must be a boolean")),
    }
}

fn as_str(v: &Value, name: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("field `{name}` must be a string")),
    }
}

/// Request ids may be strings or numbers on the wire; both normalise to a
/// string so the daemon can echo them without tracking the original type.
fn as_id(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        Value::Num(n) if n.fract() == 0.0 => Ok(format!("{}", *n as i64)),
        Value::Num(n) => Ok(format!("{n}")),
        _ => Err("field `id` must be a string or number".to_string()),
    }
}

fn as_vertices(v: &Value) -> Result<Vec<u32>, String> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|item| {
                let n = as_f64(item, "vertices")?;
                if n.fract() != 0.0 || n < 0.0 || n > u32::MAX as f64 {
                    return Err("field `vertices` must list vertex ids".to_string());
                }
                Ok(n as u32)
            })
            .collect(),
        _ => Err("field `vertices` must be an array of vertex ids".to_string()),
    }
}

/// Decodes an edge list (`[[u, v], …]`) from a value tree.
fn as_edges(v: &Value, name: &str) -> Result<Vec<(u32, u32)>, String> {
    let Value::Array(items) = v else {
        return Err(format!("field `{name}` must be an array of [u, v] pairs"));
    };
    items
        .iter()
        .map(|item| {
            let pair = as_vertices(item)
                .map_err(|_| format!("field `{name}` must be an array of [u, v] pairs"))?;
            match pair[..] {
                [u, v] => Ok((u, v)),
                _ => Err(format!("field `{name}` entries must be [u, v] pairs")),
            }
        })
        .collect()
}

impl Request {
    /// Decodes a request from one JSON line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let value = serde_json::parse_value(line).map_err(|e| format!("bad JSON: {e}"))?;
        Request::from_value(&value)
    }

    /// Decodes a request from a value tree. Unknown fields are rejected so a
    /// typo (`"gama"`) fails loudly instead of silently running defaults.
    pub fn from_value(value: &Value) -> Result<Request, String> {
        let fields = expect_object(value)?;
        let mut req = Request::default();
        for (key, v) in fields {
            if matches!(v, Value::Null) {
                continue;
            }
            match key.as_str() {
                "id" => req.id = Some(as_id(v)?),
                "cmd" => req.cmd = as_str(v, "cmd")?.to_ascii_lowercase(),
                "gamma" => req.gamma = as_f64(v, "gamma")?,
                "theta" => req.theta = as_usize(v, "theta")?,
                "k" => req.k = as_usize(v, "k")?,
                "vertices" => req.vertices = as_vertices(v)?,
                "insert" => req.insert = as_edges(v, "insert")?,
                "delete" => req.delete = as_edges(v, "delete")?,
                "algorithm" => req.algorithm = Some(as_str(v, "algorithm")?),
                "branching" => req.branching = Some(as_str(v, "branching")?),
                "threads" => req.threads = as_usize(v, "threads")?,
                "deadline_ms" => req.deadline_ms = Some(as_usize(v, "deadline_ms")? as u64),
                "no_cache" => req.no_cache = as_bool(v, "no_cache")?,
                "sets" => req.sets = as_bool(v, "sets")?,
                "fault" => req.fault = Some(as_str(v, "fault")?),
                "version" => req.version = Some(as_usize(v, "version")? as u32),
                other => return Err(format!("unknown request field `{other}`")),
            }
        }
        match req.cmd.as_str() {
            "enumerate" | "query" | "topk" | "ping" | "update" | "shutdown" => Ok(req),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// Encodes the request as a value tree (the client side of the wire).
    /// Defaults are omitted, so a minimal request stays minimal on the wire.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut push = |k: &str, v: Value| fields.push((k.to_string(), v));
        if let Some(id) = &self.id {
            push("id", Value::Str(id.clone()));
        }
        push("cmd", Value::Str(self.cmd.clone()));
        push("gamma", Value::Num(self.gamma));
        push("theta", Value::Num(self.theta as f64));
        if self.cmd == "topk" {
            push("k", Value::Num(self.k as f64));
        }
        if !self.vertices.is_empty() {
            push(
                "vertices",
                Value::Array(
                    self.vertices
                        .iter()
                        .map(|&v| Value::Num(v as f64))
                        .collect(),
                ),
            );
        }
        let edges_value = |edges: &[(u32, u32)]| {
            Value::Array(
                edges
                    .iter()
                    .map(|&(u, v)| Value::Array(vec![Value::Num(u as f64), Value::Num(v as f64)]))
                    .collect(),
            )
        };
        if !self.insert.is_empty() {
            push("insert", edges_value(&self.insert));
        }
        if !self.delete.is_empty() {
            push("delete", edges_value(&self.delete));
        }
        for (key, opt) in [
            ("algorithm", &self.algorithm),
            ("branching", &self.branching),
        ] {
            if let Some(s) = opt {
                push(key, Value::Str(s.clone()));
            }
        }
        if self.threads != 1 {
            push("threads", Value::Num(self.threads as f64));
        }
        if let Some(ms) = self.deadline_ms {
            push("deadline_ms", Value::Num(ms as f64));
        }
        if self.no_cache {
            push("no_cache", Value::Bool(true));
        }
        if self.sets {
            push("sets", Value::Bool(true));
        }
        if let Some(fault) = &self.fault {
            push("fault", Value::Str(fault.clone()));
        }
        if let Some(version) = self.version {
            push("version", Value::Num(version as f64));
        }
        Value::Object(fields)
    }

    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        value_to_line(&self.to_value())
    }

    /// The engine configuration this request asks for: its γ and θ plus
    /// the algorithm and branching knobs, parsed as the
    /// CLI parses its flags (an omitted knob takes the engine's default).
    ///
    /// # Errors
    /// The message of an out-of-range γ or θ, or of an unknown knob value.
    pub fn config(&self) -> Result<MqceConfig, String> {
        let knob = |e: crate::CliError| e.to_string();
        Ok(MqceConfig::new(self.gamma, self.theta)
            .map_err(|e| e.to_string())?
            .with_algorithm(crate::parse_algorithm(self.algorithm.as_deref()).map_err(knob)?)
            .with_branching(crate::parse_branching(self.branching.as_deref()).map_err(knob)?))
    }

    /// Canonical cache key: graph fingerprint plus every parameter that can
    /// change the *result*, read from `config` (the request's own
    /// [`config`](Self::config)), so an alias (`sym` / `sym-se`) and an
    /// omitted or explicit default share one key. Presentation and
    /// scheduling knobs — `id`, `sets`, `threads`, `deadline_ms`,
    /// `no_cache` — are deliberately excluded: a cached complete answer is
    /// valid for any of them. So are the parameters a command ignores: `k`
    /// outside `topk`, θ in `topk`, whose rounds pick their own, and
    /// `vertices` outside `query`. Query vertices are sorted and
    /// deduplicated (the candidate universe is an intersection, so order
    /// and multiplicity cannot matter).
    pub fn cache_key(&self, fingerprint: u64, config: &MqceConfig) -> String {
        let mut vertices = if self.cmd == "query" {
            self.vertices.clone()
        } else {
            Vec::new()
        };
        vertices.sort_unstable();
        vertices.dedup();
        let verts: Vec<String> = vertices.iter().map(|v| v.to_string()).collect();
        format!(
            "{fingerprint:016x}|{cmd}|g={gamma}|t={theta}|k={k}|v={verts}|a={alg:?}|br={br:?}",
            cmd = self.cmd,
            gamma = config.params.gamma,
            theta = if self.cmd == "topk" {
                0
            } else {
                config.params.theta
            },
            k = if self.cmd == "topk" { self.k } else { 0 },
            verts = verts.join(","),
            alg = config.algorithm,
            br = config.branching,
        )
    }
}

impl Response {
    /// A failed response carrying an error message.
    pub fn failure(id: Option<String>, error: impl Into<String>) -> Response {
        Response {
            id,
            ok: false,
            error: Some(error.into()),
            ..Response::default()
        }
    }

    /// The typed failure a peer answers when the sender's `version` does not
    /// match its own: carries `error_kind:"protocol_version"` plus the
    /// version this build speaks, so the client can report the mismatch
    /// precisely instead of guessing from an unknown-field error.
    pub fn version_mismatch(id: Option<String>, theirs: u32) -> Response {
        let mut response = Response::failure(
            id,
            format!(
                "protocol version mismatch: peer speaks v{theirs}, this build speaks v{PROTOCOL_VERSION}"
            ),
        );
        response.extra.push((
            "error_kind".to_string(),
            Value::Str("protocol_version".to_string()),
        ));
        response.extra.push((
            "protocol_version".to_string(),
            Value::Num(PROTOCOL_VERSION as f64),
        ));
        response
    }

    /// Encodes the response as a value tree.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut push = |k: &str, v: Value| fields.push((k.to_string(), v));
        if let Some(id) = &self.id {
            push("id", Value::Str(id.clone()));
        }
        push("ok", Value::Bool(self.ok));
        if let Some(err) = &self.error {
            push("error", Value::Str(err.clone()));
        }
        push("cached", Value::Bool(self.cached));
        push("best_effort", Value::Bool(self.best_effort));
        push("s2_timed_out", Value::Bool(self.s2_timed_out));
        push("elapsed_ms", Value::Num(self.elapsed_ms));
        push("count", Value::Num(self.count as f64));
        if let Some(mqcs) = &self.mqcs {
            push(
                "mqcs",
                Value::Array(
                    mqcs.iter()
                        .map(|set| {
                            Value::Array(set.iter().map(|&v| Value::Num(v as f64)).collect())
                        })
                        .collect(),
                ),
            );
        }
        for (key, v) in &self.extra {
            fields.push((key.clone(), v.clone()));
        }
        Value::Object(fields)
    }

    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        value_to_line(&self.to_value())
    }

    /// Decodes a response from one JSON line (the client side).
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let value = serde_json::parse_value(line).map_err(|e| format!("bad JSON: {e}"))?;
        let fields = expect_object(&value)?;
        let mut resp = Response::default();
        for (key, v) in fields {
            match key.as_str() {
                "id" => resp.id = Some(as_id(v)?),
                "ok" => resp.ok = as_bool(v, "ok")?,
                "error" => resp.error = Some(as_str(v, "error")?),
                "cached" => resp.cached = as_bool(v, "cached")?,
                "best_effort" => resp.best_effort = as_bool(v, "best_effort")?,
                "s2_timed_out" => resp.s2_timed_out = as_bool(v, "s2_timed_out")?,
                "elapsed_ms" => resp.elapsed_ms = as_f64(v, "elapsed_ms")?,
                "count" => resp.count = as_usize(v, "count")?,
                "mqcs" => {
                    let sets = match v {
                        Value::Array(rows) => rows
                            .iter()
                            .map(as_vertices)
                            .collect::<Result<Vec<_>, _>>()?,
                        _ => return Err("field `mqcs` must be an array".to_string()),
                    };
                    resp.mqcs = Some(sets);
                }
                other => resp.extra.push((other.to_string(), v.clone())),
            }
        }
        Ok(resp)
    }

    /// Looks up a numeric field in `extra` (ping statistics).
    pub fn extra_num(&self, name: &str) -> Option<f64> {
        get(&self.extra, name).and_then(|v| match v {
            Value::Num(n) => Some(*n),
            _ => None,
        })
    }

    /// Looks up a string field in `extra` (e.g. the graph fingerprint).
    pub fn extra_str(&self, name: &str) -> Option<&str> {
        get(&self.extra, name).and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = Request {
            id: Some("r1".to_string()),
            cmd: "query".to_string(),
            gamma: 0.8,
            theta: 3,
            vertices: vec![4, 1, 9],
            algorithm: Some("fastqc".to_string()),
            threads: 4,
            deadline_ms: Some(250),
            no_cache: true,
            sets: true,
            fault: Some("panic-worker:3".to_string()),
            ..Request::default()
        };
        let line = req.to_line();
        assert_eq!(Request::parse_line(&line).unwrap(), req);
        // Minimal request: defaults fill in.
        let min = Request::parse_line(r#"{"cmd":"enumerate"}"#).unwrap();
        assert_eq!(min.gamma, 0.9);
        assert_eq!(min.theta, 2);
        assert!(!min.sets);
    }

    #[test]
    fn update_requests_roundtrip() {
        let req = Request {
            id: Some("u1".to_string()),
            cmd: "update".to_string(),
            insert: vec![(1, 2), (3, 4)],
            delete: vec![(5, 6)],
            ..Request::default()
        };
        assert_eq!(Request::parse_line(&req.to_line()).unwrap(), req);
        // Malformed edge lists are rejected loudly.
        assert!(Request::parse_line(r#"{"cmd":"update","insert":[[1]]}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"update","insert":[1,2]}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"update","delete":[[1,2,3]]}"#).is_err());
    }

    #[test]
    fn numeric_ids_normalise_to_strings() {
        let req = Request::parse_line(r#"{"cmd":"ping","id":7}"#).unwrap();
        assert_eq!(req.id.as_deref(), Some("7"));
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::parse_line("not json").is_err());
        assert!(Request::parse_line(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"shard_run"}"#)
            .is_err_and(|e| e.contains("unknown command")));
        assert!(Request::parse_line(r#"{"cmd":"enumerate","gama":0.9}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"enumerate","theta":-1}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"enumerate","vertices":[1.5]}"#).is_err());
        assert!(Request::parse_line(r#"[1,2]"#).is_err());
    }

    /// The adjacency representation is chosen from the input, not by the
    /// request: a `backend` field is an unknown field like any typo.
    #[test]
    fn backend_field_is_rejected_as_unknown() {
        for value in [r#""slice""#, r#""auto""#] {
            let line = format!(r#"{{"cmd":"enumerate","backend":{value}}}"#);
            assert_eq!(
                Request::parse_line(&line).unwrap_err(),
                "unknown request field `backend`"
            );
        }
    }

    /// The key a daemon computes for `req` on a graph with `fingerprint`.
    fn key(req: &Request, fingerprint: u64) -> String {
        req.cache_key(fingerprint, &req.config().expect("a valid request"))
    }

    #[test]
    fn cache_key_ignores_presentation_and_scheduling_knobs() {
        let base = Request {
            cmd: "enumerate".to_string(),
            gamma: 0.85,
            theta: 4,
            ..Request::default()
        };
        let mut varied = base.clone();
        varied.id = Some("x".to_string());
        varied.sets = true;
        varied.threads = 8;
        varied.deadline_ms = Some(1000);
        varied.fault = Some("panic".to_string());
        varied.vertices = vec![1, 2];
        assert_eq!(key(&base, 42), key(&varied, 42));
        // ... but result-affecting parameters and the graph identity do key.
        let mut other = base.clone();
        other.gamma = 0.9;
        assert_ne!(key(&base, 42), key(&other, 42));
        assert_ne!(key(&base, 42), key(&base, 43));
        let with = |algorithm: &str, branching: &str| Request {
            algorithm: Some(algorithm.to_string()),
            branching: Some(branching.to_string()),
            ..base.clone()
        };
        // Explicit defaults, in any case, key like omitted options.
        assert_eq!(key(&base, 42), key(&with("DCFastQC", "Sym"), 42));
        assert_eq!(key(&base, 42), key(&with("dc", "sym-se"), 42));
        // Aliases of one value share a key; distinct values do not.
        assert_eq!(
            key(&with("quick+", "hybrid"), 42),
            key(&with("quickplus", "hybrid-se"), 42)
        );
        assert_eq!(
            key(&with("bdcfastqc", "se"), 42),
            key(&with("basic-dc", "SE"), 42)
        );
        assert_ne!(key(&base, 42), key(&with("dcfastqc", "hybrid"), 42));
        assert_ne!(key(&base, 42), key(&with("fastqc", "sym"), 42));
        // top-k ignores θ (each round sets its own) but not k.
        let topk = Request {
            cmd: "topk".to_string(),
            k: 3,
            ..base.clone()
        };
        let topk_theta = Request {
            theta: 9,
            ..topk.clone()
        };
        assert_eq!(key(&topk, 42), key(&topk_theta, 42));
        let topk_k = Request {
            k: 4,
            ..topk.clone()
        };
        assert_ne!(key(&topk, 42), key(&topk_k, 42));
    }

    #[test]
    fn query_vertex_order_does_not_change_the_key() {
        let a = Request {
            cmd: "query".to_string(),
            vertices: vec![3, 1, 2],
            ..Request::default()
        };
        let b = Request {
            cmd: "query".to_string(),
            vertices: vec![2, 3, 1, 1],
            ..Request::default()
        };
        assert_eq!(key(&a, 7), key(&b, 7));
    }

    #[test]
    fn response_roundtrips_through_json() {
        let resp = Response {
            id: Some("r1".to_string()),
            ok: true,
            cached: true,
            best_effort: false,
            s2_timed_out: false,
            elapsed_ms: 1.25,
            count: 2,
            mqcs: Some(vec![vec![0, 1, 2], vec![3, 4, 5]]),
            extra: vec![("fingerprint".to_string(), Value::Str("abc".to_string()))],
            ..Response::default()
        };
        let line = resp.to_line();
        let back = Response::parse_line(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.extra_str("fingerprint"), Some("abc"));
        assert_eq!(back.extra_num("fingerprint"), None);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let resp = Response::version_mismatch(Some("h".to_string()), 9);
        let back = Response::parse_line(&resp.to_line()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.extra_str("error_kind"), Some("protocol_version"));
        assert_eq!(
            back.extra_num("protocol_version"),
            Some(PROTOCOL_VERSION as f64)
        );
        assert!(back.error.unwrap().contains("v9"));
    }

    #[test]
    fn failure_responses_carry_the_error() {
        let resp = Response::failure(Some("q".to_string()), "boom");
        let back = Response::parse_line(&resp.to_line()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("boom"));
        assert_eq!(back.id.as_deref(), Some("q"));
    }
}
