//! The resident `mqce serve` daemon and its `mqce client` counterpart.
//!
//! Loading a large graph and computing its degeneracy ordering dominates the
//! cost of small interactive queries, so the daemon does that work once: the
//! graph and its core decomposition are packed into a [`PreparedGraph`]
//! behind an `Arc` and shared read-only by every connection. Requests
//! arrive as newline-delimited JSON (see [`crate::protocol`]) over TCP or a
//! Unix socket; each connection gets its own thread and is answered in
//! order.
//!
//! Three mechanisms keep the daemon responsive:
//!
//! * **Result cache** — complete (non-best-effort) answers are stored in an
//!   LRU keyed on the graph fingerprint plus the canonicalised
//!   result-affecting parameters, so a repeated request costs a hash lookup
//!   instead of an enumeration. Maximality does not depend on θ, so a
//!   cached exact `enumerate` family at (γ, θ₀) also answers every
//!   `enumerate` at (γ, θ ≥ θ₀) with the same algorithm and branching, and
//!   every `query` at (γ, θ ≥ θ₀): the answer is the family filtered to
//!   sets of size ≥ θ that contain the query vertices, in the same
//!   canonical order. Such a *derived* answer is never stored, and an
//!   `enumerate` entry that another one answers is never kept.
//! * **Admission control** — at most `max_inflight` enumerations run
//!   concurrently; excess requests queue on a condvar. Cache hits and pings
//!   bypass the gate entirely.
//! * **Deadlines** — a request's `deadline_ms` budget is measured from
//!   arrival and covers queueing: whatever is left after admission becomes
//!   the pipeline time limit, and a request whose budget ran out while
//!   queued returns immediately, flagged best-effort (the zero-budget path
//!   through the S2 deadline logic guarantees prompt return).
//!
//! The graph is **not** immutable: an `update` request applies a
//! [`GraphDelta`] in place. The prepared graph lives behind an `RwLock` of
//! `Arc` snapshots — computations clone the `Arc` under a brief read lock
//! and keep working on their snapshot while an update swaps in the next
//! one, and a dedicated mutex serialises updates so delta application,
//! core maintenance and the fingerprint swap are atomic with respect to
//! each other. The result cache survives updates selectively: per-vertex
//! `query` answers whose vertices all fall outside the update's dirty
//! two-hop closure cannot have changed (the anchored decomposition bounds
//! every affected maximal quasi-clique inside that closure), so those
//! entries are re-keyed under the new fingerprint. The most recently used
//! `enumerate` answers of a DC algorithm are carried across: each is
//! advanced over the dirty anchors ([`mqce_core::advance`]) and re-keyed
//! if the advance is exact. Everything else under the old fingerprint is
//! invalidated.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use mqce_core::{Completeness, MqceConfig, PreparedGraph, Session};
use mqce_graph::{Graph, GraphDelta, SubproblemScratch, WriteAheadLog};
use serde::Value;

use crate::args::ParsedArgs;
use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::CliError;

/// Daemon configuration (everything except the listening endpoint).
#[derive(Clone, Debug)]
pub struct ServeSettings {
    /// Maximum number of enumerations running concurrently.
    pub max_inflight: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Append one summary [`RunRecord`](mqce_bench::runner::RunRecord) to
    /// this bench log at shutdown.
    pub bench_log: Option<PathBuf>,
    /// Dataset label used in the bench-log record and ping responses.
    pub graph_label: String,
    /// Write-ahead log for `update` requests. When set, every delta is
    /// checksummed and fsync'd here *before* it is applied, so a killed
    /// daemon restarted with the same log replays to the exact pre-crash
    /// graph (same fingerprint, same family). `update` responses report the
    /// durability watermark as `wal_offset`.
    pub wal: Option<Arc<Mutex<WriteAheadLog>>>,
    /// Honour the debug-only `fault` request field (panic injection), used
    /// by the fault-containment tests. Leave off in production: a fault
    /// request can deliberately panic a handler.
    pub fault_injection: bool,
}

impl Default for ServeSettings {
    fn default() -> Self {
        ServeSettings {
            max_inflight: 2,
            cache_capacity: 128,
            bench_log: None,
            graph_label: String::new(),
            wal: None,
            fault_injection: false,
        }
    }
}

/// Counters the daemon reports in `ping` responses and at shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Total requests answered (including pings and failures).
    pub requests: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Of those, the hits derived by filtering a cached `enumerate` family
    /// at the same γ and a lower θ.
    pub cache_derived: u64,
    /// Requests whose deadline expired while queued for admission.
    pub expired: u64,
    /// Malformed or invalid requests.
    pub errors: u64,
    /// Requests that consulted the result cache and missed.
    pub cache_misses: u64,
    /// Entries dropped from the cache: LRU evictions plus invalidations
    /// forced by `update` requests.
    pub cache_evictions: u64,
    /// Entries resident in the cache when the snapshot was taken.
    pub cache_len: u64,
}

#[derive(Default)]
struct ServeStats {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_derived: AtomicU64,
    expired: AtomicU64,
    errors: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

impl ServeStats {
    fn snapshot(&self, cache_len: usize) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_derived: self.cache_derived.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_len: cache_len as u64,
        }
    }
}

/// Recovers the guarded value from a poisoned lock. Poisoning only records
/// that a panic unwound while the lock was held; every structure the daemon
/// guards is either unconditionally consistent at that point (`Arc` swaps,
/// counters, the WAL's append-only offset) or re-validated by its accessor
/// (the result cache is cleared — see [`ServerState::cache`]), so recovering
/// is safe and one panicking request can never wedge every later one.
fn unpoison<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Counting semaphore for admission control. Waiters honour a deadline so a
/// request cannot be stuck in the queue past its budget.
struct Gate {
    slots: Mutex<usize>,
    cv: Condvar,
    capacity: usize,
}

impl Gate {
    fn new(capacity: usize) -> Gate {
        Gate {
            slots: Mutex::new(0),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Waits for a slot. Returns `false` if `deadline` passes first.
    fn acquire(&self, deadline: Option<Instant>) -> bool {
        let mut in_flight = unpoison(self.slots.lock());
        loop {
            if *in_flight < self.capacity {
                *in_flight += 1;
                return true;
            }
            match deadline {
                None => in_flight = unpoison(self.cv.wait(in_flight)),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    in_flight = unpoison(self.cv.wait_timeout(in_flight, d - now)).0;
                }
            }
        }
    }

    fn release(&self) {
        let mut in_flight = unpoison(self.slots.lock());
        *in_flight = in_flight.saturating_sub(1);
        drop(in_flight);
        self.cv.notify_one();
    }
}

/// RAII slot holder so the gate is released on every return path.
struct GateGuard<'a>(&'a Gate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A complete answer worth replaying: the MQC sets plus the command-specific
/// extras (query universe size, top-k round count, …). The command, its
/// query vertices and, for `enumerate`, its configuration are kept so
/// `update` can decide which entries survive a graph mutation and advance
/// the enumerations it carries.
#[derive(Clone)]
struct CachedOutcome {
    cmd: String,
    vertices: Vec<u32>,
    /// The configuration an `enumerate` answer was computed under; `None`
    /// for the other commands.
    config: Option<MqceConfig>,
    mqcs: Vec<Vec<u32>>,
    extra: Vec<(String, Value)>,
}

impl CachedOutcome {
    /// Whether this answer holds every set a `cmd` request under `config`
    /// asks for, on the same graph: it is an `enumerate` family at the same
    /// γ and a θ no larger, and for an `enumerate` request also under the
    /// same algorithm and branching (a `query` ignores the algorithm, and
    /// every algorithm and branching finds the same family). A maximal
    /// quasi-clique is maximal whatever θ is, so the family at θ is exactly
    /// this family's sets of size ≥ θ, and a query's answer is those of them
    /// that contain the query vertices.
    fn answers(&self, cmd: &str, config: &MqceConfig) -> bool {
        let Some(own) = self.config.filter(|_| self.cmd == "enumerate") else {
            return false;
        };
        own.params.gamma == config.params.gamma
            && own.params.theta <= config.params.theta
            && match cmd {
                "enumerate" => {
                    own.algorithm == config.algorithm && own.branching == config.branching
                }
                "query" => true,
                _ => false,
            }
    }
}

/// The fingerprint part of a cache key (`"<fingerprint>|"`), which every
/// entry computed on the same graph shares.
fn key_prefix(key: &str) -> &str {
    key.find('|').map_or(key, |end| &key[..=end])
}

/// What `update` does with one cache entry under the old fingerprint.
enum Migration {
    /// Still valid: keep it under this key.
    Keep(String),
    /// Take it out to be advanced, then stored under this key.
    Take(String),
    /// Invalid: evict it.
    Drop,
}

/// How many cached `enumerate` answers an `update` advances (the most
/// recently used ones); the rest are evicted.
const ADVANCE_LIMIT: usize = 8;

/// Least-recently-used result cache. Capacity is small (hundreds), so the
/// O(capacity) eviction scan is cheaper than an intrusive list and keeps the
/// structure trivially correct.
struct ResultCache {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, Arc<CachedOutcome>)>,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<CachedOutcome>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(used, outcome)| {
            *used = tick;
            Arc::clone(outcome)
        })
    }

    /// The answer to a `cmd` request under `config` whose own entry is
    /// `key`: that entry if it is cached, else the entry on the same graph
    /// that [answers](CachedOutcome::answers) it with the smallest family,
    /// i.e. the largest θ. Either is marked used.
    fn lookup(
        &mut self,
        key: &str,
        cmd: &str,
        config: &MqceConfig,
    ) -> Option<(Arc<CachedOutcome>, Source)> {
        if let Some(outcome) = self.get(key) {
            return Some((outcome, Source::Cached));
        }
        let prefix = key_prefix(key);
        let (used, outcome) = self
            .map
            .iter_mut()
            .filter(|(other, (_, outcome))| {
                other.starts_with(prefix) && outcome.answers(cmd, config)
            })
            .max_by_key(|(_, (_, outcome))| outcome.config.map(|c| c.params.theta))
            .map(|(_, entry)| entry)?;
        *used = self.tick;
        Some((Arc::clone(outcome), Source::Derived))
    }

    /// Inserts an entry, evicting the least-recently-used one at capacity.
    /// An `enumerate` family that another entry on the same graph answers is
    /// not stored; one that is stored first drops the entries it answers.
    /// Returns how many entries were dropped, so the daemon's eviction
    /// counter stays exact.
    fn insert(&mut self, key: String, outcome: Arc<CachedOutcome>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        let mut evicted = 0;
        if let Some(config) = outcome.config.filter(|_| outcome.cmd == "enumerate") {
            let prefix = key_prefix(&key);
            let same_graph = |other: &str| other != key && other.starts_with(prefix);
            if self
                .map
                .iter()
                .any(|(other, (_, held))| same_graph(other) && held.answers("enumerate", &config))
            {
                return 0;
            }
            let before = self.map.len();
            self.map.retain(|other, (_, held)| {
                !(same_graph(other)
                    && held.cmd == "enumerate"
                    && held
                        .config
                        .is_some_and(|held| outcome.answers("enumerate", &held)))
            });
            evicted += (before - self.map.len()) as u64;
        }
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted += 1;
            }
        }
        self.map.insert(key, (self.tick, outcome));
        evicted
    }

    /// Rewrites every entry through `migrate`: [`Migration::Keep`] keeps
    /// the entry under its new key (preserving its recency),
    /// [`Migration::Take`] removes it and hands it back, [`Migration::Drop`]
    /// evicts it. Returns how many entries were dropped, and the taken ones
    /// with their new keys, most recently used first. This is how `update`
    /// re-keys surviving answers under the new fingerprint.
    fn retain_rekey<F>(&mut self, mut migrate: F) -> (u64, Vec<(String, Arc<CachedOutcome>)>)
    where
        F: FnMut(&str, &CachedOutcome) -> Migration,
    {
        let mut dropped = 0;
        let mut taken = Vec::new();
        let entries: Vec<_> = self.map.drain().collect();
        for (key, (used, outcome)) in entries {
            match migrate(&key, &outcome) {
                Migration::Keep(new_key) => {
                    self.map.insert(new_key, (used, outcome));
                }
                Migration::Take(new_key) => taken.push((used, new_key, outcome)),
                Migration::Drop => dropped += 1,
            }
        }
        taken.sort_unstable_by_key(|&(used, ..)| std::cmp::Reverse(used));
        let taken = taken
            .into_iter()
            .map(|(_, key, outcome)| (key, outcome))
            .collect();
        (dropped, taken)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every entry, returning how many were removed. Used when the
    /// mutex around the cache was poisoned: a panic mid-mutation may have
    /// left a torn entry, and recomputing a few answers is safe where
    /// serving a half-written one is not.
    fn clear(&mut self) -> u64 {
        let n = self.map.len() as u64;
        self.map.clear();
        n
    }
}

/// How a connection thread pokes the blocked `accept` loop after setting the
/// shutdown flag: a throwaway self-connection.
enum WakeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl WakeTarget {
    fn wake(&self) {
        match self {
            WakeTarget::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
            #[cfg(unix)]
            WakeTarget::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

/// Everything a connection thread needs, shared behind one `Arc`.
struct ServerState {
    /// The current graph snapshot. Computations take a brief read lock to
    /// clone the `Arc` and then work lock-free on their snapshot; `update`
    /// swaps in a freshly prepared graph under the write lock.
    prepared: RwLock<Arc<PreparedGraph>>,
    /// Serialises `update` requests end to end (apply → prepare → swap →
    /// cache re-key) so two concurrent deltas cannot interleave.
    update_lock: Mutex<()>,
    settings: ServeSettings,
    cache: Mutex<ResultCache>,
    gate: Gate,
    stats: ServeStats,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    wake: WakeTarget,
}

impl ServerState {
    fn snapshot(&self) -> Arc<PreparedGraph> {
        let guard = unpoison(self.prepared.read());
        Arc::clone(&guard)
    }

    /// Locks the result cache, recovering from poisoning by discarding the
    /// (possibly torn) contents. The dropped entries are counted as
    /// evictions so the accounting stays exact, and the poison mark is
    /// cleared so later lockers take the fast path again.
    fn cache(&self) -> MutexGuard<'_, ResultCache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.cache.clear_poison();
                let mut guard = poisoned.into_inner();
                let dropped = guard.clear();
                self.stats
                    .cache_evictions
                    .fetch_add(dropped, Ordering::Relaxed);
                guard
            }
        }
    }
}

/// A connected client stream, TCP or Unix.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Runs the daemon on an already-bound TCP listener until a `shutdown`
/// request arrives. Binding is the caller's job so tests and the CLI can
/// both use port 0 and learn the real address before the loop starts.
pub fn serve_tcp(listener: TcpListener, graph: Graph, settings: ServeSettings) -> ServeSummary {
    let wake = WakeTarget::Tcp(
        listener
            .local_addr()
            .expect("bound listener has an address"),
    );
    serve_on(Listener::Tcp(listener), wake, graph, settings)
}

/// Runs the daemon on a Unix socket path until a `shutdown` request
/// arrives. The socket file is removed when the daemon exits.
#[cfg(unix)]
pub fn serve_unix(
    path: &std::path::Path,
    graph: Graph,
    settings: ServeSettings,
) -> std::io::Result<ServeSummary> {
    let listener = UnixListener::bind(path)?;
    let summary = serve_on(
        Listener::Unix(listener),
        WakeTarget::Unix(path.to_path_buf()),
        graph,
        settings,
    );
    let _ = std::fs::remove_file(path);
    Ok(summary)
}

fn serve_on(
    listener: Listener,
    wake: WakeTarget,
    graph: Graph,
    settings: ServeSettings,
) -> ServeSummary {
    let bench_log = settings.bench_log.clone();
    let graph_label = settings.graph_label.clone();
    let state = Arc::new(ServerState {
        prepared: RwLock::new(Arc::new(PreparedGraph::new(graph))),
        update_lock: Mutex::new(()),
        gate: Gate::new(settings.max_inflight),
        cache: Mutex::new(ResultCache::new(settings.cache_capacity)),
        settings,
        stats: ServeStats::default(),
        shutdown: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
        wake,
    });

    loop {
        match listener.accept() {
            Ok(stream) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let conn_state = Arc::clone(&state);
                state.active_connections.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &conn_state);
                    conn_state.active_connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure; keep serving.
            }
        }
    }

    // Let in-flight connections finish before reporting (bounded, so a hung
    // client cannot pin the process).
    let drain_start = Instant::now();
    while state.active_connections.load(Ordering::SeqCst) > 0
        && drain_start.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(2));
    }

    let cache_len = state.cache().len();
    let summary = state.stats.snapshot(cache_len);
    if let Some(path) = bench_log {
        let _ = mqce_bench::runner::append_json(&path, &[serve_record(&graph_label, summary)]);
    }
    summary
}

/// The bench-log row the daemon appends at shutdown: a normal `RunRecord`
/// whose serve-specific counters are filled in and whose per-run fields are
/// zeroed (the daemon aggregates many heterogeneous requests).
fn serve_record(label: &str, summary: ServeSummary) -> mqce_bench::runner::RunRecord {
    mqce_bench::runner::RunRecord {
        dataset: label.to_string(),
        algorithm: "serve".to_string(),
        branching: "-".to_string(),
        s2_backend: "-".to_string(),
        serve_requests: summary.requests,
        serve_cache_hits: summary.cache_hits,
        serve_cache_derived: summary.cache_derived,
        serve_cache_misses: summary.cache_misses,
        serve_cache_evictions: summary.cache_evictions,
        serve_cache_len: summary.cache_len,
        ..Default::default()
    }
}

/// Hard cap on one request line. The protocol's biggest legitimate payloads
/// (bulk update edge lists) fit comfortably; anything larger is either a
/// mistake or an attempt to balloon daemon memory, and is answered with a
/// clean error instead of being buffered without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One bounded read from a connection.
enum LineRead {
    /// A complete line (without the newline), within the size cap.
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the cap; the connection should be dropped (the
    /// remainder of the stream can no longer be framed reliably).
    TooLong,
}

/// Reads one newline-terminated line without ever buffering more than `max`
/// bytes of it — the `BufRead::lines` convenience would happily grow its
/// `String` to the size of whatever a client streams at us.
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                // Final line without a trailing newline.
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    reader.consume(pos + 1);
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max {
                    reader.consume(len);
                    drain_line(reader, 8 * max)?;
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// Discards the remainder of an oversized line (through its newline, EOF, or
/// a hard budget). Without this, closing the connection while the client is
/// still mid-write would RST the stream and could destroy the error response
/// sitting in the client's receive buffer before it is read.
fn drain_line<R: BufRead>(reader: &mut R, budget: usize) -> std::io::Result<()> {
    let mut discarded = 0usize;
    while discarded < budget {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                discarded += len;
                reader.consume(len);
            }
        }
    }
    Ok(())
}

fn handle_connection(stream: Stream, state: &Arc<ServerState>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, MAX_LINE_BYTES)? {
            LineRead::Eof => break,
            LineRead::TooLong => {
                state.stats.requests.fetch_add(1, Ordering::Relaxed);
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                let response =
                    Response::failure(None, format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                writer.write_all(response.to_line().as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                break;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_line(state, &line);
        writer.write_all(response.to_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            state.wake.wake();
            break;
        }
    }
    Ok(())
}

/// Best human-readable rendering of a panic payload (panics almost always
/// carry a `&str` or `String` message).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn handle_line(state: &ServerState, line: &str) -> (Response, bool) {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    match Request::parse_line(line) {
        Err(e) => {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            (Response::failure(None, e), false)
        }
        Ok(req) => {
            // Containment boundary: a panicking handler answers *this*
            // request with a typed internal error instead of killing its
            // connection thread and leaving the client to diagnose an EOF.
            // `AssertUnwindSafe` is sound because all state the handler can
            // touch is shared and lock-guarded, and every lock recovers from
            // poisoning into a consistent value (the cache by discarding its
            // contents, everything else because its invariants hold wherever
            // a panic can unwind through — see `unpoison`).
            let id = req.id.clone();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_request(state, req)
            })) {
                Ok(answered) => answered,
                Err(payload) => {
                    state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    let mut response = Response::failure(
                        id,
                        format!(
                            "internal error: request handler panicked: {}",
                            panic_message(payload.as_ref())
                        ),
                    );
                    response
                        .extra
                        .push(("error_kind".to_string(), Value::Str("internal".to_string())));
                    (response, false)
                }
            }
        }
    }
}

/// Vets the debug-only `fault` request field. Returns an error response when
/// fault injection is disabled or the mode is unknown, and panics on the
/// spot for the handler-level modes — the containment boundary in
/// [`handle_line`] turns that into a typed internal-error response.
/// `panic-worker:<v>` returns `None` and is applied inside
/// [`compute_response`], where the enumeration config exists.
fn fault_gate(state: &ServerState, req: &Request) -> Option<Response> {
    let fault = req.fault.as_deref()?;
    if !state.settings.fault_injection {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
        return Some(Response::failure(
            req.id.clone(),
            "fault injection is disabled (start the daemon with --fault-injection)",
        ));
    }
    match fault {
        "panic" => panic!("injected fault: handler panic"),
        "panic-locked" => {
            // Panic while holding the cache lock: exercises the poison
            // recovery in `ServerState::cache` (the next locker clears the
            // torn cache and carries on) instead of wedging every later
            // cache access.
            let _cache = state.cache();
            panic!("injected fault: handler panic while holding the cache lock");
        }
        mode if mode.starts_with("panic-worker:") => None,
        other => {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            Some(Response::failure(
                req.id.clone(),
                format!("unknown fault mode {other:?}"),
            ))
        }
    }
}

fn handle_request(state: &ServerState, req: Request) -> (Response, bool) {
    let arrival = Instant::now();
    // Version negotiation: a stamped request from a peer speaking a
    // different protocol version is rejected with a typed failure before
    // any work happens (unstamped requests are accepted for compatibility
    // with clients that predate the field).
    if let Some(theirs) = req.version {
        if theirs != PROTOCOL_VERSION {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            return (Response::version_mismatch(req.id, theirs), false);
        }
    }
    if let Some(response) = fault_gate(state, &req) {
        return (response, false);
    }
    match req.cmd.as_str() {
        "ping" => (ping_response(state, &req), false),
        // Updates mutate the graph, so they bypass the result cache entirely
        // (rather: they rewrite it) and are never stored in it.
        "update" => {
            let response = update_response(state, &req, arrival);
            if !response.ok {
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
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
        _ => {
            let response = compute_response(state, req, arrival);
            if !response.ok {
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            (response, false)
        }
    }
}

fn ping_response(state: &ServerState, req: &Request) -> Response {
    let cache_len = state.cache().len();
    let stats = state.stats.snapshot(cache_len);
    let prepared = state.snapshot();
    let g = prepared.graph();
    let extra = vec![
        (
            "protocol_version".to_string(),
            Value::Num(PROTOCOL_VERSION as f64),
        ),
        (
            "fingerprint".to_string(),
            Value::Str(format!("{:016x}", prepared.fingerprint())),
        ),
        (
            "graph".to_string(),
            Value::Str(state.settings.graph_label.clone()),
        ),
        ("vertices".to_string(), Value::Num(g.num_vertices() as f64)),
        ("edges".to_string(), Value::Num(g.num_edges() as f64)),
        (
            "degeneracy".to_string(),
            Value::Num(prepared.degeneracy() as f64),
        ),
        ("requests".to_string(), Value::Num(stats.requests as f64)),
        (
            "cache_hits".to_string(),
            Value::Num(stats.cache_hits as f64),
        ),
        (
            "cache_derived".to_string(),
            Value::Num(stats.cache_derived as f64),
        ),
        (
            "cache_misses".to_string(),
            Value::Num(stats.cache_misses as f64),
        ),
        (
            "cache_evictions".to_string(),
            Value::Num(stats.cache_evictions as f64),
        ),
        ("cache_len".to_string(), Value::Num(stats.cache_len as f64)),
    ];
    Response {
        id: req.id.clone(),
        ok: true,
        extra,
        ..Response::default()
    }
}

/// Handles an `update` request: applies the [`GraphDelta`] to the current
/// snapshot, recomputes the core decomposition (reporting which vertices
/// changed core number), swaps in the freshly prepared graph — the
/// fingerprint is recomputed from the mutated CSR, so it tracks the graph
/// exactly — and re-keys the result cache ([`carry_cache`]). A batch that
/// changes no edge (every insert present, every delete absent) is still
/// logged, but swaps nothing and keeps every cache entry: its response
/// reports the same fingerprint twice and `cache_advanced` 0.
fn update_response(state: &ServerState, req: &Request, arrival: Instant) -> Response {
    if req.insert.is_empty() && req.delete.is_empty() {
        return Response::failure(
            req.id.clone(),
            "`update` needs a non-empty `insert` or `delete` list",
        );
    }
    let delta = GraphDelta::new(req.insert.clone(), req.delete.clone());

    // One update at a time: apply → prepare → swap → re-key is atomic with
    // respect to other updates. Readers keep using their snapshots.
    let _updating = unpoison(state.update_lock.lock());
    let old = state.snapshot();

    // Refuse ids the batch cannot grow the graph to before anything is
    // logged: applying one would allocate CSR offsets for every skipped id,
    // and a logged one would be replayed on every restart.
    let n = old.graph().num_vertices();
    if let Some(v) = delta.insert_beyond_growth(n) {
        return Response::failure(
            req.id.clone(),
            format!(
                "insert endpoint {v} is out of range: {} inserts may grow this \
                 {n}-vertex graph to ids below {}",
                delta.inserts().len(),
                n + 2 * delta.inserts().len()
            ),
        );
    }

    // Durability first: the delta is checksummed and fsync'd to the WAL
    // *before* it is applied, so a daemon killed at any later point replays
    // it on restart and an acknowledged update is never lost. If the append
    // fails the update is refused outright — the WAL must never lag the
    // in-memory graph. (The converse — a logged delta whose in-process apply
    // then fails — is surfaced as an error here and healed by the next
    // restart's replay: the log is the durable source of truth.)
    let wal_offset = match state.settings.wal.as_ref() {
        Some(wal) => match unpoison(wal.lock()).append(&delta) {
            Ok(offset) => Some(offset),
            Err(e) => {
                return Response::failure(
                    req.id.clone(),
                    format!("WAL append failed; update not applied: {e}"),
                )
            }
        },
        None => None,
    };

    let old_fingerprint = old.fingerprint();
    let (prepared, dirty, core_changed, invalidated, advanced) = match old
        .apply_delta(&delta, &mut SubproblemScratch::new())
    {
        Some((prepared, dirty, core_changed)) => {
            let prepared = Arc::new(prepared);
            *unpoison(state.prepared.write()) = Arc::clone(&prepared);
            let (invalidated, advanced) = carry_cache(state, old_fingerprint, &prepared, &dirty);
            (prepared, dirty, core_changed, invalidated, advanced)
        }
        // The batch changes no edge: the graph, its fingerprint and
        // every cached answer stay as they are.
        None => (old, Vec::new(), 0, 0, 0),
    };
    let new_fingerprint = prepared.fingerprint();
    let kept = state.cache().len();

    let g = prepared.graph();
    let mut extra = vec![
        (
            "fingerprint".to_string(),
            Value::Str(format!("{new_fingerprint:016x}")),
        ),
        (
            "previous_fingerprint".to_string(),
            Value::Str(format!("{old_fingerprint:016x}")),
        ),
        (
            "updates_applied".to_string(),
            Value::Num(delta.len() as f64),
        ),
        ("dirty".to_string(), Value::Num(dirty.len() as f64)),
        ("core_changed".to_string(), Value::Num(core_changed as f64)),
        ("vertices".to_string(), Value::Num(g.num_vertices() as f64)),
        ("edges".to_string(), Value::Num(g.num_edges() as f64)),
        (
            "cache_invalidated".to_string(),
            Value::Num(invalidated as f64),
        ),
        ("cache_kept".to_string(), Value::Num(kept as f64)),
        ("cache_advanced".to_string(), Value::Num(advanced as f64)),
    ];
    if let Some(offset) = wal_offset {
        // The durability watermark: the log is fsync'd up to (and including)
        // this delta at this byte offset.
        extra.push(("wal_offset".to_string(), Value::Num(offset as f64)));
    }
    Response {
        id: req.id.clone(),
        ok: true,
        elapsed_ms: arrival.elapsed().as_secs_f64() * 1e3,
        extra,
        ..Response::default()
    }
}

/// Re-keys the result cache after an update that changed the graph from the
/// one fingerprinted `old_fingerprint` to `prepared`, with dirty two-hop
/// closure `dirty`. `query` answers fully outside the closure are still
/// valid; the [`ADVANCE_LIMIT`] most recently used `enumerate` answers of a
/// DC algorithm are advanced (see [`advance_entry`]). No cached `enumerate`
/// answers another ([`ResultCache::insert`] keeps none that is), so each
/// family advanced is one no other entry could serve. Anything else (top-k
/// answers, queries touching the closure, whole-graph enumerations,
/// leftovers from even older fingerprints) is dropped. Returns how many
/// entries were dropped, which also counts them as evictions, and how many
/// were advanced.
fn carry_cache(
    state: &ServerState,
    old_fingerprint: u64,
    prepared: &PreparedGraph,
    dirty: &[u32],
) -> (u64, u64) {
    let old_prefix = format!("{old_fingerprint:016x}|");
    let new_prefix = format!("{:016x}|", prepared.fingerprint());
    let (mut invalidated, mut taken) = state.cache().retain_rekey(|key, outcome| {
        let Some(rest) = key.strip_prefix(old_prefix.as_str()) else {
            return Migration::Drop;
        };
        let new_key = format!("{new_prefix}{rest}");
        match (outcome.cmd.as_str(), outcome.config) {
            ("query", _)
                if !outcome.vertices.is_empty()
                    && outcome
                        .vertices
                        .iter()
                        .all(|v| dirty.binary_search(v).is_err()) =>
            {
                Migration::Keep(new_key)
            }
            ("enumerate", Some(config)) if mqce_core::can_advance(&config) => {
                Migration::Take(new_key)
            }
            _ => Migration::Drop,
        }
    });

    // Advance the most recently used enumerations, without holding the
    // cache lock, least recently used first so the stored entries keep
    // their relative recency. An advance that is not exact evicts its entry.
    invalidated += taken.len().saturating_sub(ADVANCE_LIMIT) as u64;
    taken.truncate(ADVANCE_LIMIT);
    let threads = crate::resolve_threads(0);
    let mut advanced = 0u64;
    for (key, outcome) in taken.into_iter().rev() {
        match advance_entry(outcome, prepared, dirty, threads) {
            Some(outcome) => {
                let evicted = state.cache().insert(key, Arc::new(outcome));
                state
                    .stats
                    .cache_evictions
                    .fetch_add(evicted, Ordering::Relaxed);
                advanced += 1;
            }
            None => invalidated += 1,
        }
    }
    state
        .stats
        .cache_evictions
        .fetch_add(invalidated, Ordering::Relaxed);
    (invalidated, advanced)
}

/// Carries a cached `enumerate` answer across an update: advances its family
/// over the dirty anchors `dirty` of the updated graph `prepared`
/// ([`mqce_core::advance`]) on `threads` workers. The family moves into the
/// advance unless a reader still holds the entry. Returns `None` — the
/// entry is evicted — when the answer has no DC decomposition to advance or
/// the advance is not exact, so a partial family is never cached. The
/// carried answer drops its extras, which described the run that computed
/// the old family.
fn advance_entry(
    outcome: Arc<CachedOutcome>,
    prepared: &PreparedGraph,
    dirty: &[u32],
    threads: usize,
) -> Option<CachedOutcome> {
    let mut outcome = Arc::unwrap_or_clone(outcome);
    let config = outcome.config?;
    let family = std::mem::take(&mut outcome.mqcs);
    let (mqcs, advanced) = mqce_core::advance(family, &config, threads, prepared, dirty)?;
    advanced.completeness.is_exact().then(|| CachedOutcome {
        mqcs,
        extra: Vec::new(),
        ..outcome
    })
}

fn compute_response(state: &ServerState, req: Request, arrival: Instant) -> Response {
    let mut config = match req.config() {
        Ok(config) => config,
        Err(e) => return Response::failure(req.id, e),
    };
    // `fault_gate` already vetted the field; only the worker mode reaches
    // this point. The anchor flows to the DC drivers through the params so
    // the request exercises the real per-subproblem containment boundary.
    if let Some(anchor) = req
        .fault
        .as_deref()
        .and_then(|f| f.strip_prefix("panic-worker:"))
    {
        match anchor.parse::<u32>() {
            Ok(v) => config.params.fail_anchor = Some(v),
            Err(_) => {
                return Response::failure(
                    req.id,
                    format!("bad fault anchor {anchor:?} (expected panic-worker:<vertex>)"),
                )
            }
        }
    }
    // Fault requests bypass the cache in both directions: a cached clean
    // answer must not mask the injected fault, and a faulted answer must
    // never be served to a clean request.
    let use_cache = !req.no_cache && req.fault.is_none();
    if req.cmd == "query" && req.vertices.is_empty() {
        return Response::failure(req.id, "`query` needs a non-empty `vertices` list");
    }
    let deadline = req
        .deadline_ms
        .map(|ms| arrival + Duration::from_millis(ms));
    // The snapshot pins one graph version for the whole request: the cache
    // key, the enumeration and the stored outcome all agree even if an
    // update lands mid-request.
    let prepared = state.snapshot();
    // A query is checked before the cache is: an invalid one gets the error
    // a fresh search gives, whatever answer the cache could filter.
    if req.cmd == "query" {
        if let Err(e) = mqce_core::query::validate_query(prepared.graph(), &req.vertices) {
            return Response::failure(req.id, e.to_string());
        }
    }
    let key = req.cache_key(prepared.fingerprint(), &config);

    if use_cache {
        let found = state.cache().lookup(&key, &req.cmd, &config);
        match found {
            Some((outcome, source)) => {
                state.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                if source == Source::Derived {
                    state.stats.cache_derived.fetch_add(1, Ordering::Relaxed);
                }
                return render(&req, &outcome, source, Completeness::default(), arrival);
            }
            None => {
                state.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    if !state.gate.acquire(deadline) {
        // The budget ran out while queued: answer promptly and honestly
        // rather than running an enumeration the client stopped waiting for.
        state.stats.expired.fetch_add(1, Ordering::Relaxed);
        return Response {
            id: req.id,
            ok: true,
            best_effort: true,
            elapsed_ms: arrival.elapsed().as_secs_f64() * 1e3,
            ..Response::default()
        };
    }
    let _slot = GateGuard(&state.gate);

    // Whatever budget survived queueing becomes the pipeline's time limit; a
    // fully spent budget becomes a zero limit, which the pipeline answers
    // immediately with the best-effort flags set.
    let config = match deadline {
        Some(d) => config.with_time_limit(d.saturating_duration_since(Instant::now())),
        None => config,
    };

    let (mqcs, extra, completeness) = match req.cmd.as_str() {
        "enumerate" => {
            let result = Session::open_prepared(Arc::clone(&prepared))
                .config(config)
                .threads(crate::resolve_threads(req.threads))
                .run();
            let extra = vec![("s2_engine".to_string(), Value::Str(result.s2.to_string()))];
            (result.mqcs, extra, result.completeness)
        }
        "query" => {
            let result =
                match mqce_core::find_mqcs_containing(prepared.graph(), &req.vertices, &config) {
                    Ok(result) => result,
                    Err(e) => return Response::failure(req.id, e.to_string()),
                };
            let extra = vec![(
                "universe".to_string(),
                Value::Num(result.universe_size as f64),
            )];
            (result.mqcs, extra, result.completeness)
        }
        "topk" => {
            let result =
                match mqce_core::find_largest_mqcs(&prepared, req.gamma, req.k, Some(config)) {
                    Ok(result) => result,
                    Err(e) => return Response::failure(req.id, e.to_string()),
                };
            let extra = vec![
                (
                    "final_theta".to_string(),
                    Value::Num(result.final_theta as f64),
                ),
                ("rounds".to_string(), Value::Num(result.rounds as f64)),
            ];
            (result.mqcs, extra, result.completeness)
        }
        other => return Response::failure(req.id, format!("unknown command {other:?}")),
    };
    let outcome = Arc::new(CachedOutcome {
        cmd: req.cmd.clone(),
        vertices: req.vertices.clone(),
        config: (req.cmd == "enumerate").then_some(config),
        mqcs,
        extra,
    });

    // Only exact answers are cached; a partial one may miss sets.
    if use_cache && completeness.is_exact() {
        let evicted = state.cache().insert(key, Arc::clone(&outcome));
        state
            .stats
            .cache_evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }
    render(&req, &outcome, Source::Computed, completeness, arrival)
}

/// Where the outcome a response renders came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Computed for this request.
    Computed,
    /// The request's own cache entry.
    Cached,
    /// Another request's cached `enumerate` family, which
    /// [answers](CachedOutcome::answers) this one once filtered.
    Derived,
}

/// The response to `req`: the outcome plus the status flags of its
/// `completeness`. A partial answer is `best_effort`, and a contained
/// worker panic also reports its count and anchor. A derived answer is the
/// outcome's sets of size ≥ θ that hold every query vertex, counted in
/// place and copied only when `sets` asks for them; the extras, which
/// describe the run that computed the family, are dropped.
fn render(
    req: &Request,
    outcome: &CachedOutcome,
    source: Source,
    completeness: Completeness,
    arrival: Instant,
) -> Response {
    let (count, mqcs, mut extra) = if source == Source::Derived {
        let vertices: &[u32] = if req.cmd == "query" {
            &req.vertices
        } else {
            &[]
        };
        let answers = outcome.mqcs.iter().filter(|set| {
            set.len() >= req.theta && vertices.iter().all(|v| set.binary_search(v).is_ok())
        });
        if req.sets {
            let mqcs: Vec<Vec<u32>> = answers.cloned().collect();
            (mqcs.len(), Some(mqcs), Vec::new())
        } else {
            (answers.count(), None, Vec::new())
        }
    } else {
        (
            outcome.mqcs.len(),
            req.sets.then(|| outcome.mqcs.clone()),
            outcome.extra.clone(),
        )
    };
    if completeness.contained_panics > 0 {
        extra.push((
            "contained_panics".to_string(),
            Value::Num(completeness.contained_panics as f64),
        ));
        if let Some(anchor) = completeness.panicked_anchor {
            extra.push(("panicked_anchor".to_string(), Value::Num(anchor as f64)));
        }
    }
    Response {
        id: req.id.clone(),
        ok: true,
        error: None,
        cached: source != Source::Computed,
        best_effort: !completeness.is_exact(),
        s2_timed_out: completeness.s2_timed_out,
        elapsed_ms: arrival.elapsed().as_secs_f64() * 1e3,
        count,
        mqcs,
        extra,
    }
}

// ---------------------------------------------------------------------------
// CLI entry points
// ---------------------------------------------------------------------------

fn io_err(e: std::io::Error) -> CliError {
    CliError::Io(e.to_string())
}

/// Applies the WAL's `deltas` to `graph` in order, with the growth check
/// `update` makes before it logs a batch: a record whose inserts name an id
/// at or above `n + 2·|insert|` would allocate a CSR offset for every
/// skipped id (~2³² for an id near `u32::MAX`). Such a record can only come
/// from a log edited by hand or written before the check existed. Replay
/// stops there and start-up is refused, naming the record: skipping it
/// would silently serve a graph that drops durable state.
fn replay_wal(mut graph: Graph, deltas: &[GraphDelta]) -> Result<Graph, String> {
    for (record, delta) in deltas.iter().enumerate() {
        let n = graph.num_vertices();
        if let Some(v) = delta.insert_beyond_growth(n) {
            return Err(format!(
                "record {record} (0-based) inserts vertex id {v}, but its {} inserts may \
                 grow this {n}-vertex graph only to ids below {}; refusing to start",
                delta.inserts().len(),
                n + 2 * delta.inserts().len()
            ));
        }
        graph = delta.apply(&graph);
    }
    Ok(graph)
}

/// `mqce serve <graph> [--addr HOST:PORT | --socket PATH] ...`
pub(crate) fn cmd_serve<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[
        "addr",
        "socket",
        "max-inflight",
        "cache-capacity",
        "bench-log",
        "wal",
        "fault-injection",
        "quiet",
    ])?;
    parsed.no_extra_positionals(2)?;
    let path = parsed.positional(1, "graph")?;
    let mut graph = crate::load_graph(path)?;
    let quiet = parsed.switch("quiet");

    // Crash recovery: replay the WAL's surviving deltas onto the freshly
    // loaded graph before serving, so a killed daemon restarts to the exact
    // post-update state its clients last saw acknowledged.
    let wal = match parsed.get("wal") {
        Some(wal_path) => {
            let (wal, deltas) = WriteAheadLog::open(std::path::Path::new(wal_path))
                .map_err(|e| CliError::Io(format!("cannot open WAL {wal_path}: {e}")))?;
            let replayed = deltas.len();
            graph = replay_wal(graph, &deltas)
                .map_err(|e| CliError::Other(format!("cannot replay WAL {wal_path}: {e}")))?;
            if !quiet && replayed > 0 {
                writeln!(out, "wal replay       {replayed} updates from {wal_path}")
                    .map_err(io_err)?;
            }
            Some(Arc::new(Mutex::new(wal)))
        }
        None => None,
    };

    let settings = ServeSettings {
        max_inflight: parsed.get_usize("max-inflight", 2)?.max(1),
        cache_capacity: parsed.get_usize("cache-capacity", 128)?,
        bench_log: parsed.get("bench-log").map(PathBuf::from),
        graph_label: path.to_string(),
        wal,
        fault_injection: parsed.switch("fault-injection"),
    };

    let summary = if let Some(socket) = parsed.get("socket") {
        #[cfg(unix)]
        {
            if !quiet {
                writeln!(
                    out,
                    "listening        {socket} ({} vertices, {} edges)",
                    graph.num_vertices(),
                    graph.num_edges()
                )
                .map_err(io_err)?;
                out.flush().map_err(io_err)?;
            }
            serve_unix(std::path::Path::new(socket), graph, settings).map_err(io_err)?
        }
        #[cfg(not(unix))]
        {
            return Err(CliError::Params(format!(
                "--socket {socket} needs Unix domain sockets; use --addr on this platform"
            )));
        }
    } else {
        let addr = parsed.get("addr").unwrap_or("127.0.0.1:7621");
        let listener = TcpListener::bind(addr)
            .map_err(|e| CliError::Io(format!("cannot bind {addr}: {e}")))?;
        if !quiet {
            writeln!(
                out,
                "listening        {} ({} vertices, {} edges)",
                listener.local_addr().map_err(io_err)?,
                graph.num_vertices(),
                graph.num_edges()
            )
            .map_err(io_err)?;
            out.flush().map_err(io_err)?;
        }
        serve_tcp(listener, graph, settings)
    };

    if !quiet {
        writeln!(
            out,
            "served           requests={} cache_hits={} cache_derived={} cache_misses={} cache_evictions={} cache_len={} expired={} errors={}",
            summary.requests,
            summary.cache_hits,
            summary.cache_derived,
            summary.cache_misses,
            summary.cache_evictions,
            summary.cache_len,
            summary.expired,
            summary.errors
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Reconnect pacing: exponential backoff (10ms doubling to a 640ms ceiling)
/// with a small deterministic jitter derived from the attempt number by a
/// hash-multiply, so many clients started by the same supervisor do not
/// hammer a restarting daemon in lockstep. No clock or RNG involved — the
/// same attempt always sleeps the same time, which keeps tests reproducible.
fn retry_backoff(attempt: u32) -> Duration {
    let base = 10u64 << attempt.min(6);
    let jitter = (attempt as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
    Duration::from_millis(base + jitter % (base / 2 + 1))
}

fn connect_with_retry(parsed: &ParsedArgs) -> Result<Stream, CliError> {
    let retry = Duration::from_secs(parsed.get_u64("retry-secs", 0)?);
    let give_up = Instant::now() + retry;
    let connect = || -> std::io::Result<Stream> {
        if let Some(socket) = parsed.get("socket") {
            #[cfg(unix)]
            {
                return UnixStream::connect(socket).map(Stream::Unix);
            }
            #[cfg(not(unix))]
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    format!("--socket {socket} needs Unix domain sockets"),
                ));
            }
        }
        let addr = parsed.get("addr").unwrap_or("127.0.0.1:7621");
        TcpStream::connect(addr).map(Stream::Tcp)
    };
    let mut attempt = 0u32;
    loop {
        match connect() {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() < give_up => {
                let pause = retry_backoff(attempt).min(give_up - Instant::now());
                attempt += 1;
                std::thread::sleep(pause);
            }
            Err(e) => return Err(CliError::Io(format!("cannot connect to daemon: {e}"))),
        }
    }
}

/// One client connection: paired buffered reader/writer over a cloned
/// stream, so a failed round trip can be retried on a fresh connection.
struct ClientConn {
    reader: BufReader<Stream>,
    writer: BufWriter<Stream>,
}

impl ClientConn {
    fn connect(parsed: &ParsedArgs) -> Result<ClientConn, CliError> {
        let stream = connect_with_retry(parsed)?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        Ok(ClientConn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request line and reads one response line.
    fn round_trip(&mut self, line: &str) -> Result<String, CliError> {
        self.writer.write_all(line.as_bytes()).map_err(io_err)?;
        self.writer.write_all(b"\n").map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).map_err(io_err)?;
        if n == 0 {
            return Err(CliError::Io(
                "daemon closed the connection before responding".to_string(),
            ));
        }
        Ok(response.trim_end().to_string())
    }
}

/// Commands that are safe to retry blindly on a transient connection error:
/// they never mutate daemon state, so running twice equals running once.
/// `update` and `shutdown` are deliberately absent — a reset after sending
/// either leaves "did it happen?" genuinely unknown.
fn is_idempotent(cmd: &str) -> bool {
    matches!(cmd, "ping" | "enumerate" | "query" | "topk")
}

/// Parses an `--insert`/`--delete` flag value: a comma-separated list of
/// `u-v` endpoint pairs, e.g. `0-3,7-12`.
fn parse_edge_list(parsed: &ParsedArgs, name: &str) -> Result<Vec<(u32, u32)>, CliError> {
    let Some(text) = parsed.get(name) else {
        return Ok(Vec::new());
    };
    let bad = |pair: &str| {
        CliError::Params(format!(
            "--{name}: `{pair}` is not a `u-v` edge (expected e.g. `0-3,7-12`)"
        ))
    };
    text.split(',')
        .map(str::trim)
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (u, v) = pair.split_once('-').ok_or_else(|| bad(pair))?;
            Ok((
                u.trim().parse::<u32>().map_err(|_| bad(pair))?,
                v.trim().parse::<u32>().map_err(|_| bad(pair))?,
            ))
        })
        .collect()
}

/// Builds the single request described by `mqce client --cmd ...` flags.
fn request_from_flags(parsed: &ParsedArgs, cmd: &str) -> Result<Request, CliError> {
    Ok(Request {
        id: parsed.get("id").map(str::to_string),
        cmd: cmd.to_ascii_lowercase(),
        gamma: parsed.get_f64("gamma", 0.9)?,
        theta: parsed.get_usize("theta", 2)?,
        k: parsed.get_usize("k", 10)?,
        vertices: parsed.get_vertex_list("vertices")?,
        insert: parse_edge_list(parsed, "insert")?,
        delete: parse_edge_list(parsed, "delete")?,
        algorithm: parsed.get("algorithm").map(str::to_string),
        branching: parsed.get("branching").map(str::to_string),
        threads: parsed.get_usize("threads", 1)?,
        deadline_ms: match parsed.get("deadline-ms") {
            Some(_) => Some(parsed.get_u64("deadline-ms", 0)?),
            None => None,
        },
        no_cache: parsed.switch("no-cache"),
        sets: parsed.switch("sets"),
        fault: parsed.get("fault").map(str::to_string),
        ..Request::default()
    })
}

/// `mqce client (--addr HOST:PORT | --socket PATH) [--cmd C ...]
/// [--requests FILE] [--shutdown]` — sends requests to a running daemon and
/// prints each JSON response line verbatim. Exits with an error if any
/// response reports `ok=false`, so scripts can rely on the exit code.
pub(crate) fn cmd_client<W: Write>(parsed: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    parsed.restrict_options(&[
        "addr",
        "socket",
        "retry-secs",
        "requests",
        "cmd",
        "id",
        "gamma",
        "theta",
        "k",
        "vertices",
        "insert",
        "delete",
        "algorithm",
        "branching",
        "threads",
        "deadline-ms",
        "no-cache",
        "sets",
        "fault",
        "shutdown",
    ])?;
    parsed.no_extra_positionals(1)?;

    let mut conn = ClientConn::connect(parsed)?;
    let mut any_failed = false;
    let exchange = |conn: &mut ClientConn,
                    request: &Request,
                    out: &mut W,
                    any_failed: &mut bool|
     -> Result<(), CliError> {
        let line = request.to_line();
        let response = match conn.round_trip(&line) {
            Ok(response) => response,
            // A transient reset (daemon restarted, idle connection reaped)
            // on a read-only command is safe to retry exactly once on a
            // fresh connection; anything mutating propagates the error.
            Err(CliError::Io(_)) if is_idempotent(&request.cmd) => {
                *conn = ClientConn::connect(parsed)?;
                conn.round_trip(&line)?
            }
            Err(e) => return Err(e),
        };
        writeln!(out, "{response}").map_err(io_err)?;
        match Response::parse_line(&response) {
            Ok(resp) if !resp.ok => *any_failed = true,
            Ok(_) => {}
            Err(e) => return Err(CliError::Other(format!("unparseable response: {e}"))),
        }
        Ok(())
    };

    if let Some(file) = parsed.get("requests") {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Io(format!("cannot read {file}: {e}")))?;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            // Validate locally so a typo is caught before it hits the wire.
            let request = Request::parse_line(line).map_err(CliError::Other)?;
            exchange(&mut conn, &request, out, &mut any_failed)?;
        }
    } else if let Some(cmd) = parsed.get("cmd") {
        let request = request_from_flags(parsed, cmd)?;
        exchange(&mut conn, &request, out, &mut any_failed)?;
    } else if !parsed.switch("shutdown") {
        return Err(CliError::Params(
            "nothing to send: give --cmd, --requests or --shutdown".to_string(),
        ));
    }

    if parsed.switch("shutdown") {
        let request = Request {
            cmd: "shutdown".to_string(),
            ..Request::default()
        };
        exchange(&mut conn, &request, out, &mut any_failed)?;
    }

    if any_failed {
        return Err(CliError::Other(
            "daemon returned at least one error response".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log record one id past the growth limit (`n + 2·|insert|`) stops
    /// the replay and refuses start-up, naming the record and the id; the
    /// records before it are valid and replay as usual.
    #[test]
    fn wal_replay_refuses_an_insert_beyond_growth() {
        let dir = std::env::temp_dir().join(format!("mqce_wal_growth_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        std::fs::write(&graph_path, "0 1\n1 2\n").unwrap();
        let wal_path = dir.join("updates.wal");
        let _ = std::fs::remove_file(&wal_path);
        let (mut wal, _) = WriteAheadLog::open(&wal_path).unwrap();
        // Record 0 grows the 3-vertex graph to 4 vertices; record 1 may
        // then name ids below 4 + 2·1 = 6 and names 6.
        let grows = GraphDelta::new(vec![(2, 3)], Vec::new());
        let beyond = GraphDelta::new(vec![(0, 6)], Vec::new());
        wal.append(&grows).unwrap();
        wal.append(&beyond).unwrap();
        drop(wal);

        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(
            replay_wal(g.clone(), std::slice::from_ref(&grows))
                .unwrap()
                .num_vertices(),
            4
        );
        let err = replay_wal(g, &[grows, beyond]).unwrap_err();
        assert!(
            err.contains("record 1 ") && err.contains("vertex id 6"),
            "{err}"
        );

        // The daemon refuses to start instead of serving: `run` returns
        // the error before binding (a hang here means it started).
        let args: Vec<String> = [
            "serve",
            graph_path.to_str().unwrap(),
            "--wal",
            wal_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(crate::run(&args, &mut Vec::new()).map_err(|e| e.to_string()))
        });
        let refused = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the daemon started serving a log it should refuse");
        let err = refused.unwrap_err();
        assert!(
            err.contains("record 1 ") && err.contains("vertex id 6"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_admits_up_to_capacity_and_times_out_waiters() {
        let gate = Gate::new(2);
        assert!(gate.acquire(None));
        assert!(gate.acquire(None));
        // Third caller with an already-spent budget is turned away quickly.
        let start = Instant::now();
        assert!(!gate.acquire(Some(Instant::now() + Duration::from_millis(20))));
        assert!(start.elapsed() < Duration::from_secs(2));
        // After a release, the slot is available again.
        gate.release();
        assert!(gate.acquire(Some(Instant::now() + Duration::from_millis(20))));
    }

    fn outcome(cmd: &str, vertices: &[u32]) -> Arc<CachedOutcome> {
        Arc::new(CachedOutcome {
            cmd: cmd.to_string(),
            vertices: vertices.to_vec(),
            config: None,
            mqcs: Vec::new(),
            extra: Vec::new(),
        })
    }

    /// A carried enumerate is evicted when its advance is not exact (a
    /// panic contained in a dirty anchor's re-run) or its algorithm has no
    /// DC decomposition, and kept with the fresh family otherwise.
    #[test]
    fn advance_entry_keeps_only_exact_dc_answers() {
        use mqce_core::Algorithm;
        // A 5-clique on 1..=5 and an isolated vertex 0: joining 0 to four
        // clique vertices makes it the dirty anchor of a new 5-clique.
        let clique: Vec<(u32, u32)> = (1..=5)
            .flat_map(|u| (u + 1..=5).map(move |v| (u, v)))
            .collect();
        let g = Graph::from_edges(6, &clique);
        let join = GraphDelta::new(vec![(0, 1), (0, 2), (0, 3), (0, 4)], Vec::new());
        let (next, dirty, _) = PreparedGraph::new(g.clone())
            .apply_delta(&join, &mut SubproblemScratch::new())
            .expect("the batch changes edges");
        let clean = MqceConfig::new(0.9, 5).unwrap();
        let entry = |config: MqceConfig| {
            Arc::new(CachedOutcome {
                cmd: "enumerate".to_string(),
                vertices: Vec::new(),
                config: Some(config),
                mqcs: Session::open(g.clone()).config(config).run().mqcs,
                extra: Vec::new(),
            })
        };
        let carried = advance_entry(entry(clean), &next, &dirty, 2).expect("an exact advance");
        assert_eq!(
            carried.mqcs,
            Session::open(join.apply(&g)).config(clean).run().mqcs
        );
        let mut faulty = clean;
        faulty.params.fail_anchor = Some(0);
        assert!(advance_entry(entry(faulty), &next, &dirty, 2).is_none());
        let whole_graph = clean.with_algorithm(Algorithm::FastQc);
        assert!(advance_entry(entry(whole_graph), &next, &dirty, 2).is_none());
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        assert_eq!(cache.insert("a".to_string(), outcome("query", &[1])), 0);
        assert_eq!(cache.insert("b".to_string(), outcome("query", &[2])), 0);
        assert!(cache.get("a").is_some()); // refresh `a`
        assert_eq!(cache.insert("c".to_string(), outcome("query", &[3])), 1); // evicts `b`
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    /// An `enumerate` family answers the larger θ of its γ, algorithm and
    /// branching, and every query of its γ; the cache keeps only the
    /// families no other entry answers.
    #[test]
    fn cache_keeps_one_family_per_answering_range() {
        use mqce_core::Algorithm;
        let config = |theta: usize| MqceConfig::new(0.9, theta).unwrap();
        let family = |config: MqceConfig| {
            Arc::new(CachedOutcome {
                cmd: "enumerate".to_string(),
                vertices: Vec::new(),
                config: Some(config),
                mqcs: Vec::new(),
                extra: Vec::new(),
            })
        };
        let key = |fp: &str, theta: usize| format!("{fp}|enumerate|t={theta}");
        let mut cache = ResultCache::new(8);
        assert_eq!(cache.insert(key("00aa", 10), family(config(10))), 0);
        // Another graph's θ=8 family drops nothing here.
        assert_eq!(cache.insert(key("00bb", 8), family(config(8))), 0);
        // θ=8 answers the θ=10 entry, which goes; θ=12 is then not stored.
        assert_eq!(cache.insert(key("00aa", 8), family(config(8))), 1);
        assert_eq!(cache.insert(key("00aa", 12), family(config(12))), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("00aa", 10)).is_none());
        assert!(cache.get(&key("00aa", 12)).is_none());

        let derived = |cache: &mut ResultCache, cmd: &str, config: MqceConfig| {
            cache
                .lookup(&key("00aa", config.params.theta), cmd, &config)
                .filter(|(_, source)| *source == Source::Derived)
                .map(|(outcome, _)| outcome.config.expect("an enumerate family"))
        };
        assert_eq!(
            derived(&mut cache, "enumerate", config(10)),
            Some(config(8))
        );
        assert_eq!(derived(&mut cache, "enumerate", config(7)), None);
        let fastqc = config(10).with_algorithm(Algorithm::FastQc);
        assert_eq!(derived(&mut cache, "enumerate", fastqc), None);
        // A query ignores the algorithm; a top-k answer is never derived.
        assert_eq!(derived(&mut cache, "query", fastqc), Some(config(8)));
        assert_eq!(derived(&mut cache, "topk", config(10)), None);
        let other_gamma = MqceConfig::new(0.85, 10).unwrap();
        assert_eq!(derived(&mut cache, "query", other_gamma), None);
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        let mut cache = ResultCache::new(0);
        assert_eq!(cache.insert("a".to_string(), outcome("query", &[1])), 0);
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn retain_rekey_migrates_survivors_and_counts_drops() {
        let mut cache = ResultCache::new(8);
        cache.insert("00aa|query|x".to_string(), outcome("query", &[5]));
        cache.insert("00aa|query|y".to_string(), outcome("query", &[2]));
        cache.insert("00aa|enumerate|z".to_string(), outcome("enumerate", &[]));
        cache.insert("dead|query|w".to_string(), outcome("query", &[9]));
        cache.insert("00aa|enumerate|v".to_string(), outcome("enumerate", &[]));
        // Mimic an update: old fp `00aa`, new fp `00bb`, dirty = {2}; the
        // enumerates are taken out.
        let dirty = [2u32];
        let (dropped, taken) = cache.retain_rekey(|key, entry| {
            let Some(rest) = key.strip_prefix("00aa|") else {
                return Migration::Drop;
            };
            let unaffected = entry.cmd == "query"
                && entry
                    .vertices
                    .iter()
                    .all(|v| dirty.binary_search(v).is_err());
            match entry.cmd.as_str() {
                "enumerate" => Migration::Take(format!("00bb|{rest}")),
                _ if unaffected => Migration::Keep(format!("00bb|{rest}")),
                _ => Migration::Drop,
            }
        });
        // Dropped: the dirty query and the stale-fp entry.
        assert_eq!(dropped, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get("00bb|query|x").is_some());
        assert!(cache.get("00aa|query|x").is_none());
        // Taken: both enumerates under their new keys, most recent first.
        let keys: Vec<&str> = taken.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["00bb|enumerate|v", "00bb|enumerate|z"]);
    }
}
