//! Measurement harness: run one algorithm configuration on one dataset and
//! record everything the paper's tables and figures report.

use std::time::Duration;

use mqce_core::{Algorithm, BranchingStrategy, MqceConfig, SearchStats, Session, ThreadStats};
use mqce_graph::Graph;
use serde::{Deserialize, Serialize};

/// Per-worker counters of a parallel run, the serialisable mirror of
/// [`mqce_core::ThreadStats`]: what each thread ran, stole and donated, and
/// how its wall-clock split between busy and hungry. These are the
/// per-thread efficiency rows of `BENCH_mqce.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThreadRow {
    /// Worker index.
    pub thread: usize,
    /// Whole per-vertex subproblems this worker ran.
    pub subproblems: u64,
    /// Donated split tasks this worker ran.
    pub splits: u64,
    /// Tasks stolen from another worker's deque.
    pub steals: u64,
    /// Milliseconds spent executing tasks.
    pub busy_millis: f64,
    /// Milliseconds spent hungry (looking for work).
    pub idle_millis: f64,
}

impl ThreadRow {
    /// Fraction of this worker's wall-clock spent executing tasks, with the
    /// same zero-time semantics as [`ThreadStats::busy_fraction`] (a worker
    /// that recorded no time counts as fully busy) so the bench tables and
    /// the CLI report the same number.
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy_millis + self.idle_millis;
        if total <= 0.0 {
            1.0
        } else {
            self.busy_millis / total
        }
    }
}

impl From<&ThreadStats> for ThreadRow {
    fn from(t: &ThreadStats) -> Self {
        ThreadRow {
            thread: t.thread,
            subproblems: t.subproblems,
            splits: t.splits,
            steals: t.steals,
            busy_millis: t.busy_millis,
            idle_millis: t.idle_millis,
        }
    }
}

/// One measured run: the row unit of every experiment.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunRecord {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name (e.g. `DCFastQC`).
    pub algorithm: String,
    /// Branching strategy used (only meaningful for FastQC variants).
    pub branching: String,
    /// Density threshold γ.
    pub gamma: f64,
    /// Size threshold θ.
    pub theta: usize,
    /// `MAX_ROUND` used by the DC pruning.
    pub max_round: usize,
    /// Worker threads used by the DC driver (1 = sequential).
    pub threads: usize,
    /// The S2 pass that compacted the family (`parallel`).
    pub s2_backend: String,
    /// Whether S2 hit its deadline (the MQC count is then a partial result).
    pub s2_timed_out: bool,
    /// Wall-clock time of MQCE-S1 in milliseconds. Records written while S2
    /// probed inline with the search include those probes.
    pub s1_millis: f64,
    /// Wall-clock time of MQCE-S2 (sort, deduplication and compaction) in
    /// milliseconds.
    pub s2_millis: f64,
    /// Number of quasi-cliques reported by S1.
    pub s1_outputs: usize,
    /// Number of maximal quasi-cliques after filtering.
    pub mqcs: usize,
    /// Minimum / maximum / average MQC size (0 when there is none).
    pub mqc_min: usize,
    /// Maximum MQC size.
    pub mqc_max: usize,
    /// Average MQC size.
    pub mqc_avg: f64,
    /// Branch-and-bound nodes explored.
    pub branches: u64,
    /// Whether the run hit the time limit (reported as `INF` in tables).
    pub timed_out: bool,
    /// Per-thread busy/steal/idle counters, one row per worker (empty for
    /// the whole-graph algorithms, which run no scheduler).
    /// `default` so records written before this field existed still parse —
    /// `append_json` would otherwise discard the whole accumulated file.
    #[serde(default)]
    pub thread_stats: Vec<ThreadRow>,
    /// Requests the `mqce serve` daemon answered over this record's lifetime
    /// (0 for ordinary bench runs; the daemon flushes one summary record at
    /// shutdown). `default` so pre-daemon files still parse.
    #[serde(default)]
    pub serve_requests: u64,
    /// How many of those requests were served from the daemon's result
    /// cache. `default` for the same schema-evolution reason.
    #[serde(default)]
    pub serve_cache_hits: u64,
    /// Requests that consulted the daemon's cache and missed. `default` so
    /// pre-update-protocol files still parse.
    #[serde(default)]
    pub serve_cache_misses: u64,
    /// Cache entries dropped by the daemon, counting both LRU evictions and
    /// invalidations forced by `update` requests. `default` as above.
    #[serde(default)]
    pub serve_cache_evictions: u64,
    /// Cache entries resident when the daemon shut down. `default` as above.
    #[serde(default)]
    pub serve_cache_len: u64,
    /// Edges applied by `GraphDelta` batches over this record's lifetime
    /// (0 for non-incremental runs). `default` so older files parse.
    #[serde(default)]
    pub updates_applied: u64,
    /// Subproblems re-run by the incremental session across those batches —
    /// the dirty-set size the update machinery actually paid for. `default`
    /// as above.
    #[serde(default)]
    pub dirty_subproblems: u64,
    /// Wall-clock milliseconds a full recompute took on the same schedule,
    /// the baseline against which `s1_millis` (incremental wall-clock) shows
    /// the update speedup. 0 when no baseline was measured. `default` as
    /// above.
    #[serde(default)]
    pub full_recompute_millis: f64,
    /// Heap-allocation events during the run (0 unless the harness was
    /// built with the `count-allocs` feature — see
    /// [`alloc_stats`](crate::alloc_stats)). `default` so older files parse.
    #[serde(default)]
    pub alloc_count: u64,
    /// Peak live heap bytes during the run (same feature gate and schema
    /// caveat as `alloc_count`).
    #[serde(default)]
    pub peak_alloc_bytes: u64,
    /// Raw search statistics.
    #[serde(skip)]
    pub stats: SearchStats,
}

impl RunRecord {
    /// Total pipeline time in milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.s1_millis + self.s2_millis
    }

    /// The time cell as printed in the figures: the S1 time, or `INF` when the
    /// limit was hit (matching the paper's convention of reporting the
    /// enumeration time and a 24 h INF cap).
    pub fn time_cell(&self) -> String {
        if self.timed_out {
            "INF".to_string()
        } else {
            format!("{:.1}", self.s1_millis)
        }
    }
}

/// A named algorithm configuration to measure.
#[derive(Clone, Copy, Debug)]
pub struct AlgoSpec {
    /// Label used in reports.
    pub label: &'static str,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Branching strategy (FastQC variants only).
    pub branching: BranchingStrategy,
    /// `MAX_ROUND` for DC pruning.
    pub max_round: usize,
}

impl AlgoSpec {
    /// The paper's algorithm with default settings.
    pub fn dcfastqc() -> Self {
        AlgoSpec {
            label: "DCFastQC",
            algorithm: Algorithm::DcFastQc,
            branching: BranchingStrategy::default(),
            max_round: 2,
        }
    }

    /// The Quick+ baseline.
    pub fn quickplus() -> Self {
        AlgoSpec {
            label: "Quick+",
            algorithm: Algorithm::QuickPlus,
            branching: BranchingStrategy::HybridSe,
            max_round: 1,
        }
    }

    /// FastQC without divide-and-conquer.
    pub fn fastqc() -> Self {
        AlgoSpec {
            label: "FastQC",
            algorithm: Algorithm::FastQc,
            branching: BranchingStrategy::default(),
            max_round: 2,
        }
    }

    /// FastQC in the basic DC framework of [19, 24].
    pub fn bdcfastqc() -> Self {
        AlgoSpec {
            label: "BDCFastQC",
            algorithm: Algorithm::BasicDcFastQc,
            branching: BranchingStrategy::default(),
            max_round: 1,
        }
    }

    /// DCFastQC restricted to a particular branching strategy (Figure 11).
    pub fn dcfastqc_with_branching(label: &'static str, branching: BranchingStrategy) -> Self {
        AlgoSpec {
            label,
            algorithm: Algorithm::DcFastQc,
            branching,
            max_round: 2,
        }
    }

    /// DCFastQC with a custom `MAX_ROUND` (the MAX_ROUND ablation).
    pub fn dcfastqc_with_max_round(label: &'static str, max_round: usize) -> Self {
        AlgoSpec {
            label,
            algorithm: Algorithm::DcFastQc,
            branching: BranchingStrategy::default(),
            max_round,
        }
    }
}

/// Runs one configuration on one graph and records the outcome.
pub fn measure(
    dataset: &str,
    g: &Graph,
    spec: AlgoSpec,
    gamma: f64,
    theta: usize,
    time_limit: Duration,
) -> RunRecord {
    measure_threads(dataset, g, spec, gamma, theta, time_limit, 1)
}

/// [`measure`] with an explicit DC worker-thread count (the parallel-scaling
/// sweep).
pub fn measure_threads(
    dataset: &str,
    g: &Graph,
    spec: AlgoSpec,
    gamma: f64,
    theta: usize,
    time_limit: Duration,
    threads: usize,
) -> RunRecord {
    let config = MqceConfig::new(gamma, theta)
        .expect("benchmark parameters are valid")
        .with_algorithm(spec.algorithm)
        .with_branching(spec.branching)
        .with_max_round(spec.max_round)
        .with_time_limit(time_limit);
    let threads = threads.max(1);
    crate::alloc_stats::reset_peak();
    let alloc_before = crate::alloc_stats::snapshot();
    let result = Session::open(g.clone())
        .config(config)
        .threads(threads)
        .run();
    let alloc_after = crate::alloc_stats::snapshot();
    let (mqc_min, mqc_max, mqc_avg) = result.mqc_size_stats().unwrap_or((0, 0, 0.0));
    RunRecord {
        dataset: dataset.to_string(),
        algorithm: spec.label.to_string(),
        branching: format!("{:?}", spec.branching),
        gamma,
        theta,
        max_round: spec.max_round,
        threads,
        s2_backend: result.s2.backend.clone(),
        s2_timed_out: result.completeness.s2_timed_out,
        s1_millis: result.s1_time.as_secs_f64() * 1e3,
        s2_millis: result.s2_time.as_secs_f64() * 1e3,
        s1_outputs: result.qcs,
        mqcs: result.mqcs.len(),
        mqc_min,
        mqc_max,
        mqc_avg,
        branches: result.stats.branches,
        timed_out: result.timed_out(),
        thread_stats: result.thread_stats.iter().map(ThreadRow::from).collect(),
        alloc_count: alloc_after
            .alloc_count
            .saturating_sub(alloc_before.alloc_count),
        peak_alloc_bytes: alloc_after.peak_bytes,
        stats: result.stats,
        ..RunRecord::default()
    }
}

/// Prints a uniform table of run records (one row per record).
pub fn print_table(title: &str, records: &[RunRecord]) {
    println!("\n== {title} ==");
    println!(
        "{:<14} {:<22} {:>6} {:>5} {:>12} {:>12} {:>10} {:>8} {:>12}",
        "dataset",
        "algorithm",
        "gamma",
        "theta",
        "S1 time(ms)",
        "S2 time(ms)",
        "#S1 out",
        "#MQC",
        "branches"
    );
    for r in records {
        println!(
            "{:<14} {:<22} {:>6.2} {:>5} {:>12} {:>12.2} {:>10} {:>8} {:>12}",
            r.dataset,
            r.algorithm,
            r.gamma,
            r.theta,
            r.time_cell(),
            r.s2_millis,
            r.s1_outputs,
            r.mqcs,
            r.branches
        );
    }
}

/// Serialises run records to a JSON file (one array). The write is atomic:
/// the JSON goes to a temporary file in the target's directory first and is
/// renamed into place, so a concurrent reader never observes a half-written
/// array.
pub fn save_json(path: &std::path::Path, records: &[RunRecord]) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(records).expect("records serialise");
    let tmp = sibling_path(path, ".tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)
}

/// `path` with `suffix` appended to its file name, in the same directory
/// (same filesystem, so a rename onto `path` is atomic).
fn sibling_path(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("records.json"));
    name.push(suffix);
    path.with_file_name(name)
}

/// An exclusive advisory lock implemented as a `create_new` lock file next
/// to the guarded path; dropped (and the file removed) when the guard goes
/// out of scope. Locks older than [`FileLock::STALE_AFTER`] are presumed
/// abandoned by a crashed writer and broken.
struct FileLock {
    path: std::path::PathBuf,
}

impl FileLock {
    /// A lock this old belongs to a writer that died without cleaning up:
    /// real holders only keep it for one read-modify-write.
    const STALE_AFTER: Duration = Duration::from_secs(10);
    /// Give up acquiring after this long rather than hang the harness.
    const ACQUIRE_TIMEOUT: Duration = Duration::from_secs(30);

    fn acquire(path: std::path::PathBuf) -> std::io::Result<FileLock> {
        let start = std::time::Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(FileLock { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > Self::STALE_AFTER);
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() > Self::ACQUIRE_TIMEOUT {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("timed out waiting for lock {}", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Appends run records to a JSON file holding one array: the existing
/// records are read back and the new ones appended, so several experiment
/// profiles can accumulate rows in a single `BENCH_mqce.json`. A missing or
/// unparsable file (e.g. written by an older schema) starts a fresh array.
///
/// The read-modify-write runs under a sibling lock file and the result is
/// renamed into place atomically, so concurrent appenders (a daemon stats
/// flush racing a bench run, or CI matrix jobs sharing a checkout) cannot
/// interleave and drop each other's records.
pub fn append_json(path: &std::path::Path, records: &[RunRecord]) -> std::io::Result<()> {
    let _lock = FileLock::acquire(sibling_path(path, ".lock"))?;
    let mut all: Vec<RunRecord> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default();
    all.extend(records.iter().cloned());
    save_json(path, &all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_graph::Graph;

    #[test]
    fn measure_produces_consistent_record() {
        let g = Graph::complete(6);
        let rec = measure(
            "k6",
            &g,
            AlgoSpec::dcfastqc(),
            0.9,
            3,
            Duration::from_secs(5),
        );
        assert_eq!(rec.dataset, "k6");
        assert_eq!(rec.mqcs, 1);
        assert_eq!(rec.mqc_min, 6);
        assert_eq!(rec.mqc_max, 6);
        assert!(!rec.timed_out);
        assert!(rec.s1_outputs >= rec.mqcs);
        assert!(rec.total_millis() >= rec.s1_millis);
        assert_ne!(rec.time_cell(), "INF");
    }

    #[test]
    fn specs_have_distinct_labels() {
        let labels = [
            AlgoSpec::dcfastqc().label,
            AlgoSpec::quickplus().label,
            AlgoSpec::fastqc().label,
            AlgoSpec::bdcfastqc().label,
        ];
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn json_roundtrip() {
        let g = Graph::complete(5);
        let rec = measure(
            "k5",
            &g,
            AlgoSpec::quickplus(),
            0.9,
            2,
            Duration::from_secs(5),
        );
        let dir = std::env::temp_dir().join("mqce_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json");
        save_json(&path, std::slice::from_ref(&rec)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<RunRecord> = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].dataset, "k5");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measure_threads_matches_sequential() {
        let g = Graph::complete(8);
        let seq = measure(
            "k8",
            &g,
            AlgoSpec::dcfastqc(),
            0.9,
            3,
            Duration::from_secs(5),
        );
        let par = measure_threads(
            "k8",
            &g,
            AlgoSpec::dcfastqc(),
            0.9,
            3,
            Duration::from_secs(5),
            4,
        );
        assert_eq!(seq.threads, 1);
        assert_eq!(par.threads, 4);
        assert_eq!(seq.mqcs, par.mqcs);
        assert!(!par.s2_timed_out);
        assert!(!par.s2_backend.is_empty());
        // Every DC run carries one thread row per worker, one included.
        assert_eq!(seq.thread_stats.len(), 1);
        assert_eq!(par.thread_stats.len(), 4);
        let total: u64 = par.thread_stats.iter().map(|t| t.subproblems).sum();
        assert_eq!(total, par.stats.dc_subproblems);
    }

    #[test]
    fn records_without_thread_stats_still_parse() {
        // A record in the pre-thread_stats schema must keep parsing
        // (append_json would otherwise silently discard the whole
        // accumulated BENCH_mqce.json on the first append after the schema
        // change).
        let legacy = r#"[{
            "dataset": "k5", "algorithm": "Quick+", "branching": "HybridSe",
            "backend": "auto", "gamma": 0.9, "theta": 2, "max_round": 1,
            "threads": 1, "s2_backend": "inverted", "s2_timed_out": false,
            "s1_millis": 1.0, "s2_millis": 0.5, "s1_outputs": 1, "mqcs": 1,
            "mqc_min": 5, "mqc_max": 5, "mqc_avg": 5.0, "branches": 3,
            "timed_out": false
        }]"#;
        let parsed: Vec<RunRecord> = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].dataset, "k5");
        assert!(parsed[0].thread_stats.is_empty());
    }

    #[test]
    fn thread_rows_survive_json_roundtrip() {
        let g = Graph::complete(8);
        let rec = measure_threads(
            "k8",
            &g,
            AlgoSpec::dcfastqc(),
            0.9,
            3,
            Duration::from_secs(5),
            2,
        );
        let dir = std::env::temp_dir().join("mqce_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("thread_rows.json");
        save_json(&path, std::slice::from_ref(&rec)).unwrap();
        let parsed: Vec<RunRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed[0].thread_stats.len(), rec.thread_stats.len());
        assert_eq!(parsed[0].thread_stats[0].thread, 0);
        assert_eq!(
            parsed[0]
                .thread_stats
                .iter()
                .map(|t| t.subproblems)
                .sum::<u64>(),
            rec.thread_stats.iter().map(|t| t.subproblems).sum::<u64>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_json_accumulates_records() {
        let g = Graph::complete(5);
        let rec = measure(
            "k5",
            &g,
            AlgoSpec::quickplus(),
            0.9,
            2,
            Duration::from_secs(5),
        );
        let dir = std::env::temp_dir().join("mqce_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.json");
        std::fs::remove_file(&path).ok();
        append_json(&path, std::slice::from_ref(&rec)).unwrap();
        append_json(&path, std::slice::from_ref(&rec)).unwrap();
        let parsed: Vec<RunRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.len(), 2);
        // A corrupt file starts a fresh array instead of failing.
        std::fs::write(&path, "not json").unwrap();
        append_json(&path, std::slice::from_ref(&rec)).unwrap();
        let parsed: Vec<RunRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_appends_lose_no_records() {
        // Regression: append_json used to be an unlocked read-modify-write,
        // so two interleaved appenders could each read the same base array
        // and the second rename would silently drop the first one's records.
        let g = Graph::complete(4);
        let rec = measure(
            "k4",
            &g,
            AlgoSpec::quickplus(),
            0.9,
            2,
            Duration::from_secs(5),
        );
        let dir = std::env::temp_dir().join("mqce_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent_append.json");
        std::fs::remove_file(&path).ok();
        const WRITERS: usize = 4;
        const APPENDS_EACH: usize = 12;
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let path = &path;
                let rec = &rec;
                scope.spawn(move || {
                    for _ in 0..APPENDS_EACH {
                        append_json(path, std::slice::from_ref(rec)).unwrap();
                    }
                });
            }
        });
        let parsed: Vec<RunRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.len(), WRITERS * APPENDS_EACH, "records were lost");
        // The lock and temp files are cleaned up.
        assert!(!sibling_path(&path, ".lock").exists());
        assert!(!sibling_path(&path, ".tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_without_serve_stats_still_parse() {
        // A pre-daemon BENCH_mqce.json has no serve_* fields (nor the other
        // later additions); `default` keeps it readable so append_json does
        // not discard the accumulated history. Records written while the
        // sharded driver existed carry fields that are gone now; unknown
        // fields are ignored, so they parse too.
        let old = r#"[{
            "dataset": "k4", "algorithm": "Quick+", "branching": "HybridSe",
            "backend": "auto", "gamma": 0.9, "theta": 2, "max_round": 1,
            "threads": 1, "s2_backend": "inverted", "s2_timed_out": false,
            "s1_millis": 1.0, "s2_millis": 0.5, "s1_outputs": 1, "mqcs": 1,
            "mqc_min": 4, "mqc_max": 4, "mqc_avg": 4.0, "branches": 3,
            "timed_out": false
        }, {
            "dataset": "k4", "algorithm": "DCFastQC/sharded-2",
            "branching": "HybridSe", "backend": "auto", "gamma": 0.9,
            "theta": 2, "max_round": 2, "threads": 1, "s2_backend": "parallel",
            "s2_timed_out": false, "s1_millis": 1.0, "s2_millis": 0.5,
            "s1_outputs": 1, "mqcs": 1, "mqc_min": 4, "mqc_max": 4,
            "mqc_avg": 4.0, "branches": 3, "timed_out": false,
            "shards": 2, "shard_millis": [0.4, 0.6], "merge_millis": 0.5
        }]"#;
        let parsed: Vec<RunRecord> = serde_json::from_str(old).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].algorithm, "DCFastQC/sharded-2");
        assert_eq!(parsed[0].serve_requests, 0);
        assert_eq!(parsed[0].serve_cache_hits, 0);
        assert_eq!(parsed[0].serve_cache_misses, 0);
        assert_eq!(parsed[0].serve_cache_evictions, 0);
        assert_eq!(parsed[0].serve_cache_len, 0);
        assert_eq!(parsed[0].updates_applied, 0);
        assert_eq!(parsed[0].dirty_subproblems, 0);
        assert_eq!(parsed[0].full_recompute_millis, 0.0);
        assert_eq!(parsed[0].dataset, "k4");
        // And the new fields do serialise for fresh records.
        let json = serde_json::to_string_pretty(&parsed).unwrap();
        assert!(json.contains("serve_requests"));
        assert!(json.contains("serve_cache_hits"));
    }

    #[test]
    fn timed_out_record_prints_inf() {
        let mut rec = measure(
            "k4",
            &Graph::complete(4),
            AlgoSpec::fastqc(),
            0.9,
            2,
            Duration::from_secs(5),
        );
        rec.timed_out = true;
        assert_eq!(rec.time_cell(), "INF");
    }
}
