//! Offline structured differential fuzzer (`experiments fuzz`).
//!
//! A hand-rolled structured-input fuzzer: each case is decoded from a seeded
//! RNG into an arbitrary-but-valid instance — a small random graph, γ/θ
//! parameters, and a schedule of edge-update batches — and then executed
//! *differentially*:
//!
//! * every production configuration (every algorithm, the FastQC searchers
//!   at every branching, one and several work-stealing workers) against the
//!   exhaustive [`mqce_core::naive`] oracle;
//! * the incremental session against a full recompute after every batch;
//! * the update WAL against direct application (append → reopen → replay
//!   must land on the same fingerprint, and a log truncated at *any* byte
//!   must reopen to a clean prefix of the appended batches);
//! * the partial paths — an injected per-subproblem panic in a full run, a
//!   top-k search and an incremental session, and a zero budget for a
//!   query, a top-k search and an incremental session's seed — against the
//!   oracle by their verdict: an `Exact` answer must equal it, a `Partial`
//!   one must be subset-sound (the panic must never escape either).
//!
//! A failing case is minimised by greedy edge removal and written as a
//! replayable fixture file (`experiments fuzz --replay <file>`), so a CI
//! failure reproduces locally from one small artifact.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use std::time::Duration;

use mqce_core::quasiclique::is_quasi_clique;
use mqce_core::{
    find_largest_mqcs, find_mqcs_containing, Algorithm, BranchingStrategy, Completeness,
    IncrementalSession, MqceConfig, MqceParams, PreparedGraph, Session,
};
use mqce_graph::{Graph, GraphDelta, WriteAheadLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the fuzzer runs: case count, base seed, and where failing fixtures go.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of structured cases to generate and execute.
    pub iterations: usize,
    /// Base seed; case `i` derives its own RNG from `seed` and `i`, so any
    /// case can be re-run in isolation.
    pub seed: u64,
    /// Directory that receives one fixture file per failing case.
    pub fixture_dir: PathBuf,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            iterations: 200,
            seed: 0xC0FFEE,
            fixture_dir: PathBuf::from("fuzz-fixtures"),
        }
    }
}

/// One confirmed check failure, with the minimised reproducer on disk.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Case index within the run.
    pub case: usize,
    /// Which differential check failed (e.g. `oracle-divergence`).
    pub check: String,
    /// Human-readable detail of the divergence.
    pub detail: String,
    /// Path of the written fixture file, when writing succeeded.
    pub fixture: Option<PathBuf>,
}

/// Aggregate result of one fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Individual differential checks executed across all cases.
    pub checks: u64,
    /// The part of `checks` that ran the production grid (algorithm ×
    /// branching) against the oracle.
    pub grid_checks: u64,
    /// Injected panics that were properly contained by the DC drivers.
    pub contained_panics: u64,
    /// Answers on the partial paths that came back `Exact`.
    pub exact_answers: u64,
    /// Answers on the partial paths that came back `Partial`.
    pub partial_answers: u64,
    /// Confirmed failures (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

/// One update batch as `(inserts, deletes)`.
type EdgeBatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// One structured input: a graph, the enumeration parameters, and a
/// schedule of update batches. Everything the differential checks need.
#[derive(Clone, Debug)]
struct FuzzCase {
    index: usize,
    n: usize,
    gamma: f64,
    theta: usize,
    edges: Vec<(u32, u32)>,
    /// Update batches in application order.
    deltas: Vec<EdgeBatch>,
}

/// Silences the *injected* panics (they are expected and caught on every
/// case) while leaving real panics as loud as ever. Installed once per
/// process; chains to whatever hook was active before.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Derives the per-case RNG: independent of every other case, so a failure
/// reported as "case 17 of seed S" re-runs without the preceding 16.
fn case_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Decodes one arbitrary-but-valid case from the seeded stream.
fn generate_case(seed: u64, index: usize) -> FuzzCase {
    let mut rng = case_rng(seed, index);
    let n = rng.gen_range(4..=14);
    let p = rng.gen_range(0.15..0.85);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    let gamma = [0.5, 0.6, 2.0 / 3.0, 0.75, 0.8, 0.9, 0.96, 1.0][rng.gen_range(0..8)];
    let theta = rng.gen_range(2..=4);

    let batches = rng.gen_range(1..=3);
    let mut deltas = Vec::new();
    for _ in 0..batches {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue; // GraphDelta normalises self-loops away anyway
            }
            if rng.gen_bool(0.5) {
                inserts.push((u, v));
            } else {
                deletes.push((u, v));
            }
        }
        deltas.push((inserts, deletes));
    }
    FuzzCase {
        index,
        n,
        gamma,
        theta,
        edges,
        deltas,
    }
}

/// Renders a family compactly for failure details.
fn family_digest(family: &[Vec<u32>]) -> String {
    let mut out = String::new();
    for (i, set) in family.iter().enumerate().take(8) {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{set:?}");
    }
    if family.len() > 8 {
        let _ = write!(out, " …(+{})", family.len() - 8);
    }
    out
}

impl FuzzReport {
    /// Checks one answer against `oracle` by its verdict: an exact answer
    /// must equal it; a partial one must be subset-sound, an antichain of
    /// γ-QCs of size ≥ θ, each inside some oracle set (a cut S1 can leave
    /// sets that are maximal only within what it found). Counts the verdict
    /// and returns the failure of the named check, if any.
    fn check_answer(
        &mut self,
        g: &Graph,
        (gamma, theta): (f64, usize),
        check: &str,
        (got, verdict): (&[Vec<u32>], Completeness),
        oracle: &[Vec<u32>],
    ) -> Option<(String, String)> {
        self.checks += 1;
        let subset = |a: &[u32], b: &[u32]| a.iter().all(|v| b.contains(v));
        let detail = if verdict.is_exact() {
            self.exact_answers += 1;
            (got != oracle).then(|| {
                let (got, oracle) = (family_digest(got), family_digest(oracle));
                format!("exact answer {got} expected {oracle}")
            })
        } else {
            self.partial_answers += 1;
            got.iter().enumerate().find_map(|(i, h)| {
                let sound = h.len() >= theta
                    && is_quasi_clique(g, h, gamma)
                    && oracle.iter().any(|m| subset(h, m))
                    && !got.iter().enumerate().any(|(j, o)| i != j && subset(h, o));
                (!sound).then(|| format!("partial answer {h:?} is not subset-sound"))
            })
        };
        detail.map(|detail| (check.to_string(), detail))
    }
}

/// The full differential battery for one case. Returns every failed check
/// (`(check-name, detail)`); bumps the counters of `report` as it goes.
fn run_case(case: &FuzzCase, report: &mut FuzzReport) -> Vec<(String, String)> {
    let mut failures = Vec::new();
    let g = Graph::from_edges(case.n, &case.edges);
    let base = match MqceConfig::new(case.gamma, case.theta) {
        Ok(config) => config,
        Err(e) => {
            return vec![("bad-params".to_string(), e.to_string())];
        }
    };

    let oracle = Session::open(g.clone())
        .config(base.with_algorithm(Algorithm::Naive))
        .run();
    report.checks += 1;

    // --- production grid vs the oracle ------------------------------------
    // Every algorithm; the FastQC searchers also at every
    // branching, so the arms other than the default keep an oracle check.
    let every_branching = [
        BranchingStrategy::HybridSe,
        BranchingStrategy::SymSe,
        BranchingStrategy::Se,
    ];
    let default_branching = [BranchingStrategy::default()];
    let grid = [
        (Algorithm::DcFastQc, &every_branching[..]),
        (Algorithm::FastQc, &every_branching[..]),
        (Algorithm::BasicDcFastQc, &default_branching[..]),
        (Algorithm::QuickPlus, &default_branching[..]),
    ];
    for (algorithm, branchings) in grid {
        for &branching in branchings {
            let config = base.with_algorithm(algorithm).with_branching(branching);
            let result = Session::open(g.clone()).config(config).run();
            report.checks += 1;
            report.grid_checks += 1;
            if result.mqcs != oracle.mqcs {
                failures.push((
                    "oracle-divergence".to_string(),
                    format!(
                        "{}/{branching:?}: got {} expected {}",
                        algorithm.name(),
                        family_digest(&result.mqcs),
                        family_digest(&oracle.mqcs)
                    ),
                ));
            }
        }
    }

    // --- work-stealing scheduler vs the oracle ----------------------------
    let result = Session::open(g.clone()).config(base).threads(3).run();
    report.checks += 1;
    if result.mqcs != oracle.mqcs {
        failures.push((
            "parallel-divergence".to_string(),
            format!(
                "work-stealing x3: got {} expected {}",
                family_digest(&result.mqcs),
                family_digest(&oracle.mqcs)
            ),
        ));
    }

    // --- the partial paths vs the oracle ----------------------------------
    let params = (case.gamma, case.theta);
    let spent = base.with_time_limit(Duration::ZERO);
    let mut faulted = base;
    faulted.params.fail_anchor = Some((case.index % case.n) as u32);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Session::open(g.clone()).config(faulted).run()
    }));
    report.checks += 1;
    match caught {
        Err(_) => failures.push((
            "uncontained-panic".to_string(),
            format!(
                "injected fault at anchor {:?} escaped",
                faulted.params.fail_anchor
            ),
        )),
        Ok(result) => {
            report.contained_panics += result.completeness.contained_panics;
            let answer = (&result.mqcs[..], result.completeness);
            let check = "contained-panic-torn-output";
            failures.extend(report.check_answer(&g, params, check, answer, &oracle.mqcs));
        }
    }
    // A one-vertex query; its oracle keeps the sets that contain the vertex.
    let q = (case.index * 5 % case.n) as u32;
    let mut containing = oracle.mqcs.clone();
    containing.retain(|h| h.contains(&q));
    let result = find_mqcs_containing(&g, &[q], &spent).expect("a valid one-vertex query");
    let answer = (&result.mqcs[..], result.completeness);
    failures.extend(report.check_answer(&g, params, "partial-query", answer, &containing));
    // Top-k ranks every maximal QC of size ≥ 2, largest first.
    let k = 1 + case.index % 4;
    let mut ranked = Session::open(g.clone())
        .config(base.with_algorithm(Algorithm::Naive))
        .params(MqceParams::new(case.gamma, 2).expect("gamma is valid"))
        .run()
        .mqcs;
    ranked.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let prepared = PreparedGraph::new(g.clone());
    for (check, config) in [
        ("partial-topk-zero-budget", spent),
        ("partial-topk-fail-anchor", faulted),
    ] {
        let top = find_largest_mqcs(&prepared, case.gamma, k, Some(config)).expect("valid params");
        let shown = if top.completeness.is_exact() {
            k
        } else {
            ranked.len()
        };
        let oracle = &ranked[..shown.min(ranked.len())];
        let answer = (&top.mqcs[..], top.completeness);
        failures.extend(report.check_answer(&g, (case.gamma, 2), check, answer, oracle));
    }

    // --- incremental sessions vs full recompute, and the WAL --------------
    // The clean session must match a full recompute after every batch; the
    // sessions seeded under a spent budget or a fault are checked by their
    // verdict, seed included.
    let threads = 1 + case.index % 2;
    let mut session = IncrementalSession::new(g.clone(), base, threads);
    let mut seeded = [
        ("partial-incremental-zero-budget", spent),
        ("partial-incremental-fail-anchor", faulted),
    ]
    .map(|(check, config)| (check, IncrementalSession::new(g.clone(), config, threads)));
    for (check, seed) in &seeded {
        let answer = (seed.family(), seed.completeness());
        failures.extend(report.check_answer(&g, params, check, answer, &oracle.mqcs));
    }
    let mut current = g.clone();
    let deltas: Vec<GraphDelta> = case
        .deltas
        .iter()
        .map(|(ins, del)| GraphDelta::new(ins.clone(), del.clone()))
        .collect();
    for (di, delta) in deltas.iter().enumerate() {
        if delta.is_empty() {
            continue;
        }
        let outcome = session.update(delta);
        current = delta.apply(&current);
        let full = Session::open(current.clone()).config(base).run();
        report.checks += 1;
        if session.family() != full.mqcs.as_slice() || !outcome.completeness.is_exact() {
            failures.push((
                "incremental-divergence".to_string(),
                format!(
                    "after batch {di}: session {} ({:?}) vs recompute {}",
                    family_digest(session.family()),
                    outcome.completeness,
                    family_digest(&full.mqcs)
                ),
            ));
        }
        for (check, seed) in &mut seeded {
            let outcome = seed.update(delta);
            let answer = (seed.family(), outcome.completeness);
            let failure = report.check_answer(&current, params, check, answer, &full.mqcs);
            failures.extend(failure.map(|(c, d)| (c, format!("after batch {di}: {d}"))));
        }
    }

    // WAL roundtrip: append every batch, reopen, replay onto the original
    // graph; the result must be fingerprint-identical to direct application.
    // Then truncate the log at an arbitrary byte and reopen: the tail must
    // be dropped cleanly, leaving a strict prefix of the batches.
    let wal_path = std::env::temp_dir().join(format!(
        "mqce_fuzz_{}_{}_{}.wal",
        std::process::id(),
        case.index,
        case.n
    ));
    let _ = std::fs::remove_file(&wal_path);
    let wal_check = (|| -> Result<(), String> {
        let applied: Vec<&GraphDelta> = deltas.iter().filter(|d| !d.is_empty()).collect();
        {
            let (mut wal, replayed) =
                WriteAheadLog::open(&wal_path).map_err(|e| format!("open: {e}"))?;
            if !replayed.is_empty() {
                return Err("fresh WAL replayed nonempty".to_string());
            }
            for delta in &applied {
                wal.append(delta).map_err(|e| format!("append: {e}"))?;
            }
        }
        let (_, replayed) = WriteAheadLog::open(&wal_path).map_err(|e| format!("reopen: {e}"))?;
        if replayed.len() != applied.len() {
            return Err(format!(
                "replay count {} != appended {}",
                replayed.len(),
                applied.len()
            ));
        }
        let mut via_wal = g.clone();
        for delta in &replayed {
            via_wal = delta.apply(&via_wal);
        }
        if via_wal.fingerprint() != current.fingerprint() {
            return Err(format!(
                "replayed fingerprint {:016x} != direct {:016x}",
                via_wal.fingerprint(),
                current.fingerprint()
            ));
        }
        // Torn-tail tolerance at a case-derived cut point.
        let bytes = std::fs::read(&wal_path).map_err(|e| format!("read: {e}"))?;
        if bytes.len() > 8 {
            let cut = 8 + (case.index * 7 + case.n) % (bytes.len() - 8);
            std::fs::write(&wal_path, &bytes[..cut]).map_err(|e| format!("truncate: {e}"))?;
            let (_, prefix) =
                WriteAheadLog::open(&wal_path).map_err(|e| format!("torn reopen: {e}"))?;
            if prefix.len() > applied.len() {
                return Err("torn log replayed more than was appended".to_string());
            }
            for (got, expected) in prefix.iter().zip(applied.iter()) {
                if got.inserts() != expected.inserts() || got.deletes() != expected.deletes() {
                    return Err("torn log replayed a non-prefix".to_string());
                }
            }
        }
        Ok(())
    })();
    report.checks += 1;
    let _ = std::fs::remove_file(&wal_path);
    if let Err(detail) = wal_check {
        failures.push(("wal-divergence".to_string(), detail));
    }

    failures
}

/// Greedy minimisation: repeatedly drop any single edge (then any single
/// delta batch) while the named check still fails. Bounded by a re-run
/// budget so a pathological case cannot stall the run.
fn minimise(case: &FuzzCase, check: &str) -> FuzzCase {
    let still_fails = |candidate: &FuzzCase| -> bool {
        run_case(candidate, &mut FuzzReport::default())
            .iter()
            .any(|(name, _)| name == check)
    };
    let mut best = case.clone();
    let mut budget = 150usize;
    let mut progress = true;
    while progress && budget > 0 {
        progress = false;
        for i in 0..best.edges.len() {
            if budget == 0 {
                break;
            }
            let mut candidate = best.clone();
            candidate.edges.remove(i);
            budget -= 1;
            if still_fails(&candidate) {
                best = candidate;
                progress = true;
                break;
            }
        }
        for i in 0..best.deltas.len() {
            if budget == 0 {
                break;
            }
            let mut candidate = best.clone();
            candidate.deltas.remove(i);
            budget -= 1;
            if still_fails(&candidate) {
                best = candidate;
                progress = true;
                break;
            }
        }
    }
    best
}

/// Serialises a case as a replayable plain-text fixture.
fn fixture_text(case: &FuzzCase, check: &str, detail: &str) -> String {
    let edge_list = |edges: &[(u32, u32)]| {
        edges
            .iter()
            .map(|(u, v)| format!("{u}-{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# mqce fuzz fixture — replay: experiments fuzz --replay <this file>"
    );
    let _ = writeln!(out, "# failed check: {check}");
    let _ = writeln!(out, "# detail: {}", detail.replace('\n', " "));
    let _ = writeln!(out, "case = {}", case.index);
    let _ = writeln!(out, "n = {}", case.n);
    let _ = writeln!(out, "gamma = {}", case.gamma);
    let _ = writeln!(out, "theta = {}", case.theta);
    let _ = writeln!(out, "edges = {}", edge_list(&case.edges));
    for (ins, del) in &case.deltas {
        let _ = writeln!(
            out,
            "delta = insert:{} delete:{}",
            edge_list(ins),
            edge_list(del)
        );
    }
    out
}

/// Parses a fixture file written by [`fixture_text`].
fn parse_fixture(text: &str) -> Result<FuzzCase, String> {
    let parse_edges = |s: &str| -> Result<Vec<(u32, u32)>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|pair| !pair.is_empty())
            .map(|pair| {
                let (u, v) = pair
                    .split_once('-')
                    .ok_or_else(|| format!("bad edge `{pair}`"))?;
                Ok((
                    u.parse::<u32>().map_err(|_| format!("bad edge `{pair}`"))?,
                    v.parse::<u32>().map_err(|_| format!("bad edge `{pair}`"))?,
                ))
            })
            .collect()
    };
    let mut case = FuzzCase {
        index: 0,
        n: 0,
        gamma: 0.9,
        theta: 2,
        edges: Vec::new(),
        deltas: Vec::new(),
    };
    let mut saw_n = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("bad fixture line `{line}`"))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "case" => case.index = value.parse().map_err(|_| "bad case index".to_string())?,
            "n" => {
                case.n = value.parse().map_err(|_| "bad n".to_string())?;
                saw_n = true;
            }
            "gamma" => case.gamma = value.parse().map_err(|_| "bad gamma".to_string())?,
            "theta" => case.theta = value.parse().map_err(|_| "bad theta".to_string())?,
            "edges" => case.edges = parse_edges(value)?,
            "delta" => {
                let rest = value
                    .strip_prefix("insert:")
                    .ok_or_else(|| format!("bad delta line `{line}`"))?;
                let (ins, del) = rest
                    .split_once(" delete:")
                    .ok_or_else(|| format!("bad delta line `{line}`"))?;
                case.deltas.push((parse_edges(ins)?, parse_edges(del)?));
            }
            other => return Err(format!("unknown fixture key `{other}`")),
        }
    }
    if !saw_n || case.n == 0 {
        return Err("fixture is missing `n` or has no vertices".to_string());
    }
    Ok(case)
}

/// Runs the fuzzer: `iterations` structured cases, every failure minimised
/// and written under `fixture_dir`.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    quiet_injected_panics();
    let mut report = FuzzReport::default();
    for index in 0..opts.iterations {
        let case = generate_case(opts.seed, index);
        let failures = run_case(&case, &mut report);
        report.cases += 1;
        for (check, detail) in failures {
            let minimised = minimise(&case, &check);
            let fixture = {
                let text = fixture_text(&minimised, &check, &detail);
                let path = opts
                    .fixture_dir
                    .join(format!("case{:05}_{}.fixture", index, check));
                std::fs::create_dir_all(&opts.fixture_dir)
                    .and_then(|()| std::fs::write(&path, text))
                    .map(|()| path)
                    .ok()
            };
            report.failures.push(FuzzFailure {
                case: index,
                check,
                detail,
                fixture,
            });
        }
    }
    report
}

/// Re-runs the differential battery on one fixture file.
pub fn replay_fixture(path: &Path) -> Result<FuzzReport, String> {
    quiet_injected_panics();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read fixture: {e}"))?;
    let case = parse_fixture(&text)?;
    let mut report = FuzzReport::default();
    let failures = run_case(&case, &mut report);
    report.cases = 1;
    for (check, detail) in failures {
        report.failures.push(FuzzFailure {
            case: case.index,
            check,
            detail,
            fixture: Some(path.to_path_buf()),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_is_clean() {
        let opts = FuzzOptions {
            iterations: 12,
            seed: 7,
            fixture_dir: std::env::temp_dir().join("mqce_fuzz_test_fixtures"),
        };
        let report = run_fuzz(&opts);
        assert_eq!(report.cases, 12);
        assert!(report.checks > 12 * 10);
        // Per case: DCFastQC and FastQC at three branchings, BDCFastQC and
        // Quick+ at the default.
        assert_eq!(report.grid_checks, 12 * (2 * 3 + 2));
        assert!(
            report.failures.is_empty(),
            "fuzz failures: {:?}",
            report.failures
        );
        // Every case injects one fault; most land on an executing anchor.
        assert!(report.contained_panics > 0);
        assert!(report.exact_answers > 0 && report.partial_answers > 0);
    }

    #[test]
    fn fixtures_roundtrip_through_text() {
        let case = generate_case(99, 3);
        let text = fixture_text(&case, "oracle-divergence", "detail\nwith newline");
        let back = parse_fixture(&text).unwrap();
        assert_eq!(back.index, case.index);
        assert_eq!(back.n, case.n);
        assert_eq!(back.gamma, case.gamma);
        assert_eq!(back.theta, case.theta);
        assert_eq!(back.edges, case.edges);
        assert_eq!(back.deltas, case.deltas);
    }

    #[test]
    fn broken_fixtures_are_rejected() {
        assert!(parse_fixture("gamma = 0.9").is_err());
        assert!(parse_fixture("n = 5\nedges = 1-2,bad").is_err());
        assert!(parse_fixture("n = 5\ndelta = insert:1-2").is_err());
        assert!(parse_fixture("n = 5\nfrobnicate = 1").is_err());
    }
}
