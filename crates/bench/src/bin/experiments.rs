//! Command-line driver for the paper-reproduction experiments.
//!
//! ```text
//! cargo run --release -p mqce-bench --bin experiments -- <experiment> [--quick] [--json out.json]
//! ```
//!
//! Experiments: `table1`, `fig7`, `fig8`, `fig9`, `fig10a`, `fig10b`,
//! `fig11`, `fig12`, `maxround`, `shrink`, `s2`, `s2-stress`, `threads`,
//! `alloc-gate`, `updates`, `all`.
//!
//! The perf profiles — `s2-stress` (the S2 pass at one and two workers on
//! large overlapping families), `threads` (the parallel-scaling sweep),
//! `alloc-gate` (heap-allocation events per DC subproblem against a
//! checked-in bound; needs a `--features count-allocs` build) and `updates`
//! (incremental vs full recompute) — print their table; with `--json` they
//! *append* their rows to that file instead of overwriting it, so one CI job
//! accumulates them into a single artifact. Start from an absent file to
//! keep only one run's rows.
//!
//! `--quick` runs the reduced-scale suite with a short time limit (useful for
//! smoke-testing the harness); the default is the full laptop-scale suite.
//!
//! `fuzz` is the odd one out: it runs the structured differential fuzzer
//! (`--fuzz-iters`, `--seed`, `--fixture-dir`, or `--replay <fixture>`)
//! instead of a measurement sweep, writes minimised fixtures for any
//! divergence it finds, and exits nonzero on failure so CI can gate on it.

use std::path::PathBuf;
use std::time::Duration;

use mqce_bench::experiments::{self, ExperimentOptions};
use mqce_bench::fuzz::{replay_fixture, run_fuzz, FuzzOptions};
use mqce_bench::runner::{append_json, save_json, RunRecord};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|fig7|fig8|fig9|fig10a|fig10b|fig11|fig12|maxround|shrink|s2|s2-stress|threads|alloc-gate|updates|fuzz|all> \
         [--quick] [--time-limit <seconds>] [--json <path>] \
         [--fuzz-iters <n>] [--seed <n>] [--fixture-dir <dir>] [--replay <fixture>]"
    );
    std::process::exit(2);
}

/// Runs `experiments fuzz`: a seeded differential sweep (or a single fixture
/// replay), printing a summary and exiting nonzero on any confirmed failure.
fn run_fuzz_command(fuzz_opts: FuzzOptions, replay: Option<PathBuf>) -> ! {
    let report = match replay {
        Some(path) => {
            println!("replaying fixture {}", path.display());
            match replay_fixture(&path) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("fuzz replay failed: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => {
            println!(
                "fuzzing {} cases (seed {:#x}), fixtures -> {}",
                fuzz_opts.iterations,
                fuzz_opts.seed,
                fuzz_opts.fixture_dir.display()
            );
            run_fuzz(&fuzz_opts)
        }
    };
    println!(
        "fuzz: {} cases, {} checks ({} on the algorithm x branching grid), \
         {} contained injected panics, \
         {} exact and {} partial answers on the partial paths, {} failures",
        report.cases,
        report.checks,
        report.grid_checks,
        report.contained_panics,
        report.exact_answers,
        report.partial_answers,
        report.failures.len()
    );
    if report.failures.is_empty() {
        std::process::exit(0);
    }
    for failure in &report.failures {
        eprintln!(
            "FAIL case {} [{}]: {}{}",
            failure.case,
            failure.check,
            failure.detail,
            failure
                .fixture
                .as_ref()
                .map(|p| format!(" (fixture: {})", p.display()))
                .unwrap_or_default()
        );
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut experiment: Option<String> = None;
    let mut opts = ExperimentOptions::default();
    let mut json_path: Option<PathBuf> = None;
    let mut fuzz_opts = FuzzOptions::default();
    let mut replay_path: Option<PathBuf> = None;

    let mut i = 0;
    let mut time_limit_set = false;
    let mut quick = false;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--fuzz-iters" => {
                i += 1;
                fuzz_opts.iterations = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                fuzz_opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fixture-dir" => {
                i += 1;
                fuzz_opts.fixture_dir =
                    PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--replay" => {
                i += 1;
                replay_path = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--time-limit" => {
                i += 1;
                let secs: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.time_limit = Duration::from_secs(secs);
                time_limit_set = true;
            }
            "--json" => {
                i += 1;
                json_path = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    let experiment = experiment.unwrap_or_else(|| usage());
    // `fuzz` is not a measurement sweep: it never returns RunRecords and
    // exits with its own status so CI can gate on divergences directly.
    if experiment == "fuzz" {
        run_fuzz_command(fuzz_opts, replay_path);
    }
    // `--quick` switches to the small-scale suite; an explicit
    // `--time-limit` wins over quick's short default regardless of the
    // order the two flags appeared in.
    if quick {
        let mut quick_opts = ExperimentOptions::quick();
        if time_limit_set {
            quick_opts.time_limit = opts.time_limit;
        } else {
            time_limit_set = true;
        }
        opts = quick_opts;
    }
    // The perf profiles are the per-PR smoke signal: bounded time limits, and
    // with `--json` they append, so one CI job can accumulate them into a
    // single artifact.
    let perf_profile = matches!(
        experiment.as_str(),
        "s2-stress" | "threads" | "alloc-gate" | "updates"
    );
    if perf_profile && !time_limit_set {
        opts.time_limit = Duration::from_secs(10);
    }

    let records: Vec<RunRecord> = match experiment.as_str() {
        "table1" => experiments::table1(opts),
        "fig7" => experiments::fig7(opts),
        "fig8" => experiments::fig8(opts),
        "fig9" => experiments::fig9(opts),
        "fig10a" => experiments::fig10a(opts),
        "fig10b" => experiments::fig10b(opts),
        "fig11" => experiments::fig11(opts),
        "fig12" => experiments::fig12(opts),
        "maxround" => experiments::maxround(opts),
        "shrink" => experiments::shrink(opts),
        "s2" => experiments::s2_cost(opts),
        "s2-stress" => experiments::s2_stress(opts),
        "threads" => experiments::thread_sweep(opts),
        "alloc-gate" => experiments::alloc_gate(opts),
        "updates" => experiments::updates(opts),
        "all" => experiments::run_all(opts),
        _ => usage(),
    };

    if let Some(path) = json_path {
        if perf_profile {
            append_json(&path, &records).expect("append JSON results");
            println!("\nappended {} records to {}", records.len(), path.display());
        } else {
            save_json(&path, &records).expect("write JSON results");
            println!("\nwrote {} records to {}", records.len(), path.display());
        }
    }
}
