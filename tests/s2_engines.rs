//! Integration tests for the MQCE-S2 pass: agreement with the quadratic
//! reference, and deadline soundness of the pass and of the pipeline.

use std::time::{Duration, Instant};

use mqce::prelude::*;
use mqce::settrie::{compact_parallel, filter_maximal, filter_maximal_naive, S2Backend};
use proptest::prelude::*;

/// The full pipeline through the `Session` builder on `threads` workers.
fn enumerate_threads(g: &Graph, config: &MqceConfig, threads: usize) -> MqceResult {
    Session::open(g.clone())
        .config(*config)
        .threads(threads)
        .run()
}

/// `a ⊆ b` for sorted slices (local reference helper).
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// A deterministic overlapping family: subsets of a small universe with
/// enough duplication and containment to exercise every probe path.
fn overlapping_family(n: usize, universe: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    (0..n)
        .map(|_| {
            let len = (next() % 9) as usize;
            (0..len).map(|_| next() % universe).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pass at one and two workers, and every backend name's buffer
    /// (which runs the same pass for the benchmark harness), produce exactly
    /// the quadratic reference result on arbitrary overlapping families —
    /// including two families concatenated, duplicates across them.
    #[test]
    fn all_backends_match_naive(
        left in proptest::collection::vec(proptest::collection::vec(0u32..20, 0..8), 0..40),
        right in proptest::collection::vec(proptest::collection::vec(0u32..20, 0..8), 0..20),
    ) {
        let mut sets = left.clone();
        sets.extend(right.iter().cloned());
        sets.extend(left.iter().rev().cloned());
        let expected = filter_maximal_naive(&sets);
        for workers in [1, 2] {
            prop_assert_eq!(
                compact_parallel(&sets, workers, None).mqcs,
                expected.clone(),
                "{} workers", workers
            );
        }
        for backend in S2Backend::concrete() {
            let mut buffer = backend.new_engine();
            for set in &sets {
                buffer.add(set);
            }
            prop_assert_eq!(
                buffer.finish_with_deadline(None).mqcs,
                expected.clone(),
                "backend {}", backend.name()
            );
        }
    }
}

/// An already-expired deadline cuts the pass short (flagged as timed out)
/// and promptly, at one and two workers, while what it returns is still an
/// antichain.
#[test]
fn expired_deadline_yields_sound_antichain() {
    let family = overlapping_family(15_000, 60, 3);
    for workers in [1, 2] {
        let start = Instant::now();
        // An already-expired deadline makes the timeout deterministic: the
        // pass polls it before its first block, regardless of machine speed.
        let out = compact_parallel(&family, workers, Some(Instant::now()));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{workers} workers: deadline ignored"
        );
        assert!(out.timed_out, "{workers} workers: expected a timeout");
        for (i, a) in out.mqcs.iter().enumerate() {
            for (j, b) in out.mqcs.iter().enumerate() {
                assert!(
                    i == j || !is_subset(a, b),
                    "{workers} workers: partial result is not an antichain: {a:?} ⊆ {b:?}"
                );
            }
        }
    }
}

/// The partial result under a mid-flight deadline is always a subset of the
/// true maximal family (no fabricated sets, no dominated leftovers): the pass
/// probes each set against the whole family, so a cut keeps only globally
/// maximal sets.
#[test]
fn partial_result_is_subset_of_true_maximal_family() {
    let family = overlapping_family(8_000, 40, 11);
    let full = filter_maximal(&family);
    for workers in [1, 2, 4] {
        let deadline = Instant::now() + Duration::from_millis(2);
        let out = compact_parallel(&family, workers, Some(deadline));
        for set in &out.mqcs {
            assert!(
                full.binary_search(set).is_ok(),
                "{workers} workers: partial result contains non-maximal set {set:?}"
            );
        }
    }
}

/// The end-to-end pipeline respects its wall-clock budget even when S1 emits
/// a large output list: S2 gets at most a bounded grace interval past the
/// limit, at one thread and at two.
#[test]
fn pipeline_budget_is_not_blown_by_s2() {
    use mqce::graph::generators::erdos_renyi_gnm;
    let g = erdos_renyi_gnm(250, 5500, 5);
    let limit = Duration::from_millis(200);
    let config = MqceConfig::new(0.5, 3)
        .unwrap()
        .with_algorithm(Algorithm::QuickPlusRaw)
        .with_time_limit(limit);
    for threads in [1, 2] {
        let start = Instant::now();
        let result = enumerate_threads(&g, &config, threads);
        // The bound is deliberately loose (S1's per-branch deadline polling
        // has its own granularity) but far below an unbounded S2 pass.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "{threads} threads: pipeline ran {:?} on a 200ms budget",
            start.elapsed()
        );
        // Whatever came back is an antichain.
        for (i, a) in result.mqcs.iter().enumerate() {
            for (j, b) in result.mqcs.iter().enumerate() {
                assert!(
                    i == j || !is_subset(a, b),
                    "{threads} threads: not an antichain"
                );
            }
        }
    }
}
