//! The experiments that regenerate every table and figure of the paper's
//! evaluation (Section 6). Each function returns the run records it produced
//! so the binary can print them and the tests can assert on their shape.

use std::time::{Duration, Instant};

use mqce_core::{BranchingStrategy, Completeness};
use mqce_graph::GraphStats;

use crate::datasets::{self, Dataset, SuiteScale};
use crate::runner::{measure, measure_threads, print_table, AlgoSpec, RunRecord};

/// Global options for an experiment run.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentOptions {
    /// Dataset scale.
    pub scale: SuiteScale,
    /// Per-run time limit (the paper's INF cap, scaled down).
    pub time_limit: Duration,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: SuiteScale::Full,
            time_limit: Duration::from_secs(30),
        }
    }
}

impl ExperimentOptions {
    /// Quick options used by tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentOptions {
            scale: SuiteScale::Small,
            time_limit: Duration::from_secs(5),
        }
    }
}

fn gamma_sweep(default: f64) -> Vec<f64> {
    // The paper sweeps γ around each dataset's default (e.g. 0.85..0.99).
    let candidates = [0.8, 0.85, 0.9, 0.95, 0.99];
    if candidates.contains(&default) {
        candidates.to_vec()
    } else {
        let mut v = candidates.to_vec();
        v.push(default);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }
}

fn theta_sweep(default: usize) -> Vec<usize> {
    let lo = default.saturating_sub(2).max(3);
    (lo..lo + 5).collect()
}

/// **Table 1**: dataset statistics, number of MQCs, number of QCs reported by
/// DCFastQC and Quick+, and MQC size statistics, at each dataset's defaults.
pub fn table1(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    println!("\n== Table 1: datasets and large-MQC statistics ==");
    println!(
        "{:<14} {:>8} {:>9} {:>8} {:>6} {:>5} {:>5} {:>5} {:>8} {:>12} {:>10} {:>7} {:>7} {:>7}",
        "dataset",
        "|V|",
        "|E|",
        "|E|/|V|",
        "d",
        "w",
        "th_d",
        "g_d",
        "#MQC",
        "#DCFastQC",
        "#Quick+",
        "Hmin",
        "Hmax",
        "Havg"
    );
    for dataset in datasets::standard_suite(opts.scale) {
        let stats = dataset.stats();
        let dc = measure(
            dataset.name,
            &dataset.graph,
            AlgoSpec::dcfastqc(),
            dataset.gamma_d,
            dataset.theta_d,
            opts.time_limit,
        );
        let quick = measure(
            dataset.name,
            &dataset.graph,
            AlgoSpec::quickplus(),
            dataset.gamma_d,
            dataset.theta_d,
            opts.time_limit,
        );
        println!(
            "{:<14} {:>8} {:>9} {:>8.2} {:>6} {:>5} {:>5} {:>5.2} {:>8} {:>12} {:>10} {:>7} {:>7} {:>7.2}",
            dataset.name,
            stats.num_vertices,
            stats.num_edges,
            stats.edge_density,
            stats.max_degree,
            stats.degeneracy,
            dataset.theta_d,
            dataset.gamma_d,
            dc.mqcs,
            dc.s1_outputs,
            if quick.timed_out { "OUT".to_string() } else { quick.s1_outputs.to_string() },
            dc.mqc_min,
            dc.mqc_max,
            dc.mqc_avg,
        );
        records.push(dc);
        records.push(quick);
    }
    records
}

/// **Figure 7**: DCFastQC vs Quick+ running time on every dataset at its
/// default parameters.
pub fn fig7(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for dataset in datasets::standard_suite(opts.scale) {
        for spec in [AlgoSpec::dcfastqc(), AlgoSpec::quickplus()] {
            records.push(measure(
                dataset.name,
                &dataset.graph,
                spec,
                dataset.gamma_d,
                dataset.theta_d,
                opts.time_limit,
            ));
        }
    }
    print_table(
        "Figure 7: comparison on all datasets (default settings)",
        &records,
    );
    print_speedups(&records, "Quick+", "DCFastQC");
    records
}

/// **Figure 8**: running time as γ varies on the four default datasets.
pub fn fig8(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for dataset in datasets::default_four(opts.scale) {
        for gamma in gamma_sweep(dataset.gamma_d) {
            for spec in [AlgoSpec::dcfastqc(), AlgoSpec::quickplus()] {
                records.push(measure(
                    dataset.name,
                    &dataset.graph,
                    spec,
                    gamma,
                    dataset.theta_d,
                    opts.time_limit,
                ));
            }
        }
    }
    print_table("Figure 8: varying gamma", &records);
    records
}

/// **Figure 9**: running time as θ varies on the four default datasets.
pub fn fig9(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for dataset in datasets::default_four(opts.scale) {
        for theta in theta_sweep(dataset.theta_d) {
            for spec in [AlgoSpec::dcfastqc(), AlgoSpec::quickplus()] {
                records.push(measure(
                    dataset.name,
                    &dataset.graph,
                    spec,
                    dataset.gamma_d,
                    theta,
                    opts.time_limit,
                ));
            }
        }
    }
    print_table("Figure 9: varying theta", &records);
    records
}

/// **Figure 10(a)**: scalability on Erdős–Rényi graphs as the number of
/// vertices grows (edge density fixed at 20, γ=0.9, θ=10).
pub fn fig10a(opts: ExperimentOptions) -> Vec<RunRecord> {
    let sizes: Vec<usize> = match opts.scale {
        SuiteScale::Small => vec![500, 1000, 2000],
        SuiteScale::Full => vec![2_000, 5_000, 10_000, 20_000, 50_000],
    };
    let mut records = Vec::new();
    for &n in &sizes {
        let dataset = datasets::er(n, 20.0, 7);
        let name = format!("er-n{n}");
        for spec in [AlgoSpec::dcfastqc(), AlgoSpec::quickplus()] {
            records.push(measure(
                &name,
                &dataset.graph,
                spec,
                dataset.gamma_d,
                dataset.theta_d,
                opts.time_limit,
            ));
        }
    }
    print_table(
        "Figure 10(a): varying number of vertices (ER, density 20)",
        &records,
    );
    records
}

/// **Figure 10(b)**: scalability on Erdős–Rényi graphs as the edge density
/// grows (vertex count fixed, γ=0.9, θ=10).
pub fn fig10b(opts: ExperimentOptions) -> Vec<RunRecord> {
    let (n, densities): (usize, Vec<f64>) = match opts.scale {
        SuiteScale::Small => (1000, vec![5.0, 10.0, 20.0]),
        SuiteScale::Full => (5_000, vec![10.0, 20.0, 30.0, 50.0, 70.0]),
    };
    let mut records = Vec::new();
    for &density in &densities {
        let dataset = datasets::er(n, density, 11);
        let name = format!("er-d{density}");
        for spec in [AlgoSpec::dcfastqc(), AlgoSpec::quickplus()] {
            records.push(measure(
                &name,
                &dataset.graph,
                spec,
                dataset.gamma_d,
                dataset.theta_d,
                opts.time_limit,
            ));
        }
    }
    print_table("Figure 10(b): varying edge density (ER)", &records);
    records
}

/// **Figure 11**: branching-strategy ablation (Hybrid-SE vs Sym-SE vs SE)
/// while varying γ and θ on two datasets.
pub fn fig11(opts: ExperimentOptions) -> Vec<RunRecord> {
    let specs = [
        AlgoSpec::dcfastqc_with_branching("Hybrid-SE", BranchingStrategy::HybridSe),
        AlgoSpec::dcfastqc_with_branching("Sym-SE", BranchingStrategy::SymSe),
        AlgoSpec::dcfastqc_with_branching("SE", BranchingStrategy::Se),
    ];
    let two: Vec<Dataset> = {
        let mut v = datasets::default_four(opts.scale);
        v.truncate(2);
        v
    };
    let mut records = Vec::new();
    for dataset in &two {
        for gamma in gamma_sweep(dataset.gamma_d) {
            for spec in specs {
                records.push(measure(
                    dataset.name,
                    &dataset.graph,
                    spec,
                    gamma,
                    dataset.theta_d,
                    opts.time_limit,
                ));
            }
        }
        for theta in theta_sweep(dataset.theta_d) {
            for spec in specs {
                records.push(measure(
                    dataset.name,
                    &dataset.graph,
                    spec,
                    dataset.gamma_d,
                    theta,
                    opts.time_limit,
                ));
            }
        }
    }
    print_table(
        "Figure 11: branching strategies (Hybrid-SE / Sym-SE / SE)",
        &records,
    );
    records
}

/// **Figure 12**: divide-and-conquer ablation (FastQC vs BDCFastQC vs
/// DCFastQC) while varying γ and θ on two datasets.
pub fn fig12(opts: ExperimentOptions) -> Vec<RunRecord> {
    let specs = [
        AlgoSpec::dcfastqc(),
        AlgoSpec::bdcfastqc(),
        AlgoSpec::fastqc(),
    ];
    let two: Vec<Dataset> = {
        let mut v = datasets::default_four(opts.scale);
        v.truncate(2);
        v
    };
    let mut records = Vec::new();
    for dataset in &two {
        for gamma in gamma_sweep(dataset.gamma_d) {
            for spec in specs {
                records.push(measure(
                    dataset.name,
                    &dataset.graph,
                    spec,
                    gamma,
                    dataset.theta_d,
                    opts.time_limit,
                ));
            }
        }
        for theta in theta_sweep(dataset.theta_d) {
            for spec in specs {
                records.push(measure(
                    dataset.name,
                    &dataset.graph,
                    spec,
                    dataset.gamma_d,
                    theta,
                    opts.time_limit,
                ));
            }
        }
    }
    print_table(
        "Figure 12: DC frameworks (DCFastQC / BDCFastQC / FastQC)",
        &records,
    );
    records
}

/// **MAX_ROUND ablation** (Section 6.2 "other experiments", item 3).
pub fn maxround(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for dataset in datasets::default_four(opts.scale) {
        for round in 1..=4usize {
            let label: &'static str = match round {
                1 => "MAX_ROUND=1",
                2 => "MAX_ROUND=2",
                3 => "MAX_ROUND=3",
                _ => "MAX_ROUND=4",
            };
            records.push(measure(
                dataset.name,
                &dataset.graph,
                AlgoSpec::dcfastqc_with_max_round(label, round),
                dataset.gamma_d,
                dataset.theta_d,
                opts.time_limit,
            ));
        }
    }
    print_table("MAX_ROUND ablation", &records);
    records
}

/// **DC shrinking effect** (Section 6.2 "other experiments", item 2): how much
/// smaller the DC subgraphs are than the original graph.
pub fn shrink(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    println!("\n== DC graph-size reduction ==");
    println!(
        "{:<14} {:>8} {:>14} {:>16} {:>16} {:>10}",
        "dataset", "|V|", "#subproblems", "avg |V_i| (2hop)", "avg |V_i| pruned", "ratio"
    );
    for dataset in datasets::standard_suite(opts.scale) {
        let rec = measure(
            dataset.name,
            &dataset.graph,
            AlgoSpec::dcfastqc(),
            dataset.gamma_d,
            dataset.theta_d,
            opts.time_limit,
        );
        let stats = GraphStats::compute(&dataset.graph);
        let sub = rec.stats.dc_subproblems.max(1) as f64;
        let before = rec.stats.dc_vertices_before_pruning as f64 / sub;
        let after = rec.stats.dc_vertices_after_pruning as f64 / sub;
        println!(
            "{:<14} {:>8} {:>14} {:>16.1} {:>16.1} {:>9.4}%",
            dataset.name,
            stats.num_vertices,
            rec.stats.dc_subproblems,
            before,
            after,
            100.0 * after / stats.num_vertices.max(1) as f64
        );
        records.push(rec);
    }
    records
}

/// **MQCE-S2 cost** (Section 2.2): time spent in the set-trie maximality
/// filter relative to the S1 search.
pub fn s2_cost(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut records = Vec::new();
    println!("\n== MQCE-S2 (set-trie filtering) cost ==");
    println!(
        "{:<14} {:>10} {:>8} {:>14} {:>14}",
        "dataset", "#S1 out", "#MQC", "S1 time (ms)", "S2 time (ms)"
    );
    for dataset in datasets::standard_suite(opts.scale) {
        let rec = measure(
            dataset.name,
            &dataset.graph,
            AlgoSpec::dcfastqc(),
            dataset.gamma_d,
            dataset.theta_d,
            opts.time_limit,
        );
        println!(
            "{:<14} {:>10} {:>8} {:>14.2} {:>14.3}",
            dataset.name, rec.s1_outputs, rec.mqcs, rec.s1_millis, rec.s2_millis
        );
        records.push(rec);
    }
    records
}

/// Checked-in regression bound for [`alloc_gate`]: allocation events per DC
/// subproblem allowed on the community-800 preset, several times the
/// measured steady state. The budget covers everything a full pipeline run
/// allocates — the warmup ramp of the per-worker scratch buffers, the S2
/// pass over the flat family, and the boxing of the maximal sets — so a
/// reintroduced per-subproblem allocation (the pre-scratch path paid
/// hundreds: a fresh local-id map, `Vec<Vec<_>>` adjacency, per-emission
/// predicate masks and per-QC boxing each time) blows through it
/// immediately. Measured steady state (a one-worker scheduler run, 2-vCPU
/// Intel Xeon container): 5.50 (4,375 events over 796 subproblems), most of
/// it the boxing of the maximal sets, which scales with outputs, not
/// subproblems. It was 6.79 when every S1 output was boxed.
pub const ALLOC_GATE_MAX_ALLOCS_PER_SUBPROBLEM: f64 = 30.0;

/// **Allocation gate** (`experiments alloc-gate`): measures heap-allocation
/// events per DC subproblem on the CI smoke preset (community graph, n=800,
/// 80 communities, p_intra=0.9, seed 7, γ=0.9, θ=4) with the `count-allocs`
/// global allocator, and panics if the rate exceeds
/// [`ALLOC_GATE_MAX_ALLOCS_PER_SUBPROBLEM`]. A first untimed run warms the
/// allocator and the page cache; the second run is the measured one. Without
/// the `count-allocs` feature there is nothing to measure and the gate
/// reports itself skipped.
pub fn alloc_gate(opts: ExperimentOptions) -> Vec<RunRecord> {
    use mqce_graph::generators::{community_graph, CommunityGraphParams};
    if !crate::alloc_stats::enabled() {
        println!(
            "alloc-gate: built without the `count-allocs` feature, skipping \
             (rebuild with `--features count-allocs`)"
        );
        return Vec::new();
    }
    let g = community_graph(
        CommunityGraphParams {
            n: 800,
            num_communities: 80,
            p_intra: 0.9,
            inter_degree: 1.0,
        },
        7,
    );
    let spec = AlgoSpec::dcfastqc();
    let _warmup = measure("community-800", &g, spec, 0.9, 4, opts.time_limit);
    let record = measure("community-800", &g, spec, 0.9, 4, opts.time_limit);
    assert!(
        !record.timed_out && !record.s2_timed_out,
        "alloc-gate run hit the time limit; its allocation counts are not comparable"
    );
    let subproblems = record.stats.dc_subproblems.max(1);
    let per_subproblem = record.alloc_count as f64 / subproblems as f64;
    println!(
        "\n== Allocation gate (community-800, gamma=0.9 theta=4) ==\n\
         {} allocation events / {} DC subproblems = {:.2} per subproblem \
         (bound {:.1}); peak heap {:.1} MiB",
        record.alloc_count,
        subproblems,
        per_subproblem,
        ALLOC_GATE_MAX_ALLOCS_PER_SUBPROBLEM,
        record.peak_alloc_bytes as f64 / (1024.0 * 1024.0)
    );
    assert!(
        per_subproblem <= ALLOC_GATE_MAX_ALLOCS_PER_SUBPROBLEM,
        "allocation regression: {per_subproblem:.2} allocation events per DC subproblem \
         exceeds the checked-in bound of {ALLOC_GATE_MAX_ALLOCS_PER_SUBPROBLEM}"
    );
    vec![record]
}

/// Edges per update batch in the [`updates`] profile. Single-edge batches
/// are the realistic churn shape (a stream of local mutations — follow /
/// unfollow, transaction edges — not one bulk rewrite) and keep each
/// batch's dirty two-hop closure confined to the touched communities, which
/// is exactly the regime the incremental session targets; the profile
/// reports totals across the whole schedule either way, so the comparison
/// against per-batch full recompute is fair at any batch size.
pub const UPDATE_BATCH_EDGES: usize = 1;

/// **Incremental-updates profile** (`experiments updates`): random churn
/// schedules at 0.1% / 1% / 5% edge turnover on the community generators,
/// comparing [`IncrementalSession`](mqce_core::IncrementalSession) updates
/// against a full recompute after every batch. Each schedule applies its
/// turnover as a stream of [`UPDATE_BATCH_EDGES`]-edge mixed insert/delete
/// batches; after each batch the profile also runs the full pipeline on the
/// mutated graph, asserts the two families agree (the differential check is
/// free — the baseline timing needs the run anyway), and accumulates both
/// wall-clocks. One record per (graph, turnover): `s1_millis` is the total
/// incremental time, `full_recompute_millis` the total baseline time, and
/// `updates_applied` / `dirty_subproblems` count the schedule's edges and
/// re-run anchors.
pub fn updates(opts: ExperimentOptions) -> Vec<RunRecord> {
    use mqce_core::{IncrementalSession, MqceConfig, Session};
    use mqce_graph::generators::{community_graph, CommunityGraphParams};
    use mqce_graph::GraphDelta;

    let (gamma, theta) = (0.9, 8);
    let graphs: Vec<(&'static str, mqce_graph::Graph)> = match opts.scale {
        // Small enough that the per-batch full-recompute baseline stays
        // cheap even in debug builds (the smoke test runs this preset).
        SuiteScale::Small => vec![(
            "community-120",
            community_graph(
                CommunityGraphParams {
                    n: 120,
                    num_communities: 8,
                    p_intra: 0.9,
                    inter_degree: 1.5,
                },
                42,
            ),
        )],
        // Communities big enough (20 vertices) that the per-anchor
        // branch-and-bound work dominates the shared O(n + m) prepare
        // costs — but no bigger: at 25-vertex 0.9-dense communities the
        // maximal-family count explodes past the profile's time limit —
        // and inter-degree low enough that one edge's two-hop ball stays
        // inside a handful of communities, the workload shape incremental
        // maintenance is for.
        SuiteScale::Full => vec![
            (
                "community-400",
                community_graph(
                    CommunityGraphParams {
                        n: 400,
                        num_communities: 20,
                        p_intra: 0.9,
                        inter_degree: 0.5,
                    },
                    7,
                ),
            ),
            (
                "community-800",
                community_graph(
                    CommunityGraphParams {
                        n: 800,
                        num_communities: 40,
                        p_intra: 0.9,
                        inter_degree: 0.5,
                    },
                    7,
                ),
            ),
        ],
    };

    let mut records = Vec::new();
    println!("\n== Incremental updates: dirty-set re-runs vs full recompute ==");
    println!(
        "{:<16} {:>7} {:>7} {:>8} {:>7} {:>14} {:>14} {:>9}",
        "dataset", "churn%", "edges", "batches", "dirty", "incr (ms)", "full (ms)", "speedup"
    );
    for (name, graph) in &graphs {
        for churn in [0.1, 1.0, 5.0] {
            let config = MqceConfig::new(gamma, theta)
                .expect("benchmark parameters are valid")
                .with_time_limit(opts.time_limit);
            let total = ((graph.num_edges() as f64) * churn / 100.0)
                .round()
                .max(1.0) as usize;
            // The same deterministic LCG the stress families use: the
            // schedule must be reproducible across runs and machines.
            let mut x = (churn * 1000.0) as u64 ^ 0x9E3779B97F4A7C15;
            let mut next = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u32
            };

            let mut session = IncrementalSession::new(graph.clone(), config, 1);
            let mut current = graph.clone();
            let (mut incr_millis, mut full_millis) = (0.0f64, 0.0f64);
            let (mut applied, mut dirty) = (0u64, 0u64);
            let mut batches = 0u64;
            let mut remaining = total;
            while remaining > 0 {
                let batch = remaining.min(UPDATE_BATCH_EDGES);
                remaining -= batch;
                batches += 1;
                let n = current.num_vertices() as u32;
                let edges: Vec<(u32, u32)> = current.edges().collect();
                let mut inserts = Vec::new();
                let mut deletes = Vec::new();
                for _ in 0..batch {
                    if next() % 2 == 0 && !edges.is_empty() {
                        deletes.push(edges[next() as usize % edges.len()]);
                    } else {
                        loop {
                            let (u, v) = (next() % n, next() % n);
                            if u != v && !current.has_edge(u, v) {
                                inserts.push((u, v));
                                break;
                            }
                        }
                    }
                }
                let delta = GraphDelta::new(inserts, deletes);
                current = delta.apply(&current);

                let t = Instant::now();
                let outcome = session.update(&delta);
                incr_millis += t.elapsed().as_secs_f64() * 1e3;
                applied += outcome.updates_applied;
                dirty += outcome.dirty_subproblems;

                let t = Instant::now();
                let fresh = Session::open(current.clone()).config(config).run();
                full_millis += t.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    session.family(),
                    &fresh.mqcs[..],
                    "incremental family diverged from full recompute on {name} \
                     (churn {churn}%, batch {batches})"
                );
            }

            let mqcs = session.family().len();
            let (mqc_min, mqc_max) = (
                session.family().iter().map(Vec::len).min().unwrap_or(0),
                session.family().iter().map(Vec::len).max().unwrap_or(0),
            );
            let mqc_avg = if mqcs == 0 {
                0.0
            } else {
                session.family().iter().map(Vec::len).sum::<usize>() as f64 / mqcs as f64
            };
            println!(
                "{:<16} {:>7.1} {:>7} {:>8} {:>7} {:>14.1} {:>14.1} {:>8.1}x",
                name,
                churn,
                applied,
                batches,
                dirty,
                incr_millis,
                full_millis,
                full_millis.max(0.01) / incr_millis.max(0.01)
            );
            records.push(RunRecord {
                dataset: format!("{name}/churn-{churn}%"),
                algorithm: "IncrementalDC".to_string(),
                branching: format!("{:?}", config.branching),
                gamma,
                theta,
                max_round: 2,
                threads: 1,
                s2_backend: "parallel".to_string(),
                s2_timed_out: session.completeness().s2_timed_out,
                s1_millis: incr_millis,
                s1_outputs: mqcs,
                mqcs,
                mqc_min,
                mqc_max,
                mqc_avg,
                timed_out: session.completeness().timed_out(),
                updates_applied: applied,
                dirty_subproblems: dirty,
                full_recompute_millis: full_millis,
                ..RunRecord::default()
            });
        }
    }
    records
}

/// Generates a set family with the shape of an INF'd S1 run on a dense
/// community graph (the recorded 382k-set S2 wall): heavily overlapping
/// moderate-size subsets of one community's small element universe, with a
/// skewed element distribution and almost no dominated sets — the worst case
/// for the inverted-index probe, whose accepted lists all grow to a large
/// fraction of the family.
pub fn stress_family(n_sets: usize, universe: u32, seed: u64) -> Vec<Vec<u32>> {
    stress_family_with(n_sets, universe, 12, 25, seed)
}

/// [`stress_family`] with an explicit set-size range `len_lo..=len_hi`, for
/// the sparse control family of the stress profile.
pub fn stress_family_with(
    n_sets: usize,
    universe: u32,
    len_lo: usize,
    len_hi: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    assert!(len_lo <= len_hi && universe > 0);
    let span = (len_hi - len_lo + 1) as u32;
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    (0..n_sets)
        .map(|_| {
            // Clamped so the rejection sampling below can terminate on tiny
            // universes.
            let len = (len_lo + (next() % span) as usize).min(universe as usize);
            let mut s: Vec<u32> = Vec::with_capacity(len);
            while s.len() < len {
                // min-of-two-uniforms skews toward low element ids, like the
                // high-degree core of a community dominating the QC stream.
                let e = (next() % universe).min(next() % universe);
                if !s.contains(&e) {
                    s.push(e);
                }
            }
            s
        })
        .collect()
}

/// Compacts one family with [`compact_parallel`](mqce_settrie::compact_parallel)
/// on `workers` workers under a wall-clock budget and records the timing.
/// Returns the record plus the maximal family when the pass finished inside
/// the budget (`None` for a truncated, incomparable run).
fn measure_s2_pass(
    dataset: &str,
    family: &[Vec<u32>],
    workers: usize,
    time_limit: Duration,
) -> (RunRecord, Option<Vec<Vec<u32>>>) {
    let start = Instant::now();
    let outcome = mqce_settrie::compact_parallel(family, workers, Some(start + time_limit));
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let completeness = Completeness::new(&Default::default(), outcome.timed_out);
    let timed_out = completeness.timed_out();
    println!(
        "{:<26} {:>8} {:>12.1} {:>10} {:>8}",
        dataset,
        workers,
        millis,
        outcome.mqcs.len(),
        if timed_out { "INF" } else { "ok" }
    );
    let record = RunRecord {
        dataset: dataset.to_string(),
        algorithm: format!("S2/{}x{workers}", outcome.backend),
        branching: "-".to_string(),
        threads: workers,
        s2_backend: outcome.backend.to_string(),
        s2_timed_out: completeness.s2_timed_out,
        s2_millis: millis,
        s1_outputs: family.len(),
        mqcs: outcome.mqcs.len(),
        mqc_min: outcome.mqcs.iter().map(Vec::len).min().unwrap_or(0),
        mqc_max: outcome.mqcs.iter().map(Vec::len).max().unwrap_or(0),
        mqc_avg: if outcome.mqcs.is_empty() {
            0.0
        } else {
            outcome.mqcs.iter().map(Vec::len).sum::<usize>() as f64 / outcome.mqcs.len() as f64
        },
        timed_out,
        ..RunRecord::default()
    };
    (record, (!timed_out).then_some(outcome.mqcs))
}

/// **S2 stress profile** (`experiments s2-stress`): times the S2 pass,
/// [`compact_parallel`](mqce_settrie::compact_parallel), at one and two
/// workers on two large overlapping set families — the small-universe
/// heavy-overlap shape of the recorded 382k-set wall and a sparse
/// large-universe control — under a per-pass time budget.
///
/// Passes that finish must agree: with each other, and at the small preset
/// (the one the CI bench-smoke job runs) with the independent serial
/// [`filter_maximal`](mqce_settrie::filter_maximal). The full preset skips
/// that reference, which takes minutes on the 400k-set dense family. A
/// mismatch is a bug and panics.
pub fn s2_stress(opts: ExperimentOptions) -> Vec<RunRecord> {
    let (dense_sets, sparse_sets, sparse_universe) = match opts.scale {
        SuiteScale::Small => (20_000, 12_000, 4_000),
        // The recorded wall: 382k sets took 203 s through the inverted index.
        SuiteScale::Full => (400_000, 120_000, 30_000),
    };
    let families: Vec<(String, Vec<Vec<u32>>)> = vec![
        (
            format!("s2-stress-{}k-u140", dense_sets / 1000),
            stress_family(dense_sets, 140, 2024),
        ),
        (
            format!(
                "s2-stress-sparse-{}k-u{}k",
                sparse_sets / 1000,
                sparse_universe / 1000
            ),
            stress_family_with(sparse_sets, sparse_universe as u32, 8, 20, 4048),
        ),
    ];
    let mut records = Vec::new();
    for (dataset, family) in &families {
        println!(
            "\n== S2 stress: {} sets, universe {} ==",
            family.len(),
            family
                .iter()
                .flatten()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
        println!(
            "{:<26} {:>8} {:>12} {:>10} {:>8}",
            "dataset", "workers", "time (ms)", "#MQC", "status"
        );
        let mut finished = Vec::new();
        for workers in [1, 2] {
            let (record, family) = measure_s2_pass(dataset, family, workers, opts.time_limit);
            records.push(record);
            finished.extend(family.map(|f| (workers, f)));
        }
        if opts.scale == SuiteScale::Small {
            assert_eq!(
                finished.len(),
                2,
                "an S2 pass hit its budget on {dataset} at the small preset"
            );
            let start = Instant::now();
            let reference = mqce_settrie::filter_maximal(family);
            println!(
                "{:<26} {:>8} {:>12.1} {:>10} {:>8}",
                dataset,
                "ref",
                start.elapsed().as_secs_f64() * 1e3,
                reference.len(),
                "ok"
            );
            for (workers, mqcs) in &finished {
                assert!(
                    *mqcs == reference,
                    "S2 pass at {workers} workers disagrees with filter_maximal on {dataset}"
                );
            }
        } else if let [(_, one), (_, two)] = finished.as_slice() {
            assert!(
                one == two,
                "S2 pass at 1 and 2 workers disagree on {dataset}"
            );
        } else {
            println!("WARNING: an S2 pass hit its budget on {dataset}; agreement not checked");
        }
    }
    records
}

/// **Parallel-scaling sweep** (`experiments threads`): DCFastQC over the
/// dense-community workloads — including a *skewed* one (a giant planted
/// community plus a tail of tiny ones, the shape that starves
/// whole-subproblem handout) — with 1..N worker threads. Every point records
/// per-thread busy/steal/idle counters in the JSON rows, and the sweep
/// asserts that the N-worker maximal family equals the 1-worker one (the
/// CI bench-smoke job runs this at the small preset, so a
/// 1-worker vs N-worker disagreement fails the build). The retired
/// shared-index baseline's numbers are kept as a static table in the README.
pub fn thread_sweep(opts: ExperimentOptions) -> Vec<RunRecord> {
    use mqce_graph::generators::{
        community_graph, planted_quasi_cliques, CommunityGraphParams, PlantedGroup,
    };
    let community_250 = community_graph(
        CommunityGraphParams {
            n: 250,
            num_communities: 12,
            p_intra: 0.9,
            inter_degree: 2.0,
        },
        42,
    );
    let community_400 = community_graph(
        CommunityGraphParams {
            n: 400,
            num_communities: 20,
            p_intra: 0.92,
            inter_degree: 1.5,
        },
        7,
    );
    // The skewed family: one heavy community dominates the subproblem costs,
    // so whole-subproblem handout cannot balance it — only intra-subproblem
    // splitting keeps the other workers fed.
    let skewed = {
        let mut groups = vec![PlantedGroup {
            size: 32,
            density: 0.9,
        }];
        for _ in 0..14 {
            groups.push(PlantedGroup {
                size: 8,
                density: 1.0,
            });
        }
        planted_quasi_cliques(260, 0.01, &groups, 2026)
    };
    let workloads: Vec<(&'static str, &mqce_graph::Graph, f64, usize)> = vec![
        ("community-250", &community_250, 0.9, 8),
        ("community-400", &community_400, 0.9, 8),
        ("skewed-giant", &skewed, 0.85, 6),
    ];
    // Sweep at least up to 4 workers even when the OS reports fewer cores:
    // oversubscribed points still exercise the scheduler (and record the
    // per-thread counters); on multi-core machines they show real scaling.
    let max_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(4, 8);
    let thread_counts: Vec<usize> = (0..)
        .map(|i| 1usize << i)
        .take_while(|&t| t <= max_threads)
        .collect();
    let mut records = Vec::new();
    println!("\n== Parallel scaling: DCFastQC, 1..{max_threads} threads (work-stealing) ==");
    println!(
        "{:<16} {:<24} {:>8} {:>12} {:>10} {:>11} {:>8}",
        "dataset", "scheduler", "threads", "S1 time(ms)", "speedup", "efficiency", "#MQC"
    );
    for &(name, graph, gamma, theta) in &workloads {
        let mut t1_millis = None;
        for &threads in &thread_counts {
            let rec = measure_threads(
                name,
                graph,
                AlgoSpec::dcfastqc(),
                gamma,
                theta,
                opts.time_limit,
                threads,
            );
            let t1 = *t1_millis.get_or_insert(rec.s1_millis);
            let speedup = t1 / rec.s1_millis.max(0.01);
            println!(
                "{:<16} {:<24} {:>8} {:>12.1} {:>9.2}x {:>10.2}% {:>8}",
                name,
                "work-stealing",
                threads,
                rec.s1_millis,
                speedup,
                100.0 * speedup / threads as f64,
                rec.mqcs
            );
            // Per-thread efficiency rows: how each worker's wall-clock split
            // between executing tasks and hunting for them, and how much it
            // stole / ran from stolen splits.
            for t in &rec.thread_stats {
                println!(
                    "{:<16} {:<24} {:>8} busy={:<9.1} idle={:<9.1} ({:>3.0}% busy) subproblems={:<5} splits={:<5} steals={}",
                    "", "", format!("t{}", t.thread),
                    t.busy_millis,
                    t.idle_millis,
                    100.0 * t.busy_fraction(),
                    t.subproblems,
                    t.splits,
                    t.steals
                );
            }
            records.push(rec);
        }
    }
    // The MQC family must be thread-count-invariant; compare
    // the actual families (not just counts) at the largest thread count so
    // the CI smoke run fails loudly on any 1-worker vs N-worker drift.
    for &(name, graph, gamma, theta) in &workloads {
        let counts: Vec<usize> = records
            .iter()
            .filter(|r| r.dataset == name && !r.timed_out)
            .map(|r| r.mqcs)
            .collect();
        for pair in counts.windows(2) {
            assert_eq!(pair[0], pair[1], "thread sweep MQC mismatch on {name}");
        }
        let config = mqce_core::MqceConfig::new(gamma, theta)
            .expect("benchmark parameters are valid")
            .with_time_limit(opts.time_limit);
        let session = mqce_core::Session::open(graph.clone()).config(config);
        let one = session.run();
        let parallel = session.threads(max_threads).run();
        if !one.timed_out() && !parallel.timed_out() {
            assert_eq!(
                parallel.mqcs, one.mqcs,
                "{max_threads}-worker MQC family differs from 1-worker on {name}"
            );
        }
    }
    records
}

fn print_speedups(records: &[RunRecord], baseline: &str, ours: &str) {
    println!("\nspeedup of {ours} over {baseline}:");
    let mut datasets_seen: Vec<&str> = Vec::new();
    for r in records {
        if !datasets_seen.contains(&r.dataset.as_str()) {
            datasets_seen.push(&r.dataset);
        }
    }
    for d in datasets_seen {
        let base = records
            .iter()
            .find(|r| r.dataset == d && r.algorithm == baseline);
        let our = records
            .iter()
            .find(|r| r.dataset == d && r.algorithm == ours);
        if let (Some(b), Some(o)) = (base, our) {
            if b.timed_out {
                println!(
                    "  {d}: > {:.1}x (baseline hit the time limit)",
                    b.s1_millis.max(1.0) / o.s1_millis.max(0.01)
                );
            } else {
                println!(
                    "  {d}: {:.1}x",
                    b.s1_millis.max(0.01) / o.s1_millis.max(0.01)
                );
            }
        }
    }
}

/// Runs every experiment in sequence (the `all` subcommand).
pub fn run_all(opts: ExperimentOptions) -> Vec<RunRecord> {
    let mut all = Vec::new();
    all.extend(table1(opts));
    all.extend(fig7(opts));
    all.extend(fig8(opts));
    all.extend(fig9(opts));
    all.extend(fig10a(opts));
    all.extend(fig10b(opts));
    all.extend(fig11(opts));
    all.extend(fig12(opts));
    all.extend(maxround(opts));
    all.extend(shrink(opts));
    all.extend(s2_cost(opts));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole experiment path works end to end at quick scale; the
    /// comparative *shape* of the headline result (DCFastQC beats Quick+ in
    /// branch count on datasets with dense structure) holds.
    #[test]
    fn fig7_quick_scale_shape() {
        let records = fig7(ExperimentOptions::quick());
        assert!(!records.is_empty());
        // Same MQC count for both algorithms on every dataset they both
        // finished.
        let datasets: Vec<String> = records.iter().map(|r| r.dataset.clone()).collect();
        for d in datasets {
            let rs: Vec<&RunRecord> = records.iter().filter(|r| r.dataset == d).collect();
            if rs.len() == 2 && !rs[0].timed_out && !rs[1].timed_out {
                assert_eq!(rs[0].mqcs, rs[1].mqcs, "MQC count mismatch on {d}");
            }
        }
    }

    #[test]
    fn updates_profile_records_churn_rows() {
        // The profile's own per-batch assert is the differential check; the
        // test verifies the record shape and that the counters moved.
        let records = updates(ExperimentOptions::quick());
        assert_eq!(records.len(), 3); // one community graph × three churn levels
        for r in &records {
            assert_eq!(r.algorithm, "IncrementalDC");
            assert!(r.dataset.contains("churn"));
            assert!(r.updates_applied > 0);
            assert!(r.full_recompute_millis > 0.0);
            assert!(r.s1_millis > 0.0);
        }
        // Heavier churn applies more edges.
        assert!(records[2].updates_applied > records[0].updates_applied);
    }

    #[test]
    fn stress_family_is_deterministic_and_overlapping() {
        let a = stress_family(500, 140, 9);
        let b = stress_family(500, 140, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        for set in &a {
            assert!((12..=25).contains(&set.len()));
            assert!(set.iter().all(|&e| e < 140));
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), set.len(), "duplicate elements in {set:?}");
        }
        // Different seeds give different families.
        assert_ne!(a, stress_family(500, 140, 10));
    }

    #[test]
    fn stress_family_backends_agree_with_reference() {
        use mqce_settrie::{compact_parallel, filter_maximal, S2Backend};
        let family = stress_family(3000, 100, 5);
        let reference = filter_maximal(&family);
        // Almost nothing dominated: that is what makes the shape a stress.
        assert!(reference.len() > family.len() / 2);
        for workers in [1, 2] {
            assert_eq!(
                compact_parallel(&family, workers, None).mqcs,
                reference,
                "the pass at {workers} workers disagrees on the stress family"
            );
        }
        // The benchmark harness's backend buffers run the same pass.
        for backend in S2Backend::concrete() {
            let mut buffer = backend.new_engine();
            for set in &family {
                buffer.add(set);
            }
            assert_eq!(
                buffer.finish_with_deadline(None).mqcs,
                reference,
                "{} disagrees on the stress family",
                backend.name()
            );
        }
    }

    #[test]
    fn gamma_and_theta_sweeps_are_sane() {
        assert!(gamma_sweep(0.9).contains(&0.9));
        assert!(gamma_sweep(0.96).contains(&0.96));
        assert!(gamma_sweep(0.51).len() >= 5);
        let t = theta_sweep(8);
        assert_eq!(t.len(), 5);
        assert!(t.contains(&8));
        assert!(theta_sweep(3)[0] >= 3);
    }
}
