//! End-to-end tests of the `mqce serve` daemon: concurrent requests match
//! the single-process pipeline, repeated requests hit the result cache (and
//! are an order of magnitude faster than the cold run), spent deadlines
//! return promptly flagged best-effort, and the CLI `serve`/`client`
//! sub-commands drive the whole loop over a Unix socket.
//!
//! The fault-containment half: injected panics (request-handler, lock-held,
//! and in-worker via `--fault-injection`) leave the daemon serving with
//! intact cache accounting, oversized request lines are rejected without
//! harm, a seeded protocol-line fuzzer cannot kill the daemon, and a
//! SIGKILLed `--wal` daemon restarts to the exact pre-crash fingerprint and
//! family.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use mqce_cli::protocol::{Request, Response};
use mqce_cli::serve::{serve_tcp, ServeSettings, ServeSummary};
use mqce_core::{find_mqcs_containing, MqceConfig, Session};
use mqce_graph::generators::{community_graph, CommunityGraphParams};
use mqce_graph::Graph;

/// Community graphs with ~10-vertex dense communities: large enough that a
/// cold enumeration does real work, small enough per community that the
/// maximal-QC family stays bounded (larger dense-but-incomplete communities
/// make the family explode combinatorially, which would swamp a debug-mode
/// test run).
fn test_graph(n: usize, seed: u64) -> Graph {
    community_graph(
        CommunityGraphParams {
            n,
            num_communities: (n / 10).max(2),
            p_intra: 0.9,
            inter_degree: 1.0,
        },
        seed,
    )
}

fn start_daemon(
    graph: Graph,
    settings: ServeSettings,
) -> (SocketAddr, thread::JoinHandle<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let handle = thread::spawn(move || serve_tcp(listener, graph, settings));
    (addr, handle)
}

/// One request/response exchange on its own connection.
fn roundtrip(addr: SocketAddr, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .expect("send request");
    writer.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    Response::parse_line(line.trim_end()).expect("parse response")
}

fn shutdown(addr: SocketAddr) {
    let request = Request {
        cmd: "shutdown".to_string(),
        ..Request::default()
    };
    assert!(roundtrip(addr, &request).ok);
}

#[test]
fn concurrent_requests_match_the_single_process_pipeline() {
    let graph = test_graph(500, 42);
    let config_a = MqceConfig::new(0.9, 4).unwrap();
    let config_b = MqceConfig::new(0.85, 5).unwrap();
    let expected_a = Session::open(graph.clone()).config(config_a).run().mqcs;
    let expected_b = Session::open(graph.clone()).config(config_b).run().mqcs;
    let expected_q = find_mqcs_containing(&graph, &[0, 1], &config_a)
        .expect("query succeeds")
        .mqcs;

    let (addr, handle) = start_daemon(graph, ServeSettings::default());

    let request_a = Request {
        gamma: 0.9,
        theta: 4,
        sets: true,
        ..Request::default()
    };
    let request_b = Request {
        gamma: 0.85,
        theta: 5,
        sets: true,
        ..Request::default()
    };
    let request_q = Request {
        cmd: "query".to_string(),
        gamma: 0.9,
        theta: 4,
        vertices: vec![0, 1],
        sets: true,
        ..Request::default()
    };

    // Mixed identical and distinct requests, each on its own connection,
    // all in flight at once (admission control queues the excess).
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for i in 0..9 {
            let (request, expected) = match i % 3 {
                0 => (&request_a, &expected_a),
                1 => (&request_b, &expected_b),
                _ => (&request_q, &expected_q),
            };
            workers.push(scope.spawn(move || {
                let response = roundtrip(addr, request);
                assert!(response.ok, "error: {:?}", response.error);
                assert!(!response.best_effort);
                assert_eq!(response.count, expected.len());
                assert_eq!(response.mqcs.as_ref(), Some(expected));
            }));
        }
        for worker in workers {
            worker.join().expect("worker panicked");
        }
    });

    // A repeat of an already-answered request is served from the cache, and
    // the count-only variant reuses the same entry (presentation knobs are
    // not part of the cache key).
    let repeat = roundtrip(addr, &request_a);
    assert!(
        repeat.cached,
        "second identical request must be a cache hit"
    );
    assert_eq!(repeat.mqcs.as_ref(), Some(&expected_a));
    let count_only = Request {
        sets: false,
        ..request_a.clone()
    };
    let counted = roundtrip(addr, &count_only);
    assert!(counted.cached);
    assert_eq!(counted.count, expected_a.len());
    assert!(counted.mqcs.is_none());

    // Ping reports the running totals.
    let ping = roundtrip(
        addr,
        &Request {
            cmd: "ping".to_string(),
            ..Request::default()
        },
    );
    assert!(ping.ok);
    assert!(ping.extra_str("fingerprint").is_some());
    assert!(ping.extra_num("cache_hits").unwrap_or(0.0) >= 2.0);

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert!(summary.requests >= 13);
    assert!(summary.cache_hits >= 2);
    assert_eq!(summary.errors, 0);
}

#[test]
fn cache_hits_are_an_order_of_magnitude_faster_than_cold_runs() {
    // Big enough that a cold enumeration takes real time; the warm answer is
    // a hash lookup and must be at least 10x faster.
    let graph = test_graph(800, 7);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let request = Request {
        gamma: 0.9,
        theta: 4,
        ..Request::default()
    };
    let cold = roundtrip(addr, &request);
    assert!(cold.ok && !cold.cached);
    let warm = roundtrip(addr, &request);
    assert!(warm.ok && warm.cached);
    assert_eq!(warm.count, cold.count);
    assert!(
        warm.elapsed_ms * 10.0 <= cold.elapsed_ms,
        "cache hit not 10x faster: cold={}ms warm={}ms",
        cold.elapsed_ms,
        warm.elapsed_ms
    );
    shutdown(addr);
    handle.join().expect("daemon thread");
}

#[test]
fn spent_deadlines_return_promptly_and_are_flagged_best_effort() {
    let graph = test_graph(800, 11);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let enumerate = Request {
        gamma: 0.9,
        theta: 4,
        deadline_ms: Some(1),
        no_cache: true,
        ..Request::default()
    };
    // A query's search is small enough to finish inside 1 ms, and an answer
    // that finishes inside its budget is exact; a zero budget is spent on
    // arrival. Its θ is below the enumerate's, so the θ=4 family the
    // enumerate's fresh run caches cannot answer it.
    let query = Request {
        cmd: "query".to_string(),
        theta: 3,
        vertices: vec![0],
        deadline_ms: Some(0),
        ..enumerate.clone()
    };
    for request in [enumerate, query] {
        let start = Instant::now();
        let response = roundtrip(addr, &request);
        let elapsed = start.elapsed();
        assert!(response.ok, "{}: error: {:?}", request.cmd, response.error);
        assert!(
            response.best_effort,
            "a spent-deadline {} answer must be flagged best-effort",
            request.cmd
        );
        // Prompt: well under the cold enumeration time (bounded by the S2
        // grace slice plus scheduling noise, not by the size of the search).
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");

        // Best-effort answers must not poison the cache.
        let fresh = roundtrip(
            addr,
            &Request {
                deadline_ms: None,
                no_cache: false,
                ..request.clone()
            },
        );
        assert!(fresh.ok && !fresh.cached && !fresh.best_effort);
    }
    shutdown(addr);
    handle.join().expect("daemon thread");
}

#[test]
fn spent_topk_deadlines_are_flagged_best_effort_and_not_cached() {
    let graph = test_graph(800, 11);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let request = Request {
        cmd: "topk".to_string(),
        gamma: 0.9,
        k: 5,
        // Zero, not 1 ms: an optimised build can finish the search inside
        // 1 ms, and an answer that finishes inside its budget is exact.
        deadline_ms: Some(0),
        ..Request::default()
    };
    let response = roundtrip(addr, &request);
    assert!(response.ok, "error: {:?}", response.error);
    assert!(
        response.best_effort,
        "a zero-budget top-k answer must be flagged best-effort"
    );
    let fresh = roundtrip(
        addr,
        &Request {
            deadline_ms: None,
            ..request.clone()
        },
    );
    assert!(fresh.ok && !fresh.best_effort);
    assert!(!fresh.cached, "a partial top-k answer was cached");
    shutdown(addr);
    handle.join().expect("daemon thread");
}

#[test]
fn updates_rekey_the_cache_and_match_a_fresh_run() {
    use mqce_graph::{dirty_two_hop_closure, GraphDelta, SubproblemScratch};

    let graph = test_graph(300, 9);
    let config = MqceConfig::new(0.9, 4).unwrap();

    // Build the batch locally first: delete one edge and insert one non-edge
    // in the high-vertex region, then compute the dirty two-hop closure so
    // the test can pick a provably unaffected query vertex.
    let deleted = graph
        .edges()
        .find(|&(u, _)| u >= 250)
        .expect("the community graph has edges among high vertices");
    let inserted = (250..300u32)
        .flat_map(|u| (250..300u32).map(move |v| (u, v)))
        .find(|&(u, v)| u < v && !graph.has_edge(u, v))
        .expect("some high-vertex non-edge exists");
    let delta = GraphDelta::new(vec![inserted], vec![deleted]);
    let mutated = delta.apply(&graph);
    let mut scratch = SubproblemScratch::new();
    let dirty = dirty_two_hop_closure(&graph, &mutated, &delta, &mut scratch);
    let clean_v = (0..graph.num_vertices() as u32)
        .find(|v| dirty.binary_search(v).is_err())
        .expect("some vertex is outside the dirty closure");
    let dirty_v = *dirty.first().expect("the closure is non-empty");

    let expected_clean = find_mqcs_containing(&graph, &[clean_v], &config)
        .expect("query succeeds")
        .mqcs;
    let expected_after = Session::open(mutated.clone()).config(config).run().mqcs;

    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let query = |v: u32| Request {
        cmd: "query".to_string(),
        gamma: 0.9,
        theta: 4,
        vertices: vec![v],
        sets: true,
        ..Request::default()
    };

    // Warm the cache: one query far from the update, one inside its closure.
    let cold_clean = roundtrip(addr, &query(clean_v));
    assert!(cold_clean.ok && !cold_clean.cached);
    assert_eq!(cold_clean.mqcs.as_ref(), Some(&expected_clean));
    let cold_dirty = roundtrip(addr, &query(dirty_v));
    assert!(cold_dirty.ok && !cold_dirty.cached);

    // Apply the update.
    let update = roundtrip(
        addr,
        &Request {
            cmd: "update".to_string(),
            insert: vec![inserted],
            delete: vec![deleted],
            ..Request::default()
        },
    );
    assert!(update.ok, "update failed: {:?}", update.error);
    let new_fp = format!("{:016x}", mutated.fingerprint());
    assert_eq!(update.extra_str("fingerprint"), Some(new_fp.as_str()));
    assert_ne!(
        update.extra_str("fingerprint"),
        update.extra_str("previous_fingerprint"),
        "the fingerprint must change with the graph"
    );
    assert_eq!(update.extra_num("updates_applied"), Some(2.0));
    assert_eq!(update.extra_num("dirty"), Some(dirty.len() as f64));
    assert!(update.extra_num("cache_invalidated").unwrap_or(0.0) >= 1.0);
    assert!(update.extra_num("cache_kept").unwrap_or(0.0) >= 1.0);

    // The unaffected query survived the re-key: same answer, still cached.
    let warm_clean = roundtrip(addr, &query(clean_v));
    assert!(
        warm_clean.cached,
        "a query outside the dirty closure must stay cached across the update"
    );
    assert_eq!(warm_clean.mqcs.as_ref(), Some(&expected_clean));

    // The query inside the closure was invalidated and recomputes against
    // the mutated graph.
    let recomputed = roundtrip(addr, &query(dirty_v));
    assert!(recomputed.ok && !recomputed.cached);
    let expected_dirty = find_mqcs_containing(&mutated, &[dirty_v], &config)
        .expect("query succeeds")
        .mqcs;
    assert_eq!(recomputed.mqcs.as_ref(), Some(&expected_dirty));

    // A full enumeration now equals a fresh run on the mutated graph.
    let after = roundtrip(
        addr,
        &Request {
            gamma: 0.9,
            theta: 4,
            sets: true,
            ..Request::default()
        },
    );
    assert!(after.ok && !after.cached);
    assert_eq!(after.mqcs.as_ref(), Some(&expected_after));

    // Ping reports the new fingerprint and the cache counters moved.
    let ping = roundtrip(
        addr,
        &Request {
            cmd: "ping".to_string(),
            ..Request::default()
        },
    );
    assert_eq!(ping.extra_str("fingerprint"), Some(new_fp.as_str()));
    assert!(ping.extra_num("cache_evictions").unwrap_or(0.0) >= 1.0);
    assert!(ping.extra_num("cache_misses").unwrap_or(0.0) >= 3.0);

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.errors, 0);
    assert!(summary.cache_hits >= 1);
    assert!(summary.cache_misses >= 3);
    assert!(summary.cache_evictions >= 1);
    assert!(summary.cache_len >= 1);
}

/// An update carries the cached enumerations of a DC algorithm across: four
/// keys, no one of which answers another (each has its own γ), stay cached
/// through a delete and then an insert, each equal to an uncached enumerate
/// on the same snapshot, while a `topk` answer, a `query` inside the dirty
/// closure and a whole-graph `fastqc` enumerate are still evicted. The
/// query's θ is below the DC enumerate's at its γ, so no DC family answers
/// it.
#[test]
fn updates_advance_cached_enumerations() {
    let graph = test_graph(300, 9);
    let keys = [(0.8, 10), (0.85, 8), (0.9, 10), (0.95, 8)];
    // Delete an edge inside a maximal set, then insert a non-edge two hops
    // away from one of its endpoints.
    let config = MqceConfig::new(0.85, 8).unwrap();
    let family = Session::open(graph.clone()).config(config).run().mqcs;
    let (u, v) = family
        .iter()
        .find_map(|set| {
            let u = set[0];
            set[1..]
                .iter()
                .find(|&&v| graph.has_edge(u, v))
                .map(|&v| (u, v))
        })
        .expect("a maximal set holds an edge");
    let w = graph
        .neighbors(v)
        .iter()
        .flat_map(|&x| graph.neighbors(x).iter().copied())
        .find(|&w| w != u && !graph.has_edge(u, w))
        .expect("a non-neighbour of u within two hops");
    let deltas = [
        (Vec::new(), vec![(u, v)]),
        (vec![(u.min(w), u.max(w))], Vec::new()),
    ];

    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let enumerate = |gamma: f64, theta: usize| Request {
        gamma,
        theta,
        sets: true,
        ..Request::default()
    };
    let evicted = [
        Request {
            cmd: "topk".to_string(),
            gamma: 0.9,
            k: 3,
            ..Request::default()
        },
        Request {
            cmd: "query".to_string(),
            gamma: 0.9,
            theta: 8,
            vertices: vec![u],
            ..Request::default()
        },
        Request {
            algorithm: Some("fastqc".to_string()),
            ..enumerate(0.9, 8)
        },
    ];
    let mut carried_sets = 0;
    for (step, (insert, delete)) in deltas.into_iter().enumerate() {
        // Warm every entry; after the first update the enumerations are
        // already cached.
        for &(gamma, theta) in &keys {
            let warm = roundtrip(addr, &enumerate(gamma, theta));
            assert!(warm.ok && warm.cached == (step > 0), "step {step}");
        }
        for request in &evicted {
            assert!(roundtrip(addr, request).ok, "step {step}: {}", request.cmd);
        }
        let update = roundtrip(
            addr,
            &Request {
                cmd: "update".to_string(),
                insert,
                delete,
                ..Request::default()
            },
        );
        assert!(update.ok, "step {step}: update failed: {:?}", update.error);
        assert_eq!(update.extra_num("cache_advanced"), Some(keys.len() as f64));
        assert!(update.extra_num("cache_invalidated").unwrap_or(0.0) >= 3.0);

        for &(gamma, theta) in &keys {
            let carried = roundtrip(addr, &enumerate(gamma, theta));
            assert!(
                carried.ok && carried.cached,
                "step {step}: γ={gamma} θ={theta}"
            );
            let fresh = roundtrip(
                addr,
                &Request {
                    no_cache: true,
                    ..enumerate(gamma, theta)
                },
            );
            assert!(fresh.ok && !fresh.cached && !fresh.best_effort);
            assert_eq!(
                carried.mqcs, fresh.mqcs,
                "step {step}: γ={gamma} θ={theta}: carried family != fresh run"
            );
            carried_sets += carried.count;
        }
        for request in &evicted {
            let after = roundtrip(addr, request);
            assert!(
                after.ok && !after.cached,
                "step {step}: a {} entry survived the update",
                request.cmd
            );
        }
    }
    assert!(carried_sets > 0, "the carried families are all empty");

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.errors, 0);
}

fn ping(addr: SocketAddr) -> Response {
    roundtrip(
        addr,
        &Request {
            cmd: "ping".to_string(),
            ..Request::default()
        },
    )
}

/// A cached exact θ=8 family answers every θ ≥ 8 `enumerate` of its
/// algorithm and every θ ≥ 8 `query` at its γ: the answers come back
/// `cached` and equal their uncached runs. A θ=10 entry is dropped once the
/// θ=8 family is cached, an invalid query still errors, and an update
/// advances one family per γ.
#[test]
fn cached_families_answer_every_larger_theta_and_query() {
    let graph = test_graph(300, 9);
    let gammas = [0.85, 0.9];
    let family = Session::open(graph.clone())
        .config(MqceConfig::new(0.9, 8).unwrap())
        .run()
        .mqcs;
    // Two adjacent members of a maximal set of 9 or more vertices.
    let pair = family
        .iter()
        .filter(|set| set.len() >= 9)
        .find_map(|set| {
            let u = set[0];
            set[1..]
                .iter()
                .find(|&&v| graph.has_edge(u, v))
                .map(|&v| vec![u, v])
        })
        .expect("a maximal set of 9 or more vertices holds an edge");
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let enumerate = |gamma: f64, theta: usize| Request {
        gamma,
        theta,
        sets: true,
        ..Request::default()
    };
    let query = |theta: usize, vertices: &[u32]| Request {
        cmd: "query".to_string(),
        gamma: 0.9,
        theta,
        vertices: vertices.to_vec(),
        sets: true,
        ..Request::default()
    };
    let uncached = |request: &Request| {
        let fresh = roundtrip(
            addr,
            &Request {
                no_cache: true,
                ..request.clone()
            },
        );
        assert!(fresh.ok && !fresh.cached && !fresh.best_effort);
        fresh
    };

    // A θ=10 family is cached, then dropped once the θ=8 family it is a
    // filter of is cached.
    assert!(!roundtrip(addr, &enumerate(0.9, 10)).cached);
    assert_eq!(ping(addr).extra_num("cache_len"), Some(1.0));
    for gamma in gammas {
        let cold = roundtrip(addr, &enumerate(gamma, 8));
        assert!(cold.ok && !cold.cached, "γ={gamma}");
    }
    assert_eq!(ping(addr).extra_num("cache_len"), Some(2.0));

    let derived = [
        enumerate(0.85, 10),
        enumerate(0.9, 10),
        query(8, &pair[..1]),
        query(9, &pair),
    ];
    let answer_sets = |requests: &[Request]| {
        let mut sets = 0;
        for request in requests {
            let answer = roundtrip(addr, request);
            assert!(
                answer.ok && answer.cached && !answer.best_effort,
                "{} θ={} {:?}",
                request.cmd,
                request.theta,
                request.vertices
            );
            assert!(answer.extra.is_empty(), "a derived answer has no extras");
            let fresh = uncached(request);
            assert_eq!(answer.count, fresh.count);
            assert_eq!(
                answer.mqcs, fresh.mqcs,
                "{} θ={} {:?}: derived != uncached",
                request.cmd, request.theta, request.vertices
            );
            sets += answer.count;
        }
        sets
    };
    assert!(answer_sets(&derived) > 0, "every derived answer is empty");
    let counters = ping(addr);
    assert_eq!(counters.extra_num("cache_derived"), Some(4.0));
    assert_eq!(counters.extra_num("cache_len"), Some(2.0));

    // Invalid queries get the errors a fresh search gives.
    for (vertices, error) in [
        (vec![pair[0], pair[0]], "appears twice"),
        (vec![100_000], "not in the graph"),
    ] {
        let refused = roundtrip(addr, &query(8, &vertices));
        assert!(!refused.ok, "{vertices:?}");
        assert!(
            refused.error.as_deref().is_some_and(|e| e.contains(error)),
            "{vertices:?}: {:?}",
            refused.error
        );
    }

    // An update advances the one family per γ, which answers as before.
    let update = roundtrip(
        addr,
        &Request {
            cmd: "update".to_string(),
            delete: vec![(pair[0], pair[1])],
            ..Request::default()
        },
    );
    assert!(update.ok, "update failed: {:?}", update.error);
    assert_eq!(
        update.extra_num("cache_advanced"),
        Some(gammas.len() as f64)
    );
    answer_sets(&derived);

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.errors, 2, "exactly the two invalid queries");
    assert_eq!(summary.cache_derived, 8);
}

/// A batch that changes no edge (deleting a non-edge) keeps every cache
/// entry, advances none and reports the unchanged fingerprint twice.
#[test]
fn an_update_that_changes_no_edge_keeps_every_entry() {
    let graph = test_graph(300, 9);
    let (u, v) = (0..300u32)
        .flat_map(|u| (u + 1..300).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.has_edge(u, v))
        .expect("some non-edge exists");
    let fingerprint = format!("{:016x}", graph.fingerprint());
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let requests = [
        Request {
            gamma: 0.9,
            theta: 8,
            ..Request::default()
        },
        Request {
            cmd: "query".to_string(),
            gamma: 0.85,
            theta: 4,
            vertices: vec![u],
            ..Request::default()
        },
        Request {
            cmd: "topk".to_string(),
            gamma: 0.9,
            k: 3,
            ..Request::default()
        },
    ];
    let warm: Vec<Response> = requests.iter().map(|r| roundtrip(addr, r)).collect();
    assert!(warm.iter().all(|r| r.ok && !r.cached));

    let update = roundtrip(
        addr,
        &Request {
            cmd: "update".to_string(),
            delete: vec![(u, v)],
            ..Request::default()
        },
    );
    assert!(update.ok, "update failed: {:?}", update.error);
    assert_eq!(update.extra_str("fingerprint"), Some(fingerprint.as_str()));
    assert_eq!(
        update.extra_str("previous_fingerprint"),
        Some(fingerprint.as_str())
    );
    assert_eq!(update.extra_num("dirty"), Some(0.0));
    assert_eq!(update.extra_num("cache_advanced"), Some(0.0));
    assert_eq!(update.extra_num("cache_invalidated"), Some(0.0));
    assert_eq!(update.extra_num("cache_kept"), Some(requests.len() as f64));
    for (request, before) in requests.iter().zip(&warm) {
        let after = roundtrip(addr, request);
        assert!(after.ok && after.cached, "{} lost its entry", request.cmd);
        assert_eq!(after.count, before.count, "{}", request.cmd);
    }

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.cache_evictions, 0);
}

#[test]
fn malformed_and_invalid_requests_get_error_responses() {
    let graph = test_graph(500, 5);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());

    // Malformed JSON and bad parameters produce ok=false without killing
    // the connection or the daemon.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for (line, expect_ok) in [
        ("this is not json", false),
        (r#"{"cmd":"enumerate","gamma":0.2}"#, false), // gamma < 0.5
        (r#"{"cmd":"query","gamma":0.9}"#, false),     // no vertices
        (r#"{"cmd":"enumerate","gamma":0.9,"theta":4}"#, true),
    ] {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let response = Response::parse_line(response.trim_end()).unwrap();
        assert_eq!(response.ok, expect_ok, "line: {line}");
        if !expect_ok {
            assert!(response.error.is_some());
        }
    }

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.errors, 3);
}

/// An `update` naming a vertex its batch cannot grow the graph to is refused
/// before it reaches the WAL: the log, the fingerprint and the vertex count
/// stay put and the daemon keeps answering. A delete endpoint beyond the
/// graph is a no-op, not a growth.
#[test]
fn out_of_range_updates_are_refused_before_the_wal() {
    use std::sync::{Arc, Mutex};

    let dir = std::env::temp_dir().join(format!("mqce_update_range_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("updates.wal");
    let _ = std::fs::remove_file(&wal_path);
    let (wal, replayed) = mqce_graph::WriteAheadLog::open(&wal_path).unwrap();
    assert!(replayed.is_empty());
    let settings = ServeSettings {
        wal: Some(Arc::new(Mutex::new(wal))),
        ..ServeSettings::default()
    };
    let graph = test_graph(60, 26);
    let n = graph.num_vertices() as f64;
    let (addr, handle) = start_daemon(graph, settings);
    let ping = Request {
        cmd: "ping".to_string(),
        ..Request::default()
    };
    let state = || {
        let pong = roundtrip(addr, &ping);
        assert!(pong.ok, "ping failed: {:?}", pong.error);
        (
            pong.extra_str("fingerprint").unwrap().to_string(),
            std::fs::metadata(&wal_path).unwrap().len(),
        )
    };
    let update = |insert: Vec<(u32, u32)>, delete: Vec<(u32, u32)>| {
        roundtrip(
            addr,
            &Request {
                cmd: "update".to_string(),
                insert,
                delete,
                ..Request::default()
            },
        )
    };

    let before = state();
    // One insert may name ids up to n + 1; 100,000 is far past that.
    let refused = update(vec![(0, 100_000)], vec![]);
    assert!(!refused.ok);
    assert!(
        refused.error.as_deref().unwrap().contains("out of range"),
        "{:?}",
        refused.error
    );
    assert_eq!(
        state(),
        before,
        "a refused update must not touch the graph or the WAL"
    );

    // A delete naming an absent vertex is logged and applied as a no-op.
    let noop = update(vec![], vec![(0, 100_000)]);
    assert!(noop.ok, "error: {:?}", noop.error);
    assert_eq!(noop.extra_num("vertices"), Some(n));
    assert_eq!(state().0, before.0);

    shutdown(addr);
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_faults_are_contained_and_the_daemon_keeps_serving() {
    let graph = test_graph(60, 21);
    let expected = Session::open(graph.clone())
        .config(MqceConfig::new(0.9, 4).unwrap())
        .run()
        .mqcs;
    let (addr, handle) = start_daemon(
        graph,
        ServeSettings {
            fault_injection: true,
            ..ServeSettings::default()
        },
    );
    let enumerate = Request {
        gamma: 0.9,
        theta: 4,
        sets: true,
        ..Request::default()
    };

    // Warm the cache so the post-fault accounting has something to protect.
    let cold = roundtrip(addr, &enumerate);
    assert!(cold.ok && !cold.cached);
    assert_eq!(cold.mqcs.as_ref(), Some(&expected));

    // A handler panic becomes a typed internal-error response on the same
    // connection; the daemon keeps serving.
    for mode in ["panic", "panic-locked"] {
        let fault = Request {
            fault: Some(mode.to_string()),
            ..enumerate.clone()
        };
        let response = roundtrip(addr, &fault);
        assert!(!response.ok, "fault {mode} must produce an error response");
        assert_eq!(response.extra_str("error_kind"), Some("internal"));
        assert!(
            response
                .error
                .as_deref()
                .is_some_and(|e| e.contains("panicked")),
            "error should say the handler panicked: {:?}",
            response.error
        );
    }

    // `panic-locked` poisoned the cache mutex while holding it; recovery
    // clears the cache (never serves a possibly-torn entry), so the warmed
    // entry is gone — but the daemon answers correctly and re-caches.
    let after = roundtrip(addr, &enumerate);
    assert!(after.ok, "error: {:?}", after.error);
    assert!(
        !after.cached,
        "the poisoned cache must have been cleared, not served"
    );
    assert_eq!(after.mqcs.as_ref(), Some(&expected));
    let warm = roundtrip(addr, &enumerate);
    assert!(
        warm.ok && warm.cached,
        "the recovered cache must fill again"
    );

    // An in-worker panic (inside the DC search) is contained per-subproblem:
    // the response succeeds, is flagged best-effort, and reports the anchor.
    // Not every vertex anchors an executing subproblem, so probe until one
    // panics.
    let mut contained = None;
    for v in 0..60u32 {
        let fault = Request {
            fault: Some(format!("panic-worker:{v}")),
            ..enumerate.clone()
        };
        let response = roundtrip(addr, &fault);
        assert!(
            response.ok,
            "worker fault must not fail: {:?}",
            response.error
        );
        assert!(
            !response.cached,
            "fault requests must bypass the cache entirely"
        );
        if response.extra_num("contained_panics").unwrap_or(0.0) >= 1.0 {
            assert!(response.best_effort, "a lossy answer must be best-effort");
            assert_eq!(response.extra_num("panicked_anchor"), Some(v as f64));
            contained = Some(response);
            break;
        }
    }
    let contained = contained.expect("some vertex anchors an executing subproblem");
    // The surviving family is a subset of the true one.
    for set in contained.mqcs.as_deref().unwrap_or(&[]) {
        assert!(expected.contains(set), "torn output {set:?}");
    }

    // Cache accounting survived all of it: the cached entry still answers.
    let still_warm = roundtrip(addr, &enumerate);
    assert!(still_warm.ok && still_warm.cached);
    assert_eq!(still_warm.mqcs.as_ref(), Some(&expected));

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.errors, 2, "exactly the two injected handler faults");
    assert!(summary.cache_hits >= 2);
}

#[test]
fn topk_worker_panics_are_contained_and_flagged() {
    // Regression: top-k rebuilt every round's params from (γ, θ) alone, so
    // a request's `panic-worker` fault never reached the search and the
    // answer could not report a contained panic.
    let (addr, handle) = start_daemon(
        Graph::complete(6),
        ServeSettings {
            fault_injection: true,
            ..ServeSettings::default()
        },
    );
    let request = Request {
        cmd: "topk".to_string(),
        gamma: 0.9,
        k: 1,
        fault: Some("panic-worker:0".to_string()),
        ..Request::default()
    };
    let response = roundtrip(addr, &request);
    assert!(response.ok, "error: {:?}", response.error);
    assert!(response.extra_num("contained_panics").unwrap_or(0.0) >= 1.0);
    assert_eq!(response.extra_num("panicked_anchor"), Some(0.0));
    assert!(response.best_effort, "a lossy answer must be best-effort");
    assert!(!response.cached);
    shutdown(addr);
    handle.join().expect("daemon thread");
}

#[test]
fn fault_requests_are_refused_without_the_flag() {
    let graph = test_graph(60, 22);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    let response = roundtrip(
        addr,
        &Request {
            gamma: 0.9,
            theta: 4,
            fault: Some("panic".to_string()),
            ..Request::default()
        },
    );
    assert!(!response.ok);
    assert!(
        response
            .error
            .as_deref()
            .is_some_and(|e| e.contains("fault injection is disabled")),
        "got: {:?}",
        response.error
    );
    shutdown(addr);
    handle.join().expect("daemon thread");
}

#[test]
fn oversized_request_lines_are_rejected_and_the_daemon_survives() {
    let graph = test_graph(60, 23);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());

    // Slightly over the 1 MiB line cap: small enough to fit in socket
    // buffers even though the server stops reading mid-line.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let oversized = "x".repeat((1 << 20) + 4096);
    writer.write_all(oversized.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Response::parse_line(line.trim_end()).expect("parse error response");
    assert!(!response.ok);
    assert!(
        response
            .error
            .as_deref()
            .is_some_and(|e| e.contains("exceeds")),
        "got: {:?}",
        response.error
    );
    // The connection is dropped after the refusal…
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

    // …but the daemon itself keeps serving fresh connections.
    let ping = roundtrip(
        addr,
        &Request {
            cmd: "ping".to_string(),
            ..Request::default()
        },
    );
    assert!(ping.ok);

    shutdown(addr);
    let summary = handle.join().expect("daemon thread");
    assert_eq!(summary.errors, 1);
}

/// A line just under the cap is parsed in time linear in its length: one
/// long string field must not pin a daemon core.
#[test]
fn a_ping_with_a_one_mebibyte_id_is_answered_promptly() {
    let graph = test_graph(60, 24);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());

    let id = "i".repeat((1 << 20) - 64);
    let request = Request {
        cmd: "ping".to_string(),
        id: Some(id.clone()),
        ..Request::default()
    };
    let start = Instant::now();
    let response = roundtrip(addr, &request);
    let elapsed = start.elapsed();
    assert!(response.ok, "error: {:?}", response.error);
    assert_eq!(response.id.as_deref(), Some(id.as_str()));
    assert!(
        elapsed < Duration::from_secs(1),
        "a 1 MiB ping took {elapsed:?}"
    );

    shutdown(addr);
    handle.join().expect("daemon thread");
}

#[test]
fn ping_negotiates_the_protocol_version() {
    let graph = test_graph(60, 25);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());

    let ping = |version| {
        roundtrip(
            addr,
            &Request {
                cmd: "ping".to_string(),
                version: Some(version),
                ..Request::default()
            },
        )
    };
    let same = ping(1);
    assert!(same.ok, "error: {:?}", same.error);
    assert_eq!(same.extra_num("protocol_version"), Some(1.0));
    let other = ping(99);
    assert!(!other.ok);
    assert_eq!(other.extra_str("error_kind"), Some("protocol_version"));

    shutdown(addr);
    handle.join().expect("daemon thread");
}

/// Seeded protocol-line fuzz: random garbage and mutated valid requests,
/// first through `Request::parse_line` under `catch_unwind` (the parser must
/// never panic), then through a live daemon (every line gets exactly one
/// well-formed response and the daemon outlives all of it).
#[test]
fn protocol_line_fuzz_never_panics_the_parser_or_kills_the_daemon() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xF00D);
    let base_lines = [
        Request {
            gamma: 0.9,
            theta: 4,
            sets: true,
            ..Request::default()
        }
        .to_line(),
        Request {
            cmd: "query".to_string(),
            gamma: 0.85,
            theta: 3,
            vertices: vec![0, 1, 2],
            ..Request::default()
        }
        .to_line(),
        Request {
            cmd: "update".to_string(),
            insert: vec![(0, 5)],
            delete: vec![(1, 2)],
            ..Request::default()
        }
        .to_line(),
    ];
    const POOL: &[char] = &[
        '{', '}', '[', ']', '"', ':', ',', '.', '-', '\\', '0', '7', '9', 'a', 'z', 'µ', '∞', ' ',
        '\t', 'n', 'e',
    ];
    let mutate = |rng: &mut StdRng| -> String {
        let mut line: Vec<char> = if rng.gen_bool(0.5) {
            // Mutate a valid request line.
            base_lines[rng.gen_range(0..base_lines.len())]
                .chars()
                .collect()
        } else {
            // Pure random garbage.
            (0..rng.gen_range(0..120))
                .map(|_| POOL[rng.gen_range(0..POOL.len())])
                .collect()
        };
        for _ in 0..rng.gen_range(1..8) {
            if line.is_empty() {
                line.push(POOL[rng.gen_range(0..POOL.len())]);
                continue;
            }
            let at = rng.gen_range(0..line.len());
            match rng.gen_range(0..4) {
                0 => line[at] = POOL[rng.gen_range(0..POOL.len())],
                1 => {
                    line.insert(at, POOL[rng.gen_range(0..POOL.len())]);
                }
                2 => {
                    line.remove(at);
                }
                _ => line.truncate(at),
            }
        }
        let mut line: String = line
            .into_iter()
            .filter(|&c| c != '\n' && c != '\r')
            .collect();
        // The daemon silently skips whitespace-only lines (no response), so
        // a blank line would deadlock the one-response-per-line loop below.
        if line.trim().is_empty() {
            line.push('{');
        }
        line
    };

    let lines: Vec<String> = (0..400).map(|_| mutate(&mut rng)).collect();

    // Parser half: must return Ok or Err, never unwind.
    for line in &lines {
        let parsed = std::panic::catch_unwind(|| Request::parse_line(line));
        assert!(parsed.is_ok(), "parse_line panicked on {line:?}");
    }

    // Daemon half: one response per line, daemon survives all of them.
    let graph = test_graph(60, 24);
    let (addr, handle) = start_daemon(graph, ServeSettings::default());
    for chunk in lines.chunks(50) {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for line in chunk {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            assert!(
                reader.read_line(&mut response).unwrap() > 0,
                "daemon closed the connection on {line:?}"
            );
            Response::parse_line(response.trim_end())
                .unwrap_or_else(|e| panic!("unparseable response to {line:?}: {e}"));
        }
    }

    // A real request still works afterwards.
    let sane = roundtrip(
        addr,
        &Request {
            gamma: 0.9,
            theta: 4,
            ..Request::default()
        },
    );
    assert!(sane.ok, "error: {:?}", sane.error);
    shutdown(addr);
    handle.join().expect("daemon thread");
}

/// SIGKILL the daemon mid-life and restart it with the same `--wal`: the
/// replayed log must land on the exact pre-crash fingerprint and family.
#[cfg(unix)]
#[test]
fn sigkilled_daemon_recovers_its_state_from_the_wal() {
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("mqce_wal_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("graph.txt");
    let sock = dir.join("daemon.sock");
    let wal = dir.join("updates.wal");
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_file(&wal);

    let graph = test_graph(60, 25);
    mqce_cli::save_graph(&graph, graph_path.to_str().unwrap()).unwrap();
    let loaded = mqce_cli::load_graph(graph_path.to_str().unwrap()).unwrap();

    let spawn_daemon = || {
        Command::new(env!("CARGO_BIN_EXE_mqce"))
            .args([
                "serve",
                graph_path.to_str().unwrap(),
                "--socket",
                sock.to_str().unwrap(),
                "--wal",
                wal.to_str().unwrap(),
                "--quiet",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon process")
    };
    let wait_ready = || {
        for _ in 0..400 {
            if UnixStream::connect(&sock).is_ok() {
                return;
            }
            thread::sleep(Duration::from_millis(25));
        }
        panic!("daemon did not come up on {}", sock.display());
    };
    let unix_roundtrip = |request: &Request| -> Response {
        let stream = UnixStream::connect(&sock).expect("connect to daemon");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        writer
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .expect("send request");
        writer.flush().expect("flush request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Response::parse_line(line.trim_end()).expect("parse response")
    };

    let mut child = spawn_daemon();
    wait_ready();

    // Two updates, each durably logged before it is applied.
    let (du, dv) = loaded.edges().next().expect("graph has edges");
    let non_edges: Vec<(u32, u32)> = (0..loaded.num_vertices() as u32)
        .flat_map(|u| (0..loaded.num_vertices() as u32).map(move |v| (u, v)))
        .filter(|&(u, v)| u < v && !loaded.has_edge(u, v))
        .take(2)
        .collect();
    let mut offsets = Vec::new();
    for (i, batch) in [
        (vec![non_edges[0]], vec![(du, dv)]),
        (vec![non_edges[1]], vec![]),
    ]
    .iter()
    .enumerate()
    {
        let response = unix_roundtrip(&Request {
            cmd: "update".to_string(),
            insert: batch.0.clone(),
            delete: batch.1.clone(),
            ..Request::default()
        });
        assert!(response.ok, "update {i} failed: {:?}", response.error);
        let offset = response
            .extra_num("wal_offset")
            .expect("update must report its WAL offset");
        offsets.push(offset);
    }
    assert!(offsets[1] > offsets[0], "the WAL must grow monotonically");

    let enumerate = Request {
        gamma: 0.9,
        theta: 4,
        sets: true,
        ..Request::default()
    };
    let ping = Request {
        cmd: "ping".to_string(),
        ..Request::default()
    };
    let pre_fp = unix_roundtrip(&ping)
        .extra_str("fingerprint")
        .expect("ping reports a fingerprint")
        .to_string();
    let pre_family = unix_roundtrip(&enumerate).mqcs.expect("sets requested");

    // SIGKILL: no destructors, no socket cleanup, no WAL finalisation.
    child.kill().expect("kill daemon");
    child.wait().expect("reap daemon");
    let _ = std::fs::remove_file(&sock);

    let mut child = spawn_daemon();
    wait_ready();
    let post_fp = unix_roundtrip(&ping)
        .extra_str("fingerprint")
        .expect("ping reports a fingerprint")
        .to_string();
    assert_eq!(post_fp, pre_fp, "WAL replay must restore the fingerprint");
    let post = unix_roundtrip(&enumerate);
    assert!(
        post.ok && !post.cached,
        "a fresh process has an empty cache"
    );
    assert_eq!(
        post.mqcs.as_ref(),
        Some(&pre_family),
        "WAL replay must restore the exact family"
    );

    assert!(
        unix_roundtrip(&Request {
            cmd: "shutdown".to_string(),
            ..Request::default()
        })
        .ok
    );
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown after recovery");
}

/// Drives the real CLI sub-commands over a Unix socket: `serve` in a
/// background thread, `client` for ping / enumerate / shutdown.
#[cfg(unix)]
#[test]
fn cli_serve_and_client_roundtrip_over_unix_socket() {
    let dir = std::env::temp_dir().join("mqce_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("daemon_graph.txt");
    let sock_path = dir.join(format!("daemon_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_path);

    let graph = test_graph(500, 5);
    mqce_cli::save_graph(&graph, graph_path.to_str().unwrap()).unwrap();
    // The edge-list roundtrip relabels vertices, so the expectation must
    // come from the file the daemon will load, not the in-memory graph.
    let loaded = mqce_cli::load_graph(graph_path.to_str().unwrap()).unwrap();
    let expected = Session::open(loaded.clone())
        .config(MqceConfig::new(0.9, 4).unwrap())
        .run()
        .mqcs;

    let argv = |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
    let serve_args = argv(&[
        "serve",
        graph_path.to_str().unwrap(),
        "--socket",
        sock_path.to_str().unwrap(),
        "--quiet",
    ]);
    let server = thread::spawn(move || {
        let mut sink = Vec::new();
        mqce_cli::run(&serve_args, &mut sink).expect("serve runs to clean shutdown");
    });

    let client = |parts: &[&str]| -> String {
        let mut full = vec![
            "client".to_string(),
            "--socket".to_string(),
            sock_path.to_str().unwrap().to_string(),
            "--retry-secs".to_string(),
            "10".to_string(),
        ];
        full.extend(parts.iter().map(|s| s.to_string()));
        let mut out = Vec::new();
        mqce_cli::run(&full, &mut out).expect("client succeeds");
        String::from_utf8(out).unwrap()
    };

    let ping = client(&["--cmd", "ping"]);
    let ping = Response::parse_line(ping.trim()).unwrap();
    assert!(ping.ok);
    assert!(ping.extra_num("vertices").unwrap() > 0.0);

    let cold = client(&["--cmd", "enumerate", "--gamma", "0.9", "--theta", "4"]);
    let cold = Response::parse_line(cold.trim()).unwrap();
    assert!(cold.ok && !cold.cached);
    assert_eq!(cold.count, expected.len());

    let warm = client(&[
        "--cmd",
        "enumerate",
        "--gamma",
        "0.9",
        "--theta",
        "4",
        "--sets",
    ]);
    let warm = Response::parse_line(warm.trim()).unwrap();
    assert!(warm.cached, "same request again must hit the cache");
    assert_eq!(warm.mqcs.as_ref(), Some(&expected));

    // Mutate the graph through the client's `--insert`/`--delete` edge-pair
    // flags; the daemon must answer subsequent requests for the new graph.
    use mqce_graph::GraphDelta;
    let (du, dv) = loaded.edges().next().expect("graph has edges");
    let (iu, iv) = (0..loaded.num_vertices() as u32)
        .flat_map(|u| (0..loaded.num_vertices() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| u < v && !loaded.has_edge(u, v))
        .expect("some non-edge exists");
    let updated = client(&[
        "--cmd",
        "update",
        "--insert",
        &format!("{iu}-{iv}"),
        "--delete",
        &format!("{du}-{dv}"),
    ]);
    let updated = Response::parse_line(updated.trim()).unwrap();
    assert!(updated.ok, "update failed: {:?}", updated.error);
    let mutated = GraphDelta::new(vec![(iu, iv)], vec![(du, dv)]).apply(&loaded);
    let expected_after = Session::open(mutated.clone())
        .config(MqceConfig::new(0.9, 4).unwrap())
        .run()
        .mqcs;
    let after = client(&[
        "--cmd",
        "enumerate",
        "--gamma",
        "0.9",
        "--theta",
        "4",
        "--sets",
    ]);
    let after = Response::parse_line(after.trim()).unwrap();
    assert_eq!(updated.extra_num("cache_advanced"), Some(1.0));
    assert!(
        after.ok && after.cached,
        "the update advances the cached enumeration to the mutated graph"
    );
    assert_eq!(after.mqcs.as_ref(), Some(&expected_after));

    client(&["--shutdown"]);
    server.join().expect("server thread");
    assert!(!sock_path.exists(), "socket file must be cleaned up");
}
