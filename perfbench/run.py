#!/usr/bin/env python3
"""The mqce benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload community-20k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It works in the checkout it lives in, whatever the working directory. It
builds the release `mqce` binary and the `perfprobe` helper (perfbench/src)
offline into $CARGO_TARGET_DIR
(default `.bench_build`), makes the workload's inputs from --seed, measures
for --seconds seconds, checks every output against a per-seed reference and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Lines before the last one are a human
readable report (sample counts, quartiles, user CPU next to wall time,
workload-specific figures). Every input, reference, span file and result
goes under perfbench/out/, and nothing else in the checkout is written.
The exit code is non-zero when a check fails or the build does not work.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)

# Benchmark-side wall limit per CLI run or request; a run that hits it (or
# the CLI's own --time-limit-secs) counts as failed, never as a slow sample.
LIMIT_SECS = 60

COMMUNITY = ["community", "--size-spread", "0.5", "--p-intra", "0.9", "--inter-degree", "1.0"]

# Each workload's graph is one fixed sample (its structure seed) whose vertex
# ids are permuted by --seed. Independent samples differ in work by more than
# a regression bound can absorb: over five seeds, er-dense branch counts
# spread 347k-500k, serve-mixed enumerate times 0.8-1.9 s, community-20k
# peak RSS 238-265 MB.
WORKLOADS = {
    # ROADMAP's reference graph: S2 (inline probes, merge, compaction) is
    # about half the wall time, so scheduler, S2 and pipeline changes show.
    "community-20k": dict(
        kind="batch",
        graph=COMMUNITY + ["--n", "20000", "--communities", "1000", "--structure-seed", "1"],
        small=COMMUNITY + ["--n", "2000", "--communities", "100", "--structure-seed", "1"],
        gamma=0.9, theta=8, threads=2,
    ),
    # The paper's Fig. 10 synthetic family: no QC reaches theta, so all the
    # time is core reduction, extraction, pruning and branch-and-bound; the
    # control on which an S2 or scheduler change must not move. Not gated in
    # BENCHMARK.json: its single thread follows the host's speed swings
    # undamped (see README "Noise and bounds").
    "er-dense": dict(
        kind="batch",
        graph=["er", "--n", "1000", "--density", "40", "--structure-seed", "3"],
        small=["er", "--n", "300", "--density", "20", "--structure-seed", "3"],
        gamma=0.9, theta=6, threads=1,
    ),
    # The only workload through the protocol, result cache, topk and the
    # daemon's update path; the seed also drives the traffic. One closed-loop
    # connection, each enumerate on `threads` threads: with two connections
    # the requests' interleaving decided which enumerates hit the cache, and
    # a session's work (hence wall_s) varied by up to a quarter.
    "serve-mixed": dict(
        kind="serve",
        graph=COMMUNITY + ["--n", "3000", "--communities", "150", "--structure-seed", "2"],
        small=COMMUNITY + ["--n", "600", "--communities", "30", "--structure-seed", "2"],
        gamma=0.9, theta=8, threads=2,
    ),
}

# serve-mixed request script: two rounds of this 20-request template, 25%
# enumerate, 50% query, 15% topk, 10% update. Each round asks for the four
# enumerate keys once each in a seeded order, then one of them again (a hit),
# and ends with an update pair (a delete, then an insert). The second round's
# keys are misses under today's evict-on-update cache and would be hits under
# one that survives updates. The query between the two updates repeats the
# round's first query vertex: a hit when the update kept its cache entry. So
# every session computes each key twice, whatever the seed.
ENUMERATE_KEYS = [(0.85, 8), (0.85, 10), (0.9, 8), (0.9, 10)]
ROUND_TEMPLATE = ["enumerate", "query", "query", "topk", "enumerate", "query", "query",
                  "enumerate", "query", "topk", "query", "enumerate", "query", "query",
                  "enumerate", "query", "topk", "update", "query", "update"]
ROUNDS = 2

# Set-up is timed once per fresh process, as a CLI run or a daemon start
# pays it (later repetitions in one process reuse warm allocator memory and
# run up to 2x faster), in processes spread over the whole run: the host's
# speed drifts within seconds, and a burst of samples sees only one state.
SETUP_PER_REP = 2


# ---------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs):
    """The highest percentile with at least ten samples beyond it (the max
    when there are too few samples), with its percentile and sample count."""
    s = sorted(xs)
    if not s:
        return 0.0, 0.0, 0
    i = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def spread_line(name, xs, unit):
    q1, q2, q3 = quartiles(xs)
    return f"  {name:<22} n={len(xs):<3} q1={q1:.4f} median={q2:.4f} q3={q3:.4f} {unit}"


# ---------------------------------------------------------------- processes

class Build:
    def __init__(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = target if os.path.isabs(target) else os.path.join(ROOT, target)
        self.mqce = os.path.join(self.target, "release", "mqce")
        self.probe = os.path.join(self.target, "release", "perfprobe")

    def build(self):
        if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
            raise SystemExit("perfbench: no Cargo workspace at the checkout root")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-p", "mqce-cli", "--bin", "mqce"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(BENCH, "Cargo.toml")],
        ):
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")

    def probe_json(self, *args):
        done = subprocess.run([self.probe, *map(str, args)], cwd=ROOT, capture_output=True,
                              text=True, timeout=LIMIT_SECS * 2)
        if done.returncode != 0:
            raise RuntimeError(f"perfprobe {args[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout.strip().splitlines()[-1])


class Proc:
    """A child process whose rusage is collected when it is reaped."""

    def __init__(self, cmd, stdout, limit=LIMIT_SECS + 30):
        self.killed = False
        self.start = time.perf_counter()
        self.p = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=subprocess.DEVNULL)
        self.timer = threading.Timer(limit, self.kill)
        self.timer.daemon = True
        self.timer.start()

    def kill(self):
        self.killed = True
        self.p.kill()

    def wait(self):
        _, status, ru = os.wait4(self.p.pid, 0)
        wall = time.perf_counter() - self.start
        self.timer.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        return dict(wall_s=wall, user_s=ru.ru_utime, rss_mb=ru.ru_maxrss / 1024.0,
                    code=self.p.returncode, killed=self.killed)


def run_cli(build, args, stdout_path, limit_secs):
    """Runs `mqce` with its output in `stdout_path`. The run finished when it
    exited cleanly within the limit and printed no WARNING (time limit or S2
    deadline hit)."""
    with open(stdout_path, "wb") as out:
        sample = Proc([build.mqce, *args, "--time-limit-secs", str(limit_secs)], out).wait()
    with open(stdout_path, "rb") as f:
        head = f.read(4096).decode(errors="replace")
    sample["finished"] = sample["code"] == 0 and not sample["killed"] and "WARNING" not in head
    sample["head"] = head
    return sample


# ---------------------------------------------------------------- results

class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def op(self, ok, wrong=False, note=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note or "failed operation")
        if wrong:
            self.correct = False


def same_family(build, path, ref):
    """Whether the sets printed in `path` have the reference's digest."""
    got = build.probe_json("digest", path)
    return got["count"] == ref["count"] and got["digest"] == ref["digest"]


# ---------------------------------------------------------------- workloads

def make_inputs(build, spec, seed, small, workdir):
    graph = os.path.join(workdir, "graph.txt")
    gen = spec["small" if small else "graph"]
    info = build.probe_json("gen", gen[0], graph, *gen[1:], "--seed", seed)
    return graph, info


def reference(build, spec, graph, workdir):
    """The per-seed reference family (one thread, inverted S2 backend,
    checked with verify_mqc_set), cached next to the seed's inputs."""
    cached = os.path.join(workdir, "reference.json")
    if os.path.exists(cached):
        with open(cached) as f:
            return json.load(f)
    ref = build.probe_json("reference", graph, os.path.join(workdir, "reference.txt"),
                           "--gamma", spec["gamma"], "--theta", spec["theta"])
    if ref["violations"]:
        raise RuntimeError(f"reference family fails verify_mqc_set: {ref}")
    with open(cached + ".tmp", "w") as f:
        json.dump(ref, f)
    os.replace(cached + ".tmp", cached)
    return ref


def enumerate_args(spec, graph):
    return ["enumerate", graph, "--gamma", str(spec["gamma"]), "--theta", str(spec["theta"]),
            "--threads", str(spec["threads"]), "--print-sets"]


def enumerate_cli(build, spec, graph, ref, outcome, limit, workdir, label):
    """One timed `mqce enumerate --print-sets` run, load to output; its
    family must match the reference digest."""
    sets_path = os.path.join(workdir, "cli-sets.txt")
    sample = run_cli(build, enumerate_args(spec, graph), sets_path, limit)
    right = sample["finished"] and same_family(build, sets_path, ref)
    outcome.op(right, wrong=sample["finished"] and not right,
               note=f"{label}: exit={sample['code']} finished={sample['finished']} "
                    f"family matches reference={right}")
    return sample


def batch_run(build, spec, seed, seconds, trace, small, limit, workdir, report):
    outcome = Outcome()
    graph, info = make_inputs(build, spec, seed, small, workdir)
    ref = reference(build, spec, graph, workdir)
    report.append(f"  input: {info}  reference: {ref['count']} MQCs ({ref['run_s']:.2f}s)")

    if trace:
        return outcome, layer_metrics(build, spec, graph, ref, enumerate_cli(
            build, spec, graph, ref, outcome, limit, workdir, "CLI run"), outcome, workdir, report)

    setup_s, samples = [], []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        for _ in range(SETUP_PER_REP):
            setup = build.probe_json("setup", graph)
            setup_s.append(setup["load_s"] + setup["prepare_s"])
        samples.append(enumerate_cli(build, spec, graph, ref, outcome, limit, workdir,
                                     f"timed run {len(samples) + 1}"))
    walls = [s["wall_s"] for s in samples]
    report.append("  samples: " + json.dumps([
        {k: round(s[k], 4) for k in ("wall_s", "user_s", "rss_mb")} for s in samples]))
    report.append(spread_line("wall_s", walls, "s"))
    report.append(spread_line("user_cpu_s", [s["user_s"] for s in samples], "s"))
    report.append(spread_line("setup_s", setup_s, "s"))
    return outcome, {
        "wall_s": median(walls),
        "setup_s": median(setup_s),
        "peak_rss_mb": median([s["rss_mb"] for s in samples]),
    }


# Input descriptors: recorded by every traced run to show the seed made a
# comparable input. No change should move them, so BENCHMARK.json does not
# list them (every metric there has a direction); they go on the report.
DESCRIPTORS = ("graph.vertices", "graph.edges", "graph.degeneracy")


def cli_residual(build, graph, cli_sample):
    """The CLI run's wall time minus what it reports (its `time s1=.. s2=..`
    line) and minus a cold load + prepare: the load, output and drop time
    reported nowhere. Both big terms come from the same process, so the
    host's speed drifts cancel."""
    # A run that failed (and was counted so) may have printed no time line.
    times = next((line for line in cli_sample["head"].splitlines()
                  if line.startswith("time ")), "time")
    reported = sum(float(part.split("=")[1].rstrip("s")) for part in times.split()[1:])
    setup = build.probe_json("setup", graph)
    return cli_sample["wall_s"] - reported - setup["load_s"] - setup["prepare_s"]


def layer_metrics(build, spec, graph, ref, cli_sample, outcome, workdir, report):
    """The traced run: spans around each layer's public calls, recorded by
    perfprobe and written to spans.json when it ends. Its first operation is
    load -> prepare -> Session::run in a fresh process, as cold as the
    untraced `pipeline` run it is compared with."""
    args = ("--gamma", spec["gamma"], "--theta", spec["theta"], "--threads", spec["threads"])
    untraced = build.probe_json("pipeline", graph, *args)
    spans = os.path.join(workdir, "spans.json")
    layers = build.probe_json("layers", graph, spans, *args)
    for label, got in (("untraced in-process run", untraced), ("traced run", layers)):
        same = got["count"] == ref["count"] and got["digest"] == ref["digest"]
        outcome.op(same, wrong=not same,
                   note=f"{label} family {got['count']}/{got['digest']} != reference")
    report.append("  input descriptors: " + json.dumps({k: layers[k] for k in DESCRIPTORS}))
    report.append("  self time by span (s): " + json.dumps(layers["self_s"]))
    report.append(f"  S2 auto backend on the S1 stream: {layers['settrie.auto_backend']} "
                  f"(cost model decided: {bool(layers['settrie.dispatch_modeled'])}); "
                  f"spans recorded: {layers['spans']} -> {spans}")
    return dict(layers, **{
        "cli.residual_s": cli_residual(build, graph, cli_sample),
        "cli.user_cpu_s": cli_sample["user_s"],
        "trace.overhead_s": layers["pipeline_s"] - untraced["pipeline_s"],
    })


# ---------------------------------------------------------------- serve-mixed

class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(LIMIT_SECS)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        """Sends one request; returns (response or None, latency in ms)."""
        line = (json.dumps(request) + "\n").encode()
        t0 = time.perf_counter()
        try:
            self.sock.sendall(line)
            raw = self.reader.readline()
        except OSError:
            return None, (time.perf_counter() - t0) * 1e3
        latency = (time.perf_counter() - t0) * 1e3
        return (json.loads(raw) if raw else None), latency

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """`mqce serve` on a Unix socket; set-up time is from spawn until the
    first `ping` is answered."""

    def __init__(self, build, graph, sock_path):
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.proc = Proc([build.mqce, "serve", graph, "--socket", sock_path, "--quiet"],
                         subprocess.DEVNULL, limit=LIMIT_SECS * 3)
        self.path = sock_path
        try:
            while True:
                try:
                    conn = Connection(sock_path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if time.perf_counter() - self.proc.start > LIMIT_SECS:
                        raise RuntimeError("mqce serve did not come up")
                    time.sleep(0.001)
            response, _ = conn.call({"cmd": "ping"})
            self.setup_s = time.perf_counter() - self.proc.start
            conn.close()
            if not response or not response.get("ok"):
                raise RuntimeError(f"mqce serve ping failed: {response}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def call(self, request):
        conn = Connection(self.path)
        try:
            return conn.call(request)[0]
        finally:
            conn.close()

    def peak_rss_mb(self):
        """The daemon's own high-water RSS. The rusage of a reaped child is
        no use here: Linux carries the parent's peak RSS across fork and
        exec into the child's, so it would report this driver's memory
        whenever that is the larger."""
        with open(f"/proc/{self.proc.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the daemon")

    def stop(self):
        """Shuts the daemon down (killing it if it does not answer) and
        returns its usage."""
        try:
            self.call({"cmd": "shutdown"})
        except OSError:
            self.proc.kill()
        return self.proc.wait()


def read_edges(graph):
    edges = set()
    with open(graph) as f:
        for line in f:
            if line[0].isdigit():
                u, v = map(int, line.split())
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return edges


def make_script(spec, seed, n, edges):
    """The session's seeded requests: ROUNDS rounds of ROUND_TEMPLATE."""
    rng = random.Random(seed)
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    current = set(edges)
    script = []
    for _ in range(ROUNDS):
        keys = rng.sample(ENUMERATE_KEYS, len(ENUMERATE_KEYS))
        keys.append(rng.choice(keys))
        first_vertex, deleted = None, False
        for cmd in ROUND_TEMPLATE:
            if cmd == "enumerate":
                gamma, theta = keys.pop(0)
                script.append({"cmd": cmd, "gamma": gamma, "theta": theta,
                               "threads": spec["threads"]})
            elif cmd == "query":
                vertex = first_vertex if deleted else rng.randrange(n)
                first_vertex = vertex if first_vertex is None else first_vertex
                script.append({"cmd": cmd, "gamma": 0.9, "theta": 8, "vertices": [vertex]})
            elif cmd == "topk":
                script.append({"cmd": cmd, "gamma": 0.9, "k": 5})
            elif not deleted:
                edge = rng.choice(sorted(current & edges))
                current.discard(edge)
                script.append({"cmd": cmd, "delete": [list(edge)]})
                deleted = True
            else:
                # Close an open two-path u-w-v: an insert inside a community.
                while True:
                    u = rng.choice(sorted(adj))
                    w = rng.choice(adj[u])
                    v = rng.choice(adj[w])
                    edge = (min(u, v), max(u, v))
                    if u != v and edge not in current and edge not in edges:
                        break
                current.add(edge)
                script.append({"cmd": cmd, "insert": [list(edge)]})
    return script


def run_session(build, spec, graph, script, workdir):
    """One daemon lifetime: start, drive one closed-loop client through the
    script, read the cache counters, answer the final no-cache enumerate,
    shut down."""
    sock = os.path.relpath(os.path.join(workdir, "mqce.sock"), ROOT)
    records = []
    daemon = Daemon(build, graph, sock)
    try:
        base = time.perf_counter()
        conn = Connection(sock)
        try:
            for i, request in enumerate(script):
                sent = time.perf_counter() - base
                response, latency = conn.call(dict(request, id=str(i)))
                records.append(dict(request=request, response=response, latency_ms=latency,
                                    sent=sent, done=time.perf_counter() - base))
        finally:
            conn.close()
        wall = time.perf_counter() - base
        # Taken before the check below, whose rendering of the whole family
        # is the benchmark's own load.
        rss_mb = daemon.peak_rss_mb()
        ping = daemon.call({"cmd": "ping"}) or {}
        final = daemon.call({"cmd": "enumerate", "gamma": spec["gamma"], "theta": spec["theta"],
                             "threads": spec["threads"], "no_cache": True, "sets": True})
    finally:
        usage = daemon.stop()
    return dict(setup_s=daemon.setup_s, wall_s=wall, records=records, ping=ping,
                final=final, usage=dict(usage, rss_mb=rss_mb))


def request_failed(rec):
    r = rec["response"]
    return not r or not r.get("ok") or r.get("best_effort") or r.get("s2_timed_out")


def serve_extras(sessions):
    """Client latencies per command, daemon compute time, transport time and
    cache/update/topk counters over all sessions of the run."""
    recs = [r for s in sessions for r in s["records"] if not request_failed(r)]
    by = lambda cmd: [r for r in recs if r["request"]["cmd"] == cmd]
    out = {}
    for cmd in ("enumerate", "query", "topk", "update"):
        lat = [r["latency_ms"] for r in by(cmd)]
        value, pct, count = tail(lat)
        out[f"{cmd}_p50_ms"] = median(lat)
        out[f"{cmd}_tail_ms"] = value
        out[f"{cmd}_tail_pct"] = pct
        out[f"{cmd}_samples"] = count
        out[f"serve.compute_ms.{cmd}"] = median([r["response"]["elapsed_ms"] for r in by(cmd)])
    fast = by("query") + by("topk")
    out["serve.transport_ms"] = median([r["latency_ms"] - r["response"]["elapsed_ms"] for r in fast])
    total = sum(len(s["records"]) for s in sessions)
    out["rps"] = median([len(s["records"]) / s["wall_s"] for s in sessions])
    out["error_rate"] = sum(request_failed(r) for s in sessions for r in s["records"]) / max(total, 1)
    hits = sum(s["ping"].get("cache_hits", 0) for s in sessions)
    misses = sum(s["ping"].get("cache_misses", 0) for s in sessions)
    out["serve.cache_hit_ratio"] = hits / max(hits + misses, 1)
    out["serve.cache_evictions"] = median([s["ping"].get("cache_evictions", 0) for s in sessions])
    out["serve.enumerate_cached_frac"] = (sum(bool(r["response"]["cached"]) for r in by("enumerate"))
                                          / max(len(by("enumerate")), 1))
    updates = [r["response"] for r in by("update")]
    kept = sum(u.get("cache_kept", 0) for u in updates)
    dropped = sum(u.get("cache_invalidated", 0) for u in updates)
    out["serve.update_dirty"] = median([u.get("dirty", 0) for u in updates])
    out["serve.update_cache_kept_frac"] = kept / max(kept + dropped, 1)
    after = []
    for s in sessions:
        stale, seen_updates = set(), 0
        for r in sorted(s["records"], key=lambda r: r["sent"]):
            finished_updates = sum(1 for u in s["records"]
                                   if u["request"]["cmd"] == "update" and u["done"] <= r["sent"])
            if finished_updates > seen_updates:
                stale, seen_updates = {tuple(k) for k in ENUMERATE_KEYS}, finished_updates
            key = (r["request"].get("gamma"), r["request"].get("theta"))
            if r["request"]["cmd"] == "enumerate" and key in stale and not request_failed(r):
                after.append(r["latency_ms"])
                stale.discard(key)
    out["serve.enumerate_after_update_ms"] = median(after)
    out["serve.topk_rounds"] = median([r["response"].get("rounds", 0) for r in by("topk")])
    return out


def replay_updates(edges, script):
    final = set(edges)
    for request in script:
        for u, v in request.get("insert", []):
            final.add((u, v))
        for u, v in request.get("delete", []):
            final.discard((u, v))
    return final


def serve_run(build, spec, seed, seconds, trace, small, limit, workdir, report):
    outcome = Outcome()
    graph, info = make_inputs(build, spec, seed, small, workdir)
    n = int(info["vertices"])
    edges = read_edges(graph)
    report.append(f"  input: {info}")

    # The update log replayed onto the edge list, enumerated by a fresh CLI
    # run: every session's final no-cache enumerate must equal it.
    script = make_script(spec, seed, n, edges)
    replayed = os.path.join(workdir, "replayed.txt")
    with open(replayed, "w") as f:
        f.write(f"# {n} vertices\n")
        f.writelines(f"{v} {v}\n" for v in range(n))
        f.writelines(f"{u} {v}\n" for u, v in sorted(replay_updates(edges, script)))
    fresh_path = os.path.join(workdir, "replayed-sets.txt")
    fresh = run_cli(build, enumerate_args(dict(spec, threads=1), replayed), fresh_path, limit)
    if not fresh["finished"]:
        raise RuntimeError("fresh CLI run on the replayed edge list failed")
    expected = build.probe_json("digest", fresh_path)

    setup_s, sessions = [], []
    t0 = time.perf_counter()
    while not sessions or (not trace and time.perf_counter() - t0 < seconds):
        for _ in range(0 if trace else SETUP_PER_REP - 1):
            daemon = Daemon(build, graph, os.path.relpath(os.path.join(workdir, "mqce.sock"), ROOT))
            setup_s.append(daemon.setup_s)
            daemon.stop()
        s = run_session(build, spec, graph, script, workdir)
        sessions.append(s)
        setup_s.append(s["setup_s"])
        for rec in s["records"]:
            outcome.op(not request_failed(rec), note=f"request {rec['request']} -> {rec['response']}")
        final_path = os.path.join(workdir, "daemon-sets.txt")
        with open(final_path, "w") as f:
            for mqc in (s["final"] or {}).get("mqcs", []):
                f.write(" ".join(map(str, mqc)) + "\n")
        answered = bool(s["final"]) and not request_failed(dict(response=s["final"]))
        right = answered and same_family(build, final_path, expected)
        outcome.op(right, wrong=answered and not right,
                   note=f"final no-cache enumerate: answered={answered} matches replay={right}")
        s["final"] = None  # a whole family per session would pile up here

    extras = serve_extras(sessions)
    report.append("  serve: " + json.dumps({k: round(v, 4) for k, v in extras.items()}))
    walls = [s["wall_s"] for s in sessions]
    report.append("  samples: " + json.dumps([
        dict(wall_s=round(s["wall_s"], 4), user_s=round(s["usage"]["user_s"], 4),
             rss_mb=round(s["usage"]["rss_mb"], 4)) for s in sessions]))
    report.append(spread_line("wall_s", walls, "s"))
    report.append(spread_line("daemon user_cpu_s", [s["usage"]["user_s"] for s in sessions], "s"))
    report.append(spread_line("setup_s", setup_s, "s"))
    if trace:
        ref = reference(build, spec, graph, workdir)
        plain = enumerate_cli(build, spec, graph, ref, outcome, limit, workdir, "CLI run")
        return outcome, layer_metrics(build, spec, graph, ref, plain, outcome, workdir, report)
    return outcome, {
        "wall_s": median(walls),
        "setup_s": median(setup_s),
        "peak_rss_mb": median([s["usage"]["rss_mb"] for s in sessions]),
    }


# ---------------------------------------------------------------- main

def run_workload(build, name, seed, seconds, trace, small=False, limit=LIMIT_SECS):
    spec = WORKLOADS[name]
    workdir = os.path.join(OUT, f"{name}{'-small' if small else ''}-s{seed}")
    os.makedirs(workdir, exist_ok=True)
    report = [f"workload {name} seed={seed} seconds={seconds} trace={trace}"
              f"{' (small preset)' if small else ''}"]
    runner = batch_run if spec["kind"] == "batch" else serve_run
    outcome, metrics = runner(build, spec, seed, seconds, trace, small, limit, workdir, report)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    report += [f"  problem: {note}" for note in outcome.notes[:10]]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{os.path.basename(workdir)}-t{trace}.json"), "w") as f:
        json.dump(dict(result, report=report), f, indent=1)
    return result, report


def self_test(build):
    """Small presets, a few seconds each: every BENCHMARK.json metric is
    printed, a family with one set removed fails the digest check, and a
    timed-out run counts as failed."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(build, name, 1, 1, trace, small=True)
            print("\n".join(report))
            wanted = {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
            if set(result["metrics"]) != wanted or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result}")
    workdir = os.path.join(OUT, "community-20k-small-s1")
    with open(os.path.join(workdir, "reference.json")) as f:
        ref = json.load(f)
    with open(os.path.join(workdir, "reference.txt")) as f:
        lines = f.readlines()
    cut = os.path.join(workdir, "one-set-removed.txt")
    with open(cut, "w") as f:
        f.writelines(lines[:len(lines) // 2] + lines[len(lines) // 2 + 1:])
    if same_family(build, cut, ref):
        problems.append("the digest check accepted a family with one set removed")
    result, _ = run_workload(build, "er-dense", 1, 1, 0, small=True, limit=0)
    if result["failed"] == 0:
        problems.append(f"a timed-out run was not counted as failed: {result}")
    for p in problems:
        print("SELF-TEST FAILED:", p)
    print("self-test", "failed" if problems else "passed")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    # Paths below (the daemon's socket in particular, kept relative for the
    # Unix socket length limit) are relative to the checkout root.
    os.chdir(ROOT)
    build = Build()
    build.build()
    if args.self_test:
        sys.exit(0 if self_test(build) else 1)
    try:
        result, report = run_workload(build, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        sys.exit(f"perfbench: {args.workload} seed {args.seed} failed: {err}")
    print("\n".join(report))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
